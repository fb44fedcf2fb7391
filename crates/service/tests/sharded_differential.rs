//! Differential harness: the shard count must be invisible.
//!
//! For every shard count K ∈ {1, 2, 7, 16} these properties drive
//! *identical* task streams and mutation sequences through a K-shard
//! service, a default (one-shard) service and the direct solvers, and assert
//! **bit-identical** [`Selection`]s — members, JER bits, cost bits and
//! solver stats — including solver errors, pools whose size is not
//! divisible by K, empty shards (K > pool size), budgets that straddle
//! shard boundaries, and interleaved insert/update/remove sequences.
//!
//! The guarantee under test is the sharding invariant documented in
//! `jury_service`'s crate docs: per-shard sorted runs K-way-merge into
//! exactly the one-shard run's permutation, so the solvers' presorted
//! scans perform the identical float operations.
//!
//! Every PayM assertion also exercises the **budget staircase**: each
//! service task is solved twice (the staircase-recording miss and the
//! binary-search replay hit), and [`check_staircase`] drives a standalone
//! [`Staircase`] against `PayAlg::solve_presorted` on budgets sitting
//! exactly on, just under and between the greedy order's affordability
//! cliffs — including across interleaved insert/update/remove sequences,
//! whose in-place order and ladder repairs must leave the replayed trace
//! bit-identical.

use jury_core::altr::{AltrAlg, AltrConfig};
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_core::model::CrowdModel;
use jury_core::paym::{PayAlg, PayConfig, Staircase};
use jury_core::problem::Selection;
use jury_core::solver::SolverScratch;
use jury_service::{DecisionTask, JuryService, PoolId, ServiceConfig, ServiceError, ShardConfig};
use proptest::collection::vec;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

fn sharded_service(k: usize) -> JuryService {
    JuryService::with_config(ServiceConfig {
        shard: ShardConfig { threshold: 0, shards: k, ..Default::default() },
        ..Default::default()
    })
}

/// Random `(ε, cost)` pools. Rates are quantised so equal keys (the
/// tie-break paths of both comparators) occur routinely.
fn pools(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    vec((0.001..0.999f64, 0.0..1.0f64), 1..=max_len).prop_map(|mut pairs| {
        for (i, (e, c)) in pairs.iter_mut().enumerate() {
            if i % 3 == 0 {
                *e = (*e * 16.0).ceil() / 16.0 - 1.0 / 32.0;
                *c = (*c * 4.0).floor() / 4.0;
            }
        }
        pairs
    })
}

fn build(pairs: &[(f64, f64)]) -> Vec<Juror> {
    pool_from_rates_and_costs(pairs).unwrap()
}

/// Bit-level equality including solver stats (`PartialEq` on `Selection`
/// compares floats numerically; pin the exact bit patterns on top).
fn assert_identical(
    got: &Result<Selection, ServiceError>,
    want: &Result<Selection, ServiceError>,
    ctx: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g, w, "{ctx}");
            assert_eq!(g.jer.to_bits(), w.jer.to_bits(), "{ctx}: jer bits");
            assert_eq!(g.total_cost.to_bits(), w.total_cost.to_bits(), "{ctx}: cost bits");
            assert_eq!(g.stats, w.stats, "{ctx}: solver stats");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{ctx}"),
        other => panic!("{ctx}: sharded/unsharded divergence: {other:?}"),
    }
}

/// Bit-level *selection* equality — members, JER bits, cost bits — with
/// stats exempted: the documented contract between the bound-pruned
/// AltrM scan (what the service runs) and the full presorted scan. The
/// accounting identity `jer_evaluations + pruned_by_bound ==
/// candidates_considered` is pinned instead.
fn assert_selection_identical(
    got: &Result<Selection, ServiceError>,
    want: &Result<Selection, ServiceError>,
    ctx: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.members, w.members, "{ctx}: members");
            assert_eq!(g.jer.to_bits(), w.jer.to_bits(), "{ctx}: jer bits");
            assert_eq!(g.total_cost.to_bits(), w.total_cost.to_bits(), "{ctx}: cost bits");
            assert_eq!(
                g.stats.candidates_considered, w.stats.candidates_considered,
                "{ctx}: candidate counts"
            );
            assert_eq!(
                g.stats.jer_evaluations + g.stats.pruned_by_bound,
                w.stats.jer_evaluations + w.stats.pruned_by_bound,
                "{ctx}: every size is either evaluated or pruned"
            );
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{ctx}"),
        other => panic!("{ctx}: pruned/full divergence: {other:?}"),
    }
}

/// Solves AltrM over `jurors` through both `AltrAlg::solve_presorted`
/// (the full scan) and `AltrAlg::solve_pruned` (the service's
/// rescan-free bound sweep), asserting bit-identical selections, and
/// returns the pruned answer so callers can pin service replies against
/// it *stats included* (the service runs exactly this scan).
fn check_altr_pruned(jurors: &[Juror], ctx: &str) -> Result<Selection, ServiceError> {
    let mut order = Vec::new();
    jury_core::solver::sorted_order_into(jurors, &mut order);
    let alg = AltrAlg::default();
    let full =
        alg.solve_presorted(jurors, &order, &mut SolverScratch::new()).map_err(ServiceError::from);
    let pruned =
        alg.solve_pruned(jurors, &order, &mut SolverScratch::new()).map_err(ServiceError::from);
    assert_selection_identical(&pruned, &full, &format!("{ctx}: pruned vs presorted"));
    pruned
}

/// Budgets that force juries to straddle shard boundaries: cumulative
/// greedy-order costs (the exact affordability cliffs), plus the
/// endpoints and an unlimited budget.
fn boundary_budgets(jurors: &[Juror]) -> Vec<f64> {
    let mut order = Vec::new();
    PayAlg::greedy_order_into(jurors, &mut order);
    let mut budgets = vec![0.0, f64::MAX];
    let mut acc = 0.0;
    for (i, &j) in order.iter().enumerate() {
        acc += jurors[j].cost;
        // Exactly on, just under and just over each cliff; sampled so
        // the list stays small on big pools.
        if i % 3 == 0 || i + 1 == order.len() {
            budgets.push(acc);
            budgets.push(acc - 1e-9);
            budgets.push(acc * 0.5);
        }
    }
    budgets
}

/// Solves the same task on the sharded service, the unsharded service
/// and the direct solver, asserting all three agree bit-for-bit. PayM
/// tasks are solved *twice* on each service so both the
/// staircase-recording miss and the staircase-replay hit are pinned
/// against the direct scan.
fn check_task(
    sharded: &mut JuryService,
    flat: &mut JuryService,
    pool: PoolId,
    model: CrowdModel,
    ctx: &str,
) {
    let task = DecisionTask { pool, model };
    let s = sharded.solve(&task);
    let f = flat.solve(&task);
    assert_identical(&s, &f, &format!("{ctx}: sharded vs flat service"));
    let jurors = flat.pool(pool).unwrap();
    match model {
        CrowdModel::Altruism => {
            // The selection must match the direct full scan bit-for-bit
            // (stats exempted — the service runs the bound-pruned scan)
            // and the standalone pruned scan stats included.
            let direct = AltrAlg::solve(jurors, &AltrConfig::default()).map_err(ServiceError::from);
            assert_selection_identical(&s, &direct, &format!("{ctx}: sharded vs direct solver"));
            let pruned = check_altr_pruned(jurors, ctx);
            assert_identical(&s, &pruned, &format!("{ctx}: sharded vs pruned scan"));
        }
        CrowdModel::PayAsYouGo { budget } => {
            let direct =
                PayAlg::solve(jurors, budget, &PayConfig::default()).map_err(ServiceError::from);
            assert_identical(&s, &direct, &format!("{ctx}: sharded vs direct solver"));
            let s_hit = sharded.solve(&task);
            let f_hit = flat.solve(&task);
            assert_identical(&s_hit, &direct, &format!("{ctx}: sharded staircase hit vs direct"));
            assert_identical(&f_hit, &direct, &format!("{ctx}: flat staircase hit vs direct"));
        }
    }
}

/// Drives a standalone [`Staircase`] over the pool's greedy order across
/// `budgets`, asserting both the recording miss and the replay hit are
/// bit-identical to [`PayAlg::solve_presorted`] — the staircase contract
/// independent of any service plumbing.
fn check_staircase(jurors: &[Juror], budgets: &[f64], ctx: &str) {
    let mut order = Vec::new();
    PayAlg::greedy_order_into(jurors, &mut order);
    let mut staircase = Staircase::new();
    let mut scratch = SolverScratch::new();
    for &budget in budgets {
        let alg = PayAlg::new(budget, PayConfig::default());
        let direct = alg
            .solve_presorted(jurors, &order, &mut SolverScratch::new())
            .map_err(ServiceError::from);
        for round in ["miss", "hit"] {
            let got = alg
                .solve_staircase(jurors, &order, &mut staircase, &mut scratch)
                .map_err(ServiceError::from);
            assert_identical(&got, &direct, &format!("{ctx}: staircase {round} budget={budget}"));
        }
    }
}

proptest! {
    // Cold, warm and batched solves agree across every K on random
    // pools (lengths rarely divisible by K) and boundary budgets.
    #[test]
    fn sharded_matches_unsharded_across_k(pairs in pools(120), extra in 0.0..3.0f64) {
        let jurors = build(&pairs);
        let budgets = {
            let mut b = boundary_budgets(&jurors);
            b.push(extra);
            b
        };
        check_staircase(&jurors, &budgets, &format!("n={}", jurors.len()));
        for k in SHARD_COUNTS {
            let mut sharded = sharded_service(k);
            let mut flat = JuryService::new();
            let sp = sharded.create_pool(jurors.clone());
            let fp = flat.create_pool(jurors.clone());
            prop_assert_eq!(sp, fp, "identical registration order must yield identical ids");
            prop_assert_eq!(sharded.shard_count(sp), Ok(k));

            let mut tasks = vec![DecisionTask::altruism(sp)];
            tasks.extend(budgets.iter().map(|&b| DecisionTask::pay_as_you_go(sp, b)));
            // Cold then warm single solves.
            for round in 0..2 {
                for task in &tasks {
                    check_task(&mut sharded, &mut flat, sp, task.model,
                        &format!("k={k} n={} round={round}", jurors.len()));
                }
            }
            // Batched (interleaved to exercise chunking).
            let mut batch = tasks.clone();
            batch.extend(tasks.iter().rev().copied());
            let sb = sharded.solve_batch(&batch);
            let fb = flat.solve_batch(&batch);
            for (i, (s, f)) in sb.iter().zip(&fb).enumerate() {
                assert_identical(s, f, &format!("k={k} batch[{i}]"));
            }
        }
    }

    // Interleaved insert/update/remove sequences keep every K
    // bit-identical after each mutation.
    #[test]
    fn mutation_sequences_stay_identical(
        pairs in pools(48),
        ops in vec((0usize..3, (0.001..0.999f64, 0.0..1.0f64), any::<prop::sample::Index>()), 1..10),
        budget in 0.0..2.0f64,
    ) {
        let jurors = build(&pairs);
        let mut flat = JuryService::new();
        let fp = flat.create_pool(jurors.clone());
        let mut services: Vec<(usize, JuryService)> = SHARD_COUNTS
            .iter()
            .map(|&k| {
                let mut s = sharded_service(k);
                let sp = s.create_pool(jurors.clone());
                assert_eq!(sp, fp);
                (k, s)
            })
            .collect();

        let mut next_id = 1000u32;
        for (step, (kind, (e, c), idx)) in ops.iter().enumerate() {
            let len = flat.pool(fp).unwrap().len();
            // Keep pools non-empty so update/remove indices resolve.
            let kind = if len == 0 { 0 } else { *kind };
            match kind {
                0 => {
                    let j = Juror::new(next_id, ErrorRate::new(*e).unwrap(), *c);
                    next_id += 1;
                    let fpos = flat.insert_juror(fp, j).unwrap();
                    for (k, s) in &mut services {
                        prop_assert_eq!(s.insert_juror(fp, j).unwrap(), fpos, "k={}", k);
                    }
                }
                1 => {
                    let i = idx.index(len);
                    let j = Juror::new(next_id, ErrorRate::new(*e).unwrap(), *c);
                    next_id += 1;
                    flat.update_juror(fp, i, j).unwrap();
                    for (_, s) in &mut services {
                        s.update_juror(fp, i, j).unwrap();
                    }
                }
                _ => {
                    let i = idx.index(len);
                    let removed = flat.remove_juror(fp, i).unwrap();
                    for (k, s) in &mut services {
                        prop_assert_eq!(s.remove_juror(fp, i).unwrap(), removed, "k={}", k);
                    }
                }
            }
            let current = flat.pool(fp).unwrap().to_vec();
            let mut budgets = vec![budget, f64::MAX];
            if !current.is_empty() {
                let total: f64 = current.iter().map(|j| j.cost).sum();
                budgets.push(total * 0.5);
                // A fresh staircase over the mutated pool must replay the
                // direct scan bit-for-bit on every affordability cliff.
                check_staircase(&current, &boundary_budgets(&current), &format!("step={step}"));
            }
            // The pruned scan stays bit-identical to the full scan on
            // the mutated pool, and every service's repaired warm path
            // must reproduce it exactly (stats included).
            let altr_ref = check_altr_pruned(&current, &format!("step={step}"));
            let altr_task = DecisionTask::altruism(fp);
            assert_identical(
                &flat.solve(&altr_task),
                &altr_ref,
                &format!("step={step} flat repaired altr"),
            );
            for (k, s) in &mut services {
                prop_assert_eq!(s.pool(fp).unwrap(), current.as_slice(), "k={} step={}", k, step);
                for &b in &budgets {
                    let task = DecisionTask::pay_as_you_go(fp, b);
                    assert_identical(
                        &s.solve(&task),
                        &flat.solve(&task),
                        &format!("k={k} step={step} budget={b}"),
                    );
                }
                assert_identical(
                    &s.solve(&altr_task),
                    &altr_ref,
                    &format!("k={k} step={step} altr"),
                );
            }
        }
    }

    // The warm-artifact store must be invisible: replicated pools served
    // from one interned artifact set answer bit-identically — members,
    // JER bits, cost bits *and* stats — to a sharing-disabled service,
    // across interleaved mutations that detach pools copy-on-write,
    // publish repaired artifacts and re-join converged siblings. Both
    // flat and sharded layouts are driven; every PayM task is solved
    // twice so the shared staircase's replay hit is pinned too.
    #[test]
    fn shared_artifacts_match_private_across_detach_rejoin(
        pairs in pools(40),
        edits in vec(((0.001..0.999f64, 0.0..1.0f64), any::<prop::sample::Index>()), 1..5),
        budget in 0.0..2.0f64,
    ) {
        for k in [None, Some(2), Some(7)] {
            let config = |share: bool| ServiceConfig {
                share_artifacts: share,
                shard: match k {
                    None => ShardConfig::default(),
                    Some(k) => ShardConfig { threshold: 0, shards: k, ..Default::default() },
                },
                ..Default::default()
            };
            let jurors = build(&pairs);
            let mut shared = JuryService::with_config(config(true));
            let mut private = JuryService::with_config(config(false));
            let replicas: Vec<PoolId> =
                (0..3).map(|_| shared.create_pool(jurors.clone())).collect();
            let p = private.create_pool(jurors.clone());

            let check = |shared: &mut JuryService,
                         private: &mut JuryService,
                         pool: PoolId,
                         ctx: &str| {
                let altr = DecisionTask::altruism(pool);
                let altr_p = DecisionTask::altruism(p);
                assert_identical(
                    &shared.solve(&altr),
                    &private.solve(&altr_p),
                    &format!("{ctx}: altr"),
                );
                let len = private.pool(p).unwrap().len() as f64;
                for b in [budget, budget * len, f64::MAX] {
                    let task = DecisionTask::pay_as_you_go(pool, b);
                    let task_p = DecisionTask::pay_as_you_go(p, b);
                    let want = private.solve(&task_p);
                    assert_identical(&shared.solve(&task), &want, &format!("{ctx}: paym {b}"));
                    assert_identical(
                        &shared.solve(&task),
                        &want,
                        &format!("{ctx}: paym replay {b}"),
                    );
                }
            };

            for (i, &pool) in replicas.iter().enumerate() {
                check(&mut shared, &mut private, pool, &format!("k={k:?} cold replica {i}"));
            }
            prop_assert!(
                shared.shares_artifacts_with(replicas[0], replicas[2]).unwrap(),
                "k={:?}: replicas must share one artifact set", k
            );

            for (step, ((e, c), idx)) in edits.iter().enumerate() {
                let i = idx.index(jurors.len());
                let edit = Juror::new(2000 + step as u32, ErrorRate::new(*e).unwrap(), *c);
                private.update_juror(p, i, edit).unwrap();
                // Staggered application: the first replica detaches (and
                // publishes — it had siblings), the rest re-join the
                // published entry one by one.
                for (r, &pool) in replicas.iter().enumerate() {
                    shared.update_juror(pool, i, edit).unwrap();
                    check(
                        &mut shared,
                        &mut private,
                        pool,
                        &format!("k={k:?} step={step} replica {r}"),
                    );
                }
                prop_assert!(
                    shared.shares_artifacts_with(replicas[0], replicas[2]).unwrap(),
                    "k={:?} step={}: identically-mutated replicas must converge", k, step
                );
            }
            let stats = shared.stats();
            prop_assert!(stats.artifact_detaches >= 3, "k={:?}: every replica detached", k);
            prop_assert!(stats.artifact_rejoins >= 2, "k={:?}: followers re-joined", k);
        }
    }

    // A one-shard pool re-partitioned mid-stream (inserts crossing the
    // shard threshold) keeps matching a one-shard reference.
    #[test]
    fn promotion_preserves_bit_identity(
        pairs in pools(20),
        extras in vec((0.001..0.999f64, 0.0..1.0f64), 1..12),
        budget in 0.0..2.0f64,
    ) {
        let jurors = build(&pairs);
        let threshold = jurors.len() + extras.len() / 2;
        let mut promoting = JuryService::with_config(ServiceConfig {
            shard: ShardConfig { threshold, shards: 7, ..Default::default() },
            ..Default::default()
        });
        let mut flat = JuryService::new();
        let pp = promoting.create_pool(jurors.clone());
        let fp = flat.create_pool(jurors);
        prop_assert_eq!(pp, fp);
        for (i, &(e, c)) in extras.iter().enumerate() {
            let j = Juror::new(5000 + i as u32, ErrorRate::new(e).unwrap(), c);
            promoting.insert_juror(pp, j).unwrap();
            flat.insert_juror(fp, j).unwrap();
            for model in [CrowdModel::Altruism, CrowdModel::PayAsYouGo { budget }] {
                let task = DecisionTask { pool: pp, model };
                assert_identical(
                    &promoting.solve(&task),
                    &flat.solve(&task),
                    &format!("insert {i}, shards={}", promoting.shard_count(pp).unwrap()),
                );
            }
        }
        prop_assert_eq!(promoting.shard_count(pp), Ok(7), "stream must end re-partitioned");
    }
}

/// Deterministic sweep: every pool size around the shard counts
/// (divisible, off-by-one, far smaller than K) on both models.
#[test]
fn size_sweep_including_empty_shards() {
    for n in (1..=34).chain([49, 96, 97]) {
        let quotes: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let u = (i as f64 * 0.6180339887498949) % 1.0;
                (0.02 + 0.93 * u, ((i * 7) % 5) as f64 / 5.0)
            })
            .collect();
        let jurors = build(&quotes);
        let budgets = boundary_budgets(&jurors);
        check_staircase(&jurors, &budgets, &format!("sweep n={n}"));
        let mut flat = JuryService::new();
        let fp = flat.create_pool(jurors.clone());
        for k in SHARD_COUNTS {
            let mut sharded = sharded_service(k);
            let sp = sharded.create_pool(jurors.clone());
            assert_eq!(sp, fp);
            check_task(&mut sharded, &mut flat, fp, CrowdModel::Altruism, &format!("n={n} k={k}"));
            for &b in &budgets {
                check_task(
                    &mut sharded,
                    &mut flat,
                    fp,
                    CrowdModel::PayAsYouGo { budget: b },
                    &format!("n={n} k={k} budget={b}"),
                );
            }
        }
    }
}

/// A forced-degeneracy episode — hot-topic removals hollowing one shard
/// until `refresh_degeneracy` flags it, healed by an online steal, then
/// skewed ingest pouring every insert into the rebuilt gap — must keep
/// selections bit-identical to a flat reference before, during and
/// after the re-balance. Re-balancing is a pure permutation of shard
/// membership, so the K-way-merged global order (and therefore every
/// float the solvers touch) never changes.
#[test]
fn forced_degeneracy_rebalance_keeps_bit_identity() {
    let k = 4;
    let quotes: Vec<(f64, f64)> = (0..60)
        .map(|i| {
            let u = (i as f64 * 0.6180339887498949) % 1.0;
            (0.02 + 0.93 * u, ((i * 3) % 7) as f64 / 7.0)
        })
        .collect();
    let jurors = build(&quotes);
    let mut sharded = sharded_service(k);
    let mut flat = JuryService::new();
    let sp = sharded.create_pool(jurors.clone());
    let fp = flat.create_pool(jurors);
    assert_eq!(sp, fp);
    sharded.warm_pool(sp).unwrap();
    flat.warm_pool(fp).unwrap();
    let warm_full_repairs = sharded.stats().full_repairs;

    let check = |sharded: &mut JuryService, flat: &mut JuryService, ctx: &str| {
        for model in [CrowdModel::Altruism, CrowdModel::PayAsYouGo { budget: 1.3 }] {
            let s = sharded.solve(&DecisionTask { pool: sp, model });
            let f = flat.solve(&DecisionTask { pool: fp, model });
            assert_identical(&s, &f, ctx);
        }
    };
    check(&mut sharded, &mut flat, "warm baseline");

    // Hollow out shard 0: its creation-time members sit at positions
    // 0, 4, 8, … = 4m, and after removing original 4m the juror
    // originally at 4(m+1) sits at position 3(m+1). Shard 0 starts with
    // 15 of 60 jurors; the 13th removal drops it below 25% of the mean
    // shard size, flagging the episode and triggering the steal.
    for m in 0..13 {
        sharded.remove_juror(sp, 3 * m).unwrap();
        flat.remove_juror(fp, 3 * m).unwrap();
        check(&mut sharded, &mut flat, &format!("during drain, removal {m}"));
    }
    let stats = sharded.stats();
    assert_eq!(stats.degenerate_shards, 1, "the drain is one degeneracy episode");
    assert_eq!(stats.shard_rebalances, 1, "the episode was healed by one re-balance");
    assert_eq!(stats.full_repairs, warm_full_repairs, "healing never rebuilt a shard");
    assert!(sharded.is_warm(sp), "the steal repairs in place — the pool stays warm");

    // Skewed ingest: every insert lands on the smallest shard (the one
    // just stolen from), and each is repaired in place.
    for i in 0..16u32 {
        let j = Juror::new(9000 + i, ErrorRate::new(0.03 + f64::from(i) / 40.0).unwrap(), 0.4);
        sharded.insert_juror(sp, j).unwrap();
        flat.insert_juror(fp, j).unwrap();
        check(&mut sharded, &mut flat, &format!("after skewed insert {i}"));
    }
    let stats = sharded.stats();
    assert_eq!(stats.insert_repairs, 16, "every insert was a rank-insert repair");
    assert_eq!(stats.full_repairs, warm_full_repairs, "skewed ingest never rebuilt a shard");
    assert!(sharded.is_warm(sp), "the pool never went cold across the episode");
}

/// Counter gate: a warm sharded insert repairs the owning shard in
/// place — `full_repairs` must never tick, `insert_repairs` counts
/// every one, and re-warming after it builds no shard (a one-shard pool
/// re-solves only its dropped AltrM answer).
#[test]
fn warm_sharded_insert_never_full_repairs() {
    for k in SHARD_COUNTS {
        let quotes: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let u = (i as f64 * 0.6180339887498949) % 1.0;
                (0.02 + 0.93 * u, ((i * 7) % 5) as f64 / 5.0)
            })
            .collect();
        let mut service = sharded_service(k);
        let pool = service.create_pool(build(&quotes));
        service.warm_pool(pool).unwrap();
        let base = service.stats().full_repairs;
        for i in 0..24u32 {
            let j = Juror::new(9000 + i, ErrorRate::new(0.05 + f64::from(i) / 50.0).unwrap(), 0.2);
            service.insert_juror(pool, j).unwrap();
            let stats = service.stats();
            assert_eq!(stats.full_repairs, base, "k={k}: insert {i} must not full-repair");
            assert_eq!(stats.insert_repairs, i as usize + 1, "k={k}: insert {i} repairs in place");
            service.warm_pool(pool).unwrap();
            let stats = service.stats();
            assert_eq!(stats.full_repairs, base, "k={k}: insert {i}: re-warm builds nothing");
            assert_eq!(stats.shard_repairs, 0, "k={k}: insert {i}: no shard was dropped");
            assert!(service.is_warm(pool), "k={k}: insert {i}: the re-solve completes the pool");
        }
    }
}

/// An empty sharded pool reports the solver's errors, exactly like an
/// empty flat pool.
#[test]
fn empty_sharded_pool_matches_flat_errors() {
    let mut sharded = sharded_service(16);
    let mut flat = JuryService::new();
    let sp = sharded.create_pool(vec![]);
    let fp = flat.create_pool(vec![]);
    for model in [CrowdModel::Altruism, CrowdModel::PayAsYouGo { budget: 1.0 }] {
        let s = sharded.solve(&DecisionTask { pool: sp, model });
        let f = flat.solve(&DecisionTask { pool: fp, model });
        assert_eq!(s, f);
        assert!(s.is_err());
    }
}
