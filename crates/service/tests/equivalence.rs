//! Service/solver equivalence properties.
//!
//! The service's contract is that caching and batching are *pure
//! plumbing*: cold-cache, warm-cache and batched solves must return
//! **byte-identical** selections (members, JER bits, cost bits) to
//! direct `AltrAlg::solve` / `PayAlg::solve` calls on the same jurors —
//! including after pool mutations invalidate the cache. PayM stats are
//! byte-identical too (the service replays the exact greedy scan);
//! AltrM stats are documented to differ: the service answers AltrM with
//! the bound-pruned scan, which reports pruned sizes in
//! `pruned_by_bound` instead of evaluating them.

use jury_core::altr::{AltrAlg, AltrConfig};
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_core::model::CrowdModel;
use jury_core::paym::{PayAlg, PayConfig};
use jury_core::problem::Selection;
use jury_service::{DecisionTask, JuryService, ServiceConfig, ServiceError, ShardConfig};
use proptest::collection::vec;
use proptest::prelude::*;

/// Random `(ε, cost)` pools: rates strictly inside (0,1), small
/// non-negative costs.
fn pools(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    vec((0.001..0.999f64, 0.0..1.0f64), 1..=max_len)
}

fn build(pairs: &[(f64, f64)]) -> Vec<Juror> {
    pool_from_rates_and_costs(pairs).unwrap()
}

/// Byte-level equality of the selection contract: members, JER bits,
/// cost bits. Stats are pinned only when `compare_stats` is set (PayM
/// paths, and service-vs-service comparisons); on AltrM-vs-direct paths
/// the service's bound-pruned stats instead satisfy the accounting
/// identity `jer_evaluations + pruned_by_bound == full scan's
/// evaluations`.
fn assert_identical(a: &Selection, b: &Selection, compare_stats: bool) {
    assert_eq!(a.members, b.members);
    assert_eq!(a.jer.to_bits(), b.jer.to_bits());
    assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
    if compare_stats {
        assert_eq!(a.stats, b.stats);
    } else {
        assert_eq!(a.stats.candidates_considered, b.stats.candidates_considered);
        assert_eq!(
            a.stats.jer_evaluations + a.stats.pruned_by_bound,
            b.stats.jer_evaluations + b.stats.pruned_by_bound,
            "every candidate size is either evaluated or pruned"
        );
    }
}

fn direct(jurors: &[Juror], model: CrowdModel) -> Result<Selection, jury_core::JuryError> {
    match model {
        CrowdModel::Altruism => AltrAlg::solve(jurors, &AltrConfig::default()),
        CrowdModel::PayAsYouGo { budget } => PayAlg::solve(jurors, budget, &PayConfig::default()),
    }
}

fn check_all_paths(service: &mut JuryService, pool: jury_service::PoolId, budgets: &[f64]) {
    let jurors = service.pool(pool).unwrap().to_vec();
    let mut tasks = vec![DecisionTask::altruism(pool)];
    tasks.extend(budgets.iter().map(|&b| DecisionTask::pay_as_you_go(pool, b)));

    // Cold single solves (cache may have been invalidated by the caller).
    let cold: Vec<_> = tasks.iter().map(|t| service.solve(t)).collect();
    // Warm single solves.
    let warm: Vec<_> = tasks.iter().map(|t| service.solve(t)).collect();
    // Batched solves (several copies interleaved to exercise chunking).
    let mut batch_tasks = tasks.clone();
    batch_tasks.extend(tasks.iter().rev().copied());
    let batched = service.solve_batch(&batch_tasks);

    for (i, task) in tasks.iter().enumerate() {
        let reference = direct(&jurors, task.model);
        let compare_stats = matches!(task.model, CrowdModel::PayAsYouGo { .. });
        for (label, got) in [
            ("cold", &cold[i]),
            ("warm", &warm[i]),
            ("batch-front", &batched[i]),
            ("batch-back", &batched[batch_tasks.len() - 1 - i]),
        ] {
            match (&reference, got) {
                (Ok(want), Ok(have)) => assert_identical(have, want, compare_stats),
                (Err(want), Err(ServiceError::Solver(have))) => {
                    assert_eq!(have, want, "{label}")
                }
                (want, have) => panic!("{label}: direct {want:?} vs service {have:?}"),
            }
        }
    }
}

/// Expert-plus-mob quotes: `experts` reliable jurors in [0.02, 0.45),
/// the rest a mob in [0.55, 0.95), golden-ratio spaced, convex prices.
fn expert_mob(len: usize, experts: usize) -> Vec<(f64, f64)> {
    (0..len)
        .map(|i| {
            let u = (i as f64 * 0.618_033_988_749_894_9).fract();
            let e = if i < experts { 0.02 + 0.43 * u } else { 0.55 + 0.40 * u };
            (e, 0.05 + u * u)
        })
        .collect()
}

/// An expert-plus-mob pool on which the pruned scan's halving stop
/// fires below the `μ = t` crossover, where no moment bound applies.
/// Flat and sharded (K = 4), cold, warm, batched and after a mutation,
/// the service's AltrM answer must equal the direct full scan bit for
/// bit.
#[test]
fn expert_plus_mob_pool_matches_direct_flat_and_sharded() {
    let pairs = expert_mob(3_000, 60);
    let mut eps: Vec<f64> = pairs.iter().map(|&(e, _)| e).collect();
    eps.sort_by(f64::total_cmp);
    // First odd size whose mean error count reaches the majority
    // threshold: every size below it survives the moment bounds.
    let mut mu = 0.0;
    let crossover = (1..=eps.len())
        .find(|&n| {
            mu += eps[n - 1];
            n % 2 == 1 && mu >= n.div_ceil(2) as f64
        })
        .expect("the mob drives the mean past the threshold");

    let sharded = ServiceConfig {
        shard: ShardConfig { threshold: 0, shards: 4, ..Default::default() },
        ..Default::default()
    };
    for (label, config) in [("flat", ServiceConfig::default()), ("sharded", sharded)] {
        let mut service = JuryService::with_config(config);
        let pool = service.create_pool(build(&pairs));
        check_all_paths(&mut service, pool, &[1.5, 4.0]);
        let stats = service.solve(&DecisionTask::altruism(pool)).unwrap().stats;
        assert!(
            stats.jer_evaluations < crossover / 2,
            "{label}: the halving stop must fire below the crossover {crossover}: {stats:?}"
        );

        service.update_juror(pool, 7, Juror::new(7, ErrorRate::new(0.81).unwrap(), 0.3)).unwrap();
        check_all_paths(&mut service, pool, &[1.5, 4.0]);
    }
}

proptest! {
    #[test]
    fn cold_warm_and_batched_match_direct(pairs in pools(60), budget in 0.0..3.0f64) {
        let mut service = JuryService::new();
        let pool = service.create_pool(build(&pairs));
        check_all_paths(&mut service, pool, &[budget, 0.05, f64::MAX]);
    }

    #[test]
    fn equivalence_survives_mutations(
        pairs in pools(40),
        extra in (0.001..0.999f64, 0.0..1.0f64),
        update in (0.001..0.999f64, 0.0..1.0f64),
        idx in any::<prop::sample::Index>(),
        budget in 0.0..2.0f64,
    ) {
        let mut service = JuryService::new();
        let pool = service.create_pool(build(&pairs));
        // Warm the cache, then mutate through every registry operation,
        // re-checking equivalence against the *current* jurors each time.
        check_all_paths(&mut service, pool, &[budget]);

        let added = service
            .insert_juror(pool, Juror::new(1000, ErrorRate::new(extra.0).unwrap(), extra.1))
            .unwrap();
        assert!(!service.is_warm(pool));
        check_all_paths(&mut service, pool, &[budget]);

        let i = idx.index(service.pool(pool).unwrap().len());
        service
            .update_juror(pool, i, Juror::new(2000, ErrorRate::new(update.0).unwrap(), update.1))
            .unwrap();
        check_all_paths(&mut service, pool, &[budget]);

        service.remove_juror(pool, added.min(service.pool(pool).unwrap().len() - 1)).unwrap();
        check_all_paths(&mut service, pool, &[budget]);
    }

    #[test]
    fn single_threaded_batches_match_parallel(pairs in pools(30), budget in 0.0..2.0f64) {
        let jurors = build(&pairs);
        let mut serial =
            JuryService::with_config(ServiceConfig { threads: 1, ..Default::default() });
        let mut parallel =
            JuryService::with_config(ServiceConfig { threads: 4, ..Default::default() });
        let ps = serial.create_pool(jurors.clone());
        let pp = parallel.create_pool(jurors);
        let tasks_s: Vec<_> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    DecisionTask::altruism(ps)
                } else {
                    DecisionTask::pay_as_you_go(ps, budget + i as f64 / 10.0)
                }
            })
            .collect();
        let tasks_p: Vec<_> = tasks_s
            .iter()
            .map(|t| DecisionTask { pool: pp, model: t.model })
            .collect();
        let rs = serial.solve_batch(&tasks_s);
        let rp = parallel.solve_batch(&tasks_p);
        for (a, b) in rs.iter().zip(&rp) {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_identical(x, y, true),
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                other => panic!("serial/parallel divergence: {other:?}"),
            }
        }
    }
}
