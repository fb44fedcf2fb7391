//! The warm-artifact store's observable contract: equal-content pools
//! share one artifact set (fingerprints intern, attaches are
//! pointer-equal, counters prove nothing was rebuilt), mutations detach
//! copy-on-write and re-join when content converges again — and none of
//! it ever changes an answer (every shared-artifact reply is pinned
//! bit-identical against the direct solvers).

use jury_core::altr::{AltrAlg, AltrConfig};
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_core::paym::{PayAlg, PayConfig};
use jury_service::{DecisionTask, JuryService, ServiceConfig, ShardConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn build(pairs: &[(f64, f64)]) -> Vec<Juror> {
    pool_from_rates_and_costs(pairs).unwrap()
}

fn private_service() -> JuryService {
    JuryService::with_config(ServiceConfig { share_artifacts: false, ..Default::default() })
}

/// Random `(ε, cost)` pools with quantised rates (so equal-ε ties occur
/// routinely, both tie-free and tie-violating) and a sprinkling of the
/// adversarial rates the deconvolution proptests use (½ ± 1e-12 and the
/// near-0/1 boundary values).
fn pools(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    vec((0.001..0.999f64, 0.0..1.0f64), 1..=max_len).prop_map(|mut pairs| {
        const ADVERSARIAL: [f64; 5] = [1e-12, 1.0 - 1e-12, 0.5, 0.5 + 1e-12, 0.5 - 1e-12];
        for (i, (e, c)) in pairs.iter_mut().enumerate() {
            if i % 3 == 0 {
                *e = (*e * 16.0).ceil() / 16.0 - 1.0 / 32.0;
                *c = (*c * 4.0).floor() / 4.0;
            }
            if i % 5 == 4 {
                *e = ADVERSARIAL[(i / 5) % ADVERSARIAL.len()];
            }
        }
        pairs
    })
}

/// Deterministic Fisher–Yates driven by an xorshift stream.
fn shuffled<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    seed |= 1;
    for i in (1..out.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        out.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    out
}

/// Whether two juror lists differ somewhere in solver-relevant content
/// (ε or cost bits) — a shuffle of duplicates can leave the sequence
/// unchanged.
fn rearranged(a: &[Juror], b: &[Juror]) -> bool {
    a.iter().zip(b).any(|(x, y)| {
        x.epsilon().to_bits() != y.epsilon().to_bits() || x.cost.to_bits() != y.cost.to_bits()
    })
}

/// Asserts a service AltrM reply matches the direct solver bit-for-bit
/// (members/JER/cost; stats follow the documented bound-pruned
/// accounting identity).
fn assert_altr_matches_direct(service: &mut JuryService, pool: jury_service::PoolId, ctx: &str) {
    let got = service.solve(&DecisionTask::altruism(pool)).unwrap_or_else(|e| {
        panic!("{ctx}: altr solve failed: {e}");
    });
    let direct =
        AltrAlg::solve(service.pool(pool).unwrap(), &AltrConfig::default()).expect("direct altr");
    assert_eq!(got.members, direct.members, "{ctx}: members");
    assert_eq!(got.jer.to_bits(), direct.jer.to_bits(), "{ctx}: jer bits");
    assert_eq!(got.total_cost.to_bits(), direct.total_cost.to_bits(), "{ctx}: cost bits");
    assert_eq!(
        got.stats.jer_evaluations + got.stats.pruned_by_bound,
        direct.stats.jer_evaluations + direct.stats.pruned_by_bound,
        "{ctx}: every size evaluated or pruned"
    );
}

/// Asserts a service PayM reply matches the direct solver bit-for-bit
/// (both the recording miss and the staircase replay).
fn assert_paym_matches_direct(
    service: &mut JuryService,
    pool: jury_service::PoolId,
    budget: f64,
    ctx: &str,
) {
    let direct = PayAlg::solve(service.pool(pool).unwrap(), budget, &PayConfig::default());
    for round in ["miss", "replay"] {
        let got = service.solve(&DecisionTask::pay_as_you_go(pool, budget));
        match (&got, &direct) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.members, w.members, "{ctx} {round}: members");
                assert_eq!(g.jer.to_bits(), w.jer.to_bits(), "{ctx} {round}: jer bits");
                assert_eq!(
                    g.total_cost.to_bits(),
                    w.total_cost.to_bits(),
                    "{ctx} {round}: cost bits"
                );
                assert_eq!(g.stats, w.stats, "{ctx} {round}: stats");
            }
            (Err(g), Err(w)) => {
                assert_eq!(g.to_string(), format!("solver error: {w}"), "{ctx} {round}")
            }
            other => panic!("{ctx} {round}: divergence: {other:?}"),
        }
    }
}

#[test]
fn second_equal_pool_registers_with_zero_builds() {
    // The counter gate: registering and first-solving a second pool with
    // equal content must attach — no order build, no ladder build, no
    // AltrM solve, no full repair.
    let jurors = build(&[(0.1, 0.2), (0.2, 0.1), (0.2, 0.3), (0.35, 0.4), (0.4, 0.05)]);
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let first = service.solve(&DecisionTask::altruism(a)).unwrap();
    let after_first = service.stats();
    assert_eq!(after_first.cache_builds, 1);
    assert_eq!(after_first.full_repairs, 1);
    assert_eq!(after_first.artifact_share_hits, 0, "the founder builds");

    let b = service.create_pool(jurors.clone());
    assert_eq!(service.fingerprint(a).unwrap(), service.fingerprint(b).unwrap());
    let second = service.solve(&DecisionTask::altruism(b)).unwrap();
    let stats = service.stats();
    assert_eq!(stats.cache_builds, after_first.cache_builds, "second pool must not build");
    assert_eq!(stats.full_repairs, after_first.full_repairs, "second pool must not full-repair");
    assert_eq!(stats.artifact_share_hits, 1, "second pool attaches");
    assert!(service.shares_artifacts_with(a, b).unwrap(), "one interned artifact set");
    assert_eq!(service.artifact_entries(), 1);
    assert_eq!(first, second);
    assert_eq!(first.jer.to_bits(), second.jer.to_bits());

    // The shared answer is literally one allocation across pools.
    let shared = service
        .solve_batch_shared(&[DecisionTask::altruism(a), DecisionTask::altruism(b)])
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert!(Arc::ptr_eq(&shared[0], &shared[1]), "cross-pool replays share the cached Arc");

    // The shared ladder answers probes for both pools identically.
    let pa = service.jer_probe(a, 3).unwrap();
    let pb = service.jer_probe(b, 3).unwrap();
    assert_eq!(pa.to_bits(), pb.to_bits());

    // PayM rides one shared staircase: a's recording scan is b's hit.
    let hits_before = service.stats().staircase_hits;
    service.solve(&DecisionTask::pay_as_you_go(a, 0.6)).unwrap();
    service.solve(&DecisionTask::pay_as_you_go(b, 0.6)).unwrap();
    assert_eq!(
        service.stats().staircase_hits,
        hits_before + 1,
        "the sibling replays the recorded step"
    );
}

#[test]
fn perturbation_detaches_and_mutating_back_rejoins() {
    let jurors = build(&[
        (0.5, 0.2),
        (0.5 + 1e-12, 0.2),
        (0.1, 0.4),
        (1e-12, 0.9),
        (1.0 - 1e-12, 0.05),
        (0.3, 0.3),
    ]);
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    service.warm_pool(a).unwrap();
    service.warm_pool(b).unwrap();
    assert!(service.shares_artifacts_with(a, b).unwrap());
    let fp_before = service.fingerprint(a).unwrap();

    // An ulp-level ε perturbation is new content: the pool detaches.
    let perturbed = Juror::new(77, ErrorRate::new(0.5 - 1e-12).unwrap(), jurors[0].cost);
    service.update_juror(a, 0, perturbed).unwrap();
    assert_ne!(service.fingerprint(a).unwrap(), fp_before, "content changed");
    assert_eq!(service.fingerprint(b).unwrap(), fp_before, "sibling untouched");
    assert!(!service.shares_artifacts_with(a, b).unwrap(), "mutation must detach");
    assert_eq!(service.stats().artifact_detaches, 1);
    assert_eq!(service.stats().artifact_rejoins, 0);
    assert_altr_matches_direct(&mut service, a, "detached pool");
    assert_altr_matches_direct(&mut service, b, "surviving sibling");

    // Mutating back restores the fingerprint exactly and re-joins the
    // sibling's entry (content-verified, not hash-trusted).
    service.update_juror(a, 0, jurors[0]).unwrap();
    assert_eq!(service.fingerprint(a).unwrap(), fp_before);
    assert!(service.shares_artifacts_with(a, b).unwrap(), "equal content re-joins");
    assert_eq!(service.stats().artifact_detaches, 2, "the re-join began as a detach");
    assert_eq!(service.stats().artifact_rejoins, 1);
    assert_altr_matches_direct(&mut service, a, "re-joined pool");
    assert_paym_matches_direct(&mut service, a, 0.8, "re-joined pool");
}

#[test]
fn identically_mutated_siblings_follow_published_entries() {
    // A detaches from siblings → publishes its repaired artifacts under
    // the new key; B mutating the same way re-joins that entry instead
    // of re-repairing alone.
    let jurors = build(&[(0.12, 0.3), (0.2, 0.2), (0.31, 0.1), (0.44, 0.6), (0.08, 0.9)]);
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    service.warm_pool(a).unwrap();
    service.warm_pool(b).unwrap();
    assert_eq!(service.artifact_entries(), 1);

    let edit = Juror::new(50, ErrorRate::new(0.27).unwrap(), 0.15);
    service.update_juror(a, 2, edit).unwrap();
    assert!(!service.shares_artifacts_with(a, b).unwrap());
    assert_eq!(service.artifact_entries(), 2, "repaired artifacts published under the new key");
    service.update_juror(b, 2, edit).unwrap();
    assert!(service.shares_artifacts_with(a, b).unwrap(), "identical mutation re-joins");
    assert_eq!(service.stats().artifact_rejoins, 1);
    assert_eq!(service.artifact_entries(), 1, "the abandoned entry is evicted");
    assert_altr_matches_direct(&mut service, a, "publisher");
    assert_altr_matches_direct(&mut service, b, "follower");
}

#[test]
fn refused_attach_never_clobbers_the_incumbent_entry() {
    // A rearrangement of equal content has the same fingerprint but
    // another sequence: it can never share, and the refused attach must
    // leave the incumbent entry in place — the rearranged pool stays
    // private instead of publishing over its siblings' entry, so
    // identical-sequence attachers keep sharing.
    let jurors = build(&[(0.2, 0.1), (0.2, 0.9), (0.1, 0.3), (0.35, 0.2)]);
    let mut reversed = jurors.clone();
    reversed.reverse();
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(reversed);
    let c = service.create_pool(jurors.clone());
    service.warm_pool(a).unwrap();
    service.warm_pool(b).unwrap();
    assert_eq!(service.fingerprint(a).unwrap(), service.fingerprint(b).unwrap());
    assert!(!service.shares_artifacts_with(a, b).unwrap(), "a rearrangement is refused");
    assert_eq!(service.artifact_entries(), 1, "the refused pool must not clobber the entry");
    service.warm_pool(c).unwrap();
    assert!(service.shares_artifacts_with(a, c).unwrap(), "identical pools keep sharing");
    assert_eq!(service.stats().artifact_share_hits, 1);
    assert_altr_matches_direct(&mut service, b, "refused rearranged pool");
}

#[test]
fn cloned_services_keep_independent_stores() {
    // Cloning a service deep-copies the store: the clone's pools hold
    // fresh entry handles, so eviction and sole-owner detach accounting
    // in either service never sees the other's references.
    let jurors = build(&[(0.15, 0.3), (0.28, 0.2), (0.4, 0.1), (0.07, 0.8)]);
    let mut original = JuryService::new();
    let p1 = original.create_pool(jurors.clone());
    let p2 = original.create_pool(jurors.clone());
    original.warm_pool(p1).unwrap();
    original.warm_pool(p2).unwrap();
    assert_eq!(original.artifact_entries(), 1);

    let mut cloned = original.clone();
    assert_eq!(cloned.artifact_entries(), 1);
    assert!(cloned.shares_artifacts_with(p1, p2).unwrap(), "attachments survive the clone");

    // Mutate both of the clone's pools away from the founding content:
    // p1 detaches with a sibling (publishes the repaired artifacts),
    // p2's detach leaves the founding entry orphaned — it must be
    // evicted from the clone's store despite the original's references.
    cloned.update_juror(p1, 0, Juror::new(70, ErrorRate::new(0.33).unwrap(), 0.3)).unwrap();
    cloned.update_juror(p2, 1, Juror::new(71, ErrorRate::new(0.21).unwrap(), 0.2)).unwrap();
    assert_eq!(cloned.artifact_entries(), 1, "founding entry evicted, p1's publication interned");
    assert_eq!(original.artifact_entries(), 1, "the original is untouched");
    assert!(original.shares_artifacts_with(p1, p2).unwrap());

    // Both services keep answering bit-identically for their own state.
    assert_altr_matches_direct(&mut cloned, p1, "clone p1");
    assert_altr_matches_direct(&mut cloned, p2, "clone p2");
    assert_altr_matches_direct(&mut original, p1, "original p1");
    assert_paym_matches_direct(&mut original, p2, 0.7, "original p2");
}

#[test]
fn removing_pools_evicts_orphaned_entries() {
    let jurors = build(&[(0.2, 0.4), (0.3, 0.1), (0.15, 0.7)]);
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    service.warm_pool(a).unwrap();
    service.warm_pool(b).unwrap();
    assert_eq!(service.artifact_entries(), 1);
    service.remove_pool(a).unwrap();
    assert_eq!(service.artifact_entries(), 1, "the sibling keeps the entry alive");
    service.remove_pool(b).unwrap();
    assert_eq!(service.artifact_entries(), 0, "the last holder's removal evicts");
}

#[test]
fn sharded_equal_pools_share_merged_artifacts() {
    let rates: Vec<(f64, f64)> =
        (0..40).map(|i| (0.05 + (i as f64) / 50.0, ((i * 13) % 7) as f64 / 7.0)).collect();
    let jurors = build(&rates);
    let config = ServiceConfig {
        shard: ShardConfig { threshold: 1, shards: 4, ..Default::default() },
        ..Default::default()
    };
    let mut service = JuryService::with_config(config);
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    assert_eq!(service.shard_count(a), Ok(4));
    assert_altr_matches_direct(&mut service, a, "founding sharded pool");
    let builds_after_a = service.stats().cache_builds;
    assert_altr_matches_direct(&mut service, b, "attached sharded pool");
    let stats = service.stats();
    assert_eq!(stats.cache_builds, builds_after_a, "no second K-way merge");
    assert_eq!(stats.artifact_share_hits, 1);
    assert!(service.shares_artifacts_with(a, b).unwrap());
    // The profile is built once and seeded to the sibling, bit-identical.
    let pa = service.jer_profile(a).unwrap().to_vec();
    let pb = service.jer_profile(b).unwrap().to_vec();
    for ((na, ja), (nb, jb)) in pa.iter().zip(&pb) {
        assert_eq!(na, nb);
        assert_eq!(ja.to_bits(), jb.to_bits());
    }
    // A mutation detaches only the mutated pool; both keep answering
    // bit-identically.
    service.update_juror(a, 3, Juror::new(90, ErrorRate::new(0.42).unwrap(), 0.3)).unwrap();
    assert!(!service.shares_artifacts_with(a, b).unwrap());
    assert_altr_matches_direct(&mut service, a, "detached sharded pool");
    assert_altr_matches_direct(&mut service, b, "surviving sharded sibling");
    assert_paym_matches_direct(&mut service, a, 1.3, "detached sharded pool");
}

#[test]
fn repartitioning_a_shared_pool_releases_the_attachment_cleanly() {
    // Crossing the shard threshold re-partitions the pool cold: the
    // shared attachment is released (no private copy is ever
    // materialised), the sibling keeps the entry, and both pools keep
    // answering bit-identically.
    let jurors = build(&[(0.1, 0.2), (0.2, 0.1), (0.3, 0.4), (0.25, 0.3)]);
    let config = ServiceConfig {
        shard: ShardConfig { threshold: 6, shards: 3, ..Default::default() },
        ..Default::default()
    };
    let mut service = JuryService::with_config(config);
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    service.warm_pool(a).unwrap();
    service.warm_pool(b).unwrap();
    assert!(service.shares_artifacts_with(a, b).unwrap());

    service.insert_juror(a, Juror::new(10, ErrorRate::new(0.15).unwrap(), 0.2)).unwrap();
    assert_eq!(service.shard_count(a), Ok(1), "below threshold keeps one shard");
    service.insert_juror(a, Juror::new(11, ErrorRate::new(0.18).unwrap(), 0.1)).unwrap();
    assert_eq!(service.shard_count(a), Ok(3), "crossing the threshold re-partitions");
    assert!(!service.shares_artifacts_with(a, b).unwrap(), "content and shard counts diverged");
    assert!(service.artifact_entries() >= 1, "the sibling keeps its one-shard entry");
    assert_altr_matches_direct(&mut service, a, "re-partitioned pool");
    assert_altr_matches_direct(&mut service, b, "one-shard sibling");
    assert_paym_matches_direct(&mut service, b, 0.5, "one-shard sibling");
}

#[test]
fn ttl_policy_keeps_sole_holder_orphans_warm_for_rejoin() {
    // Under the default refcount policy a sole holder's detach reclaims
    // the entry zero-copy, so perturb-and-restore on a *single* pool can
    // never re-join — the entry is gone. With a TTL the entry survives
    // the detach as a stamped orphan and the restoring mutation re-joins
    // it, warm artifacts intact.
    let jurors = build(&[(0.12, 0.3), (0.2, 0.2), (0.31, 0.1), (0.44, 0.6), (0.08, 0.9)]);

    let mut refcount = JuryService::new();
    let p = refcount.create_pool(jurors.clone());
    refcount.warm_pool(p).unwrap();
    let perturbed = Juror::new(91, ErrorRate::new(0.45).unwrap(), 0.2);
    refcount.update_juror(p, 2, perturbed).unwrap();
    refcount.update_juror(p, 2, jurors[2]).unwrap();
    assert_eq!(refcount.stats().artifact_rejoins, 0, "refcount policy reclaims on detach");
    assert_eq!(refcount.stats().store_ttl_evictions, 0);

    let mut ttl = JuryService::with_config(ServiceConfig {
        store_ttl: Some(Duration::from_secs(3600)),
        ..Default::default()
    });
    let p = ttl.create_pool(jurors.clone());
    ttl.warm_pool(p).unwrap();
    ttl.update_juror(p, 2, perturbed).unwrap();
    assert_eq!(ttl.artifact_entries(), 1, "the orphaned entry outlives the detach");
    ttl.update_juror(p, 2, jurors[2]).unwrap();
    assert_eq!(ttl.stats().artifact_rejoins, 1, "restored content re-joins the kept orphan");
    assert_eq!(ttl.stats().store_ttl_evictions, 0, "nothing expired under a 1h TTL");
    assert_altr_matches_direct(&mut ttl, p, "re-joined sole holder");
    assert_paym_matches_direct(&mut ttl, p, 0.8, "re-joined sole holder");
}

#[test]
fn ttl_expiry_evicts_and_ticks_the_counter() {
    // A zero TTL expires orphans at the very next sweep: the counter
    // gate for `store_ttl_evictions`, and proof the expired entry is
    // really gone (the restoring mutation cannot re-join it).
    let jurors = build(&[(0.1, 0.2), (0.2, 0.1), (0.3, 0.4), (0.25, 0.3)]);
    let mut service = JuryService::with_config(ServiceConfig {
        store_ttl: Some(Duration::ZERO),
        ..Default::default()
    });
    let p = service.create_pool(jurors.clone());
    service.warm_pool(p).unwrap();
    assert_eq!(service.artifact_entries(), 1);

    let perturbed = Juror::new(91, ErrorRate::new(0.17).unwrap(), 0.25);
    service.update_juror(p, 1, perturbed).unwrap();
    assert_eq!(service.stats().store_ttl_evictions, 1, "the orphan expires at the next sweep");
    assert_eq!(service.artifact_entries(), 0);
    service.update_juror(p, 1, jurors[1]).unwrap();
    assert_eq!(service.stats().artifact_rejoins, 0, "the expired entry cannot be re-joined");

    // Pool removal stamps and sweeps the same way.
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    service.warm_pool(a).unwrap();
    service.warm_pool(b).unwrap();
    let evictions = service.stats().store_ttl_evictions;
    service.remove_pool(a).unwrap();
    assert_eq!(service.stats().store_ttl_evictions, evictions, "the sibling still holds it");
    service.remove_pool(b).unwrap();
    assert_eq!(service.stats().store_ttl_evictions, evictions + 1, "the last removal expires it");
    assert_eq!(service.artifact_entries(), 0);

    // The explicit sweep entry point: a no-op with nothing pending, and
    // always a no-op without a TTL configured.
    assert_eq!(service.sweep_artifact_ttl(), 0);
    assert_eq!(JuryService::new().sweep_artifact_ttl(), 0);
}

#[test]
fn sharing_disabled_stays_private() {
    let jurors = build(&[(0.1, 0.2), (0.2, 0.1), (0.3, 0.4)]);
    let mut service = private_service();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors);
    service.warm_pool(a).unwrap();
    service.warm_pool(b).unwrap();
    let stats = service.stats();
    assert_eq!(stats.cache_builds, 2, "each pool builds privately");
    assert_eq!(stats.artifact_share_hits, 0);
    assert_eq!(service.artifact_entries(), 0);
    assert!(!service.shares_artifacts_with(a, b).unwrap());
    assert_eq!(service.fingerprint(a).unwrap(), service.fingerprint(b).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A shuffled pool over the same jurors has an equal fingerprint but
    // another sequence: it builds privately (one more cold build, no
    // share hit), never replaces the incumbent entry — pools identical
    // to the founder keep attaching — and answers AltrM and PayM
    // bit-identically to the direct solvers on *its* juror order.
    #[test]
    fn shuffled_pools_build_privately_and_keep_the_incumbent(
        pairs in pools(60),
        seed in 1u64..u64::MAX,
        budget in 0.0..3.0f64,
    ) {
        let jurors = build(&pairs);
        let shuffled = shuffled(&jurors, seed);
        prop_assume!(rearranged(&jurors, &shuffled));
        let mut service = JuryService::new();
        let a = service.create_pool(jurors.clone());
        let b = service.create_pool(shuffled.clone());
        prop_assert_eq!(
            service.fingerprint(a).unwrap(),
            service.fingerprint(b).unwrap(),
            "equal multisets must produce equal fingerprints"
        );
        service.warm_pool(a).unwrap();
        let builds_a = service.stats().cache_builds;
        service.warm_pool(b).unwrap();
        prop_assert!(!service.shares_artifacts_with(a, b).unwrap(), "a shuffle never attaches");
        prop_assert_eq!(service.stats().cache_builds, builds_a + 1, "the shuffle builds privately");
        prop_assert_eq!(service.stats().artifact_share_hits, 0);
        prop_assert_eq!(service.artifact_entries(), 1, "the incumbent keeps its key");
        let c = service.create_pool(jurors.clone());
        service.warm_pool(c).unwrap();
        prop_assert!(service.shares_artifacts_with(a, c).unwrap(), "the founder's entry survives");
        prop_assert_eq!(service.stats().artifact_share_hits, 1);

        assert_altr_matches_direct(&mut service, a, "founding pool");
        assert_altr_matches_direct(&mut service, b, "shuffled pool");
        assert_paym_matches_direct(&mut service, a, budget, "founding pool");
        assert_paym_matches_direct(&mut service, b, budget, "shuffled pool");
        // The profile is a function of the sorted rates alone: equal
        // bits across the arrangement.
        let profile_a = service.jer_profile(a).unwrap().to_vec();
        let profile_b = service.jer_profile(b).unwrap().to_vec();
        for ((na, ja), (nb, jb)) in profile_a.iter().zip(&profile_b) {
            prop_assert_eq!(na, nb);
            prop_assert_eq!(ja.to_bits(), jb.to_bits());
        }
    }

    // Any single-juror ε perturbation changes the fingerprint and
    // detaches; restoring the juror re-joins. Adversarial rates are in
    // the pool generator.
    #[test]
    fn single_juror_perturbations_always_detach(
        pairs in pools(40),
        victim in any::<prop::sample::Index>(),
        flip in any::<bool>(),
    ) {
        let jurors = build(&pairs);
        let mut service = JuryService::new();
        let a = service.create_pool(jurors.clone());
        let b = service.create_pool(jurors.clone());
        service.warm_pool(a).unwrap();
        service.warm_pool(b).unwrap();
        prop_assert!(service.shares_artifacts_with(a, b).unwrap());
        let fp = service.fingerprint(a).unwrap();

        let idx = victim.index(jurors.len());
        let old = jurors[idx];
        // One-ulp ε moves in either direction are new content.
        let eps_bits = old.epsilon().to_bits();
        let new_eps = f64::from_bits(if flip { eps_bits + 1 } else { eps_bits - 1 });
        prop_assume!(new_eps > 0.0 && new_eps < 1.0);
        service.update_juror(a, idx, Juror::new(999, ErrorRate::new(new_eps).unwrap(), old.cost))
            .unwrap();
        prop_assert_ne!(service.fingerprint(a).unwrap(), fp, "perturbed content, new key");
        prop_assert!(!service.shares_artifacts_with(a, b).unwrap(), "perturbation must detach");
        assert_altr_matches_direct(&mut service, a, "perturbed pool");

        service.update_juror(a, idx, old).unwrap();
        prop_assert_eq!(service.fingerprint(a).unwrap(), fp, "restored content, restored key");
        prop_assert!(service.shares_artifacts_with(a, b).unwrap(), "restoration re-joins");
        prop_assert!(service.stats().artifact_rejoins >= 1);
        assert_altr_matches_direct(&mut service, a, "re-joined pool");
    }
}
