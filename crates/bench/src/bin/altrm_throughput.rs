//! `altrm_throughput` — the rescan-free warm AltrM serving numbers.
//!
//! Three measurements per pool size and layout, on AltrM traffic:
//!
//! * **steady warm** — the same AltrM task again: a cached-answer
//!   replay (one selection clone, no scan at all);
//! * **post-mutation** — one juror update (a re-estimated error rate)
//!   followed by the next AltrM task: the update repairs every sorted
//!   order and pmf ladder *in place*, and the dropped answer is
//!   re-solved by `AltrAlg::solve_pruned` — an `O(N)` bound sweep plus
//!   exact JER only at the surviving sizes, instead of the `O(N²)`
//!   full prefix scan;
//! * **full-rescan baseline** — what the same re-solve cost before this
//!   path existed: `AltrAlg::solve_presorted` over the identical
//!   (already repaired) sorted order. Measured only up to 10⁴ jurors;
//!   beyond that one baseline rescan takes whole seconds, which is the
//!   point.
//!
//! The pool models the regime the paper's Twitter measurements show and
//! that makes jury selection interesting at all: a *fixed* cohort of
//! reliable experts (ε ∈ [0.02, 0.30)) inside an ever-growing unreliable
//! mob (ε ∈ [0.55, 0.95)). The optimal jury sits in the expert band.
//! The Paley–Zygmund bound prunes only the sizes above the `μ = t`
//! crossover, where the prefix mean passes ½; the mob sizes between the
//! expert band and the crossover are cut by the halving stop instead
//! (every added rate is at least ½, so `JER(m) ≥ JER(n)/2`). The emitter
//! records how many candidate sizes were pruned. (A pool whose rates all
//! stay below ½ — e.g. a uniform ε spread with mean < 0.5 — never fires
//! the stop and keeps every size below the crossover a survivor; the
//! pruned scan then degrades gracefully to the full one plus an `O(N)`
//! sweep.)
//!
//! A last table prices the pmf kernel itself at the sizes PayM pair
//! trials and post-mutation re-solves see (16 to 4,096 entries), over
//! the same pool family's ε-sorted rates: `PoiBin::push` growing a pmf
//! from half the size to the size, and `PoiBin::tail` at the majority
//! threshold. Both are reported in ns per *nominal* entry, the entries
//! a full-width kernel would touch, so rows from kernels that skip the
//! zero ends stay comparable.
//!
//! Appends an `"altrm"` section to `BENCH_service.json` (run
//! `service_throughput` first — it rewrites the whole file). Every row
//! is stamped with the measured commit and `nproc`, and rows of other
//! commits are kept. `--smoke` runs a seconds-long version on a
//! tiny pool and writes nothing — CI uses it to keep this binary from
//! rotting.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin altrm_throughput [-- --smoke]
//! ```

use jury_bench::history::{measured_commit, other_commits, stamped};
use jury_bench::report::{fmt_secs, Report};
use jury_bench::timing::time_best_of;
use jury_core::altr::AltrAlg;
use jury_core::jer::JerEngine;
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_core::solver::{sorted_order_into, SolverScratch};
use jury_numeric::poibin::PoiBin;
use jury_service::{DecisionTask, JuryService, PoolId, ServiceConfig, ShardConfig};
use serde::{json, Serialize, Value};
use std::hint::black_box;

/// Number of reliable experts, independent of pool size.
const EXPERTS: usize = 100;

/// Largest pool the `O(N²)` full-rescan baseline is measured on.
const RESCAN_BASELINE_MAX: usize = 10_000;

/// Deterministic expert-plus-mob pool: `EXPERTS` reliable jurors spread
/// over [0.02, 0.30), the rest a mob spread over [0.55, 0.95); golden-
/// ratio spacing, convex prices.
fn pool(n: usize) -> Vec<Juror> {
    let experts = EXPERTS.min(n / 2);
    let quotes: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let u = (i as f64 * 0.6180339887498949) % 1.0;
            let e = if i < experts { 0.02 + 0.28 * u } else { 0.55 + 0.40 * u };
            (e, 0.05 + u * u)
        })
        .collect();
    pool_from_rates_and_costs(&quotes).expect("valid synthetic quotes")
}

/// One juror update per round: a mob member's rate is re-estimated
/// within the mob band, so the pool regime is stable across rounds.
fn mutated_juror(round: usize, n: usize) -> (usize, Juror) {
    let idx = EXPERTS + (round * 7919) % (n - EXPERTS);
    let e = 0.55 + ((round * 13) % 40) as f64 / 100.0;
    (idx, Juror::new(idx as u32, ErrorRate::new(e).unwrap(), 0.1))
}

/// Measures steady warm replay and post-mutation re-solve through the
/// service; returns `(steady, post_mutation, pruned_per_solve)`.
fn measure(service: &mut JuryService, id: PoolId, n: usize, repeats: usize) -> (f64, f64, usize) {
    let task = DecisionTask::altruism(id);
    assert!(service.solve(&task).is_ok(), "priming solve must succeed");
    let (_, steady) = time_best_of(repeats, || {
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    let pruned_before = service.stats().bound_pruned;
    let solves_before = service.stats().tasks_solved;
    let mut round = 0usize;
    let (_, post_mutation) = time_best_of(repeats, || {
        round += 1;
        let (idx, juror) = mutated_juror(round, n);
        service.update_juror(id, idx, juror).expect("index in range");
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    let full_repairs = service.stats().full_repairs;
    assert!(full_repairs <= 1, "post-mutation AltrM must never full-repair (saw {full_repairs})");
    let solves = service.stats().tasks_solved - solves_before;
    let pruned_per_solve = (service.stats().bound_pruned - pruned_before) / solves.max(1);
    (steady, post_mutation, pruned_per_solve)
}

/// The pre-pruning cost of the same re-solve: one full presorted scan
/// over the pool's sorted order.
fn full_rescan_baseline(jurors: &[Juror], repeats: usize) -> f64 {
    let mut order = Vec::new();
    sorted_order_into(jurors, &mut order);
    let mut scratch = SolverScratch::new();
    let alg = AltrAlg::default();
    let (_, secs) = time_best_of(repeats, || {
        let r = alg.solve_presorted(jurors, &order, &mut scratch);
        std::hint::black_box(r.is_ok())
    });
    secs
}

/// pmf sizes (entries) of the kernel table.
const KERNEL_SIZES: [usize; 5] = [16, 64, 256, 1_024, 4_096];

/// ns per nominal entry of `PoiBin::push` and `PoiBin::tail` at `size`
/// entries over `eps_sorted`, each timed over about `budget` nominal
/// entries (best of `repeats`).
fn kernel_costs(eps_sorted: &[f64], size: usize, budget: usize, repeats: usize) -> (f64, f64) {
    let half = size / 2;
    let mut base = PoiBin::empty();
    for &e in &eps_sorted[..half - 1] {
        base.push(e);
    }
    // Growing from `half` entries to `size`: a push to k entries touches
    // k of them at full width.
    let grow = &eps_sorted[half - 1..size - 1];
    let pushed: usize = (half + 1..=size).sum();
    let rounds = (budget / pushed).max(1);
    let mut trial = PoiBin::empty();
    let (_, push_secs) = time_best_of(repeats, || {
        for _ in 0..rounds {
            trial.copy_from(&base);
            for &e in grow {
                trial.push(e);
            }
        }
        black_box(trial.n())
    });
    let threshold = JerEngine::majority_threshold(size - 1);
    let summed = size - threshold;
    let sums = (budget / summed).max(1);
    let (_, tail_secs) = time_best_of(repeats, || {
        black_box((0..sums).map(|_| black_box(&trial).tail(threshold)).sum::<f64>())
    });
    (push_secs * 1e9 / (rounds * pushed) as f64, tail_secs * 1e9 / (sums * summed) as f64)
}

fn sharded_service(k: usize) -> JuryService {
    JuryService::with_config(ServiceConfig {
        shard: ShardConfig { threshold: 1, shards: k, ..Default::default() },
        ..Default::default()
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (pool_sizes, shard_counts, repeats): (Vec<usize>, Vec<usize>, usize) =
        if smoke { (vec![500], vec![4], 1) } else { (vec![1_000, 10_000, 100_000], vec![16], 5) };

    let mut report = Report::new(
        "altrm_throughput",
        "warm AltrM: cached replay (steady) vs one juror update + bound-pruned re-solve, \
         against the O(N^2) full-rescan baseline",
        &["pool", "layout", "steady warm", "post-mutation", "full rescan", "speedup", "pruned"],
    );
    let commit = measured_commit();
    let mut rows: Vec<Value> = Vec::new();

    for &n in &pool_sizes {
        let jurors = pool(n);
        let rescan = (n <= RESCAN_BASELINE_MAX).then(|| full_rescan_baseline(&jurors, repeats));
        let mut run = |service: &mut JuryService, layout: String, shards: Option<usize>| {
            let id = service.create_pool(jurors.clone());
            let (steady, post, pruned) = measure(service, id, n, repeats);
            assert!(pruned > 0, "the mob tail must prune on this pool");
            let speedup = rescan.map(|r| r / post);
            report.row(&[
                &n,
                &layout,
                &fmt_secs(steady),
                &fmt_secs(post),
                &rescan.map_or("-".into(), fmt_secs),
                &speedup.map_or("-".into(), |s| format!("{s:.0}x")),
                &pruned,
            ]);
            rows.push(stamped(
                &commit,
                vec![
                    ("pool_size", n.to_value()),
                    ("shards", shards.map_or(Value::Null, |k| k.to_value())),
                    ("model", "altrm".to_value()),
                    ("steady_warm_hit_secs", steady.to_value()),
                    ("post_mutation_secs", post.to_value()),
                    ("full_rescan_secs", rescan.map_or(Value::Null, |r| r.to_value())),
                    ("speedup_vs_full_rescan", speedup.map_or(Value::Null, |s| s.to_value())),
                    ("sizes_pruned_per_solve", pruned.to_value()),
                ],
            ));
        };
        for &k in &shard_counts {
            run(&mut sharded_service(k), format!("sharded/{k}"), Some(k));
        }
        run(&mut JuryService::new(), "flat".into(), None);
    }

    report.emit();

    let mut kernel = Report::new(
        "altrm_poibin_kernel",
        "PoiBin push/tail ns per nominal pmf entry over expert-plus-mob eps-sorted rates",
        &["entries", "push ns/entry", "tail ns/entry"],
    );
    let kernel_pool = pool(KERNEL_SIZES[KERNEL_SIZES.len() - 1]);
    let mut kernel_order = Vec::new();
    sorted_order_into(&kernel_pool, &mut kernel_order);
    let kernel_eps: Vec<f64> = kernel_order.iter().map(|&i| kernel_pool[i].epsilon()).collect();
    let budget = if smoke { 200_000 } else { 20_000_000 };
    let mut kernel_rows: Vec<Value> = Vec::new();
    for size in KERNEL_SIZES {
        let (push, tail) = kernel_costs(&kernel_eps, size, budget, repeats);
        kernel.row(&[&size, &format!("{push:.3}"), &format!("{tail:.3}")]);
        kernel_rows.push(stamped(
            &commit,
            vec![
                ("entries", size.to_value()),
                ("push_ns_per_entry", push.to_value()),
                ("tail_ns_per_entry", tail.to_value()),
            ],
        ));
    }
    kernel.emit();

    if smoke {
        println!("[smoke] altrm_throughput ok ({} measurements)", rows.len());
        return;
    }

    // Extend BENCH_service.json (written by service_throughput) with the
    // altrm section.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let mut history = other_commits(&doc, "altrm", "results", &commit);
    history.extend(rows);
    let mut kernel_history = other_commits(&doc, "altrm", "poibin_kernel", &commit);
    kernel_history.extend(kernel_rows);
    let section = Value::object([
        (
            "workload",
            "warm AltrM on an expert-plus-mob pool (100 experts eps in [0.02,0.30), mob in \
             [0.55,0.95)): cached replay (steady) and one juror update + next solve \
             (post-mutation: in-place order/ladder repair + bound-pruned rescan-free re-solve), \
             vs the O(N^2) full presorted rescan the warm path previously paid"
                .to_value(),
        ),
        ("experts", EXPERTS.to_value()),
        ("pool_sizes", Value::Array(pool_sizes.iter().map(|n| n.to_value()).collect())),
        ("shard_counts", Value::Array(shard_counts.iter().map(|k| k.to_value()).collect())),
        (
            "rescan_baseline_note",
            format!(
                "full_rescan_secs measured only up to {RESCAN_BASELINE_MAX} jurors; beyond that \
                 one O(N^2) rescan takes seconds"
            )
            .to_value(),
        ),
        ("results", Value::Array(history)),
        ("poibin_kernel", Value::Array(kernel_history)),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "altrm");
        fields.push(("altrm".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (altrm section)");
}
