//! Differential tests for the keyed visit-order sorts: `sorted_order_into`,
//! `PayAlg::greedy_order_into` and `visit_order` over member subsets must
//! produce exactly the permutation a comparator sort under `eps_cmp` /
//! `PayAlg::greedy_cmp` produces, on pools built to collide keys.

use jury_core::juror::{ErrorRate, Juror, ERROR_RATE_MARGIN};
use jury_core::paym::PayAlg;
use jury_core::solver::{eps_cmp, sorted_order_into, visit_order, VisitOrder};
use std::cmp::Ordering;

type Cmp = fn(&[Juror], usize, usize) -> Ordering;

fn juror(id: usize, eps: f64, cost: f64) -> Juror {
    Juror::try_new(id as u32, ErrorRate::new(eps).unwrap(), cost).unwrap()
}

fn pool(quotes: &[(f64, f64)]) -> Vec<Juror> {
    quotes.iter().enumerate().map(|(i, &(e, c))| juror(i, e, c)).collect()
}

/// Deterministic picks from a small value set, so keys collide often.
fn pick<T: Copy>(values: &[T], i: usize, salt: usize) -> T {
    values[(i * 2_654_435_761 + salt * 40_503) % 4_294_967_291 % values.len()]
}

/// Pools that stress every tie-break of both comparators. `ErrorRate`
/// rejects ε of exactly 0 and 1, so the extremes are the closest rates
/// it accepts: the smallest subnormal, the clamp margins and the float
/// just below 1.
fn adversarial_pools() -> Vec<(&'static str, Vec<Juror>)> {
    let below_one = f64::from_bits(1.0f64.to_bits() - 1);
    let extremes = [
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        ERROR_RATE_MARGIN,
        0.5,
        1.0 - ERROR_RATE_MARGIN,
        below_one,
    ];
    // Every product below is exactly 0.1: equal greedy keys reached
    // through different costs and rates.
    let equal_products = [(0.2, 0.5), (0.4, 0.25), (0.1, 1.0), (0.5, 0.2), (0.2, 0.5)];
    vec![
        (
            "all eps equal",
            pool(&(0..300).map(|i| (0.3, pick(&[0.0, 0.5, 1.0], i, 1))).collect::<Vec<_>>()),
        ),
        ("all jurors equal", pool(&[(0.25, 0.75); 64])),
        (
            "equal greedy keys",
            pool(&(0..250).map(|i| pick(&equal_products, i, 2)).collect::<Vec<_>>()),
        ),
        (
            "signed zero costs",
            pool(
                &(0..200)
                    .map(|i| {
                        (
                            pick(&[0.1, 0.3, 0.3, 0.7], i, 3),
                            pick(&[-0.0, 0.0, 0.0, -0.0, 0.4], i, 4),
                        )
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "extreme rates",
            pool(
                &(0..180)
                    .map(|i| {
                        (pick(&extremes, i, 5), pick(&[0.0, -0.0, 1e-300, 2.0, f64::MAX], i, 6))
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "mixed",
            pool(
                &(0..1_000)
                    .map(|i| {
                        let u = (i as f64 * 0.618_033_988_749_895) % 1.0;
                        if i % 3 == 0 {
                            pick(&equal_products, i, 7)
                        } else {
                            (0.02 + 0.93 * u, pick(&[0.0, -0.0, 0.05, 0.05 + u * u], i, 8))
                        }
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
    ]
}

fn comparator_sort(pool: &[Juror], positions: &[usize], cmp: Cmp) -> Vec<usize> {
    let mut order = positions.to_vec();
    order.sort_by(|&a, &b| cmp(pool, a, b));
    order
}

/// Member subsets as a shard build sees them: strided, reversed and
/// shuffled, plus the whole pool and the empty set.
fn subsets(n: usize) -> Vec<Vec<usize>> {
    let mut out = vec![(0..n).collect(), Vec::new()];
    for k in [2, 3, 7] {
        for r in 0..k.min(n) {
            out.push((r..n).step_by(k).collect());
        }
    }
    out.push((0..n).rev().collect());
    out.push((0..n).map(|i| (i * 7_919) % n).filter(|&i| i % 5 != 0).collect());
    out
}

#[test]
fn full_pool_orders_match_the_comparators() {
    for (label, pool) in adversarial_pools() {
        let all: Vec<usize> = (0..pool.len()).collect();
        let mut order = vec![usize::MAX; 3];
        sorted_order_into(&pool, &mut order);
        assert_eq!(order, comparator_sort(&pool, &all, eps_cmp), "{label}: eps");
        PayAlg::greedy_order_into(&pool, &mut order);
        assert_eq!(order, comparator_sort(&pool, &all, PayAlg::greedy_cmp), "{label}: greedy");
    }
}

#[test]
fn member_subset_orders_match_the_comparators() {
    // `reused` carries the previous subset's order, so both the buffer
    // reuse and the fresh-buffer path are exercised.
    let mut reused = Vec::new();
    for (label, pool) in adversarial_pools() {
        for members in subsets(pool.len()) {
            let ctx = format!("{label}, {} members", members.len());
            let want = comparator_sort(&pool, &members, eps_cmp);
            let mut fresh = Vec::new();
            visit_order(&pool, members.iter().copied(), VisitOrder::Eps, &mut fresh);
            assert_eq!(fresh, want, "{ctx}: eps");
            visit_order(&pool, members.iter().copied(), VisitOrder::Eps, &mut reused);
            assert_eq!(reused, want, "{ctx}: eps into a used buffer");
            let want = comparator_sort(&pool, &members, PayAlg::greedy_cmp);
            let mut fresh = Vec::new();
            visit_order(&pool, members.iter().copied(), VisitOrder::Greedy, &mut fresh);
            assert_eq!(fresh, want, "{ctx}: greedy");
            visit_order(&pool, members.iter().copied(), VisitOrder::Greedy, &mut reused);
            assert_eq!(reused, want, "{ctx}: greedy into a used buffer");
        }
    }
}

#[test]
fn signed_zero_costs_order_by_total_cmp() {
    // -0 sorts before +0 under total_cmp, so the -0 juror leads the
    // greedy order even at a higher position and a worse rate.
    let pool = pool(&[(0.1, 0.0), (0.4, -0.0)]);
    let mut order = Vec::new();
    PayAlg::greedy_order_into(&pool, &mut order);
    assert_eq!(order, vec![1, 0]);
}
