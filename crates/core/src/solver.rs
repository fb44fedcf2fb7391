//! The [`Solver`] trait: one interface over every JSP algorithm.
//!
//! The paper presents AltrALG, PayALG and the exact enumeration as
//! unrelated procedures. A serving layer (the `jury-service` crate)
//! needs them interchangeable *and* cheap to call repeatedly, so this
//! module gives them a common shape:
//!
//! * a solver is a small value holding its configuration (strategy,
//!   engine, budget) — construct once, reuse for many pools;
//! * every per-call working buffer lives in a [`SolverScratch`] owned by
//!   the caller (one per worker thread), so a warm solve performs no
//!   heap allocation beyond the returned [`Selection`];
//! * results are bit-identical to the free-function entry points
//!   (`AltrAlg::solve`, `PayAlg::solve`, `exact_paym`), which now share
//!   the same scratch-threaded internals.
//!
//! ```
//! use jury_core::juror::pool_from_rates;
//! use jury_core::prelude::*;
//! use jury_core::solver::{Solver, SolverScratch};
//!
//! let pool = pool_from_rates(&[0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4]).unwrap();
//! let mut scratch = SolverScratch::new();
//! let mut solvers: Vec<Box<dyn Solver>> = vec![
//!     Box::new(AltrAlg::default()),
//!     Box::new(PayAlg::new(1.0, PayConfig::default())),
//! ];
//! for solver in &mut solvers {
//!     let selection = solver.solve(&pool, &mut scratch).unwrap();
//!     assert!(selection.size() % 2 == 1);
//! }
//! ```

use crate::error::JuryError;
use crate::jer::JerScratch;
use crate::juror::Juror;
use crate::problem::Selection;
use jury_numeric::poibin::PoiBin;

/// Caller-owned working memory shared by all solvers.
///
/// Buffers grow to the workload's steady-state sizes on first use and
/// are reused afterwards; dropping the scratch releases everything. A
/// scratch must not be shared between threads concurrently — give each
/// worker its own.
///
/// The same `pmf`/`trial` pair also backs the budget-staircase miss path
/// ([`PayAlg::solve_staircase`](crate::paym::PayAlg::solve_staircase)):
/// a staircase miss runs one ordinary scan through these buffers, so a
/// serving layer needs no extra per-worker state to adopt the staircase.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    /// Pool indices in the solver's visit order.
    pub(crate) order: Vec<usize>,
    /// Error rates aligned with `order`.
    pub(crate) eps: Vec<f64>,
    /// Incrementally-grown carelessness pmf.
    pub(crate) pmf: PoiBin,
    /// Trial pmf for tentative enlargements (PayALG's pair test).
    pub(crate) trial: PoiBin,
    /// JER-engine working buffers.
    pub(crate) jer: JerScratch,
    /// Per-odd-size lower bounds of `AltrAlg::solve_pruned`'s sweep.
    pub(crate) bounds: Vec<f64>,
}

impl SolverScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidate visit order left by the most recent solve
    /// (ε-ascending after an `AltrAlg` solve, greedy order after a
    /// `PayAlg` solve). Serving layers snapshot this into their caches
    /// instead of re-sorting the pool.
    pub fn last_order(&self) -> &[usize] {
        &self.order
    }

    /// The ε values aligned with [`SolverScratch::last_order`] after an
    /// `AltrAlg` solve.
    pub fn last_sorted_eps(&self) -> &[f64] {
        &self.eps
    }
}

/// A configured jury-selection algorithm.
///
/// Implemented by [`AltrAlg`](crate::altr::AltrAlg) (exact under AltrM),
/// [`PayAlg`](crate::paym::PayAlg) (greedy under PayM) and
/// [`ExactPaym`](crate::exact::ExactPaym) (exponential ground truth).
/// `&mut self` lets stateful solvers cache across calls; the provided
/// implementations keep all reusable state in the scratch instead.
pub trait Solver {
    /// A short stable identifier (used in service stats and reports).
    fn name(&self) -> &'static str;

    /// Selects a jury from `pool`, using `scratch` for working memory.
    ///
    /// Member indices in the returned [`Selection`] refer to positions
    /// in `pool`.
    fn solve(
        &mut self,
        pool: &[Juror],
        scratch: &mut SolverScratch,
    ) -> Result<Selection, JuryError>;
}

/// The ε-ascending total order over pool positions: `ε` by `total_cmp`,
/// ties by position. Strict for distinct positions, which is what makes a
/// K-way merge of per-shard sorted runs reproduce the global sort
/// permutation-for-permutation (see [`crate::merge`]).
#[inline]
pub fn eps_cmp(pool: &[Juror], a: usize, b: usize) -> std::cmp::Ordering {
    pool[a].epsilon().total_cmp(&pool[b].epsilon()).then(a.cmp(&b))
}

/// Pool indices sorted ascending by ε (ties by index for determinism),
/// written into `order` — the shared first step of AltrALG and the
/// fixed-size selector; public so serving layers can cache the order per
/// pool. The permutation is exactly the one [`eps_cmp`] defines; see
/// [`visit_order`] for how it is computed and when `order`'s buffer is
/// reused.
pub fn sorted_order_into(pool: &[Juror], order: &mut Vec<usize>) {
    visit_order(pool, 0..pool.len(), VisitOrder::Eps, order);
}

/// One of the two solver visit orders over pool positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitOrder {
    /// ε ascending: [`eps_cmp`].
    Eps,
    /// PayALG's greedy order: [`PayAlg::greedy_cmp`](crate::paym::PayAlg::greedy_cmp).
    Greedy,
}

/// Sorts `positions` (distinct indices into `pool`) under `order`'s
/// comparator and writes them, in that order, into `out`.
///
/// The comparators stay the definition of both orders; this computes the
/// same permutation faster. Each position's primary float key (ε, or
/// `ε·r` for the greedy order) is mapped once onto a `u64` whose unsigned
/// order is `f64::total_cmp`'s order, and 16-byte `(key, position)` pairs
/// are sorted without touching `pool` again. For ε that pair order *is*
/// [`eps_cmp`] (equal keys fall back to the position). For the greedy
/// order each run of equal keys is re-sorted with the full
/// [`PayAlg::greedy_cmp`](crate::paym::PayAlg::greedy_cmp) tie-break
/// chain. Positions are stored as `u32`, like juror ids.
///
/// When `out` already has room for every position its buffer is reused
/// and the pairs are freed after the copy. Otherwise the pairs are
/// turned into the order in their own buffer, which is then shrunk to
/// fit, so a cold sort touches no more memory than the pairs themselves
/// (16 bytes a position; a comparator sort needs 8 for the order plus up
/// to 8 of merge scratch).
///
/// # Panics
/// Panics if a position does not fit in a `u32`.
pub fn visit_order(
    pool: &[Juror],
    positions: impl ExactSizeIterator<Item = usize>,
    order: VisitOrder,
    out: &mut Vec<usize>,
) {
    let key = match order {
        VisitOrder::Eps => |j: &Juror| j.epsilon(),
        VisitOrder::Greedy => |j: &Juror| j.greedy_key(),
    };
    let n = positions.len();
    // One spare pair: the half of the buffer the final shrink releases is
    // then large enough to take an n-entry f64 vector and its allocator
    // header (the ε rates a flat cache builds next), instead of leaving a
    // hole just too small for it.
    let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(n + 1);
    pairs.extend(positions.map(|i| {
        let pos = u32::try_from(i).expect("pool positions fit in u32");
        (total_order_key(key(&pool[i])), pos)
    }));
    pairs.sort_unstable();
    if order == VisitOrder::Greedy {
        for run in pairs.chunk_by_mut(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
            run.sort_unstable_by(|a, b| {
                crate::paym::PayAlg::greedy_cmp(pool, a.1 as usize, b.1 as usize)
            });
        }
    }
    if out.capacity() >= n {
        out.clear();
        out.extend(pairs.iter().map(|&(_, i)| i as usize));
    } else {
        *out = pairs.into_iter().map(|(_, i)| i as usize).collect();
        out.shrink_to_fit();
    }
}

/// Maps `x` onto a `u64` whose unsigned order is [`f64::total_cmp`]'s
/// order: negative values have every bit flipped, the rest only the sign
/// bit. Equal keys mean bit-identical floats.
#[inline]
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::altr::{AltrAlg, AltrConfig};
    use crate::exact::ExactPaym;
    use crate::juror::{pool_from_rates, pool_from_rates_and_costs};
    use crate::paym::{PayAlg, PayConfig};

    #[test]
    fn trait_objects_dispatch_all_solvers() {
        let pool = pool_from_rates_and_costs(&[
            (0.1, 0.2),
            (0.2, 0.2),
            (0.2, 0.3),
            (0.3, 0.4),
            (0.3, 0.65),
            (0.4, 0.05),
            (0.4, 0.05),
        ])
        .unwrap();
        let mut scratch = SolverScratch::new();
        let mut solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(AltrAlg::default()),
            Box::new(AltrAlg::new(AltrConfig::paper_with_bound())),
            Box::new(PayAlg::new(1.0, PayConfig::default())),
            Box::new(ExactPaym::with_budget(1.0)),
        ];
        for solver in &mut solvers {
            let sel = solver.solve(&pool, &mut scratch).unwrap();
            assert!(sel.size() % 2 == 1, "{}", solver.name());
            assert!(!solver.name().is_empty());
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // Run a mixed sequence of solves through ONE scratch and compare
        // each against a fresh-scratch run: warm buffers must never
        // change any result.
        let pools: Vec<Vec<crate::juror::Juror>> = vec![
            pool_from_rates(&[0.4, 0.3, 0.1, 0.4, 0.2, 0.3, 0.2]).unwrap(),
            pool_from_rates(&[0.45, 0.48, 0.33]).unwrap(),
            pool_from_rates(&(0..80).map(|i| 0.05 + (i as f64) / 100.0).collect::<Vec<_>>())
                .unwrap(),
        ];
        let mut warm = SolverScratch::new();
        for _ in 0..3 {
            for pool in &pools {
                let mut altr = AltrAlg::default();
                let a = altr.solve(pool, &mut warm).unwrap();
                let b = altr.solve(pool, &mut SolverScratch::new()).unwrap();
                assert_eq!(a, b);
                let mut pay = PayAlg::new(f64::MAX, PayConfig::default());
                let a = pay.solve(pool, &mut warm).unwrap();
                let b = pay.solve(pool, &mut SolverScratch::new()).unwrap();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn total_order_key_follows_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn sorted_order_reuses_and_sorts() {
        let pool = pool_from_rates(&[0.4, 0.1, 0.3, 0.1]).unwrap();
        let mut order = vec![99; 32];
        let buffer = order.as_ptr();
        sorted_order_into(&pool, &mut order);
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert_eq!(order.as_ptr(), buffer, "a buffer with room is reused");
        let mut fresh = Vec::new();
        sorted_order_into(&pool, &mut fresh);
        assert_eq!(fresh, order);
        assert_eq!(fresh.capacity(), pool.len(), "a fresh order is shrunk to fit");
    }
}
