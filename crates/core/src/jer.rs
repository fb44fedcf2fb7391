//! Jury Error Rate computation (Definition 6, §3.1).
//!
//! `JER(J_n) = Pr(C ≥ (n+1)/2)` where `C` is the number of jurors voting
//! incorrectly. The engines mirror the paper's §3.1:
//!
//! | Engine | Paper reference | Complexity |
//! |---|---|---|
//! | [`JerEngine::Naive`] | §2.1.2 enumeration | `O(2^n)` |
//! | [`JerEngine::DynamicProgramming`] | Lemma 1 / Algorithm 1 | `O(n²)` time, `O(n)` space |
//! | [`JerEngine::TailDp`] | Algorithm 1, literal two-vector form | `O(n²)` time, `O(n)` space |
//! | [`JerEngine::Convolution`] | Algorithm 2 (CBA) | `O(n log n)` |
//! | [`JerEngine::Auto`] | — | DP below ~64 jurors; CBA above, `O(n log n)`, while the tail stays above CBA's error floor, then a CBA pass plus the `O(n²)` DP |
//!
//! `DynamicProgramming` materialises the full pmf (useful when the caller
//! also wants the distribution); `TailDp` computes only the tail, exactly
//! as Algorithm 1 prints it.
//!
//! The Lemma-2 Paley–Zygmund lower bound is re-exported as
//! [`jer_lower_bound`] with the majority threshold pre-applied.

use jury_numeric::bounds::{paley_zygmund_gamma, paley_zygmund_lower_bound, TailBound};
use jury_numeric::poibin::{tail_probability_dp_with, PoiBin, TailScratch, CBA_BASE_CASE};

/// Reusable buffers for [`JerEngine::jer_with`] /
/// [`JerEngine::tail_with`]: a pmf for the DP engines and the rolling
/// vectors of Algorithm 1. One scratch per worker thread is the intended
/// usage; results are bit-identical to the allocating entry points.
#[derive(Debug, Clone, Default)]
pub struct JerScratch {
    pmf: PoiBin,
    tail: TailScratch,
}

impl JerScratch {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self { pmf: PoiBin::empty(), tail: TailScratch::new() }
    }
}

/// Jury size at which [`JerEngine::Auto`] switches from the quadratic DP
/// to CBA. Below this the DP's tight inner loop wins; the `jer_engines`
/// criterion bench regenerates the crossover.
pub const AUTO_CBA_THRESHOLD: usize = 64;

/// Relative error [`JerEngine::Auto`] allows itself against
/// [`JerEngine::DynamicProgramming`] wherever the DP tail is a normal
/// float.
pub const AUTO_RELATIVE_TOLERANCE: f64 = 1e-9;

/// The smallest CBA tail over `n` jurors that [`JerEngine::Auto`] keeps.
///
/// CBA's absolute error on a tail stays below `n·ε_mach` (measured at
/// about `0.005·n·ε_mach` up to 8,001 jurors), so a tail at least
/// `n·ε_mach / AUTO_RELATIVE_TOLERANCE` is within that relative error.
/// Below this floor `Auto` recomputes the tail with the sequential DP.
fn cba_trust_floor(n: usize) -> f64 {
    n as f64 * f64::EPSILON / AUTO_RELATIVE_TOLERANCE
}

/// Strategy for computing JER from individual error rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JerEngine {
    /// Exponential enumeration of all minority sets (validation only;
    /// panics above 25 jurors).
    Naive,
    /// Sequential pmf dynamic programming (`O(n²)`).
    DynamicProgramming,
    /// The paper's Algorithm 1: rolling two-vector tail recurrence
    /// (`O(n²)` time, two `O(n)` vectors, no pmf materialised).
    TailDp,
    /// Algorithm 2 — divide & conquer with FFT convolution
    /// (`O(n log n)`).
    ///
    /// The FFT merges leave an *absolute* error on every tail, up to
    /// about `n·ε_mach` over `n` jurors (around `1e-16` at `10³`). A true
    /// JER below that comes back as round-off noise: for 1,001 rates in
    /// `[0.1, 0.3)` this engine returns about `1e-16` where the exact
    /// value is about `1e-102`. Use [`JerEngine::Auto`] or the DP engines
    /// for small error rates.
    Convolution,
    /// Adaptive default: DP for small juries, CBA for large ones, and DP
    /// again whenever the CBA tail falls below CBA's error floor. Agrees
    /// with [`JerEngine::DynamicProgramming`] within
    /// [`AUTO_RELATIVE_TOLERANCE`] wherever the DP tail is a normal float.
    ///
    /// Below the floor (`n·ε_mach / 1e-9`, about `2e-4` at 1,000 jurors,
    /// which nearly every reliable large jury is under) a call costs the
    /// CBA pass *plus* the `O(n²)` DP. On a 2-vCPU x86-64 VM, with rates
    /// in `[0.1, 0.3)`, one call took 1.1 ms at 1,001 jurors and 0.18 s
    /// at 10⁴ (CBA alone: 0.38 ms and 12 ms); rates in `[0.35, 0.5)` took
    /// 0.51 s at 10⁴. Scans that evaluate every prefix with it
    /// ([`AltrStrategy::PaperRecompute`](crate::altr::AltrStrategy))
    /// become `O(n³)`: 3.8 s at 3,001 such jurors and 162 s at 10⁴
    /// (CBA alone: 1.1 s and 17 s, but its noise picked a jury whose
    /// true JER is not the smallest). [`JerEngine::Convolution`] keeps
    /// them `O(n² log n)` at the price of the absolute error noted there.
    #[default]
    Auto,
}

impl JerEngine {
    /// Majority threshold for a jury of size `n`: integer `(n+1)/2`.
    ///
    /// The paper only defines JER for odd `n`, where this equals the
    /// strict-majority count. Raw slices of even length are still accepted
    /// (useful mid-scan in solvers); there the value is `n/2`, the count
    /// at which a voting can no longer reach a correct strict majority.
    #[inline]
    pub fn majority_threshold(n: usize) -> usize {
        n.div_ceil(2)
    }

    /// Computes `JER = Pr(C ≥ (n+1)/2)` for the given error rates.
    ///
    /// # Panics
    /// Panics if any rate is outside `[0, 1]`, or (for `Naive`) if there
    /// are more than 25 jurors.
    pub fn jer(self, eps: &[f64]) -> f64 {
        self.tail(eps, Self::majority_threshold(eps.len()))
    }

    /// Computes the general tail `Pr(C ≥ threshold)` — JER is the
    /// `threshold = (n+1)/2` case.
    pub fn tail(self, eps: &[f64], threshold: usize) -> f64 {
        self.tail_with(eps, threshold, &mut JerScratch::new())
    }

    /// The workspace form of [`JerEngine::jer`]: bit-identical results,
    /// with the DP pmf / rolling tail vectors reused from `scratch` so a
    /// solver scan or a batched service evaluates JERs without heap
    /// allocation (the CBA recursion above [`CBA_BASE_CASE`] jurors still
    /// allocates its merge tree; `Naive` is validation-only).
    pub fn jer_with(self, eps: &[f64], scratch: &mut JerScratch) -> f64 {
        self.tail_with(eps, Self::majority_threshold(eps.len()), scratch)
    }

    /// The workspace form of [`JerEngine::tail`].
    pub fn tail_with(self, eps: &[f64], threshold: usize, scratch: &mut JerScratch) -> f64 {
        match self {
            JerEngine::Naive => PoiBin::from_error_rates_naive(eps).tail(threshold),
            JerEngine::DynamicProgramming => {
                scratch.pmf.assign_error_rates_dp(eps);
                scratch.pmf.tail(threshold)
            }
            JerEngine::TailDp => tail_probability_dp_with(eps, threshold, &mut scratch.tail),
            JerEngine::Convolution => {
                // CBA bottoms out into the sequential DP below its base
                // case, so the short-input result is bit-identical while
                // staying allocation-free.
                if eps.len() <= CBA_BASE_CASE {
                    scratch.pmf.assign_error_rates_dp(eps);
                    scratch.pmf.tail(threshold)
                } else {
                    PoiBin::from_error_rates_cba(eps).tail(threshold)
                }
            }
            JerEngine::Auto => {
                if eps.len() >= AUTO_CBA_THRESHOLD {
                    let tail = PoiBin::from_error_rates_cba(eps).tail(threshold);
                    if tail >= cba_trust_floor(eps.len()) {
                        return tail;
                    }
                }
                scratch.pmf.assign_error_rates_dp(eps);
                scratch.pmf.tail(threshold)
            }
        }
    }

    /// Materialises the carelessness distribution (not available for
    /// `TailDp`, which never forms the pmf — `Auto` is substituted).
    pub fn distribution(self, eps: &[f64]) -> PoiBin {
        match self {
            JerEngine::Naive => PoiBin::from_error_rates_naive(eps),
            JerEngine::DynamicProgramming => PoiBin::from_error_rates_dp(eps),
            JerEngine::Convolution => PoiBin::from_error_rates_cba(eps),
            JerEngine::TailDp | JerEngine::Auto => PoiBin::from_error_rates(eps),
        }
    }
}

/// The Lemma-2 Paley–Zygmund lower bound on JER, with the majority
/// threshold `(n+1)/2` pre-applied. Returns `None` when the bound's
/// precondition `γ = ((n+1)/2)/μ ∈ (0,1)` fails — AltrALG then computes
/// the exact JER, as Algorithm 3 does.
pub fn jer_lower_bound(eps: &[f64]) -> Option<f64> {
    let threshold = JerEngine::majority_threshold(eps.len());
    match paley_zygmund_lower_bound(eps, threshold) {
        TailBound::Value(v) => Some(v),
        TailBound::Inapplicable => None,
    }
}

/// The Lemma-2 γ for a candidate jury: `((n+1)/2) / Σε`. Algorithm 3
/// checks `γ < 1` before attempting the bound.
pub fn jer_gamma(eps: &[f64]) -> f64 {
    paley_zygmund_gamma(eps, JerEngine::majority_threshold(eps.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINES: [JerEngine; 5] = [
        JerEngine::Naive,
        JerEngine::DynamicProgramming,
        JerEngine::TailDp,
        JerEngine::Convolution,
        JerEngine::Auto,
    ];

    #[test]
    fn majority_threshold_matches_paper() {
        assert_eq!(JerEngine::majority_threshold(1), 1);
        assert_eq!(JerEngine::majority_threshold(3), 2);
        assert_eq!(JerEngine::majority_threshold(5), 3);
        assert_eq!(JerEngine::majority_threshold(7), 4);
    }

    #[test]
    fn all_engines_agree_on_motivating_example() {
        let eps = [0.2, 0.3, 0.3];
        for engine in ENGINES {
            assert!((engine.jer(&eps) - 0.174).abs() < 1e-12, "{engine:?} disagreed");
        }
    }

    #[test]
    fn all_engines_agree_on_table2() {
        let cases: [(&[f64], f64); 4] = [
            (&[0.1, 0.2, 0.2], 0.072),
            (&[0.1, 0.2, 0.2, 0.3, 0.3], 0.07036),
            (&[0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4], 0.085248),
            (&[0.1, 0.2, 0.2, 0.4, 0.4], 0.10384),
        ];
        for (eps, expected) in cases {
            for engine in ENGINES {
                assert!(
                    (engine.jer(eps) - expected).abs() < 1e-12,
                    "{engine:?} on {eps:?}: {} vs {expected}",
                    engine.jer(eps)
                );
            }
        }
    }

    #[test]
    fn fast_engines_agree_on_large_jury() {
        let eps: Vec<f64> = (0..501).map(|i| 0.01 + (i % 80) as f64 / 100.0).collect();
        let reference = JerEngine::DynamicProgramming.jer(&eps);
        for engine in [JerEngine::TailDp, JerEngine::Convolution, JerEngine::Auto] {
            assert!(
                (engine.jer(&eps) - reference).abs() < 1e-9,
                "{engine:?}: {} vs {reference}",
                engine.jer(&eps)
            );
        }
    }

    #[test]
    fn singleton_jer_is_error_rate() {
        for engine in ENGINES {
            assert!((engine.jer(&[0.37]) - 0.37).abs() < 1e-15);
        }
    }

    #[test]
    fn general_tail_thresholds() {
        let eps = [0.5, 0.5, 0.5];
        for engine in ENGINES {
            assert!((engine.tail(&eps, 0) - 1.0).abs() < 1e-15);
            assert!((engine.tail(&eps, 3) - 0.125).abs() < 1e-12);
            assert_eq!(engine.tail(&eps, 4), 0.0);
        }
    }

    #[test]
    fn distribution_is_consistent_with_jer() {
        let eps = [0.1, 0.4, 0.25, 0.6, 0.33];
        for engine in ENGINES {
            let d = engine.distribution(&eps);
            assert!((d.tail(3) - engine.jer(&eps)).abs() < 1e-12);
        }
    }

    #[test]
    fn lower_bound_is_sound_and_gated() {
        // Reliable jury: γ > 1, bound unavailable.
        assert!(jer_lower_bound(&[0.1; 9]).is_none());
        assert!(jer_gamma(&[0.1; 9]) > 1.0);
        // Error-prone jury: bound available and below the exact JER.
        let eps = vec![0.85; 9];
        let lb = jer_lower_bound(&eps).expect("γ < 1");
        let exact = JerEngine::Auto.jer(&eps);
        assert!(lb <= exact + 1e-12, "{lb} > {exact}");
        assert!(jer_gamma(&eps) < 1.0);
    }

    #[test]
    fn auto_falls_back_below_the_cba_error_floor() {
        // A reliable jury: the true JER is about 1e-22, far below what
        // CBA resolves, so Auto must return the DP's bits.
        let eps: Vec<f64> = (0..201).map(|i| 0.1 + 0.2 * ((i * 37) % 100) as f64 / 100.0).collect();
        let dp = JerEngine::DynamicProgramming.jer(&eps);
        assert!(dp < cba_trust_floor(eps.len()));
        assert_eq!(JerEngine::Auto.jer(&eps).to_bits(), dp.to_bits());
        // A coin-flip jury keeps the CBA tail.
        let coin = vec![0.5; 201];
        assert_eq!(JerEngine::Auto.jer(&coin), JerEngine::Convolution.jer(&coin));
    }

    #[test]
    fn default_engine_is_auto() {
        assert_eq!(JerEngine::default(), JerEngine::Auto);
    }

    #[test]
    fn scratch_form_is_bit_identical_for_every_engine() {
        let mut scratch = JerScratch::new();
        let long: Vec<f64> = (0..90).map(|i| 0.05 + ((i * 7) % 80) as f64 / 100.0).collect();
        for eps in [&[0.37][..], &[0.1, 0.2, 0.2, 0.3, 0.3][..], &long[..17], &long] {
            for engine in ENGINES {
                if engine == JerEngine::Naive && eps.len() > 25 {
                    continue;
                }
                // Repeated use of one scratch across engines and sizes
                // must not perturb results.
                assert_eq!(engine.jer_with(eps, &mut scratch), engine.jer(eps), "{engine:?}");
                assert_eq!(
                    engine.tail_with(eps, 1, &mut scratch),
                    engine.tail(eps, 1),
                    "{engine:?}"
                );
            }
        }
    }
}
