//! Golden-value regression tests for JER computation.
//!
//! These pin exact decimal values computed independently (by exhaustive
//! enumeration in an external script) for a battery of juries, so any
//! numerical drift in the engines — a changed summation order, an FFT
//! tweak, a new clamp — trips a test rather than silently skewing the
//! reproduced figures.

use jury_core::jer::JerEngine;

const ENGINES: [JerEngine; 4] =
    [JerEngine::DynamicProgramming, JerEngine::TailDp, JerEngine::Convolution, JerEngine::Auto];

fn assert_jer(eps: &[f64], expected: f64, tol: f64) {
    for engine in ENGINES {
        let got = engine.jer(eps);
        assert!((got - expected).abs() <= tol, "{engine:?} on {eps:?}: {got} vs {expected}");
    }
    if eps.len() <= 20 {
        let naive = JerEngine::Naive.jer(eps);
        assert!((naive - expected).abs() <= tol, "naive: {naive} vs {expected}");
    }
}

#[test]
fn paper_examples() {
    assert_jer(&[0.2, 0.3, 0.3], 0.174, 1e-12);
    assert_jer(&[0.1, 0.2, 0.2], 0.072, 1e-12);
    assert_jer(&[0.1, 0.2, 0.2, 0.3, 0.3], 0.07036, 1e-12);
    assert_jer(&[0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4], 0.085248, 1e-12);
    assert_jer(&[0.1, 0.2, 0.2, 0.4, 0.4], 0.10384, 1e-12);
}

#[test]
fn homogeneous_binomial_tails() {
    // Binomial(n, p) majority tails, computed in closed form.
    // n=3, p=0.5: C(3,2)/8 + C(3,3)/8 = 0.5
    assert_jer(&[0.5; 3], 0.5, 1e-12);
    // n=5, p=0.5: (10+5+1)/32 = 0.5
    assert_jer(&[0.5; 5], 0.5, 1e-12);
    // n=3, p=0.1: 3·0.01·0.9 + 0.001 = 0.028
    assert_jer(&[0.1; 3], 0.028, 1e-12);
    // n=5, p=0.2: Σ_{k≥3} C(5,k)·0.2^k·0.8^{5-k} = 0.05792
    assert_jer(&[0.2; 5], 0.05792, 1e-12);
    // n=7, p=0.3: Σ_{k≥4} C(7,k)·0.3^k·0.7^{7-k} = 0.126036
    assert_jer(&[0.3; 7], 0.126_036, 1e-12);
    // n=9, p=0.4: Σ_{k≥5} C(9,k)·0.4^k·0.6^{9-k} = 0.26656768
    assert_jer(&[0.4; 9], 0.266_567_68, 1e-12);
}

#[test]
fn inverted_condorcet_symmetry() {
    // Pr(majority wrong | p) = 1 − Pr(majority wrong | 1−p) for odd n.
    for n in [3usize, 5, 7, 11] {
        for p in [0.1, 0.25, 0.4] {
            let low = JerEngine::Auto.jer(&vec![p; n]);
            let high = JerEngine::Auto.jer(&vec![1.0 - p; n]);
            assert!((low + high - 1.0).abs() < 1e-12, "n={n} p={p}");
        }
    }
}

#[test]
fn single_juror_is_identity() {
    for e in [0.001, 0.123456789, 0.5, 0.987654321] {
        assert_jer(&[e], e, 1e-15);
    }
}

#[test]
fn mixed_pool_golden_values() {
    // Pr(C ≥ 2) expanded term by term over the four minority patterns
    // (each pair wrong, plus all three wrong).
    let eps = [0.05, 0.15, 0.25];
    let expected =
        0.05 * 0.15 * 0.75 + 0.05 * 0.85 * 0.25 + 0.95 * 0.15 * 0.25 + 0.05 * 0.15 * 0.25;
    assert_jer(&eps, expected, 1e-12);
}

#[test]
fn large_jury_engines_agree_to_high_precision() {
    // 999 jurors spanning the whole unit interval: the DP is the
    // reference; CBA (FFT) must agree to 1e-9 despite ~10 merge levels.
    let eps: Vec<f64> = (0..999).map(|i| 0.01 + 0.98 * (i as f64 / 998.0)).collect();
    let reference = JerEngine::DynamicProgramming.jer(&eps);
    for engine in [JerEngine::TailDp, JerEngine::Convolution] {
        let got = engine.jer(&eps);
        assert!((got - reference).abs() < 1e-9, "{engine:?}: {got} vs {reference}");
    }
    // The pool is symmetric around 0.5 (ε_i + ε_{n-1-i} = 1), so C and
    // n−C are equidistributed and the majority tail is exactly 1/2.
    assert!(
        (reference - 0.5).abs() < 1e-9,
        "symmetric pool must sit at exactly 0.5, got {reference}"
    );
}

#[test]
fn auto_matches_the_dp_on_reliable_large_juries() {
    // Rates in [0.1, 0.3): the true JER falls far below CBA's absolute
    // error floor (about 1e-16), where the FFT path alone returned noise
    // (2.4e-16 against 1.9e-102 at n = 1,001).
    for n in [801usize, 1_001, 2_001] {
        let eps: Vec<f64> =
            (0..n).map(|i| 0.1 + 0.2 * ((i * 7_919) % n) as f64 / n as f64).collect();
        let dp = JerEngine::DynamicProgramming.jer(&eps);
        assert!(dp.is_normal() && dp < 1e-60, "n={n}: the DP tail {dp:e} must be a tiny normal");
        let auto = JerEngine::Auto.jer(&eps);
        assert!(
            (auto - dp).abs() <= 1e-9 * dp,
            "n={n}: Auto {auto:e} vs DynamicProgramming {dp:e}"
        );
    }
}

#[test]
fn extreme_rates_remain_stable() {
    // Near-degenerate rates probe clamping and cancellation paths.
    let eps = [1e-9, 1e-9, 1.0 - 1e-9];
    // Majority (2 of 3) wrong requires the two good jurors failing or one
    // good + the bad one: ≈ Pr(bad wrong)·(Pr(g1)+Pr(g2)) + ... ≈ 2e-9.
    let jer = JerEngine::Auto.jer(&eps);
    assert!(jer > 0.0 && jer < 1e-8, "{jer}");

    let all_bad = [1.0 - 1e-9; 3];
    let j = JerEngine::Auto.jer(&all_bad);
    assert!(j > 1.0 - 1e-8);
}

#[test]
fn general_threshold_tails_match_closed_forms() {
    // Pr(C >= 1) = 1 − Π(1−ε): easy closed form across engines.
    let eps = [0.11, 0.37, 0.52, 0.08, 0.29];
    let expected = 1.0 - eps.iter().map(|e| 1.0 - e).product::<f64>();
    for engine in ENGINES {
        assert!((engine.tail(&eps, 1) - expected).abs() < 1e-12);
    }
    // Pr(C >= n) = Π ε.
    let all: f64 = eps.iter().product();
    for engine in ENGINES {
        assert!((engine.tail(&eps, eps.len()) - all).abs() < 1e-12);
    }
}
