//! Random samplers for heavy-tailed traffic modelling.
//!
//! Implemented in-repo (rather than pulling `rand_distr`) because the set
//! needed is small and the discrete, bounded variants used for traffic
//! counts are not stock: counts must be integer, non-negative, and capped
//! so a single sample cannot exceed physical plausibility.

use rand::Rng;

/// Sample a standard normal via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 exactly (log(0)).
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::EPSILON {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample a Pareto(xm, alpha) — continuous, support `[xm, ∞)`.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, xm: f64, alpha: f64) -> f64 {
    debug_assert!(xm > 0.0 && alpha > 0.0);
    let u: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::EPSILON {
            break u;
        }
    };
    xm * u.powf(-1.0 / alpha)
}

/// Discrete bounded Pareto: `floor(pareto(xm, alpha)).min(cap)` as u64.
pub fn pareto_discrete<R: Rng + ?Sized>(rng: &mut R, xm: f64, alpha: f64, cap: u64) -> u64 {
    (pareto(rng, xm, alpha).floor() as u64).min(cap)
}

/// Sample a Poisson(lambda) count.
///
/// Uses Knuth's product method for small `lambda` and a normal
/// approximation (continuity-corrected, clamped at 0) above 30, which is
/// plenty accurate for per-window traffic counts.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product: f64 = rng.random();
        let mut count = 0u64;
        while product > limit {
            product *= rng.random::<f64>();
            count += 1;
        }
        count
    } else {
        let x = lambda + lambda.sqrt() * standard_normal(rng) + 0.5;
        if x < 0.0 {
            0
        } else {
            x.floor() as u64
        }
    }
}

/// Sample a Binomial(n, p) count.
///
/// Direct Bernoulli summation for small `n`, normal approximation beyond.
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let p = p.clamp(0.0, 1.0);
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    if n <= 64 {
        let mut k = 0u64;
        for _ in 0..n {
            if rng.random::<f64>() < p {
                k += 1;
            }
        }
        k
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let x = mean + sd * standard_normal(rng) + 0.5;
        x.clamp(0.0, n as f64).floor() as u64
    }
}

/// Exact Poisson quantile: smallest `k` with `CDF(k) >= q`, capped at
/// 100 000.
///
/// Up to λ = 700 the terms come from the product recurrence
/// `p_k = p_{k-1}·λ/k` starting at `e^{-λ}`. Above that `e^{-λ}` is
/// subnormal or zero, so the terms are carried as logarithms instead,
/// where nothing can underflow; a term that is too small to add to the
/// CDF simply contributes zero.
pub fn poisson_quantile(lambda: f64, q: f64) -> u64 {
    const CAP: u64 = 100_000;
    if lambda <= 0.0 {
        return 0;
    }
    let mut k = 0u64;
    if lambda <= 700.0 {
        let mut p = (-lambda).exp();
        let mut cdf = p;
        while cdf < q && k < CAP {
            k += 1;
            p *= lambda / k as f64;
            cdf += p;
        }
    } else {
        let mut ln_p = -lambda;
        let mut cdf = ln_p.exp();
        while cdf < q && k < CAP {
            k += 1;
            ln_p += (lambda / k as f64).ln();
            cdf += ln_p.exp();
        }
    }
    k
}

/// The integer form of a Bernoulli(`p`) trial on one draw `x`:
/// `random::<f64>() < p` is exactly `(x >> 11) < bernoulli_threshold(p)`.
///
/// `random::<f64>()` is `(x >> 11)·2⁻⁵³`, and scaling by a power of two
/// is exact, so `m·2⁻⁵³ < p ⇔ m < p·2⁵³ ⇔ m < ⌈p·2⁵³⌉` for the integer
/// `m = x >> 11`. A NaN or non-positive `p` never fires (threshold 0);
/// `p ≥ 1` always does (threshold 2⁵³, above every `m`).
pub(crate) fn bernoulli_threshold(p: f64) -> u64 {
    const ONE: u64 = 1 << 53;
    if p.is_nan() || p <= 0.0 {
        0
    } else if p >= 1.0 {
        ONE
    } else {
        (p * ONE as f64).ceil() as u64
    }
}

/// Sample an Exponential(rate) waiting time.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::EPSILON {
            break u;
        }
    };
    -u.ln() / rate
}

/// A Zipf sampler over ranks `1..=n` with exponent `s`.
///
/// Uses an exact precomputed CDF with inverse-transform sampling (binary
/// search): O(n) memory once, O(log n) per sample, no approximation — the
/// destination-popularity supports used by the generator are small enough
/// that exactness beats the fiddliness of rejection methods.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create a sampler over `{1, .., n}` with exponent `s > 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s <= 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty support");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Draw one rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        let idx = self.cdf.partition_point(|&c| c < u);
        (idx.min(self.cdf.len() - 1) + 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn pareto_support_and_tail() {
        let mut r = rng();
        let samples: Vec<f64> = (0..50_000).map(|_| pareto(&mut r, 2.0, 1.5)).collect();
        assert!(samples.iter().all(|&x| x >= 2.0));
        // P(X > 2 * 2^(1/1.5) * ...) — check survival at x: (xm/x)^alpha.
        let x0 = 8.0;
        let frac = samples.iter().filter(|&&x| x > x0).count() as f64 / samples.len() as f64;
        let expect = (2.0f64 / x0).powf(1.5);
        assert!((frac - expect).abs() < 0.01, "frac {frac} expect {expect}");
    }

    #[test]
    fn pareto_discrete_capped() {
        let mut r = rng();
        for _ in 0..10_000 {
            let x = pareto_discrete(&mut r, 1.0, 0.5, 100);
            assert!(x <= 100);
            assert!(x >= 1);
        }
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let mut r = rng();
        let n = 100_000;
        let lambda = 3.5;
        let sum: u64 = (0..n).map(|_| poisson(&mut r, lambda)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let mut r = rng();
        let n = 50_000;
        let lambda = 500.0;
        let samples: Vec<u64> = (0..n).map(|_| poisson(&mut r, lambda)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 2.0, "mean {mean}");
        assert!((var - lambda).abs() / lambda < 0.1, "var {var}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -1.0), 0);
    }

    #[test]
    fn binomial_moments_both_paths() {
        let mut r = rng();
        for &(n, p) in &[(20u64, 0.3), (500u64, 0.1)] {
            let trials = 50_000;
            let mean = (0..trials).map(|_| binomial(&mut r, n, p)).sum::<u64>() as f64
                / trials as f64;
            let expect = n as f64 * p;
            assert!(
                (mean - expect).abs() / expect < 0.03,
                "n={n} p={p} mean {mean}"
            );
        }
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng();
        assert_eq!(binomial(&mut r, 0, 0.5), 0);
        assert_eq!(binomial(&mut r, 10, 0.0), 0);
        assert_eq!(binomial(&mut r, 10, 1.0), 10);
        assert!(binomial(&mut r, 1000, 0.999) <= 1000);
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| exponential(&mut r, 0.25)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut r = rng();
        let z = Zipf::new(1000, 1.2);
        let n = 50_000;
        let mut rank1 = 0usize;
        for _ in 0..n {
            let k = z.sample(&mut r);
            assert!((1..=1000).contains(&k));
            if k == 1 {
                rank1 += 1;
            }
        }
        let frac = rank1 as f64 / n as f64;
        // For s=1.2, N=1000: p(1) = 1/H ~ 0.27.
        assert!(frac > 0.2 && frac < 0.35, "frac {frac}");
    }

    #[test]
    fn zipf_exponent_one_works() {
        let mut r = rng();
        let z = Zipf::new(100, 1.0);
        for _ in 0..10_000 {
            let k = z.sample(&mut r);
            assert!((1..=100).contains(&k));
        }
    }

    /// `poisson_quantile` as it was before the log-space branch.
    fn poisson_quantile_product(lambda: f64, q: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        let mut p = (-lambda).exp();
        let mut cdf = p;
        let mut k = 0u64;
        while cdf < q && k < 100_000 {
            k += 1;
            p *= lambda / k as f64;
            cdf += p;
        }
        k
    }

    /// Reference Poisson quantile that never forms `e^{-λ}`: terms are
    /// taken relative to the mode by ratio recurrences in both directions
    /// (all of them normal floats within ±40σ), summed in extended
    /// precision by compensated summation, and normalised by their total.
    fn poisson_quantile_reference(lambda: f64, q: f64) -> u64 {
        let mode = lambda.floor() as u64;
        let span = (40.0 * lambda.sqrt()).ceil() as u64;
        let lo = mode.saturating_sub(span);
        let hi = mode + span;
        let mut rel = vec![0.0f64; (hi - lo + 1) as usize];
        rel[(mode - lo) as usize] = 1.0;
        for k in (lo..mode).rev() {
            // p_k = p_{k+1}·(k+1)/λ
            rel[(k - lo) as usize] = rel[(k + 1 - lo) as usize] * (k + 1) as f64 / lambda;
        }
        for k in mode + 1..=hi {
            rel[(k - lo) as usize] = rel[(k - 1 - lo) as usize] * lambda / k as f64;
        }
        // Running compensated (Kahan) sums: `prefix[i]` = Σ rel[..=i].
        let mut prefix = Vec::with_capacity(rel.len());
        let (mut sum, mut c) = (0.0f64, 0.0f64);
        for &x in &rel {
            let y = x - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
            prefix.push(sum);
        }
        let k = prefix
            .iter()
            .position(|&s| s / sum >= q)
            .unwrap_or(rel.len() - 1);
        lo + k as u64
    }

    #[test]
    fn poisson_quantile_large_lambda_matches_reference() {
        for &lambda in &[744.0, 746.0, 800.0, 5000.0] {
            // (q, its standard normal quantile z)
            for &(q, z) in &[(0.5, 0.0), (0.97, 1.8808), (0.999, 3.0902)] {
                let got = poisson_quantile(lambda, q);
                assert_eq!(
                    got,
                    poisson_quantile_reference(lambda, q),
                    "λ={lambda} q={q}"
                );
                // Normal approximation sanity: within a few units of it.
                let approx = lambda + z * lambda.sqrt();
                assert!((got as f64 - approx).abs() < 4.0, "λ={lambda} q={q}: {got}");
            }
        }
        // The product loop this replaces above λ = 700.
        assert_eq!(poisson_quantile_product(744.0, 0.97), 763);
        assert_eq!(poisson_quantile_product(746.0, 0.97), 100_000);
    }

    #[test]
    fn poisson_quantile_unchanged_up_to_700() {
        let mut lambda = 0.0f64;
        while lambda <= 700.0 {
            for &q in &[0.01, 0.5, 0.9, 0.97, 0.99, 0.999_999] {
                assert_eq!(
                    poisson_quantile(lambda, q),
                    poisson_quantile_product(lambda, q),
                    "λ={lambda} q={q}"
                );
            }
            lambda += 0.37;
        }
        for &lambda in &[699.9, 700.0] {
            assert_eq!(
                poisson_quantile(lambda, 0.97),
                poisson_quantile_product(lambda, 0.97)
            );
        }
    }

    #[test]
    fn bernoulli_threshold_is_the_float_compare() {
        fn via_float(m: u64, p: f64) -> bool {
            (m as f64) * (1.0 / (1u64 << 53) as f64) < p
        }
        let mut ps = vec![0.0, -0.5, 1.0, 1.5, f64::NAN, f64::INFINITY, 2f64.powi(-60)];
        for e in 1..=53 {
            let p = 2f64.powi(-e);
            ps.extend([
                p,
                p.next_up(),
                p.next_down(),
                3.0 * p,
                (3.0 * p).next_down(),
            ]);
        }
        ps.extend([0.03, 0.5, 0.7 * 0.35, 1f64.next_down(), f64::MIN_POSITIVE]);
        for &p in &ps {
            let t = bernoulli_threshold(p);
            // Probe the boundary: the compare flips exactly at t.
            let probes = [0, 1, 2, t.saturating_sub(1), t, t + 1, (1 << 53) - 1];
            for &m in &probes {
                let m = m.min((1 << 53) - 1);
                assert_eq!(m < t, via_float(m, p), "p={p:e} m={m} t={t}");
            }
        }
        assert_eq!(bernoulli_threshold(2f64.powi(-60)), 1);
        assert_eq!(bernoulli_threshold(0.5), 1 << 52);
        assert_eq!(bernoulli_threshold(0.5f64.next_up()), (1 << 52) + 1);
        assert_eq!(bernoulli_threshold(0.5f64.next_down()), 1 << 52);
    }

    #[test]
    fn samplers_deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(poisson(&mut a, 5.0), poisson(&mut b, 5.0));
        }
    }
}
