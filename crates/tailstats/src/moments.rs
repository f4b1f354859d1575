//! Streaming mean and variance (Welford's algorithm).

/// Numerically stable running moments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feed one observation.
    pub fn observe(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 with no data).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` with no data).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` with no data).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_two_pass_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = Moments::new();
        for &x in &data {
            m.observe(x);
        }
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
        assert_eq!(m.count(), 8);
    }

    #[test]
    fn empty_and_single() {
        let mut m = Moments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        m.observe(3.0);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let mut whole = Moments::new();
        for &x in &data {
            whole.observe(x);
        }
        let mut a = Moments::new();
        let mut b = Moments::new();
        for &x in &data[..37] {
            a.observe(x);
        }
        for &x in &data[37..] {
            b.observe(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Moments::new();
        a.observe(1.0);
        a.observe(2.0);
        let before = (a.mean(), a.variance(), a.count());
        a.merge(&Moments::new());
        assert_eq!((a.mean(), a.variance(), a.count()), before);

        let mut empty = Moments::new();
        let mut b = Moments::new();
        b.observe(5.0);
        empty.merge(&b);
        assert_eq!(empty.mean(), 5.0);
        assert_eq!(empty.count(), 1);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Catastrophic cancellation check: large mean, small variance.
        let mut m = Moments::new();
        for i in 0..1000 {
            m.observe(1e9 + f64::from(i % 2));
        }
        assert!((m.variance() - 0.2502502502502503).abs() < 1e-6);
    }
}
