//! The benchmark's one statistics implementation: minimum, median,
//! nearest-rank percentiles and the fast end over a pool of
//! measurements within a run.
//! The spread across runs is left to `spread.py`, which uses Python's
//! `statistics.quantiles`, the method the acceptance check uses.

/// Fewest measurements that must lie beyond a tail percentile before it
/// is reported, and below the fast end: a p99 over fewer than 1000
/// values would rest on fewer than ten of them.
pub const MIN_BEYOND_TAIL: usize = 10;

/// An immutable, sorted pool of measurements.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `values` into a pool. NaNs sort last and never come from a
    /// timer, so they are not filtered.
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    /// The measurements, in ascending order.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sum of all measurements.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// The smallest measurement; 0 for an empty pool.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// The median: the middle value, or the mean of the two middle
    /// values for an even count. 0 for an empty pool.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile, `p` in `(0, 1]`: the smallest value
    /// with at least `p` of the pool at or below it. 0 for an empty
    /// pool.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        self.sorted[rank(n, p) - 1]
    }

    /// The fast end: the nearest-rank 1st percentile, or, in a pool too
    /// small for [`MIN_BEYOND_TAIL`] measurements to lie below it, the
    /// measurement with that many below it; the largest of a smaller
    /// pool. 0 for an empty pool.
    pub fn fast_end(&self) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        self.sorted[rank(n, 0.01).max(MIN_BEYOND_TAIL + 1).min(n) - 1]
    }

    /// A tail percentile, reported only when at least
    /// [`MIN_BEYOND_TAIL`] measurements lie beyond its rank.
    pub fn tail(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0 && n - rank(n, p) >= MIN_BEYOND_TAIL).then(|| self.percentile(p))
    }
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        let d = Dist::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(d.median(), 3.0);
        assert_eq!(d.percentile(0.5), 3.0);
        assert_eq!(d.percentile(0.2), 1.0);
        assert_eq!(d.percentile(1.0), 5.0);
        assert_eq!(Dist::new(vec![1.0, 2.0, 3.0, 4.0]).median(), 2.5);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let d = Dist::new((1..=999).map(f64::from).collect());
        assert_eq!(d.tail(0.99), None, "999 values leave 9 beyond p99");
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.tail(0.99), Some(990.0));
        assert_eq!(d.tail(0.5), Some(500.0));
    }

    #[test]
    fn fast_end_has_ten_below() {
        let d = Dist::new((1..=2000).map(f64::from).collect());
        assert_eq!(d.fast_end(), 20.0, "the p1 of 2000 values");
        let d = Dist::new((1..=200).map(f64::from).collect());
        assert_eq!(d.fast_end(), 11.0, "the p1 of 200 values has one below");
        assert_eq!(Dist::new(vec![3.0, 1.0, 2.0]).fast_end(), 3.0);
    }
}
