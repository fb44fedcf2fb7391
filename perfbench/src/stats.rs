//! Order statistics over nanosecond samples.

/// Nearest-rank quantile `q` of `sorted` (ascending); 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, 0.5)
}

/// Median of unsorted `f64` samples (NaN-free); 0 when empty.
pub fn median_f64(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The fastest of repeated one-shot timings. On a shared host most
/// repeats are slowed by other guests (or by `fsync` for checkpoints) by
/// varying amounts; the fastest tracks the cost of the work itself, and
/// is steadier from run to run than a median of the repeats.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sub-buckets per power of two: a bucket spans at most 1/256 of the
/// values in it.
const SUB_BITS: u32 = 8;

/// A log-linear histogram of nanosecond latencies. Its memory does not
/// grow with the number of samples, so a faster server does not make
/// the benchmark's own resident memory larger.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: vec![0; ((64 - SUB_BITS as usize) + 1) << SUB_BITS], total: 0, max: 0 }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (v >> shift) as usize - (1 << SUB_BITS);
        (((shift + 1) as usize) << SUB_BITS) + sub
    }

    /// Lowest value of bucket `i`, and the bucket's width.
    fn bounds(i: usize) -> (u64, u64) {
        let block = i >> SUB_BITS;
        if block == 0 {
            return (i as u64, 1);
        }
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
        let shift = (block - 1) as u32;
        (((1 << SUB_BITS) + sub) << shift, 1 << shift)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            if b > 0 {
                *a += b;
            }
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank quantile `q`, placed within its bucket by the rank's
    /// position among the bucket's samples; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && before + c >= rank {
                let (low, width) = Self::bounds(i);
                let within = (rank - before) as f64 - 0.5;
                return low as f64 + width as f64 * within / c as f64;
            }
            before += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(best(&[9.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn histogram_buckets_round_trip_and_quantiles_stay_close() {
        for v in [0u64, 1, 255, 256, 257, 1_000, 65_432, 123_456_789, u64::MAX / 3] {
            let (low, width) = Histogram::bounds(Histogram::index(v));
            assert!(low <= v && v < low + width, "{v} outside [{low}, {})", low + width);
            assert!(width == 1 || (width as f64) <= low as f64 / 255.0);
        }
        let mut h = Histogram::default();
        let samples: Vec<u64> = (1..=10_000u64).map(|i| 50_000 + i * 17).collect();
        for &v in &samples {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for q in [0.5, 0.99] {
            let exact = quantile(&samples, q) as f64;
            assert!((h.quantile(q) - exact).abs() / exact < 1.0 / 256.0, "q={q}");
        }
    }
}
