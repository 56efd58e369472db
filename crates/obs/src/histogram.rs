//! A fixed-size power-of-two histogram for hot-path recording.

use qap_types::{Reader, TypeError, TypeResult, Wire, Writer};

/// Bucket count of [`Histogram`]: buckets `0..=15` hold values in
/// `(2^(i-1), 2^i]` (bucket 0 holds `0..=1`), bucket 16 is the
/// overflow (`> 32768`).
pub const HISTOGRAM_BUCKETS: usize = 17;

/// A power-of-two bucketed histogram of unsigned samples.
///
/// Recording is branch-light and allocation-free — one `leading_zeros`,
/// three adds and a max — cheap enough to sit on a per-batch (not
/// per-tuple) hot path. Buckets use upper-inclusive power-of-two
/// bounds, the layout Prometheus `le` buckets expect.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index of a value: 0 for `0..=1`, otherwise the bit length
    /// of `v - 1` (so bucket `i` holds `(2^(i-1), 2^i]`), clamped to
    /// the overflow bucket.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            ((64 - (v - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Upper (inclusive) bound of bucket `i`; the last bucket is
    /// unbounded and reports `u64::MAX`.
    pub fn bucket_bound(i: usize) -> u64 {
        if i + 1 >= HISTOGRAM_BUCKETS {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts, in bound order.
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// The bucket counts, the sum and the max; the sample count is the
/// bucket total (every [`Histogram::record`] increments exactly one
/// bucket), so a snapshot shipped across a process boundary
/// reconstructs exactly.
impl Wire for Histogram {
    const MIN_LEN: usize = 8 * (HISTOGRAM_BUCKETS + 2);
    fn put(&self, w: &mut Writer) {
        self.counts.put(w);
        w.u64(self.sum);
        w.u64(self.max);
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        let counts = <[u64; HISTOGRAM_BUCKETS]>::get(r)?;
        let (sum, max) = (r.u64()?, r.u64()?);
        let count = counts.iter().try_fold(0u64, |n, &c| n.checked_add(c));
        Ok(Histogram {
            counts,
            count: count.ok_or(TypeError::Corrupt("histogram bucket counts overflow"))?,
            sum,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_upper_inclusive_powers_of_two() {
        // (value, expected bucket)
        for (v, b) in [
            (0u64, 0usize),
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (1024, 10),
            (1025, 11),
            (32768, 15),
            (32769, 16),
            (u64::MAX, 16),
        ] {
            assert_eq!(Histogram::bucket_of(v), b, "value {v}");
            assert!(v <= Histogram::bucket_bound(b), "value {v} bucket {b}");
            if b > 0 && b < HISTOGRAM_BUCKETS - 1 {
                assert!(v > Histogram::bucket_bound(b - 1), "value {v} bucket {b}");
            }
        }
    }

    #[test]
    fn record_and_merge_accumulate() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 64, 1024, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 1 + 64 + 1024 + 100_000);
        assert_eq!(h.max(), 100_000);
        assert!((h.mean() - (h.sum() as f64 / 5.0)).abs() < 1e-12);
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[6], 1);
        assert_eq!(h.bucket_counts()[10], 1);
        assert_eq!(h.bucket_counts()[16], 1);

        let mut other = Histogram::new();
        other.record(2);
        other.merge(&h);
        assert_eq!(other.count(), 6);
        assert_eq!(other.max(), 100_000);
        assert_eq!(other.bucket_counts()[1], 1);
    }
}
