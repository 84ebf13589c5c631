//! Percentile and segment arithmetic.
//!
//! A timed loop's samples are cut into [`SEGMENTS`](crate::spec::SEGMENTS)
//! equal consecutive segments by op count and a statistic (a p50, a rate)
//! is taken of each. A metric's value is the **median of its segment
//! values** ([`Summary::of`]), so that a cost which appears only as a run
//! ages (memory, WAL or pool growth, periodic stalls) moves it as much as
//! one that is there from the first batch. The smallest and largest
//! segment values are kept as the metric's spread.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] of an unsorted slice.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median: the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A reported value with the spread of the per-segment values behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the per-segment values.
    pub value: f64,
    /// Smallest per-segment value.
    pub min: f64,
    /// Largest per-segment value.
    pub max: f64,
}

impl Summary {
    /// The same summary in another unit.
    pub fn scaled(self, factor: f64) -> Self {
        Summary {
            value: self.value * factor,
            min: self.min * factor,
            max: self.max * factor,
        }
    }

    /// A value measured once, with no spread.
    pub fn single(value: f64) -> Self {
        Summary {
            value,
            min: value,
            max: value,
        }
    }

    /// Median, minimum and maximum of `values`.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            value: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Bounds of `segments` equal consecutive segments over `len` samples;
/// a remainder that does not fill a segment is left off the end. Fewer
/// samples than segments yield one segment holding them all.
pub fn segment_bounds(len: usize, segments: usize) -> Vec<(usize, usize)> {
    let size = len / segments.max(1);
    if size == 0 {
        return vec![(0, len)];
    }
    (0..segments).map(|i| (i * size, (i + 1) * size)).collect()
}

/// `f` of each segment of `samples`, in order.
///
/// # Panics
/// Panics on an empty slice.
pub fn segment_values<T>(samples: &[T], segments: usize, f: impl Fn(&[T]) -> f64) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples to segment");
    segment_bounds(samples.len(), segments)
        .into_iter()
        .map(|(a, b)| f(&samples[a..b]))
        .collect()
}

/// The p50 of each segment of `samples`, summarised by [`Summary::of`]:
/// the form every per-layer timing takes.
///
/// # Panics
/// Panics on an empty slice.
pub fn p50_by_segment(samples: &[f64], segments: usize) -> Summary {
    let values = segment_values(samples, segments, |seg| percentile_of(seg, 50.0));
    Summary::of(&values)
}
