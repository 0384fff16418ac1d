//! Summary statistics for the benchmark's samples.

use std::time::Duration;

/// The percentiles the benchmark may report as a tail, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count. `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank position (1-based) of the `q`-th percentile among `n`
/// samples: the smallest rank with at least `q` percent of the samples at
/// or below it.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    let exact = q * n as f64 / 100.0;
    // Guard against `99% of 100` computing to a hair above 99.0.
    let rank = (exact - exact.abs() * 1e-12).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] whose nearest-rank sample
/// leaves at least [`MIN_BEYOND`] samples beyond it, for `n` samples.
/// `None` when even the median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n.saturating_sub(nearest_rank(q, n)) >= MIN_BEYOND)
}

/// The `q`-th percentile of `samples` by the nearest-rank method.
/// `None` when `samples` is empty.
pub fn percentile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(sorted[nearest_rank(q, sorted.len()) - 1])
}

/// Segments [`segment_walls`] cuts a deterministic repetition into.
pub const SEGMENTS: usize = 100;

/// Cuts one repetition into at most `segments` runs of consecutive query
/// completions, of equal length but for the last, and returns the wall
/// time of each. `completed_at[i]` is the wall time from the start of the
/// repetition to the completion of its `i`-th query; the first segment
/// starts at the start of the repetition. Empty when no query completed or
/// `segments` is 0.
pub fn segment_walls(completed_at: &[Duration], segments: usize) -> Vec<Duration> {
    if segments == 0 {
        return Vec::new();
    }
    let per_segment = completed_at.len().div_ceil(segments).max(1);
    let mut previous = Duration::ZERO;
    completed_at
        .chunks(per_segment)
        .map(|chunk| {
            let end = chunk[chunk.len() - 1];
            let wall = end.saturating_sub(previous);
            previous = end;
            wall
        })
        .collect()
}

/// The sum over segments of each segment's median over repetitions:
/// `reps[r][s]` is the time repetition `r` took for segment `s` (see
/// [`segment_walls`]). Only a workload that repeats identical work segment
/// by segment may be cut into more than one segment.
///
/// `None` when `reps` is empty, a repetition has no segment, or the
/// repetitions have different numbers of segments.
pub fn segment_medians(reps: &[Vec<f64>]) -> Option<f64> {
    let segments = reps.first()?.len();
    if segments == 0 || reps.iter().any(|r| r.len() != segments) {
        return None;
    }
    (0..segments)
        .map(|s| median(&reps.iter().map(|r| r[s]).collect::<Vec<_>>()))
        .sum()
}
