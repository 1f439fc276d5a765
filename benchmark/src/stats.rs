//! Order statistics used for every reported number.
//!
//! All functions take unsorted input and never panic on empty input
//! (they return 0.0), so a workload that recorded nothing reports zeros
//! instead of aborting the run.

/// Sorts a sample in place (NaNs last) and returns it.
fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The median: middle element, or the mean of the two middle elements.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in (0, 100]): the smallest sample such
/// that at least `p` percent of the samples are ≤ it. No interpolation,
/// so the result is always a value that was actually measured.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values.to_vec());
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentile `op_tail_us` reports for passes of `n` operations: p95,
/// or p90 when p95 would leave fewer than ten samples beyond it. A sample
/// of thousands supports p99 too, but on a small shared VM the top
/// percent of latencies belongs to the host's scheduler: over ten runs the
/// daemon's p99 spread 10–25 % where its p95 spread 3 %. p99 is still
/// measured, and reported per layer under the `*_p99_us` names.
pub fn tail_percentile_for(n: usize) -> f64 {
    if n >= 200 {
        95.0
    } else {
        90.0
    }
}
