//! Order statistics over latency samples.

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending): the value
/// at rank `ceil(p/100 · n)`. `None` when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(sorted[rank - 1])
}

/// The highest percentile, at most p99, with at least [`TAIL_BEYOND`] of
/// `n` samples beyond it.
///
/// Candidates are the whole percentiles 50..=99: a percentile qualifies
/// when `n − rank ≥ TAIL_BEYOND`. The step between candidates is small,
/// so a run that gathers a few more or fewer samples moves the chosen
/// percentile by one step, not from p90 to p75. Candidates stop at p99
/// because above it one scheduling stall of a shared host sets the value:
/// a stall delays every chunk in flight at once, up to 256 of them in
/// `station_ingest`, where p99.9 varied 0.6× its median across seeds.
/// When even p50 has fewer than ten samples beyond it, the answer is 100
/// (the maximum).
pub fn tail_percentile(n: usize) -> f64 {
    let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil().clamp(1.0, n.max(1) as f64) as usize;
    (50..=99)
        .rev()
        .map(f64::from)
        .find(|&p| n > TAIL_BEYOND && beyond(p) >= TAIL_BEYOND)
        .unwrap_or(100.0)
}

/// `(percentile, value)` of the tail of `sorted` (see [`tail_percentile`]).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(sorted.len());
    percentile(sorted, p).map(|v| (p, v))
}

/// Median of unsorted values (mean of the two middle values for even
/// counts, as Python's `statistics.median`).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Sort a sample vector ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 sits at rank 90, leaving exactly 10 beyond;
        // p91 would leave 9.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves 10 beyond.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // Larger runs stay at p99.
        assert_eq!(tail(&ramp(10_000)), Some((99.0, 9900.0)));
        // 99 samples: p89 (rank ceil(88.11) = 89) leaves 10; p90 (rank
        // ceil(89.1) = 90) would leave 9.
        assert_eq!(tail(&ramp(99)), Some((89.0, 89.0)));
        for n in [20usize, 57, 99, 100, 101, 250, 999, 1000, 4321] {
            let (p, v) = tail(&ramp(n)).unwrap();
            let rank = v as usize;
            assert!(n - rank >= TAIL_BEYOND, "n={n}: p{p} leaves {}", n - rank);
        }
    }

    #[test]
    fn tail_falls_back_to_max_below_twenty_samples() {
        // Below 20 samples not even p50 has ten beyond it.
        assert_eq!(tail(&ramp(19)), Some((100.0, 19.0)));
        assert_eq!(tail(&ramp(10)), Some((100.0, 10.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
