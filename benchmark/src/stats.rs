//! Percentiles, medians and the windowed summary of a timed run.

/// Samples that must lie beyond a percentile before it is reported as
/// resolved (choosing-metrics §1): p99 needs 1 000 samples.
pub const MIN_BEYOND: usize = 10;

/// Windows a timed run is cut into. Each end-to-end timing is computed per
/// window and the median over windows reported. The host's noise comes in
/// dips of a few hundred milliseconds; with twenty windows in ten seconds
/// a dip spoils one or two of them and leaves the median alone.
pub const WINDOWS: usize = 20;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of all samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn resolved(n: usize, p: f64) -> bool {
    n - ((n as f64 * p).ceil() as usize).min(n) >= MIN_BEYOND
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median with the extremes beside it, the way repetitions are reported.
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    Spread {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// One client-observed request: when its reply was decoded (ns since the
/// run's epoch) and how long it took from send to that point.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub end_ns: u64,
    pub latency_ns: u64,
}

pub struct Window {
    pub samples: usize,
    pub cmd_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Cut the samples ending in `from_ns..to_ns` into equal time windows:
/// [`WINDOWS`] of them, or fewer when that would leave a window without the
/// 1 000 samples that resolve a 99th percentile (1 500 on average, since
/// equal times do not hold equal counts). Samples outside (warm-up, and the
/// tail where one client has already stopped) are not measured.
pub fn windows(samples: &[Sample], from_ns: u64, to_ns: u64) -> Vec<Window> {
    let timed = |s: &&Sample| s.end_ns >= from_ns && s.end_ns < to_ns;
    let n = (samples.iter().filter(timed).count() / 1_500).clamp(1, WINDOWS);
    let width = (to_ns - from_ns) as f64 / n as f64;
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); n];
    for s in samples.iter().filter(timed) {
        let w = (((s.end_ns - from_ns) as f64 / width) as usize).min(n - 1);
        latencies[w].push(s.latency_ns);
    }
    latencies
        .into_iter()
        .filter(|l| !l.is_empty())
        .map(|mut l| {
            l.sort_unstable();
            Window {
                samples: l.len(),
                cmd_per_s: l.len() as f64 / (width / 1e9),
                p50_us: percentile(&l, 0.50) as f64 / 1e3,
                p99_us: percentile(&l, 0.99) as f64 / 1e3,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), 990);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(resolved(1000, 0.99), "ranks 991..=1000 lie beyond");
        assert!(!resolved(999, 0.99));
        assert!(resolved(20, 0.50));
        assert!(!resolved(19, 0.50));
        assert!(!resolved(5, 1.0));
    }

    #[test]
    fn medians_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = spread(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max), (3.0, 1.0, 5.0));
    }

    #[test]
    fn windows_drop_warm_up_and_shrink_with_few_samples() {
        // 10 000 samples at 1 µs spacing, latency = index
        let samples: Vec<Sample> = (0..10_000u64)
            .map(|i| Sample {
                end_ns: i * 1_000,
                latency_ns: i,
            })
            .collect();
        let w = windows(&samples, 1_000_000, 9_000_000);
        assert_eq!(w.len(), 5, "8 000 timed samples make five windows of 1 600");
        assert_eq!(w.iter().map(|w| w.samples).sum::<usize>(), 8_000);
        assert!((w[0].cmd_per_s - 1e6).abs() < 1.0, "one sample per µs");
        assert_eq!(w[0].p50_us, 1.799, "window 0 holds latencies 1000..2600");
        let few = windows(&samples[..3_500], 0, 3_500_000);
        assert_eq!(
            few.len(),
            2,
            "3 500 samples resolve p99 in two windows only"
        );
        assert!(few.iter().all(|w| resolved(w.samples, 0.99)));
    }
}
