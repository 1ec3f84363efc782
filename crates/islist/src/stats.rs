//! Lightweight measurement primitives shared by the whole match path.
//!
//! This module lives at the bottom of the crate stack so every layer above
//! (`ariel-network`, `ariel`, the benches) can record into the same
//! dependency-free types:
//!
//! * [`Counter`] — a relaxed atomic `u64` with the `Cell` API (`get`/`set`)
//!   plus `add`. Every always-on counter in the match path is one of these.
//! * [`Histogram`] — a fixed-bucket log₂ histogram of `u64` samples
//!   (typically nanoseconds from a monotonic clock, sometimes counts).
//!   Recording is a handful of relaxed atomic increments; no allocation,
//!   no locking, no floating point.
//! * [`StabStats`] — always-on counters the interval skip list keeps about
//!   its stabbing queries (probe count, nodes visited, marker hits).
//!
//! All three use *atomic* interior mutability so shared-reference code
//! paths — `IntervalSkipList::stab` takes `&self` — can record without
//! threading `&mut` through the search routines, and the structures that
//! embed them stay `Send + Sync` (the engine moves between the server's
//! session threads). All accesses are `Relaxed`; the counters are
//! statistics whose totals are sums, which are independent of the order
//! increments land in.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A shared `u64` counter: a relaxed [`AtomicU64`] exposing the `Cell` API.
///
/// `get`/`set` mirror `Cell<u64>` so single-threaded call sites read the
/// same as before the match path went parallel; `add` is the one-word
/// increment hot paths use. `Clone` snapshots the current value.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter holding `v`.
    pub fn new(v: u64) -> Self {
        Counter(AtomicU64::new(v))
    }

    /// Current value (relaxed load).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the value (relaxed store).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `v` (relaxed fetch-add).
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter::new(self.get())
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// Number of log₂ buckets. Bucket 63 absorbs everything ≥ 2⁶².
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-size log₂ histogram of `u64` samples.
///
/// Bucket `i` counts samples `v` with `bucket_floor(i) <= v < 2 *
/// bucket_floor(i)` where `bucket_floor(0) = 0` and `bucket_floor(i) =
/// 2^(i-1)` — i.e. bucket index is the sample's bit length. The histogram
/// also tracks the exact sum, count, min and max, so means are exact and
/// only quantiles are bucket-approximate.
///
/// ```
/// use ariel_islist::Histogram;
/// let h = Histogram::new();
/// for v in [3, 5, 900] { h.record(v); }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 908);
/// assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
/// ```
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first sample lands, so concurrent recorders can
    /// use `fetch_min` without an is-empty check; [`Histogram::min`] maps
    /// the empty state back to 0.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram {
            buckets: std::array::from_fn(|i| {
                AtomicU64::new(self.buckets[i].load(Ordering::Relaxed))
            }),
            count: AtomicU64::new(self.count.load(Ordering::Relaxed)),
            sum: AtomicU64::new(self.sum.load(Ordering::Relaxed)),
            min: AtomicU64::new(self.min.load(Ordering::Relaxed)),
            max: AtomicU64::new(self.max.load(Ordering::Relaxed)),
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample: its bit length (0 for 0).
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Smallest sample value that lands in bucket `i`.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact mean, or 0 when empty.
    pub fn mean(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.sum() / self.count()
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Copy of the bucket counts (index = sample bit length).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Bucket-resolution quantile: the floor value of the bucket containing
    /// the `q`-quantile sample (`q` in 0..=100). 0 when empty.
    pub fn approx_quantile(&self, q: u8) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = (n.saturating_mul(q.min(100) as u64)).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        self.max()
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&self, other: &Histogram) {
        if other.count() == 0 {
            return;
        }
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Forget all samples.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Hand-rolled JSON object: `{"count":…,"sum":…,"min":…,"mean":…,
    /// "p50":…,"p99":…,"max":…,"buckets":{"<floor>":count,…}}`.
    /// Empty buckets are omitted to keep snapshots small.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{},\"buckets\":{{",
            self.count(),
            self.sum(),
            self.min(),
            self.mean(),
            self.approx_quantile(50),
            self.approx_quantile(99),
            self.max(),
        );
        let mut first = true;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!("\"{}\":{}", Self::bucket_floor(i), n));
            }
        }
        s.push_str("}}");
        s
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram {{ count: {}, mean: {}, p50: {}, p99: {}, max: {} }}",
            self.count(),
            self.mean(),
            self.approx_quantile(50),
            self.approx_quantile(99),
            self.max()
        )
    }
}

/// Always-on counters for interval-skip-list stabbing queries.
///
/// Kept by every [`crate::IntervalSkipList`]; incrementing three relaxed
/// atomics per probe is cheap enough to leave unconditionally enabled,
/// which is what lets `NetworkStats` report selection-network probe work
/// without an observability flag.
#[derive(Clone, Default)]
pub struct StabStats {
    /// Number of stabbing queries answered.
    pub stabs: Counter,
    /// Skip-list nodes examined while descending the search path.
    pub nodes_visited: Counter,
    /// Interval markers reported (before de-duplication).
    pub hits: Counter,
}

impl StabStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero every counter.
    pub fn reset(&self) {
        self.stabs.set(0);
        self.nodes_visited.set(0);
        self.hits.set(0);
    }

    /// Fold `other` into `self`.
    pub fn merge(&self, other: &StabStats) {
        self.stabs.add(other.stabs.get());
        self.nodes_visited.add(other.nodes_visited.get());
        self.hits.add(other.hits.get());
    }
}

impl fmt::Debug for StabStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StabStats {{ stabs: {}, nodes_visited: {}, hits: {} }}",
            self.stabs.get(),
            self.nodes_visited.get(),
            self.hits.get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_floor(i)), i);
        }
    }

    #[test]
    fn totals_match_counts() {
        let h = Histogram::new();
        let samples = [0u64, 1, 1, 7, 100, 100_000, 5_000_000_000];
        for &v in &samples {
            h.record(v);
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 5_000_000_000);
        assert!(h.approx_quantile(100) <= h.max());
        assert!(h.approx_quantile(0) >= h.min());
    }

    #[test]
    fn merge_and_reset() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(1000);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1012);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 1000);
        a.reset();
        assert!(a.is_empty());
        assert_eq!(a.min(), 0, "empty histogram reports min 0");
        assert_eq!(a.buckets().iter().sum::<u64>(), 0);
    }

    #[test]
    fn json_shape() {
        let h = Histogram::new();
        h.record(5);
        h.record(5);
        let j = h.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"count\":2"), "{j}");
        assert!(j.contains("\"buckets\":{\"4\":2}"), "{j}");
    }

    #[test]
    fn counter_cell_api() {
        let c = Counter::new(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        c.set(1);
        assert_eq!(c.get(), 1);
        let d = c.clone();
        c.add(1);
        assert_eq!(d.get(), 1, "clone snapshots, not shares");
    }

    #[test]
    fn shared_across_threads() {
        let h = Histogram::new();
        let s = StabStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for v in 0..100u64 {
                        h.record(v);
                        s.stabs.add(1);
                    }
                });
            }
        });
        assert_eq!(h.count(), 400);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 99);
        assert_eq!(s.stabs.get(), 400);
    }
}
