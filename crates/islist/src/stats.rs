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
//! * [`Metrics`] — the registry every layer exports into at scrape time,
//!   and its two writers, [`Metrics::to_json`] and
//!   [`Metrics::to_prometheus`].
//!
//! The first three use *atomic* interior mutability for two reasons.
//! Shared-reference code paths — `IntervalSkipList::stab` takes `&self` —
//! record without threading `&mut` through the search routines. And the
//! server's telemetry records into the same types from concurrent
//! sessions, so one `Sync` implementation serves both; the engine itself
//! needs only `Send`. All accesses are `Relaxed`; the counters are
//! statistics whose totals are sums, which are independent of the order
//! increments land in.

use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A shared `u64` counter: a relaxed [`AtomicU64`] exposing the `Cell` API.
///
/// `get`/`set` mirror `Cell<u64>`, so call sites read as they would over
/// a `Cell`; `add` is the one-word increment hot paths use. `Clone`
/// snapshots the current value.
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

/// The Prometheus type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total (family names end in `_total`).
    Counter,
    /// Point-in-time level.
    Gauge,
    /// Log₂ [`Histogram`].
    Histogram,
}

/// The value of one sample.
#[derive(Debug, Clone)]
pub enum Value {
    /// A count or size.
    Int(u64),
    /// A derived ratio; JSON shows four decimals.
    Ratio(f64),
    /// A JSON boolean, 1 or 0 in Prometheus.
    Flag(bool),
    /// A histogram snapshot.
    Hist(Box<Histogram>),
    /// JSON only: a string (a rule name, slow-log text).
    Text(String),
    /// JSON only: an object here, empty unless samples fill it.
    Object,
    /// JSON only: an array here, empty unless samples fill it.
    Array,
    /// JSON only: `null` here unless samples fill it.
    Null,
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Ratio(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Flag(v)
    }
}

impl From<&Histogram> for Value {
    fn from(h: &Histogram) -> Value {
        Value::Hist(Box::new(h.clone()))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Text(s.to_string())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Step {
    Key(String),
    Index(usize),
}

/// Where a sample goes: a path of object keys and array positions in the
/// JSON document, and the labels of its Prometheus series.
#[derive(Debug, Clone, Default)]
pub struct Place {
    path: Vec<Step>,
    labels: Vec<(&'static str, String)>,
}

impl Place {
    /// The document root.
    pub fn root() -> Place {
        Place::default()
    }

    /// Key `key` of the object here.
    pub fn key(&self, key: impl Into<String>) -> Place {
        let mut p = self.clone();
        p.path.push(Step::Key(key.into()));
        p
    }

    /// Element `i` of the array here. Elements come out in the order
    /// they are first declared, so declare them in index order.
    pub fn index(&self, i: usize) -> Place {
        let mut p = self.clone();
        p.path.push(Step::Index(i));
        p
    }

    /// Add Prometheus label `name="value"` to every series declared here
    /// or below.
    pub fn label(&self, name: &'static str, value: impl Into<String>) -> Place {
        let mut p = self.clone();
        p.labels.push((name, value.into()));
        p
    }
}

/// A Prometheus family declared in a [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family(usize);

#[derive(Debug)]
struct FamilyDecl {
    name: String,
    kind: Kind,
    help: &'static str,
}

#[derive(Debug)]
struct Sample {
    place: Place,
    family: Option<Family>,
    value: Value,
}

/// One scrape of metrics: counter, gauge and histogram samples, each at a
/// place in the JSON document and, unless declared JSON-only, in a
/// Prometheus family with a help string and labels. Each layer declares
/// its metrics once, in an `export(&self, &mut Metrics)`; the two writers
/// here are the only ones.
///
/// ```
/// use ariel_islist::{Kind, Metrics, Place};
/// let mut m = Metrics::new();
/// let engine = Place::root().key("engine");
/// m.table(&engine, "ariel_engine", Kind::Counter, &[("firings", "Rule firings.", 3)]);
/// let rule = m.family("ariel_rule_firings_total", Kind::Counter, "Firings per rule.");
/// let r = Place::root().key("rules").index(0).label("rule", "watch");
/// m.put(&r.key("name"), None, "watch");
/// m.put(&r.key("firings"), Some(rule), 3u64);
/// assert_eq!(
///     m.to_json(),
///     r#"{"engine":{"firings":3},"rules":[{"name":"watch","firings":3}]}"#
/// );
/// let prom = m.to_prometheus();
/// assert!(prom.contains("# TYPE ariel_engine_firings_total counter\nariel_engine_firings_total 3\n"));
/// assert!(prom.contains("ariel_rule_firings_total{rule=\"watch\"} 3\n"));
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    families: Vec<FamilyDecl>,
    samples: Vec<Sample>,
}

impl Metrics {
    /// An empty scrape.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Declare Prometheus family `name` (again: the same family). Its
    /// `# HELP`/`# TYPE` header is written even when no sample joins it.
    pub fn family(&mut self, name: impl Into<String>, kind: Kind, help: &'static str) -> Family {
        let name = name.into();
        let i = self.families.iter().position(|f| f.name == name);
        Family(i.unwrap_or_else(|| {
            self.families.push(FamilyDecl { name, kind, help });
            self.families.len() - 1
        }))
    }

    /// Add a sample at `at`: a series of `family` labelled with `at`'s
    /// labels, or JSON-only without one.
    pub fn put(&mut self, at: &Place, family: Option<Family>, value: impl Into<Value>) {
        let (place, value) = (at.clone(), value.into());
        self.samples.push(Sample {
            place,
            family,
            value,
        });
    }

    /// Declare each `(key, help, value)` row at `at.key(key)`, as a
    /// one-sample family named `{prefix}_{key}` — with `_total` appended
    /// for a counter, by the Prometheus naming convention.
    pub fn table(
        &mut self,
        at: &Place,
        prefix: &str,
        kind: Kind,
        rows: &[(&str, &'static str, u64)],
    ) {
        let total = if kind == Kind::Counter { "_total" } else { "" };
        for &(key, help, v) in rows {
            let f = self.family(format!("{prefix}_{key}{total}"), kind, help);
            self.put(&at.key(key), Some(f), v);
        }
    }

    /// A one-sample gauge family.
    pub fn gauge(&mut self, at: &Place, name: &str, help: &'static str, v: impl Into<Value>) {
        let f = self.family(name, Kind::Gauge, help);
        self.put(at, Some(f), v);
    }

    /// A one-sample histogram family.
    pub fn histogram(&mut self, at: &Place, name: &str, help: &'static str, h: &Histogram) {
        let f = self.family(name, Kind::Histogram, help);
        self.put(at, Some(f), h);
    }

    /// Run `f`, then move what it declared under key `key` of the JSON
    /// root; its Prometheus series are unchanged.
    pub fn nest(&mut self, key: &str, f: impl FnOnce(&mut Metrics)) {
        let from = self.samples.len();
        f(self);
        for s in &mut self.samples[from..] {
            s.place.path.insert(0, Step::Key(key.to_string()));
        }
    }

    /// The JSON document: object keys and array elements in the order
    /// their first sample was declared.
    pub fn to_json(&self) -> String {
        let mut root = Node::Leaf(&Value::Null);
        for s in &self.samples {
            let node = s.place.path.iter().fold(&mut root, Node::child);
            let shape = matches!(s.value, Value::Object | Value::Array | Value::Null);
            // a shape only stands in for a place nothing has filled yet
            if !shape || matches!(node, Node::Leaf(Value::Null)) {
                *node = Node::Leaf(&s.value);
            }
        }
        let mut out = String::with_capacity(4096);
        root.write(&mut out);
        out
    }

    /// The Prometheus text exposition (format 0.0.4): families in
    /// declaration order, each with its header and series. A histogram
    /// series is cumulative `_bucket{le=…}` lines (one per log₂ bucket up
    /// to the last non-empty one, bounded by the next bucket's floor, then
    /// `+Inf`), `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (i, f) in self.families.iter().enumerate() {
            let kind = match f.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Histogram => "histogram",
            };
            let _ = write!(out, "# HELP {0} {1}\n# TYPE {0} {kind}\n", f.name, f.help);
            for s in self.samples.iter().filter(|s| s.family == Some(Family(i))) {
                let series = |suffix: &str, le: Option<String>| {
                    let labels = s.place.labels.iter();
                    let labels: Vec<String> = labels
                        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape_label(v)))
                        .chain(le.map(|le| format!("le=\"{le}\"")))
                        .collect();
                    match labels.is_empty() {
                        true => format!("{}{suffix}", f.name),
                        false => format!("{}{suffix}{{{}}}", f.name, labels.join(",")),
                    }
                };
                let _ = match &s.value {
                    Value::Int(v) => writeln!(out, "{} {v}", series("", None)),
                    Value::Ratio(r) => writeln!(out, "{} {r}", series("", None)),
                    Value::Flag(b) => writeln!(out, "{} {}", series("", None), u8::from(*b)),
                    Value::Hist(h) => {
                        let buckets = h.buckets();
                        let last = buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
                        let mut cum = 0;
                        for (i, n) in buckets.iter().enumerate().take(last) {
                            cum += n;
                            let le = Histogram::bucket_floor(i + 1).to_string();
                            let _ = writeln!(out, "{} {cum}", series("_bucket", Some(le)));
                        }
                        let inf = Some("+Inf".to_string());
                        let _ = writeln!(out, "{} {}", series("_bucket", inf), h.count());
                        let _ = writeln!(out, "{} {}", series("_sum", None), h.sum());
                        writeln!(out, "{} {}", series("_count", None), h.count())
                    }
                    Value::Text(_) | Value::Object | Value::Array | Value::Null => Ok(()),
                };
            }
        }
        out
    }
}

/// `(key, help, value)` rows for [`Metrics::table`] from fields of one
/// struct, each keyed by its field name: `metric_rows!(s; rules: "Active
/// rules.", alpha_nodes: "Alpha nodes.")` reads `s.rules` and
/// `s.alpha_nodes` as `u64`. A row without a help string gets `""` (a
/// JSON-only row needs none).
#[macro_export]
macro_rules! metric_rows {
    ($s:expr; $($field:ident $(: $help:literal)?),* $(,)?) => {
        [$((stringify!($field), concat!("" $(, $help)?), $s.$field as u64)),*]
    };
}

/// The JSON tree [`Metrics::to_json`] assembles from sample places: a
/// value, or the children of an object (`Step::Key`) or array
/// (`Step::Index`).
enum Node<'a> {
    Leaf(&'a Value),
    Branch(Vec<(&'a Step, Node<'a>)>),
}

impl<'a> Node<'a> {
    fn child<'n>(node: &'n mut Node<'a>, step: &'a Step) -> &'n mut Node<'a> {
        if let Node::Leaf(_) = node {
            *node = Node::Branch(Vec::new());
        }
        let Node::Branch(kids) = node else {
            unreachable!("just made a branch")
        };
        let i = kids.iter().position(|(s, _)| *s == step);
        let i = i.unwrap_or_else(|| {
            kids.push((step, Node::Leaf(&Value::Null)));
            kids.len() - 1
        });
        &mut kids[i].1
    }

    fn write(&self, out: &mut String) {
        let kids = match self {
            Node::Leaf(v) => return write_json_value(out, v),
            Node::Branch(kids) => kids,
        };
        let array = matches!(kids.first(), Some((Step::Index(_), _)));
        out.push(if array { '[' } else { '{' });
        for (i, (step, kid)) in kids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Step::Key(k) = step {
                let _ = write!(out, "\"{}\":", json_escape(k));
            }
            kid.write(out);
        }
        out.push(if array { ']' } else { '}' });
    }
}

/// A leaf value. A histogram is `{"count":…,"sum":…,"min":…,"mean":…,
/// "p50":…,"p99":…,"max":…,"buckets":{"<floor>":count,…}}`, empty buckets
/// omitted.
fn write_json_value(out: &mut String, value: &Value) {
    let _ = match value {
        Value::Int(v) => write!(out, "{v}"),
        Value::Ratio(r) => write!(out, "{r:.4}"),
        Value::Flag(b) => write!(out, "{b}"),
        Value::Text(s) => write!(out, "\"{}\"", json_escape(s)),
        Value::Object => write!(out, "{{}}"),
        Value::Array => write!(out, "[]"),
        Value::Null => write!(out, "null"),
        Value::Hist(h) => {
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"min\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{},\"buckets\":{{",
                h.count(),
                h.sum(),
                h.min(),
                h.mean(),
                h.approx_quantile(50),
                h.approx_quantile(99),
                h.max(),
            );
            let filled = h.buckets().into_iter().enumerate().filter(|(_, n)| *n > 0);
            for (j, (i, n)) in filled.enumerate() {
                let sep = if j > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{}\":{n}", Histogram::bucket_floor(i));
            }
            write!(out, "}}}}")
        }
    };
}

/// Escape `s` for the inside of a JSON string literal: quote, backslash
/// and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escape a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n`.
fn prom_escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
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
        let mut m = Metrics::new();
        let at = Place::root().key("h");
        m.put(&at, None, &h);
        m.put(&Place::root().key("empty").key("list"), None, Value::Array);
        m.put(&Place::root().key("off"), None, Value::Null);
        m.put(&Place::root().key("ratio"), None, 0.5);
        m.put(&Place::root().key("text"), None, "say \"hi\"\n");
        m.put(&Place::root().key("pair").index(0), None, 7u64);
        let j = m.to_json();
        assert!(j.starts_with("{\"h\":{\"count\":2,\"sum\":10,"), "{j}");
        assert!(j.contains("\"buckets\":{\"4\":2}}"), "{j}");
        assert!(j.contains("\"empty\":{\"list\":[]}"), "{j}");
        assert!(j.contains("\"off\":null,\"ratio\":0.5000"), "{j}");
        assert!(j.contains("\"text\":\"say \\\"hi\\\"\\n\""), "{j}");
        assert!(j.ends_with("\"pair\":[7]}"), "{j}");
    }

    #[test]
    fn shapes_yield_to_samples_and_nest_moves_places() {
        let mut m = Metrics::new();
        m.put(&Place::root().key("timing"), None, Value::Null);
        m.nest("engine", |m| {
            m.put(&Place::root().key("opcodes"), None, Value::Object);
            m.gauge(&Place::root().key("opcodes").key("n"), "x", "X.", 1u64);
        });
        m.put(&Place::root().key("timing").key("on"), None, true);
        assert_eq!(
            m.to_json(),
            "{\"timing\":{\"on\":true},\"engine\":{\"opcodes\":{\"n\":1}}}"
        );
        assert_eq!(m.to_prometheus(), "# HELP x X.\n# TYPE x gauge\nx 1\n");
    }

    #[test]
    fn prom_histogram_lines_are_cumulative() {
        let h = Histogram::new();
        h.record(3); // bucket 2 (floor 2), le = 4
        h.record(3);
        h.record(100); // bucket 7 (floor 64), le = 128
        let mut m = Metrics::new();
        m.histogram(&Place::root().key("x"), "x", "An x.", &h);
        let f = m.family("y", Kind::Histogram, "A y.");
        m.put(&Place::root().key("y").label("rule", "r"), Some(f), &h);
        let out = m.to_prometheus();
        assert!(
            out.starts_with("# HELP x An x.\n# TYPE x histogram\n"),
            "{out}"
        );
        assert!(out.contains("x_bucket{le=\"4\"} 2\n"), "{out}");
        assert!(out.contains("x_bucket{le=\"128\"} 3\n"), "{out}");
        assert!(out.contains("x_bucket{le=\"+Inf\"} 3\n"), "{out}");
        assert!(out.contains("x_sum 106\n"), "{out}");
        assert!(out.contains("x_count 3\n"), "{out}");
        assert!(
            out.contains("y_bucket{rule=\"r\",le=\"+Inf\"} 3\n"),
            "{out}"
        );
        assert!(out.contains("y_count{rule=\"r\"} 3\n"), "{out}");
        // a family with no samples still declares itself
        m.family("z_total", Kind::Counter, "No z yet.");
        assert!(m.to_prometheus().ends_with("# TYPE z_total counter\n"));
    }

    #[test]
    fn prom_label_escaping() {
        assert_eq!(prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
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
