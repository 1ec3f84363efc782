//! Server telemetry: per-opcode and per-session request counters and
//! latency histograms, pending-list depth gauges, a bounded slow-command log,
//! and a leveled key=value logger — the production instruments the wire
//! protocol's `metrics`/`metrics-prom` frames and the `GET /metrics`
//! HTTP shim expose (see `docs/OBSERVABILITY.md`, "Server & WAL
//! telemetry").
//!
//! Everything here is designed to stay out of the request path's way:
//!
//! * per-opcode stats are a fixed array of relaxed atomics
//!   ([`ariel::islist::Counter`] / [`ariel::islist::Histogram`]) — no
//!   lock, no allocation;
//! * per-session stats live in a small number of mutex *shards* keyed by
//!   `session_id % N`, so concurrent sessions rarely contend;
//! * the slow-command log takes its mutex only for a command that will be
//!   kept: an atomic admission floor turns the rest away;
//! * with telemetry disabled ([`Telemetry::start`] returns `None`) the
//!   request path performs no clock reads and no recording at all, and a
//!   [`Logger`] at [`LogLevel::Off`] allocates nothing — the
//!   `bench_gate obs` CI gate holds the telemetry-on overhead under 10%.

use crate::protocol::Opcode;
use ariel::islist::{Counter, Histogram, Kind, Metrics, Place, Value};
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wall-clock milliseconds since the UNIX epoch (0 if the clock is
/// before the epoch).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ----- logging ---------------------------------------------------------------

/// Log verbosity, most to least quiet. `--log-level` on the CLI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No logging at all — the default. Call sites allocate nothing.
    #[default]
    Off,
    /// Failures only.
    Error,
    /// Connection lifecycle, checkpoints, recovery, shutdown, slow
    /// commands.
    Info,
    /// Everything, including one `drain` line per engine hold.
    Debug,
}

impl LogLevel {
    /// Parse a `--log-level` argument.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    /// Canonical spelling (the accepted `--log-level` values).
    pub fn as_str(&self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
}

/// Line-oriented `key=value` structured logger.
///
/// Each line is `ts=<unix_ms> level=<level> event=<event> <fields>`. The
/// level check happens before any formatting, so a disabled logger (or a
/// call above the configured level) costs one branch: `format_args!` at
/// the call site builds a stack descriptor, never a `String`.
pub struct Logger {
    level: LogLevel,
    sink: Sink,
}

impl Logger {
    /// A logger that drops everything ([`LogLevel::Off`]).
    pub fn off() -> Logger {
        Logger {
            level: LogLevel::Off,
            sink: Sink::Stderr,
        }
    }

    /// Log to stderr at `level`.
    pub fn stderr(level: LogLevel) -> Logger {
        Logger {
            level,
            sink: Sink::Stderr,
        }
    }

    /// Log to (append) `path` at `level`.
    pub fn file(level: LogLevel, path: &std::path::Path) -> std::io::Result<Logger> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Logger {
            level,
            sink: Sink::File(Mutex::new(f)),
        })
    }

    /// Would a record at `level` be written?
    #[inline]
    pub fn enabled(&self, level: LogLevel) -> bool {
        level != LogLevel::Off && level <= self.level
    }

    /// Write one record. `fields` is the pre-formatted `key=value` tail
    /// (`format_args!` at the call site — free unless the level is
    /// enabled).
    pub fn log(&self, level: LogLevel, event: &str, fields: fmt::Arguments<'_>) {
        if !self.enabled(level) {
            return;
        }
        let line = format!(
            "ts={} level={} event={event} {fields}\n",
            unix_ms(),
            level.as_str()
        );
        match &self.sink {
            Sink::Stderr => {
                let _ = std::io::stderr().write_all(line.as_bytes());
            }
            Sink::File(f) => {
                let _ = lock(f).write_all(line.as_bytes());
            }
        }
    }
}

// ----- slow-command log ------------------------------------------------------

/// One captured slow command.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Session that sent it.
    pub session: u32,
    /// Frame kind (`command` or `query`).
    pub opcode: Opcode,
    /// Request latency (frame read to reply on the wire), nanoseconds.
    pub dur_ns: u64,
    /// Wall-clock capture time, milliseconds since the UNIX epoch.
    pub wall_ms: u64,
    /// Rendered ARL source, truncated to [`SLOW_TEXT_CAP`] bytes.
    pub text: String,
}

/// Longest command text a slow-log entry keeps.
pub const SLOW_TEXT_CAP: usize = 128;

/// Bounded keep-the-N-slowest command log.
///
/// `record` is called for every timed request; entries below
/// `threshold_ns` are ignored, and once `capacity` entries are held a new
/// entry must beat the current minimum to displace it — so the log always
/// holds the `capacity` slowest commands seen (at or above the
/// threshold), newest-first within equal durations.
pub struct SlowLog {
    threshold_ns: u64,
    capacity: usize,
    /// The shortest duration that can enter: `threshold_ns` until the log
    /// is full, then one more than its fastest entry. Stored under the
    /// entries lock and read without it, so a command that cannot enter
    /// never takes the lock; one admitted on a stale floor is re-checked
    /// under the lock.
    floor: AtomicU64,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    /// New log keeping the `capacity` slowest commands at or above
    /// `threshold_ns` (0 = every timed command competes).
    pub fn new(capacity: usize, threshold_ns: u64) -> SlowLog {
        SlowLog {
            threshold_ns,
            capacity,
            floor: AtomicU64::new(threshold_ns),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The configured threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Offer one timed command. Returns `true` if it was kept.
    pub fn record(&self, session: u32, opcode: Opcode, dur_ns: u64, text: &str) -> bool {
        if self.capacity == 0 || dur_ns < self.floor.load(Ordering::Relaxed) {
            return false;
        }
        let mut entries = lock(&self.entries);
        if entries.len() >= self.capacity {
            let (mi, min) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.dur_ns)
                .map(|(i, e)| (i, e.dur_ns))
                .expect("capacity > 0");
            if dur_ns <= min {
                return false;
            }
            entries.swap_remove(mi);
        }
        let mut text: String = text.chars().take(SLOW_TEXT_CAP).collect();
        if text.len() < text.capacity() {
            text.shrink_to_fit();
        }
        entries.push(SlowEntry {
            session,
            opcode,
            dur_ns,
            wall_ms: unix_ms(),
            text,
        });
        if entries.len() >= self.capacity {
            let fastest = entries.iter().map(|e| e.dur_ns).min().expect("full");
            let floor = fastest.saturating_add(1).max(self.threshold_ns);
            self.floor.store(floor, Ordering::Relaxed);
        }
        true
    }

    /// Snapshot of the held entries, slowest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        let mut out = lock(&self.entries).clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.dur_ns));
        out
    }

    /// Forget everything, and admit from `threshold_ns` again.
    pub fn clear(&self) {
        let mut entries = lock(&self.entries);
        entries.clear();
        self.floor.store(self.threshold_ns, Ordering::Relaxed);
    }
}

/// Stable lower-case label for an opcode (Prometheus label values and
/// slow-log JSON).
pub fn opcode_label(op: Opcode) -> &'static str {
    match op {
        Opcode::Hello => "hello",
        Opcode::Command => "command",
        Opcode::Query => "query",
        Opcode::Result => "result",
        Opcode::Error => "error",
        Opcode::Metrics => "metrics",
        Opcode::Shutdown => "shutdown",
        Opcode::MetricsProm => "metrics-prom",
    }
}

// ----- telemetry -------------------------------------------------------------

/// Highest opcode byte + 1 (the per-opcode stats array size).
const OPCODES: usize = 9;

/// Session-id shards for the per-session map.
const SESSION_SHARDS: usize = 8;

#[derive(Default)]
struct OpStat {
    count: Counter,
    latency_ns: Histogram,
}

/// Per-session request figures.
#[derive(Default)]
struct SessionStat {
    requests: u64,
    latency_ns: Histogram,
}

/// The server's telemetry store. All methods take `&self`; the store is
/// shared by reference across the session threads.
pub struct Telemetry {
    enabled: bool,
    per_opcode: [OpStat; OPCODES],
    sessions: [Mutex<std::collections::BTreeMap<u32, SessionStat>>; SESSION_SHARDS],
    queue_depth: AtomicU64,
    queue_high_water: AtomicU64,
    /// The slow-command log (see [`SlowLog`]).
    pub slow: SlowLog,
}

impl Telemetry {
    /// New store. With `enabled` false every recording method is a no-op
    /// and [`Telemetry::start`] never reads the clock.
    pub fn new(enabled: bool, slow_capacity: usize, slow_threshold_ns: u64) -> Telemetry {
        Telemetry {
            enabled,
            per_opcode: Default::default(),
            sessions: Default::default(),
            queue_depth: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            slow: SlowLog::new(slow_capacity, slow_threshold_ns),
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Begin timing a request: `Some(now)` when enabled, `None` (no clock
    /// read) when disabled. Pass the result to [`Telemetry::observe`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Count an untimed frame (metrics/shutdown/hello).
    #[inline]
    pub fn count(&self, opcode: Opcode, session: u32) {
        if !self.enabled {
            return;
        }
        self.per_opcode[opcode as usize].count.add(1);
        let shard = &self.sessions[(session as usize) % SESSION_SHARDS];
        lock(shard).entry(session).or_default().requests += 1;
    }

    /// Finish timing a request started with [`Telemetry::start`]:
    /// records the per-opcode and per-session latency and offers the
    /// command to the slow log. No-op when `t0` is `None`.
    pub fn observe(&self, opcode: Opcode, session: u32, t0: Option<Instant>, text: &str) -> u64 {
        let Some(t0) = t0 else { return 0 };
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let stat = &self.per_opcode[opcode as usize];
        stat.count.add(1);
        stat.latency_ns.record(dur_ns);
        {
            let shard = &self.sessions[(session as usize) % SESSION_SHARDS];
            let mut map = lock(shard);
            let s = map.entry(session).or_default();
            s.requests += 1;
            s.latency_ns.record(dur_ns);
        }
        self.slow.record(session, opcode, dur_ns, text);
        dur_ns
    }

    /// A drain took `n` entries off the pending list.
    #[inline]
    pub fn queue_drained(&self, n: u64) {
        if !self.enabled {
            return;
        }
        self.queue_depth.store(n, Ordering::Relaxed);
        self.queue_high_water.fetch_max(n, Ordering::Relaxed);
    }

    /// Entries the most recent drain found pending.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The most entries any one drain found pending.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water.load(Ordering::Relaxed)
    }

    /// Sessions with recorded activity.
    pub fn sessions_observed(&self) -> u64 {
        self.sessions.iter().map(|s| lock(s).len() as u64).sum()
    }

    /// Declare the JSON `"telemetry"` object and the telemetry
    /// `ariel_server_*` families: the queue and slow-log gauges,
    /// per-opcode counts and latency, per-session figures, and the slow
    /// log's entries (log records, JSON-only), slowest first.
    pub fn export(&self, m: &mut Metrics) {
        let at = Place::root().key("telemetry");
        let slow = self.slow.entries();
        m.gauge(
            &at.key("enabled"),
            "ariel_server_telemetry_enabled",
            "1 when request telemetry is recorded.",
            self.enabled,
        );
        let gauges = [
            (
                "queue_depth",
                "Entries the most recent drain found pending.",
                self.queue_depth(),
            ),
            (
                "queue_high_water",
                "The most entries any one drain found pending.",
                self.queue_high_water(),
            ),
            (
                "sessions_observed",
                "Sessions with recorded request activity.",
                self.sessions_observed(),
            ),
            (
                "slow_commands",
                "Entries currently held by the slow-command log.",
                slow.len() as u64,
            ),
        ];
        m.table(&at, "ariel_server", Kind::Gauge, &gauges);
        let count = m.family(
            "ariel_server_requests_total",
            Kind::Counter,
            "Frames handled, by opcode.",
        );
        let latency = m.family(
            "ariel_server_request_duration_ns",
            Kind::Histogram,
            "Request latency (frame read to reply on the wire) by opcode, in nanoseconds.",
        );
        m.put(&at.key("opcodes"), None, Value::Object);
        for (b, stat) in self.per_opcode.iter().enumerate() {
            let Some(op) = Opcode::from_u8(b as u8).filter(|_| stat.count.get() > 0) else {
                continue;
            };
            let o = at
                .key("opcodes")
                .key(opcode_label(op))
                .label("opcode", opcode_label(op));
            m.put(&o.key("count"), Some(count), stat.count.get());
            // an opcode that is counted but never timed has no series
            let timed = stat.latency_ns.count() > 0;
            m.put(
                &o.key("latency_ns"),
                timed.then_some(latency),
                &stat.latency_ns,
            );
        }
        let requests = m.family(
            "ariel_server_session_requests_total",
            Kind::Counter,
            "Requests handled per session.",
        );
        let mean = m.family(
            "ariel_server_session_mean_ns",
            Kind::Gauge,
            "Mean request latency per session, in nanoseconds.",
        );
        let p99 = m.family(
            "ariel_server_session_p99_ns",
            Kind::Gauge,
            "Bucket-resolution p99 request latency per session, in nanoseconds.",
        );
        m.put(&at.key("sessions"), None, Value::Object);
        for shard in &self.sessions {
            for (id, stat) in lock(shard).iter() {
                let s = at
                    .key("sessions")
                    .key(id.to_string())
                    .label("session", id.to_string());
                m.put(&s.key("requests"), Some(requests), stat.requests);
                m.put(&s.key("mean_ns"), Some(mean), stat.latency_ns.mean());
                m.put(
                    &s.key("p99_ns"),
                    Some(p99),
                    stat.latency_ns.approx_quantile(99),
                );
            }
        }
        m.put(&at.key("slowlog"), None, Value::Array);
        for (i, e) in slow.iter().enumerate() {
            let s = at.key("slowlog").index(i);
            m.put(&s.key("session"), None, u64::from(e.session));
            m.put(&s.key("opcode"), None, opcode_label(e.opcode));
            m.put(&s.key("dur_ns"), None, e.dur_ns);
            m.put(&s.key("wall_ms"), None, e.wall_ms);
            m.put(&s.key("text"), None, e.text.as_str());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_levels_parse_and_order() {
        assert_eq!(LogLevel::parse("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::parse("debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("verbose"), None);
        assert!(LogLevel::Error < LogLevel::Info);
        let l = Logger::stderr(LogLevel::Info);
        assert!(l.enabled(LogLevel::Error));
        assert!(l.enabled(LogLevel::Info));
        assert!(!l.enabled(LogLevel::Debug));
        // Off is never "enabled", even on a debug logger
        assert!(!Logger::stderr(LogLevel::Debug).enabled(LogLevel::Off));
        assert!(!Logger::off().enabled(LogLevel::Error));
    }

    #[test]
    fn logger_writes_key_value_lines_to_file() {
        let path = std::env::temp_dir().join(format!("ariel-log-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let l = Logger::file(LogLevel::Info, &path).unwrap();
        l.log(LogLevel::Info, "connect", format_args!("session=7"));
        l.log(LogLevel::Debug, "batch", format_args!("entries=3")); // filtered
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        let line = text.lines().next().unwrap();
        assert!(line.contains("level=info"), "{line}");
        assert!(line.contains("event=connect"), "{line}");
        assert!(line.contains("session=7"), "{line}");
        assert!(line.starts_with("ts="), "{line}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slow_log_keeps_the_n_slowest() {
        let log = SlowLog::new(3, 100);
        assert!(!log.record(1, Opcode::Command, 50, "below threshold"));
        for (i, ns) in [200u64, 300, 400, 250, 500].iter().enumerate() {
            log.record(i as u32, Opcode::Command, *ns, &format!("cmd {ns}"));
        }
        let entries = log.entries();
        let durs: Vec<u64> = entries.iter().map(|e| e.dur_ns).collect();
        assert_eq!(durs, vec![500, 400, 300], "keeps the slowest, sorted");
        // a duplicate of the minimum does not displace it
        assert!(!log.record(9, Opcode::Query, 300, "tie"));
        log.clear();
        assert!(log.entries().is_empty());
        // clear() lowers the admission floor back to the threshold
        assert!(log.record(9, Opcode::Query, 150, "fast again"));
        assert!(!log.record(9, Opcode::Query, 50, "still below threshold"));
    }

    fn scrape(t: &Telemetry) -> Metrics {
        let mut m = Metrics::new();
        t.export(&mut m);
        m
    }

    #[test]
    fn slow_log_truncates_text_and_escapes_json() {
        let t = Telemetry::new(true, 2, 0);
        let long = "x".repeat(500);
        t.slow.record(1, Opcode::Command, 10, &long);
        t.slow.record(2, Opcode::Query, 20, "say \"hi\"\n");
        let entries = t.slow.entries();
        assert_eq!(entries[1].text.len(), SLOW_TEXT_CAP);
        let json = scrape(&t).to_json();
        assert!(json.contains("\"slowlog\":[{\"session\":2,"), "{json}");
        assert!(json.ends_with("}]}}"), "{json}");
        assert!(json.contains("\\\"hi\\\"\\n"), "{json}");
        assert!(json.contains("\"opcode\":\"query\""), "{json}");
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let t = Telemetry::new(false, 8, 0);
        assert!(t.start().is_none(), "no clock read when disabled");
        t.count(Opcode::Metrics, 1);
        t.queue_drained(3);
        assert_eq!(t.queue_depth(), 0);
        assert_eq!(t.sessions_observed(), 0);
        assert_eq!(t.observe(Opcode::Command, 1, None, "append"), 0);
        let json = scrape(&t).to_json();
        assert!(json.contains("\"enabled\":false"), "{json}");
        assert!(json.contains("\"opcodes\":{}"), "{json}");
    }

    #[test]
    fn telemetry_records_per_opcode_and_session() {
        let t = Telemetry::new(true, 8, 0);
        let t0 = t.start();
        assert!(t0.is_some());
        let dur = t.observe(Opcode::Command, 3, t0, "append kv (k = 1)");
        assert!(dur > 0);
        t.observe(Opcode::Query, 3, t.start(), "retrieve (kv.all)");
        t.observe(Opcode::Command, 11, t.start(), "append kv (k = 2)");
        t.count(Opcode::Metrics, 3);
        assert_eq!(t.sessions_observed(), 2);
        t.queue_drained(2);
        t.queue_drained(1);
        assert_eq!(t.queue_depth(), 1);
        assert_eq!(t.queue_high_water(), 2);
        let json = scrape(&t).to_json();
        assert!(json.contains("\"command\":{\"count\":2"), "{json}");
        assert!(json.contains("\"query\":{\"count\":1"), "{json}");
        assert!(json.contains("\"metrics\":{\"count\":1"), "{json}");
        assert!(json.contains("\"3\":{\"requests\":3"), "{json}");
        assert!(json.contains("\"slowlog\":["), "{json}");
        let prom = scrape(&t).to_prometheus();
        assert!(
            prom.contains("ariel_server_requests_total{opcode=\"command\"} 2"),
            "{prom}"
        );
        assert!(
            prom.contains("ariel_server_request_duration_ns_count{opcode=\"query\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("ariel_server_session_requests_total{session=\"11\"} 1"),
            "{prom}"
        );
    }
}
