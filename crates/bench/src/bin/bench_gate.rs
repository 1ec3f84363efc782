//! CI benchmark regression gate.
//!
//! Diffs a fresh `BENCH_join.json` (written by `paper_tables -- joins`)
//! against the checked-in `BENCH_baseline.json` and exits nonzero when the
//! join engine regressed:
//!
//! * an **indexed** workload's `total_ms` grew by more than 50% over the
//!   baseline, or
//! * any workload's `join_candidates` count grew at all — candidate counts
//!   are deterministic, so *any* growth means an index stopped being used
//!   (or started serving wider buckets),
//! * any workload's `alpha_bytes` grew more than 5% over the baseline —
//!   the same rule `bench_gate mem` applies; it pins the α-memory layout
//!   (stored memories share one join index per relation and attribute
//!   set), and
//! * a baseline workload is missing from the fresh run.
//!
//! ```text
//! cargo run --release -p ariel-bench --bin bench_gate            # default paths
//! cargo run --release -p ariel-bench --bin bench_gate -- fresh.json baseline.json
//! cargo run --release -p ariel-bench --bin bench_gate -- --bless # accept fresh as baseline
//! ```
//!
//! `--bless` replaces the baseline file with the fresh results instead of
//! gating, printing the old → new change per row first — the sanctioned
//! way to accept a legitimate shift (new workload, deliberate join-order
//! change). A missing or unreadable baseline blesses from scratch.
//!
//! Two subcommands ride along:
//!
//! * `bench_gate mem [fresh [baseline]]` gates `BENCH_mem.json` (written
//!   by `paper_tables -- mem`): the **interned** layout must hold fewer
//!   α-memory bytes than the **legacy** heap-string layout within the
//!   fresh file, per-config `alpha_entries` must match the baseline
//!   exactly (the layout must not change what is matched), per-config
//!   `alpha_bytes` must not grow more than 5% over
//!   `BENCH_mem_baseline.json`, and the interned config's wall clock is
//!   held to the usual 50% tolerance. `--bless` updates the mem baseline.
//! * `bench_gate serve [fresh [baseline]]` gates `BENCH_serve.json`
//!   (written by `paper_tables -- serve`): zero command and protocol
//!   errors in every fresh row, sane latency percentiles (p99 ≥ p50 > 0),
//!   every baseline client count still measured, and one-client
//!   commands/sec within 1/4 of `BENCH_serve_baseline.json` (wide enough
//!   for host variance, narrow enough to catch a Nagle stall; higher
//!   client counts are reported, not gated — they move with the host
//!   scheduler). `--bless` updates the serve baseline.
//! * `bench_gate wal [fresh [baseline]]` gates `BENCH_wal.json` (written
//!   by `paper_tables -- wal`): the `off` row must log **zero** records
//!   and bytes (durability off attaches no writer at all), `commit` and
//!   `batch` must log the **same** nonzero record and byte counts (the
//!   sync policy must not change what is logged), and per-mode counts
//!   must match `BENCH_wal_baseline.json` exactly — record streams are
//!   deterministic, so any drift means the logging hooks moved. Wall
//!   clock is reported, never gated: fsync latency varies wildly across
//!   CI hosts. `--bless` updates the wal baseline.
//! * `bench_gate obs [fresh [baseline]]` gates `BENCH_obs.json` (written
//!   by `paper_tables -- obs`): the serve workload with server telemetry
//!   **on** must cost at most 10% more wall clock than with telemetry
//!   **off** *within the same fresh file* (same host, same minute — so
//!   the band can be narrow), every row's requests must split exactly
//!   into commands + queries, and per-config request counts must match
//!   `BENCH_obs_baseline.json` exactly — the workload is deterministic.
//!   Absolute wall clock is never compared across runs. `--bless`
//!   updates the obs baseline.
//! * `bench_gate links [root]` fails if any relative markdown link in
//!   `README.md` or `docs/*.md` points at a path that does not exist —
//!   the CI docs gate.
//!
//! The schema of the join, mem, serve, wal and obs files is documented in
//! `docs/OBSERVABILITY.md` (join, mem, obs), `docs/SERVER.md` (serve) and
//! `docs/DURABILITY.md` (wal).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Wall-clock tolerance: fail only beyond +50% over baseline, so ordinary
/// machine noise passes while a lost index (typically 5-20×) cannot.
const TOTAL_MS_TOLERANCE: f64 = 1.5;

/// One scalar field of a benchmark row.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    Str(String),
    Bool(bool),
    Num(f64),
}

/// Minimal JSON reader for the flat array-of-objects shape `paper_tables`
/// emits. Strings accept the standard JSON escapes (`\" \\ \/ \b \f \n
/// \r \t \uXXXX`); values must be strings, booleans or numbers — exactly
/// the `BENCH_join.json` schema, nothing more.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out: Option<String> = None;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\\' {
                let buf = out.get_or_insert_with(|| {
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map(str::to_string)
                        .unwrap_or_default()
                });
                self.pos += 1;
                let esc = self
                    .bytes
                    .get(self.pos)
                    .ok_or("unterminated escape".to_string())?;
                match esc {
                    b'"' => buf.push('"'),
                    b'\\' => buf.push('\\'),
                    b'/' => buf.push('/'),
                    b'b' => buf.push('\u{8}'),
                    b'f' => buf.push('\u{c}'),
                    b'n' => buf.push('\n'),
                    b'r' => buf.push('\r'),
                    b't' => buf.push('\t'),
                    b'u' => {
                        let hex = self
                            .bytes
                            .get(self.pos + 1..self.pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                        // surrogate halves are not paired up — the files we
                        // read are our own exports, which never emit them
                        buf.push(char::from_u32(code).ok_or_else(|| {
                            format!("\\u{code:04x} is not a scalar value at byte {}", self.pos)
                        })?);
                        self.pos += 4;
                    }
                    other => {
                        return Err(format!(
                            "unknown escape '\\{}' at byte {}",
                            *other as char, self.pos
                        ))
                    }
                }
                self.pos += 1;
                continue;
            }
            if b == b'"' {
                let s = match out {
                    Some(s) => s,
                    None => std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?
                        .to_string(),
                };
                self.pos += 1;
                return Ok(s);
            }
            if let Some(buf) = out.as_mut() {
                // re-borrow as str to keep multi-byte UTF-8 intact
                let rest =
                    std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or("unterminated string".to_string())?;
                buf.push(c);
                self.pos += c.len_utf8();
                continue;
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Field, String> {
        match self.peek() {
            Some(b'"') => Ok(Field::Str(self.string()?)),
            Some(b't') | Some(b'f') => {
                let rest = &self.bytes[self.pos..];
                if rest.starts_with(b"true") {
                    self.pos += 4;
                    Ok(Field::Bool(true))
                } else if rest.starts_with(b"false") {
                    self.pos += 5;
                    Ok(Field::Bool(false))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .parse::<f64>()
                    .map(Field::Num)
                    .map_err(|e| format!("bad number at byte {start}: {e}"))
            }
            other => Err(format!(
                "unexpected value start {other:?} at byte {}",
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, Field>, String> {
        self.expect(b'{')?;
        let mut obj = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(obj);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            obj.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(obj);
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array_of_objects(&mut self) -> Result<Vec<BTreeMap<String, Field>>, String> {
        self.expect(b'[')?;
        let mut rows = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(rows);
        }
        loop {
            rows.push(self.object()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(rows);
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

/// One benchmark configuration, keyed by `(workload, indexed)`.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    workload: String,
    indexed: bool,
    total_ms: f64,
    join_candidates: u64,
    alpha_bytes: u64,
}

fn parse_rows(src: &str, label: &str) -> Result<Vec<Row>, String> {
    let objs = Parser::new(src)
        .array_of_objects()
        .map_err(|e| format!("{label}: {e}"))?;
    objs.into_iter()
        .enumerate()
        .map(|(i, obj)| {
            let str_field = |k: &str| match obj.get(k) {
                Some(Field::Str(s)) => Ok(s.clone()),
                _ => Err(format!("{label}: row {i} missing string \"{k}\"")),
            };
            let bool_field = |k: &str| match obj.get(k) {
                Some(Field::Bool(b)) => Ok(*b),
                _ => Err(format!("{label}: row {i} missing bool \"{k}\"")),
            };
            let num_field = |k: &str| match obj.get(k) {
                Some(Field::Num(n)) => Ok(*n),
                _ => Err(format!("{label}: row {i} missing number \"{k}\"")),
            };
            Ok(Row {
                workload: str_field("workload")?,
                indexed: bool_field("indexed")?,
                total_ms: num_field("total_ms")?,
                join_candidates: num_field("join_candidates")? as u64,
                alpha_bytes: num_field("alpha_bytes")? as u64,
            })
        })
        .collect()
}

/// Compare fresh numbers to the baseline; returns every violation found
/// (empty = gate passes).
fn check(fresh: &[Row], baseline: &[Row]) -> Vec<String> {
    let mut violations = Vec::new();
    for base in baseline {
        let key = format!("{}/indexed={}", base.workload, base.indexed);
        let Some(now) = fresh
            .iter()
            .find(|r| r.workload == base.workload && r.indexed == base.indexed)
        else {
            violations.push(format!("{key}: missing from fresh results"));
            continue;
        };
        if base.indexed && now.total_ms > base.total_ms * TOTAL_MS_TOLERANCE {
            violations.push(format!(
                "{key}: total_ms regressed {:.3} -> {:.3} (>{:.0}% over baseline)",
                base.total_ms,
                now.total_ms,
                (TOTAL_MS_TOLERANCE - 1.0) * 100.0
            ));
        }
        if now.join_candidates > base.join_candidates {
            violations.push(format!(
                "{key}: join_candidates grew {} -> {} (an index stopped pruning)",
                base.join_candidates, now.join_candidates
            ));
        }
        if now.alpha_bytes as f64 > base.alpha_bytes as f64 * ALPHA_BYTES_TOLERANCE {
            violations.push(format!(
                "{key}: alpha_bytes regressed {} -> {} (>{:.0}% over baseline)",
                base.alpha_bytes,
                now.alpha_bytes,
                (ALPHA_BYTES_TOLERANCE - 1.0) * 100.0
            ));
        }
    }
    violations
}

/// Render the old → new change per fresh row (plus baseline rows that
/// disappear) for `--bless`.
fn bless_diff(fresh: &[Row], baseline: &[Row]) -> Vec<String> {
    let mut lines = Vec::new();
    for now in fresh {
        let key = format!("{}/indexed={}", now.workload, now.indexed);
        match baseline
            .iter()
            .find(|r| r.workload == now.workload && r.indexed == now.indexed)
        {
            Some(old) => lines.push(format!(
                "  {key}: total_ms {:.3} -> {:.3}, join_candidates {} -> {}, alpha_bytes {} -> {}",
                old.total_ms,
                now.total_ms,
                old.join_candidates,
                now.join_candidates,
                old.alpha_bytes,
                now.alpha_bytes
            )),
            None => lines.push(format!(
                "  {key}: new row (total_ms {:.3}, join_candidates {})",
                now.total_ms, now.join_candidates
            )),
        }
    }
    for old in baseline {
        if !fresh
            .iter()
            .any(|r| r.workload == old.workload && r.indexed == old.indexed)
        {
            lines.push(format!(
                "  {}/indexed={}: dropped from baseline",
                old.workload, old.indexed
            ));
        }
    }
    lines
}

/// Throughput tolerance for the serve gate: one-client commands/sec may
/// drop to 1/4 of baseline before failing. Wider than
/// [`TOTAL_MS_TOLERANCE`] because the baseline is measured on a developer
/// machine while CI hosts differ in syscall latency by small integer
/// factors; the regressions this gate exists for — a lost `TCP_NODELAY`
/// stalling on Nagle/delayed-ACK (~40 ms per round trip), a lock held
/// across a socket write — cost 2-3 orders of magnitude and cannot hide
/// inside any sane band.
const SERVE_CPS_TOLERANCE: f64 = 4.0;

/// One row of `BENCH_serve.json`, keyed by `clients`.
#[derive(Debug, Clone, PartialEq)]
struct ServeRow {
    clients: u64,
    cps: f64,
    p50_us: f64,
    p99_us: f64,
    cmd_errors: u64,
    protocol_errors: u64,
}

fn parse_serve_rows(src: &str, label: &str) -> Result<Vec<ServeRow>, String> {
    let objs = Parser::new(src)
        .array_of_objects()
        .map_err(|e| format!("{label}: {e}"))?;
    objs.into_iter()
        .enumerate()
        .map(|(i, obj)| {
            let num_field = |k: &str| match obj.get(k) {
                Some(Field::Num(n)) => Ok(*n),
                _ => Err(format!("{label}: row {i} missing number \"{k}\"")),
            };
            Ok(ServeRow {
                clients: num_field("clients")? as u64,
                cps: num_field("cps")?,
                p50_us: num_field("p50_us")?,
                p99_us: num_field("p99_us")?,
                cmd_errors: num_field("cmd_errors")? as u64,
                protocol_errors: num_field("protocol_errors")? as u64,
            })
        })
        .collect()
}

/// Gate the server benchmark; returns every violation found.
///
/// Correctness is gated hard: the workload is all-valid, so *any* command
/// or protocol error in a fresh row fails, as do nonsensical latency
/// percentiles (p99 < p50, or a zero p50 — the clock must have moved).
/// Throughput is gated only at **one client** — the uncontended round-trip
/// is the stablest number across hosts, while high-concurrency figures
/// move with the scheduler — and only against [`SERVE_CPS_TOLERANCE`].
/// Every baseline client count must still be measured.
fn check_serve(fresh: &[ServeRow], baseline: &[ServeRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in fresh {
        let key = format!("clients={}", r.clients);
        if r.cmd_errors != 0 {
            violations.push(format!(
                "{key}: {} command error(s) — the serve workload is all-valid",
                r.cmd_errors
            ));
        }
        if r.protocol_errors != 0 {
            violations.push(format!(
                "{key}: {} protocol error(s) — framing must be clean",
                r.protocol_errors
            ));
        }
        if r.p50_us <= 0.0 || r.p99_us < r.p50_us {
            violations.push(format!(
                "{key}: nonsensical latency percentiles (p50 {:.1} us, p99 {:.1} us)",
                r.p50_us, r.p99_us
            ));
        }
    }
    for base in baseline {
        let key = format!("clients={}", base.clients);
        let Some(now) = fresh.iter().find(|r| r.clients == base.clients) else {
            violations.push(format!("{key}: missing from fresh results"));
            continue;
        };
        if base.clients == 1 && now.cps < base.cps / SERVE_CPS_TOLERANCE {
            violations.push(format!(
                "{key}: commands/sec regressed {:.1} -> {:.1} (below 1/{:.0} of baseline)",
                base.cps, now.cps, SERVE_CPS_TOLERANCE
            ));
        }
    }
    violations
}

fn run_serve_gate(fresh_path: &str, base_path: &str, bless: bool) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|src| parse_serve_rows(&src, path))
    };
    let fresh = match load(fresh_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if bless {
        let baseline = load(base_path).unwrap_or_default();
        println!("bench_gate: blessing {fresh_path} -> {base_path}");
        for now in &fresh {
            let key = format!("clients={}", now.clients);
            match baseline.iter().find(|r| r.clients == now.clients) {
                Some(old) => println!(
                    "  {key}: cps {:.1} -> {:.1}, p99_us {:.1} -> {:.1}",
                    old.cps, now.cps, old.p99_us, now.p99_us
                ),
                None => println!(
                    "  {key}: new row (cps {:.1}, p99_us {:.1})",
                    now.cps, now.p99_us
                ),
            }
        }
        return match std::fs::copy(fresh_path, base_path) {
            Ok(_) => {
                println!("bench_gate: serve baseline updated ({} rows)", fresh.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_gate: cannot write {base_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let baseline = match load(base_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_gate: serve {fresh_path} vs {base_path} ({} baseline rows)",
        baseline.len()
    );
    for r in &fresh {
        println!(
            "  clients={:<3} cps {:>9.1}  p50_us {:>8.1}  p99_us {:>9.1}  errors {}/{}",
            r.clients, r.cps, r.p50_us, r.p99_us, r.cmd_errors, r.protocol_errors
        );
    }
    let violations = check_serve(&fresh, &baseline);
    if violations.is_empty() {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench_gate: FAIL {v}");
        }
        ExitCode::FAILURE
    }
}

/// One row of `BENCH_mem.json`, keyed by `config`.
#[derive(Debug, Clone, PartialEq)]
struct MemRow {
    config: String,
    total_ms: f64,
    alpha_entries: u64,
    alpha_bytes: u64,
}

/// Headroom for `alpha_bytes` drift against the baseline: the figure is
/// deterministic up to container growth patterns, so a 5% band absorbs
/// capacity rounding while a lost layout optimization (2-5×) cannot pass.
const ALPHA_BYTES_TOLERANCE: f64 = 1.05;

fn parse_mem_rows(src: &str, label: &str) -> Result<Vec<MemRow>, String> {
    let objs = Parser::new(src)
        .array_of_objects()
        .map_err(|e| format!("{label}: {e}"))?;
    objs.into_iter()
        .enumerate()
        .map(|(i, obj)| {
            let str_field = |k: &str| match obj.get(k) {
                Some(Field::Str(s)) => Ok(s.clone()),
                _ => Err(format!("{label}: row {i} missing string \"{k}\"")),
            };
            let num_field = |k: &str| match obj.get(k) {
                Some(Field::Num(n)) => Ok(*n),
                _ => Err(format!("{label}: row {i} missing number \"{k}\"")),
            };
            Ok(MemRow {
                config: str_field("config")?,
                total_ms: num_field("total_ms")?,
                alpha_entries: num_field("alpha_entries")? as u64,
                alpha_bytes: num_field("alpha_bytes")? as u64,
            })
        })
        .collect()
}

/// Gate the memory-layout benchmark; returns every violation found.
///
/// Self-consistency within the fresh file: both configs present, and the
/// interned layout strictly smaller than the legacy one. Against the
/// baseline: `alpha_entries` must match exactly (the layout must not
/// change what is matched), `alpha_bytes` must stay within
/// [`ALPHA_BYTES_TOLERANCE`], and the interned config's wall clock within
/// [`TOTAL_MS_TOLERANCE`].
fn check_mem(fresh: &[MemRow], baseline: &[MemRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let find = |rows: &[MemRow], config: &str| -> Option<MemRow> {
        rows.iter().find(|r| r.config == config).cloned()
    };
    match (find(fresh, "interned"), find(fresh, "legacy")) {
        (Some(interned), Some(legacy)) => {
            if interned.alpha_bytes >= legacy.alpha_bytes {
                violations.push(format!(
                    "interned: alpha_bytes {} not below legacy {} — \
                     interning stopped shrinking the α-memories",
                    interned.alpha_bytes, legacy.alpha_bytes
                ));
            }
        }
        (i, l) => {
            if i.is_none() {
                violations.push("interned: missing from fresh results".into());
            }
            if l.is_none() {
                violations.push("legacy: missing from fresh results".into());
            }
        }
    }
    for base in baseline {
        let Some(now) = find(fresh, &base.config) else {
            violations.push(format!("{}: missing from fresh results", base.config));
            continue;
        };
        if now.alpha_entries != base.alpha_entries {
            violations.push(format!(
                "{}: alpha_entries changed {} -> {} (the layout changed what is matched)",
                base.config, base.alpha_entries, now.alpha_entries
            ));
        }
        if now.alpha_bytes as f64 > base.alpha_bytes as f64 * ALPHA_BYTES_TOLERANCE {
            violations.push(format!(
                "{}: alpha_bytes regressed {} -> {} (>{:.0}% over baseline)",
                base.config,
                base.alpha_bytes,
                now.alpha_bytes,
                (ALPHA_BYTES_TOLERANCE - 1.0) * 100.0
            ));
        }
        if base.config == "interned" && now.total_ms > base.total_ms * TOTAL_MS_TOLERANCE {
            violations.push(format!(
                "{}: total_ms regressed {:.3} -> {:.3} (>{:.0}% over baseline)",
                base.config,
                base.total_ms,
                now.total_ms,
                (TOTAL_MS_TOLERANCE - 1.0) * 100.0
            ));
        }
    }
    violations
}

fn run_mem_gate(fresh_path: &str, base_path: &str, bless: bool) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|src| parse_mem_rows(&src, path))
    };
    let fresh = match load(fresh_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if bless {
        let baseline = load(base_path).unwrap_or_default();
        println!("bench_gate: blessing {fresh_path} -> {base_path}");
        for now in &fresh {
            match baseline.iter().find(|r| r.config == now.config) {
                Some(old) => println!(
                    "  {}: alpha_bytes {} -> {}, alpha_entries {} -> {}",
                    now.config,
                    old.alpha_bytes,
                    now.alpha_bytes,
                    old.alpha_entries,
                    now.alpha_entries
                ),
                None => println!(
                    "  {}: new row (alpha_bytes {}, alpha_entries {})",
                    now.config, now.alpha_bytes, now.alpha_entries
                ),
            }
        }
        return match std::fs::copy(fresh_path, base_path) {
            Ok(_) => {
                println!("bench_gate: mem baseline updated ({} rows)", fresh.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_gate: cannot write {base_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let baseline = match load(base_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_gate: mem {fresh_path} vs {base_path} ({} baseline rows)",
        baseline.len()
    );
    for r in &fresh {
        println!(
            "  {:>10} total_ms {:>9.3}  alpha_entries {:>8}  alpha_bytes {:>11}",
            r.config, r.total_ms, r.alpha_entries, r.alpha_bytes
        );
    }
    let violations = check_mem(&fresh, &baseline);
    if violations.is_empty() {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench_gate: FAIL {v}");
        }
        ExitCode::FAILURE
    }
}

/// One row of `BENCH_wal.json`, keyed by `mode`.
#[derive(Debug, Clone, PartialEq)]
struct WalRow {
    mode: String,
    total_ms: f64,
    wal_records: u64,
    wal_bytes: u64,
}

fn parse_wal_rows(src: &str, label: &str) -> Result<Vec<WalRow>, String> {
    let objs = Parser::new(src)
        .array_of_objects()
        .map_err(|e| format!("{label}: {e}"))?;
    objs.into_iter()
        .enumerate()
        .map(|(i, obj)| {
            let str_field = |k: &str| match obj.get(k) {
                Some(Field::Str(s)) => Ok(s.clone()),
                _ => Err(format!("{label}: row {i} missing string \"{k}\"")),
            };
            let num_field = |k: &str| match obj.get(k) {
                Some(Field::Num(n)) => Ok(*n),
                _ => Err(format!("{label}: row {i} missing number \"{k}\"")),
            };
            Ok(WalRow {
                mode: str_field("mode")?,
                total_ms: num_field("total_ms")?,
                wal_records: num_field("wal_records")? as u64,
                wal_bytes: num_field("wal_bytes")? as u64,
            })
        })
        .collect()
}

/// Gate the durability benchmark; returns every violation found.
///
/// Self-consistency within the fresh file: `off` logs nothing at all,
/// `commit` and `batch` log identical nonzero record/byte streams.
/// Against the baseline the per-mode counts must match **exactly** —
/// record streams are deterministic. Wall clock is never compared: fsync
/// latency is a property of the host, not the engine.
fn check_wal(fresh: &[WalRow], baseline: &[WalRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let find = |rows: &[WalRow], mode: &str| -> Option<WalRow> {
        rows.iter().find(|r| r.mode == mode).cloned()
    };
    if let Some(off) = find(fresh, "off") {
        if off.wal_records != 0 || off.wal_bytes != 0 {
            violations.push(format!(
                "off: logged {} record(s) / {} byte(s) — durability off \
                 must attach no writer",
                off.wal_records, off.wal_bytes
            ));
        }
    } else {
        violations.push("off: missing from fresh results".into());
    }
    match (find(fresh, "commit"), find(fresh, "batch")) {
        (Some(commit), Some(batch)) => {
            if commit.wal_records == 0 {
                violations.push("commit: zero records logged — the hooks went dead".into());
            }
            if commit.wal_records != batch.wal_records || commit.wal_bytes != batch.wal_bytes {
                violations.push(format!(
                    "commit vs batch: record streams diverged \
                     ({}/{} records, {}/{} bytes) — sync policy must not \
                     change what is logged",
                    commit.wal_records, batch.wal_records, commit.wal_bytes, batch.wal_bytes
                ));
            }
        }
        (c, b) => {
            if c.is_none() {
                violations.push("commit: missing from fresh results".into());
            }
            if b.is_none() {
                violations.push("batch: missing from fresh results".into());
            }
        }
    }
    for base in baseline {
        let Some(now) = find(fresh, &base.mode) else {
            violations.push(format!("{}: missing from fresh results", base.mode));
            continue;
        };
        if now.wal_records != base.wal_records {
            violations.push(format!(
                "{}: wal_records changed {} -> {} (the record stream is deterministic)",
                base.mode, base.wal_records, now.wal_records
            ));
        }
        if now.wal_bytes != base.wal_bytes {
            violations.push(format!(
                "{}: wal_bytes changed {} -> {} (the record encoding moved)",
                base.mode, base.wal_bytes, now.wal_bytes
            ));
        }
    }
    violations
}

fn run_wal_gate(fresh_path: &str, base_path: &str, bless: bool) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|src| parse_wal_rows(&src, path))
    };
    let fresh = match load(fresh_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if bless {
        let baseline = load(base_path).unwrap_or_default();
        println!("bench_gate: blessing {fresh_path} -> {base_path}");
        for now in &fresh {
            match baseline.iter().find(|r| r.mode == now.mode) {
                Some(old) => println!(
                    "  {}: wal_records {} -> {}, wal_bytes {} -> {}",
                    now.mode, old.wal_records, now.wal_records, old.wal_bytes, now.wal_bytes
                ),
                None => println!(
                    "  {}: new row (wal_records {}, wal_bytes {})",
                    now.mode, now.wal_records, now.wal_bytes
                ),
            }
        }
        return match std::fs::copy(fresh_path, base_path) {
            Ok(_) => {
                println!("bench_gate: wal baseline updated ({} rows)", fresh.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_gate: cannot write {base_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let baseline = match load(base_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_gate: wal {fresh_path} vs {base_path} ({} baseline rows)",
        baseline.len()
    );
    for r in &fresh {
        println!(
            "  {:>8} total_ms {:>9.3}  wal_records {:>8}  wal_bytes {:>10}",
            r.mode, r.total_ms, r.wal_records, r.wal_bytes
        );
    }
    let violations = check_wal(&fresh, &baseline);
    if violations.is_empty() {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench_gate: FAIL {v}");
        }
        ExitCode::FAILURE
    }
}

/// Telemetry overhead tolerance: the telemetry-on run may cost at most 10%
/// more wall clock than the telemetry-off run *within the same fresh
/// file*. Comparing on vs off from the same host and the same minute
/// cancels machine variance, so the band can be this narrow while absolute
/// wall clock is never compared against the baseline.
const OBS_OVERHEAD_TOLERANCE: f64 = 1.10;

/// One row of `BENCH_obs.json`, keyed by `config`.
#[derive(Debug, Clone, PartialEq)]
struct ObsRow {
    config: String,
    clients: u64,
    requests: u64,
    commands: u64,
    queries: u64,
    total_ms: f64,
}

fn parse_obs_rows(src: &str, label: &str) -> Result<Vec<ObsRow>, String> {
    let objs = Parser::new(src)
        .array_of_objects()
        .map_err(|e| format!("{label}: {e}"))?;
    objs.into_iter()
        .enumerate()
        .map(|(i, obj)| {
            let str_field = |k: &str| match obj.get(k) {
                Some(Field::Str(s)) => Ok(s.clone()),
                _ => Err(format!("{label}: row {i} missing string \"{k}\"")),
            };
            let num_field = |k: &str| match obj.get(k) {
                Some(Field::Num(n)) => Ok(*n),
                _ => Err(format!("{label}: row {i} missing number \"{k}\"")),
            };
            Ok(ObsRow {
                config: str_field("config")?,
                clients: num_field("clients")? as u64,
                requests: num_field("requests")? as u64,
                commands: num_field("commands")? as u64,
                queries: num_field("queries")? as u64,
                total_ms: num_field("total_ms")?,
            })
        })
        .collect()
}

/// Gate the telemetry-overhead benchmark; returns every violation found.
///
/// Self-consistency within the fresh file: both configs present, every
/// row's requests split exactly into commands + queries, and the
/// telemetry-on wall clock within [`OBS_OVERHEAD_TOLERANCE`] of the
/// telemetry-off wall clock measured in the same run. Against the
/// baseline the per-config request/command/query counts must match
/// **exactly** — the workload is deterministic for a client count, so any
/// drift means the request mix (or the server's counting) moved. Absolute
/// wall clock is never compared across runs.
fn check_obs(fresh: &[ObsRow], baseline: &[ObsRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let find = |rows: &[ObsRow], config: &str| -> Option<ObsRow> {
        rows.iter().find(|r| r.config == config).cloned()
    };
    for r in fresh {
        if r.commands + r.queries != r.requests {
            violations.push(format!(
                "{}: {} commands + {} queries != {} requests — the server \
                 lost or double-counted frames",
                r.config, r.commands, r.queries, r.requests
            ));
        }
        if r.total_ms <= 0.0 {
            violations.push(format!(
                "{}: nonsensical wall clock ({} ms)",
                r.config, r.total_ms
            ));
        }
    }
    match (find(fresh, "telemetry_off"), find(fresh, "telemetry_on")) {
        (Some(off), Some(on)) => {
            if on.total_ms > off.total_ms * OBS_OVERHEAD_TOLERANCE {
                violations.push(format!(
                    "telemetry overhead {:.1}% (off {:.3} ms, on {:.3} ms) — \
                     must stay under {:.0}%",
                    (on.total_ms / off.total_ms - 1.0) * 100.0,
                    off.total_ms,
                    on.total_ms,
                    (OBS_OVERHEAD_TOLERANCE - 1.0) * 100.0
                ));
            }
        }
        (off, on) => {
            if off.is_none() {
                violations.push("telemetry_off: missing from fresh results".into());
            }
            if on.is_none() {
                violations.push("telemetry_on: missing from fresh results".into());
            }
        }
    }
    for base in baseline {
        let Some(now) = find(fresh, &base.config) else {
            violations.push(format!("{}: missing from fresh results", base.config));
            continue;
        };
        for (what, old, new) in [
            ("requests", base.requests, now.requests),
            ("commands", base.commands, now.commands),
            ("queries", base.queries, now.queries),
        ] {
            if old != new {
                violations.push(format!(
                    "{}: {what} changed {old} -> {new} (the workload is deterministic)",
                    base.config
                ));
            }
        }
    }
    violations
}

fn run_obs_gate(fresh_path: &str, base_path: &str, bless: bool) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|src| parse_obs_rows(&src, path))
    };
    let fresh = match load(fresh_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if bless {
        let baseline = load(base_path).unwrap_or_default();
        println!("bench_gate: blessing {fresh_path} -> {base_path}");
        for now in &fresh {
            match baseline.iter().find(|r| r.config == now.config) {
                Some(old) => println!(
                    "  {}: requests {} -> {}, total_ms {:.3} -> {:.3}",
                    now.config, old.requests, now.requests, old.total_ms, now.total_ms
                ),
                None => println!(
                    "  {}: new row (requests {}, total_ms {:.3})",
                    now.config, now.requests, now.total_ms
                ),
            }
        }
        return match std::fs::copy(fresh_path, base_path) {
            Ok(_) => {
                println!("bench_gate: obs baseline updated ({} rows)", fresh.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_gate: cannot write {base_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let baseline = match load(base_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_gate: obs {fresh_path} vs {base_path} ({} baseline rows)",
        baseline.len()
    );
    for r in &fresh {
        println!(
            "  {:>15} clients {:>3}  requests {:>6}  total_ms {:>9.3}",
            r.config, r.clients, r.requests, r.total_ms
        );
    }
    let violations = check_obs(&fresh, &baseline);
    if violations.is_empty() {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench_gate: FAIL {v}");
        }
        ExitCode::FAILURE
    }
}

/// Extract the targets of inline markdown links (`[text](target)` and
/// `![alt](target)`), dropping external schemes, pure anchors, and any
/// `#fragment` / `"title"` suffix.
fn link_targets(markdown: &str) -> Vec<String> {
    let bytes = markdown.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(len) = markdown[start..].find(')') {
                let raw = &markdown[start..start + len];
                // strip an optional "title" and any #fragment
                let target = raw.split_whitespace().next().unwrap_or("");
                let target = target.split('#').next().unwrap_or("");
                let external = target.contains("://") || target.starts_with("mailto:");
                if !target.is_empty() && !external {
                    out.push(target.to_string());
                }
                i = start + len;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Check every relative link in `README.md` and `docs/*.md` under `root`;
/// returns `(files_checked, links_checked, violations)`.
fn check_links(root: &Path) -> Result<(usize, usize, Vec<String>), String> {
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    if docs.is_dir() {
        let mut md: Vec<_> = std::fs::read_dir(&docs)
            .map_err(|e| format!("cannot read {}: {e}", docs.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "md"))
            .collect();
        md.sort();
        files.extend(md);
    }
    let mut checked = 0;
    let mut violations = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let dir = file.parent().unwrap_or(root);
        for target in link_targets(&src) {
            checked += 1;
            // a leading '/' means repo-root-relative, everything else is
            // relative to the linking file
            let resolved = match target.strip_prefix('/') {
                Some(rest) => root.join(rest),
                None => dir.join(&target),
            };
            if !resolved.exists() {
                violations.push(format!(
                    "{}: broken link '{}' ({} does not exist)",
                    file.display(),
                    target,
                    resolved.display()
                ));
            }
        }
    }
    Ok((files.len(), checked, violations))
}

fn run_links(root: &str) -> ExitCode {
    match check_links(Path::new(root)) {
        Ok((files, links, violations)) => {
            println!("bench_gate: links — {files} files, {links} relative links");
            if violations.is_empty() {
                println!("bench_gate: PASS");
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    eprintln!("bench_gate: FAIL {v}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    args.retain(|a| a != "--bless");
    match args.first().map(String::as_str) {
        Some("links") => {
            return run_links(args.get(1).map_or(".", String::as_str));
        }
        Some("mem") => {
            let fresh = args.get(1).map_or("BENCH_mem.json", String::as_str);
            let base = args
                .get(2)
                .map_or("BENCH_mem_baseline.json", String::as_str);
            return run_mem_gate(fresh, base, bless);
        }
        Some("serve") => {
            let fresh = args.get(1).map_or("BENCH_serve.json", String::as_str);
            let base = args
                .get(2)
                .map_or("BENCH_serve_baseline.json", String::as_str);
            return run_serve_gate(fresh, base, bless);
        }
        Some("wal") => {
            let fresh = args.get(1).map_or("BENCH_wal.json", String::as_str);
            let base = args
                .get(2)
                .map_or("BENCH_wal_baseline.json", String::as_str);
            return run_wal_gate(fresh, base, bless);
        }
        Some("obs") => {
            let fresh = args.get(1).map_or("BENCH_obs.json", String::as_str);
            let base = args
                .get(2)
                .map_or("BENCH_obs_baseline.json", String::as_str);
            return run_obs_gate(fresh, base, bless);
        }
        _ => {}
    }
    let fresh_path = args.first().map_or("BENCH_join.json", String::as_str);
    let base_path = args.get(1).map_or("BENCH_baseline.json", String::as_str);
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|src| parse_rows(&src, path))
    };
    if bless {
        let fresh = match load(fresh_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::FAILURE;
            }
        };
        // a missing baseline just means blessing from scratch
        let baseline = load(base_path).unwrap_or_default();
        println!("bench_gate: blessing {fresh_path} -> {base_path}");
        for line in bless_diff(&fresh, &baseline) {
            println!("{line}");
        }
        return match std::fs::copy(fresh_path, base_path) {
            Ok(_) => {
                println!("bench_gate: baseline updated ({} rows)", fresh.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_gate: cannot write {base_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (fresh, baseline) = match (load(fresh_path), load(base_path)) {
        (Ok(f), Ok(b)) => (f, b),
        (f, b) => {
            for e in [f.err(), b.err()].into_iter().flatten() {
                eprintln!("bench_gate: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_gate: {fresh_path} vs {base_path} ({} baseline rows)",
        baseline.len()
    );
    for base in &baseline {
        if let Some(now) = fresh
            .iter()
            .find(|r| r.workload == base.workload && r.indexed == base.indexed)
        {
            println!(
                "  {:>15}/indexed={:<5} total_ms {:>9.3} -> {:>9.3}  join_candidates {:>9} -> {:>9}  alpha_bytes {:>9} -> {:>9}",
                base.workload,
                base.indexed,
                base.total_ms,
                now.total_ms,
                base.join_candidates,
                now.join_candidates,
                base.alpha_bytes,
                now.alpha_bytes
            );
        }
    }
    let violations = check(&fresh, &baseline);
    if violations.is_empty() {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench_gate: FAIL {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_row(clients: u64, cps: f64, p50_us: f64, p99_us: f64) -> ServeRow {
        ServeRow {
            clients,
            cps,
            p50_us,
            p99_us,
            cmd_errors: 0,
            protocol_errors: 0,
        }
    }

    #[test]
    fn parses_serve_rows() {
        let src = r#"[{"clients":1,"requests":200,"total_ms":50.0,"cps":4000.0,
            "p50_us":210.5,"p99_us":900.0,"cmd_errors":0,"protocol_errors":0,
            "batches":180,"batched_requests":0,"max_batch":1}]"#;
        let rows = parse_serve_rows(src, "test").unwrap();
        assert_eq!(rows, vec![serve_row(1, 4000.0, 210.5, 900.0)]);
        assert!(parse_serve_rows("[{\"clients\":\"x\"}]", "test").is_err());
    }

    #[test]
    fn serve_gate_passes_clean_run() {
        let fresh = vec![
            serve_row(1, 4000.0, 200.0, 900.0),
            serve_row(4, 9000.0, 300.0, 2000.0),
        ];
        let base = fresh.clone();
        assert!(check_serve(&fresh, &base).is_empty());
        // faster than baseline is fine, and high-concurrency cps is not gated
        let better = vec![
            serve_row(1, 9999.0, 100.0, 400.0),
            serve_row(4, 1.0, 300.0, 2000.0),
        ];
        assert!(check_serve(&better, &base).is_empty());
    }

    #[test]
    fn serve_gate_catches_errors_latency_and_regression() {
        let base = vec![
            serve_row(1, 4000.0, 200.0, 900.0),
            serve_row(4, 9000.0, 300.0, 2000.0),
        ];
        // command/protocol errors fail
        let mut bad = base.clone();
        bad[0].cmd_errors = 1;
        bad[1].protocol_errors = 2;
        assert_eq!(check_serve(&bad, &base).len(), 2);
        // nonsensical percentiles fail
        let upside_down = vec![serve_row(1, 4000.0, 900.0, 200.0), base[1].clone()];
        assert_eq!(check_serve(&upside_down, &base).len(), 1);
        // one-client throughput collapse fails; within tolerance passes
        let slow = vec![serve_row(1, 4000.0 / 5.0, 200.0, 900.0), base[1].clone()];
        assert_eq!(check_serve(&slow, &base).len(), 1);
        let ok = vec![serve_row(1, 4000.0 / 3.0, 200.0, 900.0), base[1].clone()];
        assert!(check_serve(&ok, &base).is_empty());
        // a dropped client count fails
        let missing = vec![base[0].clone()];
        assert_eq!(check_serve(&missing, &base).len(), 1);
    }

    fn row(workload: &str, indexed: bool, total_ms: f64, join_candidates: u64) -> Row {
        Row {
            workload: workload.into(),
            indexed,
            total_ms,
            join_candidates,
            alpha_bytes: 0,
        }
    }

    #[test]
    fn parses_paper_tables_output() {
        let src = r#"[{"workload":"fig12-band","indexed":true,"total_ms":100.267,
            "join_candidates":79650,"index_probes":0,"index_hits":0,
            "range_probes":10000,"range_hits":9975,"alpha_bytes":9533400}]"#;
        let rows = parse_rows(src, "test").unwrap();
        let want = Row {
            alpha_bytes: 9533400,
            ..row("fig12-band", true, 100.267, 79650)
        };
        assert_eq!(rows, vec![want]);
        assert!(parse_rows("[", "test").is_err());
        assert!(parse_rows("[{\"workload\":1}]", "test").is_err());
        assert_eq!(parse_rows("[]", "test").unwrap(), vec![]);
    }

    #[test]
    fn string_escapes_are_decoded() {
        let src = r#"[{"workload":"say \"hi\" \\ \/ \n\té done",
            "indexed":false,"total_ms":1.0,"join_candidates":2,"alpha_bytes":0}]"#;
        let rows = parse_rows(src, "test").unwrap();
        assert_eq!(rows[0].workload, "say \"hi\" \\ / \n\té done");
        // escaped keys decode too
        let keyed = r#"[{"workload":"w","indexed":true,"total_ms":1.0,"join_candidates":0,
            "alpha_bytes":0}]"#;
        assert_eq!(parse_rows(keyed, "test").unwrap()[0].workload, "w");
        // malformed escapes still error
        assert!(parse_rows(
            r#"[{"workload":"bad \x","indexed":true,"total_ms":1,"join_candidates":0}]"#,
            "test"
        )
        .is_err());
        assert!(parse_rows(
            r#"[{"workload":"bad \u12","indexed":true,"total_ms":1,"join_candidates":0}]"#,
            "test"
        )
        .is_err());
        assert!(parse_rows(r#"[{"workload":"bad \"#, "test").is_err());
    }

    #[test]
    fn gate_passes_on_identical_and_on_noise_within_tolerance() {
        let base = vec![row("w", true, 10.0, 100), row("w", false, 50.0, 500)];
        assert!(check(&base, &base).is_empty());
        // +40% wall clock and fewer candidates: still fine
        let fresh = vec![row("w", true, 14.0, 90), row("w", false, 70.0, 500)];
        assert!(check(&fresh, &base).is_empty());
    }

    #[test]
    fn gate_fails_on_injected_time_regression() {
        let base = vec![row("w", true, 10.0, 100)];
        let fresh = vec![row("w", true, 16.0, 100)];
        let v = check(&fresh, &base);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("total_ms regressed"), "{v:?}");
    }

    #[test]
    fn gate_fails_on_candidate_growth_even_unindexed() {
        let base = vec![row("w", false, 50.0, 500)];
        let fresh = vec![row("w", false, 10.0, 501)];
        let v = check(&fresh, &base);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("join_candidates grew"), "{v:?}");
    }

    #[test]
    fn gate_fails_on_missing_workload_and_ignores_unindexed_time() {
        let base = vec![row("gone", true, 10.0, 100), row("w", false, 50.0, 500)];
        // unindexed wall clock may drift freely — only candidates matter
        let fresh = vec![row("w", false, 500.0, 500)];
        let v = check(&fresh, &base);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing from fresh"), "{v:?}");
    }

    fn mem(config: &str, total_ms: f64, alpha_entries: u64, alpha_bytes: u64) -> MemRow {
        MemRow {
            config: config.into(),
            total_ms,
            alpha_entries,
            alpha_bytes,
        }
    }

    #[test]
    fn parses_mem_snapshot_output() {
        let src = r#"[{"config":"interned","total_ms":8.1,"alpha_entries":1200,
            "alpha_bytes":90000,"bytes_per_entry":75.0,"symbols":225,
            "symbol_bytes":12000,"arena_takes":5000,"arena_reuses":4990,
            "arena_high_water_bytes":8192}]"#;
        let rows = parse_mem_rows(src, "test").unwrap();
        assert_eq!(rows, vec![mem("interned", 8.1, 1200, 90000)]);
        assert!(parse_mem_rows("[{\"config\":1}]", "test").is_err());
    }

    #[test]
    fn mem_gate_passes_when_interning_shrinks_alpha() {
        let fresh = vec![
            mem("interned", 8.0, 1200, 90_000),
            mem("legacy", 10.0, 1200, 150_000),
        ];
        assert!(check_mem(&fresh, &fresh).is_empty());
        // blessing from scratch passes too
        assert!(check_mem(&fresh, &[]).is_empty());
        // noise within tolerance: +4% bytes, +40% interned wall clock
        let noisy = vec![
            mem("interned", 11.0, 1200, 93_000),
            mem("legacy", 25.0, 1200, 155_000),
        ];
        assert!(check_mem(&noisy, &fresh).is_empty());
    }

    #[test]
    fn mem_gate_fails_when_interning_stops_helping() {
        let fresh = vec![
            mem("interned", 8.0, 1200, 150_000),
            mem("legacy", 10.0, 1200, 150_000),
        ];
        let v = check_mem(&fresh, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("not below legacy"), "{v:?}");
    }

    #[test]
    fn mem_gate_fails_on_regressions_vs_baseline() {
        let base = vec![
            mem("interned", 8.0, 1200, 90_000),
            mem("legacy", 10.0, 1200, 150_000),
        ];
        // bytes +10%, entries drifted, interned wall clock 2x
        let fresh = vec![
            mem("interned", 17.0, 1201, 99_001),
            mem("legacy", 10.0, 1200, 150_000),
        ];
        let v = check_mem(&fresh, &base);
        assert!(
            v.iter().any(|m| m.contains("alpha_entries changed")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|m| m.contains("alpha_bytes regressed")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("total_ms regressed")), "{v:?}");
        // missing config rows are flagged both ways
        let v = check_mem(&[mem("legacy", 10.0, 1200, 150_000)], &base);
        assert!(
            v.iter().any(|m| m.contains("interned: missing from fresh")),
            "{v:?}"
        );
    }

    fn wal(mode: &str, total_ms: f64, wal_records: u64, wal_bytes: u64) -> WalRow {
        WalRow {
            mode: mode.into(),
            total_ms,
            wal_records,
            wal_bytes,
        }
    }

    #[test]
    fn parses_wal_snapshot_output() {
        let src = r#"[{"mode":"commit","total_ms":42.125,"wal_records":1000,
            "wal_bytes":65000}]"#;
        let rows = parse_wal_rows(src, "test").unwrap();
        assert_eq!(rows, vec![wal("commit", 42.125, 1000, 65000)]);
        assert!(parse_wal_rows("[{\"mode\":1}]", "test").is_err());
    }

    #[test]
    fn wal_gate_passes_clean_run_and_ignores_wall_clock() {
        let fresh = vec![
            wal("off", 5.0, 0, 0),
            wal("commit", 80.0, 1000, 65000),
            wal("batch", 12.0, 1000, 65000),
        ];
        assert!(check_wal(&fresh, &fresh).is_empty());
        // blessing from scratch passes too
        assert!(check_wal(&fresh, &[]).is_empty());
        // wall clock may drift arbitrarily — fsync cost is the host's
        let slow = vec![
            wal("off", 500.0, 0, 0),
            wal("commit", 8000.0, 1000, 65000),
            wal("batch", 1200.0, 1000, 65000),
        ];
        assert!(check_wal(&slow, &fresh).is_empty());
    }

    #[test]
    fn wal_gate_fails_when_off_logs_or_streams_diverge() {
        let base = vec![
            wal("off", 5.0, 0, 0),
            wal("commit", 80.0, 1000, 65000),
            wal("batch", 12.0, 1000, 65000),
        ];
        // off logging anything means the zero-overhead guarantee broke
        let leaking = vec![wal("off", 5.0, 3, 120), base[1].clone(), base[2].clone()];
        let v = check_wal(&leaking, &base);
        assert!(
            v.iter().any(|m| m.contains("must attach no writer")),
            "{v:?}"
        );
        // commit/batch diverging means the sync policy changed the stream
        let diverged = vec![
            base[0].clone(),
            wal("commit", 80.0, 1000, 65000),
            wal("batch", 12.0, 999, 64930),
        ];
        let v = check_wal(&diverged, &base);
        assert!(
            v.iter().any(|m| m.contains("record streams diverged")),
            "{v:?}"
        );
        // dead hooks: zero commit records
        let dead = vec![
            base[0].clone(),
            wal("commit", 80.0, 0, 0),
            wal("batch", 12.0, 0, 0),
        ];
        let v = check_wal(&dead, &base);
        assert!(v.iter().any(|m| m.contains("hooks went dead")), "{v:?}");
    }

    #[test]
    fn wal_gate_fails_on_count_drift_and_missing_modes() {
        let base = vec![
            wal("off", 5.0, 0, 0),
            wal("commit", 80.0, 1000, 65000),
            wal("batch", 12.0, 1000, 65000),
        ];
        let drifted = vec![
            base[0].clone(),
            wal("commit", 80.0, 1002, 65130),
            wal("batch", 12.0, 1002, 65130),
        ];
        let v = check_wal(&drifted, &base);
        assert!(v.iter().any(|m| m.contains("wal_records changed")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("wal_bytes changed")), "{v:?}");
        let missing = vec![base[0].clone(), base[1].clone()];
        let v = check_wal(&missing, &base);
        assert!(
            v.iter().any(|m| m.contains("batch: missing from fresh")),
            "{v:?}"
        );
    }

    fn obs(config: &str, total_ms: f64) -> ObsRow {
        ObsRow {
            config: config.into(),
            clients: 8,
            requests: 1600,
            commands: 1280,
            queries: 320,
            total_ms,
        }
    }

    #[test]
    fn parses_obs_snapshot_output() {
        let src = r#"[{"config":"telemetry_off","clients":8,"requests":1600,
            "commands":1280,"queries":320,"total_ms":120.500,"cps":13278.0}]"#;
        let rows = parse_obs_rows(src, "test").unwrap();
        assert_eq!(rows, vec![obs("telemetry_off", 120.5)]);
        assert!(parse_obs_rows("[{\"config\":1}]", "test").is_err());
    }

    #[test]
    fn obs_gate_passes_within_overhead_band() {
        let fresh = vec![obs("telemetry_off", 100.0), obs("telemetry_on", 109.0)];
        assert!(check_obs(&fresh, &fresh).is_empty());
        // blessing from scratch passes too
        assert!(check_obs(&fresh, &[]).is_empty());
        // absolute wall clock may drift arbitrarily across runs — only the
        // on/off ratio within the fresh file is held
        let slow = vec![obs("telemetry_off", 900.0), obs("telemetry_on", 950.0)];
        assert!(check_obs(&slow, &fresh).is_empty());
    }

    #[test]
    fn obs_gate_fails_on_overhead_and_inconsistency() {
        let base = vec![obs("telemetry_off", 100.0), obs("telemetry_on", 105.0)];
        // 20% overhead breaches the 10% band
        let costly = vec![obs("telemetry_off", 100.0), obs("telemetry_on", 120.0)];
        let v = check_obs(&costly, &base);
        assert!(v.iter().any(|m| m.contains("telemetry overhead")), "{v:?}");
        // requests must split exactly into commands + queries
        let mut torn = base.clone();
        torn[0].commands = 1279;
        let v = check_obs(&torn, &base);
        assert!(v.iter().any(|m| m.contains("!= 1600 requests")), "{v:?}");
        // both configs must be present
        let v = check_obs(&base[..1], &base);
        assert!(
            v.iter()
                .any(|m| m.contains("telemetry_on: missing from fresh")),
            "{v:?}"
        );
    }

    #[test]
    fn obs_gate_fails_on_count_drift() {
        let base = vec![obs("telemetry_off", 100.0), obs("telemetry_on", 105.0)];
        let mut drifted = base.clone();
        drifted[1].requests = 1590;
        drifted[1].commands = 1270;
        let v = check_obs(&drifted, &base);
        assert!(
            v.iter()
                .any(|m| m.contains("requests changed 1600 -> 1590")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|m| m.contains("commands changed 1280 -> 1270")),
            "{v:?}"
        );
    }

    #[test]
    fn link_targets_are_extracted_and_filtered() {
        let md = "see [arch](docs/ARCHITECTURE.md) and [site](https://x.y/z), \
                  ![img](fig.png \"title\"), [anchor](#top), \
                  [frag](README.md#usage), [root](/LICENSE-MIT)";
        assert_eq!(
            link_targets(md),
            vec![
                "docs/ARCHITECTURE.md",
                "fig.png",
                "README.md",
                "/LICENSE-MIT"
            ]
        );
    }

    #[test]
    fn check_links_flags_broken_relative_links() {
        let root = std::env::temp_dir().join(format!("linkchk-{}", std::process::id()));
        let docs = root.join("docs");
        std::fs::create_dir_all(&docs).unwrap();
        std::fs::write(
            root.join("README.md"),
            "[ok](docs/GOOD.md) [bad](docs/MISSING.md) [ext](https://a.b)",
        )
        .unwrap();
        std::fs::write(docs.join("GOOD.md"), "[up](../README.md) [r](/README.md)").unwrap();
        let (files, links, violations) = check_links(&root).unwrap();
        assert_eq!(files, 2);
        assert_eq!(links, 4);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("docs/MISSING.md"), "{violations:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gate_holds_alpha_bytes_within_five_percent() {
        let sized = |alpha_bytes: u64| Row {
            alpha_bytes,
            ..row("w", true, 10.0, 100)
        };
        let base = vec![sized(1000)];
        // within the band, and shrinking, pass
        assert!(check(&[sized(1050)], &base).is_empty());
        assert!(check(&[sized(500)], &base).is_empty());
        // growth past 5% fails
        let v = check(&[sized(1051)], &base);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("alpha_bytes regressed 1000 -> 1051"), "{v:?}");
    }

    #[test]
    fn bless_diff_covers_changed_new_and_dropped_rows() {
        let base = vec![row("w", true, 10.0, 100), row("gone", false, 5.0, 50)];
        let fresh = vec![row("w", true, 12.0, 90), row("new", true, 1.0, 10)];
        let lines = bless_diff(&fresh, &base);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("total_ms 10.000 -> 12.000"), "{lines:?}");
        assert!(lines[0].contains("join_candidates 100 -> 90"), "{lines:?}");
        assert!(lines[1].contains("new row"), "{lines:?}");
        assert!(lines[2].contains("dropped from baseline"), "{lines:?}");
        // blessing from scratch: every row is new
        let scratch = bless_diff(&fresh, &[]);
        assert!(scratch.iter().all(|l| l.contains("new row")), "{scratch:?}");
    }
}
