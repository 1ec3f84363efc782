//! CI benchmark regression gates.
//!
//! Each gate diffs a fresh `BENCH_*.json` (written by `paper_tables`)
//! against its checked-in baseline. One table, [`GATES`], says per file
//! which columns name a row, which must equal the baseline, which may move
//! only within a ratio band, and which rules must hold within the fresh
//! file alone. What each gate holds, and why, is tabled once in
//! `docs/OBSERVABILITY.md` (*Benchmark gates*).
//!
//! ```text
//! bench_gate                            # the joins gate on its default paths
//! bench_gate fresh.json baseline.json   # the joins gate on explicit paths
//! bench_gate mem [fresh [baseline]]     # one gate
//! bench_gate joins mem obs serve wal    # several gates on their default paths
//! bench_gate <gate…> --bless            # accept the fresh files as baselines
//! bench_gate links [root]               # relative links in README.md and docs/*.md
//! ```
//!
//! `--bless` prints the old → new change of every gated column per row
//! (and the new and dropped rows), then copies the fresh file over the
//! baseline: the sanctioned way to accept a legitimate shift. A missing or
//! unreadable baseline blesses from scratch.

use ariel_bench::table::{parse_json, render, Cell, Row};
use std::path::Path;
use std::process::ExitCode;

/// A ratio band against the baseline: the fresh value must lie within
/// `[lo·baseline, hi·baseline]`, on the rows whose `only` column reads the
/// given value (every row when `None`).
struct Bound {
    column: &'static str,
    lo: f64,
    hi: f64,
    only: Option<(&'static str, &'static str)>,
}

const fn band(column: &'static str, lo: f64, hi: f64) -> Bound {
    Bound {
        column,
        lo,
        hi,
        only: None,
    }
}

impl Bound {
    const fn only(self, column: &'static str, value: &'static str) -> Bound {
        Bound {
            only: Some((column, value)),
            ..self
        }
    }
}

struct Gate {
    name: &'static str,
    fresh: &'static str,
    baseline: &'static str,
    /// Columns that name a row; a baseline row missing from the fresh
    /// file fails the gate.
    keys: &'static [&'static str],
    /// Columns that must equal the baseline.
    exact: &'static [&'static str],
    bounds: &'static [Bound],
    /// Rules over the fresh file alone, `"[row:] left op right — why"`:
    /// on the row with that label (which must be present) or on every
    /// row, `left op right` must hold, where `op` is one of `== <= >= < >`
    /// and a side is a number, a column, `a + b` of two columns, or
    /// `row.column` of another row.
    rules: &'static [&'static str],
}

/// Wall clock may grow by half before it fails: ordinary machine noise
/// passes, a lost index (typically 5-20×) cannot.
const SLOWER: f64 = 1.5;

/// `alpha_bytes` is deterministic up to container capacity rounding, so a
/// ±5% band absorbs that while a lost layout optimization (2-5×) cannot
/// pass — and a saving has to be blessed in rather than widen the band.
const ALPHA_BYTES: Bound = band("alpha_bytes", 0.95, 1.05);

const GATES: &[Gate] = &[
    Gate {
        name: "joins",
        fresh: "BENCH_join.json",
        baseline: "BENCH_baseline.json",
        keys: &["workload", "indexed"],
        exact: &[],
        bounds: &[
            band("total_ms", 0.0, SLOWER).only("indexed", "true"),
            // candidate counts are deterministic: growth means an index
            // stopped pruning
            band("join_candidates", 0.0, 1.0),
            ALPHA_BYTES,
        ],
        rules: &[],
    },
    Gate {
        name: "mem",
        fresh: "BENCH_mem.json",
        baseline: "BENCH_mem_baseline.json",
        keys: &["config"],
        exact: &["alpha_entries"],
        bounds: &[
            ALPHA_BYTES,
            band("total_ms", 0.0, SLOWER).only("config", "interned"),
        ],
        rules: &["interned: alpha_bytes < legacy.alpha_bytes — interning must shrink the α-memories"],
    },
    Gate {
        name: "obs",
        fresh: "BENCH_obs.json",
        baseline: "BENCH_obs_baseline.json",
        keys: &["config"],
        exact: &["requests", "commands", "queries"],
        bounds: &[],
        rules: &[
            "commands + queries == requests — the server lost or double-counted frames",
            "total_ms > 0 — the clock must move",
            "telemetry_off: vs_off == 1 — each pair is measured against its telemetry-off run",
            "telemetry_on: vs_off <= 1.10 — telemetry may cost at most 10%",
        ],
    },
    Gate {
        name: "serve",
        fresh: "BENCH_serve.json",
        baseline: "BENCH_serve_baseline.json",
        keys: &["clients"],
        exact: &["requests"],
        // uncontended round trips are the stablest figure across hosts; a
        // Nagle stall or a lock held across a write costs far more than 4×
        bounds: &[band("cps", 0.25, f64::INFINITY).only("clients", "1")],
        rules: &[
            "cmd_errors == 0 — the serve workload is all-valid",
            "protocol_errors == 0 — framing must be clean",
            "p50_us > 0 — the clock must move",
            "p99_us >= p50_us — percentiles are ordered",
        ],
    },
    Gate {
        name: "wal",
        fresh: "BENCH_wal.json",
        baseline: "BENCH_wal_baseline.json",
        keys: &["mode"],
        exact: &["wal_records", "wal_bytes"],
        bounds: &[],
        rules: &[
            "off: wal_records == 0 — durability off must attach no writer",
            "off: wal_bytes == 0 — durability off must attach no writer",
            "commit: wal_records > 0 — the hooks went dead",
            "commit: wal_records == batch.wal_records — the sync policy must not change what is logged",
            "commit: wal_bytes == batch.wal_bytes — the sync policy must not change what is logged",
        ],
    },
];

/// A rule split into its row (if any), sides, operator and reason.
struct Rule<'a> {
    row: Option<&'a str>,
    left: &'a str,
    op: &'a str,
    right: &'a str,
    why: &'a str,
}

impl<'a> Rule<'a> {
    fn parse(rule: &'a str) -> Rule<'a> {
        let (rule, why) = rule.split_once(" — ").unwrap_or((rule, ""));
        let (row, expr) = match rule.split_once(": ") {
            Some((row, expr)) => (Some(row), expr),
            None => (None, rule),
        };
        let (op, (left, right)) = [" == ", " <= ", " >= ", " < ", " > "]
            .iter()
            .find_map(|op| Some((op.trim(), expr.split_once(op)?)))
            .unwrap_or_else(|| panic!("rule `{rule}` compares nothing"));
        Rule {
            row,
            left,
            op,
            right,
            why,
        }
    }

    fn holds(&self, a: f64, b: f64) -> bool {
        match self.op {
            "==" => a == b,
            "<=" => a <= b,
            ">=" => a >= b,
            "<" => a < b,
            _ => a > b,
        }
    }
}

/// The columns a rule side reads.
fn side_columns(side: &str) -> Vec<&str> {
    if side.parse::<f64>().is_ok() {
        vec![]
    } else if let Some((a, b)) = side.split_once(" + ") {
        vec![a, b]
    } else {
        vec![side.split_once('.').map_or(side, |(_, col)| col)]
    }
}

impl Gate {
    /// Every column the gate reads, keys first, without repeats.
    fn columns(&self) -> Vec<&'static str> {
        let mut cols: Vec<&'static str> = self.keys.to_vec();
        cols.extend(self.exact);
        for b in self.bounds {
            cols.push(b.column);
            cols.extend(b.only.map(|(c, _)| c));
        }
        for r in self.rules.iter().map(|r| Rule::parse(r)) {
            cols.extend(side_columns(r.left));
            cols.extend(side_columns(r.right));
        }
        let mut seen = Vec::new();
        cols.retain(|c| {
            let new = !seen.contains(c);
            seen.push(*c);
            new
        });
        cols
    }

    fn label(&self, row: &Row) -> String {
        row.label(self.keys)
    }

    fn find<'a>(&self, rows: &'a [Row], label: &str) -> Option<&'a Row> {
        rows.iter().find(|r| self.label(r) == label)
    }

    /// A rule side's value on `row`.
    fn side(&self, side: &str, row: &Row, fresh: &[Row]) -> Result<f64, String> {
        let num = |r: &Row, c: &str| r.num(c).unwrap_or(f64::NAN);
        if let Ok(x) = side.parse() {
            Ok(x)
        } else if let Some((a, b)) = side.split_once(" + ") {
            Ok(num(row, a) + num(row, b))
        } else if let Some((label, col)) = side.split_once('.') {
            let other = self.find(fresh, label).ok_or_else(|| missing(label))?;
            Ok(num(other, col))
        } else {
            Ok(num(row, side))
        }
    }
}

fn missing(label: &str) -> String {
    format!("{label}: missing from fresh results")
}

/// Parse `src` (named `label` in errors) into rows, each carrying every
/// column the gate reads — a number, except for the keys.
fn parse_rows(gate: &Gate, src: &str, label: &str) -> Result<Vec<Row>, String> {
    let rows = parse_json(src).map_err(|e| format!("{label}: {e}"))?;
    for (i, row) in rows.iter().enumerate() {
        for col in gate.columns() {
            let usable = match row.get(col) {
                Some(cell) => gate.keys.contains(&col) || cell.num().is_some(),
                None => false,
            };
            if !usable {
                return Err(format!("{label}: row {i} has no usable \"{col}\""));
            }
        }
    }
    Ok(rows)
}

fn load(gate: &Gate, path: &str) -> Result<Vec<Row>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_rows(gate, &src, path)
}

fn cell(row: &Row, col: &str) -> String {
    row.get(col).map_or("?".into(), Cell::to_string)
}

/// Every violation of the gate by `fresh` against `baseline` (empty =
/// the gate passes).
fn check(gate: &Gate, fresh: &[Row], baseline: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut fail = |msg: String| {
        if !out.contains(&msg) {
            out.push(msg);
        }
    };
    for rule in gate.rules.iter().map(|r| Rule::parse(r)) {
        let rows: Vec<&Row> = match rule.row {
            None => fresh.iter().collect(),
            Some(label) => match gate.find(fresh, label) {
                Some(row) => vec![row],
                None => {
                    fail(missing(label));
                    continue;
                }
            },
        };
        for row in rows {
            let sides = (
                gate.side(rule.left, row, fresh),
                gate.side(rule.right, row, fresh),
            );
            match sides {
                (Ok(a), Ok(b)) if !rule.holds(a, b) => fail(format!(
                    "{}: {} {} {} does not hold ({a} vs {b}) — {}",
                    gate.label(row),
                    rule.left,
                    rule.op,
                    rule.right,
                    rule.why
                )),
                (Err(e), _) | (_, Err(e)) => fail(e),
                _ => {}
            }
        }
    }
    for base in baseline {
        let label = gate.label(base);
        let Some(now) = gate.find(fresh, &label) else {
            fail(missing(&label));
            continue;
        };
        for &col in gate.exact {
            if now.num(col) != base.num(col) {
                let (old, new) = (cell(base, col), cell(now, col));
                fail(format!(
                    "{label}: {col} changed {old} -> {new} (must equal the baseline)"
                ));
            }
        }
        for b in gate.bounds {
            if b.only.is_some_and(|(c, v)| cell(base, c) != v) {
                continue;
            }
            let (Some(old), Some(new)) = (base.num(b.column), now.num(b.column)) else {
                continue;
            };
            let moved = if new > old * b.hi {
                format!("rose {old} -> {new} (above {}×", b.hi)
            } else if new < old * b.lo {
                format!("fell {old} -> {new} (below {}×", b.lo)
            } else {
                continue;
            };
            fail(format!("{label}: {} {moved} the baseline)", b.column));
        }
    }
    out
}

/// Rows restricted to the columns the gate reads.
fn gated(gate: &Gate, rows: &[Row]) -> Vec<Row> {
    rows.iter()
        .map(|r| Row {
            cells: gate
                .columns()
                .into_iter()
                .filter_map(|c| r.get(c).map(|x| (c.to_string(), x.clone())))
                .collect(),
        })
        .collect()
}

/// The old → new change of every gated column per fresh row, plus the
/// baseline rows that disappear — what `--bless` prints.
fn bless_diff(gate: &Gate, fresh: &[Row], baseline: &[Row]) -> Vec<String> {
    let cols: Vec<&str> = gate
        .columns()
        .into_iter()
        .filter(|c| !gate.keys.contains(c))
        .collect();
    let mut lines = Vec::new();
    for now in fresh {
        let label = gate.label(now);
        let (new, changes): (&str, Vec<String>) = match gate.find(baseline, &label) {
            Some(old) => (
                "",
                cols.iter()
                    .map(|c| format!("{c} {} -> {}", cell(old, c), cell(now, c)))
                    .collect(),
            ),
            None => (
                "new row: ",
                cols.iter()
                    .map(|c| format!("{c} {}", cell(now, c)))
                    .collect(),
            ),
        };
        lines.push(format!("  {label}: {new}{}", changes.join(", ")));
    }
    for old in baseline {
        let label = gate.label(old);
        if gate.find(fresh, &label).is_none() {
            lines.push(format!("  {label}: dropped from baseline"));
        }
    }
    lines
}

/// Load, then bless or gate; `Err` carries every violation.
fn run(gate: &Gate, fresh_path: &str, base_path: &str, bless: bool) -> Result<(), Vec<String>> {
    let fresh = load(gate, fresh_path).map_err(|e| vec![e])?;
    if bless {
        let baseline = load(gate, base_path).unwrap_or_default();
        println!("bench_gate: blessing {fresh_path} -> {base_path}");
        for line in bless_diff(gate, &fresh, &baseline) {
            println!("{line}");
        }
        std::fs::copy(fresh_path, base_path)
            .map_err(|e| vec![format!("cannot write {base_path}: {e}")])?;
        println!("bench_gate: baseline updated ({} rows)", fresh.len());
        return Ok(());
    }
    let baseline = load(gate, base_path).map_err(|e| vec![e])?;
    println!(
        "bench_gate: {} {fresh_path} vs {base_path} ({} baseline rows)",
        gate.name,
        baseline.len()
    );
    print!("{}", render(&gated(gate, &fresh)));
    let violations = check(gate, &fresh, &baseline);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Print a gate's outcome; true when it passed.
fn report(name: &str, result: Result<(), Vec<String>>) -> bool {
    match result {
        Ok(()) => {
            println!("bench_gate: {name} PASS");
            true
        }
        Err(violations) => {
            for v in &violations {
                eprintln!("bench_gate: {name} FAIL {v}");
            }
            false
        }
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

fn run_links(root: &str) -> Result<(), Vec<String>> {
    let (files, links, violations) = check_links(Path::new(root)).map_err(|e| vec![e])?;
    println!("bench_gate: links — {files} files, {links} relative links");
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    args.retain(|a| a != "--bless");
    let ok = if args.first().is_some_and(|a| a == "links") {
        report("links", run_links(args.get(1).map_or(".", String::as_str)))
    } else {
        run_gates(&args, bless)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Several gate names run each on its default paths; otherwise one gate
/// (joins when the first argument names none) takes optional paths.
fn run_gates(args: &[String], bless: bool) -> bool {
    let gate = |name: &str| GATES.iter().find(|g| g.name == name);
    let runs: Vec<(&Gate, &str, &str)> = if args.len() > 1 && args.iter().all(|a| gate(a).is_some())
    {
        args.iter()
            .filter_map(|a| gate(a))
            .map(|g| (g, g.fresh, g.baseline))
            .collect()
    } else {
        let (g, paths) = match args.first().and_then(|a| gate(a)) {
            Some(g) => (g, &args[1..]),
            None => (&GATES[0], args),
        };
        let path = |i: usize, default| paths.get(i).map_or(default, String::as_str);
        vec![(g, path(0, g.fresh), path(1, g.baseline))]
    };
    runs.into_iter().fold(true, |ok, (g, fresh, base)| {
        report(g.name, run(g, fresh, base, bless)) && ok
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &str) -> &'static Gate {
        GATES.iter().find(|g| g.name == name).unwrap()
    }

    fn parse(src: &str) -> Result<Vec<Row>, String> {
        parse_json(src)
    }

    fn has(violations: &[String], needle: &str) -> bool {
        violations.iter().any(|v| v.contains(needle))
    }

    fn serve(clients: u64, cps: f64, p50_us: f64, p99_us: f64, errors: [u64; 2]) -> Row {
        Row::new()
            .count("clients", clients)
            .count("requests", 200 * clients)
            .time("cps", cps)
            .time("p50_us", p50_us)
            .time("p99_us", p99_us)
            .count("cmd_errors", errors[0])
            .count("protocol_errors", errors[1])
    }

    #[test]
    fn parses_serve_rows() {
        let src = r#"[{"clients":1,"requests":200,"total_ms":50.0,"cps":4000.0,
            "p50_us":210.5,"p99_us":900.0,"cmd_errors":0,"protocol_errors":0,
            "batches":180,"batched_requests":0,"max_batch":1}]"#;
        let rows = parse_rows(gate("serve"), src, "test").unwrap();
        let want = serve(1, 4000.0, 210.5, 900.0, [0, 0]);
        assert_eq!(gated(gate("serve"), &rows), gated(gate("serve"), &[want]));
        assert_eq!(gate("serve").label(&rows[0]), "clients=1");
        assert!(parse_rows(gate("serve"), "[{\"clients\":\"x\"}]", "test").is_err());
    }

    #[test]
    fn serve_gate_passes_clean_run() {
        let g = gate("serve");
        let fresh = vec![
            serve(1, 4000.0, 200.0, 900.0, [0, 0]),
            serve(4, 9000.0, 300.0, 2000.0, [0, 0]),
        ];
        assert!(check(g, &fresh, &fresh).is_empty());
        // faster than baseline is fine, and high-concurrency cps is not gated
        let better = vec![
            serve(1, 9999.0, 100.0, 400.0, [0, 0]),
            serve(4, 1.0, 300.0, 2000.0, [0, 0]),
        ];
        assert!(check(g, &better, &fresh).is_empty());
    }

    #[test]
    fn serve_gate_catches_errors_latency_and_regression() {
        let g = gate("serve");
        let base = vec![
            serve(1, 4000.0, 200.0, 900.0, [0, 0]),
            serve(4, 9000.0, 300.0, 2000.0, [0, 0]),
        ];
        // command/protocol errors fail
        let bad = vec![
            serve(1, 4000.0, 200.0, 900.0, [1, 0]),
            serve(4, 9000.0, 300.0, 2000.0, [0, 2]),
        ];
        assert_eq!(check(g, &bad, &base).len(), 2);
        // nonsensical percentiles fail
        let upside_down = vec![serve(1, 4000.0, 900.0, 200.0, [0, 0]), base[1].clone()];
        let v = check(g, &upside_down, &base);
        assert_eq!(v.len(), 1);
        assert!(has(&v, "p99_us >= p50_us does not hold"), "{v:?}");
        // one-client throughput collapse fails; within tolerance passes
        let slow = vec![
            serve(1, 4000.0 / 5.0, 200.0, 900.0, [0, 0]),
            base[1].clone(),
        ];
        let v = check(g, &slow, &base);
        assert_eq!(v.len(), 1);
        assert!(
            has(&v, "clients=1: cps fell 4000 -> 800 (below 0.25×"),
            "{v:?}"
        );
        let ok = vec![
            serve(1, 4000.0 / 3.0, 200.0, 900.0, [0, 0]),
            base[1].clone(),
        ];
        assert!(check(g, &ok, &base).is_empty());
        // a dropped client count fails
        let v = check(g, &base[..1], &base);
        assert_eq!(v, vec!["clients=4: missing from fresh results".to_string()]);
    }

    fn join(workload: &str, indexed: bool, total_ms: f64, join_candidates: u64) -> Row {
        Row::new()
            .key("workload", workload)
            .flag("indexed", indexed)
            .time("total_ms", total_ms)
            .count("join_candidates", join_candidates)
            .count("alpha_bytes", 1000u64)
    }

    #[test]
    fn parses_paper_tables_output() {
        let src = r#"[{"workload":"fig12-band","indexed":true,"total_ms":100.267,
            "total_ms_min":99.5,"total_ms_max":101.0,"join_candidates":79650,
            "index_probes":0,"index_hits":0,"range_probes":10000,"range_hits":9975,
            "alpha_bytes":9533400}]"#;
        let rows = parse_rows(gate("joins"), src, "test").unwrap();
        assert_eq!(gate("joins").label(&rows[0]), "fig12-band/indexed=true");
        assert_eq!(rows[0].num("total_ms"), Some(100.267));
        assert_eq!(rows[0].get("join_candidates"), Some(&Cell::Count(79650)));
        assert_eq!(rows[0].num("alpha_bytes"), Some(9533400.0));
        assert!(parse("[").is_err());
        assert!(parse_rows(gate("joins"), "[{\"workload\":1}]", "test").is_err());
        assert_eq!(parse("[]").unwrap(), vec![]);
    }

    #[test]
    fn string_escapes_are_decoded() {
        let rows = parse(r#"[{"workload":"say \"hi\" \\ \/ \n\té done"}]"#).unwrap();
        assert_eq!(rows[0].label(&["workload"]), "say \"hi\" \\ / \n\té done");
        // escaped keys decode too
        let keyed = parse(r#"[{"workload":"w"}]"#).unwrap();
        assert_eq!(keyed[0].label(&["workload"]), "w");
        // malformed escapes still error
        assert!(parse(r#"[{"workload":"bad \x"}]"#).is_err());
        assert!(parse(r#"[{"workload":"bad \u12"}]"#).is_err());
        assert!(parse(r#"[{"workload":"bad \"#).is_err());
    }

    #[test]
    fn gate_passes_on_identical_and_on_noise_within_tolerance() {
        let g = gate("joins");
        let base = vec![join("w", true, 10.0, 100), join("w", false, 50.0, 500)];
        assert!(check(g, &base, &base).is_empty());
        // +40% wall clock and fewer candidates: still fine
        let fresh = vec![join("w", true, 14.0, 90), join("w", false, 70.0, 500)];
        assert!(check(g, &fresh, &base).is_empty());
    }

    #[test]
    fn gate_fails_on_injected_time_regression() {
        let base = vec![join("w", true, 10.0, 100)];
        let v = check(gate("joins"), &[join("w", true, 16.0, 100)], &base);
        assert_eq!(v.len(), 1);
        assert!(has(&v, "w/indexed=true: total_ms rose 10 -> 16"), "{v:?}");
    }

    #[test]
    fn gate_fails_on_candidate_growth_even_unindexed() {
        let base = vec![join("w", false, 50.0, 500)];
        let v = check(gate("joins"), &[join("w", false, 10.0, 501)], &base);
        assert_eq!(v.len(), 1);
        assert!(has(&v, "join_candidates rose 500 -> 501"), "{v:?}");
    }

    #[test]
    fn gate_fails_on_missing_workload_and_ignores_unindexed_time() {
        let base = vec![join("gone", true, 10.0, 100), join("w", false, 50.0, 500)];
        // unindexed wall clock may drift freely — only candidates matter
        let v = check(gate("joins"), &[join("w", false, 500.0, 500)], &base);
        assert_eq!(
            v,
            vec!["gone/indexed=true: missing from fresh results".to_string()]
        );
    }

    #[test]
    fn gate_holds_alpha_bytes_within_five_percent() {
        let g = gate("joins");
        let sized = |alpha_bytes: u64| {
            let mut row = join("w", true, 10.0, 100);
            row.cells.pop();
            row.count("alpha_bytes", alpha_bytes)
        };
        let base = vec![sized(1000)];
        // within the band either way passes
        assert!(check(g, &[sized(1050)], &base).is_empty());
        assert!(check(g, &[sized(950)], &base).is_empty());
        // growth past 5% fails, and so does a saving nobody blessed
        let v = check(g, &[sized(1051)], &base);
        assert_eq!(v.len(), 1);
        assert!(has(&v, "alpha_bytes rose 1000 -> 1051"), "{v:?}");
        let v = check(g, &[sized(500)], &base);
        assert!(
            has(&v, "alpha_bytes fell 1000 -> 500 (below 0.95×"),
            "{v:?}"
        );
    }

    #[test]
    fn bless_diff_covers_changed_new_and_dropped_rows() {
        let g = gate("joins");
        let base = vec![join("w", true, 10.0, 100), join("gone", false, 5.0, 50)];
        let fresh = vec![join("w", true, 12.0, 90), join("new", true, 1.0, 10)];
        let lines = bless_diff(g, &fresh, &base);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("total_ms 10 -> 12"), "{lines:?}");
        assert!(lines[0].contains("join_candidates 100 -> 90"), "{lines:?}");
        assert!(lines[1].contains("new row"), "{lines:?}");
        assert!(lines[2].contains("dropped from baseline"), "{lines:?}");
        // blessing from scratch: every row is new
        let scratch = bless_diff(g, &fresh, &[]);
        assert!(scratch.iter().all(|l| l.contains("new row")), "{scratch:?}");
    }

    fn mem(config: &str, total_ms: f64, alpha_entries: u64, alpha_bytes: u64) -> Row {
        Row::new()
            .key("config", config)
            .time("total_ms", total_ms)
            .count("alpha_entries", alpha_entries)
            .count("alpha_bytes", alpha_bytes)
    }

    #[test]
    fn parses_mem_snapshot_output() {
        let src = r#"[{"config":"interned","total_ms":8.1,"total_ms_min":7.9,
            "total_ms_max":9.0,"alpha_entries":1200,"alpha_bytes":90000,
            "symbols":225,"symbol_bytes":12000}]"#;
        let rows = parse_rows(gate("mem"), src, "test").unwrap();
        let want = mem("interned", 8.1, 1200, 90000);
        assert_eq!(gated(gate("mem"), &rows), gated(gate("mem"), &[want]));
        assert!(parse_rows(gate("mem"), "[{\"config\":1}]", "test").is_err());
    }

    #[test]
    fn mem_gate_passes_when_interning_shrinks_alpha() {
        let g = gate("mem");
        let fresh = vec![
            mem("interned", 8.0, 1200, 90_000),
            mem("legacy", 10.0, 1200, 150_000),
        ];
        assert!(check(g, &fresh, &fresh).is_empty());
        // blessing from scratch passes too
        assert!(check(g, &fresh, &[]).is_empty());
        // noise within tolerance: +4% bytes, +40% interned wall clock
        let noisy = vec![
            mem("interned", 11.0, 1200, 93_000),
            mem("legacy", 25.0, 1200, 155_000),
        ];
        assert!(check(g, &noisy, &fresh).is_empty());
    }

    #[test]
    fn mem_gate_fails_when_interning_stops_helping() {
        let fresh = vec![
            mem("interned", 8.0, 1200, 150_000),
            mem("legacy", 10.0, 1200, 150_000),
        ];
        let v = check(gate("mem"), &fresh, &[]);
        assert_eq!(v.len(), 1);
        assert!(
            has(
                &v,
                "interned: alpha_bytes < legacy.alpha_bytes does not hold"
            ),
            "{v:?}"
        );
    }

    #[test]
    fn mem_gate_fails_on_regressions_vs_baseline() {
        let g = gate("mem");
        let base = vec![
            mem("interned", 8.0, 1200, 90_000),
            mem("legacy", 10.0, 1200, 150_000),
        ];
        // bytes +10%, entries drifted, interned wall clock 2x
        let fresh = vec![
            mem("interned", 17.0, 1201, 99_001),
            mem("legacy", 10.0, 1200, 150_000),
        ];
        let v = check(g, &fresh, &base);
        assert!(has(&v, "alpha_entries changed 1200 -> 1201"), "{v:?}");
        assert!(has(&v, "alpha_bytes rose"), "{v:?}");
        assert!(has(&v, "total_ms rose"), "{v:?}");
        // missing config rows are flagged both ways
        let v = check(g, &base[1..], &base);
        assert!(has(&v, "interned: missing from fresh"), "{v:?}");
    }

    fn wal(mode: &str, total_ms: f64, wal_records: u64, wal_bytes: u64) -> Row {
        Row::new()
            .key("mode", mode)
            .time("total_ms", total_ms)
            .count("wal_records", wal_records)
            .count("wal_bytes", wal_bytes)
    }

    fn wal_base() -> Vec<Row> {
        vec![
            wal("off", 5.0, 0, 0),
            wal("commit", 80.0, 1000, 65000),
            wal("batch", 12.0, 1000, 65000),
        ]
    }

    #[test]
    fn parses_wal_snapshot_output() {
        let src = r#"[{"mode":"commit","total_ms":42.125,"wal_records":1000,
            "wal_bytes":65000}]"#;
        let rows = parse_rows(gate("wal"), src, "test").unwrap();
        assert_eq!(rows, vec![wal("commit", 42.125, 1000, 65000)]);
        assert!(parse_rows(gate("wal"), "[{\"mode\":1}]", "test").is_err());
    }

    #[test]
    fn wal_gate_passes_clean_run_and_ignores_wall_clock() {
        let g = gate("wal");
        let fresh = wal_base();
        assert!(check(g, &fresh, &fresh).is_empty());
        // blessing from scratch passes too
        assert!(check(g, &fresh, &[]).is_empty());
        // wall clock may drift arbitrarily — fsync cost is the host's
        let slow = vec![
            wal("off", 500.0, 0, 0),
            wal("commit", 8000.0, 1000, 65000),
            wal("batch", 1200.0, 1000, 65000),
        ];
        assert!(check(g, &slow, &fresh).is_empty());
    }

    #[test]
    fn wal_gate_fails_when_off_logs_or_streams_diverge() {
        let (g, base) = (gate("wal"), wal_base());
        // off logging anything means the zero-overhead guarantee broke
        let leaking = vec![wal("off", 5.0, 3, 120), base[1].clone(), base[2].clone()];
        let v = check(g, &leaking, &base);
        assert!(has(&v, "must attach no writer"), "{v:?}");
        // commit/batch diverging means the sync policy changed the stream
        let diverged = vec![
            base[0].clone(),
            base[1].clone(),
            wal("batch", 12.0, 999, 64930),
        ];
        let v = check(g, &diverged, &base);
        assert!(has(&v, "must not change what is logged"), "{v:?}");
        // dead hooks: zero commit records
        let dead = vec![
            base[0].clone(),
            wal("commit", 80.0, 0, 0),
            wal("batch", 12.0, 0, 0),
        ];
        let v = check(g, &dead, &base);
        assert!(has(&v, "hooks went dead"), "{v:?}");
    }

    #[test]
    fn wal_gate_fails_on_count_drift_and_missing_modes() {
        let (g, base) = (gate("wal"), wal_base());
        let drifted = vec![
            base[0].clone(),
            wal("commit", 80.0, 1002, 65130),
            wal("batch", 12.0, 1002, 65130),
        ];
        let v = check(g, &drifted, &base);
        assert!(has(&v, "wal_records changed"), "{v:?}");
        assert!(has(&v, "wal_bytes changed"), "{v:?}");
        let v = check(g, &base[..2], &base);
        assert!(has(&v, "batch: missing from fresh"), "{v:?}");
    }

    /// requests, commands, queries of the 8-client obs workload.
    const MIX: [u64; 3] = [1600, 1280, 320];

    fn obs(
        config: &str,
        total_ms: f64,
        vs_off: f64,
        [requests, commands, queries]: [u64; 3],
    ) -> Row {
        Row::new()
            .key("config", config)
            .count("clients", 8u64)
            .count("requests", requests)
            .count("commands", commands)
            .count("queries", queries)
            .time("total_ms", total_ms)
            .time("vs_off", vs_off)
    }

    fn obs_base() -> Vec<Row> {
        vec![
            obs("telemetry_off", 100.0, 1.0, MIX),
            obs("telemetry_on", 105.0, 1.05, MIX),
        ]
    }

    #[test]
    fn parses_obs_snapshot_output() {
        let src = r#"[{"config":"telemetry_off","clients":8,"requests":1600,
            "commands":1280,"queries":320,"total_ms":120.500,"cps":13278.0,
            "vs_off":1.000,"vs_off_min":1.000,"vs_off_max":1.000}]"#;
        let rows = parse_rows(gate("obs"), src, "test").unwrap();
        assert_eq!(
            gated(gate("obs"), &rows),
            gated(gate("obs"), &[obs("telemetry_off", 120.5, 1.0, MIX)])
        );
        assert!(parse_rows(gate("obs"), "[{\"config\":1}]", "test").is_err());
    }

    #[test]
    fn obs_gate_passes_within_overhead_band() {
        let g = gate("obs");
        let fresh = vec![
            obs("telemetry_off", 100.0, 1.0, MIX),
            obs("telemetry_on", 109.0, 1.09, MIX),
        ];
        assert!(check(g, &fresh, &fresh).is_empty());
        // blessing from scratch passes too
        assert!(check(g, &fresh, &[]).is_empty());
        // absolute wall clock may drift arbitrarily across runs — only the
        // paired on/off ratio within the fresh file is held
        let slow = vec![
            obs("telemetry_off", 900.0, 1.0, MIX),
            obs("telemetry_on", 950.0, 1.06, MIX),
        ];
        assert!(check(g, &slow, &fresh).is_empty());
    }

    #[test]
    fn obs_gate_fails_on_overhead_and_inconsistency() {
        let (g, base) = (gate("obs"), obs_base());
        // 20% overhead breaches the 10% band
        let costly = vec![base[0].clone(), obs("telemetry_on", 120.0, 1.2, MIX)];
        let v = check(g, &costly, &base);
        assert!(has(&v, "telemetry may cost at most 10%"), "{v:?}");
        // requests must split exactly into commands + queries
        let torn = vec![
            obs("telemetry_off", 100.0, 1.0, [1600, 1279, 320]),
            base[1].clone(),
        ];
        let v = check(g, &torn, &base);
        assert!(
            has(
                &v,
                "commands + queries == requests does not hold (1599 vs 1600)"
            ),
            "{v:?}"
        );
        // both configs must be present
        let v = check(g, &base[..1], &base);
        assert!(has(&v, "telemetry_on: missing from fresh"), "{v:?}");
    }

    #[test]
    fn obs_gate_fails_on_count_drift() {
        let (g, base) = (gate("obs"), obs_base());
        let drifted = vec![
            base[0].clone(),
            obs("telemetry_on", 105.0, 1.05, [1590, 1270, 320]),
        ];
        let v = check(g, &drifted, &base);
        assert!(has(&v, "requests changed 1600 -> 1590"), "{v:?}");
        assert!(has(&v, "commands changed 1280 -> 1270"), "{v:?}");
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

    /// Every gate's checked-in baseline parses, carries every column the
    /// gate names in every row, and passes the gate's own rules.
    #[test]
    fn every_gate_baseline_parses_and_names_its_columns() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for g in GATES {
            let path = root.join(g.baseline);
            let rows = load(g, path.to_str().unwrap()).unwrap();
            assert!(!rows.is_empty(), "{}: empty baseline", g.name);
            assert_eq!(check(g, &rows, &rows), Vec::<String>::new(), "{}", g.name);
        }
    }
}
