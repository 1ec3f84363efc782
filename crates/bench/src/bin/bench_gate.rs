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
//! bench_gate joins mem obs serve wal plan isl fig virt   # several gates on their default paths
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
    /// `row.column` of another row — optionally scaled, `side * k` for a
    /// number `k`.
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
        // the candidate band cannot see a nested-loop row that starts
        // probing (its candidates fall), nor an index that stops pruning
        // below the baseline's own margin: these hold within the run
        rules: &[
            "fig10-2var/indexed=false: index_probes + range_probes == 0 — a nested-loop join never probes",
            "fig11-3var/indexed=false: index_probes + range_probes == 0 — a nested-loop join never probes",
            "fig12-band/indexed=false: index_probes + range_probes == 0 — a nested-loop join never probes",
            "fig13-composite/indexed=false: index_probes + range_probes == 0 — a nested-loop join never probes",
            "fig13-composite/indexed=true: join_candidates < fig13-single/indexed=true.join_candidates — a composite key must serve fewer candidates than one attribute",
            "fig12-band/indexed=true: range_probes > 0 — a band join must stab its interval index",
            // same-run time ratios: host drift moves both rows alike
            "fig10-2var/indexed=true: total_ms * 4 < fig10-2var/indexed=false.total_ms — an index must beat the nested loop 4× in the same run",
            "fig11-3var/indexed=true: total_ms * 4 < fig11-3var/indexed=false.total_ms — an index must beat the nested loop 4× in the same run",
            "fig12-band/indexed=true: total_ms * 4 < fig12-band/indexed=false.total_ms — an index must beat the nested loop 4× in the same run",
            "fig13-composite/indexed=true: total_ms * 4 < fig13-composite/indexed=false.total_ms — an index must beat the nested loop 4× in the same run",
        ],
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
        rules: &[
            "interned: rel_bytes < legacy.rel_bytes — interning must shrink the relations' tuples",
            "interned: alpha_bytes == legacy.alpha_bytes — a stored memory holds slots, not tuple bytes",
        ],
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
            "clients=1: batches == requests — one session's drains each carry its one request",
            "batched_requests <= requests — a request rides one drain",
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
    Gate {
        name: "plan",
        fresh: "BENCH_plan.json",
        baseline: "BENCH_plan_baseline.json",
        keys: &["workload"],
        // how often the action is derived is deterministic: a stamp that
        // lapses too often (or never) moves these
        exact: &["prepares", "replans"],
        bounds: &[],
        rules: &[
            "prepares == 1 — an action is prepared once, at its first firing",
            "growing: replans >= 1 — a plan built for 50 dept rows must be re-planned as dept grows 100×",
        ],
    },
    Gate {
        name: "isl",
        fresh: "BENCH_isl.json",
        baseline: "BENCH_isl_baseline.json",
        keys: &["intervals"],
        exact: &[],
        // no time band against another session: §4.1's claim is a ratio
        // within one run, which host drift moves alike on both sides
        bounds: &[],
        rules: &[
            "islist_us <= tree_us * 1.5 — the skip list must stab about as fast as the interval tree (§4.1)",
            "islist_hits == tree_hits — the skip list and the tree must find the same intervals",
            "islist_hits == naive_hits — the skip list and the linear scan must find the same intervals",
        ],
    },
    Gate {
        name: "fig",
        fresh: "BENCH_fig.json",
        baseline: "BENCH_fig_baseline.json",
        keys: &["fig", "rules"],
        exact: &[],
        // §6's claims are about growth with the rule count, within one
        // run: host drift moves both rows of a ratio alike
        bounds: &[],
        rules: &[
            "fig9/rules=200: token_test_us <= fig9/rules=25.token_test_us * 1.5 — a token's test time must not grow with the rule count (§6, Fig. 9)",
            "fig9/rules=200: install_ms <= fig9/rules=25.install_ms * 16 — installing 8× the rules may cost at most twice linear",
            "fig9/rules=200: activate_ms <= fig9/rules=25.activate_ms * 16 — activating 8× the rules may cost at most twice linear",
            "fig10/rules=200: token_test_us <= fig10/rules=25.token_test_us * 1.5 — a token's test time must not grow with the rule count (§6, Fig. 10)",
            "fig10/rules=200: install_ms <= fig10/rules=25.install_ms * 16 — installing 8× the rules may cost at most twice linear",
            "fig10/rules=200: activate_ms <= fig10/rules=25.activate_ms * 16 — activating 8× the rules may cost at most twice linear",
            "fig11/rules=200: token_test_us <= fig11/rules=25.token_test_us * 1.5 — a token's test time must not grow with the rule count (§6, Fig. 11)",
            "fig11/rules=200: install_ms <= fig11/rules=25.install_ms * 16 — installing 8× the rules may cost at most twice linear",
            "fig11/rules=200: activate_ms <= fig11/rules=25.activate_ms * 16 — activating 8× the rules may cost at most twice linear",
        ],
    },
    Gate {
        name: "virt",
        fresh: "BENCH_virt.json",
        baseline: "BENCH_virt_baseline.json",
        keys: &["emp_rows", "config"],
        exact: &[],
        // §4.2's dial is a trade within one run: space against join time,
        // which host drift moves alike on both sides
        bounds: &[],
        rules: &[
            "emp_rows=1000/virtual: alpha_bytes == 0 — a virtual memory stores nothing (§4.2)",
            "emp_rows=1000/virtual+index: alpha_bytes == 0 — a virtual memory stores nothing (§4.2)",
            "emp_rows=1000/stored: token_join_us < emp_rows=1000/virtual.token_join_us — a stored memory must join faster than a scan of its relation, in the same run",
            "emp_rows=1000/stored: alpha_bytes <= emp_rows * 64 — a stored membership costs its bit and index entry, not a copy of the tuple",
            "emp_rows=10000/virtual: alpha_bytes == 0 — a virtual memory stores nothing (§4.2)",
            "emp_rows=10000/virtual+index: alpha_bytes == 0 — a virtual memory stores nothing (§4.2)",
            "emp_rows=10000/stored: token_join_us < emp_rows=10000/virtual.token_join_us — a stored memory must join faster than a scan of its relation, in the same run",
            "emp_rows=10000/stored: alpha_bytes <= emp_rows * 64 — a stored membership costs its bit and index entry, not a copy of the tuple",
            "emp_rows=50000/virtual: alpha_bytes == 0 — a virtual memory stores nothing (§4.2)",
            "emp_rows=50000/virtual+index: alpha_bytes == 0 — a virtual memory stores nothing (§4.2)",
            "emp_rows=50000/stored: token_join_us < emp_rows=50000/virtual.token_join_us — a stored memory must join faster than a scan of its relation, in the same run",
            "emp_rows=50000/stored: alpha_bytes <= emp_rows * 64 — a stored membership costs its bit and index entry, not a copy of the tuple",
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

/// A scaled rule side `side * k` split into `side` and `k`.
fn scaled(side: &str) -> Option<(&str, f64)> {
    let (side, k) = side.split_once(" * ")?;
    let k = k
        .parse()
        .unwrap_or_else(|_| panic!("rule side `{side} * {k}` scales by no number"));
    Some((side, k))
}

/// The columns a rule side reads.
fn side_columns(side: &str) -> Vec<&str> {
    if let Some((side, _)) = scaled(side) {
        side_columns(side)
    } else if side.parse::<f64>().is_ok() {
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
        if let Some((side, k)) = scaled(side) {
            Ok(self.side(side, row, fresh)? * k)
        } else if let Ok(x) = side.parse() {
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
    use ariel_bench::table::Spread;

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
            .count("batches", 200 * clients)
            .count("batched_requests", 0u64)
    }

    /// `row` with `column` set to `value`.
    fn set(row: &Row, column: &str, value: u64) -> Row {
        let mut row = row.clone();
        row.cells.retain(|(c, _)| c != column);
        row.count(column, value)
    }

    #[test]
    fn parses_serve_rows() {
        let src = r#"[{"clients":1,"requests":200,"total_ms":50.0,"cps":4000.0,
            "p50_us":210.5,"p99_us":900.0,"cmd_errors":0,"protocol_errors":0,
            "batches":200,"batched_requests":0,"max_batch":1}]"#;
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

    #[test]
    fn serve_gate_holds_the_drain_counts() {
        let g = gate("serve");
        let base = vec![
            serve(1, 4000.0, 200.0, 900.0, [0, 0]),
            serve(4, 9000.0, 300.0, 2000.0, [0, 0]),
        ];
        // a contended run may drain fewer times than it has requests
        let shared = vec![
            base[0].clone(),
            set(&set(&base[1], "batches", 700), "batched_requests", 180),
        ];
        assert!(check(g, &shared, &base).is_empty());
        // one client: every request is a drain of its own
        let merged = vec![set(&base[0], "batches", 180), base[1].clone()];
        let v = check(g, &merged, &base);
        assert_eq!(v.len(), 1);
        assert!(
            has(
                &v,
                "clients=1: batches == requests does not hold (180 vs 200)"
            ),
            "{v:?}"
        );
        // no request rides two drains
        let doubled = vec![base[0].clone(), set(&base[1], "batched_requests", 801)];
        let v = check(g, &doubled, &base);
        assert_eq!(v.len(), 1);
        assert!(
            has(
                &v,
                "clients=4: batched_requests <= requests does not hold (801 vs 800)"
            ),
            "{v:?}"
        );
    }

    fn join(workload: &str, indexed: bool, total_ms: f64, join_candidates: u64) -> Row {
        Row::new()
            .key("workload", workload)
            .flag("indexed", indexed)
            .time("total_ms", total_ms)
            .count("join_candidates", join_candidates)
            .count("index_probes", 0u64)
            .count("range_probes", 0u64)
            .count("alpha_bytes", 1000u64)
    }

    /// The rows `paper_tables -- joins` writes, shaped to keep every
    /// same-run rule of the joins gate, followed by `extra`.
    fn joins_table(extra: Vec<Row>) -> Vec<Row> {
        // (workload, indexed, join_candidates, index_probes, range_probes)
        let mut rows: Vec<Row> = [
            ("fig10-2var", true, 2775, 2775, 0),
            ("fig10-2var", false, 555_000, 0, 0),
            ("fig11-3var", true, 5550, 5550, 0),
            ("fig11-3var", false, 971_250, 0, 0),
            ("fig12-band", true, 79_650, 0, 10_000),
            ("fig12-band", false, 8_000_000, 0, 0),
            ("fig13-composite", true, 1336, 2775, 0),
            ("fig13-single", true, 11_100, 2775, 0),
            ("fig13-composite", false, 555_000, 0, 0),
        ]
        .into_iter()
        .map(
            |(workload, indexed, candidates, index_probes, range_probes)| {
                // an index wins 10× on time, as the table measures it
                let total_ms = if indexed { 10.0 } else { 100.0 };
                let row = join(workload, indexed, total_ms, candidates);
                set(
                    &set(&row, "index_probes", index_probes),
                    "range_probes",
                    range_probes,
                )
            },
        )
        .collect();
        rows.extend(extra);
        rows
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
        let base = joins_table(vec![
            join("w", true, 10.0, 100),
            join("w", false, 50.0, 500),
        ]);
        assert!(check(g, &base, &base).is_empty());
        // +40% wall clock and fewer candidates: still fine
        let fresh = joins_table(vec![join("w", true, 14.0, 90), join("w", false, 70.0, 500)]);
        assert!(check(g, &fresh, &base).is_empty());
    }

    #[test]
    fn gate_fails_on_injected_time_regression() {
        let base = joins_table(vec![join("w", true, 10.0, 100)]);
        let fresh = joins_table(vec![join("w", true, 16.0, 100)]);
        let v = check(gate("joins"), &fresh, &base);
        assert_eq!(v.len(), 1);
        assert!(has(&v, "w/indexed=true: total_ms rose 10 -> 16"), "{v:?}");
    }

    #[test]
    fn gate_fails_on_candidate_growth_even_unindexed() {
        let base = joins_table(vec![join("w", false, 50.0, 500)]);
        let fresh = joins_table(vec![join("w", false, 10.0, 501)]);
        let v = check(gate("joins"), &fresh, &base);
        assert_eq!(v.len(), 1);
        assert!(has(&v, "join_candidates rose 500 -> 501"), "{v:?}");
    }

    #[test]
    fn gate_fails_on_missing_workload_and_ignores_unindexed_time() {
        let base = joins_table(vec![
            join("gone", true, 10.0, 100),
            join("w", false, 50.0, 500),
        ]);
        // unindexed wall clock may drift freely — only candidates matter
        let fresh = joins_table(vec![join("w", false, 500.0, 500)]);
        let v = check(gate("joins"), &fresh, &base);
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
        let base = joins_table(vec![sized(1000)]);
        let fresh = |alpha_bytes| joins_table(vec![sized(alpha_bytes)]);
        // within the band either way passes
        assert!(check(g, &fresh(1050), &base).is_empty());
        assert!(check(g, &fresh(950), &base).is_empty());
        // growth past 5% fails, and so does a saving nobody blessed
        let v = check(g, &fresh(1051), &base);
        assert_eq!(v.len(), 1);
        assert!(has(&v, "alpha_bytes rose 1000 -> 1051"), "{v:?}");
        let v = check(g, &fresh(500), &base);
        assert!(
            has(&v, "alpha_bytes fell 1000 -> 500 (below 0.95×"),
            "{v:?}"
        );
    }

    #[test]
    fn joins_gate_holds_its_same_run_rules() {
        let g = gate("joins");
        let base = joins_table(vec![]);
        // `row` of the table with `column` set to `value`
        let with = |row: usize, column: &str, value: u64| {
            let mut rows = joins_table(vec![]);
            rows[row] = set(&rows[row], column, value);
            rows
        };
        // a nested-loop row that starts probing serves fewer candidates,
        // which the candidate band lets through; the rule does not
        let mut probing = with(1, "index_probes", 2775);
        probing[1] = set(&probing[1], "join_candidates", 2775);
        let v = check(g, &probing, &base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            has(
                &v,
                "fig10-2var/indexed=false: index_probes + range_probes == 0 does not hold (2775 vs 0)"
            ),
            "{v:?}"
        );
        for (row, column) in [
            (3, "index_probes"),
            (5, "range_probes"),
            (8, "index_probes"),
            (8, "range_probes"),
        ] {
            let v = check(g, &with(row, column, 1), &base);
            assert!(
                has(&v, "a nested-loop join never probes"),
                "{column}: {v:?}"
            );
        }
        // composite keys that prune no better than one attribute
        let v = check(g, &with(6, "join_candidates", 11_100), &base);
        assert!(
            has(
                &v,
                "fig13-composite/indexed=true: join_candidates < \
                 fig13-single/indexed=true.join_candidates does not hold (11100 vs 11100)"
            ),
            "{v:?}"
        );
        // a band join that stopped stabbing
        let v = check(g, &with(4, "range_probes", 0), &base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            has(
                &v,
                "fig12-band/indexed=true: range_probes > 0 does not hold"
            ),
            "{v:?}"
        );
        // a row a rule names must be present
        let v = check(g, &joins_table(vec![])[..8], &base);
        assert!(has(&v, "fig13-composite/indexed=false: missing"), "{v:?}");
    }

    #[test]
    fn joins_gate_holds_same_run_time_ratios() {
        let g = gate("joins");
        let base = joins_table(vec![]);
        // `row` with its wall clock set to `ms`
        let timed = |row: &Row, ms: f64| {
            let mut row = row.clone();
            row.cells.retain(|(c, _)| c != "total_ms");
            row.time("total_ms", ms)
        };
        // each indexed row of the table by index, and its nested twin
        for (indexed, nested, workload) in [
            (0, 1, "fig10-2var"),
            (2, 3, "fig11-3var"),
            (4, 5, "fig12-band"),
            (6, 8, "fig13-composite"),
        ] {
            // the nested loop only 3× slower in the same run: the index
            // stopped paying, though the indexed row stays within its
            // 1.5× band (nested rows carry none)
            let mut fresh = joins_table(vec![]);
            fresh[indexed] = timed(&base[indexed], 12.0);
            fresh[nested] = timed(&base[nested], 36.0);
            let v = check(g, &fresh, &base);
            let want = format!(
                "{workload}/indexed=true: total_ms * 4 < {workload}/indexed=false.total_ms \
                 does not hold (48 vs 36)"
            );
            assert!(has(&v, &want), "{workload}: {v:?}");
            assert_eq!(v.len(), 1, "{workload}: {v:?}");
        }
        // a whole host slowing 1.4× keeps every ratio
        let slow: Vec<Row> = base
            .iter()
            .map(|row| timed(row, row.num("total_ms").unwrap() * 1.4))
            .collect();
        assert!(check(g, &slow, &base).is_empty());
    }

    fn isl(intervals: u64, islist_us: f64, tree_us: f64, hits: [u64; 3]) -> Row {
        Row::new()
            .count("intervals", intervals)
            .time("islist_us", islist_us)
            .time("tree_us", tree_us)
            .time("naive_us", tree_us * intervals as f64 / 100.0)
            .count("islist_hits", hits[0])
            .count("tree_hits", hits[1])
            .count("naive_hits", hits[2])
    }

    fn isl_table() -> Vec<Row> {
        vec![
            isl(100, 0.40, 0.55, [50; 3]),
            isl(1_000, 0.50, 0.70, [50; 3]),
            isl(100_000, 0.70, 1.20, [50; 3]),
        ]
    }

    #[test]
    fn isl_gate_holds_same_run_rules_only() {
        let g = gate("isl");
        let base = isl_table();
        assert!(check(g, &base, &base).is_empty());
        // the skip list 1.6× the tree in the same run: §4.1 no longer holds
        let mut fresh = isl_table();
        fresh[1] = isl(1_000, 1.12, 0.70, [50; 3]);
        let v = check(g, &fresh, &base);
        assert!(
            has(
                &v,
                "intervals=1000: islist_us <= tree_us * 1.5 does not hold"
            ),
            "{v:?}"
        );
        assert_eq!(v.len(), 1, "{v:?}");
        // a structure that misses or repeats a hit
        for (hits, rule) in [
            ([50, 49, 50], "islist_hits == tree_hits"),
            ([50, 51, 50], "islist_hits == tree_hits"),
            ([50, 50, 48], "islist_hits == naive_hits"),
        ] {
            let mut fresh = isl_table();
            fresh[2] = isl(100_000, 0.70, 1.20, hits);
            let v = check(g, &fresh, &base);
            assert!(has(&v, &format!("intervals=100000: {rule}")), "{v:?}");
            assert_eq!(v.len(), 1, "{v:?}");
        }
        // a whole host slowing 1.4× passes: no time is held against the
        // baseline's session
        let slow: Vec<Row> = base
            .iter()
            .map(|r| {
                let t = |c| r.num(c).unwrap() * 1.4;
                let h = |c| r.num(c).unwrap() as u64;
                isl(
                    h("intervals"),
                    t("islist_us"),
                    t("tree_us"),
                    [h("islist_hits"), h("tree_hits"), h("naive_hits")],
                )
            })
            .collect();
        assert!(check(g, &slow, &base).is_empty());
        // a row the baseline has must be measured
        let v = check(g, &base[..2], &base);
        assert!(has(&v, "intervals=100000: missing"), "{v:?}");
    }

    fn virt(emp_rows: u64, config: &str, alpha_bytes: u64, token_join_us: f64) -> Row {
        Row::new()
            .count("emp_rows", emp_rows)
            .key("config", config)
            .count("alpha_bytes", alpha_bytes)
            .time("token_join_us", token_join_us)
    }

    /// The VIRT table at three sizes: stored memories joining through an
    /// index in a few µs at about 9 B a row, virtual ones scanning.
    fn virt_table() -> Vec<Row> {
        let mut rows = Vec::new();
        for n in [1_000u64, 10_000, 50_000] {
            let scan = n as f64 / 100.0;
            rows.push(virt(n, "stored", 9 * n, 3.0));
            rows.push(virt(n, "virtual", 0, scan));
            rows.push(virt(n, "virtual+index", 0, 2.0));
            rows.push(virt(n, "threshold(0.5)", 9 * n, 3.0));
        }
        rows
    }

    #[test]
    fn virt_gate_holds_same_run_rules_only() {
        let g = gate("virt");
        let base = virt_table();
        assert!(check(g, &base, &base).is_empty());
        assert!(check(g, &base, &[]).is_empty(), "blessing from scratch");
        // each rule breaks on its own
        for (i, row, rule) in [
            (
                1,
                virt(1_000, "virtual", 8, 10.0),
                "emp_rows=1000/virtual: alpha_bytes == 0",
            ),
            (
                6,
                virt(10_000, "virtual+index", 8, 2.0),
                "emp_rows=10000/virtual+index: alpha_bytes == 0",
            ),
            (
                8,
                virt(50_000, "stored", 450_000, 600.0),
                "emp_rows=50000/stored: token_join_us < emp_rows=50000/virtual.token_join_us",
            ),
            (
                8,
                virt(50_000, "stored", 9_017_808, 3.0),
                "emp_rows=50000/stored: alpha_bytes <= emp_rows * 64",
            ),
        ] {
            let mut fresh = virt_table();
            fresh[i] = row;
            let v = check(g, &fresh, &base);
            assert!(has(&v, &format!("{rule} does not hold")), "{v:?}");
            assert_eq!(v.len(), 1, "{v:?}");
        }
        // a whole host slowing 1.4× passes: no time is held against the
        // baseline's session
        let slow: Vec<Row> = base
            .iter()
            .map(|r| {
                let label = r.label(&["config"]);
                let h = |c| r.num(c).unwrap() as u64;
                virt(
                    h("emp_rows"),
                    &label,
                    h("alpha_bytes"),
                    r.num("token_join_us").unwrap() * 1.4,
                )
            })
            .collect();
        assert!(check(g, &slow, &base).is_empty());
        // a row the baseline has must be measured
        let v = check(g, &base[..11], &base);
        assert!(has(&v, "emp_rows=50000/threshold(0.5): missing"), "{v:?}");
    }

    fn fig(fig: &str, rules: u64, token_test_us: f64, install_ms: f64, activate_ms: f64) -> Row {
        Row::new()
            .key("fig", fig)
            .count("rules", rules)
            .time("install_ms", install_ms)
            .time("activate_ms", activate_ms)
            .time("token_test_us", token_test_us)
    }

    /// Figures 9–11 at 25, 100 and 200 rules: flat token tests, linear
    /// installation and activation.
    fn fig_table() -> Vec<Row> {
        let mut rows = Vec::new();
        for (f, token_us) in [("fig9", 1.0), ("fig10", 5.5), ("fig11", 8.0)] {
            for n in [25u64, 100, 200] {
                let k = n as f64 / 25.0;
                rows.push(fig(f, n, token_us, 0.06 * k, 0.25 * k));
            }
        }
        rows
    }

    #[test]
    fn fig_gate_holds_same_run_rules_only() {
        let g = gate("fig");
        let base = fig_table();
        assert!(check(g, &base, &base).is_empty());
        // each rule breaks alone: its figure's 200-rule cell grown past
        // the bound over the 25-rule one, every other cell as it was
        for f in ["fig9", "fig10", "fig11"] {
            for (col, factor) in [
                ("token_test_us", 1.6),
                ("install_ms", 17.0 / 8.0),
                ("activate_ms", 17.0 / 8.0),
            ] {
                let fresh: Vec<Row> = base
                    .iter()
                    .map(|r| {
                        if g.label(r) != format!("{f}/rules=200") {
                            return r.clone();
                        }
                        let mut r = r.clone();
                        for (name, cell) in &mut r.cells {
                            if name == col {
                                *cell = Cell::Time(Spread::of(cell.num().unwrap() * factor));
                            }
                        }
                        r
                    })
                    .collect();
                let v = check(g, &fresh, &base);
                assert!(
                    has(&v, &format!("{f}/rules=200: {col} <= ")),
                    "{f} {col}: {v:?}"
                );
                assert_eq!(v.len(), 1, "{v:?}");
            }
        }
        // a whole host slowing 1.4× passes: only same-run ratios are held
        let slow: Vec<Row> = base
            .iter()
            .map(|r| {
                let t = |c| r.num(c).unwrap() * 1.4;
                let label = g.label(r);
                let f = label.split('/').next().unwrap();
                let n = r.num("rules").unwrap() as u64;
                fig(f, n, t("token_test_us"), t("install_ms"), t("activate_ms"))
            })
            .collect();
        assert!(check(g, &slow, &base).is_empty());
        // a row the rules read must be measured
        let v = check(g, &base[1..], &base);
        assert!(has(&v, "fig9/rules=25: missing"), "{v:?}");
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

    fn mem(config: &str, total_ms: f64, alpha_bytes: u64, rel_bytes: u64) -> Row {
        Row::new()
            .key("config", config)
            .time("total_ms", total_ms)
            .count("alpha_entries", 1200)
            .count("alpha_bytes", alpha_bytes)
            .count("rel_bytes", rel_bytes)
    }

    #[test]
    fn parses_mem_snapshot_output() {
        let src = r#"[{"config":"interned","total_ms":8.1,"total_ms_min":7.9,
            "total_ms_max":9.0,"alpha_entries":1200,"alpha_bytes":40000,
            "rel_bytes":90000,"symbols":225,"symbol_bytes":12000}]"#;
        let rows = parse_rows(gate("mem"), src, "test").unwrap();
        let want = mem("interned", 8.1, 40_000, 90_000);
        assert_eq!(gated(gate("mem"), &rows), gated(gate("mem"), &[want]));
        assert!(parse_rows(gate("mem"), "[{\"config\":1}]", "test").is_err());
    }

    #[test]
    fn mem_gate_passes_when_interning_shrinks_the_relations() {
        let g = gate("mem");
        let fresh = vec![
            mem("interned", 8.0, 40_000, 90_000),
            mem("legacy", 10.0, 40_000, 150_000),
        ];
        assert!(check(g, &fresh, &fresh).is_empty());
        // blessing from scratch passes too
        assert!(check(g, &fresh, &[]).is_empty());
        // noise within tolerance: +4% α bytes, +40% interned wall clock
        let noisy = vec![
            mem("interned", 11.0, 41_600, 93_000),
            mem("legacy", 25.0, 41_600, 155_000),
        ];
        assert!(check(g, &noisy, &fresh).is_empty());
    }

    #[test]
    fn mem_gate_fails_when_interning_stops_helping() {
        let fresh = vec![
            mem("interned", 8.0, 40_000, 150_000),
            mem("legacy", 10.0, 40_000, 150_000),
        ];
        let v = check(gate("mem"), &fresh, &[]);
        assert_eq!(v.len(), 1);
        assert!(
            has(&v, "interned: rel_bytes < legacy.rel_bytes does not hold"),
            "{v:?}"
        );
        // a memory whose bytes follow the string layout holds tuple bytes
        let fresh = vec![
            mem("interned", 8.0, 30_000, 90_000),
            mem("legacy", 10.0, 40_000, 150_000),
        ];
        let v = check(gate("mem"), &fresh, &[]);
        assert_eq!(v.len(), 1);
        assert!(
            has(
                &v,
                "interned: alpha_bytes == legacy.alpha_bytes does not hold"
            ),
            "{v:?}"
        );
    }

    #[test]
    fn mem_gate_fails_on_regressions_vs_baseline() {
        let g = gate("mem");
        let base = vec![
            mem("interned", 8.0, 40_000, 90_000),
            mem("legacy", 10.0, 40_000, 150_000),
        ];
        // α bytes +10%, entries drifted, interned wall clock 2x
        let fresh = vec![
            Row::new()
                .key("config", "interned")
                .time("total_ms", 17.0)
                .count("alpha_entries", 1201)
                .count("alpha_bytes", 44_001)
                .count("rel_bytes", 90_000),
            mem("legacy", 10.0, 44_001, 150_000),
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

    fn plan(workload: &str, prepares: u64, replans: u64) -> Row {
        Row::new()
            .key("workload", workload)
            .time("total_ms", 50.0)
            .count("prepares", prepares)
            .count("replans", replans)
    }

    #[test]
    fn plan_gate_holds_derivation_counts() {
        let g = gate("plan");
        let base = vec![plan("steady", 1, 0), plan("growing", 1, 7)];
        assert!(check(g, &base, &base).is_empty());
        // a stamp that never lapses leaves the grown plan stale
        let stale = vec![plan("steady", 1, 0), plan("growing", 1, 0)];
        let v = check(g, &stale, &[]);
        assert!(has(&v, "growing: replans >= 1 does not hold"), "{v:?}");
        // one that lapses on every firing re-plans the steady action
        let eager = vec![plan("steady", 1, 2049), plan("growing", 1, 7)];
        let v = check(g, &eager, &base);
        assert!(has(&v, "steady: replans changed 0 -> 2049"), "{v:?}");
        // preparing at every firing is the always-reoptimize path again
        let fresh = vec![plan("steady", 2050, 0), plan("growing", 1, 7)];
        let v = check(g, &fresh, &[]);
        assert!(has(&v, "prepares == 1 does not hold"), "{v:?}");
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
