//! Regenerate every table and figure of the paper's evaluation (§6), plus
//! the ablations from DESIGN.md, as printed tables. Every table runs
//! `REPS` = 5 times: a time cell reads `median [min–max]`, and a count
//! that differs between runs fails the table.
//!
//! ```text
//! cargo run --release -p ariel-bench --bin paper_tables            # everything
//! cargo run --release -p ariel-bench --bin paper_tables -- fig9    # one experiment
//! ```
//!
//! Experiments: fig9 fig10 fig11 act scale virt isl net plan obs joins mem trace serve wal

use ariel_bench::table::{self, Row};
use ariel_bench::{measure, serve};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Rule counts of Figures 9–11.
const PAPER_NS: [usize; 5] = [25, 50, 100, 150, 200];

/// Tokens a Figure 9–11 cell's token test averages over: a cell spans a
/// few milliseconds, so one burst of host noise cannot carry it past the
/// same-run bound `bench_gate fig` holds it to.
const FIG_TOKENS: usize = 1000;

/// One experiment: its name on the command line, its heading, the
/// `BENCH_*.json` file it writes (if any; tables naming one file share
/// it, each adding its rows), and one run of it (given the repetition
/// index).
struct Table {
    name: &'static str,
    title: &'static str,
    json: Option<&'static str>,
    run: fn(usize) -> Vec<Row>,
}

// Paper values transcribed from Figures 9-11 are not machine-readable in
// the source text; §6 states installation takes "a fraction of a second",
// activation "just under a second" (per rule) and token tests "2 to 3
// milliseconds" at 25-200 rules on a ~12 MIPS SPARCstation 1. We print
// those anchors alongside for shape comparison.
const FIG_ANCHORS: &str =
    "(paper anchors per rule count: install <0.5 s, activate ~1 s, token test 2-3 ms)";

const TABLES: &[Table] = &[
    Table {
        name: "fig9",
        title: "Figure 9: 1-tuple-variable rules",
        json: Some("BENCH_fig.json"),
        run: |_| measure::fig_table(1, &PAPER_NS, FIG_TOKENS),
    },
    Table {
        name: "fig10",
        title: "Figure 10: 2-tuple-variable rules",
        json: Some("BENCH_fig.json"),
        run: |_| measure::fig_table(2, &PAPER_NS, FIG_TOKENS),
    },
    Table {
        name: "fig11",
        title: "Figure 11: 3-tuple-variable rules",
        json: Some("BENCH_fig.json"),
        run: |_| measure::fig_table(3, &PAPER_NS, FIG_TOKENS),
    },
    Table {
        name: "act",
        title: "ACT: rule-action execution time (§6: ~0.06 s for all types)",
        json: None,
        run: |_| measure::action_times(100),
    },
    Table {
        name: "scale",
        title: "SCALE: cost vs rule count — selection network vs naive",
        json: Some("BENCH_scale.json"),
        run: |_| measure::scale_table(&[200, 400, 800, 1600, 3200], 300),
    },
    Table {
        name: "virt",
        title: "VIRT: virtual α-memories — storage vs token-join time\n\
                (SalesClerkRule over scaled emp; dept token joins into the emp memory)",
        json: Some("BENCH_virt.json"),
        run: |_| measure::virt_table(&[1_000, 10_000, 50_000], 20),
    },
    Table {
        name: "isl",
        title: "ISL: stabbing queries — skip list vs interval tree vs naive",
        json: Some("BENCH_isl.json"),
        run: |_| measure::islist_table(&[100, 1_000, 10_000, 100_000], 200),
    },
    Table {
        name: "net",
        title: "NET: TREAT vs A-TREAT vs Rete (indexed/nested) — \
                50 three-variable rules, churn on all relations",
        json: None,
        run: |_| measure::net_table(50, 1000),
    },
    Table {
        name: "plan",
        title: "PLAN: prepared rule actions — 2000 firings of a P-node ⋈ dept action\n\
                (steady: dept stays at 50 rows; growing: dept grows to 5 000 rows, \
                so the prepared plan lapses and is re-planned)",
        json: Some("BENCH_plan.json"),
        run: |_| measure::plan_table(2000),
    },
    Table {
        name: "obs",
        title: "OBS: server telemetry overhead (on vs off)\n\
                (8-client serve workload, one off/on pair per run, order alternating; \
                gate holds the median on/off ≤ 1.10)",
        json: Some("BENCH_obs.json"),
        run: |rep| serve::obs_pair(8, rep % 2 == 0),
    },
    Table {
        name: "joins",
        title: "JOINS: indexed α-memories vs nested-loop\n\
                (fig10-fig13 workloads, 25 band rules, 400 emp tokens, 200 dim rows)",
        json: Some("BENCH_join.json"),
        run: |_| measure::joins_table(25, 400, 200),
    },
    Table {
        name: "mem",
        title: "MEM: memory layout — interned symbols vs legacy heap strings\n\
                (string-keyed fig10 shape: band rules joining emp.dept_name = dept.dname, \
                emp churn)",
        json: Some("BENCH_mem.json"),
        run: |_| measure::mem_table(25, 2000, 200),
    },
    Table {
        name: "trace",
        title: "TRACE: flight-recorder overhead & event counts\n\
                (fig11-style 3-variable workload, full engine path, recorder off vs on)",
        json: Some("BENCH_trace.json"),
        run: |_| measure::trace_table(25, 200),
    },
    Table {
        name: "serve",
        title: "SERVE: TCP server latency/throughput vs client count\n\
                (in-process server over loopback; 200 mixed requests per client — \
                70% append, 10% replace, 20% retrieve — against an active rule)",
        json: Some("BENCH_serve.json"),
        run: |_| serve::serve_table(&[1, 4, 16]),
    },
    Table {
        name: "wal",
        title: "WAL: write-ahead-log overhead per durability mode\n\
                (fig10 churn through the full engine path: 25 band rules, \
                500 append+delete rounds, one WAL record per committed command)",
        json: Some("BENCH_wal.json"),
        run: |_| measure::wal_table(25, 500),
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let mut ok = true;
    // rows written so far to each file, for tables that share one
    let mut written: BTreeMap<&str, Vec<Row>> = BTreeMap::new();
    for t in TABLES
        .iter()
        .filter(|t| all || args.iter().any(|a| a == t.name))
    {
        println!("== {} ==", t.title);
        if t.name.starts_with("fig") {
            println!("{FIG_ANCHORS}");
        }
        let rows = match table::repeat(t.name, t.run) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("paper_tables: {e}");
                ok = false;
                continue;
            }
        };
        print!("{}", table::render(&rows));
        if let Some(path) = t.json {
            let file = written.entry(path).or_default();
            file.extend(rows);
            let json = table::to_json(file);
            match std::fs::write(path, &json) {
                Ok(()) => println!("wrote {path} ({} bytes)", json.len()),
                Err(e) => {
                    eprintln!("paper_tables: cannot write {path}: {e}");
                    ok = false;
                }
            }
        }
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
