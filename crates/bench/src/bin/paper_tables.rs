//! Regenerate every table and figure of the paper's evaluation (§6), plus
//! the ablations from DESIGN.md, as printed tables.
//!
//! ```text
//! cargo run --release -p ariel-bench --bin paper_tables            # everything
//! cargo run --release -p ariel-bench --bin paper_tables -- fig9    # one experiment
//! ```
//!
//! Experiments: fig9 fig10 fig11 act scale virt isl net plan obs joins mem trace serve wal

use ariel_bench::measure;
use std::time::Duration;

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn us(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6)
}

// Paper values transcribed from Figures 9-11 are not machine-readable in
// the source text; §6 states installation takes "a fraction of a second",
// activation "just under a second" (per rule) and token tests "2 to 3
// milliseconds" at 25-200 rules on a ~12 MIPS SPARCstation 1. We print
// those anchors alongside for shape comparison.
const PAPER_NS: [usize; 5] = [25, 50, 100, 150, 200];

fn fig(vars: usize, label: &str) {
    println!("== {label}: {vars}-tuple-variable rules ==");
    println!("(paper anchors per rule count: install <0.5 s, activate ~1 s, token test 2-3 ms)");
    println!(
        "{:>9} | {:>12} {:>12} {:>14}",
        "rules", "install ms", "activate ms", "token test us"
    );
    let rows = measure::fig_table(vars, &PAPER_NS, 200);
    for row in &rows {
        println!(
            "{:>9} | {:>12} {:>12} {:>14}",
            row.rules,
            ms(row.install),
            ms(row.activate),
            us(row.token_test),
        );
    }
    println!();
}

fn run_act() {
    println!("== ACT: rule-action execution time (§6: ~0.06 s for all types) ==");
    println!("{:>6} | {:>14}", "vars", "action time us");
    for (vars, d) in measure::action_times(100) {
        println!("{vars:>6} | {:>14}", us(d));
    }
    println!();
}

fn run_scale() {
    println!("== SCALE: cost vs rule count — selection network vs naive ==");
    println!(
        "{:>7} | {:>11} {:>11} {:>16} {:>10} {:>9}",
        "rules", "+ token us", "- token us", "append+10 fire us", "naive us", "speedup"
    );
    for row in measure::scale_table(&[200, 400, 800, 1600, 3200], 300) {
        let speedup = row.naive.as_secs_f64() / row.plus_token.as_secs_f64().max(1e-12);
        println!(
            "{:>7} | {:>11} {:>11} {:>16} {:>10} {speedup:>8.1}x",
            row.rules,
            us(row.plus_token),
            us(row.minus_token),
            us(row.append_firing),
            us(row.naive),
        );
    }
    println!();
}

fn run_virt() {
    println!("== VIRT: virtual α-memories — storage vs token-join time ==");
    println!("(SalesClerkRule over scaled emp; dept token joins into the emp memory)");
    println!(
        "{:>9} {:>16} | {:>13} {:>15}",
        "emp rows", "config", "alpha bytes", "token join us"
    );
    for row in measure::virt_table(&[1_000, 10_000, 50_000], 20) {
        println!(
            "{:>9} {:>16} | {:>13} {:>15}",
            row.emp_rows,
            row.config,
            row.alpha_bytes,
            us(row.token_time)
        );
    }
    println!();
}

fn run_isl() {
    println!("== ISL: stabbing queries — skip list vs interval tree vs naive ==");
    println!(
        "{:>10} | {:>12} {:>12} {:>12} {:>9}",
        "intervals", "islist us", "tree us", "naive us", "speedup"
    );
    for (n, isl, tree, naive) in measure::islist_table(&[100, 1_000, 10_000, 100_000], 200) {
        let speedup = naive.as_secs_f64() / isl.as_secs_f64().max(1e-12);
        println!(
            "{n:>10} | {:>12} {:>12} {:>12} {speedup:>8.1}x",
            us(isl),
            us(tree),
            us(naive)
        );
    }
    println!();
}

fn run_net() {
    println!(
        "== NET: TREAT vs A-TREAT vs Rete (indexed/nested) — \
         50 three-variable rules, churn on all relations =="
    );
    println!(
        "{:>22} | {:>12} {:>14} {:>14}",
        "network", "total ms", "alpha bytes", "beta bytes"
    );
    for row in measure::net_table(50, 1000) {
        println!(
            "{:>22} | {:>12} {:>14} {:>14}",
            row.network,
            ms(row.total),
            row.alpha_bytes,
            row.beta_bytes
        );
    }
    println!();
}

fn run_plan() {
    println!("== PLAN: always-reoptimize vs cached action plans — 2000 firings ==");
    println!("{:>20} | {:>10}", "strategy", "total ms");
    for (name, d) in measure::plan_table(2000) {
        println!("{name:>20} | {:>10}", ms(d));
    }
    println!();
}

fn run_obs() {
    println!("== OBS: server telemetry overhead (on vs off) → BENCH_obs.json ==");
    println!("(8-client serve workload, min of 3 runs per config; gate holds on/off ≤ 1.10)");
    println!(
        "{:>15} | {:>9} {:>10} {:>10}",
        "config", "requests", "total ms", "cps"
    );
    let rows = ariel_bench::serve::obs_overhead_table(8, 3);
    for r in &rows {
        println!(
            "{:>15} | {:>9} {:>10} {:>10.1}",
            r.config,
            r.requests,
            ms(r.total),
            r.requests as f64 / r.total.as_secs_f64().max(1e-12),
        );
    }
    let off = rows[0].total.as_secs_f64();
    let on = rows[1].total.as_secs_f64();
    println!("overhead: {:+.1}%", (on / off.max(1e-12) - 1.0) * 100.0);
    let json = ariel_bench::serve::obs_json(&rows);
    let path = "BENCH_obs.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} ({} bytes)", json.len()),
        Err(e) => println!("cannot write {path}: {e}"),
    }
    println!();
}

fn run_trace() {
    println!("== TRACE: flight-recorder overhead & event counts → BENCH_trace.json ==");
    println!("(fig11-style 3-variable workload, full engine path, recorder off vs on)");
    let json = measure::trace_snapshot(25, 200);
    let path = "BENCH_trace.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} ({} bytes)", json.len()),
        Err(e) => println!("cannot write {path}: {e}"),
    }
    println!();
}

fn run_mem() {
    println!("== MEM: memory layout — interned symbols vs legacy heap strings → BENCH_mem.json ==");
    println!(
        "(string-keyed fig10 shape: band rules joining emp.dept_name = dept.dname, emp churn)"
    );
    println!(
        "{:>10} | {:>10} {:>9} {:>13} {:>13} {:>9} {:>12} {:>12} {:>12}",
        "config",
        "total ms",
        "entries",
        "alpha bytes",
        "bytes/entry",
        "symbols",
        "sym bytes",
        "arena reuse",
        "peak scratch"
    );
    let rows = measure::mem_table(25, 2000, 200);
    for r in &rows {
        let per_entry = if r.alpha_entries == 0 {
            0.0
        } else {
            r.alpha_bytes as f64 / r.alpha_entries as f64
        };
        println!(
            "{:>10} | {:>10} {:>9} {:>13} {per_entry:>13.1} {:>9} {:>12} {:>11}/{} {:>12}",
            r.config,
            ms(r.total),
            r.alpha_entries,
            r.alpha_bytes,
            r.symbols,
            r.symbol_bytes,
            r.arena_reuses,
            r.arena_takes,
            r.arena_high_water_bytes
        );
    }
    let json = measure::mem_json(&rows);
    let path = "BENCH_mem.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} ({} bytes)", json.len()),
        Err(e) => println!("cannot write {path}: {e}"),
    }
    println!();
}

fn run_joins() {
    println!("== JOINS: indexed α-memories vs nested-loop → BENCH_join.json ==");
    println!("(fig10-fig13 workloads, 25 band rules, 400 emp tokens, 200 dim rows)");
    println!(
        "{:>15} {:>8} | {:>10} {:>16} {:>13} {:>11} {:>12} {:>11} {:>12}",
        "workload",
        "indexed",
        "total ms",
        "join candidates",
        "index probes",
        "index hits",
        "range probes",
        "range hits",
        "alpha bytes"
    );
    let rows = measure::joins_table(25, 400, 200);
    let mut json = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:>15} {:>8} | {:>10} {:>16} {:>13} {:>11} {:>12} {:>11} {:>12}",
            r.workload,
            r.indexed,
            ms(r.total),
            r.join_candidates,
            r.index_probes,
            r.index_hits,
            r.range_probes,
            r.range_hits,
            r.alpha_bytes
        );
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"workload\":\"{}\",\"indexed\":{},\"total_ms\":{:.3},\
             \"join_candidates\":{},\"index_probes\":{},\"index_hits\":{},\
             \"range_probes\":{},\"range_hits\":{},\"alpha_bytes\":{}}}",
            r.workload,
            r.indexed,
            r.total.as_secs_f64() * 1e3,
            r.join_candidates,
            r.index_probes,
            r.index_hits,
            r.range_probes,
            r.range_hits,
            r.alpha_bytes
        ));
    }
    json.push(']');
    let path = "BENCH_join.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} ({} bytes)", json.len()),
        Err(e) => println!("cannot write {path}: {e}"),
    }
    println!();
}

fn run_serve() {
    use ariel_bench::serve;
    println!("== SERVE: TCP server latency/throughput vs client count → BENCH_serve.json ==");
    println!(
        "(in-process server over loopback; {} mixed requests per client — 70% append, \
         10% replace, 20% retrieve — against an active rule)",
        serve::COMMANDS_PER_CLIENT
    );
    println!(
        "{:>8} | {:>9} {:>9} {:>10} {:>8} {:>14} {:>10}",
        "clients", "cps", "p50 us", "p99 us", "groups", "batched reqs", "max batch"
    );
    let rows = serve::serve_table(&[1, 4, 16]);
    for r in &rows {
        println!(
            "{:>8} | {:>9.1} {:>9.1} {:>10.1} {:>8} {:>14} {:>10}",
            r.clients,
            serve::cps(r),
            r.p50.as_secs_f64() * 1e6,
            r.p99.as_secs_f64() * 1e6,
            r.batches,
            r.batched_requests,
            r.max_batch,
        );
    }
    let json = serve::serve_json(&rows);
    let path = "BENCH_serve.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} ({} bytes)", json.len()),
        Err(e) => println!("cannot write {path}: {e}"),
    }
    println!();
}

fn run_wal() {
    println!("== WAL: write-ahead-log overhead per durability mode → BENCH_wal.json ==");
    println!(
        "(fig10 churn through the full engine path: 25 band rules, \
         500 append+delete rounds, one WAL record per committed command)"
    );
    println!(
        "{:>8} | {:>10} {:>13} {:>11}",
        "mode", "total ms", "wal records", "wal bytes"
    );
    let rows = measure::wal_table(25, 500);
    for r in &rows {
        println!(
            "{:>8} | {:>10} {:>13} {:>11}",
            r.mode,
            ms(r.total),
            r.wal_records,
            r.wal_bytes
        );
    }
    let json = measure::wal_json(&rows);
    let path = "BENCH_wal.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} ({} bytes)", json.len()),
        Err(e) => println!("cannot write {path}: {e}"),
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |k: &str| all || args.iter().any(|a| a == k);
    if want("fig9") {
        fig(1, "Figure 9");
    }
    if want("fig10") {
        fig(2, "Figure 10");
    }
    if want("fig11") {
        fig(3, "Figure 11");
    }
    if want("act") {
        run_act();
    }
    if want("scale") {
        run_scale();
    }
    if want("virt") {
        run_virt();
    }
    if want("isl") {
        run_isl();
    }
    if want("net") {
        run_net();
    }
    if want("plan") {
        run_plan();
    }
    if want("obs") {
        run_obs();
    }
    if want("joins") {
        run_joins();
    }
    if want("mem") {
        run_mem();
    }
    if want("trace") {
        run_trace();
    }
    if want("serve") {
        run_serve();
    }
    if want("wal") {
        run_wal();
    }
}
