//! The two kinds of run: end to end (a timed socket run, nothing recorded
//! but client latencies) and per layer (a short socket run for the server's
//! own counters, then the traced walk, its replay through plain
//! `Ariel::execute`, and the skip-list replay).

use crate::drive::{self, serve, serve_timed, TcpRun};
use crate::gen::Request;
use crate::spec::{Metric, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, resolved, spread, windows, Window};
use crate::trace::{breakdown, request_sum_p50, span_p50, walk, Tracer};
use crate::workload::{build, engine_options, fingerprint, verify, Res};
use crate::{out_dir, RunResult, SETUPS};
use ariel::islist::{Interval, IntervalSkipList};
use ariel::storage::wal::WalWriter;
use ariel::storage::Value;
use ariel::{Ariel, Durability};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Share of `--seconds` a per-layer run spends on its socket run; the walk
/// and its replay have fixed request counts instead.
const SOCKET_SHARE: f64 = 0.3;

/// Child spans must cover this much of the request spans, or the layer
/// shares do not describe the request.
const MIN_COVERAGE: f64 = 0.90;

/// Directory for a durable run's snapshot and log, inside `out/`.
fn wal_dir(w: &Workload) -> Option<PathBuf> {
    w.durable
        .then(|| out_dir().join(format!("wal-{}-{}", w.name, std::process::id())))
}

/// Filesystem type of `path`, from the mount table; fsync cost is a
/// property of it, so it is printed beside the durable numbers.
fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, dir, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(dir).then_some((dir.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs.to_string())
}

/// Values by metric name, put into the order of `metrics`. A name missing
/// or left over is a bug in this file, caught on the first run.
fn in_order(metrics: &[Metric], mut by_name: BTreeMap<&str, f64>) -> Res<Vec<f64>> {
    let values = metrics
        .iter()
        .map(|m| {
            by_name
                .remove(m.name)
                .ok_or(format!("metric {} was not measured", m.name))
        })
        .collect::<Res<Vec<_>>>()?;
    match by_name.keys().next() {
        Some(extra) => Err(format!("metric {extra} is not in the contract")),
        None => Ok(values),
    }
}

fn report_failures(w: &Workload, run: &TcpRun) {
    for e in &run.load.errors {
        println!("# {}: FAILED {e}", w.name);
    }
}

fn match_state_bytes(db: &Ariel) -> usize {
    let m = db.memory_stats();
    m.alpha_bytes + m.beta_bytes + m.pnode_bytes + m.selnet_bytes
}

/// Median over windows of one timing, printed with its extremes.
fn over_windows(w: &Workload, name: &str, wins: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
    let values: Vec<f64> = wins.iter().map(f).collect();
    let s = spread(&values);
    println!(
        "# {}: {name} median={} min={} max={} over windows {values:?}",
        w.name, s.median, s.min, s.max
    );
    s.median
}

pub fn end_to_end_run(w: &Workload, seed: u64, seconds: f64) -> Res<RunResult> {
    let dir = wal_dir(w);
    let (served, setups) = serve_timed(w, seed, dir.as_deref(), SETUPS)?;
    let run = drive::run(served, seconds)?;
    report_failures(w, &run);
    let wins = windows(&run.load.samples, run.from_ns, run.to_ns);
    if wins.is_empty() {
        return Err(format!(
            "{}: no request completed in the measured interval",
            w.name
        ));
    }
    let fewest = wins.iter().map(|w| w.samples).min().unwrap_or(0);
    println!("# {}: {}", w.name, w.why);
    println!(
        "# {}: seed={seed} cpus_split={} requests={} timed_samples={} \
         fewest_per_window={fewest} p99_resolved={}",
        w.name,
        run.load.pinned,
        run.load.attempted,
        wins.iter().map(|w| w.samples).sum::<usize>(),
        resolved(fewest, 0.99),
    );
    let setup = spread(&setups);
    println!(
        "# {}: setup_s median={} min={} max={} over {SETUPS} set-ups",
        w.name, setup.median, setup.min, setup.max
    );
    if let Some(dir) = &dir {
        println!(
            "# {}: durable directory on {}",
            w.name,
            filesystem_type(dir)
        );
    }
    // printed for the reader; as a metric it is the layer's `server.p99_us`
    over_windows(w, "p99_us", &wins, |x| x.p99_us);
    let by_name = BTreeMap::from([
        (
            "cmd_per_s",
            over_windows(w, "cmd_per_s", &wins, |x| x.cmd_per_s),
        ),
        ("p50_us", over_windows(w, "p50_us", &wins, |x| x.p50_us)),
        ("setup_s", setup.median),
        ("match_state_bytes", match_state_bytes(&run.engine) as f64),
    ]);
    drop(run.engine);
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(RunResult {
        correct: run.load.failed == 0 && run.load.errors.is_empty(),
        attempted: run.load.attempted,
        failed: run.load.failed,
        values: in_order(&END_TO_END, by_name)?,
    })
}

/// The first `n` requests of the workload's sequence, the clients taking
/// turns cycle by cycle (the walk is one thread; the count lands on a
/// cycle boundary at or past `n`, the same one for every seed).
fn first_requests(gens: &mut [Box<dyn crate::gen::Generator>], n: usize) -> Vec<Request> {
    let mut out = Vec::with_capacity(n + 16);
    while out.len() < n {
        for g in gens.iter_mut() {
            g.next_cycle(&mut out);
        }
    }
    out
}

/// Mean ns per stab of the workload's rule intervals and probe values on a
/// standalone interval skip list: the median of three passes.
fn islist_stab_ns(bands: &[Interval<Value>], requests: &[Request]) -> f64 {
    let mut list = IntervalSkipList::with_seed(1);
    for b in bands {
        list.insert(b.clone());
    }
    let probes: Vec<Value> = requests
        .iter()
        .flat_map(|r| &r.probes)
        .map(|p| Value::Int(*p))
        .collect();
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let mut hits = 0u64;
            let t0 = Instant::now();
            for p in &probes {
                list.stab_with(p, |_| hits += 1);
            }
            std::hint::black_box(hits);
            t0.elapsed().as_nanos() as f64 / probes.len() as f64
        })
        .collect();
    median(&passes)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn per_layer_run(w: &Workload, seed: u64, seconds: f64) -> Res<RunResult> {
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let mut correct = true;
    let mut fail = |why: String| {
        println!("# {}: FAILED {why}", w.name);
        correct = false;
    };

    // 1. a socket run, for what only the running server can count
    let dir = wal_dir(w);
    let mut tcp = drive::run(serve(w, seed, dir.as_deref())?, seconds * SOCKET_SHARE)?;
    report_failures(w, &tcp);
    if tcp.load.failed > 0 || !tcp.load.errors.is_empty() {
        fail("socket run".into());
    }
    let wins = windows(&tcp.load.samples, tcp.from_ns, tcp.to_ns);
    let socket_p50_us = median(&wins.iter().map(|x| x.p50_us).collect::<Vec<_>>());
    let fewest = wins.iter().map(|w| w.samples).min().unwrap_or(0);
    println!(
        "# {}: socket run of {} requests; p99 over {} windows of at least {fewest} samples, resolved={}",
        w.name,
        tcp.load.attempted,
        wins.len(),
        resolved(fewest, 0.99)
    );
    m.insert(
        "server.p99_us",
        median(&wins.iter().map(|x| x.p99_us).collect::<Vec<_>>()),
    );
    m.insert("server.batches", tcp.stats.batches as f64);
    m.insert("server.batched_requests", tcp.stats.batched_requests as f64);
    m.insert("server.engine_errors", tcp.stats.engine_errors as f64);
    m.insert("server.protocol_errors", tcp.stats.protocol_errors as f64);
    let wal = tcp.engine.wal_metrics();
    m.insert(
        "storage.wal_fsyncs_per_cmd",
        ratio(wal.fsyncs, tcp.load.attempted),
    );
    m.insert(
        "storage.wal_bytes_per_cmd_byte",
        ratio(wal.bytes, tcp.load.text_bytes),
    );
    let mut recover_s = 0.0;
    if let Some(dir) = &dir {
        // the log the run wrote must rebuild the engine the run left
        let live = fingerprint(&mut tcp.engine)?;
        drop(tcp.engine);
        let t0 = Instant::now();
        let (mut recovered, report) =
            Ariel::recover(dir, engine_options(w, true)).map_err(|e| format!("recover: {e}"))?;
        recover_s = t0.elapsed().as_secs_f64();
        println!(
            "# {}: recovered {} log records in {recover_s} s on {}",
            w.name,
            report.replayed,
            filesystem_type(dir)
        );
        if fingerprint(&mut recovered)? != live {
            fail("recovered engine differs from the live one".into());
        }
    }
    m.insert("storage.recover_s", recover_s);

    // 2. the traced walk
    let mut walked = build(w, seed, None)?;
    let requests = first_requests(&mut walked.gens, w.trace_requests);
    let commands: usize = requests.iter().map(|r| r.changes.max(1) as usize).sum();
    let mut tracer = Tracer::new(requests.len() * 4 + commands * 5);
    let walk_log = out_dir().join(format!("walk-{}-{}.log", w.name, std::process::id()));
    let mut log = match w.durable {
        true => Some(WalWriter::open(&walk_log, Durability::Off).map_err(|e| e.to_string())?),
        false => None,
    };
    let (net0, eng0) = (walked.db.network_stats(), walked.db.stats());
    let t0 = Instant::now();
    walk(&mut walked.db, &requests, log.as_mut(), &mut tracer)?;
    let walk_s = t0.elapsed().as_secs_f64();
    let (net1, eng1) = (walked.db.network_stats(), walked.db.stats());
    drop(log);
    let _ = std::fs::remove_file(&walk_log);
    for bad in verify(&mut walked.db, &walked.gens, &walked.shared)? {
        fail(format!("walk: {bad}"));
    }

    // 3. the same requests through plain `Ariel::execute`
    let mut plain = build(w, seed, dir.as_deref())?;
    let t0 = Instant::now();
    for r in &requests {
        let done = if r.is_query() {
            plain.db.query(&r.text).map(drop)
        } else {
            plain.db.execute(&r.text).map(drop)
        };
        done.map_err(|e| format!("replay `{}`: {e}", r.text))?;
    }
    let execute_s = t0.elapsed().as_secs_f64();
    if fingerprint(&mut walked.db)? != fingerprint(&mut plain.db)? {
        fail("the walk's final state differs from Ariel::execute's".into());
    }
    drop(plain);
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    // 4. where the time went
    let spans = &tracer.spans;
    let b = breakdown(spans);
    println!(
        "# {}: walked {} requests ({} spans) in {walk_s} s; execute took {execute_s} s; \
         request p50 {} ns; spans cover {:.1} %",
        w.name,
        b.requests,
        spans.len(),
        b.request_p50_ns,
        b.coverage * 100.0
    );
    println!("# {}: layer share_% p50_ns p99_ns (per request)", w.name);
    for l in &b.layers {
        println!(
            "# {}: {} {:.1} {} {}",
            w.name,
            l.layer,
            l.share * 100.0,
            l.p50_ns,
            l.p99_ns
        );
    }
    if b.coverage < MIN_COVERAGE {
        fail(format!(
            "spans cover {:.1} % of the requests",
            b.coverage * 100.0
        ));
    }
    for (l, key) in b.layers.iter().zip([
        "server.share_pct",
        "query.share_pct",
        "ariel.share_pct",
        "network.share_pct",
        "storage.share_pct",
    ]) {
        m.insert(key, l.share * 100.0);
    }
    m.insert("trace.coverage_pct", b.coverage * 100.0);
    m.insert("trace.overhead_ratio", walk_s / execute_s);
    m.insert("trace.request_ns", b.request_p50_ns as f64);
    m.insert("server.wire_ns", request_sum_p50(spans, "server.") as f64);
    // what a socket request costs beyond the calls the walk makes: socket,
    // queue, engine lock, thread hand-off — not separable from outside
    m.insert(
        "server.dispatch_us",
        socket_p50_us - b.request_p50_ns as f64 / 1e3,
    );
    for (key, name) in [
        ("query.parse_ns", "query.parse"),
        ("query.resolve_ns", "query.resolve"),
        ("query.plan_ns", "query.plan"),
        ("query.exec_ns", "query.exec"),
        ("ariel.delta_ns", "ariel.delta"),
        ("ariel.act_ns", "ariel.act"),
        ("storage.wal_append_ns", "storage.wal_append"),
        ("storage.wal_fsync_ns", "storage.wal_fsync"),
    ] {
        m.insert(key, span_p50(spans, name) as f64);
    }
    m.insert(
        "network.match_ns",
        request_sum_p50(spans, "network.match") as f64,
    );

    // counts over the walk's fixed sequence: these repeat exactly
    let n = requests.len() as u64;
    let candidates = (net1.stored_join_candidates + net1.virtual_join_candidates)
        - (net0.stored_join_candidates + net0.virtual_join_candidates);
    let inserts = net1.pnode_inserts - net0.pnode_inserts;
    let stabs = net1.islist_stabs - net0.islist_stabs;
    m.insert(
        "ariel.firings_per_request",
        ratio(eng1.firings - eng0.firings, n),
    );
    m.insert(
        "network.alpha_tests",
        (net1.alpha_tests - net0.alpha_tests) as f64,
    );
    m.insert("network.join_candidates", candidates as f64);
    m.insert("network.pnode_inserts", inserts as f64);
    m.insert("network.join_yield", ratio(inserts, candidates));
    m.insert(
        "network.virtual_scanned_tuples",
        (net1.virtual_scanned_tuples - net0.virtual_scanned_tuples) as f64,
    );
    m.insert("network.alpha_bytes", net1.alpha_bytes as f64);
    m.insert("islist.stabs", stabs as f64);
    m.insert(
        "islist.nodes_per_stab",
        ratio(net1.islist_nodes_visited - net0.islist_nodes_visited, stabs),
    );
    m.insert("islist.stab_ns", islist_stab_ns(&walked.bands, &requests));

    let trace_file = out_dir().join(format!("trace-{}.json", w.name));
    tracer
        .write_json(&trace_file)
        .map_err(|e| format!("writing {trace_file:?}: {e}"))?;
    println!("# {}: spans written to {}", w.name, trace_file.display());

    Ok(RunResult {
        correct,
        attempted: tcp.load.attempted + n,
        failed: tcp.load.failed,
        values: in_order(&PER_LAYER, m)?,
    })
}
