//! End-to-end observability: always-on counters, gated timing histograms,
//! the metrics snapshot, `explain analyze`, and the flight-recorder trace
//! tier (causal events, `why` provenance, Chrome export).

use ariel::network::VirtualPolicy;
use ariel::{Ariel, EngineOptions, TraceEventKind};

#[path = "common/golden.rs"]
mod golden;

/// Engine with the timing tier on, a 2-variable paper-style rule
/// (`emp.sal` band joined to `dept` on `dno`), and some dept rows.
fn observed_db() -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        observability: true,
        ..Default::default()
    });
    db.execute(
        "create emp (name = string, sal = float, dno = int); \
         create dept (dno = int, name = string); \
         create log (name = string)",
    )
    .unwrap();
    db.execute("append dept (dno = 1, name = \"eng\")").unwrap();
    db.execute("append dept (dno = 2, name = \"ops\")").unwrap();
    db.execute(
        "define rule watch if emp.sal > 1000 and emp.dno = dept.dno \
         then append to log(name = emp.name)",
    )
    .unwrap();
    db
}

fn feed(db: &mut Ariel, n: usize) {
    for i in 0..n {
        db.execute(&format!(
            "append emp (name = \"e{i}\", sal = {}, dno = {})",
            500 + i * 300,
            1 + (i % 2)
        ))
        .unwrap();
    }
}

#[test]
fn per_rule_token_counts_are_nonzero() {
    let mut db = observed_db();
    feed(&mut db, 10);
    let rs = db.rule_stats("watch").unwrap();
    assert!(rs.tokens_in > 0, "rule saw tokens: {rs:?}");
    assert!(rs.alpha_tests > 0 && rs.alpha_passes > 0, "{rs:?}");
    assert!(rs.alpha_passes <= rs.alpha_tests, "{rs:?}");
    assert!(rs.join_probes > 0 && rs.pnode_inserts > 0, "{rs:?}");
    assert!(rs.join_fanout() > 0.0);
    assert!(rs.stored_join_candidates > 0, "{rs:?}");
    assert_eq!(rs.virtual_join_candidates, 0, "AllStored policy: {rs:?}");
    assert_eq!(rs.virtual_hit_ratio(), 0.0);

    let ns = db.network_stats();
    assert!(ns.tokens_processed > 0 && ns.selnet_probes > 0, "{ns:?}");
    assert!(ns.selnet_candidates > 0 && ns.islist_stabs > 0, "{ns:?}");
    assert_eq!(ns.alpha_tests, rs.alpha_tests, "single rule owns all tests");
    assert_eq!(ns.join_probes, rs.join_probes);
    assert_eq!(ns.pnode_inserts, rs.pnode_inserts);
}

#[test]
fn histogram_bucket_totals_equal_event_counts() {
    let mut db = observed_db();
    feed(&mut db, 8);
    let phases = db.network().phases().expect("observability on");
    for (name, h) in &phases {
        assert_eq!(
            h.buckets().iter().sum::<u64>(),
            h.count(),
            "{name}: bucket total must equal sample count"
        );
    }
    // each phase histogram times exactly the events its counter counts
    let ns = db.network_stats();
    let count = |phase| phases.iter().find(|(p, _)| *p == phase).unwrap().1.count();
    assert_eq!(count("selnet_probe"), ns.selnet_probes);
    assert_eq!(count("alpha_test"), ns.alpha_tests);
    assert_eq!(count("virtual_scan"), ns.virtual_scans);
    assert_eq!(count("beta_join"), ns.join_probes);
    assert!(count("pnode_insert") > 0, "P-node inserts were timed");
}

#[test]
fn explain_analyze_names_every_node_of_a_two_variable_rule() {
    let mut db = observed_db();
    let out = db
        .explain_analyze("append emp (name = \"bob\", sal = 5000, dno = 1)")
        .unwrap();
    // every node of the rule's network appears by name…
    assert!(out.contains("selection network:"), "{out}");
    assert!(out.contains("rule watch:"), "{out}");
    assert!(out.contains("α[emp: emp]"), "{out}");
    assert!(out.contains("α[dept: dept]"), "{out}");
    assert!(out.contains("β-join"), "{out}");
    assert!(out.contains("P-node"), "{out}");
    assert!(out.contains("action"), "{out}");
    // …with token counts and timings
    assert!(
        out.contains("in 1, out 1"),
        "emp α-node saw the token: {out}"
    );
    assert!(out.contains("fan-out"), "{out}");
    assert!(out.contains("/test") || out.contains("/probe"), "{out}");
    assert!(out.contains("token(s) through the network"), "{out}");
}

#[test]
fn explain_analyze_works_with_flag_off_and_preserves_capture_scoping() {
    let mut db = observed_db();
    db.set_observability(false);
    assert!(!db.observing());
    let out = db
        .explain_analyze("append emp (name = \"carol\", sal = 2000, dno = 2)")
        .unwrap();
    assert!(out.contains("rule watch:"), "{out}");
    assert!(out.contains("in 1, out 1"), "{out}");
    // the run did not leave the timing tier on
    assert!(!db.observing());
    assert!(!db.network().observing());
}

#[test]
fn explain_analyze_with_flag_on_adds_the_run_to_the_cumulative_histograms() {
    let mut db = observed_db();
    feed(&mut db, 3);
    let (phases0, ns0, es0, json0) = (
        db.network().phases().unwrap(),
        db.network_stats(),
        db.stats(),
        db.metrics_json(),
    );
    let out = db
        .explain_analyze("append emp (name = \"dave\", sal = 3000, dno = 1)")
        .unwrap();
    assert!(out.contains("in 1, out 1"), "{out}");
    assert!(out.contains("action — 1 firing(s)"), "{out}");
    assert!(db.observing(), "the flag stays on");
    let (phases1, ns1, es1, json1) = (
        db.network().phases().unwrap(),
        db.network_stats(),
        db.stats(),
        db.metrics_json(),
    );
    // after = before + the run's events, phase by phase
    let run = [
        ns1.selnet_probes - ns0.selnet_probes,
        ns1.alpha_tests - ns0.alpha_tests,
        ns1.virtual_scans - ns0.virtual_scans,
        ns1.join_probes - ns0.join_probes,
        // one P-node insert batch per join of the two-variable rule
        ns1.join_probes - ns0.join_probes,
    ];
    assert!(run[1] > 0 && run[3] > 0, "the run matched: {run:?}");
    for (((phase, before), (_, after)), n) in phases0.iter().zip(&phases1).zip(run) {
        assert_eq!(after.count(), before.count() + n, "{phase}");
    }
    let batches = |j: &str| json_counter(j, "\"match_batch\":", "count");
    let actions = |j: &str| json_counter(j, "\"action_exec\":{\"watch\":", "count");
    assert_eq!(
        batches(&json1),
        batches(&json0) + es1.transitions - es0.transitions
    );
    assert_eq!(actions(&json1), actions(&json0) + es1.firings - es0.firings);
}

#[test]
fn metrics_json_reflects_observability_flag() {
    let mut db = observed_db();
    feed(&mut db, 4);
    let on = db.metrics_json();
    assert!(on.starts_with('{') && on.ends_with('}'), "{on}");
    assert!(on.contains("\"name\":\"watch\""), "{on}");
    assert!(on.contains("\"timing\":{"), "{on}");
    assert!(on.contains("\"match_batch\""), "{on}");
    assert!(on.contains("\"action_exec\""), "{on}");
    assert!(
        on.contains("\"watch\""),
        "action histogram labeled by rule name"
    );
    db.set_observability(false);
    let off = db.metrics_json();
    assert!(off.contains("\"timing\":null"), "{off}");
    assert!(off.contains("\"tokens_processed\""), "counters stay: {off}");
}

// ----- flight recorder -------------------------------------------------------

/// A two-level cascade on pattern rules: `append src` joins `dim` and
/// fires r1 (depth 0), whose action appends `mid` and fires r2 (depth 1),
/// whose action appends `sink` (depth 2, quiescent). Tracing is enabled
/// before any data arrives.
fn cascade_db(policy: VirtualPolicy) -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        ..Default::default()
    });
    db.execute(
        "create src (x = int); create dim (x = int, y = int); \
         create mid (x = int); create sink (x = int)",
    )
    .unwrap();
    db.execute("define rule r1 if src.x > 0 and src.x = dim.x then append to mid(x = src.x)")
        .unwrap();
    db.execute("define rule r2 if mid.x > 0 then append to sink(x = mid.x)")
        .unwrap();
    db.set_tracing(true);
    db.execute("append dim (x = 1, y = 10)").unwrap();
    db.execute("append dim (x = 2, y = 20)").unwrap();
    db.execute("append src (x = 1)").unwrap();
    db
}

/// The virtual policies the trace-tier oracle runs the cascade under:
/// r1's join memories stored, virtual, or split by selectivity.
fn policies() -> [VirtualPolicy; 3] {
    [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.4),
    ]
}

/// The `\why` rendering is a differential oracle on the trace tier:
/// stored and virtual memories record different probe events, yet the
/// causal chain must render byte-identically under every virtual policy.
#[test]
fn why_chain_is_identical_across_backends() {
    let mut stored = cascade_db(VirtualPolicy::AllStored);
    assert_eq!(stored.query("retrieve (sink.x)").unwrap().rows.len(), 1);
    let why1 = stored.why("r1").unwrap();
    let why2 = stored.why("r2").unwrap();
    // the full causal chain, with correct cascade depths
    assert!(why1.contains("firing #1 of r1 — transition"), "{why1}");
    assert!(why1.contains("depth 0"), "{why1}");
    assert!(
        why1.contains("command `append to src (x = 1)` → r1 fired (depth 0)"),
        "{why1}"
    );
    assert!(why1.contains("instantiation tids ["), "{why1}");
    assert!(why1.contains("← token +src"), "{why1}");
    assert!(why1.contains("cascade → transition"), "{why1}");
    assert!(why1.contains("(depth 1): 1 token"), "{why1}");
    assert!(
        why2.contains("r1 fired (depth 0) → r2 fired (depth 1)"),
        "{why2}"
    );
    assert!(why2.contains("← token"), "{why2}");
    assert!(why2.contains("(depth 2): 1 token"), "{why2}");
    // the rendered chains are byte-identical under every policy, though
    // the recorded events are not: only virtual memories scan relations
    let scans = |db: &Ariel| {
        db.trace_events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::VirtualScan { .. }))
            .count()
    };
    assert_eq!(scans(&stored), 0);
    let mut scanned = false;
    for policy in policies() {
        let mut db = cascade_db(policy.clone());
        assert_eq!(db.query("retrieve (sink.x)").unwrap().rows.len(), 1);
        assert_eq!(db.why("r1").unwrap(), why1, "r1 chain differs: {policy:?}");
        assert_eq!(db.why("r2").unwrap(), why2, "r2 chain differs: {policy:?}");
        scanned |= scans(&db) > 0;
    }
    assert!(scanned, "some policy must join through a virtual memory");
}

#[test]
fn why_reports_missing_rule_and_empty_ring() {
    let mut db = cascade_db(VirtualPolicy::AllStored);
    assert!(db.why("nope").is_err(), "unknown rule is an error");
    db.clear_trace();
    let why = db.why("r1").unwrap();
    assert!(why.contains("no firing of r1"), "{why}");
    db.set_tracing(false);
    let why = db.why("r1").unwrap();
    assert!(why.contains("tracing is off"), "{why}");
}

#[test]
fn trace_ring_is_bounded_and_wraps() {
    let mut db = observed_db();
    db.set_tracing(true);
    db.set_trace_limit(16);
    assert_eq!(db.trace_limit(), 16);
    feed(&mut db, 20);
    let events = db.trace_events();
    assert_eq!(events.len(), 16, "retention bounded by the capacity");
    assert!(db.trace_dropped() > 0, "older events were evicted");
    for w in events.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1, "sequence numbers contiguous");
        assert!(w[1].ts_ns >= w[0].ts_ns, "timestamps monotone");
    }
    // shrinking a live recorder trims the oldest events immediately
    db.set_trace_limit(4);
    let trimmed = db.trace_events();
    assert_eq!(trimmed.len(), 4);
    assert_eq!(trimmed[0].seq, events[12].seq);
    // and more traffic still never exceeds the new bound
    feed(&mut db, 5);
    assert!(db.trace_events().len() <= 4);
}

#[test]
fn tracing_off_allocates_nothing_and_records_nothing() {
    let mut db = observed_db();
    assert!(!db.tracing(), "off by default");
    assert!(db.network().trace().is_none(), "no recorder allocated");
    feed(&mut db, 5);
    assert!(db.trace_events().is_empty());
    assert_eq!(db.trace_dropped(), 0);
    // enabling records; disabling discards the recorder entirely
    db.set_tracing(true);
    feed(&mut db, 2);
    assert!(!db.trace_events().is_empty());
    db.set_tracing(false);
    assert!(db.network().trace().is_none());
    assert!(db.trace_events().is_empty());
}

#[test]
fn chrome_trace_json_is_valid_and_monotone_per_track() {
    // observability on: firings carry measured durations and become spans
    let mut db = observed_db();
    db.set_tracing(true);
    feed(&mut db, 6);
    let json = db.chrome_trace_json();
    // format pins
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.ends_with("]}"), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "spans present: {json}");
    assert!(json.contains("\"ph\":\"i\""), "instants present: {json}");
    assert!(json.contains("\"cat\":\"transition\""), "{json}");
    assert!(json.contains("\"name\":\"fire watch\""), "{json}");
    assert!(json.contains("\"pid\":1"), "{json}");
    // the firing span carries its duration (timing tier was on)
    let fire = json.find("\"name\":\"fire watch\"").unwrap();
    assert!(
        json[fire..].starts_with("\"name\":\"fire watch\",\"cat\":\"firing\",\"ph\":\"X\""),
        "timed firings are spans: {}",
        &json[fire..fire + 80]
    );
    // minimal validity scan: balanced braces/brackets outside strings,
    // every string closed, no raw control characters
    let (mut obj, mut arr, mut in_str, mut esc) = (0i64, 0i64, false, false);
    for c in json.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            } else {
                assert!(!c.is_control(), "raw control character in JSON string");
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => obj += 1,
            '}' => obj -= 1,
            '[' => arr += 1,
            ']' => arr -= 1,
            _ => {}
        }
        assert!(obj >= 0 && arr >= 0, "unbalanced structure");
    }
    assert!(!in_str && obj == 0 && arr == 0, "document not closed");
    // `ts` is monotone within each track (`tid` = cascade depth); every
    // event renders ts before tid, and args carry neither key
    let mut last: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut pos = 0usize;
    let mut seen = 0usize;
    while let Some(i) = json[pos..].find("\"ts\":") {
        let start = pos + i + 5;
        let end = start + json[start..].find(',').unwrap();
        let ts: f64 = json[start..end].parse().unwrap();
        let ti = end + json[end..].find("\"tid\":").unwrap() + 6;
        let te = ti + json[ti..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let tid: u64 = json[ti..te].parse().unwrap();
        let prev = last.entry(tid).or_insert(0.0);
        assert!(ts >= *prev, "ts regressed on track {tid}: {ts} < {prev}");
        *prev = ts;
        pos = te;
        seen += 1;
    }
    assert!(seen > 10, "expected many events, saw {seen}");
}

#[test]
fn trace_ring_stays_bounded_under_every_virtual_policy() {
    for policy in policies() {
        let mut db = cascade_db(policy.clone());
        db.set_trace_limit(8);
        for i in 3..10 {
            db.execute(&format!("append src (x = {i})")).unwrap();
        }
        assert!(db.trace_events().len() <= 8, "{policy:?}");
        assert!(db.trace_dropped() > 0, "{policy:?}");
        let json = db.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{policy:?}");
    }
}

// ----- metrics-schema stability ----------------------------------------------
//
// The shapes below are documented in docs/OBSERVABILITY.md and scraped by
// external tooling (the Prometheus exposition via the server's `/metrics`
// shim); renaming a key or family is a breaking change these tests pin.

/// Extract the integer value of `"key":<n>` after `section` in a JSON
/// metrics snapshot (good enough for the flat snapshots the engine emits).
fn json_counter(json: &str, section: &str, key: &str) -> u64 {
    let at = json.find(section).unwrap_or_else(|| {
        panic!("metrics_json lost its \"{section}\" section: {json}");
    });
    let pat = format!("\"{key}\":");
    let start = at + json[at..].find(&pat).expect("documented key present") + pat.len();
    json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

#[test]
fn metrics_json_schema_is_stable_and_counters_monotone() {
    let mut db = observed_db();
    feed(&mut db, 4);
    let before = db.metrics_json();
    // the documented top-level sections, in their documented order
    assert!(
        before.starts_with("{\"engine\":{\"transitions\":"),
        "{before}"
    );
    let mut at = 0;
    for section in [
        "\"engine\":",
        "\"network\":",
        "\"rules\":",
        "\"wal\":",
        "\"timing\":",
    ] {
        let pos = before[at..]
            .find(section)
            .unwrap_or_else(|| panic!("section {section} missing/reordered: {before}"));
        at += pos;
    }
    // documented per-section counters
    for key in ["transitions", "tokens", "firings"] {
        json_counter(&before, "\"engine\":", key);
    }
    for key in [
        "tokens_processed",
        "alpha_tests",
        "join_probes",
        "pnode_inserts",
    ] {
        json_counter(&before, "\"network\":", key);
    }
    assert!(before.contains("\"name\":\"watch\""), "{before}");
    json_counter(&before, "\"name\":\"watch\"", "firings");
    assert!(
        before.contains("\"wal\":{\"attached\":false"),
        "no WAL here: {before}"
    );
    json_counter(&before, "\"wal\":", "records");
    json_counter(&before, "\"wal\":", "fsyncs");

    // counters are monotone across more workload
    feed(&mut db, 6);
    let after = db.metrics_json();
    for (section, key) in [
        ("\"engine\":", "transitions"),
        ("\"engine\":", "tokens"),
        ("\"engine\":", "firings"),
        ("\"network\":", "tokens_processed"),
        ("\"name\":\"watch\"", "firings"),
    ] {
        let (b, a) = (
            json_counter(&before, section, key),
            json_counter(&after, section, key),
        );
        assert!(a > b, "{section}{key} must grow with workload: {b} -> {a}");
    }
}

/// The value of the single unlabeled sample `name <value>` in a
/// Prometheus exposition.
fn prom_value(text: &str, name: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.strip_prefix(name).is_some_and(|r| r.starts_with(' ')))
        .unwrap_or_else(|| panic!("family {name} missing from exposition"));
    line[name.len() + 1..].trim().parse().expect("sample value")
}

#[test]
fn prometheus_exposition_is_well_formed_and_counters_monotone() {
    let mut db = observed_db();
    feed(&mut db, 4);
    let before = db.metrics_prometheus();
    // the documented families, each declared before use
    for family in [
        "ariel_engine_transitions_total counter",
        "ariel_engine_tokens_total counter",
        "ariel_engine_firings_total counter",
        "ariel_network_tokens_processed_total counter",
        "ariel_network_alpha_bytes gauge",
        "ariel_rule_firings_total counter",
        "ariel_wal_attached gauge",
        "ariel_wal_records_total counter",
        "ariel_wal_fsyncs_total counter",
        "ariel_wal_fsync_duration_ns histogram",
        "ariel_match_batch_duration_ns histogram",
        "ariel_action_duration_ns histogram",
    ] {
        assert!(before.contains(&format!("# TYPE {family}")), "{family}");
    }
    // per-rule labels and histogram completeness
    assert!(
        before.contains("ariel_rule_firings_total{rule=\"watch\"}"),
        "{before}"
    );
    assert!(before.contains("ariel_action_duration_ns_bucket{rule=\"watch\",le=\"+Inf\"}"));
    assert!(before.contains("ariel_match_batch_duration_ns_count "));
    assert_eq!(prom_value(&before, "ariel_wal_attached"), 0.0);
    // every line is a comment or a `name[{labels}] value` sample whose
    // value parses as a number
    for line in before.lines() {
        if line.is_empty() || line.starts_with("# ") {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line must be `name value`: {line}");
        });
        assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
    }

    feed(&mut db, 6);
    let after = db.metrics_prometheus();
    for name in [
        "ariel_engine_transitions_total",
        "ariel_engine_tokens_total",
        "ariel_engine_firings_total",
        "ariel_network_tokens_processed_total",
    ] {
        let (b, a) = (prom_value(&before, name), prom_value(&after, name));
        assert!(a > b, "{name} must grow with workload: {b} -> {a}");
    }
}

/// Both engine documents, with the timing tier off after a fixed
/// workload, hold the key paths and families of `tests/golden/`.
#[test]
fn engine_metrics_match_their_golden_schemas() {
    let mut db = observed_db();
    db.set_observability(false);
    feed(&mut db, 4);
    golden::assert_golden(
        "engine_metrics_json.txt",
        &golden::json_schema(&db.metrics_json()),
    );
    golden::assert_golden(
        "engine_metrics_prom.txt",
        &golden::prom_schema(&db.metrics_prometheus()),
    );
}

#[test]
fn virtual_nodes_report_scan_work() {
    let mut db = Ariel::with_options(EngineOptions {
        observability: true,
        virtual_policy: ariel::network::VirtualPolicy::AllVirtual,
        ..Default::default()
    });
    db.execute(
        "create emp (name = string, sal = float, dno = int); \
         create dept (dno = int, name = string); \
         create log (name = string)",
    )
    .unwrap();
    db.execute("append dept (dno = 1, name = \"eng\")").unwrap();
    db.execute(
        "define rule v if emp.sal > 0 and emp.dno = dept.dno \
         then append to log(name = emp.name)",
    )
    .unwrap();
    db.execute("append emp (name = \"a\", sal = 10, dno = 1)")
        .unwrap();
    let rs = db.rule_stats("v").unwrap();
    assert!(
        rs.virtual_scans > 0,
        "dept joined through the base relation: {rs:?}"
    );
    assert!(rs.virtual_join_candidates > 0, "{rs:?}");
    assert!(rs.virtual_hit_ratio() > 0.0);
}
