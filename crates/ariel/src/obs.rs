//! Engine-level observability: action/cycle timing, the metrics snapshot,
//! and the `explain analyze` renderer.
//!
//! The network layers keep their own two observability tiers (see
//! [`ariel_network::obs`]); this module adds the phases only the engine can
//! see — wall-clock time per token batch pushed through the network and
//! per rule-action execution — and assembles everything into the two
//! user-facing surfaces:
//!
//! * [`crate::Ariel::metrics_json`] — a hand-rolled JSON snapshot of the
//!   engine counters, network counters, per-rule statistics, and (when the
//!   observability flag is on) every timing histogram. The benchmark
//!   driver serializes this into `BENCH_obs.json`.
//! * [`crate::Ariel::explain_analyze`] — run a command with a scoped
//!   timing capture and render an annotated per-node tree: tokens in/out,
//!   selectivity, join fan-out, and time spent at every node the command's
//!   tokens touched.
//!
//! The full schema of both surfaces is documented in
//! `docs/OBSERVABILITY.md`.

use ariel_islist::Histogram;
use ariel_network::{AlphaKind, MatchObs, NetworkStats, RuleStats};
use std::collections::BTreeMap;

use crate::engine::EngineStats;

/// Engine-side timing store, active while the observability flag is on.
#[derive(Debug, Default)]
pub struct EngineObs {
    /// Wall-clock ns per token batch pushed through the network (one
    /// sample per DML command or rule action that produced tokens).
    pub match_batch: Histogram,
    /// Wall-clock ns per rule-action execution, keyed by rule id.
    pub action_exec: BTreeMap<u64, Histogram>,
}

impl EngineObs {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one action execution for a rule.
    pub fn record_action(&mut self, rule: u64, ns: u64) {
        self.action_exec.entry(rule).or_default().record(ns);
    }

    /// Fold another store into this one (scoped-capture restore).
    pub fn merge(&mut self, other: &EngineObs) {
        self.match_batch.merge(&other.match_batch);
        for (rule, h) in &other.action_exec {
            self.action_exec.entry(*rule).or_default().merge(h);
        }
    }
}

/// Cumulative WAL durability telemetry the engine accumulates across
/// writer re-attachments.
///
/// A [`ariel_storage::wal::WalWriter`] counts records, bytes and fsyncs
/// only for its own lifetime, and the engine drops and recreates the
/// writer at every checkpoint, durability-mode change and recovery. This
/// struct is where the dying writer's figures are folded (see
/// `Ariel::wal_detach`), so [`crate::Ariel::wal_metrics`] can report
/// engine-lifetime totals.
#[derive(Debug, Default)]
pub struct WalTotals {
    /// Records appended by detached writers.
    pub records: u64,
    /// Bytes appended by detached writers (framing included).
    pub bytes: u64,
    /// Fsyncs issued by detached writers.
    pub fsyncs: u64,
    /// Fsync wall-clock latency of detached writers, in nanoseconds.
    pub fsync_ns: Histogram,
    /// Records that failed to replay during the last [`crate::Ariel::recover`].
    pub replay_errors: u64,
}

/// Point-in-time snapshot of the engine's WAL telemetry: the cumulative
/// [`WalTotals`] merged with the live writer's figures. Returned by
/// [`crate::Ariel::wal_metrics`] and rendered into both
/// [`crate::Ariel::metrics_json`] (the `"wal"` section) and the
/// Prometheus exposition (`ariel_wal_*` families).
#[derive(Debug, Clone)]
pub struct WalMetrics {
    /// Whether a log writer is currently attached (durability enabled).
    pub attached: bool,
    /// Total WAL records appended over the engine's lifetime.
    pub records: u64,
    /// Total WAL bytes appended (framing included).
    pub bytes: u64,
    /// Total fsyncs issued by the durability path.
    pub fsyncs: u64,
    /// Fsync wall-clock latency histogram, in nanoseconds.
    pub fsync_ns: Histogram,
    /// Records that failed to replay during the last recovery.
    pub replay_errors: u64,
}

impl WalMetrics {
    /// Render the `"wal"` object of the metrics snapshot.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"attached\":{},\"records\":{},\"bytes\":{},\"fsyncs\":{},\
             \"replay_errors\":{},\"fsync_ns\":{}}}",
            self.attached,
            self.records,
            self.bytes,
            self.fsyncs,
            self.replay_errors,
            self.fsync_ns.to_json(),
        )
    }
}

/// Format a nanosecond duration human-readably (`850 ns`, `12.3 µs`, …).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

fn kind_name(kind: AlphaKind) -> &'static str {
    match kind {
        AlphaKind::Stored => "stored",
        AlphaKind::Virtual => "virtual",
        AlphaKind::DynamicOn => "dynamic-on",
        AlphaKind::DynamicTrans => "dynamic-transition",
        AlphaKind::Simple => "simple",
        AlphaKind::SimpleOn => "simple-on",
        AlphaKind::SimpleTrans => "simple-transition",
    }
}

/// Everything [`render_metrics_json`] needs, gathered by the engine.
pub(crate) struct MetricsInput<'a> {
    pub engine: EngineStats,
    pub network: NetworkStats,
    /// `(rule name, action firings, per-rule stats)` for every active rule.
    pub rules: Vec<(String, u64, RuleStats)>,
    /// Merged WAL telemetry snapshot.
    pub wal: WalMetrics,
    /// Cumulative network timing session, when observability is on.
    pub match_obs: Option<&'a MatchObs>,
    /// Cumulative engine timing store, when observability is on.
    pub engine_obs: Option<&'a EngineObs>,
    /// Rule names by id (labels the `action_exec` histograms).
    pub names: BTreeMap<u64, String>,
}

/// Assemble the full metrics snapshot as a JSON document.
pub(crate) fn render_metrics_json(input: &MetricsInput<'_>) -> String {
    let e = input.engine;
    let n = input.network;
    let mut s = format!(
        "{{\"engine\":{{\"transitions\":{},\"tokens\":{},\"firings\":{}}},",
        e.transitions, e.tokens, e.firings
    );
    s.push_str(&format!(
        "\"network\":{{\"rules\":{},\"alpha_nodes\":{},\"virtual_alpha_nodes\":{},\
         \"alpha_entries\":{},\"alpha_bytes\":{},\"pnode_rows\":{},\"pnode_bytes\":{},\
         \"selnet_bytes\":{},\"tokens_processed\":{},\"selnet_probes\":{},\
         \"selnet_candidates\":{},\"islist_stabs\":{},\"islist_nodes_visited\":{},\
         \"alpha_tests\":{},\"alpha_passes\":{},\"join_probes\":{},\"pnode_inserts\":{},\
         \"virtual_scans\":{},\"virtual_scanned_tuples\":{},\
         \"stored_join_candidates\":{},\"virtual_join_candidates\":{},\
         \"index_probes\":{},\"index_hits\":{},\
         \"indexed_candidates\":{},\"scanned_candidates\":{},\
         \"range_probes\":{},\"range_hits\":{},\
         \"beta_bytes\":{},\"beta_probes\":{},\"beta_hits\":{}}},",
        n.rules,
        n.alpha_nodes,
        n.virtual_alpha_nodes,
        n.alpha_entries,
        n.alpha_bytes,
        n.pnode_rows,
        n.pnode_bytes,
        n.selnet_bytes,
        n.tokens_processed,
        n.selnet_probes,
        n.selnet_candidates,
        n.islist_stabs,
        n.islist_nodes_visited,
        n.alpha_tests,
        n.alpha_passes,
        n.join_probes,
        n.pnode_inserts,
        n.virtual_scans,
        n.virtual_scanned_tuples,
        n.stored_join_candidates,
        n.virtual_join_candidates,
        n.index_probes,
        n.index_hits,
        n.indexed_candidates,
        n.scanned_candidates,
        n.range_probes,
        n.range_hits,
        n.beta_bytes,
        n.beta_probes,
        n.beta_hits,
    ));
    s.push_str("\"rules\":[");
    for (i, (name, firings, r)) in input.rules.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"firings\":{firings},\"alpha_entries\":{},\"alpha_bytes\":{},\"pnode_rows\":{},\
             \"pnode_bytes\":{},\"tokens_in\":{},\"alpha_tests\":{},\"alpha_passes\":{},\
             \"join_probes\":{},\"pnode_inserts\":{},\"join_fanout\":{:.4},\
             \"virtual_scans\":{},\"virtual_scanned_tuples\":{},\
             \"stored_join_candidates\":{},\"virtual_join_candidates\":{},\
             \"index_probes\":{},\"index_hits\":{},\
             \"indexed_candidates\":{},\"scanned_candidates\":{},\
             \"range_probes\":{},\"range_hits\":{},\
             \"beta_bytes\":{},\"beta_probes\":{},\"beta_hits\":{},\
             \"virtual_hit_ratio\":{:.4}}}",
            name,
            r.alpha_entries,
            r.alpha_bytes,
            r.pnode_rows,
            r.pnode_bytes,
            r.tokens_in,
            r.alpha_tests,
            r.alpha_passes,
            r.join_probes,
            r.pnode_inserts,
            r.join_fanout(),
            r.virtual_scans,
            r.virtual_scanned_tuples,
            r.stored_join_candidates,
            r.virtual_join_candidates,
            r.index_probes,
            r.index_hits,
            r.indexed_candidates,
            r.scanned_candidates,
            r.range_probes,
            r.range_hits,
            r.beta_bytes,
            r.beta_probes,
            r.beta_hits,
            r.virtual_hit_ratio(),
        ));
    }
    s.push_str("],\"wal\":");
    s.push_str(&input.wal.to_json());
    s.push_str(",\"timing\":");
    match (input.match_obs, input.engine_obs) {
        (Some(m), Some(eo)) => {
            s.push_str(&format!(
                "{{\"match\":{},\"match_batch\":{},\"action_exec\":{{",
                m.to_json(),
                eo.match_batch.to_json()
            ));
            for (i, (rule, h)) in eo.action_exec.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let label = input
                    .names
                    .get(rule)
                    .cloned()
                    .unwrap_or_else(|| format!("rule-{rule}"));
                s.push_str(&format!("\"{}\":{}", label, h.to_json()));
            }
            s.push_str("}}");
        }
        _ => s.push_str("null"),
    }
    s.push('}');
    s
}

/// Escape a string for use inside a Prometheus label value: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
pub fn prom_escape_label(s: &str) -> String {
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

/// Append a `# HELP`/`# TYPE` header pair followed by one sample line
/// (`name value`, or `name{labels} value` when `labels` is non-empty).
pub fn write_prom_metric(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// Append the `# HELP`/`# TYPE` header pair of a metric family without
/// any sample line — used before a labelled series.
pub fn write_prom_family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Append one labelled sample line (`name{labels} value`).
pub fn write_prom_sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Render a log₂ [`Histogram`] as the sample lines of a Prometheus
/// histogram family: cumulative `name_bucket{le="…"}` lines (one per
/// non-empty log₂ bucket, upper bound = the next bucket's floor, plus the
/// mandatory `+Inf`), then `name_sum` and `name_count`. The caller emits
/// the `# HELP`/`# TYPE histogram` header (once per family) via
/// [`write_prom_family`]; `labels` is spliced into every line so one
/// family can carry many labelled series.
pub fn write_prom_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let buckets = h.buckets();
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    if let Some(last) = buckets.iter().rposition(|&n| n > 0) {
        for (i, &n) in buckets.iter().enumerate().take(last + 1) {
            cum += n;
            let le = Histogram::bucket_floor(i + 1);
            out.push_str(&format!(
                "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}\n"
            ));
        }
    }
    out.push_str(&format!(
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}\n",
        h.count()
    ));
    let lb = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{lb} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{lb} {}\n", h.count()));
}

/// Assemble the engine half of the Prometheus text exposition: engine
/// counters, network counters/gauges, per-rule firing counters, WAL
/// durability metrics, and — when observability is on — the engine timing
/// histograms. The server prepends its own `ariel_server_*` families (see
/// `ariel-server`'s telemetry module); the REPL serves this directly as
/// `\metrics prom`.
pub(crate) fn render_metrics_prometheus(input: &MetricsInput<'_>) -> String {
    let mut s = String::with_capacity(4096);
    let e = input.engine;
    write_prom_metric(
        &mut s,
        "ariel_engine_transitions_total",
        "counter",
        "Committed state transitions (recognize-act cycles triggered by DML).",
        e.transitions,
    );
    write_prom_metric(
        &mut s,
        "ariel_engine_tokens_total",
        "counter",
        "Net-effect delta tokens pushed through the discrimination network.",
        e.tokens,
    );
    write_prom_metric(
        &mut s,
        "ariel_engine_firings_total",
        "counter",
        "Rule-action executions.",
        e.firings,
    );
    let n = input.network;
    for (name, kind, help, v) in [
        (
            "ariel_network_rules",
            "gauge",
            "Active rules in the discrimination network.",
            n.rules as u64,
        ),
        (
            "ariel_network_alpha_entries",
            "gauge",
            "Entries across all stored alpha memories.",
            n.alpha_entries as u64,
        ),
        (
            "ariel_network_alpha_bytes",
            "gauge",
            "Approximate bytes held by stored alpha memories.",
            n.alpha_bytes as u64,
        ),
        (
            "ariel_network_pnode_rows",
            "gauge",
            "Rule instantiations waiting in P-nodes.",
            n.pnode_rows as u64,
        ),
        (
            "ariel_network_pnode_bytes",
            "gauge",
            "Approximate bytes held by P-nodes.",
            n.pnode_bytes as u64,
        ),
        (
            "ariel_network_beta_bytes",
            "gauge",
            "Approximate bytes held by beta memories (always 0: A-TREAT keeps none).",
            n.beta_bytes as u64,
        ),
        (
            "ariel_network_selnet_bytes",
            "gauge",
            "Approximate bytes held by the selection network.",
            n.selnet_bytes as u64,
        ),
        (
            "ariel_network_tokens_processed_total",
            "counter",
            "Tokens processed by the match network.",
            n.tokens_processed,
        ),
        (
            "ariel_network_selnet_probes_total",
            "counter",
            "Selection-network stabbing queries.",
            n.selnet_probes,
        ),
        (
            "ariel_network_alpha_tests_total",
            "counter",
            "Alpha-node predicate tests.",
            n.alpha_tests,
        ),
        (
            "ariel_network_alpha_passes_total",
            "counter",
            "Alpha-node predicate passes.",
            n.alpha_passes,
        ),
        (
            "ariel_network_join_probes_total",
            "counter",
            "Join probes across all rules.",
            n.join_probes,
        ),
        (
            "ariel_network_pnode_inserts_total",
            "counter",
            "Instantiations inserted into P-nodes.",
            n.pnode_inserts,
        ),
        (
            "ariel_network_index_probes_total",
            "counter",
            "Join-index probes.",
            n.index_probes,
        ),
        (
            "ariel_network_index_hits_total",
            "counter",
            "Join-index probe hits.",
            n.index_hits,
        ),
    ] {
        write_prom_metric(&mut s, name, kind, help, v);
    }
    write_prom_family(
        &mut s,
        "ariel_rule_firings_total",
        "counter",
        "Rule-action executions per rule (since engine start or recovery).",
    );
    for (name, firings, _) in &input.rules {
        write_prom_sample(
            &mut s,
            "ariel_rule_firings_total",
            &format!("rule=\"{}\"", prom_escape_label(name)),
            *firings,
        );
    }
    write_prom_family(
        &mut s,
        "ariel_rule_pnode_rows",
        "gauge",
        "Rule instantiations waiting in each rule's P-node.",
    );
    for (name, _, r) in &input.rules {
        write_prom_sample(
            &mut s,
            "ariel_rule_pnode_rows",
            &format!("rule=\"{}\"", prom_escape_label(name)),
            r.pnode_rows as u64,
        );
    }
    write_prom_family(
        &mut s,
        "ariel_rule_tokens_in_total",
        "counter",
        "Tokens routed to each rule's alpha nodes.",
    );
    for (name, _, r) in &input.rules {
        write_prom_sample(
            &mut s,
            "ariel_rule_tokens_in_total",
            &format!("rule=\"{}\"", prom_escape_label(name)),
            r.tokens_in,
        );
    }
    let w = &input.wal;
    write_prom_metric(
        &mut s,
        "ariel_wal_attached",
        "gauge",
        "1 when a write-ahead-log writer is attached (durability enabled).",
        w.attached as u64,
    );
    write_prom_metric(
        &mut s,
        "ariel_wal_records_total",
        "counter",
        "WAL records appended over the engine lifetime.",
        w.records,
    );
    write_prom_metric(
        &mut s,
        "ariel_wal_bytes_total",
        "counter",
        "WAL bytes appended (framing included).",
        w.bytes,
    );
    write_prom_metric(
        &mut s,
        "ariel_wal_fsyncs_total",
        "counter",
        "Fsyncs issued by the durability path.",
        w.fsyncs,
    );
    write_prom_metric(
        &mut s,
        "ariel_wal_replay_errors_total",
        "counter",
        "WAL records that failed to replay during the last recovery.",
        w.replay_errors,
    );
    write_prom_family(
        &mut s,
        "ariel_wal_fsync_duration_ns",
        "histogram",
        "Wall-clock fsync latency of the WAL writer, in nanoseconds.",
    );
    write_prom_histogram(&mut s, "ariel_wal_fsync_duration_ns", "", &w.fsync_ns);
    if let Some(eo) = input.engine_obs {
        write_prom_family(
            &mut s,
            "ariel_match_batch_duration_ns",
            "histogram",
            "Wall-clock time per token batch pushed through the network, in nanoseconds.",
        );
        write_prom_histogram(&mut s, "ariel_match_batch_duration_ns", "", &eo.match_batch);
        write_prom_family(
            &mut s,
            "ariel_action_duration_ns",
            "histogram",
            "Wall-clock time per rule-action execution, in nanoseconds.",
        );
        for (rule, h) in &eo.action_exec {
            let label = input
                .names
                .get(rule)
                .cloned()
                .unwrap_or_else(|| format!("rule-{rule}"));
            write_prom_histogram(
                &mut s,
                "ariel_action_duration_ns",
                &format!("rule=\"{}\"", prom_escape_label(&label)),
                h,
            );
        }
    }
    s
}

/// One rule's topology for the `explain analyze` renderer.
pub(crate) struct AnalyzedRule {
    pub id: u64,
    pub name: String,
    /// `(variable name, relation, α-node kind)` per condition variable.
    pub vars: Vec<(String, String, AlphaKind)>,
    pub join_conjuncts: usize,
}

/// Everything [`render_explain_analyze`] needs, gathered by the engine.
pub(crate) struct AnalyzeInput<'a> {
    pub src: &'a str,
    pub total_ns: u64,
    /// Scoped network timing capture for exactly this run.
    pub capture: MatchObs,
    /// Scoped engine timing capture for exactly this run.
    pub engine_capture: EngineObs,
    /// Topology of every active rule, in rule-id order.
    pub rules: Vec<AnalyzedRule>,
}

/// Render the per-node annotated tree of one analyzed command.
pub(crate) fn render_explain_analyze(input: &AnalyzeInput<'_>) -> String {
    let cap = &input.capture;
    let mut out = format!("explain analyze: {}\n", input.src.trim());
    out.push_str(&format!(
        "total {}; {} token(s) through the network\n",
        fmt_ns(input.total_ns),
        cap.tokens.get()
    ));
    out.push_str(&format!(
        "selection network: {} probe(s), {} candidate(s), mean {}/probe\n",
        cap.selnet_probe.count(),
        cap.selnet_candidates.get(),
        fmt_ns(cap.selnet_probe.mean()),
    ));
    let mut any = false;
    for rule in &input.rules {
        let robs = cap.rule(ariel_network::RuleId(rule.id));
        let touched = robs.is_some()
            || (0..rule.vars.len()).any(|v| cap.node(ariel_network::RuleId(rule.id), v).is_some());
        if !touched {
            continue;
        }
        any = true;
        out.push_str(&format!("rule {}:\n", rule.name));
        for (v, (var, rel, kind)) in rule.vars.iter().enumerate() {
            let n = cap
                .node(ariel_network::RuleId(rule.id), v)
                .unwrap_or_default();
            out.push_str(&format!(
                "  α[{var}: {rel}] {} — in {}, out {} (selectivity {:.2}), +{} entries",
                kind_name(*kind),
                n.tokens_in,
                n.tokens_out,
                n.selectivity(),
                n.entries_inserted,
            ));
            if n.alpha_test.count() > 0 {
                out.push_str(&format!(", mean {}/test", fmt_ns(n.alpha_test.mean())));
            }
            if n.virtual_scans > 0 {
                out.push_str(&format!(
                    "; {} scan(s) over {} tuple(s) → {} candidate(s), mean {}/scan",
                    n.virtual_scans,
                    n.scanned_tuples,
                    n.join_candidates,
                    fmt_ns(n.virtual_scan.mean()),
                ));
            } else if n.join_candidates > 0 {
                out.push_str(&format!(", {} join candidate(s) served", n.join_candidates));
            }
            out.push('\n');
        }
        let r = robs.unwrap_or_default();
        if rule.vars.len() > 1 {
            out.push_str(&format!(
                "  β-join ({} conjunct(s)) — {} probe(s), fan-out {:.2}, mean {}/join\n",
                rule.join_conjuncts,
                r.join_probes,
                r.join_fanout(),
                fmt_ns(r.beta_join.mean()),
            ));
        }
        out.push_str(&format!(
            "  P-node — +{} instantiation(s), mean {}/insert\n",
            r.pnode_inserts,
            fmt_ns(r.pnode_insert.mean()),
        ));
        if let Some(h) = input.engine_capture.action_exec.get(&rule.id) {
            out.push_str(&format!(
                "  action — {} firing(s), mean {}/firing\n",
                h.count(),
                fmt_ns(h.mean()),
            ));
        }
    }
    if !any {
        out.push_str("(no rule activity)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(850), "850 ns");
        assert_eq!(fmt_ns(12_300), "12.3 µs");
        assert_eq!(fmt_ns(4_500_000), "4.5 ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50 s");
    }

    #[test]
    fn engine_obs_merge() {
        let mut a = EngineObs::new();
        let mut b = EngineObs::new();
        a.record_action(1, 100);
        b.record_action(1, 300);
        b.record_action(2, 50);
        b.match_batch.record(10);
        a.merge(&b);
        assert_eq!(a.action_exec[&1].count(), 2);
        assert_eq!(a.action_exec[&2].count(), 1);
        assert_eq!(a.match_batch.count(), 1);
    }

    fn empty_wal() -> WalMetrics {
        WalMetrics {
            attached: false,
            records: 0,
            bytes: 0,
            fsyncs: 0,
            fsync_ns: Histogram::new(),
            replay_errors: 0,
        }
    }

    #[test]
    fn metrics_json_without_timing_is_null() {
        let input = MetricsInput {
            engine: EngineStats::default(),
            network: NetworkStats::default(),
            rules: vec![("r".into(), 3, RuleStats::default())],
            wal: empty_wal(),
            match_obs: None,
            engine_obs: None,
            names: BTreeMap::new(),
        };
        let j = render_metrics_json(&input);
        assert!(j.contains("\"timing\":null"), "{j}");
        assert!(j.contains("\"name\":\"r\""), "{j}");
        assert!(j.contains("\"firings\":3"), "{j}");
        assert!(j.contains("\"wal\":{\"attached\":false"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn prom_histogram_lines_are_cumulative() {
        let h = Histogram::new();
        h.record(3); // bucket 2 (floor 2), le = 4
        h.record(3);
        h.record(100); // bucket 7 (floor 64), le = 128
        let mut out = String::new();
        write_prom_histogram(&mut out, "x", "", &h);
        assert!(out.contains("x_bucket{le=\"4\"} 2\n"), "{out}");
        assert!(out.contains("x_bucket{le=\"128\"} 3\n"), "{out}");
        assert!(out.contains("x_bucket{le=\"+Inf\"} 3\n"), "{out}");
        assert!(out.contains("x_sum 106\n"), "{out}");
        assert!(out.contains("x_count 3\n"), "{out}");
        let mut labelled = String::new();
        write_prom_histogram(&mut labelled, "x", "rule=\"r\"", &h);
        assert!(
            labelled.contains("x_bucket{rule=\"r\",le=\"+Inf\"} 3\n"),
            "{labelled}"
        );
        assert!(labelled.contains("x_count{rule=\"r\"} 3\n"), "{labelled}");
    }

    #[test]
    fn prom_exposition_families() {
        let wal = WalMetrics {
            attached: true,
            records: 7,
            bytes: 512,
            fsyncs: 2,
            fsync_ns: Histogram::new(),
            replay_errors: 0,
        };
        wal.fsync_ns.record(1000);
        let input = MetricsInput {
            engine: EngineStats {
                transitions: 5,
                tokens: 9,
                firings: 2,
            },
            network: NetworkStats::default(),
            rules: vec![("audit".into(), 2, RuleStats::default())],
            wal,
            match_obs: None,
            engine_obs: None,
            names: BTreeMap::new(),
        };
        let p = render_metrics_prometheus(&input);
        assert!(
            p.contains("# TYPE ariel_engine_transitions_total counter"),
            "{p}"
        );
        assert!(p.contains("ariel_engine_transitions_total 5\n"), "{p}");
        assert!(
            p.contains("ariel_rule_firings_total{rule=\"audit\"} 2\n"),
            "{p}"
        );
        assert!(p.contains("ariel_wal_fsyncs_total 2\n"), "{p}");
        assert!(
            p.contains("# TYPE ariel_wal_fsync_duration_ns histogram"),
            "{p}"
        );
        assert!(p.contains("ariel_wal_fsync_duration_ns_count 1\n"), "{p}");
        // every line is a comment or `name[{labels}] value`
        for line in p.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn prom_label_escaping() {
        assert_eq!(prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
