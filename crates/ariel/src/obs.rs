//! Engine-level observability: the engine's metric declarations and the
//! `explain analyze` renderer.
//!
//! * [`crate::Ariel::export`] declares every engine metric into an
//!   [`ariel_islist::Metrics`] scrape: engine totals, the network's
//!   counters, each active rule, the WAL, and — while the timing tier is
//!   on — every timing histogram. [`crate::Ariel::metrics_json`] and
//!   [`crate::Ariel::metrics_prometheus`] are that scrape's two writers.
//! * [`crate::Ariel::explain_analyze`] runs a command and renders an
//!   annotated per-node tree from the difference of the counters and
//!   histograms before and after it: tokens in/out, selectivity, join
//!   fan-out, and time spent at every node the command's tokens touched.
//!
//! The full schema of both surfaces is documented in
//! `docs/OBSERVABILITY.md`.

use ariel_islist::{metric_rows, Counter, Histogram, Kind, Metrics, Place, Value};
use ariel_network::{
    AlphaCounters, AlphaKind, AlphaTiming, RuleId, RuleStats, RuleTiming, RuleTopology,
};
use std::collections::BTreeMap;

use crate::Ariel;

/// Point-in-time snapshot of the engine's WAL telemetry: what every
/// writer the engine has detached did, plus the live writer. Returned by
/// [`crate::Ariel::wal_metrics`] and exported as the `"wal"` section and
/// the `ariel_wal_*` families.
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

impl Ariel {
    /// Declare every engine metric, in the JSON order `engine`,
    /// `network`, `rules`, `wal`, `timing` (`null` while the timing tier
    /// is off). Per-rule counters other than `firings`, `pnode_rows` and
    /// `tokens_in`, and the per-node and per-rule timing, are JSON-only.
    pub fn export(&self, m: &mut Metrics) {
        let root = Place::root();
        let e = self.stats;
        let engine = metric_rows!(e;
            transitions: "Committed state transitions (recognize-act cycles triggered by DML).",
            tokens: "Net-effect delta tokens pushed through the discrimination network.",
            firings: "Rule-action executions.",
            action_prepares: "Rule-action commands resolved and planned with nothing prepared to reuse.",
            action_replans: "Prepared rule-action commands re-planned because something they were derived from changed.",
        );
        m.table(&root.key("engine"), "ariel_engine", Kind::Counter, &engine);
        self.network.export(m);

        let rules = root.key("rules");
        m.put(&rules, None, Value::Array);
        let firings = m.family(
            "ariel_rule_firings_total",
            Kind::Counter,
            "Rule-action executions per rule (since engine start or recovery).",
        );
        let pnode_rows = m.family(
            "ariel_rule_pnode_rows",
            Kind::Gauge,
            "Rule instantiations waiting in each rule's P-node.",
        );
        let tokens_in = m.family(
            "ariel_rule_tokens_in_total",
            Kind::Counter,
            "Tokens routed to each rule's alpha nodes.",
        );
        let active = self
            .rules
            .iter()
            .filter_map(|r| Some((r, self.network.rule_stats(r.id)?)));
        for (i, (rule, s)) in active.enumerate() {
            let at = rules.index(i).label("rule", rule.name.as_str());
            let fired = self.firings_by_rule.get(&rule.id.0).copied().unwrap_or(0);
            m.put(&at.key("name"), None, rule.name.as_str());
            m.put(&at.key("firings"), Some(firings), fired);
            m.put(&at.key("pnode_rows"), Some(pnode_rows), s.pnode_rows);
            m.put(&at.key("tokens_in"), Some(tokens_in), s.tokens_in);
            if let Some(active) = self.active.get(&rule.id.0) {
                let p = active.prepare_counts;
                m.put(&at.key("action_prepares"), None, p.prepares);
                m.put(&at.key("action_replans"), None, p.replans);
            }
            let counts = metric_rows!(s;
                alpha_entries, alpha_bytes, pnode_bytes, alpha_tests, alpha_passes,
                join_probes, pnode_inserts, virtual_scans, virtual_scanned_tuples,
                stored_join_candidates, virtual_join_candidates, index_probes, index_hits,
                indexed_candidates, scanned_candidates, range_probes, range_hits,
                beta_bytes, beta_probes, beta_hits,
            );
            for (key, _, v) in counts {
                m.put(&at.key(key), None, v);
            }
            m.put(&at.key("join_fanout"), None, s.join_fanout());
            m.put(&at.key("virtual_hit_ratio"), None, s.virtual_hit_ratio());
        }

        let w = self.wal_metrics();
        let at = root.key("wal");
        m.gauge(
            &at.key("attached"),
            "ariel_wal_attached",
            "1 when a write-ahead-log writer is attached (durability enabled).",
            w.attached,
        );
        let totals = metric_rows!(w;
            records: "WAL records appended over the engine lifetime.",
            bytes: "WAL bytes appended (framing included).",
            fsyncs: "Fsyncs issued by the durability path.",
            replay_errors: "WAL records that failed to replay during the last recovery.",
        );
        m.table(&at, "ariel_wal", Kind::Counter, &totals);
        m.histogram(
            &at.key("fsync_ns"),
            "ariel_wal_fsync_duration_ns",
            "Wall-clock fsync latency of the WAL writer, in nanoseconds.",
            &w.fsync_ns,
        );

        let at = root.key("timing");
        m.put(&at, None, Value::Null);
        let Some(batch) = &self.match_batch else {
            return;
        };
        self.network.export_timing(m);
        m.histogram(
            &at.key("match_batch"),
            "ariel_match_batch_duration_ns",
            "Wall-clock time per token batch pushed through the network, in nanoseconds.",
            batch,
        );
        m.put(&at.key("action_exec"), None, Value::Object);
        let f = m.family(
            "ariel_action_duration_ns",
            Kind::Histogram,
            "Wall-clock time per rule-action execution, in nanoseconds.",
        );
        for rule in self.rules.iter() {
            let Some(h) = self
                .active
                .get(&rule.id.0)
                .and_then(|r| r.action_exec.as_deref())
            else {
                continue;
            };
            let name = rule.name.as_str();
            m.put(
                &at.key("action_exec").key(name).label("rule", name),
                Some(f),
                h,
            );
        }
    }

    /// The counters and histograms `explain analyze` compares across its
    /// run. The timing tier must be on.
    pub(crate) fn reading(&self) -> Reading {
        let s = self.network.stats();
        let [(_, selnet_probe), ..] = self.network.phases().expect("timing tier is on");
        let rules = self.active.iter().filter_map(|(id, rule)| {
            let (nodes, timing) = self.network.rule_activity(RuleId(*id))?;
            let reading = RuleReading {
                name: rule.name.to_string(),
                topology: self.network.rule_topology(RuleId(*id))?,
                stats: self.network.rule_stats(RuleId(*id))?,
                nodes: nodes
                    .iter()
                    .map(|a| {
                        (
                            a.counters.clone(),
                            a.timing.as_deref().cloned().unwrap_or_default(),
                        )
                    })
                    .collect(),
                timing: timing.cloned().unwrap_or_default(),
                action: rule.action_exec.as_deref().cloned().unwrap_or_default(),
            };
            Some((*id, reading))
        });
        Reading {
            tokens: s.tokens_processed,
            selnet_candidates: s.selnet_candidates,
            selnet_probe,
            rules: rules.collect(),
        }
    }
}

/// What `explain analyze` reads before and after its run.
#[derive(Default)]
pub(crate) struct Reading {
    tokens: u64,
    selnet_candidates: u64,
    selnet_probe: Histogram,
    /// By rule id.
    rules: BTreeMap<u64, RuleReading>,
}

/// One active rule's part of a [`Reading`].
#[derive(Default)]
struct RuleReading {
    name: String,
    topology: RuleTopology,
    stats: RuleStats,
    /// Each α-node's counters and timing, in variable order.
    nodes: Vec<(AlphaCounters, AlphaTiming)>,
    timing: RuleTiming,
    action: Histogram,
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

/// Samples `after` gained over `before`, and their mean duration. The
/// differences saturate: a rule re-activated during the run starts its
/// counters again from zero.
fn gained(after: &Histogram, before: &Histogram) -> (u64, String) {
    let n = after.count().saturating_sub(before.count());
    let sum = after.sum().saturating_sub(before.sum());
    (n, fmt_ns(sum.checked_div(n).unwrap_or(0)))
}

fn delta(after: &Counter, before: &Counter) -> u64 {
    after.get().saturating_sub(before.get())
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

/// Render the per-node annotated tree of one analyzed command: every
/// rule whose counters the run moved, in rule-id order.
pub(crate) fn render_explain_analyze(
    src: &str,
    total_ns: u64,
    before: &Reading,
    after: &Reading,
) -> String {
    let mut out = format!("explain analyze: {}\n", src.trim());
    out.push_str(&format!(
        "total {}; {} token(s) through the network\n",
        fmt_ns(total_ns),
        after.tokens - before.tokens
    ));
    let (probes, mean) = gained(&after.selnet_probe, &before.selnet_probe);
    out.push_str(&format!(
        "selection network: {probes} probe(s), {} candidate(s), mean {mean}/probe\n",
        after.selnet_candidates - before.selnet_candidates,
    ));
    let none = RuleReading::default();
    let no_node = Default::default();
    let mut any = false;
    for (id, a) in &after.rules {
        let b = before.rules.get(id).unwrap_or(&none);
        if a.stats == b.stats {
            continue;
        }
        any = true;
        let (vars, join_conjuncts) = &a.topology;
        out.push_str(&format!("rule {}:\n", a.name));
        for (v, (var, rel, kind)) in vars.iter().enumerate() {
            let (ca, ta) = &a.nodes[v];
            let (cb, tb) = b.nodes.get(v).unwrap_or(&no_node);
            let (tests, passes) = (delta(&ca.tests, &cb.tests), delta(&ca.passes, &cb.passes));
            let selectivity = if tests == 0 {
                1.0
            } else {
                passes as f64 / tests as f64
            };
            out.push_str(&format!(
                "  α[{var}: {rel}] {} — in {tests}, out {passes} (selectivity {selectivity:.2}), +{} entries",
                kind_name(*kind),
                delta(&ca.inserted, &cb.inserted),
            ));
            let (timed, mean) = gained(&ta.alpha_test, &tb.alpha_test);
            if timed > 0 {
                out.push_str(&format!(", mean {mean}/test"));
            }
            let candidates = delta(&ca.join_candidates, &cb.join_candidates);
            let scans = delta(&ca.virtual_scans, &cb.virtual_scans);
            if scans > 0 {
                out.push_str(&format!(
                    "; {scans} scan(s) over {} tuple(s) → {candidates} candidate(s), mean {}/scan",
                    delta(&ca.scanned_tuples, &cb.scanned_tuples),
                    gained(&ta.virtual_scan, &tb.virtual_scan).1,
                ));
            } else if candidates > 0 {
                out.push_str(&format!(", {candidates} join candidate(s) served"));
            }
            out.push('\n');
        }
        let probes = a.stats.join_probes.saturating_sub(b.stats.join_probes);
        let inserts = a.stats.pnode_inserts.saturating_sub(b.stats.pnode_inserts);
        if vars.len() > 1 {
            let fanout = if probes == 0 {
                0.0
            } else {
                inserts as f64 / probes as f64
            };
            out.push_str(&format!(
                "  β-join ({join_conjuncts} conjunct(s)) — {probes} probe(s), fan-out {fanout:.2}, mean {}/join\n",
                gained(&a.timing.beta_join, &b.timing.beta_join).1,
            ));
        }
        out.push_str(&format!(
            "  P-node — +{inserts} instantiation(s), mean {}/insert\n",
            gained(&a.timing.pnode_insert, &b.timing.pnode_insert).1,
        ));
        let (firings, mean) = gained(&a.action, &b.action);
        if firings > 0 {
            out.push_str(&format!(
                "  action — {firings} firing(s), mean {mean}/firing\n"
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
    use crate::EngineOptions;

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(850), "850 ns");
        assert_eq!(fmt_ns(12_300), "12.3 µs");
        assert_eq!(fmt_ns(4_500_000), "4.5 ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50 s");
    }

    /// A two-variable rule with one join partner, and one firing append.
    fn joined(observability: bool) -> Ariel {
        let mut db = Ariel::with_options(EngineOptions {
            observability,
            ..Default::default()
        });
        db.execute("create t (k = int); create u (k = int); create log (k = int)")
            .unwrap();
        db.execute("append u (k = 1)").unwrap();
        db.execute("define rule r if t.k > 0 and t.k = u.k then append to log (k = t.k)")
            .unwrap();
        db.execute("append t (k = 1)").unwrap();
        db
    }

    #[test]
    fn metrics_json_without_timing_is_null() {
        let db = joined(false);
        let j = db.metrics_json();
        assert!(j.ends_with(",\"timing\":null}"), "{j}");
        assert!(j.contains("{\"name\":\"r\",\"firings\":1,"), "{j}");
        assert!(j.contains("\"wal\":{\"attached\":false"), "{j}");
        assert!(j.contains("\"join_fanout\":1.0000"), "{j}");
        assert!(j.starts_with("{\"engine\":{\"transitions\":"), "{j}");
    }

    #[test]
    fn json_is_wellformed_shape() {
        let j = joined(true).metrics_json();
        let timing = &j[j.find("\"timing\":{\"match\":{\"phases\":{").expect(&j)..];
        for key in [
            "\"selnet_probe\":{\"count\":3",
            "\"alpha_test\":{\"count\":1",
            "\"beta_join\":{\"count\":1",
            "\"nodes\":[{\"rule\":",
            "\"rules\":[{\"rule\":",
            "\"match_batch\":{\"count\":",
            "\"action_exec\":{\"r\":{\"count\":1",
        ] {
            assert!(timing.contains(key), "missing {key} in {timing}");
        }
        // counts live in the counters, not again under timing
        assert!(!timing.contains("tokens_in"), "{timing}");
    }

    #[test]
    fn node_and_rule_accumulation() {
        let db = joined(true);
        let (nodes, timing) = db.network.rule_activity(RuleId(0)).unwrap();
        for a in &nodes {
            let t = a.timing.as_deref().expect("allocated while the tier is on");
            assert_eq!(t.alpha_test.count(), a.counters.tests.get());
            assert_eq!(t.virtual_scan.count(), a.counters.virtual_scans.get());
        }
        let timing = timing.expect("allocated while the tier is on");
        let stats = db.network.rule_stats(RuleId(0)).unwrap();
        assert_eq!(timing.beta_join.count(), stats.join_probes);
        assert_eq!(timing.pnode_insert.count(), 1);
        let phases = db.network.phases().unwrap();
        assert_eq!(phases[1].0, "alpha_test");
        assert_eq!(phases[1].1.count(), stats.alpha_tests);
    }

    #[test]
    fn prom_exposition_families() {
        let p = joined(true).metrics_prometheus();
        for family in [
            "ariel_engine_transitions_total counter",
            "ariel_network_islist_stabs_total counter",
            "ariel_network_virtual_alpha_nodes gauge",
            "ariel_rule_firings_total counter",
            "ariel_wal_fsync_duration_ns histogram",
            "ariel_match_phase_duration_ns histogram",
            "ariel_action_duration_ns histogram",
        ] {
            assert!(p.contains(&format!("# TYPE {family}\n")), "{family}: {p}");
        }
        assert!(p.contains("ariel_engine_transitions_total 3\n"), "{p}");
        assert!(
            p.contains("ariel_rule_firings_total{rule=\"r\"} 1\n"),
            "{p}"
        );
        assert!(
            p.contains("ariel_match_phase_duration_ns_count{phase=\"beta_join\"} 1\n"),
            "{p}"
        );
        assert!(
            p.contains("ariel_action_duration_ns_count{rule=\"r\"} 1\n"),
            "{p}"
        );
        assert!(
            !p.contains("alpha_tests{"),
            "per-rule counters stay JSON-only: {p}"
        );
        // every line is a comment or `name[{labels}] value`
        for line in p.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "bad exposition line: {line}"
            );
        }
    }
}
