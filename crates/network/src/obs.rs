//! Gated match-path instrumentation (timing histograms per node and rule).
//!
//! Two tiers of observability run through the network:
//!
//! 1. **Always-on counters** — plain integer bumps on the α-nodes
//!    ([`crate::alpha::AlphaCounters`]), the selection network and the
//!    network itself. These are cheap enough to leave permanently enabled
//!    and surface through [`crate::NetworkStats`] / [`crate::RuleStats`].
//! 2. **Gated timing** — this module. When the engine enables observability
//!    the network carries a [`MatchObs`], and every phase of token
//!    processing records a monotonic-clock duration into a log₂
//!    [`Histogram`] keyed by rule and node: selection-network stabbing
//!    probe, α-node test, virtual-α materialization, β-join, and P-node
//!    insert. With the flag off none of this exists and the match path
//!    pays nothing beyond the tier-1 counters.
//!
//! Everything uses interior mutability (atomic [`Counter`]s, `Mutex`-guarded
//! maps) because the join routines traverse the network through `&self`,
//! and the engine — recorder included — must stay `Send` to move into the
//! server's session threads. The maps are only locked briefly per phase
//! record; with observability off none of this is reached.

use crate::alpha::RuleId;
use ariel_islist::{Counter, Histogram};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Lock a map, recovering from poisoning (a panicking recorder must not
/// take the whole observability session down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-α-node observations (keyed by `(rule, var)` — node identity in every
/// report is "variable `var` of rule `rule`").
#[derive(Debug, Clone, Default)]
pub struct NodeObs {
    /// Tokens routed to this node by the selection network (α-tests run).
    pub tokens_in: u64,
    /// Tokens that passed the α-test (event gating + predicate).
    pub tokens_out: u64,
    /// Entries inserted into the node's stored memory.
    pub entries_inserted: u64,
    /// Times a β-join materialized this node's contents from the base
    /// relation (virtual nodes only).
    pub virtual_scans: u64,
    /// Base-relation tuples examined during those materializations.
    pub scanned_tuples: u64,
    /// Candidate bindings this node served into β-joins.
    pub join_candidates: u64,
    /// Join-index probes issued against this node (hash bucket lookups for
    /// stored/dynamic memories, base-relation index probes for virtual).
    pub index_probes: u64,
    /// Probes that found a non-empty bucket.
    pub index_hits: u64,
    /// Of `join_candidates`, how many were served through an index probe.
    pub indexed_candidates: u64,
    /// Of `join_candidates`, how many came from a full memory/relation scan.
    pub scanned_candidates: u64,
    /// Interval-index stabbing probes issued against this node (band joins
    /// on stored/dynamic memories).
    pub range_probes: u64,
    /// Stabs that found at least one spanning entry.
    pub range_hits: u64,
    /// Wall-clock ns per α-test.
    pub alpha_test: Histogram,
    /// Wall-clock ns per virtual materialization.
    pub virtual_scan: Histogram,
}

impl NodeObs {
    /// α-test selectivity in [0, 1]; 1.0 when no token arrived.
    pub fn selectivity(&self) -> f64 {
        if self.tokens_in == 0 {
            1.0
        } else {
            self.tokens_out as f64 / self.tokens_in as f64
        }
    }

    fn merge(&mut self, other: &NodeObs) {
        self.tokens_in += other.tokens_in;
        self.tokens_out += other.tokens_out;
        self.entries_inserted += other.entries_inserted;
        self.virtual_scans += other.virtual_scans;
        self.scanned_tuples += other.scanned_tuples;
        self.join_candidates += other.join_candidates;
        self.index_probes += other.index_probes;
        self.index_hits += other.index_hits;
        self.indexed_candidates += other.indexed_candidates;
        self.scanned_candidates += other.scanned_candidates;
        self.range_probes += other.range_probes;
        self.range_hits += other.range_hits;
        self.alpha_test.merge(&other.alpha_test);
        self.virtual_scan.merge(&other.virtual_scan);
    }
}

/// Per-rule observations of the join and P-node phases.
#[derive(Debug, Clone, Default)]
pub struct RuleObs {
    /// Tokens that entered this rule's network (passed some α-node).
    pub tokens_in: u64,
    /// β-joins probed (one per token reaching a multi-variable rule).
    pub join_probes: u64,
    /// Instantiations appended to the P-node.
    pub pnode_inserts: u64,
    /// Wall-clock ns per β-join (candidate enumeration + conjunct tests).
    pub beta_join: Histogram,
    /// Wall-clock ns per P-node batch insert.
    pub pnode_insert: Histogram,
}

impl RuleObs {
    /// Mean join fan-out: instantiations produced per probing token.
    pub fn join_fanout(&self) -> f64 {
        if self.join_probes == 0 {
            0.0
        } else {
            self.pnode_inserts as f64 / self.join_probes as f64
        }
    }

    fn merge(&mut self, other: &RuleObs) {
        self.tokens_in += other.tokens_in;
        self.join_probes += other.join_probes;
        self.pnode_inserts += other.pnode_inserts;
        self.beta_join.merge(&other.beta_join);
        self.pnode_insert.merge(&other.pnode_insert);
    }
}

/// One observation session over the match path.
///
/// Held by [`crate::Network`] while the engine's observability flag is on;
/// the engine swaps sessions in and out to scope a capture (e.g. one
/// `explain analyze` run) without losing cumulative data.
#[derive(Debug, Default)]
pub struct MatchObs {
    /// Tokens processed while this session was active.
    pub tokens: Counter,
    /// Wall-clock ns per selection-network probe (one per positive token).
    pub selnet_probe: Histogram,
    /// Candidate α-nodes emitted by those probes.
    pub selnet_candidates: Counter,
    nodes: Mutex<BTreeMap<(u64, usize), NodeObs>>,
    rules: Mutex<BTreeMap<u64, RuleObs>>,
}

impl MatchObs {
    /// New empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutate (creating on first use) the observations of one α-node.
    pub fn with_node(&self, rule: RuleId, var: usize, f: impl FnOnce(&mut NodeObs)) {
        f(lock(&self.nodes).entry((rule.0, var)).or_default())
    }

    /// Mutate (creating on first use) the observations of one rule.
    pub fn with_rule(&self, rule: RuleId, f: impl FnOnce(&mut RuleObs)) {
        f(lock(&self.rules).entry(rule.0).or_default())
    }

    /// Snapshot of one node's observations.
    pub fn node(&self, rule: RuleId, var: usize) -> Option<NodeObs> {
        lock(&self.nodes).get(&(rule.0, var)).cloned()
    }

    /// Snapshot of one rule's observations.
    pub fn rule(&self, rule: RuleId) -> Option<RuleObs> {
        lock(&self.rules).get(&rule.0).cloned()
    }

    /// Snapshot of every node's observations, ordered by (rule, var).
    pub fn nodes(&self) -> Vec<((u64, usize), NodeObs)> {
        lock(&self.nodes)
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Snapshot of every rule's observations, ordered by rule id.
    pub fn rules(&self) -> Vec<(u64, RuleObs)> {
        lock(&self.rules)
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Fold another session into this one (used when a scoped capture ends
    /// and its data must flow back into the cumulative session).
    pub fn merge(&self, other: &MatchObs) {
        self.tokens.set(self.tokens.get() + other.tokens.get());
        self.selnet_probe.merge(&other.selnet_probe);
        self.selnet_candidates
            .set(self.selnet_candidates.get() + other.selnet_candidates.get());
        let mut nodes = lock(&self.nodes);
        for (k, v) in lock(&other.nodes).iter() {
            nodes.entry(*k).or_default().merge(v);
        }
        let mut rules = lock(&self.rules);
        for (k, v) in lock(&other.rules).iter() {
            rules.entry(*k).or_default().merge(v);
        }
    }

    /// Phase-level histograms, all nodes and rules merged: (α-test,
    /// virtual-scan, β-join, P-node-insert).
    pub fn phase_histograms(&self) -> (Histogram, Histogram, Histogram, Histogram) {
        let (alpha, vscan, join, pins) = (
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
        );
        for n in lock(&self.nodes).values() {
            alpha.merge(&n.alpha_test);
            vscan.merge(&n.virtual_scan);
        }
        for r in lock(&self.rules).values() {
            join.merge(&r.beta_join);
            pins.merge(&r.pnode_insert);
        }
        (alpha, vscan, join, pins)
    }

    /// Hand-rolled JSON: phase histograms plus per-node and per-rule maps.
    pub fn to_json(&self) -> String {
        let (alpha, vscan, join, pins) = self.phase_histograms();
        let mut s = format!(
            "{{\"tokens\":{},\"selnet_candidates\":{},\"phases\":{{\"selnet_probe\":{},\"alpha_test\":{},\"virtual_scan\":{},\"beta_join\":{},\"pnode_insert\":{}}},\"nodes\":[",
            self.tokens.get(),
            self.selnet_candidates.get(),
            self.selnet_probe.to_json(),
            alpha.to_json(),
            vscan.to_json(),
            join.to_json(),
            pins.to_json(),
        );
        for (i, ((rule, var), n)) in lock(&self.nodes).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":{rule},\"var\":{var},\"tokens_in\":{},\"tokens_out\":{},\"entries_inserted\":{},\"virtual_scans\":{},\"scanned_tuples\":{},\"join_candidates\":{},\"index_probes\":{},\"index_hits\":{},\"indexed_candidates\":{},\"scanned_candidates\":{},\"range_probes\":{},\"range_hits\":{},\"alpha_test\":{},\"virtual_scan\":{}}}",
                n.tokens_in,
                n.tokens_out,
                n.entries_inserted,
                n.virtual_scans,
                n.scanned_tuples,
                n.join_candidates,
                n.index_probes,
                n.index_hits,
                n.indexed_candidates,
                n.scanned_candidates,
                n.range_probes,
                n.range_hits,
                n.alpha_test.to_json(),
                n.virtual_scan.to_json(),
            ));
        }
        s.push_str("],\"rules\":[");
        for (i, (rule, r)) in lock(&self.rules).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":{rule},\"tokens_in\":{},\"join_probes\":{},\"pnode_inserts\":{},\"beta_join\":{},\"pnode_insert\":{}}}",
                r.tokens_in,
                r.join_probes,
                r.pnode_inserts,
                r.beta_join.to_json(),
                r.pnode_insert.to_json(),
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_rule_accumulation() {
        let obs = MatchObs::new();
        obs.with_node(RuleId(7), 0, |n| {
            n.tokens_in += 4;
            n.tokens_out += 1;
            n.alpha_test.record(100);
        });
        obs.with_rule(RuleId(7), |r| {
            r.join_probes += 1;
            r.pnode_inserts += 3;
            r.beta_join.record(2_000);
        });
        let n = obs.node(RuleId(7), 0).unwrap();
        assert_eq!(n.tokens_in, 4);
        assert!((n.selectivity() - 0.25).abs() < 1e-9);
        let r = obs.rule(RuleId(7)).unwrap();
        assert!((r.join_fanout() - 3.0).abs() < 1e-9);
        let (alpha, _, join, _) = obs.phase_histograms();
        assert_eq!(alpha.count(), 1);
        assert_eq!(join.count(), 1);
    }

    #[test]
    fn merge_scoped_capture() {
        let cumulative = MatchObs::new();
        cumulative.with_node(RuleId(1), 0, |n| n.tokens_in = 10);
        let capture = MatchObs::new();
        capture.tokens.set(2);
        capture.with_node(RuleId(1), 0, |n| n.tokens_in = 5);
        capture.with_node(RuleId(2), 1, |n| n.tokens_out = 1);
        cumulative.merge(&capture);
        assert_eq!(cumulative.tokens.get(), 2);
        assert_eq!(cumulative.node(RuleId(1), 0).unwrap().tokens_in, 15);
        assert_eq!(cumulative.node(RuleId(2), 1).unwrap().tokens_out, 1);
    }

    #[test]
    fn json_is_wellformed_shape() {
        let obs = MatchObs::new();
        obs.with_node(RuleId(1), 0, |n| n.alpha_test.record(50));
        obs.with_rule(RuleId(1), |r| r.beta_join.record(500));
        let j = obs.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        for key in [
            "\"phases\"",
            "\"alpha_test\"",
            "\"beta_join\"",
            "\"nodes\"",
            "\"rules\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
