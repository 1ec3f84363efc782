//! The top-level selection network (§4.1).
//!
//! Routes a token to the α-memory nodes whose *anchor* (indexable interval
//! on one attribute) admits the token's tuple. One interval skip list per
//! (relation, anchored attribute) holds the anchors of every subscribed
//! node; a token — of either polarity: a `−` token finds the memories that
//! hold its tuple the same way the `+` token found the memories to enter —
//! is matched by stabbing each of its relation's per-attribute indexes with
//! the corresponding attribute value, then unioning in the nodes that have
//! no anchor. Residual predicates and event gating are the
//! caller's job — this layer does exactly what the paper's
//! selection-predicate index does: narrow "all rules" down to "rules whose
//! indexable condition this tuple satisfies" in `O(log n + answers)`.

use crate::alpha::AlphaId;
use ariel_islist::{Counter, Interval, IntervalId, IntervalSkipList, StabStats};
use ariel_storage::{Tuple, Value};
use std::collections::HashMap;

#[derive(Debug, Default)]
struct AttrIndex {
    islist: IntervalSkipList<Value>,
    owner: HashMap<IntervalId, AlphaId>,
}

#[derive(Debug, Default)]
struct RelRouting {
    /// Per-attribute interval indexes for anchored subscriptions.
    attr_indexes: HashMap<usize, AttrIndex>,
    /// Subscriptions with no anchor: candidates for every token.
    unanchored: Vec<AlphaId>,
}

/// Record of where a subscription lives, for unsubscribing.
#[derive(Debug)]
struct SubRecord {
    rel: String,
    anchored: Option<(usize, IntervalId)>,
}

/// The selection network.
#[derive(Debug, Default)]
pub struct SelectionNetwork {
    rels: HashMap<String, RelRouting>,
    subs: HashMap<usize, SubRecord>, // keyed by AlphaId.0
    /// Always-on counter: tokens probed through [`Self::candidates`].
    probes: Counter,
    /// Always-on counter: candidate nodes emitted by those probes.
    emitted: Counter,
}

impl SelectionNetwork {
    /// New empty network.
    pub fn new() -> Self {
        SelectionNetwork::default()
    }

    /// Subscribe a node on `rel` with an optional anchor.
    pub fn subscribe(&mut self, id: AlphaId, rel: &str, anchor: Option<(usize, Interval<Value>)>) {
        let routing = self.rels.entry(rel.to_string()).or_default();
        let anchored = match anchor {
            Some((attr, interval)) => {
                let ix = routing.attr_indexes.entry(attr).or_default();
                let iid = ix.islist.insert(interval);
                ix.owner.insert(iid, id);
                Some((attr, iid))
            }
            None => {
                routing.unanchored.push(id);
                None
            }
        };
        self.subs.insert(
            id.0,
            SubRecord {
                rel: rel.to_string(),
                anchored,
            },
        );
    }

    /// Remove a subscription.
    pub fn unsubscribe(&mut self, id: AlphaId) {
        let Some(rec) = self.subs.remove(&id.0) else {
            return;
        };
        let Some(routing) = self.rels.get_mut(&rec.rel) else {
            return;
        };
        match rec.anchored {
            Some((attr, iid)) => {
                if let Some(ix) = routing.attr_indexes.get_mut(&attr) {
                    ix.islist.remove(iid);
                    ix.owner.remove(&iid);
                }
            }
            None => routing.unanchored.retain(|a| *a != id),
        }
    }

    /// Candidate nodes for a tuple of `rel`: anchored subscriptions whose
    /// interval contains the corresponding attribute value, plus every
    /// unanchored subscription. Residual predicates are *not* checked here.
    pub fn candidates(&self, rel: &str, tuple: &Tuple) -> Vec<AlphaId> {
        let mut out = Vec::new();
        self.candidates_into(rel, tuple, &mut out);
        out
    }

    /// [`Self::candidates`] into a caller-supplied buffer (appended, not
    /// cleared) — the per-token routing path recycles one buffer per
    /// transition through `crate::arena` instead of allocating per token.
    pub fn candidates_into(&self, rel: &str, tuple: &Tuple, out: &mut Vec<AlphaId>) {
        self.probes.add(1);
        let Some(routing) = self.rels.get(rel) else {
            return;
        };
        let start = out.len();
        for (attr, ix) in &routing.attr_indexes {
            if *attr >= tuple.arity() {
                continue;
            }
            let v = tuple.get(*attr);
            if v.is_null() {
                continue; // null never satisfies a comparison
            }
            ix.islist.stab_with(v, |iid| {
                out.push(ix.owner[&iid]);
            });
        }
        out.extend_from_slice(&routing.unanchored);
        self.emitted.add((out.len() - start) as u64);
    }

    /// Always-on probe counters: `(tokens probed, candidates emitted)`.
    pub fn probe_counts(&self) -> (u64, u64) {
        (self.probes.get(), self.emitted.get())
    }

    /// Aggregated stabbing-query counters across every per-attribute
    /// interval skip list (see [`StabStats`]).
    pub fn stab_stats(&self) -> StabStats {
        let agg = StabStats::new();
        for r in self.rels.values() {
            for ix in r.attr_indexes.values() {
                agg.merge(ix.islist.stab_stats());
            }
        }
        agg
    }

    /// Total number of subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True iff nothing is subscribed.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Approximate heap footprint of the interval indexes, in bytes.
    pub fn approx_size_bytes(&self) -> usize {
        self.rels
            .values()
            .flat_map(|r| r.attr_indexes.values())
            .map(|ix| ix.islist.approx_size_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn band(lo: i64, hi: i64) -> Interval<Value> {
        Interval::open_closed(Value::Int(lo), Value::Int(hi)).unwrap()
    }

    #[test]
    fn routes_by_interval() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), "emp", Some((1, band(0, 10))));
        net.subscribe(AlphaId(1), "emp", Some((1, band(5, 15))));
        net.subscribe(AlphaId(2), "emp", None); // unanchored: always candidate
        let mut c = net.candidates("emp", &tup(&[99, 7]));
        c.sort_by_key(|a| a.0);
        assert_eq!(c, vec![AlphaId(0), AlphaId(1), AlphaId(2)]);
        let mut c = net.candidates("emp", &tup(&[99, 12]));
        c.sort_by_key(|a| a.0);
        assert_eq!(c, vec![AlphaId(1), AlphaId(2)]);
        let c = net.candidates("emp", &tup(&[99, 100]));
        assert_eq!(c, vec![AlphaId(2)]);
    }

    #[test]
    fn different_relations_isolated() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), "emp", Some((0, band(0, 10))));
        net.subscribe(AlphaId(1), "dept", Some((0, band(0, 10))));
        assert_eq!(net.candidates("emp", &tup(&[5])), vec![AlphaId(0)]);
        assert_eq!(net.candidates("dept", &tup(&[5])), vec![AlphaId(1)]);
        assert!(net.candidates("job", &tup(&[5])).is_empty());
    }

    #[test]
    fn multiple_anchor_attributes() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), "emp", Some((0, band(0, 10))));
        net.subscribe(AlphaId(1), "emp", Some((1, band(100, 200))));
        let mut c = net.candidates("emp", &tup(&[5, 150]));
        c.sort_by_key(|a| a.0);
        assert_eq!(c, vec![AlphaId(0), AlphaId(1)]);
        assert_eq!(net.candidates("emp", &tup(&[50, 150])), vec![AlphaId(1)]);
    }

    #[test]
    fn null_attribute_matches_nothing_anchored() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), "emp", Some((0, band(0, 10))));
        net.subscribe(AlphaId(1), "emp", None);
        let t = Tuple::new(vec![Value::Null]);
        assert_eq!(net.candidates("emp", &t), vec![AlphaId(1)]);
    }

    #[test]
    fn unsubscribe_removes_routing() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), "emp", Some((0, band(0, 10))));
        net.subscribe(AlphaId(1), "emp", None);
        assert_eq!(net.len(), 2);
        net.unsubscribe(AlphaId(0));
        assert!(net.candidates("emp", &tup(&[5])) == vec![AlphaId(1)]);
        net.unsubscribe(AlphaId(1));
        assert!(net.candidates("emp", &tup(&[5])).is_empty());
        assert!(net.is_empty());
        // double-unsubscribe is a no-op
        net.unsubscribe(AlphaId(0));
    }

    #[test]
    fn short_token_tuples_skip_out_of_range_attrs() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), "emp", Some((5, band(0, 10))));
        // tuple with fewer attributes than the anchor position
        assert!(net.candidates("emp", &tup(&[1])).is_empty());
    }

    #[test]
    fn two_hundred_band_rules_route_sparsely() {
        // the Fig. 9-11 workload shape
        let mut net = SelectionNetwork::new();
        for i in 0..200 {
            net.subscribe(
                AlphaId(i),
                "emp",
                Some((1, band(i as i64 * 1000, i as i64 * 1000 + 10_000))),
            );
        }
        let c = net.candidates("emp", &tup(&[0, 55_500]));
        assert_eq!(c.len(), 10, "exactly the 10 overlapping bands");
    }
}
