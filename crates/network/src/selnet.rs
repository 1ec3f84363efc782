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
use ariel_storage::{FxHashMap, RelId, Tuple, Value};

#[derive(Debug)]
struct AttrIndex {
    attr: usize,
    islist: IntervalSkipList<Value>,
    owner: FxHashMap<IntervalId, AlphaId>,
}

/// The subscriptions on one relation slot, all made against one
/// generation of it.
#[derive(Debug, Default)]
struct RelRouting {
    gen: u32,
    /// Live subscriptions; a slot with none may take a new generation.
    subs: usize,
    /// Per-attribute interval indexes for anchored subscriptions.
    attr_indexes: Vec<AttrIndex>,
    /// Subscriptions with no anchor: candidates for every token.
    unanchored: Vec<AlphaId>,
}

/// Record of where a subscription lives, for unsubscribing.
#[derive(Debug)]
struct SubRecord {
    rel: RelId,
    anchored: Option<(usize, IntervalId)>,
}

/// The selection network.
#[derive(Debug, Default)]
pub struct SelectionNetwork {
    /// Indexed by relation slot.
    rels: Vec<RelRouting>,
    /// Indexed by `AlphaId`.
    subs: Vec<Option<SubRecord>>,
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

    /// Whether `rel` may be subscribed to: its slot holds no subscription
    /// made against another generation of the slot (a relation destroyed
    /// and re-created while rules compiled against it stayed subscribed).
    pub fn accepts(&self, rel: RelId) -> bool {
        self.rels
            .get(rel.slot())
            .map_or(true, |r| r.subs == 0 || r.gen == rel.gen())
    }

    /// Subscribe a node on `rel` with an optional anchor.
    ///
    /// # Panics
    /// If `rel` is not [`Self::accepts`]ed.
    pub fn subscribe(&mut self, id: AlphaId, rel: RelId, anchor: Option<(usize, Interval<Value>)>) {
        assert!(
            self.accepts(rel),
            "relation {rel} subscribed while an earlier generation still is"
        );
        if self.rels.len() <= rel.slot() {
            self.rels.resize_with(rel.slot() + 1, RelRouting::default);
        }
        let routing = &mut self.rels[rel.slot()];
        routing.gen = rel.gen();
        routing.subs += 1;
        let anchored = match anchor {
            Some((attr, interval)) => {
                let pos = match routing.attr_indexes.iter().position(|ix| ix.attr == attr) {
                    Some(pos) => pos,
                    None => {
                        routing.attr_indexes.push(AttrIndex {
                            attr,
                            islist: IntervalSkipList::default(),
                            owner: FxHashMap::default(),
                        });
                        routing.attr_indexes.len() - 1
                    }
                };
                let ix = &mut routing.attr_indexes[pos];
                let iid = ix.islist.insert(interval);
                ix.owner.insert(iid, id);
                Some((attr, iid))
            }
            None => {
                routing.unanchored.push(id);
                None
            }
        };
        if self.subs.len() <= id.0 {
            self.subs.resize_with(id.0 + 1, || None);
        }
        self.subs[id.0] = Some(SubRecord { rel, anchored });
    }

    /// Remove a subscription.
    pub fn unsubscribe(&mut self, id: AlphaId) {
        let Some(rec) = self.subs.get_mut(id.0).and_then(Option::take) else {
            return;
        };
        let routing = &mut self.rels[rec.rel.slot()];
        routing.subs -= 1;
        match rec.anchored {
            Some((attr, iid)) => {
                if let Some(ix) = routing.attr_indexes.iter_mut().find(|ix| ix.attr == attr) {
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
    pub fn candidates(&self, rel: RelId, tuple: &Tuple) -> Vec<AlphaId> {
        let mut out = Vec::new();
        self.candidates_into(rel, tuple, &mut out);
        out
    }

    /// [`Self::candidates`] into a caller-supplied buffer (appended, not
    /// cleared) — the per-token routing path reuses the network's one
    /// candidate buffer instead of allocating per token.
    /// A tuple of another generation of `rel`'s slot routes nowhere.
    pub fn candidates_into(&self, rel: RelId, tuple: &Tuple, out: &mut Vec<AlphaId>) {
        self.probes.add(1);
        let Some(routing) = self.rels.get(rel.slot()) else {
            return;
        };
        if routing.gen != rel.gen() {
            return;
        }
        let start = out.len();
        for ix in &routing.attr_indexes {
            if ix.attr >= tuple.arity() {
                continue;
            }
            let v = tuple.get(ix.attr);
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
        for ix in self.rels.iter().flat_map(|r| &r.attr_indexes) {
            agg.merge(ix.islist.stab_stats());
        }
        agg
    }

    /// Total number of subscriptions.
    pub fn len(&self) -> usize {
        self.rels.iter().map(|r| r.subs).sum()
    }

    /// True iff nothing is subscribed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint of the interval indexes, in bytes.
    pub fn approx_size_bytes(&self) -> usize {
        self.rels
            .iter()
            .flat_map(|r| &r.attr_indexes)
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

    const EMP: RelId = RelId::new(0, 0);
    const DEPT: RelId = RelId::new(1, 0);
    const JOB: RelId = RelId::new(2, 0);

    fn band(lo: i64, hi: i64) -> Interval<Value> {
        Interval::open_closed(Value::Int(lo), Value::Int(hi)).unwrap()
    }

    #[test]
    fn routes_by_interval() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), EMP, Some((1, band(0, 10))));
        net.subscribe(AlphaId(1), EMP, Some((1, band(5, 15))));
        net.subscribe(AlphaId(2), EMP, None); // unanchored: always candidate
        let mut c = net.candidates(EMP, &tup(&[99, 7]));
        c.sort_by_key(|a| a.0);
        assert_eq!(c, vec![AlphaId(0), AlphaId(1), AlphaId(2)]);
        let mut c = net.candidates(EMP, &tup(&[99, 12]));
        c.sort_by_key(|a| a.0);
        assert_eq!(c, vec![AlphaId(1), AlphaId(2)]);
        let c = net.candidates(EMP, &tup(&[99, 100]));
        assert_eq!(c, vec![AlphaId(2)]);
    }

    #[test]
    fn different_relations_isolated() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), EMP, Some((0, band(0, 10))));
        net.subscribe(AlphaId(1), DEPT, Some((0, band(0, 10))));
        assert_eq!(net.candidates(EMP, &tup(&[5])), vec![AlphaId(0)]);
        assert_eq!(net.candidates(DEPT, &tup(&[5])), vec![AlphaId(1)]);
        assert!(net.candidates(JOB, &tup(&[5])).is_empty());
    }

    #[test]
    fn multiple_anchor_attributes() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), EMP, Some((0, band(0, 10))));
        net.subscribe(AlphaId(1), EMP, Some((1, band(100, 200))));
        let mut c = net.candidates(EMP, &tup(&[5, 150]));
        c.sort_by_key(|a| a.0);
        assert_eq!(c, vec![AlphaId(0), AlphaId(1)]);
        assert_eq!(net.candidates(EMP, &tup(&[50, 150])), vec![AlphaId(1)]);
    }

    #[test]
    fn null_attribute_matches_nothing_anchored() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), EMP, Some((0, band(0, 10))));
        net.subscribe(AlphaId(1), EMP, None);
        let t = Tuple::new(vec![Value::Null]);
        assert_eq!(net.candidates(EMP, &t), vec![AlphaId(1)]);
    }

    #[test]
    fn unsubscribe_removes_routing() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), EMP, Some((0, band(0, 10))));
        net.subscribe(AlphaId(1), EMP, None);
        assert_eq!(net.len(), 2);
        net.unsubscribe(AlphaId(0));
        assert!(net.candidates(EMP, &tup(&[5])) == vec![AlphaId(1)]);
        net.unsubscribe(AlphaId(1));
        assert!(net.candidates(EMP, &tup(&[5])).is_empty());
        assert!(net.is_empty());
        // double-unsubscribe is a no-op
        net.unsubscribe(AlphaId(0));
    }

    #[test]
    fn short_token_tuples_skip_out_of_range_attrs() {
        let mut net = SelectionNetwork::new();
        net.subscribe(AlphaId(0), EMP, Some((5, band(0, 10))));
        // tuple with fewer attributes than the anchor position
        assert!(net.candidates(EMP, &tup(&[1])).is_empty());
    }

    #[test]
    fn two_hundred_band_rules_route_sparsely() {
        // the Fig. 9-11 workload shape
        let mut net = SelectionNetwork::new();
        for i in 0..200 {
            net.subscribe(
                AlphaId(i),
                EMP,
                Some((1, band(i as i64 * 1000, i as i64 * 1000 + 10_000))),
            );
        }
        let c = net.candidates(EMP, &tup(&[0, 55_500]));
        assert_eq!(c.len(), 10, "exactly the 10 overlapping bands");
    }

    #[test]
    fn another_generation_of_the_slot_routes_nowhere() {
        let mut net = SelectionNetwork::new();
        let old = DEPT;
        let new = RelId::new(DEPT.slot() as u32, DEPT.gen() + 1);
        net.subscribe(AlphaId(0), old, Some((0, band(0, 10))));
        assert!(net.accepts(old));
        assert!(!net.accepts(new), "the old generation is still subscribed");
        assert!(net.candidates(new, &tup(&[5])).is_empty());
        net.unsubscribe(AlphaId(0));
        assert!(net.accepts(new), "an empty slot takes any generation");
        net.subscribe(AlphaId(1), new, None);
        assert_eq!(net.candidates(new, &tup(&[5])), vec![AlphaId(1)]);
        assert!(net.candidates(old, &tup(&[5])).is_empty());
    }
}
