//! The interval skip list (Hanson, WADS 1991).
//!
//! A dynamic set of intervals supporting *stabbing queries*: given a point
//! `x`, report every stored interval containing `x`. This is the data
//! structure Ariel's top-level selection network uses to find, in time
//! logarithmic in the number of rules, which rule selection predicates a
//! token satisfies (§4.1 of the SIGMOD '92 paper; the paper notes the
//! interval skip list "is much easier to implement than the IBS tree and
//! performs as well").
//!
//! Structure: a probabilistic skip list over the distinct finite interval
//! endpoints. Every stored interval is represented by *markers* on a
//! maximal-level chain of edges covering its range, plus *eq-markers* on
//! chain nodes whose key the interval contains. A stabbing query walks the
//! ordinary skip-list search path for `x` and unions the markers of the one
//! edge per level that spans `x`, plus the eq-markers of `x`'s node if `x`
//! is itself an endpoint.
//!
//! Structural changes (inserting or deleting an endpoint node) re-place the
//! markers of exactly the intervals whose marker chains touch the edges
//! being split or merged. Re-placement costs O(log n) expected per affected
//! interval; only intervals overlapping the changed key are affected.

use crate::interval::Interval;
use crate::stats::StabStats;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Maximum node height. 2^24 endpoints is far beyond any realistic rule set.
const MAX_LEVEL: usize = 24;
/// Probability numerator for promoting a node one level (p = 1/4).
const P_NUM: u32 = 1;
const P_DEN: u32 = 4;

/// Opaque handle identifying a stored interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntervalId(pub u64);

impl fmt::Display for IntervalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "iv{}", self.0)
    }
}

/// Reference to a position in the list: the -inf header or an arena node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pos {
    Header,
    Node(usize),
}

struct Node<T> {
    key: T,
    /// Number of stored intervals with a finite endpoint at this key.
    owners: usize,
    /// `forward[i]` = next node at level `i`; `None` = +inf.
    forward: Vec<Option<usize>>,
    /// `markers[i]` = interval markers on the outgoing level-`i` edge
    /// (meaningful even when `forward[i]` is `None`: the edge to +inf).
    markers: Vec<HashSet<IntervalId>>,
    /// Intervals that contain this node's key and whose marker chain
    /// passes through this node.
    eq_markers: HashSet<IntervalId>,
}

impl<T> Node<T> {
    fn new(key: T, level: usize) -> Self {
        Node {
            key,
            owners: 0,
            forward: vec![None; level],
            markers: vec![HashSet::new(); level],
            eq_markers: HashSet::new(),
        }
    }

    fn level(&self) -> usize {
        self.forward.len()
    }
}

/// A simple xorshift PRNG for node levels: deterministic, dependency-free,
/// and more than random enough for skip-list balancing.
#[derive(Debug, Clone)]
struct LevelRng(u64);

impl LevelRng {
    fn next_u32(&mut self) -> u32 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }
}

/// An interval skip list over an ordered key domain `T`.
///
/// ```
/// use ariel_islist::{Interval, IntervalSkipList};
///
/// let mut index = IntervalSkipList::new();
/// let band = index.insert(Interval::open_closed(30_000, 40_000).unwrap());
/// let cap = index.insert(Interval::at_most(35_000, true));
///
/// let mut hits = index.stab(&32_000);
/// hits.sort();
/// assert_eq!(hits, vec![band, cap]);
/// assert_eq!(index.stab(&30_000), vec![cap], "open lower endpoint");
///
/// index.remove(band);
/// assert_eq!(index.stab(&32_000), vec![cap]);
/// ```
pub struct IntervalSkipList<T> {
    head_forward: Vec<Option<usize>>,
    head_markers: Vec<HashSet<IntervalId>>,
    nodes: Vec<Option<Node<T>>>,
    free: Vec<usize>,
    intervals: HashMap<IntervalId, Interval<T>>,
    next_id: u64,
    rng: LevelRng,
    stats: StabStats,
}

impl<T: Ord + Clone> Default for IntervalSkipList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Clone> IntervalSkipList<T> {
    /// New empty list with a fixed RNG seed (deterministic layout).
    pub fn new() -> Self {
        Self::with_seed(0x000A_51E1_157A_B1E5)
    }

    /// New empty list with an explicit level-RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        IntervalSkipList {
            head_forward: vec![None; MAX_LEVEL],
            head_markers: vec![HashSet::new(); MAX_LEVEL],
            nodes: Vec::new(),
            free: Vec::new(),
            intervals: HashMap::new(),
            next_id: 0,
            rng: LevelRng(seed | 1),
            stats: StabStats::new(),
        }
    }

    /// Always-on counters describing the stabbing queries this list has
    /// answered (see [`StabStats`]). Reset with [`StabStats::reset`].
    pub fn stab_stats(&self) -> &StabStats {
        &self.stats
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True iff no intervals are stored.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The interval stored under `id`, if present.
    pub fn get(&self, id: IntervalId) -> Option<&Interval<T>> {
        self.intervals.get(&id)
    }

    /// Iterate over all stored `(id, interval)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (IntervalId, &Interval<T>)> {
        self.intervals.iter().map(|(id, iv)| (*id, iv))
    }

    /// Number of endpoint nodes currently in the skip list.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    // ----- node/pos helpers ------------------------------------------------

    fn node(&self, idx: usize) -> &Node<T> {
        self.nodes[idx].as_ref().expect("live node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node<T> {
        self.nodes[idx].as_mut().expect("live node")
    }

    fn level_of(&self, p: Pos) -> usize {
        match p {
            Pos::Header => MAX_LEVEL,
            Pos::Node(i) => self.node(i).level(),
        }
    }

    fn key_of(&self, p: Pos) -> Option<&T> {
        match p {
            Pos::Header => None,
            Pos::Node(i) => Some(&self.node(i).key),
        }
    }

    fn forward(&self, p: Pos, lvl: usize) -> Option<usize> {
        match p {
            Pos::Header => self.head_forward[lvl],
            Pos::Node(i) => self.node(i).forward[lvl],
        }
    }

    fn set_forward(&mut self, p: Pos, lvl: usize, to: Option<usize>) {
        match p {
            Pos::Header => self.head_forward[lvl] = to,
            Pos::Node(i) => self.node_mut(i).forward[lvl] = to,
        }
    }

    fn markers(&self, p: Pos, lvl: usize) -> &HashSet<IntervalId> {
        match p {
            Pos::Header => &self.head_markers[lvl],
            Pos::Node(i) => &self.node(i).markers[lvl],
        }
    }

    fn markers_mut(&mut self, p: Pos, lvl: usize) -> &mut HashSet<IntervalId> {
        match p {
            Pos::Header => &mut self.head_markers[lvl],
            Pos::Node(i) => &mut self.node_mut(i).markers[lvl],
        }
    }

    fn random_level(&mut self) -> usize {
        let mut lvl = 1;
        while lvl < MAX_LEVEL && self.rng.next_u32() % P_DEN < P_NUM {
            lvl += 1;
        }
        lvl
    }

    /// For each level, the last position whose key is `< key`.
    fn find_update(&self, key: &T) -> Vec<Pos> {
        let mut update = vec![Pos::Header; MAX_LEVEL];
        let mut cur = Pos::Header;
        for lvl in (0..MAX_LEVEL).rev() {
            while let Some(nxt) = self.forward(cur, lvl) {
                if &self.node(nxt).key < key {
                    cur = Pos::Node(nxt);
                } else {
                    break;
                }
            }
            update[lvl] = cur;
        }
        update
    }

    /// Find the node holding exactly `key`, if any.
    fn find_node(&self, key: &T) -> Option<usize> {
        let update = self.find_update(key);
        let cand = self.forward(update[0], 0)?;
        (&self.node(cand).key == key).then_some(cand)
    }

    // ----- marker chain walk ----------------------------------------------

    /// Whether the open span between two positions is inside `iv`.
    fn span_contained(&self, iv: &Interval<T>, a: Pos, b: Option<usize>) -> bool {
        let bk = b.map(|i| &self.node(i).key);
        iv.contains_open_span(self.key_of(a), bk)
    }

    /// Walk the maximal-level marker chain for `iv`, invoking `visit_edge`
    /// for every chain edge `(pos, lvl)` and `visit_node` for every chain
    /// node whose key `iv` contains. Both endpoints of the interval must
    /// already exist as nodes (when finite).
    fn walk_chain(
        &mut self,
        id: IntervalId,
        iv: &Interval<T>,
        add: bool, // true = place markers, false = remove them
    ) {
        let mut x = match iv.lo_value() {
            Some(v) => Pos::Node(self.find_node(v).expect("lo endpoint node exists")),
            None => Pos::Header,
        };
        // eq-marker on the left endpoint node itself.
        let lo_contained = self.key_of(x).is_some_and(|k| iv.contains(k));
        if lo_contained {
            self.touch_eq(x, id, add);
        }
        let right_is = |me: &Self, p: Pos| -> bool {
            match (iv.hi_value(), me.key_of(p)) {
                (Some(h), Some(k)) => h == k,
                _ => false,
            }
        };
        if right_is(self, x) {
            return; // point interval: eq-marker only
        }
        let mut lvl = 0usize;
        loop {
            // Ascend to the highest outgoing edge still contained in iv.
            while lvl + 1 < self.level_of(x) && self.span_contained(iv, x, self.forward(x, lvl + 1))
            {
                lvl += 1;
            }
            if self.span_contained(iv, x, self.forward(x, lvl)) {
                self.touch_edge(x, lvl, id, add);
                match self.forward(x, lvl) {
                    None => break, // marked the edge to +inf (hi unbounded)
                    Some(nxt) => {
                        x = Pos::Node(nxt);
                        let contains = iv.contains(&self.node(nxt).key);
                        if contains {
                            self.touch_eq(x, id, add);
                        }
                        if right_is(self, x) {
                            break;
                        }
                    }
                }
            } else {
                debug_assert!(
                    lvl > 0,
                    "level-0 edges between interval endpoints are always contained"
                );
                lvl -= 1;
            }
        }
    }

    fn touch_edge(&mut self, p: Pos, lvl: usize, id: IntervalId, add: bool) {
        let set = self.markers_mut(p, lvl);
        if add {
            set.insert(id);
        } else {
            let removed = set.remove(&id);
            debug_assert!(removed, "marker chain must match placement");
        }
    }

    fn touch_eq(&mut self, p: Pos, id: IntervalId, add: bool) {
        if let Pos::Node(i) = p {
            let set = &mut self.node_mut(i).eq_markers;
            if add {
                set.insert(id);
            } else {
                set.remove(&id);
            }
        }
    }

    // ----- structural changes ----------------------------------------------

    /// Ensure a node exists for `key`, re-placing markers of every interval
    /// whose chain crosses the new node. Returns the node index.
    fn ensure_node(&mut self, key: &T) -> usize {
        if let Some(idx) = self.find_node(key) {
            return idx;
        }
        let update = self.find_update(key);
        let level = self.random_level();
        // Intervals with markers on any edge being split must be re-placed.
        let mut affected: HashSet<IntervalId> = HashSet::new();
        for (lvl, &pos) in update.iter().enumerate().take(level) {
            affected.extend(self.markers(pos, lvl).iter().copied());
        }
        let affected: Vec<IntervalId> = affected.into_iter().collect();
        for &id in &affected {
            let iv = self.intervals[&id].clone();
            self.walk_chain(id, &iv, false);
        }
        // Link the new node in.
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Some(Node::new(key.clone(), level));
                i
            }
            None => {
                self.nodes.push(Some(Node::new(key.clone(), level)));
                self.nodes.len() - 1
            }
        };
        for (lvl, &up) in update.iter().enumerate().take(level) {
            let next = self.forward(up, lvl);
            self.node_mut(idx).forward[lvl] = next;
            self.set_forward(up, lvl, Some(idx));
        }
        for &id in &affected {
            let iv = self.intervals[&id].clone();
            self.walk_chain(id, &iv, true);
        }
        idx
    }

    /// Unlink a node with zero owners, re-placing markers of every interval
    /// whose chain touches its adjacent edges.
    fn delete_node(&mut self, idx: usize) {
        let key = self.node(idx).key.clone();
        debug_assert_eq!(self.node(idx).owners, 0);
        let update = self.find_update(&key);
        let level = self.node(idx).level();
        let mut affected: HashSet<IntervalId> = self.node(idx).eq_markers.clone();
        for (lvl, &up) in update.iter().enumerate().take(level) {
            affected.extend(self.node(idx).markers[lvl].iter().copied());
            // incoming edge at this level
            affected.extend(self.markers(up, lvl).iter().copied());
        }
        let affected: Vec<IntervalId> = affected.into_iter().collect();
        for &id in &affected {
            let iv = self.intervals[&id].clone();
            self.walk_chain(id, &iv, false);
        }
        for (lvl, &up) in update.iter().enumerate().take(level) {
            debug_assert_eq!(self.forward(up, lvl), Some(idx));
            let next = self.node(idx).forward[lvl];
            self.set_forward(up, lvl, next);
        }
        debug_assert!(
            self.node(idx).eq_markers.is_empty()
                && self.node(idx).markers.iter().all(HashSet::is_empty),
            "all markers on the dying node were re-homed"
        );
        self.nodes[idx] = None;
        self.free.push(idx);
        for &id in &affected {
            let iv = self.intervals[&id].clone();
            self.walk_chain(id, &iv, true);
        }
    }

    // ----- public interval API ----------------------------------------------

    /// Insert an interval; returns its handle.
    pub fn insert(&mut self, iv: Interval<T>) -> IntervalId {
        let id = IntervalId(self.next_id);
        self.next_id += 1;
        if let Some(lo) = iv.lo_value().cloned() {
            let n = self.ensure_node(&lo);
            self.node_mut(n).owners += 1;
        }
        if let Some(hi) = iv.hi_value().cloned() {
            let n = self.ensure_node(&hi);
            self.node_mut(n).owners += 1;
        }
        self.intervals.insert(id, iv.clone());
        self.walk_chain(id, &iv, true);
        id
    }

    /// Remove an interval by handle; returns it if it was present.
    pub fn remove(&mut self, id: IntervalId) -> Option<Interval<T>> {
        let iv = self.intervals.remove(&id)?;
        self.walk_chain(id, &iv, false);
        for ep in [iv.lo_value().cloned(), iv.hi_value().cloned()]
            .into_iter()
            .flatten()
        {
            let n = self.find_node(&ep).expect("endpoint node exists");
            self.node_mut(n).owners -= 1;
            if self.node(n).owners == 0 {
                self.delete_node(n);
            }
        }
        Some(iv)
    }

    /// Stabbing query: ids of every stored interval containing `x`.
    /// Expected time O(log n + k) where k is the number of hits.
    pub fn stab(&self, x: &T) -> Vec<IntervalId> {
        // `stab_with` never repeats a hit, so no set is needed
        let mut out = Vec::new();
        self.stab_with(x, |id| out.push(id));
        out
    }

    /// Stabbing query invoking `f` for each hit. Hits are not repeated.
    pub fn stab_with(&self, x: &T, mut f: impl FnMut(IntervalId)) {
        let mut visited = 0u64;
        let mut hits = 0u64;
        let mut cur = Pos::Header;
        for lvl in (0..MAX_LEVEL).rev() {
            while let Some(nxt) = self.forward(cur, lvl) {
                visited += 1;
                if &self.node(nxt).key < x {
                    cur = Pos::Node(nxt);
                } else {
                    break;
                }
            }
            // The outgoing edge at this level spans x strictly unless the
            // next node's key equals x (handled below via eq-markers).
            let strictly_spans = match self.forward(cur, lvl) {
                None => true,
                Some(nxt) => &self.node(nxt).key > x,
            };
            if strictly_spans {
                for &id in self.markers(cur, lvl) {
                    hits += 1;
                    f(id);
                }
            }
        }
        if let Some(nxt) = self.forward(cur, 0) {
            if &self.node(nxt).key == x {
                for &id in &self.node(nxt).eq_markers {
                    hits += 1;
                    f(id);
                }
            }
        }
        self.stats.stabs.add(1);
        self.stats.nodes_visited.add(visited);
        self.stats.hits.add(hits);
    }

    /// Approximate heap footprint in bytes. Alias of
    /// [`Self::approx_size_bytes`] under the name the network layer's
    /// memory accounting expects.
    pub fn bytes(&self) -> usize {
        self.approx_size_bytes()
    }

    /// Approximate heap footprint in bytes, for the benchmark harness.
    pub fn approx_size_bytes(&self) -> usize {
        let per_marker = std::mem::size_of::<IntervalId>();
        let mut total = std::mem::size_of::<Self>();
        for n in self.nodes.iter().flatten() {
            total += std::mem::size_of::<Node<T>>();
            total += n.forward.len() * std::mem::size_of::<Option<usize>>();
            total += n
                .markers
                .iter()
                .map(|m| m.len() * per_marker)
                .sum::<usize>();
            total += n.eq_markers.len() * per_marker;
        }
        total += self.intervals.len() * std::mem::size_of::<Interval<T>>();
        total
    }

    /// Validate internal invariants (test/debug helper): keys strictly
    /// ascending at level 0, every level-`i` node linked at `i-1`, and every
    /// stored marker id refers to a live interval.
    pub fn check_invariants(&self) -> Result<(), String> {
        // level-0 order
        let mut cur = self.head_forward[0];
        let mut prev_key: Option<&T> = None;
        let mut seen = 0usize;
        while let Some(idx) = cur {
            let n = self.node(idx);
            if let Some(p) = prev_key {
                if p >= &n.key {
                    return Err("level-0 keys not strictly ascending".into());
                }
            }
            prev_key = Some(&n.key);
            if n.owners == 0 {
                return Err("ownerless node retained".into());
            }
            seen += 1;
            cur = n.forward[0];
        }
        if seen != self.node_count() {
            return Err("unreachable nodes exist".into());
        }
        // marker ids must be live
        let live = |id: &IntervalId| self.intervals.contains_key(id);
        for lvl in 0..MAX_LEVEL {
            if !self.head_markers[lvl].iter().all(live) {
                return Err("dangling marker id on header edge".into());
            }
        }
        for n in self.nodes.iter().flatten() {
            if !n.eq_markers.iter().all(live) {
                return Err("dangling eq-marker id".into());
            }
            for m in &n.markers {
                if !m.iter().all(live) {
                    return Err("dangling marker id".into());
                }
            }
        }
        Ok(())
    }
}

impl<T: Ord + Clone + fmt::Debug> fmt::Debug for IntervalSkipList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IntervalSkipList {{ intervals: {}, nodes: {} }}",
            self.intervals.len(),
            self.node_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Bound;

    fn sorted(mut v: Vec<IntervalId>) -> Vec<IntervalId> {
        v.sort();
        v
    }

    #[test]
    fn empty_list_stabs_nothing() {
        let l: IntervalSkipList<i64> = IntervalSkipList::new();
        assert!(l.stab(&5).is_empty());
        assert!(l.is_empty());
        l.check_invariants().unwrap();
    }

    #[test]
    fn single_closed_interval() {
        let mut l = IntervalSkipList::new();
        let id = l.insert(Interval::closed(10, 20).unwrap());
        assert_eq!(l.stab(&10), vec![id]);
        assert_eq!(l.stab(&15), vec![id]);
        assert_eq!(l.stab(&20), vec![id]);
        assert!(l.stab(&9).is_empty());
        assert!(l.stab(&21).is_empty());
        l.check_invariants().unwrap();
    }

    #[test]
    fn open_endpoints_respected() {
        let mut l = IntervalSkipList::new();
        let id = l.insert(Interval::open_closed(10, 20).unwrap());
        assert!(l.stab(&10).is_empty(), "lo is excluded");
        assert_eq!(l.stab(&11), vec![id]);
        assert_eq!(l.stab(&20), vec![id]);
    }

    #[test]
    fn point_interval() {
        let mut l = IntervalSkipList::new();
        let id = l.insert(Interval::point(7));
        assert_eq!(l.stab(&7), vec![id]);
        assert!(l.stab(&6).is_empty());
        assert!(l.stab(&8).is_empty());
    }

    #[test]
    fn unbounded_intervals() {
        let mut l = IntervalSkipList::new();
        let ge = l.insert(Interval::at_least(100, false)); // (100, +inf)
        let le = l.insert(Interval::at_most(0, true)); // (-inf, 0]
        let all = l.insert(Interval::all());
        assert_eq!(sorted(l.stab(&-5)), sorted(vec![le, all]));
        assert_eq!(sorted(l.stab(&0)), sorted(vec![le, all]));
        assert_eq!(l.stab(&50), vec![all]);
        assert_eq!(sorted(l.stab(&101)), sorted(vec![ge, all]));
        assert!(l.stab(&100).contains(&all) && !l.stab(&100).contains(&ge));
        l.check_invariants().unwrap();
    }

    #[test]
    fn overlapping_intervals_all_reported() {
        let mut l = IntervalSkipList::new();
        let ids: Vec<_> = (0..10)
            .map(|i| l.insert(Interval::closed(i, i + 10).unwrap()))
            .collect();
        // x = 9 is inside [0,10] .. [9,19]
        let hits = sorted(l.stab(&9));
        assert_eq!(hits, sorted(ids.clone()));
        // x = 5 is inside [0,10] .. [5,15]
        assert_eq!(l.stab(&5).len(), 6);
        l.check_invariants().unwrap();
    }

    #[test]
    fn remove_restores_previous_answers() {
        let mut l = IntervalSkipList::new();
        let a = l.insert(Interval::closed(0, 100).unwrap());
        let b = l.insert(Interval::closed(40, 60).unwrap());
        assert_eq!(sorted(l.stab(&50)), sorted(vec![a, b]));
        assert_eq!(l.remove(b), Interval::closed(40, 60));
        assert_eq!(l.stab(&50), vec![a]);
        assert_eq!(l.stab(&40), vec![a]);
        l.check_invariants().unwrap();
        assert_eq!(l.remove(a), Interval::closed(0, 100));
        assert!(l.stab(&50).is_empty());
        assert_eq!(l.node_count(), 0);
        l.check_invariants().unwrap();
    }

    #[test]
    fn remove_unknown_id_is_none() {
        let mut l: IntervalSkipList<i64> = IntervalSkipList::new();
        assert!(l.remove(IntervalId(99)).is_none());
    }

    #[test]
    fn duplicate_intervals_are_distinct() {
        let mut l = IntervalSkipList::new();
        let a = l.insert(Interval::closed(1, 5).unwrap());
        let b = l.insert(Interval::closed(1, 5).unwrap());
        assert_eq!(sorted(l.stab(&3)), sorted(vec![a, b]));
        l.remove(a);
        assert_eq!(l.stab(&3), vec![b]);
        l.check_invariants().unwrap();
    }

    #[test]
    fn shared_endpoints_owner_counting() {
        let mut l = IntervalSkipList::new();
        let a = l.insert(Interval::closed(10, 20).unwrap());
        let b = l.insert(Interval::closed(20, 30).unwrap());
        assert_eq!(sorted(l.stab(&20)), sorted(vec![a, b]));
        l.remove(a);
        // node 20 still owned by b
        assert_eq!(l.stab(&20), vec![b]);
        assert_eq!(l.stab(&25), vec![b]);
        l.check_invariants().unwrap();
    }

    #[test]
    fn paper_band_predicates() {
        // The benchmark rules of Figs. 9-11: bands Ci < sal <= Ci + 10000,
        // Ci = i * 1000. A salary stabs exactly the bands containing it.
        let mut l = IntervalSkipList::new();
        let ids: Vec<_> = (0..200)
            .map(|i| {
                let lo = i * 1000;
                l.insert(Interval::open_closed(lo, lo + 10_000).unwrap())
            })
            .collect();
        let x = 55_500i64;
        let expect: Vec<_> = (0..200)
            .filter(|&i| {
                let lo = i * 1000;
                x > lo && x <= lo + 10_000
            })
            .map(|i| ids[i as usize])
            .collect();
        assert_eq!(sorted(l.stab(&x)), sorted(expect));
        l.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_inserts_and_removes() {
        let mut l = IntervalSkipList::new();
        let mut live: Vec<(IntervalId, Interval<i64>)> = Vec::new();
        let mut seed = 123u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as i64
        };
        for step in 0..300 {
            if step % 3 == 2 && !live.is_empty() {
                let k = (rnd() as usize) % live.len();
                let (id, _) = live.swap_remove(k);
                l.remove(id).unwrap();
            } else {
                let a = rnd() % 100;
                let b = a + 1 + rnd() % 50;
                let iv = Interval::closed(a, b).unwrap();
                let id = l.insert(iv.clone());
                live.push((id, iv));
            }
            l.check_invariants().unwrap();
            // spot-check three stab points
            for x in [-10i64, 25, 75] {
                let got = sorted(l.stab(&x));
                let mut want: Vec<_> = live
                    .iter()
                    .filter(|(_, iv)| iv.contains(&x))
                    .map(|(id, _)| *id)
                    .collect();
                want.sort();
                assert_eq!(got, want, "step {step}, stab {x}");
            }
        }
    }

    #[test]
    fn mixed_bound_kinds_exhaustive_small_domain() {
        // All bound combinations over a tiny domain, exhaustively stabbed.
        let mut l = IntervalSkipList::new();
        let mut live: Vec<(IntervalId, Interval<i64>)> = Vec::new();
        let bounds: Vec<Bound<i64>> = vec![Bound::Unbounded]
            .into_iter()
            .chain((0..6).flat_map(|v| [Bound::Included(v), Bound::Excluded(v)]))
            .collect();
        for lo in &bounds {
            for hi in &bounds {
                if let Some(iv) = Interval::new(*lo, *hi) {
                    let id = l.insert(iv.clone());
                    live.push((id, iv));
                }
            }
        }
        l.check_invariants().unwrap();
        for x in -1..7 {
            let got = sorted(l.stab(&x));
            let mut want: Vec<_> = live
                .iter()
                .filter(|(_, iv)| iv.contains(&x))
                .map(|(id, _)| *id)
                .collect();
            want.sort();
            assert_eq!(got, want, "stab {x}");
        }
        // now remove half and re-verify
        for (id, _) in live.drain(..live.len() / 2).collect::<Vec<_>>() {
            l.remove(id).unwrap();
        }
        l.check_invariants().unwrap();
        for x in -1..7 {
            let got = sorted(l.stab(&x));
            let mut want: Vec<_> = live
                .iter()
                .filter(|(_, iv)| iv.contains(&x))
                .map(|(id, _)| *id)
                .collect();
            want.sort();
            assert_eq!(got, want, "stab {x} after removals");
        }
    }

    #[test]
    fn approx_size_grows_with_content() {
        let mut l = IntervalSkipList::new();
        let empty = l.approx_size_bytes();
        for i in 0..50 {
            l.insert(Interval::closed(i, i + 5).unwrap());
        }
        assert!(l.approx_size_bytes() > empty);
    }

    #[test]
    fn works_with_string_keys() {
        let mut l: IntervalSkipList<String> = IntervalSkipList::new();
        let id = l.insert(Interval::closed("apple".to_string(), "mango".to_string()).unwrap());
        assert_eq!(l.stab(&"banana".to_string()), vec![id]);
        assert!(l.stab(&"zebra".to_string()).is_empty());
    }

    #[test]
    fn stab_equals_the_naive_hits_on_random_intervals() {
        use crate::naive::NaiveIntervalSet;
        let mut rng = LevelRng(0x9E37_79B9_7F4A_7C15);
        let mut pick = |n: u32| (rng.next_u32() % n) as i64;
        let mut list = IntervalSkipList::with_seed(7);
        let mut naive = NaiveIntervalSet::new();
        let mut ids = Vec::new();
        for round in 0..400 {
            let lo = pick(200);
            let hi = lo + pick(60);
            let bound = |v: i64, open: bool| {
                if open {
                    Bound::Excluded(v)
                } else {
                    Bound::Included(v)
                }
            };
            if let Some(iv) = Interval::new(bound(lo, pick(2) == 0), bound(hi, pick(2) == 0)) {
                let id = list.insert(iv.clone());
                assert_eq!(naive.insert(iv), id, "both number intervals alike");
                ids.push(id);
            }
            if round % 5 == 4 && !ids.is_empty() {
                let id = ids.swap_remove(pick(ids.len() as u32) as usize);
                assert_eq!(list.remove(id), naive.remove(id));
            }
            for x in [pick(270) - 5, lo, hi] {
                let hits = list.stab(&x);
                let mut seen = sorted(hits.clone());
                seen.dedup();
                assert_eq!(seen.len(), hits.len(), "stab repeated a hit at {x}");
                assert_eq!(seen, sorted(naive.stab(&x)), "stab at {x}");
            }
        }
        list.check_invariants().unwrap();
    }
}
