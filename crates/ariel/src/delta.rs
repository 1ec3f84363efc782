//! Δ-sets and logical-event token generation (§2.2.2, §4.3.1).
//!
//! Ariel triggers rules on **logical** rather than physical events: the
//! life of a tuple within one transition collapses to a net effect. The
//! `[I, M]` Δ-sets identify, per relation, which tuples were inserted this
//! transition (`I`) and which pre-existing tuples were modified (`M`,
//! remembering their start-of-transition value — the value `previous`
//! refers to). Each physical [`Change`] is then translated into the exact
//! token sequence of the paper's four cases:
//!
//! | case | history      | net effect | tokens per operation |
//! |------|--------------|-----------|-----------------------|
//! | 1    | `i m*`       | insert    | insert⁺; each modify: insert⁻, insert⁺ |
//! | 2    | `i m* d`     | nothing   | as case 1; final delete: insert⁻ |
//! | 3    | `m⁺`         | modify    | first: bare ⁻ then Δ⁺; later: Δ⁻, Δ⁺ |
//! | 4    | `m* d`       | delete    | as case 3; final delete: Δ⁻ then delete⁻ |
//!
//! Every Δ⁺ token lands in the α-memories as an insert *under the same
//! TID* as the value it supersedes, which is what drives the join-index
//! rebucket path in `ariel_network::alpha`: the node unhooks the old
//! entry's key from its hash bucket before indexing the new one.

use ariel_network::{EventSpecifier, Token};
use ariel_query::Change;
use ariel_storage::{FxHashMap, FxHashSet, RelId, Tuple};

#[derive(Debug, Default)]
struct RelDelta {
    /// Generation of the relation these sets describe.
    gen: u32,
    /// `I`: tuples inserted during this transition.
    inserted: FxHashSet<u64>,
    /// `M`: pre-existing tuples modified this transition → their value at
    /// the start of the transition and the union of replaced attribute
    /// positions so far.
    modified: FxHashMap<u64, (Tuple, Vec<usize>)>,
}

impl RelDelta {
    fn clear(&mut self) {
        self.inserted.clear();
        self.modified.clear();
    }
}

/// Per-transition Δ-set tracker, one `[I, M]` pair per relation slot.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    rels: Vec<RelDelta>,
}

impl DeltaTracker {
    /// New empty tracker (start of a transition).
    pub fn new() -> Self {
        DeltaTracker::default()
    }

    /// Reset for the next transition, keeping the sets' capacity.
    pub fn reset(&mut self) {
        self.rels.iter_mut().for_each(RelDelta::clear);
    }

    /// The Δ-sets of `rel`, emptied if they described an earlier
    /// generation of its slot.
    fn rel(&mut self, rel: RelId) -> &mut RelDelta {
        if self.rels.len() <= rel.slot() {
            self.rels.resize_with(rel.slot() + 1, RelDelta::default);
        }
        let d = &mut self.rels[rel.slot()];
        if d.gen != rel.gen() {
            d.clear();
            d.gen = rel.gen();
        }
        d
    }

    /// Translate one physical change into its token sequence, updating the
    /// Δ-sets.
    pub fn tokens_for(&mut self, change: &Change) -> Vec<Token> {
        let mut out = Vec::with_capacity(2);
        self.push_tokens(change, &mut out);
        out
    }

    /// Translate a batch of changes, concatenating the token sequences.
    pub fn tokens_for_all(&mut self, changes: &[Change]) -> Vec<Token> {
        let mut out = Vec::with_capacity(changes.len());
        for c in changes {
            self.push_tokens(c, &mut out);
        }
        out
    }

    /// [`Self::tokens_for`], appended to `out`.
    fn push_tokens(&mut self, change: &Change, out: &mut Vec<Token>) {
        match change {
            Change::Inserted { rel, tid, new } => {
                self.rel(*rel).inserted.insert(tid.0);
                out.push(Token::plus(*rel, *tid, new.clone(), EventSpecifier::Append));
            }
            Change::Updated {
                rel,
                tid,
                old,
                new,
                attrs,
            } => {
                let rel = *rel;
                let d = self.rel(rel);
                if d.inserted.contains(&tid.0) {
                    // case 1: a modify of a tuple inserted this transition
                    // nets to an insertion of the new value
                    out.push(Token::minus(rel, *tid, old.clone(), EventSpecifier::Append));
                    out.push(Token::plus(rel, *tid, new.clone(), EventSpecifier::Append));
                } else if let Some((orig, seen_attrs)) = d.modified.get_mut(&tid.0) {
                    // case 3, subsequent modify: replace the standing pair
                    for a in attrs {
                        if !seen_attrs.contains(a) {
                            seen_attrs.push(*a);
                        }
                    }
                    out.push(Token::delta_minus(
                        rel,
                        *tid,
                        old.clone(),
                        orig.clone(),
                        EventSpecifier::Replace(seen_attrs.clone()),
                    ));
                    out.push(Token::delta_plus(
                        rel,
                        *tid,
                        new.clone(),
                        orig.clone(),
                        EventSpecifier::Replace(seen_attrs.clone()),
                    ));
                } else {
                    // case 3, first modify of a pre-existing tuple: the
                    // bare − (no event specifier) removes the old value
                    // from pattern memories, then Δ⁺ asserts the pair
                    d.modified.insert(tid.0, (old.clone(), attrs.clone()));
                    out.push(Token::bare_minus(rel, *tid, old.clone()));
                    out.push(Token::delta_plus(
                        rel,
                        *tid,
                        new.clone(),
                        old.clone(),
                        EventSpecifier::Replace(attrs.clone()),
                    ));
                }
            }
            Change::Deleted { rel, tid, old } => {
                let rel = *rel;
                let d = self.rel(rel);
                if d.inserted.remove(&tid.0) {
                    // case 2: net effect nothing; the insert⁻ undoes the
                    // insertion and no delete event fires
                    out.push(Token::minus(rel, *tid, old.clone(), EventSpecifier::Append));
                } else if let Some((orig, attrs)) = d.modified.remove(&tid.0) {
                    // case 4 after modifications: Δ⁻ removes the standing
                    // pair, then delete⁻ matches on-delete conditions
                    out.push(Token::delta_minus(
                        rel,
                        *tid,
                        old.clone(),
                        orig,
                        EventSpecifier::Replace(attrs),
                    ));
                    out.push(Token::minus(rel, *tid, old.clone(), EventSpecifier::Delete));
                } else {
                    // case 4 with zero modifications
                    out.push(Token::minus(rel, *tid, old.clone(), EventSpecifier::Delete));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariel_network::TokenKind;
    use ariel_storage::{Tid, Value};

    const R: RelId = RelId::new(0, 0);
    const S: RelId = RelId::new(1, 0);

    fn tup(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn ins(tid: u64, v: i64) -> Change {
        Change::Inserted {
            rel: R,
            tid: Tid(tid),
            new: tup(v),
        }
    }

    fn upd(tid: u64, old: i64, new: i64) -> Change {
        Change::Updated {
            rel: R,
            tid: Tid(tid),
            old: tup(old),
            new: tup(new),
            attrs: vec![0],
        }
    }

    fn del(tid: u64, old: i64) -> Change {
        Change::Deleted {
            rel: R,
            tid: Tid(tid),
            old: tup(old),
        }
    }

    fn kinds_events(tokens: &[Token]) -> Vec<(TokenKind, Option<EventSpecifier>)> {
        tokens.iter().map(|t| (t.kind, t.event.clone())).collect()
    }

    #[test]
    fn case1_insert_then_modify() {
        // i m m: insert⁺, then (insert⁻, insert⁺) per modify
        let mut d = DeltaTracker::new();
        let t1 = d.tokens_for(&ins(1, 10));
        assert_eq!(
            kinds_events(&t1),
            vec![(TokenKind::Plus, Some(EventSpecifier::Append))]
        );
        let t2 = d.tokens_for(&upd(1, 10, 20));
        assert_eq!(
            kinds_events(&t2),
            vec![
                (TokenKind::Minus, Some(EventSpecifier::Append)),
                (TokenKind::Plus, Some(EventSpecifier::Append)),
            ]
        );
        let t3 = d.tokens_for(&upd(1, 20, 30));
        assert_eq!(
            kinds_events(&t3),
            vec![
                (TokenKind::Minus, Some(EventSpecifier::Append)),
                (TokenKind::Plus, Some(EventSpecifier::Append)),
            ]
        );
        // the final insert⁺ carries the newest value
        assert_eq!(t3[1].tuple, tup(30));
    }

    #[test]
    fn case2_insert_modify_delete_nets_to_nothing() {
        let mut d = DeltaTracker::new();
        d.tokens_for(&ins(1, 10));
        d.tokens_for(&upd(1, 10, 20));
        let t = d.tokens_for(&del(1, 20));
        // a single insert⁻, and crucially NO delete event
        assert_eq!(
            kinds_events(&t),
            vec![(TokenKind::Minus, Some(EventSpecifier::Append))]
        );
    }

    #[test]
    fn case3_modify_preexisting() {
        let mut d = DeltaTracker::new();
        // first modify: bare − then Δ⁺
        let t1 = d.tokens_for(&upd(1, 10, 20));
        assert_eq!(
            kinds_events(&t1),
            vec![
                (TokenKind::Minus, None),
                (TokenKind::DeltaPlus, Some(EventSpecifier::Replace(vec![0]))),
            ]
        );
        assert_eq!(t1[1].old, Some(tup(10)));
        // second modify: Δ⁻ removing the (20, 10) pair, then Δ⁺ (30, 10)
        let t2 = d.tokens_for(&upd(1, 20, 30));
        assert_eq!(t2[0].kind, TokenKind::DeltaMinus);
        assert_eq!(t2[0].tuple, tup(20));
        assert_eq!(t2[0].old, Some(tup(10)), "previous = start of transition");
        assert_eq!(t2[1].kind, TokenKind::DeltaPlus);
        assert_eq!(t2[1].tuple, tup(30));
        assert_eq!(t2[1].old, Some(tup(10)), "previous = start of transition");
    }

    #[test]
    fn case4_modify_then_delete() {
        let mut d = DeltaTracker::new();
        d.tokens_for(&upd(1, 10, 20));
        let t = d.tokens_for(&del(1, 20));
        assert_eq!(t[0].kind, TokenKind::DeltaMinus);
        assert_eq!(t[1].kind, TokenKind::Minus);
        assert_eq!(t[1].event, Some(EventSpecifier::Delete));
        assert_eq!(t[1].tuple, tup(20), "delete− carries the final value");
    }

    #[test]
    fn case4_plain_delete() {
        let mut d = DeltaTracker::new();
        let t = d.tokens_for(&del(1, 10));
        assert_eq!(
            kinds_events(&t),
            vec![(TokenKind::Minus, Some(EventSpecifier::Delete))]
        );
    }

    #[test]
    fn replace_attrs_accumulate_across_transition() {
        let mut d = DeltaTracker::new();
        let c1 = Change::Updated {
            rel: R,
            tid: Tid(1),
            old: tup(1),
            new: tup(2),
            attrs: vec![0],
        };
        let c2 = Change::Updated {
            rel: R,
            tid: Tid(1),
            old: tup(2),
            new: tup(3),
            attrs: vec![2],
        };
        d.tokens_for(&c1);
        let t = d.tokens_for(&c2);
        // the net logical event replaced both attrs 0 and 2
        assert_eq!(t[1].event, Some(EventSpecifier::Replace(vec![0, 2])));
    }

    #[test]
    fn reset_starts_new_transition() {
        let mut d = DeltaTracker::new();
        d.tokens_for(&upd(1, 10, 20));
        d.reset();
        // after reset, the same tuple is "untouched" again: bare − + Δ⁺
        // with previous = 20 (its value at the start of the new transition)
        let t = d.tokens_for(&upd(1, 20, 30));
        assert_eq!(t[0].kind, TokenKind::Minus);
        assert_eq!(t[0].event, None);
        assert_eq!(t[1].old, Some(tup(20)));
    }

    #[test]
    fn relations_tracked_independently() {
        let mut d = DeltaTracker::new();
        d.tokens_for(&ins(1, 10));
        let other = Change::Deleted {
            rel: S,
            tid: Tid(1),
            old: tup(5),
        };
        let t = d.tokens_for(&other);
        // same tid in a different relation is not "inserted this transition"
        assert_eq!(t[0].event, Some(EventSpecifier::Delete));
    }

    #[test]
    fn a_new_generation_of_a_slot_starts_with_empty_sets() {
        let mut d = DeltaTracker::new();
        d.tokens_for(&ins(1, 10));
        let again = RelId::new(R.slot() as u32, R.gen() + 1);
        let t = d.tokens_for(&Change::Deleted {
            rel: again,
            tid: Tid(1),
            old: tup(10),
        });
        assert_eq!(t[0].rel, again);
        // TID 1 was inserted into the destroyed relation, not this one
        assert_eq!(t[0].event, Some(EventSpecifier::Delete));
    }

    #[test]
    fn nobobs_block_scenario() {
        // §2.2.2: append then replace inside one do-block nets to a single
        // logical append of the final value — the NoBobs rule fires.
        let mut d = DeltaTracker::new();
        d.tokens_for(&ins(1, 100)); // append emp(name="Sue"…)
        let t = d.tokens_for(&upd(1, 100, 200)); // replace emp(name="Bob")
                                                 // the logical event is still an append (insert−, insert+), so an
                                                 // on-append rule sees the final value
        assert_eq!(t[1].kind, TokenKind::Plus);
        assert_eq!(t[1].event, Some(EventSpecifier::Append));
        assert_eq!(t[1].tuple, tup(200));
    }

    #[test]
    fn batch_translation() {
        let mut d = DeltaTracker::new();
        let tokens = d.tokens_for_all(&[ins(1, 1), ins(2, 2), del(1, 1)]);
        assert_eq!(tokens.len(), 3);
        assert_eq!(tokens[2].event, Some(EventSpecifier::Append), "case 2");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ariel_network::{EventSpecifier, TokenKind};
    use ariel_storage::{Tid, Value};
    use proptest::prelude::*;

    /// Net effect of one tuple's life within a transition (§2.2.2's table).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum NetEffect {
        Insert,
        Modify,
        Delete,
        Nothing,
    }

    #[derive(Debug, Clone, Copy)]
    enum TupleOp {
        Insert,
        Modify,
        Delete,
    }

    const R: RelId = RelId::new(0, 0);

    fn history() -> impl Strategy<Value = (bool, Vec<TupleOp>)> {
        (
            any::<bool>(),
            proptest::collection::vec(
                prop_oneof![
                    Just(TupleOp::Insert),
                    Just(TupleOp::Modify),
                    Just(TupleOp::Delete)
                ],
                1..7,
            ),
        )
    }

    /// Minimal models of the three α-memory families, driven per Fig. 5.
    #[derive(Debug, Default)]
    struct Memories {
        /// pattern memory: tid → current value (primed from existing data)
        pattern: Option<i64>,
        /// on-append memory: present iff an un-retracted append token stands
        on_append: Option<i64>,
        /// transition memory: (new, old) pair while one stands
        trans: Option<(i64, i64)>,
        /// on-delete matches observed
        delete_events: usize,
    }

    impl Memories {
        fn apply(&mut self, t: &Token) {
            let v = t.tuple.get(0).as_i64().unwrap();
            match t.kind {
                TokenKind::Plus => {
                    self.pattern = Some(v);
                    if t.event == Some(EventSpecifier::Append) {
                        self.on_append = Some(v);
                    }
                }
                TokenKind::Minus => {
                    self.pattern = None;
                    if t.event == Some(EventSpecifier::Append) {
                        self.on_append = None;
                    }
                    if t.event == Some(EventSpecifier::Delete) {
                        self.delete_events += 1;
                    }
                }
                TokenKind::DeltaPlus => {
                    // Fig. 5: pattern memories insert newt; trans memories
                    // insert the pair
                    self.pattern = Some(v);
                    self.trans = Some((v, t.old.as_ref().unwrap().get(0).as_i64().unwrap()));
                }
                TokenKind::DeltaMinus => {
                    self.pattern = None;
                    self.trans = None;
                }
            }
        }
    }

    /// Replay a legal prefix of `ops`, returning the model's net effect,
    /// the memory states, the final value, and the start-of-transition
    /// value.
    fn replay(preexisting: bool, ops: &[TupleOp]) -> (NetEffect, Memories, i64, i64) {
        let mut tracker = DeltaTracker::new();
        let mut alive = preexisting;
        // the paper's table is per-tuple: once deleted, a tuple never comes
        // back (a re-insert would be a different tuple with a fresh TID)
        let mut ever_died = false;
        let start_value = 0i64;
        let mut value = start_value;
        let mut mems = Memories {
            pattern: if preexisting { Some(start_value) } else { None },
            ..Default::default()
        };
        let mut effect = NetEffect::Nothing;
        let tup = |v: i64| Tuple::new(vec![Value::Int(v)]);
        for op in ops {
            let change = match (op, alive) {
                (TupleOp::Insert, false) if !ever_died => {
                    alive = true;
                    value += 1;
                    effect = NetEffect::Insert;
                    Change::Inserted {
                        rel: R,
                        tid: Tid(1),
                        new: tup(value),
                    }
                }
                (TupleOp::Modify, true) => {
                    let old = value;
                    value += 1;
                    if effect != NetEffect::Insert {
                        effect = NetEffect::Modify;
                    }
                    Change::Updated {
                        rel: R,
                        tid: Tid(1),
                        old: tup(old),
                        new: tup(value),
                        attrs: vec![0],
                    }
                }
                (TupleOp::Delete, true) => {
                    alive = false;
                    ever_died = true;
                    effect = if effect == NetEffect::Insert {
                        NetEffect::Nothing
                    } else {
                        NetEffect::Delete
                    };
                    Change::Deleted {
                        rel: R,
                        tid: Tid(1),
                        old: tup(value),
                    }
                }
                _ => continue, // illegal op for current state: skip
            };
            for t in tracker.tokens_for(&change) {
                mems.apply(&t);
            }
        }
        (effect, mems, value, start_value)
    }

    proptest! {
        /// Composing the Δ-set token generation with Fig. 5's memory
        /// actions leaves every memory family expressing exactly the net
        /// effect of the tuple's update sequence.
        #[test]
        fn memories_express_net_effect((preexisting, ops) in history()) {
            let (effect, mems, value, start) = replay(preexisting, &ops);
            match effect {
                NetEffect::Insert => {
                    prop_assert_eq!(mems.pattern, Some(value), "pattern sees final value");
                    prop_assert_eq!(mems.on_append, Some(value), "on-append sees final value");
                    prop_assert_eq!(mems.trans, None, "no transition pair");
                    prop_assert_eq!(mems.delete_events, 0);
                }
                NetEffect::Modify => {
                    prop_assert_eq!(mems.pattern, Some(value));
                    prop_assert_eq!(mems.on_append, None, "not an append");
                    prop_assert_eq!(
                        mems.trans,
                        Some((value, start)),
                        "pair = (final, start-of-transition)"
                    );
                    prop_assert_eq!(mems.delete_events, 0);
                }
                NetEffect::Delete => {
                    prop_assert_eq!(mems.pattern, None, "value retracted");
                    prop_assert_eq!(mems.on_append, None);
                    prop_assert_eq!(mems.trans, None, "pair retracted");
                    prop_assert_eq!(mems.delete_events, 1, "exactly one delete event");
                }
                NetEffect::Nothing => {
                    // either never touched, or insert+delete cancelled out
                    if preexisting {
                        prop_assert_eq!(mems.pattern, Some(start), "untouched value intact");
                    } else {
                        prop_assert_eq!(mems.pattern, None);
                    }
                    prop_assert_eq!(mems.on_append, None);
                    prop_assert_eq!(mems.trans, None);
                    prop_assert_eq!(mems.delete_events, 0, "net-nothing fires no delete");
                }
            }
        }
    }
}
