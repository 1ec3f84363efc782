//! The per-relation store behind TREAT's stored α-memories.
//!
//! TREAT keeps one stored α-memory per rule variable (§4.2), and a tuple
//! lands in every memory whose selection it passes — ten band memories for
//! one `emp` append on the repo benchmark. When each of those memories kept
//! its own equi-join indexes, one token paid for ten copies of every index
//! update. The [`Store`] holds each relation's stored tuples **once**:
//! TID → (holder count, tuple), plus one hash index per attribute set any
//! stored memory on the relation joins on. A memory keeps its TID-keyed
//! entries — membership and the value it holds — and probes by taking the
//! shared bucket's TIDs and keeping those it holds itself. Rete matchers
//! such as rsete have the same shape: working memory holds each WME once
//! and α-memories refer to it by id.
//!
//! **One value per TID.** A shared index files a TID under one key, so
//! every memory holding the TID must hold the same value. For stored
//! memories that holds by construction: `ariel::delta` emits a TID's `−`
//! before its `+`, the `−` carries the value every holder took from the
//! previous `+` (or from priming, which runs between batches), and the
//! selection-network stab sends that `−` to every memory holding the TID
//! (the argument at `Network::process_negative`). So a holder is emptied
//! before any holder takes the new value. Dynamic memories (`DynamicOn` /
//! `DynamicTrans`) do not satisfy it — a bare `−` leaves an ON-append
//! memory holding a value the relation no longer has, an ON DELETE memory
//! holds dead tuples, a transition memory holds Δ pairs — so they keep
//! node-local indexes and never enter the store. Rete's α-memories and
//! every band (interval) index stay node-local too.
//!
//! Every write goes through [`Store::insert`] / [`Store::remove`], and
//! [`Store::debug_check`] re-derives the holder counts and every bucket
//! from the memories after each batch in debug builds.

use crate::alpha::{AlphaEntry, AlphaNode, JoinIndex};
use crate::key::SmallKey;
use ariel_storage::{FxHashMap, RelId, Tid, Tuple};
use std::collections::hash_map::Entry;

/// Handle of one relation's shared tuples and indexes in a [`Store`]: the
/// relation's catalog slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoreSlot(usize);

/// The shared tuples and join indexes of every relation with a stored
/// memory that joins on an indexed key, indexed by relation slot.
#[derive(Debug, Default)]
pub(crate) struct Store {
    rels: Vec<RelStore>,
}

#[derive(Debug, Default)]
struct RelStore {
    /// Generation of the relation the slot's memories hold tuples of.
    gen: u32,
    /// TID → the tuple every holder holds, and how many memories hold it.
    held: FxHashMap<u64, Held>,
    indexes: Vec<SharedIndex>,
}

#[derive(Debug)]
struct Held {
    holders: u32,
    tuple: Tuple,
}

#[derive(Debug)]
struct SharedIndex {
    index: JoinIndex,
    /// Registrations of this attribute set by live memories.
    users: u32,
}

impl RelStore {
    fn index(&self, attrs: &[usize]) -> Option<&JoinIndex> {
        self.indexes
            .iter()
            .find(|ix| ix.index.attrs == attrs)
            .map(|ix| &ix.index)
    }
}

/// Whether two tuples hold the same value (shared storage short-cuts the
/// comparison, and makes a NaN-carrying tuple equal to itself).
fn same_value(a: &Tuple, b: &Tuple) -> bool {
    a.shares_storage(b) || a == b
}

impl Store {
    /// The slot of `rel`, created on first use. A slot left empty by an
    /// earlier generation of the relation passes to the new one.
    pub(crate) fn slot(&mut self, rel: RelId) -> StoreSlot {
        if self.rels.len() <= rel.slot() {
            self.rels.resize_with(rel.slot() + 1, RelStore::default);
        }
        let store = &mut self.rels[rel.slot()];
        if store.gen != rel.gen() {
            debug_assert!(
                store.held.is_empty() && store.indexes.is_empty(),
                "relation {rel} stored while an earlier generation still is"
            );
            store.gen = rel.gen();
        }
        StoreSlot(rel.slot())
    }

    /// A memory joins on `attrs`: share the index, building and
    /// back-filling it from the tuples already held if it is new.
    pub(crate) fn register(&mut self, slot: StoreSlot, attrs: &[usize]) {
        let rel = &mut self.rels[slot.0];
        if let Some(ix) = rel.indexes.iter_mut().find(|ix| ix.index.attrs == attrs) {
            ix.users += 1;
            return;
        }
        let mut index = JoinIndex::new(attrs.to_vec());
        let mut tids: Vec<&u64> = rel.held.keys().collect();
        tids.sort_unstable();
        for tid in tids {
            index.add(*tid, &rel.held[tid].tuple);
        }
        rel.indexes.push(SharedIndex { index, users: 1 });
    }

    /// Undo one [`Self::register`]; the index goes with its last user.
    pub(crate) fn unregister(&mut self, slot: StoreSlot, attrs: &[usize]) {
        let indexes = &mut self.rels[slot.0].indexes;
        let Some(pos) = indexes.iter().position(|ix| ix.index.attrs == attrs) else {
            debug_assert!(false, "unregistering an index nobody registered");
            return;
        };
        indexes[pos].users -= 1;
        if indexes[pos].users == 0 {
            indexes.swap_remove(pos);
        }
    }

    /// Insert `entry` under `tid` into a stored or dynamic memory — the one
    /// write path for memories, so a memory with a store slot always
    /// acquires the TID it now holds.
    pub(crate) fn insert(&mut self, alpha: &mut AlphaNode, tid: Tid, entry: AlphaEntry) {
        if let Some(slot) = alpha.store_slot {
            // a re-insert swaps the value this holder holds
            if alpha.contains(tid) {
                self.release(slot, tid.0);
            }
            self.acquire(slot, tid.0, &entry.tuple);
        }
        alpha.insert(tid, entry);
    }

    /// Remove `tid` from a memory, releasing it in the store when the
    /// memory shares it. Idempotent, like [`AlphaNode::remove`].
    pub(crate) fn remove(&mut self, alpha: &mut AlphaNode, tid: Tid) -> Option<AlphaEntry> {
        let entry = alpha.remove(tid)?;
        if let Some(slot) = alpha.store_slot {
            self.release(slot, tid.0);
        }
        Some(entry)
    }

    fn acquire(&mut self, slot: StoreSlot, tid: u64, tuple: &Tuple) {
        let rel = &mut self.rels[slot.0];
        match rel.held.entry(tid) {
            Entry::Occupied(mut held) => {
                debug_assert!(
                    same_value(&held.get().tuple, tuple),
                    "TID {tid} held at two values: {} and {tuple}",
                    held.get().tuple
                );
                held.get_mut().holders += 1;
            }
            Entry::Vacant(vacant) => {
                for ix in &mut rel.indexes {
                    ix.index.add(tid, tuple);
                }
                vacant.insert(Held {
                    holders: 1,
                    tuple: tuple.clone(),
                });
            }
        }
    }

    fn release(&mut self, slot: StoreSlot, tid: u64) {
        let rel = &mut self.rels[slot.0];
        let Entry::Occupied(mut held) = rel.held.entry(tid) else {
            debug_assert!(false, "releasing TID {tid}, which nobody holds");
            return;
        };
        if held.get().holders > 1 {
            held.get_mut().holders -= 1;
            return;
        }
        let Held { tuple, .. } = held.remove();
        for ix in &mut rel.indexes {
            ix.index.remove(tid, &tuple);
        }
    }

    /// Tuples the relation holds for its memories.
    #[cfg(test)]
    pub(crate) fn held(&self, slot: StoreSlot) -> usize {
        self.rels[slot.0].held.len()
    }

    /// Whether the relation shares an index on exactly `attrs`.
    pub(crate) fn has_index(&self, slot: StoreSlot, attrs: &[usize]) -> bool {
        self.rels[slot.0].index(attrs).is_some()
    }

    /// The TIDs the shared index on `attrs` files under `key` — across
    /// every memory on the relation, so callers keep the ones their memory
    /// holds. `None` without such an index.
    pub(crate) fn bucket(
        &self,
        slot: StoreSlot,
        attrs: &[usize],
        key: &SmallKey,
    ) -> Option<&[u64]> {
        Some(self.rels[slot.0].index(attrs)?.bucket(key))
    }

    /// Expected candidates a probe on `attrs` serves a memory of `len`
    /// entries: the shared index's average bucket, scaled by the share of
    /// the relation's held tuples the memory holds. For a memory that holds
    /// every held tuple this is exactly the node-local estimate.
    pub(crate) fn expected_bucket(
        &self,
        slot: StoreSlot,
        attrs: &[usize],
        len: usize,
    ) -> Option<usize> {
        let rel = &self.rels[slot.0];
        let (distinct, indexed) = rel.index(attrs)?.shape();
        if distinct == 0 {
            return Some(0);
        }
        Some((len * indexed).div_ceil(rel.held.len() * distinct))
    }

    /// Approximate heap footprint: one held-map slot per tuple (the tuple
    /// storage itself is shared with the memories, which charge it) plus
    /// every shared index.
    pub(crate) fn bytes(&self) -> usize {
        let held = std::mem::size_of::<u64>() + std::mem::size_of::<Held>();
        self.rels
            .iter()
            .map(|rel| {
                rel.held.len() * held + rel.indexes.iter().map(|ix| ix.index.bytes()).sum::<usize>()
            })
            .sum()
    }

    /// Debug check, after every batch: per relation, each TID's holder
    /// count equals the number of memories holding it, each holder's entry
    /// equals the held tuple, and each index lists exactly the held TIDs
    /// under their keys.
    pub(crate) fn debug_check<'a>(&self, memories: impl Iterator<Item = &'a AlphaNode>) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut holders: Vec<FxHashMap<u64, u32>> = vec![FxHashMap::default(); self.rels.len()];
        for a in memories {
            let Some(slot) = a.store_slot else { continue };
            assert!(!a.has_join_indexes(), "a shared memory indexes locally");
            for (tid, e) in a.keyed_entries() {
                let held = self.rels[slot.0]
                    .held
                    .get(&tid)
                    .unwrap_or_else(|| panic!("{}: TID {tid} held but not in the store", a.rel));
                assert!(
                    same_value(&held.tuple, &e.tuple),
                    "{}: TID {tid} is {} in a memory, {} in the store",
                    a.rel,
                    e.tuple,
                    held.tuple
                );
                *holders[slot.0].entry(tid).or_default() += 1;
            }
        }
        for (rel, counted) in self.rels.iter().zip(&holders) {
            assert_eq!(rel.held.len(), counted.len(), "store holds unheld TIDs");
            for (tid, h) in &rel.held {
                let counted = counted.get(tid).copied().unwrap_or(0);
                assert_eq!(h.holders, counted, "holder count of TID {tid}");
            }
            for ix in &rel.indexes {
                let mut want: FxHashMap<SmallKey, Vec<u64>> = FxHashMap::default();
                for (tid, h) in &rel.held {
                    if let Some(key) = ix.index.key_of(&h.tuple) {
                        want.entry(key).or_default().push(*tid);
                    }
                }
                let mut got: FxHashMap<SmallKey, Vec<u64>> = FxHashMap::default();
                for (key, tids) in ix.index.buckets() {
                    got.insert(key.clone(), tids.to_vec());
                }
                for tids in want.values_mut().chain(got.values_mut()) {
                    tids.sort_unstable();
                }
                assert_eq!(got, want, "index on {:?} diverged", ix.index.attrs);
                let indexed: usize = want.values().map(Vec::len).sum();
                assert_eq!(ix.index.shape(), (want.len(), indexed));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::{AlphaKind, RuleId};
    use crate::key::KeyBuilder;
    use crate::pred::SelectionPredicate;
    use ariel_storage::Value;

    /// A stored `emp` memory of rule `rule` that joins on `attr_sets`.
    fn memory(store: &mut Store, rule: u64, attr_sets: &[&[usize]]) -> AlphaNode {
        let mut a = AlphaNode::new(
            RuleId(rule),
            0,
            RelId::new(0, 0),
            AlphaKind::Stored,
            SelectionPredicate::always_true(),
            None,
        );
        let slot = store.slot(RelId::new(0, 0));
        for attrs in attr_sets {
            store.register(slot, attrs);
        }
        a.store_slot = Some(slot);
        a
    }

    fn entry(tid: u64, values: Vec<Value>) -> AlphaEntry {
        AlphaEntry {
            tid: Some(Tid(tid)),
            tuple: Tuple::new(values),
            prev: None,
        }
    }

    fn pair(a: i64, b: i64) -> Vec<Value> {
        vec![Value::Int(a), Value::Int(b)]
    }

    /// What a probe of `a` on `attrs` serves: the shared bucket's TIDs
    /// that `a` holds, ascending.
    fn probe(store: &Store, a: &AlphaNode, attrs: &[usize], key: &[Value]) -> Vec<u64> {
        let mut kb = KeyBuilder::new(key.len());
        for v in key {
            kb.push(v);
        }
        let bucket = store
            .bucket(a.store_slot.unwrap(), attrs, &kb.finish())
            .expect("registered index");
        let mut tids: Vec<u64> = bucket
            .iter()
            .copied()
            .filter(|t| a.entry(*t).is_some())
            .collect();
        tids.sort_unstable();
        tids
    }

    /// Index entries per registered attribute set, in registration order.
    fn index_entries(store: &Store) -> Vec<usize> {
        store.rels[0]
            .indexes
            .iter()
            .map(|ix| ix.index.shape().1)
            .collect()
    }

    #[test]
    fn a_delete_through_one_memory_keeps_the_tuple_indexed_for_the_other() {
        let mut store = Store::default();
        let mut a = memory(&mut store, 1, &[&[0]]);
        let mut b = memory(&mut store, 2, &[&[0]]);
        store.insert(&mut a, Tid(7), entry(7, pair(5, 1)));
        store.insert(&mut b, Tid(7), entry(7, pair(5, 1)));
        store.insert(&mut b, Tid(8), entry(8, pair(5, 2)));
        assert_eq!(index_entries(&store), [2], "TID 7 filed once, not twice");
        store.debug_check([&a, &b].into_iter());

        assert!(store.remove(&mut a, Tid(7)).is_some());
        assert!(store.remove(&mut a, Tid(7)).is_none(), "idempotent");
        assert_eq!(probe(&store, &a, &[0], &[Value::Int(5)]), Vec::<u64>::new());
        assert_eq!(probe(&store, &b, &[0], &[Value::Int(5)]), [7, 8]);
        store.debug_check([&a, &b].into_iter());

        store.remove(&mut b, Tid(7));
        store.remove(&mut b, Tid(8));
        assert_eq!(index_entries(&store), [0]);
        assert!(store.rels[0].held.is_empty(), "the last holder releases");
        store.debug_check([&a, &b].into_iter());
    }

    #[test]
    fn a_reinsert_moves_the_tuple_to_its_new_key() {
        let mut store = Store::default();
        let mut a = memory(&mut store, 1, &[&[0]]);
        store.insert(&mut a, Tid(1), entry(1, pair(5, 1)));
        store.insert(&mut a, Tid(1), entry(1, pair(6, 1)));
        assert_eq!(probe(&store, &a, &[0], &[Value::Int(5)]), Vec::<u64>::new());
        assert_eq!(probe(&store, &a, &[0], &[Value::Int(6)]), [1]);
        store.debug_check([&a].into_iter());
    }

    #[test]
    fn null_keys_are_never_indexed() {
        let mut store = Store::default();
        let mut a = memory(&mut store, 1, &[&[0], &[0, 1]]);
        store.insert(&mut a, Tid(1), entry(1, vec![Value::Null, Value::Int(3)]));
        store.insert(&mut a, Tid(2), entry(2, vec![Value::Int(4), Value::Null]));
        assert_eq!(index_entries(&store), [1, 0]);
        assert_eq!(probe(&store, &a, &[0], &[Value::Null]), Vec::<u64>::new());
        assert_eq!(probe(&store, &a, &[0], &[Value::Int(4)]), [2]);
        assert_eq!(
            probe(&store, &a, &[0, 1], &[Value::Int(4), Value::Null]),
            Vec::<u64>::new()
        );
        let slot = a.store_slot.unwrap();
        // only Null keys on (0, 1): a probe serves nothing
        assert_eq!(store.expected_bucket(slot, &[0, 1], a.len()), Some(0));
        // the estimate counts indexed tuples only: 1 of 2 held, 1 key
        assert_eq!(store.expected_bucket(slot, &[0], a.len()), Some(1));
        store.debug_check([&a].into_iter());
        store.remove(&mut a, Tid(1)); // must not panic on unindexed tuples
        store.remove(&mut a, Tid(2));
        assert_eq!(index_entries(&store), [0, 0]);
        store.debug_check([&a].into_iter());
    }

    #[test]
    fn int_and_float_keys_probe_alike() {
        // the shared index keys exactly like `join_index_numeric_cross_type_probe`
        let mut store = Store::default();
        let mut a = memory(&mut store, 1, &[&[0]]);
        store.insert(&mut a, Tid(1), entry(1, pair(15, 0)));
        store.insert(
            &mut a,
            Tid(2),
            entry(2, vec![Value::Float(7.0), Value::Int(0)]),
        );
        assert_eq!(probe(&store, &a, &[0], &[Value::Float(15.0)]), [1]);
        assert_eq!(probe(&store, &a, &[0], &[Value::Int(7)]), [2]);
        assert_eq!(
            probe(&store, &a, &[0], &[Value::Float(7.5)]),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn a_late_index_back_fills_and_leaves_with_its_last_user() {
        let mut store = Store::default();
        let mut a = memory(&mut store, 1, &[&[0]]);
        for tid in 0..6 {
            store.insert(
                &mut a,
                Tid(tid),
                entry(tid, pair(tid as i64 % 2, tid as i64 % 3)),
            );
        }
        // a second memory joins on attribute 1: its index is built from
        // the tuples already held
        let mut b = memory(&mut store, 2, &[&[1]]);
        let slot = b.store_slot.unwrap();
        assert_eq!(index_entries(&store), [6, 6]);
        store.insert(&mut b, Tid(4), entry(4, pair(0, 1)));
        assert_eq!(probe(&store, &b, &[1], &[Value::Int(1)]), [4]);
        assert_eq!(probe(&store, &a, &[1], &[Value::Int(1)]), [1, 4]);
        store.debug_check([&a, &b].into_iter());
        store.remove(&mut b, Tid(4));
        store.unregister(slot, &[1]);
        assert!(!store.has_index(slot, &[1]), "the last user took it along");
        assert!(store.has_index(slot, &[0]));
        store.debug_check([&a, &b].into_iter());
    }

    #[test]
    fn index_size_is_independent_of_how_many_memories_hold_a_tuple() {
        let build = |memories: u64| {
            let mut store = Store::default();
            let mut held: Vec<AlphaNode> = (0..memories)
                .map(|r| memory(&mut store, r, &[&[0], &[0, 1]]))
                .collect();
            for a in &mut held {
                for tid in 0..50 {
                    store.insert(a, Tid(tid), entry(tid, pair(tid as i64 % 5, tid as i64)));
                }
            }
            store.debug_check(held.iter());
            (index_entries(&store), store.bytes())
        };
        let (ten, ten_bytes) = build(10);
        let (hundred, hundred_bytes) = build(100);
        assert_eq!(ten, [50, 50], "one index entry per tuple per attribute set");
        assert_eq!(ten, hundred);
        assert_eq!(ten_bytes, hundred_bytes);
    }
}
