//! The per-relation store behind TREAT's stored α-memories: who holds
//! what.
//!
//! TREAT keeps one stored α-memory per rule variable (§4.2), and a tuple
//! lands in every memory whose selection it passes — ten band memories for
//! one `emp` append on the repo benchmark. The paper's stored memories
//! each keep a copy of every tuple they admit; that space is why A-TREAT
//! has virtual memories at all. Here the roles split three ways:
//!
//! * the **relation** (`ariel_storage`) owns the tuple;
//! * the **[`Store`]** keeps, per relation, each tuple some stored memory
//!   holds **once**, in a vector indexed by the tuple's heap slot (a TID
//!   is a slot and a generation, see [`Tid`]): the generation held, a
//!   holder count and the tuple handle. It also keeps one hash index per
//!   attribute set any stored memory on the relation joins on, each tuple
//!   filed once (under its TID) however many memories hold it;
//! * a **stored memory** holds only the slots it admitted, one bit each,
//!   plus its band (interval) indexes, which file a TID per interval.
//!
//! A probe takes the shared bucket's TIDs, keeps those whose slot the
//! memory holds and reads each tuple from the store by slot; enumerating a
//! memory walks its bits in slot order. Nothing on the way hashes a TID.
//! Rete matchers such as rsete have the same shape: working memory holds
//! each WME once under a dense id and α-memories refer to it by that id.
//! `alpha_bytes` follows the split: the store is charged its slot vector
//! and each held tuple once, in [`Store::bytes`], and each memory its bit
//! words.
//!
//! **Density.** The slot vector reaches the highest slot any memory holds,
//! and a memory's bitset the highest slot it holds, so both cost in
//! proportion to the relation's slots, not to the members: 24 B a slot
//! for the store (the size of the relation's own slot entry) and one bit
//! a slot per memory. That is the layout's assumption — memories dense in
//! their relation, as on every measured workload; a selective memory over
//! a large relation pays for the slots it does not hold.
//!
//! **Stale TIDs.** A relation reuses a deleted tuple's slot under the next
//! generation. A memory's bit names a slot, not a generation, so the store
//! keeps the generation held in each slot and [`Store::remove`] ignores a
//! TID of any other generation: it names a tuple no memory holds.
//!
//! **One value per TID.** The store keeps one value per TID, so every
//! memory holding the TID must hold the same value. For stored memories
//! that holds by construction: `ariel::delta` emits a TID's `−` before its
//! `+`, the `−` carries the value every holder took from the previous `+`
//! (or from priming, which runs between batches), and the selection-network
//! stab sends that `−` to every memory holding the TID (the argument at
//! `Network::process_negative`). So a holder is emptied before any holder
//! takes the new value. Dynamic memories (`DynamicOn` / `DynamicTrans`) do
//! not satisfy it — a bare `−` leaves an ON-append memory holding a value
//! the relation no longer has, an ON DELETE memory holds dead tuples, a
//! transition memory holds Δ pairs — so they keep their own entries and
//! node-local indexes and never enter the store. Rete's α-memories keep
//! entries too.
//!
//! Every write goes through [`Store::insert`] / [`Store::remove`], and
//! [`Store::debug_check`] re-derives the holder counts and every bucket
//! from the memories after each batch in debug builds.

use crate::alpha::{AlphaNode, JoinIndex};
use crate::key::SmallKey;
use ariel_storage::{FxHashMap, RelId, Tid, Tuple};

/// Handle of one relation's shared tuples and indexes in a [`Store`]: the
/// relation's catalog slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoreSlot(usize);

/// Handle of one shared hash index within its relation's slot, stable
/// while any memory uses the index: a probe reaches its bucket without
/// searching the slot's indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexId(usize);

/// The held tuples and shared join indexes of every relation with a
/// stored memory, indexed by relation slot.
#[derive(Debug, Default)]
pub(crate) struct Store {
    rels: Vec<RelStore>,
}

#[derive(Debug, Default)]
struct RelStore {
    /// Generation of the relation the slot's memories hold tuples of.
    gen: u32,
    /// By heap slot: the tuple every holder holds there, `None` where no
    /// memory holds one.
    held: Vec<Option<Held>>,
    /// Slots held.
    count: usize,
    /// By [`IndexId`]; `None` is a freed handle, reused by the next
    /// registration.
    indexes: Vec<Option<SharedIndex>>,
}

#[derive(Debug)]
struct Held {
    /// The slot's generation when the held tuple was inserted.
    gen: u32,
    holders: u32,
    tuple: Tuple,
}

impl RelStore {
    /// The TID held in heap slot `s`, and its tuple.
    #[inline]
    fn get(&self, s: usize) -> Option<(Tid, &Tuple)> {
        let h = self.held.get(s)?.as_ref()?;
        Some((Tid::new(s as u32, h.gen), &h.tuple))
    }

    /// Every held TID and what is held under it, in slot order.
    fn iter(&self) -> impl Iterator<Item = (Tid, &Held)> {
        self.held
            .iter()
            .enumerate()
            .filter_map(|(s, h)| h.as_ref().map(|h| (Tid::new(s as u32, h.gen), h)))
    }
}

#[derive(Debug)]
struct SharedIndex {
    index: JoinIndex,
    /// Registrations of this attribute set by live memories.
    users: u32,
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
                store.count == 0 && store.indexes.iter().all(Option::is_none),
                "relation {rel} stored while an earlier generation still is"
            );
            store.held.clear();
            store.indexes.clear();
            store.gen = rel.gen();
        }
        StoreSlot(rel.slot())
    }

    /// A memory joins on `attrs`: share the index, building and
    /// back-filling it from the tuples already held if it is new.
    pub(crate) fn register(&mut self, slot: StoreSlot, attrs: &[usize]) -> IndexId {
        let rel = &mut self.rels[slot.0];
        let same = |ix: &Option<SharedIndex>| ix.as_ref().is_some_and(|ix| ix.index.attrs == attrs);
        if let Some(id) = rel.indexes.iter().position(same) {
            rel.indexes[id].as_mut().expect("a live index").users += 1;
            return IndexId(id);
        }
        let mut index = JoinIndex::new(attrs.to_vec());
        for (tid, h) in rel.iter() {
            index.add(tid.0, &h.tuple);
        }
        let shared = Some(SharedIndex { index, users: 1 });
        match rel.indexes.iter().position(Option::is_none) {
            Some(id) => {
                rel.indexes[id] = shared;
                IndexId(id)
            }
            None => {
                rel.indexes.push(shared);
                IndexId(rel.indexes.len() - 1)
            }
        }
    }

    /// Undo one [`Self::register`]; the index goes with its last user.
    pub(crate) fn unregister(&mut self, slot: StoreSlot, id: IndexId) {
        let ix = &mut self.rels[slot.0].indexes[id.0];
        let shared = ix.as_mut().expect("unregistering a registered index");
        shared.users -= 1;
        if shared.users == 0 {
            *ix = None;
        }
    }

    /// Hold `tid`, whose value is `tuple`, in the TID memory `alpha` — the
    /// one write path for TID memories, so the store always acquires what
    /// a memory holds.
    pub(crate) fn insert(&mut self, alpha: &mut AlphaNode, tid: Tid, tuple: &Tuple) {
        let slot = alpha.store_slot().expect("a TID memory");
        // a re-insert swaps the value this holder holds
        if alpha.hold(tid, tuple) {
            self.release(slot, tid.slot());
        }
        self.acquire(slot, tid, tuple);
    }

    /// Remove `tid` from a memory of either kind, releasing it in the
    /// store for a TID memory. Returns whether the memory held it.
    /// Idempotent, like [`AlphaNode::remove`].
    pub(crate) fn remove(&mut self, alpha: &mut AlphaNode, tid: Tid) -> bool {
        let Some(slot) = alpha.store_slot() else {
            return alpha.remove(tid).is_some();
        };
        // a TID of another generation than the slot's held one names a
        // tuple no memory holds
        if self.tuple(slot, tid).is_none() {
            return false;
        }
        let held = alpha.unhold(tid);
        if held {
            self.release(slot, tid.slot());
        }
        held
    }

    /// Release every TID `alpha` holds and its index registrations `ids`:
    /// the memory is being dropped with its rule.
    pub(crate) fn forget(&mut self, alpha: &AlphaNode, ids: &[IndexId]) {
        let Some(slot) = alpha.store_slot() else {
            return;
        };
        for s in alpha.slots() {
            self.release(slot, s);
        }
        for &id in ids {
            self.unregister(slot, id);
        }
    }

    fn acquire(&mut self, slot: StoreSlot, tid: Tid, tuple: &Tuple) {
        let rel = &mut self.rels[slot.0];
        let s = tid.slot();
        if rel.held.len() <= s {
            rel.held.resize_with(s + 1, || None);
        }
        match &mut rel.held[s] {
            Some(held) => {
                debug_assert!(
                    held.gen == tid.gen() && same_value(&held.tuple, tuple),
                    "slot {s} held at two values: {} {} and {tid} {tuple}",
                    Tid::new(s as u32, held.gen),
                    held.tuple
                );
                held.holders += 1;
            }
            vacant @ None => {
                for ix in rel.indexes.iter_mut().flatten() {
                    ix.index.add(tid.0, tuple);
                }
                *vacant = Some(Held {
                    gen: tid.gen(),
                    holders: 1,
                    tuple: tuple.clone(),
                });
                rel.count += 1;
            }
        }
    }

    /// Drop one holder of heap slot `s`; the last takes the tuple along.
    fn release(&mut self, slot: StoreSlot, s: usize) {
        let rel = &mut self.rels[slot.0];
        let Some(entry @ Some(_)) = rel.held.get_mut(s) else {
            debug_assert!(false, "releasing slot {s}, which nobody holds");
            return;
        };
        let held = entry.as_mut().expect("a held slot");
        if held.holders > 1 {
            held.holders -= 1;
            return;
        }
        let Held { gen, tuple, .. } = entry.take().expect("a held slot");
        rel.count -= 1;
        let tid = Tid::new(s as u32, gen);
        for ix in rel.indexes.iter_mut().flatten() {
            ix.index.remove(tid.0, &tuple);
        }
    }

    /// The tuple the relation holds under `tid`, if some memory holds it.
    #[inline]
    pub(crate) fn tuple(&self, slot: StoreSlot, tid: Tid) -> Option<&Tuple> {
        match self.rels[slot.0].get(tid.slot()) {
            Some((held, tuple)) if held == tid => Some(tuple),
            _ => None,
        }
    }

    /// The TIDs and tuples held in heap slots `slots` (a memory's).
    #[inline]
    pub(crate) fn held_in<'a>(
        &'a self,
        slot: StoreSlot,
        slots: impl Iterator<Item = usize> + 'a,
    ) -> impl Iterator<Item = (Tid, &'a Tuple)> + 'a {
        let rel = &self.rels[slot.0];
        slots.map(move |s| rel.get(s).expect("a held slot is stored"))
    }

    /// The TID held in heap slot `s` and its tuple: the candidate a memory
    /// holding `s` serves.
    #[inline]
    pub(crate) fn held_at(&self, slot: StoreSlot, s: usize) -> (Tid, &Tuple) {
        self.rels[slot.0].get(s).expect("a held slot is stored")
    }

    /// Tuples the relation holds for its memories.
    #[cfg(test)]
    pub(crate) fn held(&self, slot: StoreSlot) -> usize {
        self.rels[slot.0].count
    }

    /// How many memories hold `tid` (0 when none does).
    #[cfg(test)]
    pub(crate) fn holders(&self, slot: StoreSlot, tid: Tid) -> u32 {
        match self.rels[slot.0].held.get(tid.slot()) {
            Some(Some(h)) if h.gen == tid.gen() => h.holders,
            _ => 0,
        }
    }

    /// Whether the relation shares an index on exactly `attrs`.
    #[cfg(test)]
    pub(crate) fn has_index(&self, slot: StoreSlot, attrs: &[usize]) -> bool {
        self.rels[slot.0]
            .indexes
            .iter()
            .flatten()
            .any(|ix| ix.index.attrs == attrs)
    }

    /// The shared index `id` — across every memory on the relation, so a
    /// caller probing it keeps the TIDs its memory holds.
    #[inline]
    pub(crate) fn index(&self, slot: StoreSlot, id: IndexId) -> &JoinIndex {
        &self.rels[slot.0].indexes[id.0]
            .as_ref()
            .expect("a registered index")
            .index
    }

    /// Expected candidates a probe of index `id` serves a memory of `len`
    /// TIDs: the shared index's average bucket, scaled by the share of the
    /// relation's held tuples the memory holds. For a memory that holds
    /// every held tuple this is exactly the node-local estimate.
    pub(crate) fn expected_bucket(&self, slot: StoreSlot, id: IndexId, len: usize) -> usize {
        let (distinct, indexed) = self.index(slot, id).shape();
        if distinct == 0 {
            return 0;
        }
        (len * indexed).div_ceil(self.rels[slot.0].count * distinct)
    }

    /// Approximate heap footprint: the slot vector as allocated, each
    /// held tuple's storage once — the relation shares it and no memory
    /// charges it again — and every shared index.
    pub(crate) fn bytes(&self) -> usize {
        self.rels
            .iter()
            .map(|rel| {
                let held: usize = rel.held.capacity() * std::mem::size_of::<Option<Held>>()
                    + rel.iter().map(|(_, h)| h.tuple.heap_size()).sum::<usize>();
                let indexes: usize = rel
                    .indexes
                    .iter()
                    .flatten()
                    .map(|ix| ix.index.bytes())
                    .sum();
                held + indexes
            })
            .sum()
    }

    /// Debug check, after every batch: per relation, each slot's holder
    /// count equals the number of TID memories holding it, each held tuple
    /// passes the selection of every memory holding it, and each index
    /// lists exactly the held TIDs under their keys.
    pub(crate) fn debug_check<'a>(&self, memories: impl Iterator<Item = &'a AlphaNode>) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut holders: Vec<Vec<u32>> = self.rels.iter().map(|r| vec![0; r.held.len()]).collect();
        for a in memories {
            let Some(slot) = a.store_slot() else { continue };
            assert!(!a.has_join_indexes(), "a TID memory indexes locally");
            for s in a.slots() {
                let (tid, tuple) = self.rels[slot.0]
                    .get(s)
                    .unwrap_or_else(|| panic!("{}: slot {s} held but not in the store", a.rel));
                assert!(
                    a.pred_matches(tuple, None),
                    "{}: TID {tid} is {tuple}, which its memory's selection rejects",
                    a.rel,
                );
                holders[slot.0][s] += 1;
            }
        }
        for (rel, counted) in self.rels.iter().zip(&holders) {
            assert_eq!(rel.count, rel.iter().count(), "held count");
            for (s, (h, &counted)) in rel.held.iter().zip(counted).enumerate() {
                let holders = h.as_ref().map_or(0, |h| h.holders);
                assert_eq!(holders, counted, "holder count of slot {s}");
            }
            for ix in rel.indexes.iter().flatten() {
                let mut want: FxHashMap<SmallKey, Vec<u64>> = FxHashMap::default();
                for (tid, h) in rel.iter() {
                    if let Some(key) = ix.index.key_of(&h.tuple) {
                        want.entry(key).or_default().push(tid.0);
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

    /// A stored `emp` memory of rule `rule` that joins on `attr_sets`, and
    /// the handles of its indexes.
    fn memory(store: &mut Store, rule: u64, attr_sets: &[&[usize]]) -> (AlphaNode, Vec<IndexId>) {
        let mut a = AlphaNode::new(
            RuleId(rule),
            0,
            RelId::new(0, 0),
            AlphaKind::Stored,
            SelectionPredicate::always_true(),
            None,
        );
        let slot = store.slot(RelId::new(0, 0));
        let ids = attr_sets
            .iter()
            .map(|attrs| store.register(slot, attrs))
            .collect();
        a.share(slot);
        (a, ids)
    }

    fn pair(a: i64, b: i64) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Int(b)])
    }

    /// What a probe of `a` on index `id` serves: the shared bucket's TIDs
    /// that `a` holds, ascending.
    fn probe(store: &Store, a: &AlphaNode, id: IndexId, key: &[Value]) -> Vec<u64> {
        let mut kb = KeyBuilder::new(key.len());
        for v in key {
            kb.push(v);
        }
        let bucket = store
            .index(a.store_slot().unwrap(), id)
            .bucket(&kb.finish());
        let mut tids: Vec<u64> = bucket
            .iter()
            .copied()
            .filter(|t| a.contains(Tid(*t)))
            .collect();
        tids.sort_unstable();
        tids
    }

    /// Index entries per live index handle, in handle order.
    fn index_entries(store: &Store) -> Vec<usize> {
        store.rels[0]
            .indexes
            .iter()
            .flatten()
            .map(|ix| ix.index.shape().1)
            .collect()
    }

    #[test]
    fn a_delete_through_one_memory_keeps_the_tuple_indexed_for_the_other() {
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, 1, &[&[0]]);
        let (mut b, _) = memory(&mut store, 2, &[&[0]]);
        store.insert(&mut a, Tid(7), &pair(5, 1));
        store.insert(&mut b, Tid(7), &pair(5, 1));
        store.insert(&mut b, Tid(8), &pair(5, 2));
        assert_eq!(index_entries(&store), [2], "TID 7 filed once, not twice");
        store.debug_check([&a, &b].into_iter());

        assert!(store.remove(&mut a, Tid(7)));
        assert!(!store.remove(&mut a, Tid(7)), "idempotent");
        assert_eq!(
            probe(&store, &a, ix[0], &[Value::Int(5)]),
            Vec::<u64>::new()
        );
        assert_eq!(probe(&store, &b, ix[0], &[Value::Int(5)]), [7, 8]);
        store.debug_check([&a, &b].into_iter());

        store.remove(&mut b, Tid(7));
        store.remove(&mut b, Tid(8));
        assert_eq!(index_entries(&store), [0]);
        assert_eq!(
            store.held(a.store_slot().unwrap()),
            0,
            "the last holder releases"
        );
        store.debug_check([&a, &b].into_iter());
    }

    #[test]
    fn a_stale_tid_of_a_reused_slot_is_not_held() {
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, 1, &[&[0]]);
        let (old, new) = (Tid::new(3, 0), Tid::new(3, 1));
        store.insert(&mut a, old, &pair(5, 1));
        let slot = a.store_slot().unwrap();
        assert!(!store.remove(&mut a, new), "a later generation is not held");
        assert_eq!(store.tuple(slot, new), None);
        assert_eq!(store.holders(slot, old), 1);
        assert!(store.remove(&mut a, old));
        // the slot's next tuple: the old TID no longer reaches it
        store.insert(&mut a, new, &pair(6, 2));
        assert!(!store.remove(&mut a, old));
        assert_eq!(store.tuple(slot, old), None);
        assert_eq!(store.held_at(slot, 3), (new, &pair(6, 2)));
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(6)]), [new.0]);
        store.debug_check([&a].into_iter());
    }

    #[test]
    fn a_memory_enumerates_its_slots_in_order_and_pays_for_its_words() {
        let mut store = Store::default();
        let (mut a, _) = memory(&mut store, 1, &[]);
        assert_eq!(a.heap_size(), 0, "an empty memory allocates nothing");
        for s in [130u32, 2, 64, 63] {
            store.insert(&mut a, Tid::new(s, s % 3), &pair(s as i64, 0));
        }
        assert_eq!(a.slots().collect::<Vec<_>>(), [2, 63, 64, 130]);
        assert_eq!(a.len(), 4);
        assert_eq!(
            a.heap_size(),
            3 * std::mem::size_of::<u64>(),
            "slots 0..192"
        );
        store.remove(&mut a, Tid::new(64, 1));
        assert_eq!(a.slots().collect::<Vec<_>>(), [2, 63, 130]);
        store.debug_check([&a].into_iter());
    }

    #[test]
    fn a_reinsert_moves_the_tuple_to_its_new_key() {
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, 1, &[&[0]]);
        store.insert(&mut a, Tid(1), &pair(5, 1));
        store.insert(&mut a, Tid(1), &pair(6, 1));
        assert_eq!(
            probe(&store, &a, ix[0], &[Value::Int(5)]),
            Vec::<u64>::new()
        );
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(6)]), [1]);
        assert_eq!(
            store.tuple(a.store_slot().unwrap(), Tid(1)),
            Some(&pair(6, 1))
        );
        store.debug_check([&a].into_iter());
    }

    #[test]
    fn the_store_keeps_the_tuple_and_memories_its_tid() {
        let mut store = Store::default();
        let (mut a, _) = memory(&mut store, 1, &[]);
        let (mut b, _) = memory(&mut store, 2, &[]);
        let t = pair(3, 4);
        store.insert(&mut a, Tid(9), &t);
        store.insert(&mut b, Tid(9), &t);
        let slot = a.store_slot().unwrap();
        assert_eq!(store.holders(slot, Tid(9)), 2);
        assert!(store.tuple(slot, Tid(9)).unwrap().shares_storage(&t));
        // one tuple charged once; each membership only its key
        let one = store.bytes();
        let (mut c, _) = memory(&mut store, 3, &[]);
        store.insert(&mut c, Tid(9), &t);
        assert_eq!(
            store.bytes(),
            one,
            "a third holder adds nothing to the store"
        );
        assert_eq!(c.heap_size(), std::mem::size_of::<u64>());
        store.forget(&c, &[]);
        assert_eq!(store.holders(slot, Tid(9)), 2);
        store.debug_check([&a, &b].into_iter());
    }

    #[test]
    fn null_keys_are_never_indexed() {
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, 1, &[&[0], &[0, 1]]);
        store.insert(
            &mut a,
            Tid(1),
            &Tuple::new(vec![Value::Null, Value::Int(3)]),
        );
        store.insert(
            &mut a,
            Tid(2),
            &Tuple::new(vec![Value::Int(4), Value::Null]),
        );
        assert_eq!(index_entries(&store), [1, 0]);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Null]), Vec::<u64>::new());
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(4)]), [2]);
        assert_eq!(
            probe(&store, &a, ix[1], &[Value::Int(4), Value::Null]),
            Vec::<u64>::new()
        );
        let slot = a.store_slot().unwrap();
        // only Null keys on (0, 1): a probe serves nothing
        assert_eq!(store.expected_bucket(slot, ix[1], a.len()), 0);
        // the estimate counts indexed tuples only: 1 of 2 held, 1 key
        assert_eq!(store.expected_bucket(slot, ix[0], a.len()), 1);
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
        let (mut a, ix) = memory(&mut store, 1, &[&[0]]);
        store.insert(&mut a, Tid(1), &pair(15, 0));
        store.insert(
            &mut a,
            Tid(2),
            &Tuple::new(vec![Value::Float(7.0), Value::Int(0)]),
        );
        assert_eq!(probe(&store, &a, ix[0], &[Value::Float(15.0)]), [1]);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(7)]), [2]);
        assert_eq!(
            probe(&store, &a, ix[0], &[Value::Float(7.5)]),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn a_late_index_back_fills_and_leaves_with_its_last_user() {
        let mut store = Store::default();
        let (mut a, a_ix) = memory(&mut store, 1, &[&[0]]);
        for tid in 0..6 {
            store.insert(&mut a, Tid(tid), &pair(tid as i64 % 2, tid as i64 % 3));
        }
        // a second memory joins on attribute 1: its index is built from
        // the tuples already held
        let (mut b, b_ix) = memory(&mut store, 2, &[&[1]]);
        let slot = b.store_slot().unwrap();
        assert_eq!(index_entries(&store), [6, 6]);
        store.insert(&mut b, Tid(4), &pair(0, 1));
        assert_eq!(probe(&store, &b, b_ix[0], &[Value::Int(1)]), [4]);
        assert_eq!(probe(&store, &a, b_ix[0], &[Value::Int(1)]), [1, 4]);
        store.debug_check([&a, &b].into_iter());
        store.remove(&mut b, Tid(4));
        store.forget(&b, &b_ix);
        assert!(!store.has_index(slot, &[1]), "the last user took it along");
        assert!(store.has_index(slot, &[0]));
        // the freed handle passes to the next index registered
        let (_, c_ix) = memory(&mut store, 3, &[&[0, 1]]);
        assert_eq!(c_ix, b_ix);
        assert_ne!(c_ix[0], a_ix[0]);
        store.debug_check([&a].into_iter());
    }

    #[test]
    fn index_size_is_independent_of_how_many_memories_hold_a_tuple() {
        let build = |memories: u64| {
            let mut store = Store::default();
            let mut held: Vec<AlphaNode> = (0..memories)
                .map(|r| memory(&mut store, r, &[&[0], &[0, 1]]).0)
                .collect();
            for a in &mut held {
                for tid in 0..50 {
                    store.insert(a, Tid(tid), &pair(tid as i64 % 5, tid as i64));
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
