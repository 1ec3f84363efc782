//! The per-relation store behind TREAT's stored α-memories: the join
//! indexes they share.
//!
//! TREAT keeps a stored α-memory per distinct selection (§4.2; rule
//! variables testing one selection share it, `crate::treat`), and a tuple
//! lands in every memory whose selection it passes — ten band memories for
//! one `emp` append on the repo benchmark. The paper's stored memories
//! each keep a copy of every tuple they admit; that space is why A-TREAT
//! has virtual memories at all. Here the roles split three ways:
//!
//! * the **relation** (`ariel_storage`) owns the tuple, in the heap slot
//!   its TID names (a TID is a slot and a generation, see [`Tid`]), and is
//!   the only copy;
//! * a **stored memory** holds only the slots it admitted, one bit each
//!   ([`SlotSet`]), plus its band (interval) indexes, which file a TID per
//!   interval;
//! * the **[`Store`]** keeps, per relation, one hash index per attribute
//!   set any stored memory on the relation joins on, and the slots some
//!   memory holds — the union of the memories' sets. A TID is filed in the
//!   shared indexes once, however many memories hold it, exactly while its
//!   slot is in the union.
//!
//! A probe takes the shared bucket's TIDs, keeps those whose slot the
//! memory holds and reads each tuple from the relation by slot;
//! enumerating a memory walks its bits in slot order. Rete matchers such
//! as rsete have the same shape: working memory holds each WME once under
//! a dense id and α-memories refer to it by that id. `alpha_bytes` follows
//! the split: the store is charged its unions and indexes, in
//! [`Store::bytes`], each memory its slot set, and no memory or store the
//! tuples.
//!
//! **Reading a member.** A memory's bit names a slot, not a generation or
//! a value, and while a batch is in flight the relation already holds its
//! end-of-batch state. So a member is read under the rule virtual scans
//! use (`crate::treat`): a tuple with an unprocessed `+` token in the
//! batch (pending) is hidden, and a freed slot yields nothing, nor does a
//! bucket's TID whose slot a later generation now holds. What stays
//! visible is a tuple whose last token the memory has seen, at the value
//! it admitted. Between batches every member is visible.
//!
//! **One filing per TID.** The shared indexes file a TID under one value.
//! That holds for stored memories by construction: `ariel::delta` emits a
//! TID's `−` before its next `+`, and a slot is reused only after its
//! tuple's delete, so its `−` comes first too; the `−` carries the value
//! every holder admitted (from the previous `+`, or from priming, which
//! runs between batches); and the selection-network stab sends it to every
//! memory holding the TID (the argument at `Network::process_negative`).
//! So once a `−` token's removes are done no memory holds the slot, and
//! [`Store::release`] takes it out of the union and its TID out of the
//! buckets under the token's value; the next `+` files it anew. Whether a
//! TID enters or leaves the indexes is decided on its union bit alone,
//! without looking at the other memories. An index is registered once per
//! rule variable that probes it, so sharers of one memory each hold a
//! registration. Dropping a rule rebuilds the union from the remaining
//! memories, once, when a memory went with it ([`Store::rebuild`]). Dynamic
//! memories (`DynamicOn` / `DynamicTrans`) do not satisfy the argument — a
//! bare `−` leaves an ON-append memory holding a value the relation no
//! longer has, an ON DELETE memory holds dead tuples, a transition memory
//! holds Δ pairs — so they keep their own entries and node-local indexes
//! and never enter the store. Rete's α-memories keep entries too.
//!
//! **Density.** A [`SlotSet`] keeps only its nonzero 64-bit words, so a
//! memory and a union cost a word per run of 64 slots holding a member —
//! a bit per member when members are dense, at most a word each when
//! they are scattered — plus a 12 B summary entry per 4 096 slots up to
//! the highest member, not a bit or a slot entry per relation slot.
//!
//! Every write goes through [`Store::insert`], `AlphaNode::unhold` and
//! [`Store::release`], or [`Store::rebuild`], and [`Store::debug_check`]
//! re-derives the unions from the memories and every bucket from the
//! relation after each batch in debug builds.

use crate::alpha::{AlphaNode, JoinIndex, SlotSet};
use crate::key::SmallKey;
use ariel_storage::{Catalog, FxHashMap, RelId, Relation, Tid, Tuple};

/// Handle of one relation's union and shared indexes in a [`Store`]: the
/// relation's catalog slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct StoreSlot(usize);

/// Handle of one shared hash index within its relation's slot, stable
/// while any memory uses the index: a probe reaches its bucket without
/// searching the slot's indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexId(usize);

/// The member unions and shared join indexes of every relation with a
/// stored memory, indexed by relation slot.
#[derive(Debug, Default)]
pub(crate) struct Store {
    rels: Vec<RelStore>,
}

#[derive(Debug, Default)]
struct RelStore {
    /// Generation of the relation the slot's memories hold tuples of.
    gen: u32,
    /// The heap slots some stored memory on the relation holds: the union
    /// of their sets. A slot's TID is in the indexes exactly while it is
    /// here.
    members: SlotSet,
    /// By [`IndexId`]; `None` is a freed handle, reused by the next
    /// registration.
    indexes: Vec<Option<SharedIndex>>,
}

#[derive(Debug)]
struct SharedIndex {
    index: JoinIndex,
    /// Registrations of this attribute set by live memories.
    users: u32,
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
                store.members.is_empty() && store.indexes.iter().all(Option::is_none),
                "relation {rel} stored while an earlier generation still is"
            );
            *store = RelStore {
                gen: rel.gen(),
                ..RelStore::default()
            };
        }
        StoreSlot(rel.slot())
    }

    /// A memory joins on `attrs`: share the index, building and
    /// back-filling it from the members of `relation` (the slot's) if it
    /// is new.
    pub(crate) fn register(
        &mut self,
        slot: StoreSlot,
        attrs: &[usize],
        relation: &Relation,
    ) -> IndexId {
        let rel = &mut self.rels[slot.0];
        let same = |ix: &Option<SharedIndex>| ix.as_ref().is_some_and(|ix| ix.index.attrs == attrs);
        if let Some(id) = rel.indexes.iter().position(same) {
            rel.indexes[id].as_mut().expect("a live index").users += 1;
            return IndexId(id);
        }
        let mut index = JoinIndex::new(attrs.to_vec());
        for s in rel.members.iter() {
            let (tid, tuple) = relation.at(s).expect("a member's slot is live");
            index.add(tid.0, tuple);
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

    /// Undo the [`Self::register`] calls that returned `ids`: a memory is
    /// dropped with its rule. An index goes with its last user.
    pub(crate) fn unregister(&mut self, slot: StoreSlot, ids: &[IndexId]) {
        for id in ids {
            let ix = &mut self.rels[slot.0].indexes[id.0];
            let shared = ix.as_mut().expect("unregistering a registered index");
            shared.users -= 1;
            if shared.users == 0 {
                *ix = None;
            }
        }
    }

    /// Hold `tid`, whose value is `tuple`, in the TID memory `alpha` — the
    /// one write path for TID memories. The first holder files the TID in
    /// the shared indexes.
    pub(crate) fn insert(&mut self, alpha: &mut AlphaNode, tid: Tid, tuple: &Tuple) {
        let slot = alpha.store_slot().expect("a TID memory");
        alpha.hold(tid, tuple);
        let rel = &mut self.rels[slot.0];
        if !rel.members.insert(tid.slot()) {
            for ix in rel.indexes.iter_mut().flatten() {
                ix.index.add(tid.0, tuple);
            }
        }
    }

    /// A `−` token of `tid` carrying `tuple` has left every memory that
    /// held it (see the module docs): take its slot out of the union of
    /// `rel`, and the TID out of the buckets `tuple` keys.
    pub(crate) fn release(&mut self, rel: RelId, tid: Tid, tuple: &Tuple) {
        let Some(store) = self.rels.get_mut(rel.slot()) else {
            return;
        };
        if store.gen != rel.gen() || !store.members.remove(tid.slot()) {
            return;
        }
        for ix in store.indexes.iter_mut().flatten() {
            ix.index.remove(tid.0, tuple);
        }
    }

    /// Rebuild the union of `slot` from `memories` (every live one; those
    /// of other relations are skipped) after some of its memories were
    /// dropped, and take the slots that left it out of the indexes.
    pub(crate) fn rebuild<'a>(
        &mut self,
        slot: StoreSlot,
        memories: impl Iterator<Item = &'a AlphaNode>,
    ) {
        let mut members = SlotSet::default();
        for a in memories.filter(|a| a.store_slot() == Some(slot)) {
            for s in a.slots() {
                members.insert(s);
            }
        }
        let rel = &mut self.rels[slot.0];
        if members.len() < rel.members.len() {
            for ix in rel.indexes.iter_mut().flatten() {
                ix.index.retain(|tid| members.contains(Tid(tid).slot()));
            }
        }
        rel.members = members;
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
    /// members: the shared index's average bucket, scaled by the share of
    /// the relation's union the memory holds. For a memory that holds the
    /// whole union this is exactly the node-local estimate.
    pub(crate) fn expected_bucket(&self, slot: StoreSlot, id: IndexId, len: usize) -> usize {
        let (distinct, indexed) = self.index(slot, id).shape();
        if distinct == 0 {
            return 0;
        }
        (len * indexed).div_ceil(self.rels[slot.0].members.len() * distinct)
    }

    /// Slots some memory on the relation holds.
    #[cfg(test)]
    pub(crate) fn members(&self, slot: StoreSlot) -> usize {
        self.rels[slot.0].members.len()
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

    /// Approximate heap footprint: every union's slot set and every shared
    /// index. The tuples are the relations'.
    pub(crate) fn bytes(&self) -> usize {
        self.rels
            .iter()
            .map(|rel| {
                let indexes: usize = rel
                    .indexes
                    .iter()
                    .flatten()
                    .map(|ix| ix.index.bytes())
                    .sum();
                rel.members.bytes() + indexes
            })
            .sum()
    }

    /// Debug check, between batches: each memory's bit names a live slot
    /// of its relation whose tuple passes the memory's selection, each
    /// union is the union of its memories, and each index lists exactly
    /// the union's TIDs — the relation's current ones — under their
    /// tuples' keys. It holds because `Network::process_batch` matches a
    /// batch only once the relations are at its end state.
    pub(crate) fn debug_check<'a>(
        &self,
        memories: impl Iterator<Item = &'a AlphaNode>,
        catalog: &Catalog,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut unions: Vec<SlotSet> = self.rels.iter().map(|_| SlotSet::default()).collect();
        for a in memories {
            let Some(slot) = a.store_slot() else { continue };
            assert!(!a.has_join_indexes(), "a TID memory indexes locally");
            let rel = catalog
                .rel(a.rel)
                .unwrap_or_else(|| panic!("{}: a memory of a destroyed relation", a.rel));
            for s in a.slots() {
                unions[slot.0].insert(s);
                let (tid, tuple) = rel
                    .at(s)
                    .unwrap_or_else(|| panic!("{}: a memory holds free slot {s}", a.rel));
                assert!(
                    a.pred_matches(tuple, None),
                    "{}: TID {tid} is {tuple}, which its memory's selection rejects",
                    a.rel,
                );
            }
        }
        for (i, (store, union)) in self.rels.iter().zip(&unions).enumerate() {
            let members: Vec<usize> = store.members.iter().collect();
            assert_eq!(members.len(), store.members.len(), "union count");
            assert_eq!(
                members,
                union.iter().collect::<Vec<_>>(),
                "union of slot {i}"
            );
            if store.indexes.iter().all(Option::is_none) {
                continue;
            }
            let relation = catalog
                .rel(RelId::new(i as u32, store.gen))
                .expect("an indexed relation is live");
            for ix in store.indexes.iter().flatten() {
                let mut want: FxHashMap<SmallKey, Vec<u64>> = FxHashMap::default();
                for (tid, tuple) in members.iter().filter_map(|&s| relation.at(s)) {
                    if let Some(key) = ix.index.key_of(tuple) {
                        want.entry(key).or_default().push(tid.0);
                    }
                }
                let mut got: FxHashMap<SmallKey, Vec<u64>> = FxHashMap::default();
                for (key, tids) in ix.index.buckets() {
                    for &tid in tids {
                        assert!(
                            store.members.contains(Tid(tid).slot()),
                            "TID {tid} filed, slot held by none"
                        );
                    }
                    got.insert(key.clone(), tids.to_vec());
                }
                for tids in want.values_mut().chain(got.values_mut()) {
                    tids.sort_unstable();
                }
                assert_eq!(got, want, "index on {:?} diverged", ix.index.attrs);
                let filed: usize = ix.index.buckets().map(|(_, tids)| tids.len()).sum();
                assert_eq!(ix.index.shape(), (ix.index.buckets().count(), filed));
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
    use ariel_storage::{AttrType, Schema, Value};

    const EMP: RelId = RelId::new(0, 0);

    /// A catalog whose first relation, `emp (a, b)`, holds `rows`.
    fn emp(rows: &[(i64, i64)]) -> (Catalog, Vec<Tid>) {
        let mut cat = Catalog::new();
        let id = cat
            .create(
                "emp",
                Schema::of(&[("a", AttrType::Int), ("b", AttrType::Int)]),
            )
            .unwrap();
        assert_eq!(id, EMP);
        let tids = rows.iter().map(|&(a, b)| insert(&mut cat, a, b)).collect();
        (cat, tids)
    }

    fn insert(cat: &mut Catalog, a: i64, b: i64) -> Tid {
        let rel = cat.rel_mut(EMP).unwrap();
        rel.insert(vec![Value::Int(a), Value::Int(b)]).unwrap()
    }

    fn tuple(cat: &Catalog, tid: Tid) -> Tuple {
        cat.rel(EMP).unwrap().get(tid).unwrap().clone()
    }

    /// A stored `emp` memory of rule `rule` that joins on `attr_sets`, and
    /// the handles of its indexes.
    fn memory(
        store: &mut Store,
        cat: &Catalog,
        rule: u64,
        attr_sets: &[&[usize]],
    ) -> (AlphaNode, Vec<IndexId>) {
        let mut a = AlphaNode::new(
            RuleId(rule),
            0,
            EMP,
            AlphaKind::Stored,
            SelectionPredicate::always_true(),
            None,
        );
        let slot = store.slot(EMP);
        let rel = cat.rel(EMP).unwrap();
        let ids = attr_sets
            .iter()
            .map(|attrs| store.register(slot, attrs, rel))
            .collect();
        a.share(slot);
        (a, ids)
    }

    /// Hold `tid` in `a` at the relation's value, as a `+` token does.
    fn hold(store: &mut Store, cat: &Catalog, a: &mut AlphaNode, tid: Tid) {
        store.insert(a, tid, &tuple(cat, tid));
    }

    /// What a probe of `a` on index `id` serves: the shared bucket's TIDs
    /// that `a` holds, ascending.
    fn probe(store: &Store, a: &AlphaNode, id: IndexId, key: &[Value]) -> Vec<Tid> {
        let mut kb = KeyBuilder::new(key.len());
        for v in key {
            kb.push(v);
        }
        let bucket = store
            .index(a.store_slot().unwrap(), id)
            .bucket(&kb.finish());
        let mut tids: Vec<Tid> = bucket
            .iter()
            .map(|&t| Tid(t))
            .filter(|&t| a.contains(t))
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
        let (cat, t) = emp(&[(5, 1), (5, 2)]);
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, &cat, 1, &[&[0]]);
        let (mut b, _) = memory(&mut store, &cat, 2, &[&[0]]);
        hold(&mut store, &cat, &mut a, t[0]);
        hold(&mut store, &cat, &mut b, t[0]);
        hold(&mut store, &cat, &mut b, t[1]);
        assert_eq!(index_entries(&store), [2], "TID 0 filed once, not twice");
        store.debug_check([&a, &b].into_iter(), &cat);

        assert!(a.unhold(t[0]));
        assert!(!a.unhold(t[0]), "idempotent");
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(5)]), []);
        assert_eq!(probe(&store, &b, ix[0], &[Value::Int(5)]), t);
        store.debug_check([&a, &b].into_iter(), &cat);

        // each TID leaves the indexes with its `−` token's release
        for &tid in &t {
            b.unhold(tid);
            store.release(EMP, tid, &tuple(&cat, tid));
        }
        assert_eq!(index_entries(&store), [0]);
        assert_eq!(store.members(a.store_slot().unwrap()), 0);
        store.debug_check([&a, &b].into_iter(), &cat);
    }

    #[test]
    fn a_stale_tid_of_a_reused_slot_is_not_held() {
        let (mut cat, t) = emp(&[(5, 1)]);
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, &cat, 1, &[&[0]]);
        let old = t[0];
        hold(&mut store, &cat, &mut a, old);
        // delete, `−`, and an append that reuses the slot
        let gone = cat.rel_mut(EMP).unwrap().delete(old).unwrap();
        a.unhold(old);
        store.release(EMP, old, &gone);
        let new = insert(&mut cat, 6, 2);
        assert_eq!((new.slot(), new.gen()), (old.slot(), old.gen() + 1));
        hold(&mut store, &cat, &mut a, new);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(5)]), []);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(6)]), [new]);
        // the slot is the memory's, but the relation names its new tuple
        assert_eq!(cat.rel(EMP).unwrap().at(old.slot()).unwrap().0, new);
        store.debug_check([&a].into_iter(), &cat);
    }

    #[test]
    fn a_reinsert_moves_the_tuple_to_its_new_key() {
        let (mut cat, t) = emp(&[(5, 1)]);
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, &cat, 1, &[&[0]]);
        hold(&mut store, &cat, &mut a, t[0]);
        // a replace: the bare `−` carries the old value, the Δ+ the new
        let old = cat
            .rel_mut(EMP)
            .unwrap()
            .update(t[0], vec![Value::Int(6), Value::Int(1)])
            .unwrap();
        a.unhold(t[0]);
        store.release(EMP, t[0], &old);
        hold(&mut store, &cat, &mut a, t[0]);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(5)]), []);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(6)]), t);
        store.debug_check([&a].into_iter(), &cat);
    }

    #[test]
    fn a_memory_enumerates_its_slots_in_order_and_pays_for_its_words() {
        let (cat, t) = emp(&(0..131).map(|i| (i, 0)).collect::<Vec<_>>());
        let mut store = Store::default();
        let (mut a, _) = memory(&mut store, &cat, 1, &[]);
        assert_eq!(a.heap_size(), 0, "an empty memory allocates nothing");
        for s in [130, 2, 64, 63] {
            hold(&mut store, &cat, &mut a, t[s]);
        }
        assert_eq!(a.slots().collect::<Vec<_>>(), [2, 63, 64, 130]);
        assert_eq!(a.len(), 4);
        // three words (capacity 4), one summary word and its count
        assert_eq!(a.heap_size(), 4 * 8 + 8 + 4);
        a.unhold(t[64]);
        store.release(EMP, t[64], &tuple(&cat, t[64]));
        assert_eq!(a.slots().collect::<Vec<_>>(), [2, 63, 130]);
        store.debug_check([&a].into_iter(), &cat);
    }

    #[test]
    fn the_relation_keeps_the_tuple_and_memories_their_slots() {
        let (cat, t) = emp(&[(3, 4)]);
        let mut store = Store::default();
        let (mut a, _) = memory(&mut store, &cat, 1, &[&[0]]);
        let (mut b, _) = memory(&mut store, &cat, 2, &[]);
        hold(&mut store, &cat, &mut a, t[0]);
        hold(&mut store, &cat, &mut b, t[0]);
        // one TID filed once; each membership only its bit
        let one = store.bytes();
        let (mut c, ix) = memory(&mut store, &cat, 3, &[&[0]]);
        hold(&mut store, &cat, &mut c, t[0]);
        assert_eq!(
            store.bytes(),
            one,
            "a third holder adds nothing to the store"
        );
        assert!(c.heap_size() <= 32, "{} B", c.heap_size());
        store.unregister(c.store_slot().unwrap(), &ix);
        store.rebuild(a.store_slot().unwrap(), [&a, &b].into_iter());
        assert_eq!(store.members(a.store_slot().unwrap()), 1);
        store.debug_check([&a, &b].into_iter(), &cat);
    }

    #[test]
    fn a_rebuild_unfiles_the_slots_no_memory_holds() {
        let (cat, t) = emp(&[(1, 0), (2, 0), (3, 0)]);
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, &cat, 1, &[&[1]]);
        let (mut b, b_ix) = memory(&mut store, &cat, 2, &[&[1]]);
        hold(&mut store, &cat, &mut a, t[0]);
        for &tid in &t {
            hold(&mut store, &cat, &mut b, tid);
        }
        let slot = a.store_slot().unwrap();
        store.unregister(slot, &b_ix);
        store.rebuild(slot, [&a].into_iter());
        assert_eq!(store.members(slot), 1);
        assert_eq!(index_entries(&store), [1]);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(0)]), [t[0]]);
        store.debug_check([&a].into_iter(), &cat);
    }

    #[test]
    fn null_keys_are_never_indexed() {
        let mut cat = emp(&[]).0;
        let rel = cat.rel_mut(EMP).unwrap();
        let t1 = rel.insert(vec![Value::Null, Value::Int(3)]).unwrap();
        let t2 = rel.insert(vec![Value::Int(4), Value::Null]).unwrap();
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, &cat, 1, &[&[0], &[0, 1]]);
        hold(&mut store, &cat, &mut a, t1);
        hold(&mut store, &cat, &mut a, t2);
        assert_eq!(index_entries(&store), [1, 0]);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Null]), []);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(4)]), [t2]);
        assert_eq!(probe(&store, &a, ix[1], &[Value::Int(4), Value::Null]), []);
        let slot = a.store_slot().unwrap();
        // only Null keys on (0, 1): a probe serves nothing
        assert_eq!(store.expected_bucket(slot, ix[1], a.len()), 0);
        // the estimate counts indexed tuples only: 1 of 2 held, 1 key
        assert_eq!(store.expected_bucket(slot, ix[0], a.len()), 1);
        store.debug_check([&a].into_iter(), &cat);
        for tid in [t1, t2] {
            // must not panic on unindexed tuples
            a.unhold(tid);
            store.release(EMP, tid, &tuple(&cat, tid));
        }
        assert_eq!(index_entries(&store), [0, 0]);
        store.debug_check([&a].into_iter(), &cat);
    }

    #[test]
    fn int_and_float_keys_probe_alike() {
        // the shared index keys exactly like `join_index_numeric_cross_type_probe`
        let mut cat = Catalog::new();
        cat.create(
            "emp",
            Schema::of(&[("a", AttrType::Float), ("b", AttrType::Int)]),
        )
        .unwrap();
        let rel = cat.rel_mut(EMP).unwrap();
        let t1 = rel.insert(vec![Value::Int(15), Value::Int(0)]).unwrap();
        let t2 = rel.insert(vec![Value::Float(7.0), Value::Int(0)]).unwrap();
        let mut store = Store::default();
        let (mut a, ix) = memory(&mut store, &cat, 1, &[&[0]]);
        hold(&mut store, &cat, &mut a, t1);
        hold(&mut store, &cat, &mut a, t2);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Float(15.0)]), [t1]);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Int(7)]), [t2]);
        assert_eq!(probe(&store, &a, ix[0], &[Value::Float(7.5)]), []);
    }

    #[test]
    fn a_late_index_back_fills_and_leaves_with_its_last_user() {
        let rows: Vec<(i64, i64)> = (0..6).map(|i| (i % 2, i % 3)).collect();
        let (cat, t) = emp(&rows);
        let mut store = Store::default();
        let (mut a, a_ix) = memory(&mut store, &cat, 1, &[&[0]]);
        for &tid in &t {
            hold(&mut store, &cat, &mut a, tid);
        }
        // a second memory joins on attribute 1: its index is built from
        // the union's tuples, read from the relation
        let (mut b, b_ix) = memory(&mut store, &cat, 2, &[&[1]]);
        let slot = b.store_slot().unwrap();
        assert_eq!(index_entries(&store), [6, 6]);
        hold(&mut store, &cat, &mut b, t[4]);
        assert_eq!(probe(&store, &b, b_ix[0], &[Value::Int(1)]), [t[4]]);
        assert_eq!(probe(&store, &a, b_ix[0], &[Value::Int(1)]), [t[1], t[4]]);
        store.debug_check([&a, &b].into_iter(), &cat);
        store.unregister(slot, &b_ix);
        store.rebuild(slot, [&a].into_iter());
        assert!(!store.has_index(slot, &[1]), "the last user took it along");
        assert!(store.has_index(slot, &[0]));
        // the freed handle passes to the next index registered
        let (_, c_ix) = memory(&mut store, &cat, 3, &[&[0, 1]]);
        assert_eq!(c_ix, b_ix);
        assert_ne!(c_ix[0], a_ix[0]);
        store.debug_check([&a].into_iter(), &cat);
    }

    #[test]
    fn index_size_is_independent_of_how_many_memories_hold_a_tuple() {
        let rows: Vec<(i64, i64)> = (0..50).map(|i| (i % 5, i)).collect();
        let (cat, t) = emp(&rows);
        let build = |memories: u64| {
            let mut store = Store::default();
            let mut held: Vec<AlphaNode> = (0..memories)
                .map(|r| memory(&mut store, &cat, r, &[&[0], &[0, 1]]).0)
                .collect();
            for a in &mut held {
                for &tid in &t {
                    hold(&mut store, &cat, a, tid);
                }
            }
            store.debug_check(held.iter(), &cat);
            (index_entries(&store), store.bytes())
        };
        let (ten, ten_bytes) = build(10);
        let (hundred, hundred_bytes) = build(100);
        assert_eq!(ten, [50, 50], "one index entry per tuple per attribute set");
        assert_eq!(ten, hundred);
        assert_eq!(ten_bytes, hundred_bytes);
    }
}
