//! Heap relations: slotted tuple storage with stable TIDs and maintained
//! secondary indexes.
//!
//! A TID names its tuple's slot and the slot's generation (see [`Tid`]):
//! reading, deleting or updating by TID indexes the slot vector and checks
//! the generation, with no map from TID to slot.

use crate::error::{StorageError, StorageResult};
use crate::index::{Index, IndexKind};
use crate::schema::SchemaRef;
use crate::tuple::{Tid, Tuple};
use crate::value::Value;
use std::ops::Bound;

/// One heap slot: its generation and, while it is live, its tuple. The
/// tuple's TID is `Tid::new(slot, gen)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// The slot's generation: bumped each time the slot is reused.
    pub gen: u32,
    /// The live tuple, `None` for a hole.
    pub tuple: Option<Tuple>,
}

/// A slot at this generation is retired when its tuple is deleted: its
/// next generation would wrap, so it never goes on the free list.
const LAST_GEN: u32 = u32::MAX;

/// An in-memory relation.
///
/// Storage is a slotted vector: deleted slots go on a free list and are
/// reused under the next generation, so a (slot, generation) never
/// repeats and a TID held in a P-node or an α-memory either resolves to
/// the same logical tuple or to nothing.
#[derive(Debug)]
pub struct Relation {
    name: String,
    schema: SchemaRef,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Live tuples.
    live: usize,
    indexes: Vec<Index>,
    intern_strings: bool,
    /// Bumped by every change to the access paths (see
    /// [`Relation::version`]).
    version: u64,
}

impl Relation {
    /// Create an empty relation. String interning is on by default (see
    /// [`Relation::set_intern_strings`]).
    pub fn new(name: impl Into<String>, schema: SchemaRef) -> Self {
        Relation {
            name: name.into(),
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            indexes: Vec::new(),
            intern_strings: true,
            version: 0,
        }
    }

    /// Toggle string interning at the tuple-construction boundary. When on
    /// (the default), `insert`/`update` convert every owned `Value::Str`
    /// into its interned `Value::Sym` twin, so everything downstream —
    /// tokens, α-memories, join keys, P-nodes — tests and hashes strings as
    /// integers. Off keeps the legacy owned-string layout (the `BENCH_mem`
    /// comparison baseline). Affects future writes only; equality semantics
    /// are identical either way.
    pub fn set_intern_strings(&mut self, on: bool) {
        self.intern_strings = on;
    }

    /// Whether writes intern strings (see [`Relation::set_intern_strings`]).
    pub fn intern_strings(&self) -> bool {
        self.intern_strings
    }

    fn intern_row(&self, row: &mut [Value]) {
        if self.intern_strings {
            for v in row {
                v.intern_in_place();
            }
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema handle.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Access-path version: it changes whenever an index is created, and
    /// not on data changes. A plan that chose its access paths holds while
    /// the version is unchanged.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a row, returning the new tuple's TID.
    /// The row is schema-checked and widening-coerced.
    pub fn insert(&mut self, row: Vec<Value>) -> StorageResult<Tid> {
        let mut row = self.schema.check_row(row)?;
        self.intern_row(&mut row);
        let tuple = Tuple::new(row);
        let tid = match self.free.pop() {
            Some(s) => {
                let slot = &mut self.slots[s];
                slot.gen += 1;
                slot.tuple = Some(tuple.clone());
                Tid::new(s as u32, slot.gen)
            }
            None => {
                // slot `u32::MAX` is never handed out, so no TID names it
                let s = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != u32::MAX)
                    .expect("fewer than 2^32 - 1 slots");
                self.slots.push(Slot {
                    gen: 0,
                    tuple: Some(tuple.clone()),
                });
                Tid::new(s, 0)
            }
        };
        self.live += 1;
        for ix in &mut self.indexes {
            ix.insert(tuple.get(ix.attr()).clone(), tid);
        }
        Ok(tid)
    }

    /// Fetch a live tuple by TID.
    #[inline]
    pub fn get(&self, tid: Tid) -> Option<&Tuple> {
        let slot = self.slots.get(tid.slot())?;
        if slot.gen != tid.gen() {
            return None;
        }
        slot.tuple.as_ref()
    }

    /// The live tuple in heap slot `slot` and its TID, whatever its
    /// generation.
    #[inline]
    pub fn at(&self, slot: usize) -> Option<(Tid, &Tuple)> {
        let s = self.slots.get(slot)?;
        Some((Tid::new(slot as u32, s.gen), s.tuple.as_ref()?))
    }

    /// The slot `tid` names, if its tuple is live.
    fn live_slot(&mut self, tid: Tid) -> StorageResult<&mut Slot> {
        self.slots
            .get_mut(tid.slot())
            .filter(|s| s.gen == tid.gen() && s.tuple.is_some())
            .ok_or(StorageError::DanglingTid(tid.0))
    }

    /// Delete a tuple by TID, returning the removed tuple. The slot goes
    /// on the free list unless its generation is the last one.
    pub fn delete(&mut self, tid: Tid) -> StorageResult<Tuple> {
        let slot = self.live_slot(tid)?;
        let tuple = slot.tuple.take().expect("live slot");
        if slot.gen != LAST_GEN {
            self.free.push(tid.slot());
        }
        self.live -= 1;
        for ix in &mut self.indexes {
            ix.remove(tuple.get(ix.attr()), tid);
        }
        Ok(tuple)
    }

    /// Replace a tuple in place (same TID), returning the old tuple.
    /// The new row is schema-checked.
    pub fn update(&mut self, tid: Tid, row: Vec<Value>) -> StorageResult<Tuple> {
        let mut row = self.schema.check_row(row)?;
        self.intern_row(&mut row);
        let new_tuple = Tuple::new(row);
        let slot = self.live_slot(tid)?;
        let old = slot.tuple.replace(new_tuple.clone()).expect("live slot");
        for ix in &mut self.indexes {
            ix.remove(old.get(ix.attr()), tid);
            ix.insert(new_tuple.get(ix.attr()).clone(), tid);
        }
        Ok(old)
    }

    /// Iterate all live tuples in slot order.
    pub fn scan(&self) -> impl Iterator<Item = (Tid, &Tuple)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.tuple.as_ref().map(|t| (Tid::new(i as u32, s.gen), t)))
    }

    /// Create a secondary index on `attr`. Backfills existing tuples.
    pub fn create_index(&mut self, attr: &str, kind: IndexKind) -> StorageResult<()> {
        let pos = self.schema.require(attr)?;
        if self.indexes.iter().any(|ix| ix.attr() == pos) {
            return Err(StorageError::IndexExists {
                relation: self.name.clone(),
                attr: attr.to_string(),
            });
        }
        let mut ix = Index::new(pos, kind);
        for (tid, t) in self.scan() {
            ix.insert(t.get(pos).clone(), tid);
        }
        self.indexes.push(ix);
        self.version += 1;
        Ok(())
    }

    /// Index on attribute position, if one exists.
    pub fn index_on(&self, attr: usize) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.attr() == attr)
    }

    /// Equality index probe: live tuples whose `attr` equals `key`,
    /// if an index on `attr` exists. Streams off the index bucket.
    pub fn probe_eq<'a>(
        &'a self,
        attr: usize,
        key: &Value,
    ) -> Option<impl Iterator<Item = (Tid, &'a Tuple)> + 'a> {
        let ix = self.index_on(attr)?;
        Some(
            ix.probe_eq(key)
                .iter()
                .filter_map(|&tid| self.get(tid).map(|t| (tid, t))),
        )
    }

    /// Range index probe via a B-tree index on `attr`, if one exists.
    /// Streams off the index in key order.
    pub fn probe_range<'a>(
        &'a self,
        attr: usize,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> Option<impl Iterator<Item = (Tid, &'a Tuple)> + 'a> {
        let ix = self.index_on(attr)?;
        let tids = ix.probe_range(lo, hi)?;
        Some(tids.filter_map(|tid| self.get(tid).map(|t| (tid, t))))
    }

    /// Approximate heap footprint in bytes: the slot vector and the free
    /// list at their capacities — holes included, so a relation that grew
    /// and shrank keeps paying for its high-water mark — plus the values
    /// of the live tuples (each tuple's handle lives in its slot).
    pub fn heap_size(&self) -> usize {
        let values: usize = self
            .scan()
            .map(|(_, t)| t.heap_size() - std::mem::size_of::<Tuple>())
            .sum();
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.free.capacity() * std::mem::size_of::<usize>()
            + values
    }

    // ----- snapshot / restore (crash recovery; see `crate::wal`) ---------

    /// Raw slot vector, holes and their generations included — the exact
    /// physical layout a snapshot must preserve so scan order, free-slot
    /// reuse and the TID of every later insert are identical after
    /// recovery.
    pub fn snapshot_slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The free-slot stack, in reuse order (the last entry is popped
    /// first by the next insert).
    pub fn free_slots(&self) -> &[usize] {
        &self.free
    }

    /// Secondary index definitions as (attribute position, kind) pairs —
    /// index *contents* are a pure function of the live tuples and are
    /// rebuilt on restore.
    pub fn index_defs(&self) -> Vec<(usize, IndexKind)> {
        self.indexes
            .iter()
            .map(|ix| (ix.attr(), ix.kind()))
            .collect()
    }

    /// Rebuild a relation from snapshot parts, byte-for-byte equivalent to
    /// the one snapshotted: the slot vector (holes and generations
    /// included) and the free list are taken as-is, so scan order, slot
    /// reuse and the TIDs of later inserts continue exactly as they would
    /// have; the live count and secondary indexes are derived from the
    /// slots. Errors if the parts are inconsistent (more slots than a TID
    /// can name, free entries that are live, retired or repeated, index
    /// positions outside the schema).
    pub fn restore(
        name: impl Into<String>,
        schema: SchemaRef,
        slots: Vec<Slot>,
        free: Vec<usize>,
        index_defs: &[(usize, IndexKind)],
        intern_strings: bool,
    ) -> StorageResult<Relation> {
        let name = name.into();
        let corrupt = |msg: String| StorageError::Persist(format!("relation `{name}`: {msg}"));
        if slots.len() >= u32::MAX as usize {
            return Err(corrupt(format!("{} slots", slots.len())));
        }
        let mut live = 0;
        for (i, slot) in slots.iter().enumerate() {
            if let Some(tuple) = &slot.tuple {
                if tuple.values().len() != schema.attrs().len() {
                    return Err(corrupt(format!(
                        "tuple {} has {} values for a {}-attribute schema",
                        Tid::new(i as u32, slot.gen),
                        tuple.values().len(),
                        schema.attrs().len()
                    )));
                }
                live += 1;
            }
        }
        let mut listed = vec![false; slots.len()];
        for &s in &free {
            match slots.get(s) {
                Some(slot) if slot.tuple.is_none() && slot.gen != LAST_GEN && !listed[s] => {
                    listed[s] = true;
                }
                _ => {
                    return Err(corrupt(format!(
                        "free-list entry {s} is not a reusable hole"
                    )))
                }
            }
        }
        if let Some((pos, _)) = index_defs
            .iter()
            .find(|(pos, _)| *pos >= schema.attrs().len())
        {
            return Err(corrupt(format!("index position {pos} outside the schema")));
        }
        let mut relation = Relation {
            name,
            schema,
            slots,
            free,
            live,
            indexes: Vec::with_capacity(index_defs.len()),
            intern_strings,
            version: 0,
        };
        for &(pos, kind) in index_defs {
            let mut ix = Index::new(pos, kind);
            for (tid, t) in relation.scan() {
                ix.insert(t.get(pos).clone(), tid);
            }
            relation.indexes.push(ix);
        }
        Ok(relation)
    }

    /// Remove every tuple (used by `destroy`/reset paths). Each slot keeps
    /// its generation, so no TID handed out before resolves again.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.tuple = None;
        }
        self.free = (0..self.slots.len())
            .rev()
            .filter(|&s| self.slots[s].gen != LAST_GEN)
            .collect();
        self.live = 0;
        for ix in &mut self.indexes {
            *ix = Index::new(ix.attr(), ix.kind());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};

    fn emp() -> Relation {
        Relation::new(
            "emp",
            Schema::of(&[
                ("name", AttrType::Str),
                ("sal", AttrType::Float),
                ("dno", AttrType::Int),
            ]),
        )
    }

    fn row(name: &str, sal: f64, dno: i64) -> Vec<Value> {
        vec![name.into(), sal.into(), dno.into()]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut r = emp();
        let tid = r.insert(row("alice", 50_000.0, 1)).unwrap();
        let t = r.get(tid).unwrap();
        assert_eq!(t.get(0), &Value::from("alice"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn delete_frees_slot_but_not_tid() {
        let mut r = emp();
        let t1 = r.insert(row("a", 1.0, 1)).unwrap();
        r.delete(t1).unwrap();
        assert!(r.get(t1).is_none());
        let t2 = r.insert(row("b", 2.0, 2)).unwrap();
        assert_ne!(t1, t2, "tids are never reused");
        assert_eq!(r.len(), 1);
        // slot was reused: underlying vector did not grow
        assert_eq!(r.slots.len(), 1);
        assert_eq!((t2.slot(), t2.gen()), (t1.slot(), t1.gen() + 1));
    }

    #[test]
    fn a_stale_tid_of_a_reused_slot_resolves_to_nothing() {
        let mut r = emp();
        r.create_index("dno", IndexKind::Hash).unwrap();
        let old = r.insert(row("a", 1.0, 1)).unwrap();
        r.delete(old).unwrap();
        let new = r.insert(row("b", 2.0, 1)).unwrap();
        assert_eq!(new.slot(), old.slot(), "the slot is reused");
        assert_eq!(r.get(old), None);
        assert_eq!(r.delete(old), Err(StorageError::DanglingTid(old.0)));
        assert_eq!(
            r.update(old, row("c", 3.0, 1)),
            Err(StorageError::DanglingTid(old.0))
        );
        // the tuple that took the slot is untouched
        assert_eq!(r.get(new).unwrap().get(0), &Value::from("b"));
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.probe_eq(2, &Value::Int(1)).unwrap().collect::<Vec<_>>(),
            vec![(new, r.get(new).unwrap())]
        );
        // a TID past the slot vector is dangling too
        assert_eq!(r.get(Tid::new(7, 0)), None);
    }

    #[test]
    fn a_slot_at_its_last_generation_is_retired() {
        let t = |name: &str| Tuple::new(vec![name.into(), 1.0.into(), 1i64.into()]);
        let slots = vec![
            Slot {
                gen: LAST_GEN,
                tuple: Some(t("a")),
            },
            Slot {
                gen: 3,
                tuple: None,
            },
        ];
        let mut r =
            Relation::restore("emp", emp().schema().clone(), slots, vec![1], &[], true).unwrap();
        let last = Tid::new(0, LAST_GEN);
        assert!(r.get(last).is_some());
        r.delete(last).unwrap();
        assert_eq!(r.free_slots(), [1], "slot 0 never goes on the free list");
        assert_eq!(r.insert(row("b", 1.0, 1)).unwrap(), Tid::new(1, 4));
        assert_eq!(r.insert(row("c", 1.0, 1)).unwrap(), Tid::new(2, 0));
        assert_eq!(r.get(last), None);
        r.clear();
        assert_eq!(r.free_slots(), [2, 1], "clear keeps slot 0 retired");
    }

    #[test]
    fn delete_dangling_errors() {
        let mut r = emp();
        assert!(matches!(
            r.delete(Tid(42)),
            Err(StorageError::DanglingTid(42))
        ));
        let tid = r.insert(row("a", 1.0, 1)).unwrap();
        r.delete(tid).unwrap();
        assert!(matches!(r.delete(tid), Err(StorageError::DanglingTid(_))));
    }

    #[test]
    fn update_preserves_tid() {
        let mut r = emp();
        let tid = r.insert(row("a", 1.0, 1)).unwrap();
        let old = r.update(tid, row("a", 9.0, 1)).unwrap();
        assert_eq!(old.get(1), &Value::Float(1.0));
        assert_eq!(r.get(tid).unwrap().get(1), &Value::Float(9.0));
    }

    #[test]
    fn scan_skips_deleted() {
        let mut r = emp();
        let t1 = r.insert(row("a", 1.0, 1)).unwrap();
        let _t2 = r.insert(row("b", 2.0, 2)).unwrap();
        r.delete(t1).unwrap();
        let names: Vec<_> = r.scan().map(|(_, t)| t.get(0).clone()).collect();
        assert_eq!(names, vec![Value::from("b")]);
    }

    #[test]
    fn index_maintained_across_dml() {
        let mut r = emp();
        r.create_index("dno", IndexKind::Hash).unwrap();
        let t1 = r.insert(row("a", 1.0, 7)).unwrap();
        let t2 = r.insert(row("b", 2.0, 7)).unwrap();
        assert_eq!(r.probe_eq(2, &Value::Int(7)).unwrap().count(), 2);
        r.update(t1, row("a", 1.0, 8)).unwrap();
        assert_eq!(r.probe_eq(2, &Value::Int(7)).unwrap().count(), 1);
        r.delete(t2).unwrap();
        assert_eq!(r.probe_eq(2, &Value::Int(7)).unwrap().count(), 0);
        assert_eq!(r.probe_eq(2, &Value::Int(8)).unwrap().count(), 1);
    }

    #[test]
    fn index_backfills_existing_tuples() {
        let mut r = emp();
        r.insert(row("a", 1.0, 3)).unwrap();
        r.insert(row("b", 2.0, 3)).unwrap();
        r.create_index("dno", IndexKind::BTree).unwrap();
        assert_eq!(r.probe_eq(2, &Value::Int(3)).unwrap().count(), 2);
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut r = emp();
        assert_eq!(r.version(), 0);
        r.create_index("dno", IndexKind::Hash).unwrap();
        assert_eq!(r.version(), 1, "a new access path");
        assert!(matches!(
            r.create_index("dno", IndexKind::BTree),
            Err(StorageError::IndexExists { .. })
        ));
        r.insert(vec!["x".into(), 1.0.into(), 1i64.into()]).unwrap();
        assert_eq!(r.version(), 1, "failed index creation and data");
    }

    #[test]
    fn range_probe_through_relation() {
        let mut r = emp();
        r.create_index("sal", IndexKind::BTree).unwrap();
        for i in 0..10 {
            r.insert(row("e", (i * 1000) as f64, i)).unwrap();
        }
        let lo = Value::Float(2000.0);
        let hi = Value::Float(5000.0);
        let hits = r
            .probe_range(1, Bound::Excluded(&lo), Bound::Included(&hi))
            .unwrap();
        assert_eq!(hits.count(), 3); // 3000, 4000, 5000
    }

    #[test]
    fn insert_rejects_bad_row() {
        let mut r = emp();
        assert!(r.insert(vec![Value::Int(1)]).is_err());
        assert!(r
            .insert(vec![Value::Int(1), Value::Float(0.0), Value::Int(0)])
            .is_err());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_index_defs() {
        let mut r = emp();
        r.create_index("dno", IndexKind::Hash).unwrap();
        r.insert(row("a", 1.0, 1)).unwrap();
        r.clear();
        assert!(r.is_empty());
        let tid = r.insert(row("b", 2.0, 5)).unwrap();
        assert_eq!(
            r.probe_eq(2, &Value::Int(5)).unwrap().collect::<Vec<_>>(),
            vec![(tid, r.get(tid).unwrap())]
        );
    }

    #[test]
    fn interning_stores_symbols_transparently() {
        let mut r = emp();
        assert!(r.intern_strings(), "interning is on by default");
        let tid = r.insert(row("ada", 1.0, 1)).unwrap();
        assert!(
            matches!(r.get(tid).unwrap().get(0), Value::Sym(_)),
            "stored value is interned"
        );
        // equality against the owned literal still holds
        assert_eq!(r.get(tid).unwrap().get(0), &Value::from("ada"));
        // update goes through the same boundary
        let old = r.update(tid, row("grace", 2.0, 1)).unwrap();
        assert!(matches!(old.get(0), Value::Sym(_)));
        assert!(matches!(r.get(tid).unwrap().get(0), Value::Sym(_)));
        // legacy mode keeps owned strings
        let mut legacy = emp();
        legacy.set_intern_strings(false);
        let tid = legacy.insert(row("ada", 1.0, 1)).unwrap();
        assert!(matches!(legacy.get(tid).unwrap().get(0), Value::Str(_)));
    }

    #[test]
    fn secondary_index_spans_interned_and_owned_probes() {
        let mut r = emp();
        r.create_index("name", IndexKind::Hash).unwrap();
        let tid = r.insert(row("ada", 1.0, 1)).unwrap();
        // probe with the owned literal finds the interned entry
        assert_eq!(
            r.probe_eq(0, &Value::from("ada"))
                .unwrap()
                .collect::<Vec<_>>(),
            vec![(tid, r.get(tid).unwrap())]
        );
        assert_eq!(
            r.probe_eq(0, &Value::interned("ada")).unwrap().count(),
            1,
            "interned probe too"
        );
    }

    #[test]
    fn heap_size_tracks_tuples() {
        let mut r = emp();
        assert_eq!(r.heap_size(), 0);
        r.insert(row("a", 1.0, 1)).unwrap();
        let one = r.heap_size();
        r.insert(row("b", 2.0, 2)).unwrap();
        assert!(r.heap_size() > one);
    }

    /// A relation that grew to 200 000 slots and shrank to 100 live rows
    /// still holds its slot vector and its free list: its size counts
    /// them, not just the 100 tuples.
    #[test]
    fn heap_size_counts_the_slots_a_relation_keeps() {
        let mut r = emp();
        let tids: Vec<Tid> = (0..200_000)
            .map(|i| r.insert(row("e", i as f64, 1)).unwrap())
            .collect();
        for &tid in &tids[100..] {
            r.delete(tid).unwrap();
        }
        assert_eq!(r.len(), 100);
        let slots = 200_000 * std::mem::size_of::<Slot>();
        let free = (200_000 - 100) * std::mem::size_of::<usize>();
        assert!(
            r.heap_size() >= slots + free,
            "{} B for {slots} B of slots and {free} B of free list",
            r.heap_size()
        );
        let mut fresh = emp();
        for i in 0..100 {
            fresh.insert(row("e", i as f64, 1)).unwrap();
        }
        assert!(fresh.heap_size() * 100 < r.heap_size());
    }
}
