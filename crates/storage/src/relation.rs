//! Heap relations: slotted tuple storage with stable TIDs and maintained
//! secondary indexes.

use crate::error::{StorageError, StorageResult};
use crate::index::{Index, IndexKind};
use crate::schema::SchemaRef;
use crate::tuple::{Tid, Tuple};
use crate::value::Value;
use std::collections::HashMap;
use std::ops::Bound;

/// An in-memory relation.
///
/// Storage is a slotted vector: deleted slots go on a free list and are
/// reused, but TIDs are never reused, so a TID held in a P-node or an
/// α-memory either resolves to the same logical tuple or to nothing.
#[derive(Debug)]
pub struct Relation {
    name: String,
    schema: SchemaRef,
    slots: Vec<Option<(Tid, Tuple)>>,
    free: Vec<usize>,
    tid_to_slot: HashMap<u64, usize>,
    next_tid: u64,
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
            tid_to_slot: HashMap::new(),
            next_tid: 0,
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
        self.tid_to_slot.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tid_to_slot.is_empty()
    }

    /// Insert a row, returning the new tuple's TID.
    /// The row is schema-checked and widening-coerced.
    pub fn insert(&mut self, row: Vec<Value>) -> StorageResult<Tid> {
        let mut row = self.schema.check_row(row)?;
        self.intern_row(&mut row);
        let tuple = Tuple::new(row);
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some((tid, tuple.clone()));
                s
            }
            None => {
                self.slots.push(Some((tid, tuple.clone())));
                self.slots.len() - 1
            }
        };
        self.tid_to_slot.insert(tid.0, slot);
        for ix in &mut self.indexes {
            ix.insert(tuple.get(ix.attr()).clone(), tid);
        }
        Ok(tid)
    }

    /// Fetch a live tuple by TID.
    pub fn get(&self, tid: Tid) -> Option<&Tuple> {
        let slot = *self.tid_to_slot.get(&tid.0)?;
        self.slots[slot].as_ref().map(|(_, t)| t)
    }

    /// Delete a tuple by TID, returning the removed tuple.
    pub fn delete(&mut self, tid: Tid) -> StorageResult<Tuple> {
        let slot = self
            .tid_to_slot
            .remove(&tid.0)
            .ok_or(StorageError::DanglingTid(tid.0))?;
        let (_, tuple) = self.slots[slot].take().expect("live slot");
        self.free.push(slot);
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
        let slot = *self
            .tid_to_slot
            .get(&tid.0)
            .ok_or(StorageError::DanglingTid(tid.0))?;
        let new_tuple = Tuple::new(row);
        let (_, old) = self.slots[slot].take().expect("live slot");
        for ix in &mut self.indexes {
            ix.remove(old.get(ix.attr()), tid);
            ix.insert(new_tuple.get(ix.attr()).clone(), tid);
        }
        self.slots[slot] = Some((tid, new_tuple));
        Ok(old)
    }

    /// Iterate all live tuples in slot order.
    pub fn scan(&self) -> impl Iterator<Item = (Tid, &Tuple)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(tid, t)| (*tid, t)))
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
        for (tid, t) in self
            .slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(tid, t)| (*tid, t)))
        {
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

    /// Approximate heap footprint of the live tuples, in bytes.
    pub fn heap_size(&self) -> usize {
        self.scan().map(|(_, t)| t.heap_size()).sum()
    }

    // ----- snapshot / restore (crash recovery; see `crate::wal`) ---------

    /// Raw slot vector, holes included — the exact physical layout a
    /// snapshot must preserve so scan order and free-slot reuse are
    /// identical after recovery.
    pub fn snapshot_slots(&self) -> &[Option<(Tid, Tuple)>] {
        &self.slots
    }

    /// The free-slot stack, in reuse order (the last entry is popped
    /// first by the next insert).
    pub fn free_slots(&self) -> &[usize] {
        &self.free
    }

    /// The TID the next insert will allocate. Never decreases; snapshots
    /// must carry it so recovered engines keep allocating fresh TIDs.
    pub fn next_tid(&self) -> u64 {
        self.next_tid
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
    /// the one snapshotted: the slot vector (holes included), the free
    /// list, and the TID counter are taken as-is, so scan order, slot
    /// reuse and TID allocation continue exactly as they would have; the
    /// TID map and secondary indexes are derived from the slots. Errors
    /// if the parts are inconsistent (duplicate or out-of-range TIDs,
    /// free entries pointing at live slots, index positions outside the
    /// schema).
    pub fn restore(
        name: impl Into<String>,
        schema: SchemaRef,
        slots: Vec<Option<(Tid, Tuple)>>,
        free: Vec<usize>,
        next_tid: u64,
        index_defs: &[(usize, IndexKind)],
        intern_strings: bool,
    ) -> StorageResult<Relation> {
        let name = name.into();
        let corrupt = |msg: String| StorageError::Persist(format!("relation `{name}`: {msg}"));
        let mut tid_to_slot = HashMap::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            if let Some((tid, tuple)) = slot {
                if tid.0 >= next_tid {
                    return Err(corrupt(format!(
                        "live tid {} not below next_tid {next_tid}",
                        tid.0
                    )));
                }
                if tuple.values().len() != schema.attrs().len() {
                    return Err(corrupt(format!(
                        "tuple {} has {} values for a {}-attribute schema",
                        tid.0,
                        tuple.values().len(),
                        schema.attrs().len()
                    )));
                }
                if tid_to_slot.insert(tid.0, i).is_some() {
                    return Err(corrupt(format!("duplicate tid {}", tid.0)));
                }
            }
        }
        for &s in &free {
            if slots.get(s).map_or(true, |slot| slot.is_some()) {
                return Err(corrupt(format!("free-list entry {s} is not a hole")));
            }
        }
        let mut indexes = Vec::with_capacity(index_defs.len());
        for &(pos, kind) in index_defs {
            if pos >= schema.attrs().len() {
                return Err(corrupt(format!("index position {pos} outside the schema")));
            }
            let mut ix = Index::new(pos, kind);
            for (tid, t) in slots.iter().filter_map(Option::as_ref) {
                ix.insert(t.get(pos).clone(), *tid);
            }
            indexes.push(ix);
        }
        Ok(Relation {
            name,
            schema,
            slots,
            free,
            tid_to_slot,
            next_tid,
            indexes,
            intern_strings,
            version: 0,
        })
    }

    /// Remove every tuple (used by `destroy`/reset paths). TIDs are not
    /// reused afterwards.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.tid_to_slot.clear();
        let kinds: Vec<(usize, IndexKind)> = self
            .indexes
            .iter()
            .map(|ix| (ix.attr(), ix.kind()))
            .collect();
        self.indexes = kinds
            .into_iter()
            .map(|(attr, kind)| Index::new(attr, kind))
            .collect();
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
    }

    #[test]
    fn delete_dangling_errors() {
        let mut r = emp();
        assert!(matches!(
            r.delete(Tid(42)),
            Err(StorageError::DanglingTid(42))
        ));
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
}
