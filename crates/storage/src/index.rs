//! Secondary indexes over a relation attribute.
//!
//! The 1992 Ariel prototype lacked indexes (the paper calls this out as the
//! reason its measured relations are tiny). Our substrate provides hash and
//! B-tree indexes so the "with large tables and appropriate indexes …
//! similar results are expected" claim, and the virtual-α-memory index-scan
//! optimization (§4.2), can actually be exercised.

use crate::tuple::Tid;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// Kind of index structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Hash index: equality probes only.
    Hash,
    /// B-tree index: equality and range probes.
    BTree,
}

/// A secondary index on a single attribute of a relation.
///
/// The relation keeps indexes synchronized on every insert/delete/update.
#[derive(Debug)]
pub struct Index {
    attr: usize,
    kind: IndexKind,
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    Hash(HashMap<Value, Vec<Tid>>),
    BTree(BTreeMap<Value, Vec<Tid>>),
}

impl Index {
    /// New empty index on attribute position `attr`.
    pub fn new(attr: usize, kind: IndexKind) -> Self {
        let repr = match kind {
            IndexKind::Hash => Repr::Hash(HashMap::new()),
            IndexKind::BTree => Repr::BTree(BTreeMap::new()),
        };
        Index { attr, kind, repr }
    }

    /// Attribute position this index covers.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// Index kind.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Whether this index can answer range probes.
    pub fn supports_range(&self) -> bool {
        self.kind == IndexKind::BTree
    }

    pub(crate) fn insert(&mut self, key: Value, tid: Tid) {
        match &mut self.repr {
            Repr::Hash(m) => m.entry(key).or_default().push(tid),
            Repr::BTree(m) => m.entry(key).or_default().push(tid),
        }
    }

    pub(crate) fn remove(&mut self, key: &Value, tid: Tid) {
        let bucket = match &mut self.repr {
            Repr::Hash(m) => m.get_mut(key),
            Repr::BTree(m) => m.get_mut(key),
        };
        if let Some(b) = bucket {
            if let Some(pos) = b.iter().position(|&t| t == tid) {
                b.swap_remove(pos);
            }
            if b.is_empty() {
                match &mut self.repr {
                    Repr::Hash(m) => {
                        m.remove(key);
                    }
                    Repr::BTree(m) => {
                        m.remove(key);
                    }
                }
            }
        }
    }

    /// All TIDs whose indexed attribute equals `key`, borrowed from the
    /// index bucket in insertion order.
    pub fn probe_eq(&self, key: &Value) -> &[Tid] {
        let bucket = match &self.repr {
            Repr::Hash(m) => m.get(key),
            Repr::BTree(m) => m.get(key),
        };
        bucket.map_or(&[], Vec::as_slice)
    }

    /// All TIDs whose indexed attribute falls within the given bounds, in
    /// key order. Only supported for B-tree indexes; hash indexes return
    /// `None`.
    pub fn probe_range<'a>(
        &'a self,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> Option<impl Iterator<Item = Tid> + 'a> {
        match &self.repr {
            Repr::Hash(_) => None,
            Repr::BTree(m) => {
                // BTreeMap panics on an inverted range, and on an empty
                // one excluded at both ends: serve those as empty
                let empty = match (lo, hi) {
                    (
                        Bound::Included(l) | Bound::Excluded(l),
                        Bound::Included(h) | Bound::Excluded(h),
                    ) => {
                        l > h
                            || (l == h
                                && matches!(lo, Bound::Excluded(_))
                                && matches!(hi, Bound::Excluded(_)))
                    }
                    _ => false,
                };
                let range = (!empty).then(|| m.range::<Value, _>((lo, hi)));
                Some(
                    range
                        .into_iter()
                        .flatten()
                        .flat_map(|(_, tids)| tids.iter().copied()),
                )
            }
        }
    }

    /// Number of distinct keys currently indexed.
    pub fn distinct_keys(&self) -> usize {
        match &self.repr {
            Repr::Hash(m) => m.len(),
            Repr::BTree(m) => m.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated(kind: IndexKind) -> Index {
        let mut ix = Index::new(0, kind);
        for i in 0..10i64 {
            ix.insert(Value::Int(i % 5), Tid(i as u64));
        }
        ix
    }

    #[test]
    fn eq_probe_hash() {
        let ix = populated(IndexKind::Hash);
        let mut tids = ix.probe_eq(&Value::Int(3)).to_vec();
        tids.sort();
        assert_eq!(tids, vec![Tid(3), Tid(8)]);
        assert!(ix.probe_eq(&Value::Int(99)).is_empty());
    }

    #[test]
    fn eq_probe_btree() {
        let ix = populated(IndexKind::BTree);
        let mut tids = ix.probe_eq(&Value::Int(0)).to_vec();
        tids.sort();
        assert_eq!(tids, vec![Tid(0), Tid(5)]);
    }

    #[test]
    fn range_probe_btree() {
        let ix = populated(IndexKind::BTree);
        let v1 = Value::Int(1);
        let v3 = Value::Int(3);
        let tids = ix
            .probe_range(Bound::Included(&v1), Bound::Excluded(&v3))
            .unwrap()
            .collect::<Vec<_>>();
        // keys 1 and 2, two tids each, in key order
        assert_eq!(tids, vec![Tid(1), Tid(6), Tid(2), Tid(7)]);
    }

    #[test]
    fn range_probe_unbounded() {
        let ix = populated(IndexKind::BTree);
        let tids = ix.probe_range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(tids.count(), 10);
    }

    #[test]
    fn range_probe_empty_interval() {
        let ix = populated(IndexKind::BTree);
        let v3 = Value::Int(3);
        let v1 = Value::Int(1);
        let tids = ix
            .probe_range(Bound::Included(&v3), Bound::Included(&v1))
            .unwrap();
        assert_eq!(tids.count(), 0);
        let point = ix
            .probe_range(Bound::Excluded(&v3), Bound::Excluded(&v3))
            .unwrap();
        assert_eq!(point.count(), 0, "excluded at both ends of one key");
    }

    #[test]
    fn hash_has_no_range() {
        let ix = populated(IndexKind::Hash);
        assert!(ix.probe_range(Bound::Unbounded, Bound::Unbounded).is_none());
        assert!(!ix.supports_range());
    }

    #[test]
    fn remove_shrinks_bucket_and_map() {
        let mut ix = populated(IndexKind::BTree);
        assert_eq!(ix.distinct_keys(), 5);
        ix.remove(&Value::Int(3), Tid(3));
        assert_eq!(ix.probe_eq(&Value::Int(3)), [Tid(8)]);
        ix.remove(&Value::Int(3), Tid(8));
        assert!(ix.probe_eq(&Value::Int(3)).is_empty());
        assert_eq!(ix.distinct_keys(), 4);
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut ix = populated(IndexKind::Hash);
        ix.remove(&Value::Int(3), Tid(999));
        assert_eq!(ix.probe_eq(&Value::Int(3)).len(), 2);
        ix.remove(&Value::Int(77), Tid(0));
    }
}
