//! The relation catalog: named relations, creation and destruction.
//!
//! Shared handles are [`RelRef`], a thin wrapper over
//! `Arc<RwLock<Relation>>`: the executor reads several relations while the
//! DML layer mutates one, the discrimination network's virtual α-memories
//! scan base relations mid-token-propagation, and the engine — catalog
//! included — moves between the server's session threads. The paper's
//! prototype was single-threaded; the reader — writer lock preserves its
//! semantics (match only ever *reads* relations; all writes happen in the
//! action phase) while making the catalog `Send + Sync`. `RelRef::borrow`/`borrow_mut` keep the names the
//! engine used when the handle was an `Rc<RefCell<_>>`, so call sites read
//! identically.

use crate::error::{StorageError, StorageResult};
use crate::relation::Relation;
use crate::schema::SchemaRef;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Shared, interior-mutable handle to a relation.
///
/// Cloning is cheap (an `Arc` bump); all clones alias the same relation.
#[derive(Debug, Clone)]
pub struct RelRef(Arc<RwLock<Relation>>);

impl RelRef {
    fn new(rel: Relation) -> Self {
        RelRef(Arc::new(RwLock::new(rel)))
    }

    /// Shared read access. Panics (like `RefCell::borrow` did) if the
    /// current thread already holds the write guard.
    pub fn borrow(&self) -> RwLockReadGuard<'_, Relation> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Exclusive write access.
    pub fn borrow_mut(&self) -> RwLockWriteGuard<'_, Relation> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// True iff both handles alias the same relation (not merely one of
    /// the same name: a destroyed and re-created relation is another).
    pub fn same(&self, other: &RelRef) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Named collection of relations.
#[derive(Debug)]
pub struct Catalog {
    relations: BTreeMap<String, RelRef>,
    intern_strings: bool,
    /// Bumped by every change to the name → relation map and by every
    /// interning toggle (see [`Catalog::version`]).
    version: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            relations: BTreeMap::new(),
            intern_strings: true,
            version: 0,
        }
    }
}

impl Catalog {
    /// New empty catalog. String interning is on by default (see
    /// [`Catalog::set_intern_strings`]).
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Toggle string interning for every current relation and every
    /// relation created later (see [`Relation::set_intern_strings`]).
    /// Existing tuples keep their representation; equality semantics are
    /// unchanged either way.
    pub fn set_intern_strings(&mut self, on: bool) {
        if on != self.intern_strings {
            self.version += 1;
        }
        self.intern_strings = on;
        for rel in self.relations.values() {
            rel.borrow_mut().set_intern_strings(on);
        }
    }

    /// Whether new relations intern strings on write.
    pub fn intern_strings(&self) -> bool {
        self.intern_strings
    }

    /// Catalog version: it changes whenever a relation is created,
    /// destroyed or restored, or string interning is toggled, and at no
    /// other time. Anything derived from names and schemas (a resolved
    /// command, a plan) holds while the version is unchanged; a relation's
    /// own access paths carry [`Relation::version`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Create a relation. Errors if the name is taken.
    pub fn create(&mut self, name: &str, schema: SchemaRef) -> StorageResult<RelRef> {
        if self.relations.contains_key(name) {
            return Err(StorageError::RelationExists(name.to_string()));
        }
        let mut relation = Relation::new(name, schema);
        relation.set_intern_strings(self.intern_strings);
        let rel = RelRef::new(relation);
        self.relations.insert(name.to_string(), rel.clone());
        self.version += 1;
        Ok(rel)
    }

    /// Insert an already-built relation under its own name (the
    /// crash-recovery path: [`crate::wal::decode_relation`] rebuilds the
    /// relation, this re-homes it). Errors if the name is taken. The
    /// relation's interning flag is aligned with the catalog's, matching
    /// what [`Catalog::set_intern_strings`] would have done.
    pub fn insert_restored(&mut self, mut relation: Relation) -> StorageResult<RelRef> {
        let name = relation.name().to_string();
        if self.relations.contains_key(&name) {
            return Err(StorageError::RelationExists(name));
        }
        relation.set_intern_strings(self.intern_strings);
        let rel = RelRef::new(relation);
        self.relations.insert(name, rel.clone());
        self.version += 1;
        Ok(rel)
    }

    /// Destroy a relation. Errors if it does not exist.
    pub fn destroy(&mut self, name: &str) -> StorageResult<()> {
        self.relations
            .remove(name)
            .ok_or_else(|| StorageError::NoSuchRelation(name.to_string()))?;
        self.version += 1;
        Ok(())
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<RelRef> {
        self.relations.get(name).cloned()
    }

    /// Look up a relation by name, or a typed error.
    pub fn require(&self, name: &str) -> StorageResult<RelRef> {
        self.get(name)
            .ok_or_else(|| StorageError::NoSuchRelation(name.to_string()))
    }

    /// True iff a relation with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Names of all relations, sorted.
    pub fn names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff no relations exist.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

// The engine, storage layer included, moves between the server's session
// threads, and `Arc`-shared handles are `Send` only over `Send + Sync`
// contents; keep that property machine-checked.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Catalog>();
    assert_sync_send::<RelRef>();
    assert_sync_send::<crate::value::Value>();
    assert_sync_send::<crate::tuple::Tuple>();
    assert_sync_send::<Relation>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};

    fn schema() -> SchemaRef {
        Schema::of(&[("x", AttrType::Int)])
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        c.create("emp", schema()).unwrap();
        assert!(c.contains("emp"));
        assert!(c.get("emp").is_some());
        assert_eq!(c.require("emp").unwrap().borrow().name(), "emp");
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut c = Catalog::new();
        c.create("emp", schema()).unwrap();
        assert!(matches!(
            c.create("emp", schema()),
            Err(StorageError::RelationExists(_))
        ));
    }

    #[test]
    fn destroy_removes() {
        let mut c = Catalog::new();
        c.create("emp", schema()).unwrap();
        c.destroy("emp").unwrap();
        assert!(!c.contains("emp"));
        assert!(matches!(
            c.destroy("emp"),
            Err(StorageError::NoSuchRelation(_))
        ));
    }

    #[test]
    fn handles_alias_same_relation() {
        let mut c = Catalog::new();
        c.create("emp", schema()).unwrap();
        let a = c.get("emp").unwrap();
        let b = c.get("emp").unwrap();
        a.borrow_mut().insert(vec![1i64.into()]).unwrap();
        assert_eq!(b.borrow().len(), 1);
    }

    #[test]
    fn concurrent_reads_share_a_relation() {
        let mut c = Catalog::new();
        c.create("emp", schema()).unwrap();
        let rel = c.get("emp").unwrap();
        for i in 0..100i64 {
            rel.borrow_mut().insert(vec![i.into()]).unwrap();
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(rel.borrow().len(), 100);
                    }
                });
            }
        });
    }

    #[test]
    fn intern_toggle_applies_to_existing_and_new_relations() {
        let mut c = Catalog::new();
        assert!(c.intern_strings());
        let strs = Schema::of(&[("s", AttrType::Str)]);
        c.create("before", strs.clone()).unwrap();
        c.set_intern_strings(false);
        c.create("after", strs).unwrap();
        assert!(!c.require("before").unwrap().borrow().intern_strings());
        assert!(!c.require("after").unwrap().borrow().intern_strings());
        c.set_intern_strings(true);
        assert!(c.require("after").unwrap().borrow().intern_strings());
    }

    #[test]
    fn version_moves_with_names_and_interning_only() {
        let mut c = Catalog::new();
        let v0 = c.version();
        let emp = c.create("emp", schema()).unwrap();
        let v1 = c.version();
        assert!(v1 > v0, "create");
        emp.borrow_mut().insert(vec![1i64.into()]).unwrap();
        assert!(c.create("emp", schema()).is_err());
        assert!(c.destroy("nope").is_err());
        c.set_intern_strings(true);
        assert_eq!(c.version(), v1, "data, failed DDL and no-op toggles");
        c.set_intern_strings(false);
        assert!(c.version() > v1, "interning toggled");
        let v2 = c.version();
        c.destroy("emp").unwrap();
        assert!(c.version() > v2, "destroy");
        let again = c.create("emp", schema()).unwrap();
        assert!(!again.same(&emp), "a re-created relation is another");
        assert!(again.same(&c.get("emp").unwrap()));
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.create("zeta", schema()).unwrap();
        c.create("alpha", schema()).unwrap();
        assert_eq!(c.names(), vec!["alpha".to_string(), "zeta".to_string()]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }
}
