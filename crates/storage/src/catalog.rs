//! The relation catalog: named relations, creation and destruction.
//!
//! The catalog owns every relation outright. Readers — the executor, the
//! optimizer, and the discrimination network's virtual α-memories, which
//! scan base relations mid-token-propagation — take `&Relation` through
//! `&Catalog`; writers take `&mut Relation` through `&mut Catalog`. That
//! is the paper's split (match only ever *reads* relations; all writes
//! happen in the set-oriented action phase), checked by the borrow checker
//! instead of a lock: a command qualifies its rows under `&Catalog` and
//! then applies them through one of the `_mut` accessors. The engine runs
//! one transition at a time under the server's engine mutex, so the
//! catalog need only be `Send`; it is `Sync` as well, as plain data.
//!
//! Relations live in a slot vector and are named inside the engine by
//! [`RelId`] — slot plus generation — so the match path reaches a relation
//! by indexing, never by hashing or comparing its name. The name → id map
//! serves the edges only: the resolver, DDL, snapshots and rendering.

use crate::error::{StorageError, StorageResult};
use crate::relation::Relation;
use crate::schema::SchemaRef;
use std::collections::BTreeMap;
use std::fmt;

/// Identity of one relation for as long as it exists: its slot in the
/// catalog and the slot's generation. Destroying a relation bumps its
/// slot's generation, so an id held past a `destroy` never resolves again
/// — not even to a relation later created under the same name in the same
/// slot. Ids are assigned afresh by every catalog and never persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId {
    slot: u32,
    gen: u32,
}

impl RelId {
    /// An id from its parts; it resolves only where a [`Catalog`] handed
    /// out the same one.
    pub const fn new(slot: u32, gen: u32) -> Self {
        RelId { slot, gen }
    }

    /// The slot, as an index for slot-keyed vectors.
    pub fn slot(self) -> usize {
        self.slot as usize
    }

    /// The slot's generation when the relation was created.
    pub fn gen(self) -> u32 {
        self.gen
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}.{}", self.slot, self.gen)
    }
}

/// One catalog slot: its current generation and, while it is live, the
/// relation (which carries its own name).
#[derive(Debug)]
struct Slot {
    gen: u32,
    live: Option<Relation>,
}

/// Named collection of relations.
#[derive(Debug)]
pub struct Catalog {
    slots: Vec<Slot>,
    /// Dead slots, reused last-freed first.
    free: Vec<u32>,
    names: BTreeMap<String, RelId>,
    intern_strings: bool,
    /// Bumped by every change to the name → relation map and by every
    /// interning toggle (see [`Catalog::version`]).
    version: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            slots: Vec::new(),
            free: Vec::new(),
            names: BTreeMap::new(),
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
        for rel in self.slots.iter_mut().filter_map(|s| s.live.as_mut()) {
            rel.set_intern_strings(on);
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

    /// Create a relation and return its id. Errors if the name is taken.
    pub fn create(&mut self, name: &str, schema: SchemaRef) -> StorageResult<RelId> {
        if self.names.contains_key(name) {
            return Err(StorageError::RelationExists(name.to_string()));
        }
        let mut relation = Relation::new(name, schema);
        relation.set_intern_strings(self.intern_strings);
        Ok(self.house(relation))
    }

    /// Insert an already-built relation under its own name (the
    /// crash-recovery path: [`crate::wal::decode_relation`] rebuilds the
    /// relation, this re-homes it under a fresh id). Errors if the name is
    /// taken. The relation's interning flag is aligned with the catalog's,
    /// matching what [`Catalog::set_intern_strings`] would have done.
    pub fn insert_restored(&mut self, mut relation: Relation) -> StorageResult<RelId> {
        if self.names.contains_key(relation.name()) {
            return Err(StorageError::RelationExists(relation.name().to_string()));
        }
        relation.set_intern_strings(self.intern_strings);
        Ok(self.house(relation))
    }

    /// Give a relation whose name is free a slot: the last freed one, or
    /// a new one.
    fn house(&mut self, relation: Relation) -> RelId {
        let name = relation.name().to_string();
        let id = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.live = Some(relation);
                RelId::new(slot, s.gen)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 relations");
                self.slots.push(Slot {
                    gen: 0,
                    live: Some(relation),
                });
                RelId::new(slot, 0)
            }
        };
        self.names.insert(name, id);
        self.version += 1;
        id
    }

    /// Destroy a relation. Errors if it does not exist. Its slot's
    /// generation moves on, so its id resolves to nothing from now on.
    pub fn destroy(&mut self, name: &str) -> StorageResult<()> {
        let id = self
            .names
            .remove(name)
            .ok_or_else(|| StorageError::NoSuchRelation(name.to_string()))?;
        let s = &mut self.slots[id.slot()];
        s.live = None;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.version += 1;
        Ok(())
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.rel(self.id(name)?)
    }

    /// [`Catalog::get`] for writing.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.rel_mut(self.id(name)?)
    }

    /// Look up a relation by name, or a typed error.
    pub fn require(&self, name: &str) -> StorageResult<&Relation> {
        self.get(name)
            .ok_or_else(|| StorageError::NoSuchRelation(name.to_string()))
    }

    /// [`Catalog::require`] for writing.
    pub fn require_mut(&mut self, name: &str) -> StorageResult<&mut Relation> {
        self.get_mut(name)
            .ok_or_else(|| StorageError::NoSuchRelation(name.to_string()))
    }

    /// The id a name denotes now.
    pub fn id(&self, name: &str) -> Option<RelId> {
        self.names.get(name).copied()
    }

    /// The id a name denotes now, with its relation, or a typed error —
    /// what a command resolving a relation by name needs to report its
    /// changes by id.
    pub fn resolve(&self, name: &str) -> StorageResult<(RelId, &Relation)> {
        self.id(name)
            .and_then(|id| Some((id, self.rel(id)?)))
            .ok_or_else(|| StorageError::NoSuchRelation(name.to_string()))
    }

    /// [`Catalog::resolve`] for writing: how a command applies the rows it
    /// qualified under `&Catalog`.
    pub fn resolve_mut(&mut self, name: &str) -> StorageResult<(RelId, &mut Relation)> {
        let id = self
            .id(name)
            .ok_or_else(|| StorageError::NoSuchRelation(name.to_string()))?;
        Ok((id, self.rel_mut(id).expect("a named relation is live")))
    }

    /// The relation an id denotes: one index, no name. `None` once the
    /// relation is destroyed.
    pub fn rel(&self, id: RelId) -> Option<&Relation> {
        let s = self.slots.get(id.slot())?;
        s.live.as_ref().filter(|_| s.gen == id.gen)
    }

    /// [`Catalog::rel`] for writing.
    pub fn rel_mut(&mut self, id: RelId) -> Option<&mut Relation> {
        let s = self.slots.get_mut(id.slot())?;
        s.live.as_mut().filter(|_| s.gen == id.gen)
    }

    /// The name of the relation an id denotes, for rendering; `None` once
    /// the relation is destroyed.
    pub fn name(&self, id: RelId) -> Option<&str> {
        self.rel(id).map(Relation::name)
    }

    /// True iff a relation with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    /// Names of all relations, sorted.
    pub fn names(&self) -> Vec<String> {
        self.names.keys().cloned().collect()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff no relations exist.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

// The engine, storage layer included, moves between the server's session
// threads; keep the storage types' thread-safety machine-checked.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Catalog>();
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
        assert_eq!(c.require("emp").unwrap().name(), "emp");
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
        c.get_mut("emp").unwrap().insert(vec![1i64.into()]).unwrap();
        let id = c.id("emp").unwrap();
        assert_eq!(c.get("emp").unwrap().len(), 1);
        assert_eq!(c.rel(id).unwrap().len(), 1);
        c.rel_mut(id).unwrap().insert(vec![2i64.into()]).unwrap();
        assert_eq!(c.require("emp").unwrap().len(), 2);
    }

    #[test]
    fn concurrent_reads_share_a_relation() {
        let mut c = Catalog::new();
        c.create("emp", schema()).unwrap();
        let rel = c.require_mut("emp").unwrap();
        for i in 0..100i64 {
            rel.insert(vec![i.into()]).unwrap();
        }
        let c = &c;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(c.get("emp").unwrap().len(), 100);
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
        assert!(!c.require("before").unwrap().intern_strings());
        assert!(!c.require("after").unwrap().intern_strings());
        c.set_intern_strings(true);
        assert!(c.require("after").unwrap().intern_strings());
    }

    #[test]
    fn version_moves_with_names_and_interning_only() {
        let mut c = Catalog::new();
        let v0 = c.version();
        let emp = c.create("emp", schema()).unwrap();
        let v1 = c.version();
        assert!(v1 > v0, "create");
        c.rel_mut(emp).unwrap().insert(vec![1i64.into()]).unwrap();
        assert!(c.create("emp", schema()).is_err());
        assert!(c.destroy("nope").is_err());
        c.set_intern_strings(true);
        assert_eq!(c.version(), v1, "data, failed DDL and no-op toggles");
        c.set_intern_strings(false);
        assert!(c.version() > v1, "interning toggled");
        let v2 = c.version();
        c.destroy("emp").unwrap();
        assert!(c.version() > v2, "destroy");
        c.create("emp", schema()).unwrap();
        assert!(c.version() > v2, "create again");
    }

    #[test]
    fn a_recreated_relation_takes_the_next_generation() {
        let mut c = Catalog::new();
        c.create("emp", schema()).unwrap();
        c.create("dept", schema()).unwrap();
        let old = c.id("emp").unwrap();
        assert_eq!(c.name(old), Some("emp"));
        c.destroy("emp").unwrap();
        assert!(c.rel(old).is_none(), "a destroyed id resolves to nothing");
        assert!(c.name(old).is_none());
        c.create("emp", Schema::of(&[("y", AttrType::Str)]))
            .unwrap();
        let new = c.id("emp").unwrap();
        assert_eq!(new.slot(), old.slot(), "the freed slot is reused");
        assert_eq!(new.gen(), old.gen() + 1, "under the next generation");
        assert!(
            c.rel(old).is_none(),
            "the stale id still resolves to nothing"
        );
        assert_eq!(c.rel(new).unwrap().schema().attr(0).name, "y");
        let (id, rel) = c.resolve("dept").unwrap();
        assert_eq!(rel.name(), "dept");
        assert_eq!(c.rel(id).unwrap().name(), "dept");
        let (mid, rel) = c.resolve_mut("dept").unwrap();
        assert_eq!((mid, rel.name()), (id, "dept"));
        assert!(c.rel_mut(old).is_none());
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
