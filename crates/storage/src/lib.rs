//! # ariel-storage
//!
//! In-memory relational storage substrate for the Ariel active-DBMS
//! reproduction (Hanson, SIGMOD 1992).
//!
//! The 1992 prototype sat on the EXODUS storage manager; this crate is its
//! stand-in. It provides exactly the surface the rule system needs:
//!
//! * typed [`Value`]s and immutable, cheaply-shared [`Tuple`]s,
//! * heap [`Relation`]s with **stable tuple identifiers** ([`Tid`]) — the
//!   handle the paper's `replace'`/`delete'` commands use to update data
//!   located through the P-node without re-scanning the target relation,
//! * hash and B-tree secondary [`Index`]es, maintained across DML, and
//! * a named [`Catalog`] of relations.
//!
//! Everything is in-memory during normal operation; the [`wal`] module adds
//! an opt-in write-ahead log and snapshot codec for crash recovery (see
//! docs/DURABILITY.md). Persistence stays orthogonal to every quantity the
//! paper measures (see DESIGN.md §2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod error;
pub mod fx;
pub mod index;
pub mod intern;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod wal;

pub use catalog::{Catalog, RelId};
pub use error::{StorageError, StorageResult};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{Index, IndexKind};
pub use intern::{intern, InternStats, Symbol};
pub use relation::Relation;
pub use schema::{AttrDef, AttrType, Schema, SchemaRef};
pub use tuple::{Tid, Tuple};
pub use value::Value;
pub use wal::{Durability, WalScan, WalWriter};
