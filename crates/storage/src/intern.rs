//! Global string interning: the symbol table behind `Value::Sym`.
//!
//! The match path tests, hashes and compares the same handful of string
//! values (department names, job titles, channel names) millions of times
//! per benchmark run. Interning replaces each distinct string with a
//! [`Symbol`] — a `Copy` handle carrying the table id and the cached
//! content hash — so equality is one integer compare, hashing is one
//! integer fold, and an α-memory entry no longer owns a heap copy of the
//! string (the side table owns the single canonical copy).
//!
//! The table is global and append-only: interned strings live for the
//! process (`Box::leak`), which is exactly the lifetime of the rule
//! network that keys on them. Lookups on the hot path never touch the
//! table at all — the id and the hash travel inside the `Symbol`; only
//! ordering, display and `as_str` resolve through it.

use crate::fx;
use std::collections::HashMap;
#[allow(clippy::disallowed_types)] // the symbol table's lock, see `table`
use std::sync::{OnceLock, RwLock};

/// An interned string: a dense table id plus the cached Fx content hash.
///
/// Two symbols are equal iff their ids are equal (the table never maps one
/// string to two ids). The hash rides along so `Value::Sym` can feed
/// hashers without a table lookup; it equals [`fx::hash_bytes`] of the
/// string's bytes, which is also what `Value::Str` hashes — so a live
/// string and its interned twin land in the same hash bucket.
#[derive(Debug, Clone, Copy)]
pub struct Symbol {
    id: u32,
    hash: u64,
}

impl Symbol {
    /// Dense table id (0-based, in first-interned order).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Cached content hash (`fx::hash_bytes` of the string's bytes).
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// The interned string. `'static` because the table leaks its strings
    /// for the life of the process.
    pub fn as_str(&self) -> &'static str {
        table()
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .resolve(self.id)
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.hash.hash(state);
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Size snapshot of the global symbol table (for `\stats bytes` and
/// `BENCH_mem.json`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct strings interned so far.
    pub symbols: usize,
    /// Total bytes held by the table: string payloads plus the per-entry
    /// bookkeeping (`&'static str` in the vec, map entry).
    pub bytes: usize,
}

#[derive(Default)]
struct Interner {
    /// Content → id. Keys borrow the leaked strings, so each string is
    /// stored once.
    map: HashMap<&'static str, u32, fx::FxBuildHasher>,
    /// Id → content, dense.
    strs: Vec<&'static str>,
    /// Cumulative payload bytes (string contents only).
    payload: usize,
}

// The one shared table of the process: every engine's `Value::Sym`
// resolves through it, from whichever thread holds that engine.
#[allow(clippy::disallowed_types)]
fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(Interner::default()))
}

impl Interner {
    fn resolve(&self, id: u32) -> &'static str {
        self.strs[id as usize]
    }
}

/// Intern a string, returning its symbol. Idempotent: the same content
/// always yields the same id. Thread-safe; concurrent interns of new
/// strings serialize on a write lock, repeat interns take a read lock.
pub fn intern(s: &str) -> Symbol {
    let hash = fx::hash_bytes(s.as_bytes());
    {
        let t = table().read().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = t.map.get(s) {
            return Symbol { id, hash };
        }
    }
    let mut t = table().write().unwrap_or_else(|e| e.into_inner());
    if let Some(&id) = t.map.get(s) {
        return Symbol { id, hash };
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let id = u32::try_from(t.strs.len()).expect("interner overflow: > 4G distinct strings");
    t.strs.push(leaked);
    t.map.insert(leaked, id);
    t.payload += leaked.len();
    Symbol { id, hash }
}

/// Rebuild a symbol from a table id (used by `SmallKey` decoding). Panics
/// if the id was never issued by [`intern`].
pub fn symbol_from_id(id: u32) -> Symbol {
    let t = table().read().unwrap_or_else(|e| e.into_inner());
    let s = t.resolve(id);
    Symbol {
        id,
        hash: fx::hash_bytes(s.as_bytes()),
    }
}

/// Size snapshot of the global table.
pub fn stats() -> InternStats {
    let t = table().read().unwrap_or_else(|e| e.into_inner());
    let per_entry = std::mem::size_of::<&'static str>() // strs vec slot
        + std::mem::size_of::<(&'static str, u32)>(); // map entry, approx.
    InternStats {
        symbols: t.strs.len(),
        bytes: t.payload + t.strs.len() * per_entry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotent_and_distinct() {
        let a = intern("alpha-intern-test");
        let b = intern("alpha-intern-test");
        let c = intern("beta-intern-test");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alpha-intern-test");
        assert_eq!(c.as_str(), "beta-intern-test");
    }

    #[test]
    fn hash_matches_content_hash() {
        let s = "gamma-intern-test";
        let sym = intern(s);
        assert_eq!(sym.content_hash(), fx::hash_bytes(s.as_bytes()));
        // the Hash impl writes exactly the content hash
        use std::hash::{Hash, Hasher};
        let mut h = fx::FxHasher::default();
        sym.hash(&mut h);
        let mut h2 = fx::FxHasher::default();
        sym.content_hash().hash(&mut h2);
        assert_eq!(h.finish(), h2.finish());
    }

    #[test]
    fn from_id_round_trips() {
        let sym = intern("delta-intern-test");
        let back = symbol_from_id(sym.id());
        assert_eq!(sym, back);
        assert_eq!(back.content_hash(), sym.content_hash());
    }

    #[test]
    fn stats_grow() {
        let before = stats();
        intern("epsilon-intern-test-unique-payload");
        let after = stats();
        assert!(after.symbols >= before.symbols);
        assert!(after.bytes > 0);
    }

    #[test]
    fn concurrent_intern_is_consistent() {
        let ids: Vec<u32> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| scope.spawn(|| intern("zeta-concurrent-test").id()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
