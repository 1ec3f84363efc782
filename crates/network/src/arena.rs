//! Per-transition scratch arenas.
//!
//! Every transition the match path builds and throws away the same shapes
//! of scratch: candidate α-memory lists from the selection network,
//! partially-bound row slots, and join-result buffers. Allocating these
//! fresh per token puts the allocator on the hot path; the pools here
//! recycle the buffers instead — `take` hands back a previously-used
//! buffer (cleared, capacity intact), `give` returns it.
//!
//! Pools live in `thread_local!` storage at their use sites: the match path
//! runs on whichever thread holds the engine (a server session thread, the
//! REPL's main thread), and each such thread reuses its own buffers across
//! transitions without any cross-thread synchronization. Dropping a thread
//! drops its arena.
//!
//! Stats (takes / reuses / high-water bytes) are global atomics so the
//! "peak scratch" figure in `BENCH_mem.json` aggregates across threads.

use crate::alpha::AlphaId;
use ariel_islist::Counter;
use ariel_query::BoundVar;
use std::cell::RefCell;

/// Global arena counters (all threads).
#[derive(Debug, Default)]
struct GlobalStats {
    takes: Counter,
    reuses: Counter,
    high_water: Counter,
}

fn global() -> &'static GlobalStats {
    static STATS: std::sync::OnceLock<GlobalStats> = std::sync::OnceLock::new();
    STATS.get_or_init(GlobalStats::default)
}

/// Snapshot of the arena counters, aggregated across every thread that
/// has touched a pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out.
    pub takes: u64,
    /// Hand-outs served by recycling (the rest were fresh allocations).
    pub reuses: u64,
    /// High-water mark of bytes retained across all pools.
    pub high_water_bytes: u64,
}

/// Read the global arena counters.
pub fn stats() -> ArenaStats {
    let g = global();
    ArenaStats {
        takes: g.takes.get(),
        reuses: g.reuses.get(),
        high_water_bytes: g.high_water.get(),
    }
}

/// Zero the take/reuse counters (the high-water mark is monotone and is
/// left alone — it tracks peak retained scratch for the process).
pub fn reset_stats() {
    let g = global();
    g.takes.set(0);
    g.reuses.set(0);
}

/// A recycling pool of `Vec<T>` buffers. Single-threaded by design —
/// instances live in `thread_local!` cells (see [`with_pool`]).
#[derive(Debug)]
pub struct Pool<T> {
    free: Vec<Vec<T>>,
    /// Bytes retained by the free list (capacity × element size).
    retained: usize,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            free: Vec::new(),
            retained: 0,
        }
    }
}

/// Cap on buffers retained per pool: enough to cover the deepest join
/// nesting plus per-batch buffers, while bounding idle memory.
const MAX_RETAINED: usize = 64;

impl<T> Pool<T> {
    /// Hand out a cleared buffer, recycled when one is available.
    pub fn take(&mut self) -> Vec<T> {
        let g = global();
        g.takes.add(1);
        match self.free.pop() {
            Some(buf) => {
                g.reuses.add(1);
                self.retained -= buf.capacity() * std::mem::size_of::<T>();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Return a buffer to the pool. Contents are dropped; capacity is
    /// retained for the next [`Pool::take`].
    pub fn give(&mut self, mut buf: Vec<T>) {
        if self.free.len() >= MAX_RETAINED {
            return; // drop it — keep idle retention bounded
        }
        buf.clear();
        self.retained += buf.capacity() * std::mem::size_of::<T>();
        self.free.push(buf);
        let g = global();
        // monotone high-water over this pool's retained bytes; races
        // between threads can only under-report transiently, which is
        // fine for a peak estimate
        if self.retained as u64 > g.high_water.get() {
            g.high_water.set(self.retained as u64);
        }
    }

    /// Bytes currently retained on the free list.
    pub fn retained_bytes(&self) -> usize {
        self.retained
    }
}

/// Run `f` with the calling thread's pool for element type `T`, as
/// selected by the `thread_local!` cell the caller owns. Helper that
/// centralizes the `RefCell` discipline at the use sites:
///
/// ```ignore
/// thread_local! {
///     static ROWS: RefCell<Pool<Row>> = RefCell::new(Pool::default());
/// }
/// let buf = with_pool(&ROWS, Pool::take);
/// // ... use buf ...
/// with_pool(&ROWS, |p| p.give(buf));
/// ```
pub fn with_pool<T, R>(
    key: &'static std::thread::LocalKey<RefCell<Pool<T>>>,
    f: impl FnOnce(&mut Pool<T>) -> R,
) -> R {
    key.with(|cell| f(&mut cell.borrow_mut()))
}

// ---- the match path's concrete arenas -----------------------------------
//
// One `thread_local!` per scratch shape, on the thread running the match.

thread_local! {
    static CANDIDATES: RefCell<Pool<AlphaId>> = RefCell::new(Pool::default());
    static ROW_SLOTS: RefCell<Pool<Option<BoundVar>>> = RefCell::new(Pool::default());
    static RESULTS: RefCell<Pool<Vec<BoundVar>>> = RefCell::new(Pool::default());
}

/// Take a selection-network candidate buffer from this thread's arena.
pub fn take_candidates() -> Vec<AlphaId> {
    with_pool(&CANDIDATES, Pool::take)
}

/// Return a candidate buffer.
pub fn give_candidates(buf: Vec<AlphaId>) {
    with_pool(&CANDIDATES, |p| p.give(buf));
}

/// Take a partial-row slot buffer (`Row::slots` backing store).
pub fn take_row_slots() -> Vec<Option<BoundVar>> {
    with_pool(&ROW_SLOTS, Pool::take)
}

/// Return a row-slot buffer.
pub fn give_row_slots(buf: Vec<Option<BoundVar>>) {
    with_pool(&ROW_SLOTS, |p| p.give(buf));
}

/// Take a join-results buffer (one instantiation per element).
pub fn take_results() -> Vec<Vec<BoundVar>> {
    with_pool(&RESULTS, Pool::take)
}

/// Return a results buffer (contained instantiations are dropped).
pub fn give_results(buf: Vec<Vec<BoundVar>>) {
    with_pool(&RESULTS, |p| p.give(buf));
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static TEST_POOL: RefCell<Pool<u64>> = RefCell::new(Pool::default());
    }

    #[test]
    fn take_give_recycles_capacity() {
        let mut pool: Pool<u64> = Pool::default();
        let mut a = pool.take();
        a.extend(0..100);
        let cap = a.capacity();
        pool.give(a);
        assert!(pool.retained_bytes() >= cap * 8);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert!(b.capacity() >= cap, "capacity survives the round trip");
        assert_eq!(pool.retained_bytes(), 0);
    }

    #[test]
    fn retention_is_bounded() {
        let mut pool: Pool<u64> = Pool::default();
        for _ in 0..(MAX_RETAINED + 10) {
            pool.give(vec![1u64]);
        }
        assert!(pool.free.len() <= MAX_RETAINED);
    }

    #[test]
    fn stats_track_reuse() {
        let before = stats();
        let mut pool: Pool<u64> = Pool::default();
        let a = pool.take(); // fresh
        pool.give(a);
        let b = pool.take(); // recycled
        pool.give(b);
        let after = stats();
        assert!(after.takes >= before.takes + 2);
        assert!(after.reuses > before.reuses);
    }

    #[test]
    fn thread_local_helper_round_trips() {
        let mut buf = with_pool(&TEST_POOL, Pool::take);
        buf.push(7);
        with_pool(&TEST_POOL, |p| p.give(buf));
        let again = with_pool(&TEST_POOL, Pool::take);
        assert!(again.is_empty());
        with_pool(&TEST_POOL, |p| p.give(again));
    }
}
