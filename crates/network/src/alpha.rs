//! α-memory nodes — all seven kinds of §4.3.3.
//!
//! | kind            | stores                      | lifetime            |
//! |-----------------|-----------------------------|---------------------|
//! | `stored-α`      | matching tuples             | persistent          |
//! | `virtual-α`     | nothing (predicate only)    | —                   |
//! | `dynamic-on-α`  | event-matched tuples        | current transition  |
//! | `dynamic-trans-α`| transition pairs           | current transition  |
//! | `simple-α`      | nothing (straight to P-node)| —                   |
//! | `simple-on-α`   | nothing                     | (P-node flushed)    |
//! | `simple-trans-α`| nothing                     | (P-node flushed)    |
//!
//! Entries are keyed by TID: deletion-polarity tokens remove by TID, which
//! sidesteps value-matching fragility when the same tuple is modified in
//! several transitions of one recognize-act cycle.

use crate::key::{KeyBuilder, SmallKey};
use crate::pred::SelectionPredicate;
use crate::store::StoreSlot;
use crate::token::{EventSpecifier, TokenKind};
use ariel_islist::{Counter, Histogram, Interval, IntervalId, IntervalSkipList};
use ariel_storage::{FxHashMap, RelId, Tid, Tuple, Value};
use std::fmt;
use std::ops::Bound;

/// Identifier of a rule within the network (assigned by the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u64);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of an α-memory node (network-arena index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AlphaId(pub usize);

/// The seven α-memory kinds of §4.3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlphaKind {
    /// Standard memory node: collection of tuples matching the predicate.
    Stored,
    /// Virtual memory node: predicate only, contents derived from the base
    /// relation on demand (§4.2).
    Virtual,
    /// Dynamic node for an ON condition; flushed after each transition.
    DynamicOn,
    /// Dynamic node for a transition condition; flushed after each
    /// transition.
    DynamicTrans,
    /// Single-tuple-variable rule: matches go straight to the P-node.
    Simple,
    /// Single-variable ON condition.
    SimpleOn,
    /// Single-variable transition condition.
    SimpleTrans,
}

impl AlphaKind {
    /// Whether this kind keeps a tuple collection.
    pub fn stores_entries(&self) -> bool {
        matches!(
            self,
            AlphaKind::Stored | AlphaKind::DynamicOn | AlphaKind::DynamicTrans
        )
    }

    /// Whether the node's contents (and derived P-node rows) only live for
    /// the current transition.
    pub fn is_dynamic(&self) -> bool {
        matches!(
            self,
            AlphaKind::DynamicOn
                | AlphaKind::DynamicTrans
                | AlphaKind::SimpleOn
                | AlphaKind::SimpleTrans
        )
    }

    /// Whether this is one of the single-variable (`simple-`) kinds.
    pub fn is_simple(&self) -> bool {
        matches!(
            self,
            AlphaKind::Simple | AlphaKind::SimpleOn | AlphaKind::SimpleTrans
        )
    }

    /// Whether this kind represents a transition condition (accepts only Δ
    /// tokens; Fig. 5 marks ± tokens as "don't care").
    pub fn is_trans(&self) -> bool {
        matches!(self, AlphaKind::DynamicTrans | AlphaKind::SimpleTrans)
    }

    /// Whether this kind represents an ON (event) condition.
    pub fn is_on(&self) -> bool {
        matches!(self, AlphaKind::DynamicOn | AlphaKind::SimpleOn)
    }
}

/// Event requirement of an ON-condition node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventReq {
    /// Requires an append event.
    Append,
    /// Requires a delete event.
    Delete,
    /// `replace [(attrs)]` — positions of the watched attributes, `None` to
    /// watch every attribute.
    Replace(Option<Vec<usize>>),
}

impl EventReq {
    /// Whether a token's event specifier satisfies this requirement.
    pub fn admits(&self, ev: &EventSpecifier) -> bool {
        match (self, ev) {
            (EventReq::Append, EventSpecifier::Append) => true,
            (EventReq::Delete, EventSpecifier::Delete) => true,
            (EventReq::Replace(None), EventSpecifier::Replace(_)) => true,
            (EventReq::Replace(Some(watch)), EventSpecifier::Replace(updated)) => {
                // empty updated list = unknown set of attributes: admit
                updated.is_empty() || watch.iter().any(|a| updated.contains(a))
            }
            _ => false,
        }
    }
}

/// One entry in a dynamic α-memory or a Rete α-memory. A TREAT stored
/// memory keeps no entries, only TIDs (see `crate::store`).
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaEntry {
    /// TID of the bound tuple; `None` for tuples bound by ON DELETE (the
    /// tuple no longer exists).
    pub tid: Option<Tid>,
    /// Current tuple value.
    pub tuple: Tuple,
    /// Start-of-transition value (Δ-token entries).
    pub prev: Option<Tuple>,
}

impl AlphaEntry {
    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.tuple.heap_size()
            + self.prev.as_ref().map_or(0, Tuple::heap_size)
    }
}

/// Always-on per-node counters. [`Counter`]s because the join routines
/// hold `&self`.
#[derive(Debug, Clone, Default)]
pub struct AlphaCounters {
    /// α-tests run against this node (selection-network candidates).
    pub tests: Counter,
    /// α-tests that passed (event gating + predicate).
    pub passes: Counter,
    /// Entries inserted into the stored memory.
    pub inserted: Counter,
    /// β-join materializations of this node from its base relation
    /// (virtual nodes only).
    pub virtual_scans: Counter,
    /// Base-relation tuples examined during those materializations.
    pub scanned_tuples: Counter,
    /// Candidate bindings served into β-joins (stored or materialized).
    pub join_candidates: Counter,
    /// Hash join-index probes answered by this node (α-memory join index
    /// for stored/dynamic kinds, base-relation index for virtual kinds).
    pub index_probes: Counter,
    /// Index probes that found at least one candidate.
    pub index_hits: Counter,
    /// Join candidates served through an index probe.
    pub indexed_candidates: Counter,
    /// Join candidates served by full enumeration (no usable index).
    pub scanned_candidates: Counter,
    /// Interval-index stabbing probes answered by this node (band joins).
    pub range_probes: Counter,
    /// Range probes that found at least one candidate.
    pub range_hits: Counter,
}

impl AlphaCounters {
    #[inline]
    pub(crate) fn bump(c: &Counter, by: u64) {
        c.add(by);
    }
}

/// A node's timing histograms (nanoseconds), kept only while the timing
/// tier is on. Their sample counts equal `tests` and `virtual_scans` of
/// the node's [`AlphaCounters`] over the same span.
#[derive(Debug, Clone, Default)]
pub struct AlphaTiming {
    /// One α-test: event gating plus the residual predicate.
    pub alpha_test: Histogram,
    /// One virtual materialization during a β-join, including the join
    /// depths below it (the join streams each candidate downward).
    pub virtual_scan: Histogram,
}

/// One hash join index: composite equi-join key (one component per
/// registered attribute, in registration order, packed as a [`SmallKey`])
/// → entry-map keys (ON DELETE entries have no TID but are still keyed by
/// the dying token's TID, so buckets hold the map key, not
/// `AlphaEntry::tid`). A single-attribute index is just the one-element
/// special case. Keys are flat — building one neither allocates nor clones
/// string payloads in the common case — and buckets hash with the Fx fold
/// (trusted internal keys; see `storage::fx`). Node-local on dynamic
/// memories and Rete α-memories; shared per relation by TREAT's stored
/// memories (see [`crate::store`]).
#[derive(Debug)]
pub(crate) struct JoinIndex {
    pub(crate) attrs: Vec<usize>,
    buckets: FxHashMap<SmallKey, Vec<u64>>,
    /// Keys currently indexed — the keys added minus those whose tuple has
    /// a Null component. Bucket-size estimates divide by this, not by the
    /// raw entry count: a null-heavy memory would otherwise look like it
    /// had huge buckets (the never-indexed entries are unreachable through
    /// the index, so they cost a probe nothing).
    indexed: usize,
}

impl JoinIndex {
    pub(crate) fn new(attrs: Vec<usize>) -> JoinIndex {
        JoinIndex {
            attrs,
            buckets: FxHashMap::default(),
            indexed: 0,
        }
    }

    /// Pack the composite key of `tuple` under this index's attribute
    /// tuple, or `None` when a component is Null (`sql_eq` says Null joins
    /// nothing, so the entry is unreachable through the index anyway).
    pub(crate) fn key_of(&self, tuple: &Tuple) -> Option<SmallKey> {
        let mut b = KeyBuilder::new(self.attrs.len());
        for &attr in &self.attrs {
            let v = tuple.get(attr);
            if v.is_null() {
                return None;
            }
            b.push(v);
        }
        Some(b.finish())
    }

    pub(crate) fn add(&mut self, key: u64, tuple: &Tuple) {
        if let Some(composite) = self.key_of(tuple) {
            self.buckets.entry(composite).or_default().push(key);
            self.indexed += 1;
        }
    }

    pub(crate) fn remove(&mut self, key: u64, tuple: &Tuple) {
        let Some(composite) = self.key_of(tuple) else {
            return;
        };
        if let Some(bucket) = self.buckets.get_mut(&composite) {
            if let Some(pos) = bucket.iter().position(|k| *k == key) {
                bucket.remove(pos);
                self.indexed -= 1;
            }
            if bucket.is_empty() {
                self.buckets.remove(&composite);
            }
        }
    }

    /// The entry-map keys filed under the composite `key`; empty for a
    /// key with a Null component.
    pub(crate) fn bucket(&self, key: &SmallKey) -> &[u64] {
        if key.has_null() {
            return &[];
        }
        self.buckets.get(key).map_or(&[], Vec::as_slice)
    }

    /// Keep only the keys `keep` accepts, dropping emptied buckets.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let mut dropped = 0;
        self.buckets.retain(|_, bucket| {
            let n = bucket.len();
            bucket.retain(|&k| keep(k));
            dropped += n - bucket.len();
            !bucket.is_empty()
        });
        self.indexed -= dropped;
    }

    /// Distinct keys and keys indexed under them.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.buckets.len(), self.indexed)
    }

    /// Indexed keys ÷ distinct keys, rounded up; 0 when empty.
    fn expected_bucket_size(&self) -> usize {
        let (distinct, indexed) = self.shape();
        if distinct == 0 {
            0
        } else {
            indexed.div_ceil(distinct)
        }
    }

    /// Every `(composite key, bucket)` pair (invariant checks).
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (&SmallKey, &[u64])> {
        self.buckets.iter().map(|(k, v)| (k, v.as_slice()))
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.indexed = 0;
    }

    /// Approximate heap footprint: each bucket is charged the *inline*
    /// size of its [`SmallKey`] plus any boxed spill (`SmallKey::heap_bytes`
    /// — zero on the packed path, which is where the flat-key layout saves
    /// its bytes), and each key list is charged its *capacity*, not its
    /// length — `Vec` growth doubles, and the slack is real memory.
    pub(crate) fn bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|(k, v)| {
                std::mem::size_of::<SmallKey>()
                    + k.heap_bytes()
                    + std::mem::size_of::<Vec<u64>>()
                    + v.capacity() * std::mem::size_of::<u64>()
            })
            .sum()
    }
}

/// Shape of a band-join access path over a stored memory: each entry spans
/// the interval from its `lo_attr` value to its `hi_attr` value, and a
/// probe key `x` matches exactly the entries whose conjunct pair
/// `e.lo OP x` / `x OP' e.hi` holds. `lo_strict` means the lower conjunct
/// was `<` (interval bound `Excluded`); likewise `hi_strict` for the upper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BandShape {
    /// Attribute supplying the entry's lower endpoint.
    pub lo_attr: usize,
    /// Lower conjunct is strict (`e.lo < x` rather than `e.lo <= x`).
    pub lo_strict: bool,
    /// Attribute supplying the entry's upper endpoint.
    pub hi_attr: usize,
    /// Upper conjunct is strict (`x < e.hi` rather than `x <= e.hi`).
    pub hi_strict: bool,
}

impl BandShape {
    /// The interval an entry's tuple spans under this shape; `None` when a
    /// bound is Null (comparison with Null is false → the entry can never
    /// satisfy the conjunct pair) or the interval is empty.
    pub(crate) fn interval_of(&self, tuple: &Tuple) -> Option<Interval<Value>> {
        let lo = tuple.get(self.lo_attr);
        let hi = tuple.get(self.hi_attr);
        if lo.is_null() || hi.is_null() {
            return None;
        }
        let lo = if self.lo_strict {
            Bound::Excluded(lo.clone())
        } else {
            Bound::Included(lo.clone())
        };
        let hi = if self.hi_strict {
            Bound::Excluded(hi.clone())
        } else {
            Bound::Included(hi.clone())
        };
        Interval::new(lo, hi)
    }
}

/// Interval-skip-list index (Hanson's IBS-tree line of work, reused from
/// the selection network) turning a band join into a stabbing query: each
/// entry contributes the interval `(lo_attr .. hi_attr)` and a probe stabs
/// with the opposite side's key value.
#[derive(Debug)]
struct RangeIndex {
    shape: BandShape,
    islist: IntervalSkipList<Value>,
    /// entry-map key → its interval (entries with Null/empty spans absent).
    by_entry: FxHashMap<u64, IntervalId>,
    /// interval → entry-map key, for serving stab results.
    by_interval: FxHashMap<IntervalId, u64>,
}

/// An α-memory node.
#[derive(Debug)]
pub struct AlphaNode {
    /// The rule the node was built for. A Rete node has this one owner;
    /// TREAT shares a node among rule variables and keeps the list of
    /// them beside the node (`crate::treat`), reading that instead.
    pub rule: RuleId,
    /// Variable index within that rule's condition.
    pub var: usize,
    /// Relation this node watches.
    pub rel: RelId,
    /// Node kind.
    pub kind: AlphaKind,
    /// The single-variable selection predicate (variable remapped to 0).
    pub pred: SelectionPredicate,
    /// Event requirement for ON-condition nodes.
    pub event: Option<EventReq>,
    /// Always-on activity counters.
    pub counters: AlphaCounters,
    /// Timing histograms, while the timing tier is on.
    pub timing: Option<Box<AlphaTiming>>,
    contents: Contents,
    /// Node-local hash join indexes over the entries, one per registered
    /// equi-join attribute set. Maintained incrementally by
    /// [`Self::insert`], [`Self::remove`] and [`Self::flush`]. Keys with a
    /// Null component are never indexed — `sql_eq` says `Null` joins
    /// nothing, so such an entry can only be reached by a probing conjunct
    /// that is false anyway. Always empty on a memory that holds TIDs: its
    /// relation's store keeps the hash indexes.
    join_indexes: Vec<JoinIndex>,
    /// Interval indexes over the held tuples, one per registered band
    /// shape, each filing a tuple under its TID.
    range_indexes: Vec<RangeIndex>,
}

/// What a memory holds. Which one is fixed when the network builds the
/// node, by its kind: TREAT's stored memories hold TIDs, every other
/// memory that stores anything holds entries.
#[derive(Debug)]
enum Contents {
    /// Entries carrying their own tuple handle and `prev` value: dynamic
    /// memories (an ON DELETE memory holds dead tuples, a transition
    /// memory Δ pairs — values no relation has) and Rete's α-memories.
    Entries(FxHashMap<u64, AlphaEntry>),
    /// TIDs only, as the heap slots they name: a TREAT stored memory. The
    /// relation keeps each member's tuple and generation by slot; the
    /// [`crate::store`] slot keeps the shared join indexes.
    Tids { slot: StoreSlot, slots: SlotSet },
}

/// A set of heap slots, kept as its nonzero 64-bit words only: word `w`
/// (slots `64w .. 64w + 64`) is stored while it holds a member. A summary
/// bit per word says which are stored, and each summary word carries the
/// count of stored words before it, so a word is found in O(1). The set's
/// bytes and its enumeration follow its members — a word per occupied
/// run of 64 slots, plus 12 B per 4 096 slots up to the highest — not the
/// relation's slots. Each vector doubles as it grows, and a set is
/// charged what it has allocated.
#[derive(Debug, Default)]
pub(crate) struct SlotSet {
    /// Bit `w % 64` of entry `w / 64`: word `w` is stored.
    summary: Vec<u64>,
    /// Per summary entry: the stored words before its first.
    before: Vec<u32>,
    /// The stored words, ascending.
    words: Vec<u64>,
    len: usize,
}

/// Make room in `v` for `need` elements: double, starting from what is
/// needed (most sets fit in one word and one summary entry).
fn reserve_doubling<T>(v: &mut Vec<T>, need: usize) {
    if need > v.capacity() {
        let cap = need.max(2 * v.capacity());
        v.reserve_exact(cap - v.len());
    }
}

impl SlotSet {
    /// Where word `w` lies (or would go) in `words`, and whether it is
    /// stored.
    #[inline]
    fn locate(&self, w: usize) -> (usize, bool) {
        let (g, bit) = (w / 64, 1u64 << (w % 64));
        match self.summary.get(g) {
            Some(&sum) => (
                self.before[g] as usize + (sum & (bit - 1)).count_ones() as usize,
                sum & bit != 0,
            ),
            None => (self.words.len(), false),
        }
    }

    /// Add `slot`; returns whether it was already in the set.
    pub(crate) fn insert(&mut self, slot: usize) -> bool {
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        let (pos, stored) = self.locate(w);
        if stored {
            let again = self.words[pos] & bit != 0;
            if !again {
                self.words[pos] |= bit;
                self.len += 1;
            }
            return again;
        }
        let g = w / 64;
        if g >= self.summary.len() {
            reserve_doubling(&mut self.summary, g + 1);
            reserve_doubling(&mut self.before, g + 1);
            self.summary.resize(g + 1, 0);
            self.before.resize(g + 1, self.words.len() as u32);
        }
        self.summary[g] |= 1 << (w % 64);
        for b in &mut self.before[g + 1..] {
            *b += 1;
        }
        let need = self.words.len() + 1;
        reserve_doubling(&mut self.words, need);
        self.words.insert(pos, bit);
        self.len += 1;
        false
    }

    /// Drop `slot`; returns whether it was in the set. A word left empty
    /// is dropped with it.
    pub(crate) fn remove(&mut self, slot: usize) -> bool {
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        let (pos, stored) = self.locate(w);
        if !stored || self.words[pos] & bit == 0 {
            return false;
        }
        self.words[pos] &= !bit;
        self.len -= 1;
        if self.words[pos] == 0 {
            self.words.remove(pos);
            let g = w / 64;
            self.summary[g] &= !(1 << (w % 64));
            for b in &mut self.before[g + 1..] {
                *b -= 1;
            }
        }
        true
    }

    #[inline]
    pub(crate) fn contains(&self, slot: usize) -> bool {
        let (pos, stored) = self.locate(slot / 64);
        stored && self.words[pos] & (1u64 << (slot % 64)) != 0
    }

    /// Number of slots in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slots in ascending order.
    pub(crate) fn iter(&self) -> Slots<'_> {
        Slots {
            index: Ones {
                words: &self.summary,
                base: 0,
                word: 0,
            },
            words: self.words.iter(),
            base: 0,
            word: 0,
        }
    }

    /// Bytes the set has allocated.
    pub(crate) fn bytes(&self) -> usize {
        self.summary.capacity() * std::mem::size_of::<u64>()
            + self.before.capacity() * std::mem::size_of::<u32>()
            + self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// The set bits of a word slice, ascending.
struct Ones<'a> {
    /// The words not yet loaded.
    words: &'a [u64],
    /// Bit index of bit 0 of the next word loaded.
    base: usize,
    /// The loaded word's bits not yet yielded, its bit 0 at `base - 64`.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&next, rest) = self.words.split_first()?;
            self.word = next;
            self.words = rest;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base - 64 + bit)
    }
}

/// The slots of a [`SlotSet`], ascending: the summary names each stored
/// word in turn, and the word its slots.
pub(crate) struct Slots<'a> {
    /// Indexes of the stored words not yet loaded.
    index: Ones<'a>,
    words: std::slice::Iter<'a, u64>,
    /// Slot of bit 0 of the loaded word.
    base: usize,
    /// The loaded word's bits not yet yielded.
    word: u64,
}

impl Iterator for Slots<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.base = self.index.next()? * 64;
            self.word = *self.words.next().expect("a stored word per summary bit");
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl AlphaNode {
    /// Create a node holding entries, none yet (TREAT makes a stored
    /// memory hold TIDs instead, with `share`).
    pub fn new(
        rule: RuleId,
        var: usize,
        rel: RelId,
        kind: AlphaKind,
        pred: SelectionPredicate,
        event: Option<EventReq>,
    ) -> Self {
        AlphaNode {
            rule,
            var,
            rel,
            kind,
            pred,
            event,
            counters: AlphaCounters::default(),
            timing: None,
            contents: Contents::Entries(FxHashMap::default()),
            join_indexes: Vec::new(),
            range_indexes: Vec::new(),
        }
    }

    /// Make this memory hold TIDs over its relation's store slot instead
    /// of entries. Called at rule-compile time, before anything is held.
    pub(crate) fn share(&mut self, slot: StoreSlot) {
        debug_assert!(self.is_empty(), "share a memory before priming");
        self.contents = Contents::Tids {
            slot,
            slots: SlotSet::default(),
        };
    }

    /// The store slot keeping this memory's tuples; `None` for a memory
    /// that holds entries.
    pub(crate) fn store_slot(&self) -> Option<StoreSlot> {
        match &self.contents {
            Contents::Tids { slot, .. } => Some(*slot),
            Contents::Entries(_) => None,
        }
    }

    fn own(&self) -> &FxHashMap<u64, AlphaEntry> {
        match &self.contents {
            Contents::Entries(entries) => entries,
            Contents::Tids { .. } => unreachable!("a TID memory's tuples live in its relation"),
        }
    }

    fn own_mut(&mut self) -> &mut FxHashMap<u64, AlphaEntry> {
        match &mut self.contents {
            Contents::Entries(entries) => entries,
            Contents::Tids { .. } => unreachable!("a TID memory's tuples live in its relation"),
        }
    }

    /// Register the (composite) equi-join attribute sets this memory should
    /// index. Called at rule-compile time, before any entry is inserted
    /// (the network extracts the sets from the rule's equi-join conjuncts).
    /// Duplicate sets collapse to one index.
    pub fn set_join_indexes(&mut self, attr_sets: Vec<Vec<usize>>) {
        debug_assert!(self.is_empty(), "register indexes before priming");
        debug_assert!(self.store_slot().is_none(), "a TID memory's store indexes");
        let mut seen: Vec<Vec<usize>> = Vec::new();
        self.join_indexes = attr_sets
            .into_iter()
            .filter(|attrs| {
                if attrs.is_empty() || seen.contains(attrs) {
                    return false;
                }
                seen.push(attrs.clone());
                true
            })
            .map(JoinIndex::new)
            .collect();
    }

    /// Register the band shapes this memory should interval-index. Same
    /// compile-time discipline as [`Self::set_join_indexes`].
    pub fn set_range_indexes(&mut self, shapes: Vec<BandShape>) {
        debug_assert!(self.is_empty(), "register indexes before priming");
        let mut seen: Vec<BandShape> = Vec::new();
        self.range_indexes = shapes
            .into_iter()
            .filter(|shape| {
                if seen.contains(shape) {
                    return false;
                }
                seen.push(shape.clone());
                true
            })
            .map(|shape| RangeIndex {
                shape,
                islist: IntervalSkipList::new(),
                by_entry: FxHashMap::default(),
                by_interval: FxHashMap::default(),
            })
            .collect();
    }

    /// The node-local index specs, in registration order: each hash join
    /// index's attribute set and each band index's shape.
    pub(crate) fn local_specs(&self) -> (Vec<Vec<usize>>, Vec<BandShape>) {
        (
            self.join_indexes
                .iter()
                .map(|ji| ji.attrs.clone())
                .collect(),
            self.range_indexes
                .iter()
                .map(|ri| ri.shape.clone())
                .collect(),
        )
    }

    /// Whether a node-local join index on exactly the attribute tuple
    /// `attrs` exists.
    pub fn has_join_index(&self, attrs: &[usize]) -> bool {
        self.join_indexes.iter().any(|ji| ji.attrs == attrs)
    }

    /// Whether any node-local join index is registered.
    pub(crate) fn has_join_indexes(&self) -> bool {
        !self.join_indexes.is_empty()
    }

    /// Whether an interval index of exactly this band shape exists.
    pub fn has_range_index(&self, shape: &BandShape) -> bool {
        self.range_indexes.iter().any(|ri| &ri.shape == shape)
    }

    /// Probe the join index on the attribute tuple `attrs`: entries whose
    /// per-attribute values all sql-equal the corresponding `key` component.
    /// `None` when no such index exists; any `Null` key component yields an
    /// empty iterator (`Null` joins nothing).
    pub fn probe_join_index(
        &self,
        attrs: &[usize],
        key: &[Value],
    ) -> Option<impl Iterator<Item = &AlphaEntry> + '_> {
        debug_assert_eq!(key.len(), attrs.len());
        self.probe_join_index_packed(attrs, &SmallKey::from_values(key))
    }

    /// [`Self::probe_join_index`] with a pre-packed key — the allocation-
    /// free probe path used by the β-join routines, which build the
    /// [`SmallKey`] once per probe instead of materializing a `Vec<Value>`.
    pub fn probe_join_index_packed(
        &self,
        attrs: &[usize],
        key: &SmallKey,
    ) -> Option<impl Iterator<Item = &AlphaEntry> + '_> {
        let keys = self.join_index(attrs)?.bucket(key);
        let entries = self.own();
        Some(
            keys.iter()
                .map(move |k| entries.get(k).expect("join index references a live entry")),
        )
    }

    /// The node-local join index on exactly `attrs`, if registered. Its
    /// buckets list entry-map keys; resolve them with [`Self::entry`].
    pub(crate) fn join_index(&self, attrs: &[usize]) -> Option<&JoinIndex> {
        self.join_indexes.iter().find(|ji| ji.attrs == attrs)
    }

    /// The entry stored under map key `key`, if any (entry memories only).
    #[inline]
    pub(crate) fn entry(&self, key: u64) -> Option<&AlphaEntry> {
        self.own().get(&key)
    }

    /// Stab the interval index of band shape `shape` with `key`, handing
    /// `hit` the map key (the TID, for a TID memory) of every held tuple
    /// whose `(lo_attr .. hi_attr)` span contains it, as the skip list
    /// finds it — nothing is collected. `None` when no such index exists;
    /// a `Null` key stabs nothing (comparison with Null is false on both
    /// sides of the band).
    pub(crate) fn stab(
        &self,
        shape: &BandShape,
        key: &Value,
        mut hit: impl FnMut(u64),
    ) -> Option<()> {
        let ri = self.range_indexes.iter().find(|ri| &ri.shape == shape)?;
        if !key.is_null() {
            ri.islist.stab_with(key, |id| {
                hit(*ri.by_interval.get(&id).expect("stab hit a live interval"));
            });
        }
        Some(())
    }

    /// Probe the interval index of band shape `shape`, handing `hit` each
    /// entry whose `(lo_attr .. hi_attr)` span contains `key`, as the skip
    /// list finds it. `None` when no such index exists; a `Null` key stabs
    /// nothing (comparison with Null is false on both sides of the band).
    pub fn probe_range_index<'a>(
        &'a self,
        shape: &BandShape,
        key: &Value,
        mut hit: impl FnMut(&'a AlphaEntry),
    ) -> Option<()> {
        let entries = self.own();
        self.stab(shape, key, |k| {
            hit(entries
                .get(&k)
                .expect("range index references a live entry"));
        })
    }

    /// Expected bucket size of the join index on `attrs` (*indexed*
    /// entries ÷ distinct keys, rounded up), the join-order heuristic's
    /// size estimate for an indexed memory. Entries with a Null key
    /// component are never indexed and don't count — dividing the raw
    /// entry count would overstate bucket size on null-heavy data and
    /// could flip a `SelectivityThreshold` stored-vs-virtual decision.
    /// `None` without an index on `attrs`.
    pub fn expected_bucket_size(&self, attrs: &[usize]) -> Option<usize> {
        let ji = self.join_indexes.iter().find(|ji| ji.attrs == attrs)?;
        // empty memory (or only Null keys): a probe serves nothing
        Some(ji.expected_bucket_size())
    }

    /// Smallest expected bucket size across every registered join index —
    /// the best-case per-probe fan-out this memory can offer. Counts
    /// indexed entries only (see [`Self::expected_bucket_size`]). `None`
    /// when no join index is registered.
    pub fn min_expected_bucket_size(&self) -> Option<usize> {
        self.join_indexes
            .iter()
            .map(JoinIndex::expected_bucket_size)
            .min()
    }

    /// File `tuple` under map key `key` in every node-local index.
    fn index(&mut self, key: u64, tuple: &Tuple) {
        for ji in &mut self.join_indexes {
            ji.add(key, tuple);
        }
        for ri in &mut self.range_indexes {
            if let Some(iv) = ri.shape.interval_of(tuple) {
                let id = ri.islist.insert(iv);
                ri.by_entry.insert(key, id);
                ri.by_interval.insert(id, key);
            }
        }
    }

    /// Undo [`Self::index`] for the tuple filed under `key`.
    fn unindex(&mut self, key: u64, tuple: &Tuple) {
        for ji in &mut self.join_indexes {
            ji.remove(key, tuple);
        }
        self.unrange(key);
    }

    /// Drop the intervals filed under `key` from the band indexes.
    fn unrange(&mut self, key: u64) {
        for ri in &mut self.range_indexes {
            if let Some(id) = ri.by_entry.remove(&key) {
                ri.by_interval.remove(&id);
                ri.islist.remove(id);
            }
        }
    }

    /// Does the node's selection predicate match a (tuple, prev) pair?
    /// Anchor and residual are both checked ([`SelectionPredicate::matches`]);
    /// evaluation errors (e.g. a `previous` reference with no previous
    /// value available) mean "no match".
    pub fn pred_matches(&self, tuple: &Tuple, prev: Option<&Tuple>) -> bool {
        self.pred.matches(tuple, prev).unwrap_or(false)
    }

    /// Whether this node can accept a positive token of the given kind
    /// (structural gating; Fig. 5's "don't care" cells are unreachable
    /// because of this).
    pub fn admits_positive(&self, kind: TokenKind, event: Option<&EventSpecifier>) -> bool {
        debug_assert!(kind.is_positive());
        if self.kind.is_trans() && kind != TokenKind::DeltaPlus {
            return false; // ± tokens never reach transition memories
        }
        match (&self.event, event) {
            (None, _) => true, // pattern nodes never examine the event
            (Some(req), Some(ev)) => req.admits(ev),
            (Some(_), None) => false,
        }
    }

    /// Insert an entry (keyed by the token's TID) into an entry memory.
    /// Re-inserting under the same key (a Δ+ token for a tuple already in
    /// memory) replaces the entry and rebuckets it in the node-local
    /// indexes. A TID memory is written through `Store::insert` instead.
    pub fn insert(&mut self, key: Tid, entry: AlphaEntry) {
        debug_assert!(self.kind.stores_entries());
        AlphaCounters::bump(&self.counters.inserted, 1);
        if self.join_indexes.is_empty() && self.range_indexes.is_empty() {
            self.own_mut().insert(key.0, entry);
            return;
        }
        if let Some(old) = self.own_mut().remove(&key.0) {
            self.unindex(key.0, &old.tuple);
        }
        self.index(key.0, &entry.tuple);
        self.own_mut().insert(key.0, entry);
    }

    /// Remove the entry keyed by `tid` from an entry memory; returns it if
    /// present. Idempotent.
    pub fn remove(&mut self, tid: Tid) -> Option<AlphaEntry> {
        let entry = self.own_mut().remove(&tid.0)?;
        self.unindex(tid.0, &entry.tuple);
        Some(entry)
    }

    /// Hold `tid`, whose value is `tuple`, in a TID memory, filing the
    /// tuple in the band indexes (a re-insert drops the old interval
    /// first). Only `Store::insert` calls this, keeping the store in step.
    pub(crate) fn hold(&mut self, tid: Tid, tuple: &Tuple) {
        AlphaCounters::bump(&self.counters.inserted, 1);
        let Contents::Tids { slots, .. } = &mut self.contents else {
            unreachable!("an entry memory holds no bare TIDs")
        };
        let again = slots.insert(tid.slot());
        if !self.range_indexes.is_empty() {
            if again {
                self.unrange(tid.0);
            }
            // no join index to file it in: the store keeps those
            self.index(tid.0, tuple);
        }
    }

    /// Stop holding `tid` in a TID memory; returns whether it was held.
    /// A `−` token's removes call this; `Store::release` then takes the
    /// TID out of the shared indexes.
    pub(crate) fn unhold(&mut self, tid: Tid) -> bool {
        let Contents::Tids { slots, .. } = &mut self.contents else {
            unreachable!("an entry memory holds no bare TIDs")
        };
        if !slots.remove(tid.slot()) {
            return false;
        }
        self.unrange(tid.0);
        true
    }

    /// Whether the memory holds `tid`. A TID memory answers for the slot
    /// `tid` names; a reader resolves the slot through the relation, which
    /// keeps its generation.
    pub fn contains(&self, tid: Tid) -> bool {
        match &self.contents {
            Contents::Entries(entries) => entries.contains_key(&tid.0),
            Contents::Tids { slots, .. } => slots.contains(tid.slot()),
        }
    }

    /// Iterate an entry memory's entries (a TID memory has none: its
    /// tuples are in its relation).
    pub fn entries(&self) -> impl Iterator<Item = &AlphaEntry> {
        self.own().values()
    }

    /// The heap slots a TID memory holds, ascending; its relation keeps
    /// the tuple and generation in each.
    pub(crate) fn slots(&self) -> Slots<'_> {
        match &self.contents {
            Contents::Tids { slots, .. } => slots.iter(),
            Contents::Entries(_) => unreachable!("an entry memory holds no bare TIDs"),
        }
    }

    /// Number of held entries or TIDs.
    pub fn len(&self) -> usize {
        match &self.contents {
            Contents::Entries(entries) => entries.len(),
            Contents::Tids { slots, .. } => slots.len(),
        }
    }

    /// True iff the node holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries (transition flush for dynamic nodes). Join-index
    /// buckets and interval indexes are emptied too; the registered
    /// attribute sets and band shapes survive, so a dynamic node keeps
    /// indexing across transitions. The skip list has no bulk-clear, so the
    /// flush recreates it.
    pub fn flush(&mut self) {
        self.own_mut().clear();
        for ji in &mut self.join_indexes {
            ji.clear();
        }
        for ri in &mut self.range_indexes {
            ri.islist = IntervalSkipList::new();
            ri.by_entry.clear();
            ri.by_interval.clear();
        }
    }

    /// Approximate heap footprint of the node-local join/range index
    /// structures, in bytes: hash buckets (packed keys + entry-key lists,
    /// see `JoinIndex::bytes`) plus the interval skip lists and their
    /// entry↔interval maps. Indexes a memory shares through the store are
    /// not charged here; `NetworkStats::alpha_bytes` charges them once.
    pub fn index_bytes(&self) -> usize {
        let hash: usize = self.join_indexes.iter().map(JoinIndex::bytes).sum();
        let range: usize = self
            .range_indexes
            .iter()
            .map(|ri| {
                ri.islist.bytes()
                    + (ri.by_entry.len() + ri.by_interval.len()) * 2 * std::mem::size_of::<u64>()
            })
            .sum();
        hash + range
    }

    /// Approximate heap footprint of what the memory holds plus its
    /// node-local index structures, in bytes: an entry memory is charged
    /// each entry with its tuple, a TID memory its slot set — its tuples
    /// are the relation's, and no memory charges them. This is the
    /// quantity virtual α-memories reduce to (near) zero — a virtual node
    /// stores neither entries nor indexes.
    pub fn heap_size(&self) -> usize {
        let held = match &self.contents {
            Contents::Entries(entries) => entries.values().map(AlphaEntry::heap_size).sum(),
            Contents::Tids { slots, .. } => slots.bytes(),
        };
        held + self.index_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariel_islist::Interval;
    use ariel_storage::Value;

    fn tup(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn band_pred(lo: i64, hi: i64) -> SelectionPredicate {
        SelectionPredicate {
            anchor: Some((
                0,
                Interval::open_closed(Value::Int(lo), Value::Int(hi)).unwrap(),
            )),
            residual: None,
            unsatisfiable: false,
        }
    }

    fn node(kind: AlphaKind, event: Option<EventReq>) -> AlphaNode {
        AlphaNode::new(
            RuleId(1),
            0,
            RelId::new(0, 0),
            kind,
            band_pred(10, 20),
            event,
        )
    }

    #[test]
    fn pred_matching_uses_anchor() {
        let n = node(AlphaKind::Stored, None);
        assert!(!n.pred_matches(&tup(10), None));
        assert!(n.pred_matches(&tup(11), None));
        assert!(n.pred_matches(&tup(20), None));
        assert!(!n.pred_matches(&tup(21), None));
    }

    #[test]
    fn unsatisfiable_never_matches() {
        let mut n = node(AlphaKind::Stored, None);
        n.pred = SelectionPredicate {
            anchor: None,
            residual: None,
            unsatisfiable: true,
        };
        assert!(!n.pred_matches(&tup(15), None));
    }

    #[test]
    fn residual_eval_errors_mean_no_match() {
        let mut n = node(AlphaKind::DynamicTrans, None);
        // residual references previous value
        n.pred = SelectionPredicate {
            anchor: None,
            residual: Some(ariel_query::RExpr::Binary {
                op: ariel_query::BinOp::Gt,
                left: Box::new(ariel_query::RExpr::Attr { var: 0, attr: 0 }),
                right: Box::new(ariel_query::RExpr::Prev { var: 0, attr: 0 }),
            }),
            unsatisfiable: false,
        };
        assert!(!n.pred_matches(&tup(5), None), "no prev → no match");
        assert!(n.pred_matches(&tup(5), Some(&tup(4))));
        assert!(!n.pred_matches(&tup(5), Some(&tup(6))));
    }

    #[test]
    fn entry_lifecycle() {
        let mut n = node(AlphaKind::Stored, None);
        n.insert(
            Tid(7),
            AlphaEntry {
                tid: Some(Tid(7)),
                tuple: tup(15),
                prev: None,
            },
        );
        assert!(n.contains(Tid(7)));
        assert_eq!(n.len(), 1);
        assert!(n.heap_size() > 0);
        assert!(n.remove(Tid(7)).is_some());
        assert!(n.remove(Tid(7)).is_none(), "removal is idempotent");
        assert!(n.is_empty());
    }

    #[test]
    fn flush_clears() {
        let mut n = node(AlphaKind::DynamicOn, Some(EventReq::Append));
        n.insert(
            Tid(1),
            AlphaEntry {
                tid: Some(Tid(1)),
                tuple: tup(12),
                prev: None,
            },
        );
        n.flush();
        assert!(n.is_empty());
    }

    #[test]
    fn positive_gating_trans_only_delta() {
        let n = node(AlphaKind::DynamicTrans, None);
        assert!(!n.admits_positive(TokenKind::Plus, Some(&EventSpecifier::Append)));
        assert!(n.admits_positive(TokenKind::DeltaPlus, Some(&EventSpecifier::Replace(vec![]))));
    }

    #[test]
    fn positive_gating_event_requirements() {
        let n = node(AlphaKind::DynamicOn, Some(EventReq::Append));
        assert!(n.admits_positive(TokenKind::Plus, Some(&EventSpecifier::Append)));
        assert!(!n.admits_positive(TokenKind::DeltaPlus, Some(&EventSpecifier::Replace(vec![]))));
        assert!(
            !n.admits_positive(TokenKind::Plus, None),
            "on-node needs an event"
        );
        // pattern node ignores events entirely
        let p = node(AlphaKind::Stored, None);
        assert!(p.admits_positive(TokenKind::Plus, None));
    }

    #[test]
    fn replace_target_list_matching() {
        let watch = EventReq::Replace(Some(vec![2, 4]));
        assert!(watch.admits(&EventSpecifier::Replace(vec![4])));
        assert!(!watch.admits(&EventSpecifier::Replace(vec![0, 1])));
        assert!(
            watch.admits(&EventSpecifier::Replace(vec![])),
            "unknown attrs admit"
        );
        assert!(!watch.admits(&EventSpecifier::Append));
        let any = EventReq::Replace(None);
        assert!(any.admits(&EventSpecifier::Replace(vec![0])));
    }

    fn entry_of(t: Tuple, tid: u64) -> AlphaEntry {
        AlphaEntry {
            tid: Some(Tid(tid)),
            tuple: t,
            prev: None,
        }
    }

    #[test]
    fn join_index_lifecycle() {
        let mut n = node(AlphaKind::Stored, None);
        n.set_join_indexes(vec![vec![0]]);
        assert!(n.has_join_index(&[0]));
        assert!(!n.has_join_index(&[1]));
        n.insert(Tid(1), entry_of(tup(15), 1));
        n.insert(Tid(2), entry_of(tup(15), 2));
        n.insert(Tid(3), entry_of(tup(12), 3));
        let hits: Vec<_> = n
            .probe_join_index(&[0], &[Value::Int(15)])
            .unwrap()
            .map(|e| e.tid.unwrap().0)
            .collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&1) && hits.contains(&2));
        assert_eq!(
            n.probe_join_index(&[0], &[Value::Int(99)]).unwrap().count(),
            0
        );
        assert!(n.probe_join_index(&[1], &[Value::Int(15)]).is_none());
        // removal unbuckets
        n.remove(Tid(1));
        assert_eq!(
            n.probe_join_index(&[0], &[Value::Int(15)]).unwrap().count(),
            1
        );
        // replacement rebuckets under the same key
        n.insert(Tid(2), entry_of(tup(12), 2));
        assert_eq!(
            n.probe_join_index(&[0], &[Value::Int(15)]).unwrap().count(),
            0
        );
        assert_eq!(
            n.probe_join_index(&[0], &[Value::Int(12)]).unwrap().count(),
            2
        );
        // flush empties buckets but keeps the registration
        n.flush();
        assert_eq!(
            n.probe_join_index(&[0], &[Value::Int(12)]).unwrap().count(),
            0
        );
        assert!(n.has_join_index(&[0]));
    }

    fn pair(a: i64, b: i64) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn composite_join_index_matches_whole_key() {
        let mut n = node(AlphaKind::Stored, None);
        n.set_join_indexes(vec![vec![0, 1]]);
        assert!(n.has_join_index(&[0, 1]));
        assert!(!n.has_join_index(&[0]), "components are not indexed alone");
        n.insert(Tid(1), entry_of(pair(1, 7), 1));
        n.insert(Tid(2), entry_of(pair(1, 8), 2));
        n.insert(Tid(3), entry_of(pair(2, 7), 3));
        // only the exact (1, 7) pair matches — a single-attribute index on
        // attr 0 would have served two candidates here
        assert_eq!(
            n.probe_join_index(&[0, 1], &[Value::Int(1), Value::Int(7)])
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            n.probe_join_index(&[0, 1], &[Value::Int(1), Value::Int(9)])
                .unwrap()
                .count(),
            0
        );
        // a Null component in the probe key joins nothing
        assert_eq!(
            n.probe_join_index(&[0, 1], &[Value::Int(1), Value::Null])
                .unwrap()
                .count(),
            0
        );
        // a Null component in a stored tuple keeps it out of the index
        n.insert(
            Tid(4),
            entry_of(Tuple::new(vec![Value::Int(1), Value::Null]), 4),
        );
        assert_eq!(
            n.probe_join_index(&[0, 1], &[Value::Int(1), Value::Int(7)])
                .unwrap()
                .count(),
            1
        );
        n.remove(Tid(4)); // must not panic on the unindexed entry
    }

    #[test]
    fn join_index_ignores_null_keys() {
        let mut n = node(AlphaKind::Stored, None);
        n.set_join_indexes(vec![vec![0]]);
        n.insert(Tid(1), entry_of(Tuple::new(vec![Value::Null]), 1));
        assert_eq!(n.probe_join_index(&[0], &[Value::Null]).unwrap().count(), 0);
        assert_eq!(n.expected_bucket_size(&[0]), Some(0), "only Null keys");
        n.remove(Tid(1)); // must not panic on the unindexed entry
        assert!(n.is_empty());
    }

    #[test]
    fn bucket_size_estimate_counts_indexed_entries_only() {
        // 90% of the memory has a Null join key and never reaches the
        // index; the estimate must divide the one indexed entry by the one
        // bucket, not the ten entries by it.
        let mut n = node(AlphaKind::Stored, None);
        n.set_join_indexes(vec![vec![0]]);
        for i in 0..9 {
            n.insert(Tid(i), entry_of(Tuple::new(vec![Value::Null]), i));
        }
        n.insert(Tid(9), entry_of(tup(15), 9));
        assert_eq!(n.len(), 10);
        assert_eq!(n.expected_bucket_size(&[0]), Some(1));
        assert_eq!(n.min_expected_bucket_size(), Some(1));
        // churn keeps the count consistent: drop the indexed entry and the
        // index is empty again even though nine entries remain
        n.remove(Tid(9));
        assert_eq!(n.expected_bucket_size(&[0]), Some(0));
        // replacing a null-keyed entry with a keyed one indexes it
        n.insert(Tid(0), entry_of(tup(3), 0));
        assert_eq!(n.expected_bucket_size(&[0]), Some(1));
    }

    #[test]
    fn heap_size_includes_index_bytes() {
        let mut n = node(AlphaKind::Stored, None);
        n.insert(Tid(1), entry_of(pair(1, 7), 1));
        let plain = n.heap_size();
        let mut indexed = node(AlphaKind::Stored, None);
        indexed.set_join_indexes(vec![vec![0]]);
        indexed.set_range_indexes(vec![band_shape()]);
        indexed.insert(Tid(1), entry_of(pair(1, 7), 1));
        assert!(indexed.index_bytes() > 0);
        assert!(indexed.heap_size() > plain);
    }

    #[test]
    fn join_index_numeric_cross_type_probe() {
        let mut n = node(AlphaKind::Stored, None);
        n.set_join_indexes(vec![vec![0]]);
        n.insert(Tid(1), entry_of(tup(15), 1));
        // Int-keyed bucket is found by a numerically-equal Float probe,
        // matching sql_eq's cross-type join semantics
        assert_eq!(
            n.probe_join_index(&[0], &[Value::Float(15.0)])
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn expected_bucket_size_estimates() {
        let mut n = node(AlphaKind::Stored, None);
        n.set_join_indexes(vec![vec![0]]);
        assert_eq!(n.expected_bucket_size(&[1]), None);
        assert_eq!(n.expected_bucket_size(&[0]), Some(0), "empty memory");
        n.insert(Tid(1), entry_of(tup(11), 1));
        n.insert(Tid(2), entry_of(tup(11), 2));
        n.insert(Tid(3), entry_of(tup(12), 3));
        n.insert(Tid(4), entry_of(tup(13), 4));
        // 4 entries over 3 distinct keys → expect ⌈4/3⌉ = 2 per bucket
        assert_eq!(n.expected_bucket_size(&[0]), Some(2));
        assert_eq!(n.min_expected_bucket_size(), Some(2));
    }

    #[test]
    fn composite_buckets_are_narrower() {
        let mut n = node(AlphaKind::Stored, None);
        n.set_join_indexes(vec![vec![0], vec![0, 1]]);
        for i in 0..8i64 {
            n.insert(Tid(i as u64), entry_of(pair(i % 2, i), i as u64));
        }
        // attr 0 has 2 distinct values → buckets of 4; the (0, 1) composite
        // is unique per tuple → buckets of 1
        assert_eq!(n.expected_bucket_size(&[0]), Some(4));
        assert_eq!(n.expected_bucket_size(&[0, 1]), Some(1));
        assert_eq!(n.min_expected_bucket_size(), Some(1));
    }

    /// What a probe of the band index `shape` hands its callback.
    fn hits<'a>(n: &'a AlphaNode, shape: &BandShape, key: &Value) -> Option<Vec<&'a AlphaEntry>> {
        let mut out = Vec::new();
        n.probe_range_index(shape, key, |e| out.push(e))?;
        Some(out)
    }

    fn band_shape() -> BandShape {
        // entries span (lo, hi] with lo at attr 0 and hi at attr 1
        BandShape {
            lo_attr: 0,
            lo_strict: true,
            hi_attr: 1,
            hi_strict: false,
        }
    }

    #[test]
    fn range_index_lifecycle() {
        let mut n = node(AlphaKind::Stored, None);
        n.set_range_indexes(vec![band_shape()]);
        assert!(n.has_range_index(&band_shape()));
        assert!(hits(
            &n,
            &BandShape {
                lo_attr: 1,
                lo_strict: false,
                hi_attr: 0,
                hi_strict: false
            },
            &Value::Int(5)
        )
        .is_none());
        n.insert(Tid(1), entry_of(pair(0, 10), 1)); // (0, 10]
        n.insert(Tid(2), entry_of(pair(5, 15), 2)); // (5, 15]
        n.insert(Tid(3), entry_of(pair(20, 30), 3)); // (20, 30]
        let stab = |n: &AlphaNode, x: i64| {
            let mut tids: Vec<u64> = hits(n, &band_shape(), &Value::Int(x))
                .unwrap()
                .iter()
                .map(|e| e.tid.unwrap().0)
                .collect();
            tids.sort_unstable();
            tids
        };
        assert_eq!(stab(&n, 7), vec![1, 2]);
        assert_eq!(stab(&n, 5), vec![1], "strict lower bound excludes 5∈(5,15]");
        assert_eq!(stab(&n, 10), vec![1, 2], "inclusive upper keeps 10∈(0,10]");
        assert_eq!(stab(&n, 17), Vec::<u64>::new());
        // removal un-spans
        n.remove(Tid(1));
        assert_eq!(stab(&n, 7), vec![2]);
        // replacement re-spans under the same key
        n.insert(Tid(2), entry_of(pair(100, 200), 2));
        assert_eq!(stab(&n, 7), Vec::<u64>::new());
        assert_eq!(stab(&n, 150), vec![2]);
        // Null probe key stabs nothing
        assert_eq!(hits(&n, &band_shape(), &Value::Null).unwrap().len(), 0);
        // flush empties the interval index but keeps the registration
        n.flush();
        assert_eq!(stab(&n, 150), Vec::<u64>::new());
        assert!(n.has_range_index(&band_shape()));
        n.insert(Tid(9), entry_of(pair(0, 10), 9));
        assert_eq!(stab(&n, 7), vec![9], "index keeps working after a flush");
    }

    #[test]
    fn range_index_skips_null_and_empty_spans() {
        let mut n = node(AlphaKind::Stored, None);
        n.set_range_indexes(vec![band_shape()]);
        n.insert(
            Tid(1),
            entry_of(Tuple::new(vec![Value::Null, Value::Int(9)]), 1),
        );
        n.insert(Tid(2), entry_of(pair(8, 3), 2)); // empty interval (8, 3]
        assert_eq!(hits(&n, &band_shape(), &Value::Int(5)).unwrap().len(), 0);
        n.remove(Tid(1)); // must not panic on unindexed entries
        n.remove(Tid(2));
        assert!(n.is_empty());
    }

    #[test]
    fn range_index_mixed_numeric_types() {
        let mut n = node(AlphaKind::Stored, None);
        n.set_range_indexes(vec![band_shape()]);
        n.insert(
            Tid(1),
            entry_of(Tuple::new(vec![Value::Float(0.5), Value::Int(10)]), 1),
        );
        // Int probe against a Float lower endpoint: total_cmp orders them
        // numerically, matching the evaluator's comparison semantics
        assert_eq!(hits(&n, &band_shape(), &Value::Int(5)).unwrap().len(), 1);
        assert_eq!(
            hits(&n, &band_shape(), &Value::Float(0.25)).unwrap().len(),
            0
        );
    }

    #[test]
    fn kind_taxonomy() {
        assert!(AlphaKind::Stored.stores_entries());
        assert!(!AlphaKind::Virtual.stores_entries());
        assert!(AlphaKind::DynamicOn.is_dynamic() && AlphaKind::SimpleTrans.is_dynamic());
        assert!(!AlphaKind::Stored.is_dynamic());
        assert!(AlphaKind::Simple.is_simple() && !AlphaKind::Virtual.is_simple());
        assert!(AlphaKind::SimpleTrans.is_trans() && AlphaKind::DynamicTrans.is_trans());
        assert!(AlphaKind::SimpleOn.is_on() && AlphaKind::DynamicOn.is_on());
    }

    #[test]
    fn a_slot_set_agrees_with_an_ordered_set() {
        // a xorshift walk over slots near and far, inserting and removing
        let mut set = SlotSet::default();
        let mut model = std::collections::BTreeSet::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = match x % 3 {
                0 => (x >> 8) as usize % 512,
                1 => (x >> 8) as usize % 40_000,
                _ => 1_000_000 + (x >> 8) as usize % 300,
            };
            if x & 0x100 == 0 {
                assert_eq!(set.insert(slot), !model.insert(slot), "insert {slot}");
            } else {
                assert_eq!(set.remove(slot), model.remove(&slot), "remove {slot}");
            }
            assert_eq!(set.contains(slot), model.contains(&slot));
        }
        assert_eq!(set.len(), model.len());
        assert!(set.iter().eq(model.iter().copied()));
        for slot in model.iter().copied().collect::<Vec<_>>() {
            assert!(set.remove(slot));
        }
        assert!(set.is_empty() && set.iter().next().is_none());
    }

    #[test]
    fn a_slot_set_pays_for_its_members_not_its_highest_slot() {
        // 100 slots at the top of a million: a word per 64 of them, and
        // 12 B per 4 096 slots below
        let mut top = SlotSet::default();
        assert_eq!(top.bytes(), 0, "an empty set allocates nothing");
        for s in 999_900..1_000_000 {
            top.insert(s);
        }
        assert_eq!(top.iter().count(), 100);
        assert!(top.bytes() <= 4 * 8 + 245 * 12, "{} B", top.bytes());
        assert!(top.bytes() < 4_096);
    }
}
