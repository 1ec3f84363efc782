//! The A-TREAT discrimination network (§4).
//!
//! TREAT gives every rule tuple-variable an α-memory — variables that test
//! the same selection share one, see below — and keeps **no join (β)
//! memories**: a positive token joins directly against the other variables'
//! α-memories to extend the rule's P-node, and a negative token just
//! removes its TID from α-memories and P-node rows. A-TREAT adds two things
//! on top (both implemented here):
//!
//! * the **selection network** ([`crate::selnet`]) in front, so a token
//!   finds the α-nodes it satisfies by interval-index stabbing instead of
//!   testing every rule predicate, and
//! * **virtual α-memory nodes** (§4.2), which store only their predicate;
//!   joins against them scan the base relation under that predicate.
//!
//! ### Virtual-node correctness (the ProcessedMemories rule)
//!
//! The paper processes a token *before* inserting its tuple into the base
//! relation, and uses a `ProcessedMemories` set to decide when the token
//! must additionally join to itself inside a virtual node. Our engine
//! applies changes to relations first (set-oriented command execution), so
//! the equivalent discipline is inverted and implemented exactly here:
//!
//! * a **batch pending set** hides tuples that still have an unprocessed
//!   positive token in the batch (they are physically in the relation, at
//!   their end-of-batch value, but logically not yet in any α-memory at
//!   that value — a tuple touched twice in one batch stays hidden until
//!   its last positive token, so a virtual node never serves a value no
//!   token has announced), and
//! * the in-flight token's own tuple is visible inside a virtual node only
//!   if that node is in `processed` — the set of α-nodes this token has
//!   already been inserted into, which is precisely the paper's
//!   `ProcessedMemories`.
//!
//! This reproduces TREAT's self-join counting exactly: a token joins to
//! itself once per virtual/stored node pair, never twice.
//!
//! ### One node per distinct test
//!
//! Rule variables that test the same thing share one α-node: same
//! relation, selection predicate, event requirement, kind and node-local
//! index specs (`NodeKey`). The node has one selection-network
//! subscription and one memory; the network lists its sharers — (rule
//! slot, variable) pairs — beside it. A `+` token is α-tested and stored
//! once per node, then joins for each sharer in turn, all with the same
//! ProcessedMemories: the token's nodes in ascending id order induce one
//! order on each rule's variables, which is all the counting argument
//! above needs. That holds only while one rule's variables sit on
//! distinct nodes, so two variables of one rule never share one: a shared
//! node would be "processed" for both at once and pair the token with
//! itself twice. A `−` token unholds once and retracts each sharer's
//! P-node rows. Activation fills a stored node once (a later sharer finds
//! it current) and a node goes with its last sharer.
//!
//! ### Stored memories hold slots; their relation holds the tuples
//!
//! A stored α-memory is a bitset over its relation's heap slots (plus its
//! band indexes); a TID names a slot and its generation. The tuple is the
//! relation's, read by slot, and the equi-join hash indexes live in the
//! network's per-relation `crate::store`: one per attribute set, each TID
//! filed once however many memories hold it. A probe takes the shared
//! bucket's TIDs, keeps those whose slot the memory holds and reads each
//! tuple from the relation, under the pending rule above: a stored member
//! whose tuple is pending is hidden too. Dynamic memories keep entries and
//! node-local indexes; `crate::store` says why.

use crate::alpha::{
    AlphaCounters, AlphaEntry, AlphaId, AlphaKind, AlphaNode, AlphaTiming, BandShape, EventReq,
    RuleId,
};
use crate::conflict::ConflictSet;
use crate::key::{KeyBuilder, SmallKey};
use crate::plan::{BandSpec, CompositeSpec, JoinAccess, JoinPlan, RuleShape, MAX_RULE_VARS};
use crate::pred::SelectionPredicate;
use crate::selnet::SelectionNetwork;
use crate::store::{IndexId, Store};
use crate::token::{EventSpecifier, Token, TokenKind};
use crate::trace::{TraceEventKind, TraceRecorder};
use ariel_islist::{Histogram, Kind, Metrics, Place};
use ariel_query::{
    eval_pred, BoundVar, EventKind, PatchedEnv, Pnode, PnodeCol, QueryError, QueryResult, RExpr,
    ResolvedCondition, Row,
};
use ariel_storage::{
    Catalog, FxHashMap, FxHashSet, RelId, Relation, SchemaRef, StorageError, Tid, Tuple, Value,
};
use std::collections::HashSet;
use std::time::Instant;

/// Policy deciding which eligible α-memories become virtual (§4.2 closes
/// with exactly this optimization problem; the policies here are the
/// obvious points in that design space, compared in the VIRT ablation).
#[derive(Debug, Clone)]
pub enum VirtualPolicy {
    /// Classic TREAT: every α-memory stores its matching tuples.
    AllStored,
    /// Every eligible (pattern, multi-variable) α-memory is virtual.
    AllVirtual,
    /// Virtual iff the predicate currently matches more than `threshold`
    /// of its relation (low-selectivity predicates would store near-copies
    /// of the base table — the paper's motivating case).
    SelectivityThreshold(f64),
    /// Explicit variable indices (within the rule condition) to virtualize.
    ExplicitVars(HashSet<usize>),
}

/// One tuple variable of a compiled rule (descriptive fields live on the
/// P-node columns; the network itself only needs the α-node handle).
#[derive(Debug)]
struct RuleVar {
    alpha: AlphaId,
    /// The shared indexes this variable registered in its stored memory's
    /// store slot, one per composite access path of the plan, in the
    /// plan's order; empty for every other kind.
    indexes: Vec<IndexId>,
}

/// One rule variable using an α-node: its rule's slot and its index in
/// the rule's condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sharer {
    rule: usize,
    var: usize,
}

/// What makes the α-nodes of two rule variables one node: the relation,
/// the selection, the event requirement, the kind and the node-local
/// index specs. A stored memory's hash indexes are its relation's
/// (`crate::store`), registered per sharer, so they are no part of it.
#[derive(Debug, PartialEq, Eq, Hash)]
struct NodeKey {
    rel: RelId,
    pred: SelectionPredicate,
    event: Option<EventReq>,
    kind: AlphaKind,
    join: Vec<Vec<usize>>,
    bands: Vec<BandShape>,
}

impl NodeKey {
    fn of(a: &AlphaNode) -> NodeKey {
        let (join, bands) = a.local_specs();
        NodeKey {
            rel: a.rel,
            pred: a.pred.clone(),
            event: a.event.clone(),
            kind: a.kind,
            join,
            bands,
        }
    }
}

/// The rule variables sharing one live α-node.
#[derive(Debug, Default)]
struct Shared {
    /// In activation order; a token the node admits fans out to each.
    sharers: Vec<Sharer>,
    /// Activation has filled the node (a stored memory) from its
    /// relation; a later sharer finds it full.
    primed: bool,
}

/// A compiled rule: its α-nodes, join conjuncts, and P-node.
#[derive(Debug)]
struct RuleNode {
    id: RuleId,
    vars: Vec<RuleVar>,
    /// Multi-variable conjuncts of the condition (original var indices).
    join_conjuncts: Vec<RExpr>,
    /// Cached per-rule join plan over `join_conjuncts`.
    plan: JoinPlan,
    pnode: Pnode,
    /// No event or transition components: P-node can be primed from data.
    pattern_only: bool,
    /// Always-on counter: tokens that entered this rule (passed an α-test).
    tokens_in: u64,
    /// Always-on counter: β-joins probed for this rule.
    join_probes: u64,
    /// Always-on counter: instantiations pushed into the P-node.
    pnode_inserts: u64,
    /// Join and P-node timing, while the timing tier is on.
    timing: Option<Box<RuleTiming>>,
}

/// A rule's timing histograms (nanoseconds), kept only while the timing
/// tier is on. `beta_join` has one sample per `join_probes`.
#[derive(Debug, Clone, Default)]
pub struct RuleTiming {
    /// One β-join: candidate enumeration and conjunct tests.
    pub beta_join: Histogram,
    /// One P-node insert batch.
    pub pnode_insert: Histogram,
}

/// Per-rule memory statistics (the measurable claim of §4.2), plus the
/// always-on activity counters of the observability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuleStats {
    /// Entries across the rule's stored/dynamic α-memories.
    pub alpha_entries: usize,
    /// Approximate bytes held by those entries, plus the node-local indexes
    /// of the rule's dynamic memories. The join indexes its stored memories
    /// share with other rules are charged once, in
    /// [`NetworkStats::alpha_bytes`], not per rule.
    pub alpha_bytes: usize,
    /// Matched instantiations awaiting execution.
    pub pnode_rows: usize,
    /// Approximate bytes held by the P-node.
    pub pnode_bytes: usize,
    /// Tokens that entered this rule's network (passed some α-test).
    pub tokens_in: u64,
    /// α-tests run against this rule's nodes.
    pub alpha_tests: u64,
    /// α-tests that passed.
    pub alpha_passes: u64,
    /// β-joins probed.
    pub join_probes: u64,
    /// Instantiations appended to the P-node (join fan-out is
    /// `pnode_inserts / join_probes`).
    pub pnode_inserts: u64,
    /// β-join materializations of this rule's virtual α-nodes.
    pub virtual_scans: u64,
    /// Base-relation tuples examined during those materializations.
    pub virtual_scanned_tuples: u64,
    /// Join candidates served from *stored* α-memories.
    pub stored_join_candidates: u64,
    /// Join candidates served by *virtual* materialization — the
    /// virtual-vs-stored hit ratio is `virtual / (virtual + stored)`.
    pub virtual_join_candidates: u64,
    /// Hash join-index probes (α-memory join indexes plus virtual-node
    /// base-relation indexes).
    pub index_probes: u64,
    /// Index probes that found at least one candidate.
    pub index_hits: u64,
    /// Join candidates served through an index probe.
    pub indexed_candidates: u64,
    /// Join candidates served by full enumeration (no usable index).
    pub scanned_candidates: u64,
    /// Interval-index stabbing probes (band joins).
    pub range_probes: u64,
    /// Range probes that found at least one candidate.
    pub range_hits: u64,
    /// Approximate bytes held in β-memories (the Rete comparison network
    /// only — TREAT keeps no β-memories, so this stays 0).
    pub beta_bytes: usize,
    /// β-memory index probes (indexed Rete only; 0 under TREAT).
    pub beta_probes: u64,
    /// β-probes that found at least one partial match.
    pub beta_hits: u64,
}

impl RuleStats {
    /// Mean β-join fan-out: P-node rows produced per probing token.
    pub fn join_fanout(&self) -> f64 {
        if self.join_probes == 0 {
            0.0
        } else {
            self.pnode_inserts as f64 / self.join_probes as f64
        }
    }

    /// Fraction of join candidates served by virtual materialization
    /// rather than stored α-entries (0.0 when no join candidates yet).
    pub fn virtual_hit_ratio(&self) -> f64 {
        let total = self.stored_join_candidates + self.virtual_join_candidates;
        if total == 0 {
            0.0
        } else {
            self.virtual_join_candidates as f64 / total as f64
        }
    }
}

/// Aggregate network statistics: memory footprint (§4.2) plus the always-on
/// activity counters of the observability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkStats {
    /// Compiled rules.
    pub rules: usize,
    /// α-memory nodes of all kinds.
    pub alpha_nodes: usize,
    /// Virtual α-memory nodes among them.
    pub virtual_alpha_nodes: usize,
    /// Entries across stored/dynamic α-memories.
    pub alpha_entries: usize,
    /// Approximate bytes held by those entries and every α-level join
    /// index — each per-relation shared index counted once.
    pub alpha_bytes: usize,
    /// Matched instantiations across all P-nodes.
    pub pnode_rows: usize,
    /// Approximate bytes held by P-nodes.
    pub pnode_bytes: usize,
    /// Approximate bytes in the selection network's interval indexes.
    pub selnet_bytes: usize,
    /// Tokens pushed through [`Network::process_batch`].
    pub tokens_processed: u64,
    /// Selection-network probes (one per token, either polarity).
    pub selnet_probes: u64,
    /// Candidate α-nodes those probes emitted.
    pub selnet_candidates: u64,
    /// Interval-skip-list stabbing queries behind those probes.
    pub islist_stabs: u64,
    /// Skip-list nodes visited answering them.
    pub islist_nodes_visited: u64,
    /// α-tests run across all nodes.
    pub alpha_tests: u64,
    /// α-tests that passed.
    pub alpha_passes: u64,
    /// β-joins probed across all rules.
    pub join_probes: u64,
    /// Instantiations appended across all P-nodes.
    pub pnode_inserts: u64,
    /// β-join materializations of virtual α-nodes.
    pub virtual_scans: u64,
    /// Base-relation tuples examined during those materializations.
    pub virtual_scanned_tuples: u64,
    /// Join candidates served from stored α-memories.
    pub stored_join_candidates: u64,
    /// Join candidates served by virtual materialization.
    pub virtual_join_candidates: u64,
    /// Hash join-index probes across all nodes.
    pub index_probes: u64,
    /// Index probes that found at least one candidate.
    pub index_hits: u64,
    /// Join candidates served through an index probe.
    pub indexed_candidates: u64,
    /// Join candidates served by full enumeration (no usable index).
    pub scanned_candidates: u64,
    /// Interval-index stabbing probes across all nodes (band joins).
    pub range_probes: u64,
    /// Range probes that found at least one candidate.
    pub range_hits: u64,
    /// Approximate bytes held in β-memories (the Rete comparison network
    /// only — TREAT keeps no β-memories, so this stays 0).
    pub beta_bytes: usize,
    /// β-memory index probes (indexed Rete only; 0 under TREAT).
    pub beta_probes: u64,
    /// β-probes that found at least one partial match.
    pub beta_hits: u64,
}

impl NetworkStats {
    /// The α half of the statistics, summed over `alphas`: node counts,
    /// entries, bytes and every always-on α counter. Both networks build
    /// both of their stats surfaces on it.
    pub(crate) fn of_alphas<'a>(alphas: impl IntoIterator<Item = &'a AlphaNode>) -> NetworkStats {
        let mut s = NetworkStats::default();
        for a in alphas {
            let c = &a.counters;
            s.alpha_nodes += 1;
            s.alpha_entries += a.len();
            s.alpha_bytes += a.heap_size();
            s.alpha_tests += c.tests.get();
            s.alpha_passes += c.passes.get();
            s.virtual_scans += c.virtual_scans.get();
            s.virtual_scanned_tuples += c.scanned_tuples.get();
            s.index_probes += c.index_probes.get();
            s.index_hits += c.index_hits.get();
            s.indexed_candidates += c.indexed_candidates.get();
            s.scanned_candidates += c.scanned_candidates.get();
            s.range_probes += c.range_probes.get();
            s.range_hits += c.range_hits.get();
            if a.kind == AlphaKind::Virtual {
                s.virtual_alpha_nodes += 1;
                s.virtual_join_candidates += c.join_candidates.get();
            } else {
                s.stored_join_candidates += c.join_candidates.get();
            }
        }
        s
    }

    /// The α fields of one rule's [`RuleStats`], from
    /// [`Self::of_alphas`] over that rule's nodes.
    pub(crate) fn rule_alphas(&self) -> RuleStats {
        RuleStats {
            alpha_entries: self.alpha_entries,
            alpha_bytes: self.alpha_bytes,
            alpha_tests: self.alpha_tests,
            alpha_passes: self.alpha_passes,
            virtual_scans: self.virtual_scans,
            virtual_scanned_tuples: self.virtual_scanned_tuples,
            stored_join_candidates: self.stored_join_candidates,
            virtual_join_candidates: self.virtual_join_candidates,
            index_probes: self.index_probes,
            index_hits: self.index_hits,
            indexed_candidates: self.indexed_candidates,
            scanned_candidates: self.scanned_candidates,
            range_probes: self.range_probes,
            range_hits: self.range_hits,
            ..RuleStats::default()
        }
    }
}

/// The A-TREAT network: selection layer, α-memories, and P-nodes for every
/// activated rule.
///
/// ```
/// use ariel_network::{EventSpecifier, Network, RuleId, Token, VirtualPolicy};
/// use ariel_query::{parse_expr, Resolver};
/// use ariel_storage::{AttrType, Catalog, Schema};
///
/// let mut catalog = Catalog::new();
/// let emp = catalog
///     .create("emp", Schema::of(&[("sal", AttrType::Int)]))
///     .unwrap();
///
/// // compile and prime a rule condition
/// let cond = Resolver::new(&catalog)
///     .resolve_condition(None, Some(&parse_expr("emp.sal > 100").unwrap()), &[])
///     .unwrap();
/// let mut net = Network::new();
/// net.add_rule(RuleId(1), &cond, &VirtualPolicy::AllStored, &catalog).unwrap();
/// net.prime(RuleId(1), &catalog).unwrap();
///
/// // a matching insert token lands in the rule's P-node
/// let rel = catalog.rel_mut(emp).unwrap();
/// let tid = rel.insert(vec![500i64.into()]).unwrap();
/// let tuple = rel.get(tid).cloned().unwrap();
/// net.process_token(&Token::plus(emp, tid, tuple, EventSpecifier::Append), &catalog)
///     .unwrap();
/// assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Network {
    alphas: Vec<Option<AlphaNode>>,
    free: Vec<usize>,
    /// By `AlphaId`: the rule variables sharing each live node.
    shared: Vec<Shared>,
    /// The live nodes by key. Two variables of one rule never share a
    /// node, so one key may name several.
    by_key: FxHashMap<NodeKey, Vec<AlphaId>>,
    selnet: SelectionNetwork,
    /// Stored memories' shared tuples and join indexes, per relation.
    store: Store,
    /// Compiled rules by dense slot (a [`Sharer`]'s `rule`); freed slots
    /// are reused.
    rules: Vec<Option<RuleNode>>,
    free_rules: Vec<usize>,
    /// Rule id → slot, for callers that name a rule by id.
    rule_slots: FxHashMap<u64, usize>,
    /// The batch pending set, kept between batches for its capacity.
    pending: Pending,
    /// Rules with a non-empty P-node, and those that gained a match since
    /// the engine last asked (see [`crate::conflict`]).
    conflict: ConflictSet,
    /// Dynamic (per-transition) α-nodes and the rules owning them — all
    /// [`Self::flush_transition_state`] has to visit. Both stay empty for
    /// pattern-only rule sets.
    dynamic_alphas: Vec<AlphaId>,
    dynamic_rules: Vec<usize>,
    /// Always-on counter: tokens pushed through [`Self::process_batch`].
    tokens_processed: u64,
    /// The access paths every rule's plan may hold, fixed at construction.
    access: JoinAccess,
    /// Selection-network probe timing; `Some` exactly while the timing
    /// tier is on, when every node and rule carries its own histograms.
    selnet_probe: Option<Histogram>,
    /// Gated flight recorder (None = tracing off, the default).
    trace: Option<TraceRecorder>,
    /// The match path's reusable buffers.
    scratch: Scratch,
}

/// The match path's scratch: one reusable buffer per shape — candidate
/// α-memory lists from the selection network, partially-bound row slots,
/// and join results. Each shape has at most one buffer in use at a time,
/// so a buffer is taken with `mem::take` and put back cleared, its
/// capacity intact: no token allocates scratch once the buffers have
/// grown, and they travel with the network from thread to thread.
#[derive(Debug, Default)]
struct Scratch {
    candidates: Vec<AlphaId>,
    row: Row,
    results: Vec<Vec<BoundVar>>,
}

impl Scratch {
    /// Bytes the buffers retain (capacity × element size).
    fn bytes(&self) -> usize {
        fn held<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        held(&self.candidates) + held(&self.row.slots) + held(&self.results)
    }
}

impl VirtualPolicy {
    /// Whether variable `var`'s eligible α-memory — selection `pred` over
    /// `rel`, equi access paths `composite` — is virtual under this
    /// policy. Both networks decide with it (the Rete network threads the
    /// catalog through `add_rule` for the threshold estimate), so a policy
    /// picks the same memories on both sides.
    pub(crate) fn virtualizes(
        &self,
        var: usize,
        pred: &SelectionPredicate,
        rel: RelId,
        catalog: &Catalog,
        composite: &[CompositeSpec],
    ) -> bool {
        match self {
            VirtualPolicy::AllStored => false,
            VirtualPolicy::AllVirtual => true,
            VirtualPolicy::ExplicitVars(set) => set.contains(&var),
            VirtualPolicy::SelectivityThreshold(threshold) => {
                selectivity_virtualize(pred, rel, *threshold, catalog, composite)
            }
        }
    }
}

/// The [`VirtualPolicy::SelectivityThreshold`] estimate. Virtual iff the
/// predicate currently matches more than `threshold` of its relation —
/// refined, when the plan gives the memory an equi access path, to
/// compare the *expected bucket size* a join index would serve instead of
/// the raw match share.
fn selectivity_virtualize(
    pred: &SelectionPredicate,
    rel: RelId,
    threshold: f64,
    catalog: &Catalog,
    composite: &[CompositeSpec],
) -> bool {
    let Some(rel_b) = catalog.rel(rel) else {
        return false;
    };
    let n = rel_b.len();
    if n == 0 {
        return false;
    }
    let probe = AlphaNode::new(
        RuleId(u64::MAX),
        0,
        rel,
        AlphaKind::Stored,
        pred.clone(),
        None,
    );
    let matching = rel_b
        .scan()
        .filter(|(_, t)| probe.pred_matches(t, None))
        .count();
    if matching as f64 / n as f64 <= threshold {
        return false; // selective enough to store outright
    }
    // Index-aware refinement: a low-selectivity memory that a join index
    // would carve into small buckets serves each β-probe a bucket, not
    // the whole memory — compare the *expected bucket size* to the
    // threshold instead of the raw match share. No usable equi index →
    // virtual, as before.
    if composite.is_empty() {
        return true;
    }
    let min_bucket = composite
        .iter()
        .map(|spec| {
            let mut keys: FxHashSet<SmallKey> = FxHashSet::default();
            let mut indexed = 0usize;
            'tuples: for (_, t) in rel_b.scan().filter(|(_, t)| probe.pred_matches(t, None)) {
                let mut kb = KeyBuilder::new(spec.attrs.len());
                for a in &spec.attrs {
                    let v = t.get(*a);
                    if v.is_null() {
                        continue 'tuples;
                    }
                    kb.push(v);
                }
                indexed += 1;
                keys.insert(kb.finish());
            }
            if keys.is_empty() {
                0
            } else {
                indexed.div_ceil(keys.len())
            }
        })
        .min()
        .unwrap_or(matching);
    min_bucket as f64 / n as f64 > threshold
}

/// The relation `rel` denotes, or the error a destroyed one gives (its
/// slot has moved to a later generation).
pub(crate) fn live_rel(catalog: &Catalog, rel: RelId) -> QueryResult<&Relation> {
    catalog
        .rel(rel)
        .ok_or_else(|| StorageError::NoSuchRelation(rel.to_string()).into())
}

/// Debug check of [`Network::process_batch`]'s precondition: the last
/// token of each TID of a live relation in `tokens` agrees with the
/// relation. A token that disagrees must have a later one of its TID, and
/// only then is one looked for, so the check allocates nothing.
fn check_end_state(tokens: &[Token], catalog: &Catalog) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        let Some(rel) = catalog.rel(t.rel) else {
            continue;
        };
        let agrees = if t.kind.is_positive() {
            rel.get(t.tid) == Some(&t.tuple)
        } else if t.kind == TokenKind::Minus && t.event == Some(EventSpecifier::Delete) {
            rel.get(t.tid).is_none()
        } else {
            true
        };
        let superseded = || {
            tokens[i + 1..]
                .iter()
                .any(|u| (u.rel, u.tid) == (t.rel, t.tid))
        };
        assert!(
            agrees || superseded(),
            "a {} token of TID {} in {} disagrees with its relation: \
             match a batch after applying all its changes and nothing more",
            t.kind,
            t.tid,
            t.rel,
        );
    }
}

/// Put `node` in a free slot of a network's α-node table (`alphas`, with
/// its free list `free`), or in a new one.
pub(crate) fn alloc_alpha(
    alphas: &mut Vec<Option<AlphaNode>>,
    free: &mut Vec<usize>,
    node: AlphaNode,
) -> AlphaId {
    match free.pop() {
        Some(i) => {
            alphas[i] = Some(node);
            AlphaId(i)
        }
        None => {
            alphas.push(Some(node));
            AlphaId(alphas.len() - 1)
        }
    }
}

/// The batch pending set: per relation slot, tid → positive tokens of
/// that tuple still unprocessed in the current batch. A tuple in here is
/// hidden from virtual-node scans and stored-memory reads (see the module
/// docs). The maps are
/// emptied, not dropped, between batches.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    by_slot: Vec<FxHashMap<u64, u32>>,
}

impl Pending {
    /// The pending set of a fresh batch (live tokens only).
    pub(crate) fn fill(&mut self, tokens: &[Token], catalog: &Catalog) {
        for t in tokens.iter().filter(|t| t.kind.is_positive()) {
            if catalog.rel(t.rel).is_none() {
                continue;
            }
            if self.by_slot.len() <= t.rel.slot() {
                self.by_slot
                    .resize_with(t.rel.slot() + 1, FxHashMap::default);
            }
            *self.by_slot[t.rel.slot()].entry(t.tid.0).or_insert(0) += 1;
        }
    }

    /// Positive token `t` is about to be processed: one fewer pending for
    /// its tuple, which becomes visible once none remain.
    pub(crate) fn done(&mut self, t: &Token) {
        if let Some(tids) = self.by_slot.get_mut(t.rel.slot()) {
            if let Some(n) = tids.get_mut(&t.tid.0) {
                *n -= 1;
                if *n == 0 {
                    tids.remove(&t.tid.0);
                }
            }
        }
    }

    /// The pending tuples of `rel`, if any were ever filed.
    pub(crate) fn of(&self, rel: RelId) -> Option<&FxHashMap<u64, u32>> {
        self.by_slot.get(rel.slot()).filter(|p| !p.is_empty())
    }

    /// Empty every map, keeping its capacity for the next batch.
    pub(crate) fn clear(&mut self) {
        self.by_slot.iter_mut().for_each(FxHashMap::clear);
    }
}

/// One join candidate, borrowed from the memory or store that holds it.
#[derive(Clone, Copy)]
struct Candidate<'a> {
    tid: Option<Tid>,
    tuple: &'a Tuple,
    /// Start-of-transition value: only a dynamic memory's entries have one.
    prev: Option<&'a Tuple>,
}

impl<'a> Candidate<'a> {
    fn of(e: &'a AlphaEntry) -> Candidate<'a> {
        Candidate {
            tid: e.tid,
            tuple: &e.tuple,
            prev: e.prev.as_ref(),
        }
    }
}

/// Where a stored memory's members are read during a join: its relation,
/// and the relation's pending tuples in the batch.
struct Members<'a> {
    rel: &'a Relation,
    pending: Option<&'a FxHashMap<u64, u32>>,
}

impl<'a> Members<'a> {
    /// The member in heap slot `s`: the relation's tuple there with its
    /// TID and no `prev` (a stored column has none), or nothing if the
    /// slot is free or its tuple still has a `+` token to come in the
    /// batch — the visibility rule of virtual scans.
    #[inline]
    fn at(&self, s: usize) -> Option<Candidate<'a>> {
        let (tid, tuple) = self.rel.at(s)?;
        if self.pending.is_some_and(|p| p.contains_key(&tid.0)) {
            return None;
        }
        Some(Candidate {
            tid: Some(tid),
            tuple,
            prev: None,
        })
    }
}

/// What one β-join reads besides its partial row: the rule and its join
/// order, and the visibility state of the token being processed — the
/// token itself, the α-nodes it has entered so far (the paper's
/// ProcessedMemories) and the batch pending set. Virtual nodes consult
/// all of it. A stored memory holds exactly the slots the tokens
/// processed so far have put there, but reads their tuples from the
/// relation, so it consults the pending set; a dynamic memory holds its
/// own entries and consults nothing.
struct Join<'a> {
    rule: &'a RuleNode,
    /// `(estimate, variable)` in join order.
    order: &'a [(usize, usize)],
    catalog: &'a Catalog,
    /// The token and its ProcessedMemories (ascending); `None` while
    /// priming, when no token is in flight and a virtual node's α test
    /// that cannot be evaluated fails the join instead of rejecting the
    /// tuple.
    token: Option<(&'a Token, &'a [AlphaId])>,
    pending: &'a Pending,
}

impl Network {
    /// New empty network whose joins take every access path
    /// ([`JoinAccess::Composite`]).
    pub fn new() -> Self {
        Network::default()
    }

    /// New empty network whose rules plan their joins under `access`:
    /// [`JoinAccess::Nested`] is the paper's plain nested-loop TREAT.
    pub fn with_access(access: JoinAccess) -> Self {
        Network {
            access,
            ..Network::default()
        }
    }

    /// Enable or disable the gated timing tier. Enabling gives the
    /// network, every α-node and every rule fresh histograms; disabling
    /// drops them. The always-on counters are unaffected.
    pub fn set_observing(&mut self, on: bool) {
        self.selnet_probe = on.then(Histogram::new);
        for a in self.alphas.iter_mut().flatten() {
            a.timing = on.then(Box::default);
        }
        for r in self.rules.iter_mut().flatten() {
            r.timing = on.then(Box::default);
        }
    }

    /// Whether the timing tier is on.
    pub fn observing(&self) -> bool {
        self.selnet_probe.is_some()
    }

    /// Install or remove the flight recorder (same gating discipline as
    /// the timing tier: `None` — the default — makes every trace hook a
    /// single branch). Returns the previous recorder, if any.
    pub fn set_trace(&mut self, trace: Option<TraceRecorder>) -> Option<TraceRecorder> {
        std::mem::replace(&mut self.trace, trace)
    }

    /// The active flight recorder, if tracing is on.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Bytes the match path's scratch buffers retain between tokens. Not
    /// match state: no memory figure of [`NetworkStats`] includes it.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.bytes()
    }

    fn alpha(&self, id: AlphaId) -> &AlphaNode {
        self.alphas[id.0].as_ref().expect("live alpha")
    }

    /// Run one α-test: bump the node's always-on test/pass counters and,
    /// while the timing tier is on, time it.
    fn alpha_test(
        &self,
        aid: AlphaId,
        _token: &Token,
        test: impl FnOnce(&AlphaNode) -> bool,
    ) -> bool {
        let a = self.alpha(aid);
        AlphaCounters::bump(&a.counters.tests, 1);
        let start = a.timing.as_ref().map(|_| Instant::now());
        let pass = test(a);
        if pass {
            AlphaCounters::bump(&a.counters.passes, 1);
            if let Some(tr) = &self.trace {
                // one pass per sharer, as if each kept its own node
                for s in &self.shared[aid.0].sharers {
                    tr.record(TraceEventKind::AlphaPass {
                        rule: self.rules[s.rule].as_ref().expect("live rule").id.0,
                        var: s.var,
                    });
                }
            }
        }
        if let (Some(timing), Some(t0)) = (&a.timing, start) {
            timing.alpha_test.record(t0.elapsed().as_nanos() as u64);
        }
        pass
    }

    /// Number of compiled rules.
    pub fn rule_count(&self) -> usize {
        self.rule_slots.len()
    }

    fn rule(&self, id: RuleId) -> Option<&RuleNode> {
        let slot = *self.rule_slots.get(&id.0)?;
        self.rules[slot].as_ref()
    }

    /// Compile a resolved rule condition into network structures
    /// (the *activation* step of §6 builds this, then [`Self::prime`]s it).
    pub fn add_rule(
        &mut self,
        id: RuleId,
        cond: &ResolvedCondition,
        policy: &VirtualPolicy,
        catalog: &Catalog,
    ) -> QueryResult<()> {
        if self.rule_slots.contains_key(&id.0) {
            return Err(QueryError::Semantic(format!(
                "rule {id} already in network"
            )));
        }
        // selections, join conjuncts and the join plan (`crate::plan`,
        // shared with the Rete network)
        let RuleShape {
            rels,
            preds,
            join_conjuncts,
            plan,
        } = RuleShape::compile(cond, catalog, &self.selnet, self.access)?;
        let nvars = rels.len();
        let rule_slot = self.free_rules.pop().unwrap_or_else(|| {
            self.rules.push(None);
            self.rules.len() - 1
        });
        let single = nvars == 1;
        let mut vars = Vec::with_capacity(nvars);
        let mut cols = Vec::with_capacity(nvars);
        let mut dynamic = false;
        for ((v, binding), pred) in cond.spec.vars.iter().enumerate().zip(preds) {
            let is_on = cond.on_var == Some(v);
            let is_trans = cond.trans_vars.contains(&v);
            let kind = match (single, is_on, is_trans) {
                (true, true, _) => AlphaKind::SimpleOn,
                (true, false, true) => AlphaKind::SimpleTrans,
                (true, false, false) => AlphaKind::Simple,
                (false, true, _) => AlphaKind::DynamicOn,
                (false, false, true) => AlphaKind::DynamicTrans,
                (false, false, false) => {
                    if policy.virtualizes(v, &pred, rels[v], catalog, &plan.composite[v]) {
                        AlphaKind::Virtual
                    } else {
                        AlphaKind::Stored
                    }
                }
            };
            let event = if is_on {
                Some(resolve_event(
                    cond.event.as_ref().expect("on var has event"),
                    &binding.schema,
                ))
            } else {
                None
            };
            let has_prev = is_trans || matches!(event, Some(EventReq::Replace(_)));
            let mut node = AlphaNode::new(id, v, rels[v], kind, pred, event);
            if kind.stores_entries() {
                // one hash index per composite access path and one interval
                // index per band shape, so β-joins can probe (or stab)
                // instead of enumerating (a nested plan has neither). A
                // stored memory holds TIDs over its relation's store slot,
                // whose hash indexes each sharer registers below; a dynamic
                // one keeps entries and its own indexes
                if kind == AlphaKind::Stored {
                    node.share(self.store.slot(rels[v]));
                } else {
                    let attr_sets: Vec<Vec<usize>> =
                        plan.composite[v].iter().map(|s| s.attrs.clone()).collect();
                    if !attr_sets.is_empty() {
                        node.set_join_indexes(attr_sets);
                    }
                }
                let shapes: Vec<BandShape> =
                    plan.bands[v].iter().map(|s| s.shape.clone()).collect();
                if !shapes.is_empty() {
                    node.set_range_indexes(shapes);
                }
            }
            let alpha_id = self.node_for(node, rule_slot);
            self.shared[alpha_id.0].sharers.push(Sharer {
                rule: rule_slot,
                var: v,
            });
            let indexes = match self.alpha(alpha_id).store_slot() {
                Some(slot) => {
                    let relation = catalog.rel(rels[v]).expect("a compiled rule's relation");
                    plan.composite[v]
                        .iter()
                        .map(|spec| self.store.register(slot, &spec.attrs, relation))
                        .collect()
                }
                None => Vec::new(),
            };
            dynamic |= kind.is_dynamic();
            vars.push(RuleVar {
                alpha: alpha_id,
                indexes,
            });
            cols.push(PnodeCol {
                var: binding.name.clone(),
                rel: binding.rel.clone(),
                schema: binding.schema.clone(),
                has_prev,
            });
        }
        let pattern_only = cond.on_var.is_none() && cond.trans_vars.is_empty();
        if dynamic {
            self.dynamic_rules.push(rule_slot);
        }
        self.rule_slots.insert(id.0, rule_slot);
        self.rules[rule_slot] = Some(RuleNode {
            id,
            vars,
            join_conjuncts,
            plan,
            pnode: Pnode::new(cols),
            pattern_only,
            tokens_in: 0,
            join_probes: 0,
            pnode_inserts: 0,
            timing: self.observing().then(Box::default),
        });
        Ok(())
    }

    /// The live node with `node`'s key that no variable of the rule in
    /// slot `rule` uses yet, or `node` itself, made live: subscribed to
    /// the selection network and, if dynamic, flushed with each
    /// transition.
    fn node_for(&mut self, mut node: AlphaNode, rule: usize) -> AlphaId {
        let key = NodeKey::of(&node);
        let free_of_rule = |id: &AlphaId| self.shared[id.0].sharers.iter().all(|s| s.rule != rule);
        if let Some(id) = self
            .by_key
            .get(&key)
            .and_then(|ids| ids.iter().copied().find(free_of_rule))
        {
            return id;
        }
        node.timing = self.observing().then(Box::default);
        let (rel, kind) = (node.rel, node.kind);
        // the anchor goes into the selection network unless unsatisfiable
        let anchor = if node.pred.unsatisfiable {
            None
        } else {
            node.pred.anchor.clone()
        };
        let id = alloc_alpha(&mut self.alphas, &mut self.free, node);
        self.selnet.subscribe(id, rel, anchor);
        if kind.is_dynamic() && kind.stores_entries() {
            self.dynamic_alphas.push(id);
        }
        if self.shared.len() <= id.0 {
            self.shared.resize_with(id.0 + 1, Shared::default);
        }
        self.by_key.entry(key).or_default().push(id);
        id
    }

    /// Remove a rule. Each of its α-nodes goes with its last sharer: its
    /// subscription, its memory and, for a stored one, its slots in the
    /// store's union.
    pub fn remove_rule(&mut self, id: RuleId) {
        let Some(slot) = self.rule_slots.remove(&id.0) else {
            return;
        };
        let rule = self.rules[slot].take().expect("live rule");
        self.free_rules.push(slot);
        let mut stored = Vec::new();
        for (v, var) in rule.vars.iter().enumerate() {
            let aid = var.alpha;
            if let Some(s) = self.alpha(aid).store_slot() {
                self.store.unregister(s, &var.indexes);
            }
            let shared = &mut self.shared[aid.0];
            shared
                .sharers
                .retain(|s| *s != Sharer { rule: slot, var: v });
            if !shared.sharers.is_empty() {
                continue;
            }
            *shared = Shared::default();
            self.selnet.unsubscribe(aid);
            let alpha = self.alphas[aid.0].take().expect("live alpha");
            let key = NodeKey::of(&alpha);
            let ids = self.by_key.get_mut(&key).expect("a live node is keyed");
            ids.retain(|a| *a != aid);
            if ids.is_empty() {
                self.by_key.remove(&key);
            }
            if let Some(s) = alpha.store_slot() {
                stored.push(s);
            }
            self.free.push(aid.0);
            self.dynamic_alphas.retain(|a| *a != aid);
        }
        // each relation's union once, from the memories that remain
        stored.sort_unstable();
        stored.dedup();
        for s in stored {
            self.store.rebuild(s, self.alphas.iter().flatten());
        }
        self.dynamic_rules.retain(|r| *r != slot);
        self.conflict.remove(id);
    }

    /// Prime a freshly-added rule (the paper's *activation*, §6) over the
    /// relations' current tuples with the network's own tests. Each stored
    /// memory takes the tuples [`SelectionPredicate::each_match`] finds. A
    /// pattern rule's P-node (event and transition rules start empty) is,
    /// for one variable, that enumeration; for a join, each tuple of the
    /// variable with the smallest `candidate_estimate` extended
    /// through the token path's join, every tuple visible. A predicate or
    /// conjunct that cannot be evaluated on an existing tuple fails the
    /// activation with its error. Priming records no trace events; its
    /// joins count in the memories' join counters like a token's.
    pub fn prime(&mut self, id: RuleId, catalog: &Catalog) -> QueryResult<()> {
        let slot = *self
            .rule_slots
            .get(&id.0)
            .ok_or_else(|| QueryError::Semantic(format!("unknown rule {id}")))?;
        let trace = self.trace.take();
        let primed = self.prime_rule(slot, catalog);
        self.trace = trace;
        let rows = primed?;
        let rule = self.rules[slot].as_mut().expect("live rule");
        for row in rows {
            rule.pnode.push(row);
        }
        if !rule.pnode.is_empty() {
            self.conflict.pushed(id, &rule.pnode);
        }
        Ok(())
    }

    /// [`Self::prime`]'s work: fill the rule's stored memories and return
    /// the instantiations its P-node starts with.
    fn prime_rule(&mut self, slot: usize, catalog: &Catalog) -> QueryResult<Vec<Vec<BoundVar>>> {
        let rule = self.rules[slot].as_ref().expect("live rule");
        for v in &rule.vars {
            let a = self.alphas[v.alpha.0].as_mut().expect("live alpha");
            // a node an earlier sharer primed is kept up to date by tokens
            if a.kind != AlphaKind::Stored || self.shared[v.alpha.0].primed {
                continue;
            }
            let pred = a.pred.clone();
            pred.each_match(live_rel(catalog, a.rel)?, |tid, t| {
                self.store.insert(a, tid, t);
                Ok(())
            })?;
            self.shared[v.alpha.0].primed = true;
        }
        let mut rows = Vec::new();
        if !rule.pattern_only {
            return Ok(rows);
        }
        let seed = (0..rule.vars.len())
            .min_by_key(|&v| self.candidate_estimate(rule, v, catalog))
            .expect("a rule has variables");
        let a = self.alpha(rule.vars[seed].alpha);
        let rel = live_rel(catalog, a.rel)?;
        if rule.vars.len() == 1 {
            a.pred.each_match(rel, |tid, t| {
                rows.push(vec![BoundVar::plain(tid, t.clone())]);
                Ok(())
            })?;
            return Ok(rows);
        }
        let (order, n) = self.join_order(rule, seed, catalog);
        let pending = Pending::default();
        let join = Join {
            rule,
            order: &order[..n],
            catalog,
            token: None,
            pending: &pending,
        };
        let mut row = Row::default();
        let mut extend = |tid: Tid, t: &Tuple| {
            self.join_extend(
                &join,
                seed,
                BoundVar::plain(tid, t.clone()),
                &mut row,
                &mut rows,
            )
        };
        match a.store_slot() {
            Some(_) => {
                for s in a.slots() {
                    let (tid, t) = rel.at(s).expect("a member's slot is live");
                    extend(tid, t)?;
                }
            }
            None => a.pred.each_match(rel, extend)?,
        }
        Ok(rows)
    }

    /// Process one transition's worth of tokens.
    ///
    /// The relations must already be at the batch's end state: every
    /// change the tokens describe is applied, and nothing after them (see
    /// the module docs for why the pending set then reproduces the paper's
    /// processing order). So the last token of each TID agrees with its
    /// relation — a `+` or `Δ+` carries the relation's tuple, a delete `−`
    /// leaves the TID dead. Matching a `+` after its tuple was deleted
    /// would leave a stored memory holding a free slot; matching a delete
    /// `−` before the delete would let a virtual memory serve a tuple its
    /// `−` already retracted. Debug builds check this on entry; tokens of
    /// a destroyed relation are exempt (they are skipped).
    pub fn process_batch(&mut self, tokens: &[Token], catalog: &Catalog) -> QueryResult<()> {
        check_end_state(tokens, catalog);
        self.tokens_processed += tokens.len() as u64;
        let mut pending = std::mem::take(&mut self.pending);
        pending.fill(tokens, catalog);
        let result = self.process_tokens(tokens, catalog, &mut pending);
        pending.clear();
        self.pending = pending;
        self.conflict
            .debug_check(self.rules.iter().flatten().map(|r| (r.id.0, &r.pnode)));
        self.store
            .debug_check(self.alphas.iter().flatten(), catalog);
        result
    }

    fn process_tokens(
        &mut self,
        tokens: &[Token],
        catalog: &Catalog,
        pending: &mut Pending,
    ) -> QueryResult<()> {
        for t in tokens {
            let Some(name) = catalog.name(t.rel) else {
                continue; // a token of a destroyed relation
            };
            if let Some(tr) = &self.trace {
                tr.record(TraceEventKind::TokenEmitted {
                    kind: t.kind.to_string(),
                    rel: name.to_string(),
                    tid: t.tid.0,
                    desc: t.describe(name),
                });
            }
            if t.kind.is_positive() {
                pending.done(t);
                self.process_positive(t, catalog, pending)?;
            } else {
                self.process_negative(t, catalog, pending)?;
            }
        }
        Ok(())
    }

    /// Convenience for tests and benches: process a single token.
    pub fn process_token(&mut self, token: &Token, catalog: &Catalog) -> QueryResult<()> {
        self.process_batch(std::slice::from_ref(token), catalog)
    }

    /// Stab the selection network with the token's value: the α-nodes
    /// whose anchor admits it, plus every unanchored node on the relation.
    /// One probe per token, whatever its polarity. The buffer is the
    /// network's candidate scratch; hand it back with `Self::give_candidates`.
    fn stab(&mut self, token: &Token, catalog: &Catalog) -> Vec<AlphaId> {
        let probe_start = self.selnet_probe.as_ref().map(|_| Instant::now());
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        self.selnet
            .candidates_into(token.rel, &token.tuple, &mut candidates);
        if let (Some(h), Some(t0)) = (&self.selnet_probe, probe_start) {
            h.record(t0.elapsed().as_nanos() as u64);
        }
        if let Some(tr) = &self.trace {
            tr.record(TraceEventKind::SelnetProbe {
                rel: catalog.name(token.rel).unwrap_or_default().to_string(),
                candidates: candidates.len() as u64,
            });
        }
        candidates
    }

    /// Return the buffer [`Self::stab`] handed out, cleared.
    fn give_candidates(&mut self, mut candidates: Vec<AlphaId>) {
        candidates.clear();
        self.scratch.candidates = candidates;
    }

    fn process_positive(
        &mut self,
        token: &Token,
        catalog: &Catalog,
        pending: &Pending,
    ) -> QueryResult<()> {
        let mut matched = self.stab(token, catalog);
        matched.retain(|aid| {
            self.alpha_test(*aid, token, |a| {
                a.admits_positive(token.kind, token.event.as_ref())
                    && a.pred_matches(&token.tuple, token.old.as_ref())
            })
        });
        matched.sort_unstable();
        matched.dedup();
        // ProcessedMemories after the i-th node: `matched[..=i]`
        for i in 0..matched.len() {
            self.insert_and_propagate(
                matched[i],
                BoundVar {
                    tid: Some(token.tid),
                    tuple: token.tuple.clone(),
                    prev: token.old.clone(),
                },
                token,
                &matched[..=i],
                catalog,
                pending,
            )?;
        }
        self.give_candidates(matched);
        Ok(())
    }

    /// Insert a binding into an α-node (if it stores entries), once, and
    /// extend each sharer's P-node with every new full instantiation.
    fn insert_and_propagate(
        &mut self,
        aid: AlphaId,
        seed: BoundVar,
        token: &Token,
        processed: &[AlphaId],
        catalog: &Catalog,
        pending: &Pending,
    ) -> QueryResult<()> {
        let a = self.alphas[aid.0].as_mut().expect("live alpha");
        let kind = a.kind;
        match kind {
            // the relation keeps the tuple; the memory takes its slot
            AlphaKind::Stored => self.store.insert(a, token.tid, &seed.tuple),
            AlphaKind::DynamicOn | AlphaKind::DynamicTrans => a.insert(
                token.tid,
                AlphaEntry {
                    tid: seed.tid,
                    tuple: seed.tuple.clone(),
                    prev: seed.prev.clone(),
                },
            ),
            _ => {}
        }
        let n = self.shared[aid.0].sharers.len();
        let mut seed = Some(seed);
        for i in 0..n {
            let sharer = self.shared[aid.0].sharers[i];
            // the last sharer takes the binding, the others a copy
            let seed = if i + 1 == n {
                seed.take()
            } else {
                seed.clone()
            };
            let seed = seed.expect("a binding per sharer");
            self.propagate(sharer, seed, token, processed, catalog, pending)?;
        }
        Ok(())
    }

    /// Extend the sharer's P-node with every full instantiation binding
    /// `seed` at its variable, which its node has just admitted.
    fn propagate(
        &mut self,
        Sharer {
            rule: rule_slot,
            var,
        }: Sharer,
        seed: BoundVar,
        token: &Token,
        processed: &[AlphaId],
        catalog: &Catalog,
        pending: &Pending,
    ) -> QueryResult<()> {
        let observing = self.observing();
        let rule = self.rules[rule_slot].as_mut().expect("live rule");
        let rule_id = rule.id;
        rule.tokens_in += 1;
        if rule.vars.len() == 1 {
            // single-variable rule: matching data goes straight to the P-node
            let start = observing.then(Instant::now);
            if let Some(tr) = &self.trace {
                tr.record_instantiation(rule_id.0, vec![seed.tid.map(|t| t.0)]);
            }
            rule.pnode.push(vec![seed]);
            rule.pnode_inserts += 1;
            self.conflict.pushed(rule_id, &rule.pnode);
            if let (Some(timing), Some(t0)) = (&rule.timing, start) {
                timing.pnode_insert.record(t0.elapsed().as_nanos() as u64);
            }
            return Ok(());
        }
        // multi-variable: TREAT join against the other variables' memories
        let join_start = observing.then(Instant::now);
        let mut row = std::mem::take(&mut self.scratch.row);
        let mut results = std::mem::take(&mut self.scratch.results);
        let joined = {
            let rule = self.rules[rule_slot].as_ref().expect("live rule");
            let (order, n) = self.join_order(rule, var, catalog);
            let join = Join {
                rule,
                order: &order[..n],
                catalog,
                token: Some((token, processed)),
                pending,
            };
            let joined = self.join_extend(&join, var, seed, &mut row, &mut results);
            if let (Some(timing), Some(t0)) = (&rule.timing, join_start) {
                timing.beta_join.record(t0.elapsed().as_nanos() as u64);
            }
            joined
        };
        row.slots.clear();
        self.scratch.row = row;
        joined?;
        let produced = results.len() as u64;
        let insert_start = observing.then(Instant::now);
        if let Some(tr) = &self.trace {
            for r in &results {
                tr.record_instantiation(rule_id.0, r.iter().map(|b| b.tid.map(|t| t.0)).collect());
            }
        }
        let rule = self.rules[rule_slot].as_mut().expect("live rule");
        rule.join_probes += 1;
        rule.pnode_inserts += produced;
        for r in results.drain(..) {
            rule.pnode.push(r);
        }
        if produced > 0 {
            self.conflict.pushed(rule_id, &rule.pnode);
        }
        self.scratch.results = results;
        if let (Some(timing), Some(t0)) = (&rule.timing, insert_start) {
            timing.pnode_insert.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// The join order of a token entering `rule` at `var`: the other
    /// variables, the (estimated) smallest memory first — a stable
    /// insertion sort on the stack. Returns the `(estimate, variable)`
    /// array and how many of its entries are used.
    fn join_order(
        &self,
        rule: &RuleNode,
        var: usize,
        catalog: &Catalog,
    ) -> ([(usize, usize); MAX_RULE_VARS], usize) {
        let mut order = [(0usize, 0usize); MAX_RULE_VARS];
        let mut n = 0;
        for v in (0..rule.vars.len()).filter(|v| *v != var) {
            order[n] = (self.candidate_estimate(rule, v, catalog), v);
            let mut j = n;
            while j > 0 && order[j - 1].0 > order[j].0 {
                order.swap(j - 1, j);
                j -= 1;
            }
            n += 1;
        }
        (order, n)
    }

    /// Append to `results` every full instantiation extending `seed` at
    /// `seed_var`, built up in `row`. Both are the network's scratch and
    /// come in empty; the caller clears `row` and drains `results`.
    fn join_extend(
        &self,
        join: &Join<'_>,
        seed_var: usize,
        seed: BoundVar,
        row: &mut Row,
        results: &mut Vec<Vec<BoundVar>>,
    ) -> QueryResult<()> {
        row.slots.resize(join.rule.vars.len(), None);
        row.slots[seed_var] = Some(seed);
        self.extend_depth(join, 0, 1u64 << seed_var, row, results)
    }

    /// Test every join conjunct applicable at this depth against a
    /// *borrowed* candidate layered over the partial row — losers are
    /// rejected before any clone happens. `skip` names the conjuncts
    /// already guaranteed by an index probe or stab.
    #[allow(clippy::too_many_arguments)]
    fn conjuncts_pass(
        rule: &RuleNode,
        vbit: u64,
        now_bound: u64,
        row: &Row,
        var: usize,
        tuple: &Tuple,
        prev: Option<&Tuple>,
        skip: &[usize],
    ) -> QueryResult<bool> {
        let env = PatchedEnv {
            base: row,
            var,
            tuple,
            prev,
        };
        for (i, c) in rule.join_conjuncts.iter().enumerate() {
            let mask = rule.plan.conjunct_vars[i];
            // applicable at this depth: uses `var`, nothing still unbound
            if skip.contains(&i) || mask & vbit == 0 || mask & !now_bound != 0 {
                continue;
            }
            if !eval_pred(c, &env)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The cached equi-probe usable at this depth, if any: an applicable
    /// equi-conjunct on `var` whose attribute `has_index` and whose key
    /// evaluates from the bound prefix of the row. Returns the conjunct
    /// index (skippable — the probe guarantees it), the attribute, and the
    /// key value.
    fn find_equi_probe(
        &self,
        rule: &RuleNode,
        var: usize,
        vbit: u64,
        now_bound: u64,
        row: &Row,
        has_index: &dyn Fn(usize) -> bool,
    ) -> Option<(usize, usize, Value)> {
        rule.plan.equi[var]
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let mask = rule.plan.conjunct_vars[*i];
                mask & vbit != 0 && mask & !now_bound == 0
            })
            .find_map(|(i, spec)| {
                let (attr, key_expr) = spec.as_ref()?;
                if !has_index(*attr) {
                    return None;
                }
                let key = ariel_query::eval(key_expr, row).ok()?;
                Some((i, *attr, key))
            })
    }

    /// The composite access path usable at this depth, if any: the first
    /// (widest) spec whose key variables are all bound and whose attribute
    /// tuple the α-memory indexes. Returns the spec and the bucket its
    /// evaluated key selects — one index lookup: a stored memory reaches
    /// its relation's shared index by handle. The bucket lists map keys: a
    /// shared bucket every memory's TIDs on the relation (the caller keeps
    /// the ones `alpha` holds), a node-local one `alpha`'s entries. The key
    /// is packed flat — the common all-scalar/interned-string key
    /// allocates nothing per probe.
    fn find_composite_probe<'s>(
        &'s self,
        rule: &'s RuleNode,
        var: usize,
        bound: u64,
        row: &Row,
        alpha: &'s AlphaNode,
    ) -> Option<(&'s CompositeSpec, &'s [u64])> {
        rule.plan.composite[var]
            .iter()
            .enumerate()
            .find_map(|(i, spec)| {
                if spec.others_mask & !bound != 0 {
                    return None;
                }
                let index = match alpha.store_slot() {
                    Some(slot) => self.store.index(slot, rule.vars[var].indexes[i]),
                    None => alpha.join_index(&spec.attrs)?,
                };
                let mut kb = KeyBuilder::new(spec.key_exprs.len());
                for e in &spec.key_exprs {
                    kb.push(&ariel_query::eval(e, row).ok()?);
                }
                Some((spec, index.bucket(&kb.finish())))
            })
    }

    /// The candidate `alpha` holds under map key `key`, if it holds one
    /// and it is visible: a stored memory's TID, read through `members`
    /// (the memory's relation), or a dynamic memory's entry.
    #[inline]
    fn candidate<'c>(
        alpha: &'c AlphaNode,
        members: Option<&Members<'c>>,
        key: u64,
    ) -> Option<Candidate<'c>> {
        match members {
            Some(members) => {
                let tid = Tid(key);
                if !alpha.contains(tid) {
                    return None;
                }
                members.at(tid.slot()).filter(|c| c.tid == Some(tid))
            }
            None => alpha.entry(key).map(Candidate::of),
        }
    }

    /// Test the candidate `tid`/`tuple`/`prev` against this depth's join
    /// conjuncts (but `skip`) and, if it passes, bind it at `var` and
    /// extend the row below it.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn descend(
        &self,
        join: &Join<'_>,
        depth: usize,
        now_bound: u64,
        var: usize,
        tid: Option<Tid>,
        tuple: &Tuple,
        prev: Option<&Tuple>,
        skip: &[usize],
        row: &mut Row,
        results: &mut Vec<Vec<BoundVar>>,
    ) -> QueryResult<()> {
        let vbit = 1u64 << var;
        if Self::conjuncts_pass(join.rule, vbit, now_bound, row, var, tuple, prev, skip)? {
            row.slots[var] = Some(BoundVar {
                tid,
                tuple: tuple.clone(),
                prev: prev.cloned(),
            });
            self.extend_depth(join, depth + 1, now_bound, row, results)?;
        }
        Ok(())
    }

    /// The band access path usable at this depth, if any: the first spec
    /// whose key variables are all bound and whose shape the α-memory
    /// interval-indexes. Returns the spec and the evaluated stab key.
    fn find_band_probe<'r>(
        &self,
        rule: &'r RuleNode,
        var: usize,
        bound: u64,
        row: &Row,
        alpha: &AlphaNode,
    ) -> Option<(&'r BandSpec, Value)> {
        rule.plan.bands[var].iter().find_map(|spec| {
            if spec.others_mask & !bound != 0 || !alpha.has_range_index(&spec.shape) {
                return None;
            }
            let key = ariel_query::eval(&spec.key_expr, row).ok()?;
            Some((spec, key))
        })
    }

    /// Extend the partial row at `order[depth]` and recurse per survivor.
    ///
    /// Candidates *stream* off borrowed storage: visibility, the
    /// α-predicate (virtual nodes) and this depth's join conjuncts all run
    /// on the borrowed tuple, and a survivor is cloned (an `Arc` refcount
    /// bump) straight into the shared row and descended into on the spot.
    /// The seed collected each depth's survivors into a per-depth
    /// `Vec<BoundVar>` first; deep joins now allocate nothing per depth
    /// beyond the row they already share. This is safe because
    /// `PatchedEnv` fully shadows `var`, every structure the loops borrow
    /// is reached through `&self`, and each depth clears its slot on exit.
    fn extend_depth(
        &self,
        join: &Join<'_>,
        depth: usize,
        bound: u64,
        row: &mut Row,
        results: &mut Vec<Vec<BoundVar>>,
    ) -> QueryResult<()> {
        let rule = join.rule;
        if depth == join.order.len() {
            results.push(
                row.slots
                    .iter()
                    .map(|s| s.clone().expect("fully bound"))
                    .collect(),
            );
            return Ok(());
        }
        let var = join.order[depth].1;
        let vbit = 1u64 << var;
        let now_bound = bound | vbit;
        let alpha_idx = rule.vars[var].alpha.0;
        let alpha = self.alpha(rule.vars[var].alpha);
        match alpha.kind {
            AlphaKind::Virtual => {
                let scan_start = alpha.timing.as_ref().map(|_| Instant::now());
                // §4.2: join through the base relation under the node's
                // predicate, honoring pending/ProcessedMemories visibility.
                // "The base relation scan … can be done with any scan
                // algorithm — index scan or sequential scan": when one of
                // this depth's equi-conjuncts probes an indexed attribute,
                // substitute the constant from the partial row and use the
                // index instead of scanning. (Base relations only keep
                // single-attribute indexes, so virtual nodes stay on the
                // single-key probe path.)
                let rel_b = live_rel(join.catalog, alpha.rel)?;
                let pend = join.pending.of(alpha.rel);
                // the in-flight token's own tuple is visible only once this
                // node is in ProcessedMemories
                let hidden = join.token.and_then(|(t, processed)| {
                    let own_ok = processed.binary_search(&AlphaId(alpha_idx)).is_ok();
                    (t.rel == alpha.rel && !own_ok).then_some(t.tid)
                });
                let visible =
                    |tid: Tid| !pend.is_some_and(|p| p.contains_key(&tid.0)) && Some(tid) != hidden;
                // a token's α test reads an error as "no match"; priming's
                // fails the activation with it
                let priming = join.token.is_none();
                let passes = |t: &Tuple| {
                    if priming {
                        alpha.pred.matches(t, None)
                    } else {
                        Ok(alpha.pred_matches(t, None))
                    }
                };
                let probe = self.find_equi_probe(rule, var, vbit, now_bound, row, &|attr| {
                    rel_b.index_on(attr).is_some()
                });
                let via_index = probe.is_some();
                let mut served = 0u64;
                let scanned = match probe {
                    Some((skip, attr, key)) => {
                        AlphaCounters::bump(&alpha.counters.index_probes, 1);
                        // a Null key joins nothing; the bucket is borrowed
                        let hits = (!key.is_null())
                            .then(|| rel_b.probe_eq(attr, &key))
                            .flatten()
                            .into_iter()
                            .flatten();
                        let mut scanned = 0u64;
                        for (tid, t) in hits {
                            scanned += 1;
                            if !visible(tid) || !passes(t)? {
                                continue;
                            }
                            served += 1;
                            if Self::conjuncts_pass(
                                rule,
                                vbit,
                                now_bound,
                                row,
                                var,
                                t,
                                None,
                                &[skip],
                            )? {
                                row.slots[var] = Some(BoundVar::plain(tid, t.clone()));
                                self.extend_depth(join, depth + 1, now_bound, row, results)?;
                            }
                        }
                        if scanned > 0 {
                            AlphaCounters::bump(&alpha.counters.index_hits, 1);
                        }
                        scanned
                    }
                    None => {
                        for (tid, t) in rel_b.scan() {
                            if !visible(tid) || !passes(t)? {
                                continue;
                            }
                            served += 1;
                            if Self::conjuncts_pass(rule, vbit, now_bound, row, var, t, None, &[])?
                            {
                                row.slots[var] = Some(BoundVar::plain(tid, t.clone()));
                                self.extend_depth(join, depth + 1, now_bound, row, results)?;
                            }
                        }
                        rel_b.len() as u64
                    }
                };
                AlphaCounters::bump(&alpha.counters.virtual_scans, 1);
                AlphaCounters::bump(&alpha.counters.scanned_tuples, scanned);
                AlphaCounters::bump(&alpha.counters.join_candidates, served);
                if let Some(tr) = &self.trace {
                    tr.record(TraceEventKind::VirtualScan {
                        rule: rule.id.0,
                        var,
                        scanned,
                        served,
                    });
                }
                if via_index {
                    AlphaCounters::bump(&alpha.counters.indexed_candidates, served);
                } else {
                    AlphaCounters::bump(&alpha.counters.scanned_candidates, served);
                }
                if let (Some(timing), Some(t0)) = (&alpha.timing, scan_start) {
                    // streaming join: this span covers the depths below
                    // too, not just the scan itself
                    timing.virtual_scan.record(t0.elapsed().as_nanos() as u64);
                }
            }
            _ => {
                // access-path choice: a composite hash probe answers the
                // most equi-conjuncts in one lookup; failing that a band
                // stab answers an inequality pair; failing both, enumerate
                let mut served = 0u64;
                let mut indexed = true;
                // a stored memory's members are its relation's tuples
                let members = match alpha.store_slot() {
                    Some(_) => Some(Members {
                        rel: live_rel(join.catalog, alpha.rel)?,
                        pending: join.pending.of(alpha.rel),
                    }),
                    None => None,
                };
                let members = members.as_ref();
                if let Some((spec, bucket)) =
                    self.find_composite_probe(rule, var, bound, row, alpha)
                {
                    AlphaCounters::bump(&alpha.counters.index_probes, 1);
                    for &k in bucket {
                        // a shared bucket lists TIDs other memories hold
                        let Some(cand) = Self::candidate(alpha, members, k) else {
                            continue;
                        };
                        served += 1;
                        self.descend(
                            join,
                            depth,
                            now_bound,
                            var,
                            cand.tid,
                            cand.tuple,
                            cand.prev,
                            &spec.conjuncts,
                            row,
                            results,
                        )?;
                    }
                    if served > 0 {
                        AlphaCounters::bump(&alpha.counters.index_hits, 1);
                    }
                } else if let Some((spec, key)) = self.find_band_probe(rule, var, bound, row, alpha)
                {
                    AlphaCounters::bump(&alpha.counters.range_probes, 1);
                    // the hits stream off the skip list into the join; the
                    // first error stops it
                    let mut joined = Ok(());
                    alpha
                        .stab(&spec.shape, &key, |k| {
                            if joined.is_err() {
                                return;
                            }
                            // a band index files only the keys its memory holds
                            let Some(cand) = Self::candidate(alpha, members, k) else {
                                return;
                            };
                            served += 1;
                            joined = self.descend(
                                join,
                                depth,
                                now_bound,
                                var,
                                cand.tid,
                                cand.tuple,
                                cand.prev,
                                &spec.conjuncts,
                                row,
                                results,
                            );
                        })
                        .expect("probe found a registered index");
                    joined?;
                    if served > 0 {
                        AlphaCounters::bump(&alpha.counters.range_hits, 1);
                    }
                } else {
                    indexed = false;
                    match members {
                        Some(members) => {
                            for cand in alpha.slots().filter_map(|s| members.at(s)) {
                                served += 1;
                                self.descend(
                                    join,
                                    depth,
                                    now_bound,
                                    var,
                                    cand.tid,
                                    cand.tuple,
                                    None,
                                    &[],
                                    row,
                                    results,
                                )?;
                            }
                        }
                        None => {
                            for e in alpha.entries() {
                                served += 1;
                                self.descend(
                                    join,
                                    depth,
                                    now_bound,
                                    var,
                                    e.tid,
                                    &e.tuple,
                                    e.prev.as_ref(),
                                    &[],
                                    row,
                                    results,
                                )?;
                            }
                        }
                    }
                }
                AlphaCounters::bump(&alpha.counters.join_candidates, served);
                if let Some(tr) = &self.trace {
                    tr.record(TraceEventKind::BetaProbe {
                        rule: rule.id.0,
                        var,
                        candidates: served,
                        indexed,
                    });
                }
                if indexed {
                    AlphaCounters::bump(&alpha.counters.indexed_candidates, served);
                } else {
                    AlphaCounters::bump(&alpha.counters.scanned_candidates, served);
                }
            }
        }
        row.slots[var] = None;
        Ok(())
    }

    /// Estimated β-join candidates variable `var` would contribute, used
    /// to pick the join order. An indexed memory sorts as its *expected
    /// bucket size* — a probe serves one bucket, not the whole memory —
    /// and likewise a virtual node over an indexed base relation.
    fn candidate_estimate(&self, rule: &RuleNode, var: usize, catalog: &Catalog) -> usize {
        let alpha = self.alpha(rule.vars[var].alpha);
        match alpha.kind {
            AlphaKind::Virtual => {
                let Some(rel_b) = catalog.rel(alpha.rel) else {
                    return 0;
                };
                let n = rel_b.len();
                rule.plan.equi[var]
                    .iter()
                    .flatten()
                    .filter_map(|(attr, _)| {
                        let ix = rel_b.index_on(*attr)?;
                        Some(n.div_ceil(ix.distinct_keys().max(1)))
                    })
                    .min()
                    .unwrap_or(n)
            }
            _ => {
                // an unindexed memory (a nested plan registers none)
                // falls through to its full size
                let estimate = match alpha.store_slot() {
                    Some(slot) => rule.vars[var]
                        .indexes
                        .iter()
                        .map(|&ix| self.store.expected_bucket(slot, ix, alpha.len()))
                        .min(),
                    None => alpha.min_expected_bucket_size(),
                };
                estimate.unwrap_or(alpha.len())
            }
        }
    }

    /// TREAT's cheap delete path (§4.2): drop the TID from the α-memories
    /// that hold it and retract the P-node rows binding it — found by
    /// stabbing the selection network with the value the token carries,
    /// exactly as a `+` token finds the nodes it enters.
    ///
    /// Why the stab finds every node that matters. A `−` / `Δ−` / bare `−`
    /// token carries the value being removed: the tuple's value as of the
    /// previous token for that TID (`ariel::delta`). An α-entry under a TID
    /// was put there by a positive token (or by priming) carrying that same
    /// value, and only into a node the stab for that value returned; a
    /// P-node row binding the TID at variable `v` took its value from the
    /// token, from such an entry, or from a virtual node's scan — which
    /// applies the node's full predicate, anchor included, and (pending
    /// set) never serves a tuple that a later token of the batch is still
    /// going to change. So wherever the TID is held, the held value equals
    /// the token's value and passed that node's anchor. Anchors are
    /// intervals over the *current* value only (`previous` never anchors, a
    /// null never passes one), and nodes without an anchor — including
    /// unsatisfiable ones — are candidates for every token.
    ///
    /// The same argument is why stored memories may share one index per
    /// relation: every holder of a TID is emptied by its `−` before any
    /// holder takes the next value, so the TID is filed under one value and
    /// leaves the indexes with the `−` (`crate::store`).
    fn process_negative(
        &mut self,
        token: &Token,
        catalog: &Catalog,
        pending: &Pending,
    ) -> QueryResult<()> {
        let mut candidates = self.stab(token, catalog);
        for &aid in &candidates {
            let a = self.alphas[aid.0].as_mut().expect("live alpha");
            if a.store_slot().is_some() {
                a.unhold(token.tid);
            } else {
                a.remove(token.tid);
            }
            for s in &self.shared[aid.0].sharers {
                let rule = self.rules[s.rule].as_mut().expect("live rule");
                if rule.pnode.retract(s.var, token.tid) > 0 {
                    self.conflict.sync(rule.id, &rule.pnode);
                }
            }
        }
        // no stored memory holds the TID now: it leaves the shared indexes
        self.store.release(token.rel, token.tid, &token.tuple);
        // ON DELETE conditions: the dying tuple *matches* them (§4.3.1,
        // case 4: "a delete− … will match any applicable on delete rule
        // conditions"). The tuple is bound with no TID — it no longer
        // exists, so primed commands can never address it. Only an ON
        // node can pass, so only those are tested.
        if token.kind == TokenKind::Minus && token.event == Some(EventSpecifier::Delete) {
            candidates.retain(|aid| {
                self.alpha(*aid).kind.is_on()
                    && self.alpha_test(*aid, token, |a| {
                        a.event == Some(EventReq::Delete) && a.pred_matches(&token.tuple, None)
                    })
            });
            candidates.sort_unstable();
            for i in 0..candidates.len() {
                self.insert_and_propagate(
                    candidates[i],
                    BoundVar {
                        tid: None,
                        tuple: token.tuple.clone(),
                        prev: None,
                    },
                    token,
                    &candidates[..=i],
                    catalog,
                    pending,
                )?;
            }
        }
        self.give_candidates(candidates);
        Ok(())
    }

    /// Flush per-transition state: dynamic α-memories and the P-nodes of
    /// rules with event/transition components ("the binding between the
    /// matching data and the condition should be broken", §4.3.2). The
    /// engine calls this when a recognize-act cycle reaches quiescence.
    pub fn flush_transition_state(&mut self) {
        for aid in &self.dynamic_alphas {
            let a = self.alphas[aid.0].as_mut().expect("live alpha");
            if !a.is_empty() {
                a.flush();
            }
        }
        for &slot in &self.dynamic_rules {
            let rule = self.rules[slot].as_mut().expect("live rule");
            rule.pnode.clear();
            self.conflict.sync(rule.id, &rule.pnode);
        }
    }

    /// The P-node of a rule.
    pub fn pnode(&self, id: RuleId) -> Option<&Pnode> {
        self.rule(id).map(|r| &r.pnode)
    }

    /// Drain a rule's P-node (consumed instantiations at rule firing) into
    /// a P-node of the same columns. `None` for unknown rules.
    pub fn drain_pnode(&mut self, id: RuleId) -> Option<Pnode> {
        let rule = self.rules[*self.rule_slots.get(&id.0)?]
            .as_mut()
            .expect("live rule");
        let drained = rule.pnode.take();
        self.conflict.sync(id, &rule.pnode);
        Some(drained)
    }

    /// Replace a rule's P-node rows wholesale (crash recovery: priming
    /// rebuilds α/β state from relations, but a P-node also carries
    /// *history* — matches consumed by earlier firings are gone — so the
    /// recovered engine overwrites the primed rows with the snapshotted
    /// ones). No-op for unknown rules.
    pub fn set_pnode_rows(&mut self, id: RuleId, rows: Vec<Vec<BoundVar>>) {
        if let Some(&slot) = self.rule_slots.get(&id.0) {
            let r = self.rules[slot].as_mut().expect("live rule");
            r.pnode.clear();
            for row in rows {
                r.pnode.push(row);
            }
            // restored history, not a transition's gain: no `gained` entry
            self.conflict.sync(id, &r.pnode);
        }
    }

    /// Rules whose P-node is non-empty, ascending by id — walked off the
    /// maintained conflict set, `O(matched)`, allocating nothing.
    pub fn conflict_set(&self) -> impl Iterator<Item = RuleId> + '_ {
        self.conflict.iter()
    }

    /// [`Network::conflict_set`], collected.
    pub fn rules_with_matches(&self) -> Vec<RuleId> {
        self.conflict_set().collect()
    }

    /// Hand `f` every rule that gained an instantiation since the last
    /// call (the engine stamps conflict-resolution recency from this).
    pub fn drain_gained(&mut self, f: impl FnMut(RuleId)) {
        self.conflict.drain_gained(f)
    }

    /// Memory statistics for one rule.
    pub fn rule_stats(&self, id: RuleId) -> Option<RuleStats> {
        let rule = self.rule(id)?;
        let alphas = NetworkStats::of_alphas(rule.vars.iter().map(|v| self.alpha(v.alpha)));
        Some(RuleStats {
            pnode_rows: rule.pnode.len(),
            pnode_bytes: rule.pnode.heap_size(),
            tokens_in: rule.tokens_in,
            join_probes: rule.join_probes,
            pnode_inserts: rule.pnode_inserts,
            ..alphas.rule_alphas()
        })
    }

    /// Aggregate statistics across the network.
    pub fn stats(&self) -> NetworkStats {
        let (selnet_probes, selnet_candidates) = self.selnet.probe_counts();
        let stab = self.selnet.stab_stats();
        let alphas = NetworkStats::of_alphas(self.alphas.iter().flatten());
        let mut s = NetworkStats {
            rules: self.rule_count(),
            selnet_bytes: self.selnet.approx_size_bytes(),
            tokens_processed: self.tokens_processed,
            selnet_probes,
            selnet_candidates,
            islist_stabs: stab.stabs.get(),
            islist_nodes_visited: stab.nodes_visited.get(),
            // the shared per-relation indexes, counted once
            alpha_bytes: self.store.bytes() + alphas.alpha_bytes,
            ..alphas
        };
        for r in self.rules.iter().flatten() {
            s.pnode_rows += r.pnode.len();
            s.pnode_bytes += r.pnode.heap_size();
            s.join_probes += r.join_probes;
            s.pnode_inserts += r.pnode_inserts;
        }
        s
    }

    /// Declare every [`NetworkStats`] field: the JSON `"network"` object
    /// and the `ariel_network_*` families.
    pub fn export(&self, m: &mut Metrics) {
        let s = self.stats();
        let at = Place::root().key("network");
        let gauges = ariel_islist::metric_rows!(s;
            rules: "Active rules.",
            alpha_nodes: "Alpha nodes of all kinds.",
            virtual_alpha_nodes: "Virtual alpha nodes.",
            alpha_entries: "Entries in stored alpha memories.",
            alpha_bytes: "Bytes in alpha memories and their join indexes.",
            pnode_rows: "Instantiations waiting in P-nodes.",
            pnode_bytes: "Bytes held by P-nodes.",
            selnet_bytes: "Bytes held by the selection network.",
            beta_bytes: "Beta-memory bytes (always 0: A-TREAT keeps none).",
        );
        m.table(&at, "ariel_network", Kind::Gauge, &gauges);
        let counters = ariel_islist::metric_rows!(s;
            tokens_processed: "Tokens processed by the match network.",
            selnet_probes: "Selection-network probes.",
            selnet_candidates: "Candidate alpha nodes the probes emitted.",
            islist_stabs: "Interval-skip-list stabs behind the probes.",
            islist_nodes_visited: "Skip-list nodes those stabs visited.",
            alpha_tests: "Alpha-node predicate tests.",
            alpha_passes: "Alpha-node predicate passes.",
            join_probes: "Join probes across all rules.",
            pnode_inserts: "Instantiations inserted into P-nodes.",
            virtual_scans: "Join materializations of virtual alpha nodes.",
            virtual_scanned_tuples: "Base-relation tuples those materializations read.",
            stored_join_candidates: "Join candidates served from stored alpha memories.",
            virtual_join_candidates: "Join candidates served by virtual materialization.",
            index_probes: "Join-index probes.",
            index_hits: "Join-index probe hits.",
            indexed_candidates: "Join candidates served through an index probe or stab.",
            scanned_candidates: "Join candidates served by a full scan.",
            range_probes: "Interval-index stabbing probes (band joins).",
            range_hits: "Range probes that found a candidate.",
            beta_probes: "Beta-memory index probes (always 0: A-TREAT keeps none).",
            beta_hits: "Beta probes that found a partial match (always 0 likewise).",
        );
        m.table(&at, "ariel_network", Kind::Counter, &counters);
    }

    /// The timing tier's phase histograms, each the sum of the per-node
    /// or per-rule ones it is made of; `None` while the tier is off.
    pub fn phases(&self) -> Option<[(&'static str, Histogram); 5]> {
        let selnet_probe = self.selnet_probe.clone()?;
        let [alpha_test, virtual_scan, beta_join, pnode_insert] =
            std::array::from_fn(|_| Histogram::new());
        for t in self
            .alphas
            .iter()
            .flatten()
            .filter_map(|a| a.timing.as_ref())
        {
            alpha_test.merge(&t.alpha_test);
            virtual_scan.merge(&t.virtual_scan);
        }
        for t in self
            .rules
            .iter()
            .flatten()
            .filter_map(|r| r.timing.as_ref())
        {
            beta_join.merge(&t.beta_join);
            pnode_insert.merge(&t.pnode_insert);
        }
        Some([
            ("selnet_probe", selnet_probe),
            ("alpha_test", alpha_test),
            ("virtual_scan", virtual_scan),
            ("beta_join", beta_join),
            ("pnode_insert", pnode_insert),
        ])
    }

    /// Declare the timing tier's histograms in the JSON `"timing"`
    /// object under `"match"`: the phases (also the
    /// `ariel_match_phase_duration_ns` family), and JSON-only, every
    /// node's by `(rule, var)` and every rule's. Nothing while the tier is
    /// off.
    pub fn export_timing(&self, m: &mut Metrics) {
        let Some(phases) = self.phases() else {
            return;
        };
        let at = Place::root().key("timing").key("match");
        let f = m.family(
            "ariel_match_phase_duration_ns",
            Kind::Histogram,
            "Wall-clock time per match phase, in nanoseconds.",
        );
        for (phase, h) in &phases {
            m.put(
                &at.key("phases").key(*phase).label("phase", *phase),
                Some(f),
                h,
            );
        }
        // a shared node under each of its sharers
        let mut nodes: Vec<(u64, usize, &AlphaTiming)> = Vec::new();
        for (a, shared) in self.alphas.iter().zip(&self.shared) {
            let Some(t) = a.as_ref().and_then(|a| a.timing.as_deref()) else {
                continue;
            };
            for s in &shared.sharers {
                let rule = self.rules[s.rule].as_ref().expect("live rule");
                nodes.push((rule.id.0, s.var, t));
            }
        }
        nodes.sort_by_key(|&(rule, var, _)| (rule, var));
        m.put(&at.key("nodes"), None, ariel_islist::Value::Array);
        for (i, (rule, var, t)) in nodes.into_iter().enumerate() {
            let n = at.key("nodes").index(i);
            m.put(&n.key("rule"), None, rule);
            m.put(&n.key("var"), None, var);
            m.put(&n.key("alpha_test"), None, &t.alpha_test);
            m.put(&n.key("virtual_scan"), None, &t.virtual_scan);
        }
        m.put(&at.key("rules"), None, ariel_islist::Value::Array);
        let mut rules: Vec<(u64, &RuleTiming)> = self
            .rules
            .iter()
            .flatten()
            .filter_map(|r| Some((r.id.0, r.timing.as_deref()?)))
            .collect();
        rules.sort_by_key(|(id, _)| *id);
        for (i, (id, t)) in rules.into_iter().enumerate() {
            let r = at.key("rules").index(i);
            m.put(&r.key("rule"), None, id);
            m.put(&r.key("beta_join"), None, &t.beta_join);
            m.put(&r.key("pnode_insert"), None, &t.pnode_insert);
        }
    }

    /// A rule's α-nodes in variable order and its timing: what `explain
    /// analyze` reads before and after a run.
    pub fn rule_activity(&self, id: RuleId) -> Option<(Vec<&AlphaNode>, Option<&RuleTiming>)> {
        let rule = self.rule(id)?;
        let nodes = rule.vars.iter().map(|v| self.alpha(v.alpha)).collect();
        Some((nodes, rule.timing.as_deref()))
    }

    /// The α-node kinds of a rule's variables, in variable order (tests and
    /// the VIRT ablation use this to confirm policy decisions).
    pub fn alpha_kinds(&self, id: RuleId) -> Option<Vec<AlphaKind>> {
        let rule = self.rule(id)?;
        Some(rule.vars.iter().map(|v| self.alpha(v.alpha).kind).collect())
    }

    /// Per-variable topology of a compiled rule — `(variable name,
    /// relation, α-node kind)` in variable order — plus the number of
    /// multi-variable join conjuncts. Drives `explain analyze` rendering.
    pub fn rule_topology(&self, id: RuleId) -> Option<RuleTopology> {
        let rule = self.rule(id)?;
        let vars = rule
            .pnode
            .cols()
            .iter()
            .zip(&rule.vars)
            .map(|(col, v)| (col.var.clone(), col.rel.clone(), self.alpha(v.alpha).kind))
            .collect();
        Some((vars, rule.join_conjuncts.len()))
    }
}

/// `(variable name, relation, α-node kind)` per condition variable, plus
/// the rule's multi-variable join conjunct count (see
/// [`Network::rule_topology`]).
pub type RuleTopology = (Vec<(String, String, AlphaKind)>, usize);

fn resolve_event(kind: &EventKind, schema: &SchemaRef) -> EventReq {
    match kind {
        EventKind::Append => EventReq::Append,
        EventKind::Delete => EventReq::Delete,
        EventKind::Replace(None) => EventReq::Replace(None),
        EventKind::Replace(Some(attrs)) => EventReq::Replace(Some(
            attrs
                .iter()
                .map(|a| schema.index_of(a).expect("validated by resolver"))
                .collect(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariel_query::{parse_expr, EventSpec, FromItem, Resolver};
    use ariel_storage::{AttrType, Schema, Tuple, Value};

    /// `emp` and `dept` in every catalog these tests build: created
    /// first and second.
    const EMP: RelId = RelId::new(0, 0);
    const DEPT: RelId = RelId::new(1, 0);

    fn paper_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(
            "emp",
            Schema::of(&[
                ("name", AttrType::Str),
                ("age", AttrType::Int),
                ("sal", AttrType::Float),
                ("dno", AttrType::Int),
                ("jno", AttrType::Int),
            ]),
        )
        .unwrap();
        c.create(
            "dept",
            Schema::of(&[("dno", AttrType::Int), ("name", AttrType::Str)]),
        )
        .unwrap();
        c.create(
            "job",
            Schema::of(&[("jno", AttrType::Int), ("title", AttrType::Str)]),
        )
        .unwrap();
        c
    }

    fn emp_row(name: &str, sal: f64, dno: i64, jno: i64) -> Vec<Value> {
        vec![
            name.into(),
            30i64.into(),
            sal.into(),
            dno.into(),
            jno.into(),
        ]
    }

    fn insert_emp(c: &mut Catalog, name: &str, sal: f64, dno: i64, jno: i64) -> (Tid, Tuple) {
        let rel = c.get_mut("emp").unwrap();
        let tid = rel.insert(emp_row(name, sal, dno, jno)).unwrap();
        let t = rel.get(tid).cloned().unwrap();
        (tid, t)
    }

    fn cond(
        c: &Catalog,
        on: Option<EventSpec>,
        qual: &str,
        from: &[(&str, &str)],
    ) -> ResolvedCondition {
        let e = parse_expr(qual).unwrap();
        let from: Vec<FromItem> = from
            .iter()
            .map(|(v, r)| FromItem {
                var: v.to_string(),
                rel: r.to_string(),
            })
            .collect();
        Resolver::new(c)
            .resolve_condition(on.as_ref(), Some(&e), &from)
            .unwrap()
    }

    fn append_token(tid: Tid, t: Tuple) -> Token {
        Token::plus(EMP, tid, t, EventSpecifier::Append)
    }

    #[test]
    fn single_var_rule_prime_and_tokens() {
        let mut cat = paper_catalog();
        insert_emp(&mut cat, "Bob", 10_000.0, 1, 1);
        insert_emp(&mut cat, "Al", 50_000.0, 1, 1);
        let mut net = Network::new();
        let rc = cond(&cat, None, "emp.sal > 30000", &[]);
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        assert_eq!(net.alpha_kinds(RuleId(1)).unwrap(), vec![AlphaKind::Simple]);
        net.prime(RuleId(1), &cat).unwrap();
        // Al matches at activation
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // new matching emp arrives
        let (tid, t) = insert_emp(&mut cat, "Cy", 40_000.0, 2, 1);
        net.process_token(&append_token(tid, t.clone()), &cat)
            .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 2);
        // non-matching emp does nothing
        let (tid2, t2) = insert_emp(&mut cat, "Lo", 1000.0, 2, 1);
        net.process_token(&append_token(tid2, t2), &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 2);
        // deletion retracts
        cat.get_mut("emp").unwrap().delete(tid).unwrap();
        net.process_token(&Token::minus(EMP, tid, t, EventSpecifier::Delete), &cat)
            .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
    }

    /// Replace `tid`'s row with `row` and return the new tuple.
    fn update_emp(c: &mut Catalog, tid: Tid, row: Vec<Value>) -> Tuple {
        let rel = c.get_mut("emp").unwrap();
        rel.update(tid, row).unwrap();
        rel.get(tid).cloned().unwrap()
    }

    fn sales_clerk_cond(cat: &Catalog) -> ResolvedCondition {
        cond(
            cat,
            None,
            "emp.sal > 30000 and emp.dno = dept.dno and dept.name = \"Sales\" \
             and emp.jno = job.jno and job.title = \"Clerk\"",
            &[],
        )
    }

    fn populate_sales_clerk(cat: &mut Catalog) {
        let dept = cat.get_mut("dept").unwrap();
        dept.insert(vec![1i64.into(), "Sales".into()]).unwrap();
        dept.insert(vec![2i64.into(), "Toy".into()]).unwrap();
        let job = cat.get_mut("job").unwrap();
        job.insert(vec![7i64.into(), "Clerk".into()]).unwrap();
        job.insert(vec![8i64.into(), "Boss".into()]).unwrap();
    }

    #[test]
    fn sales_clerk_rule_stored_network() {
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        let mut net = Network::new();
        net.add_rule(
            RuleId(1),
            &sales_clerk_cond(&cat),
            &VirtualPolicy::AllStored,
            &cat,
        )
        .unwrap();
        assert_eq!(
            net.alpha_kinds(RuleId(1)).unwrap(),
            vec![AlphaKind::Stored, AlphaKind::Stored, AlphaKind::Stored]
        );
        net.prime(RuleId(1), &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0);
        // matching emp: high salary, Sales dept, Clerk job
        let (tid, t) = insert_emp(&mut cat, "Sue", 45_000.0, 1, 7);
        net.process_token(&append_token(tid, t), &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // wrong dept
        let (tid2, t2) = insert_emp(&mut cat, "Tom", 45_000.0, 2, 7);
        net.process_token(&append_token(tid2, t2), &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // wrong job
        let (tid3, t3) = insert_emp(&mut cat, "Ann", 45_000.0, 1, 8);
        net.process_token(&append_token(tid3, t3), &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // low salary
        let (tid4, t4) = insert_emp(&mut cat, "Pat", 5_000.0, 1, 7);
        net.process_token(&append_token(tid4, t4), &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
    }

    #[test]
    fn scratch_buffers_are_reused_across_tokens() {
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        let mut net = Network::new();
        assert_eq!(net.scratch_bytes(), 0, "a fresh network holds no scratch");
        let cond = sales_clerk_cond(&cat);
        net.add_rule(RuleId(1), &cond, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        let (tid, t) = insert_emp(&mut cat, "Sue", 45_000.0, 1, 7);
        net.process_token(&append_token(tid, t), &cat).unwrap();
        let warm = net.scratch_bytes();
        assert!(warm > 0, "the join drew candidate, row and result buffers");
        for name in ["Ann", "Bob", "Cy"] {
            let (tid, t) = insert_emp(&mut cat, name, 45_000.0, 1, 7);
            net.process_token(&append_token(tid, t), &cat).unwrap();
        }
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 4);
        assert_eq!(net.scratch_bytes(), warm, "later tokens reuse the buffers");
    }

    #[test]
    fn virtual_alpha_matches_stored_results() {
        // Fig. 4: make the emp α-memory (alpha2, low selectivity) virtual.
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        for i in 0..20 {
            insert_emp(
                &mut cat,
                &format!("e{i}"),
                40_000.0 + i as f64,
                1 + (i % 2),
                7,
            );
        }
        let build = |policy: &VirtualPolicy| {
            let mut net = Network::new();
            net.add_rule(RuleId(1), &sales_clerk_cond(&cat), policy, &cat)
                .unwrap();
            net.prime(RuleId(1), &cat).unwrap();
            let (tid, t) = {
                let rel = cat.get("emp").unwrap();
                let r = rel;
                let (tid, t) = r.scan().last().unwrap();
                (tid, t.clone())
            };
            // re-process the last emp as if newly inserted is not valid;
            // instead insert a new one per policy run below.
            let _ = (tid, t);
            net
        };
        let mut stored = build(&VirtualPolicy::AllStored);
        let mut virt = build(&VirtualPolicy::ExplicitVars(HashSet::from([0])));
        assert_eq!(virt.alpha_kinds(RuleId(1)).unwrap()[0], AlphaKind::Virtual);
        // both nets see the same new token
        let (tid, t) = insert_emp(&mut cat, "new", 99_000.0, 1, 7);
        stored
            .process_token(&append_token(tid, t.clone()), &cat)
            .unwrap();
        virt.process_token(&append_token(tid, t), &cat).unwrap();
        let p1 = stored.pnode(RuleId(1)).unwrap();
        let p2 = virt.pnode(RuleId(1)).unwrap();
        assert_eq!(p1.len(), p2.len());
        assert!(!p1.is_empty());
        // and virtual saves α-memory bytes
        let s1 = stored.rule_stats(RuleId(1)).unwrap();
        let s2 = virt.rule_stats(RuleId(1)).unwrap();
        assert!(s2.alpha_bytes < s1.alpha_bytes);
    }

    #[test]
    fn selectivity_threshold_policy() {
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        for i in 0..10 {
            insert_emp(&mut cat, &format!("e{i}"), 40_000.0, 1, 7);
        }
        // emp.sal > 30000 matches everything (low selectivity) → virtual;
        // dept/job predicates match half → stored at 0.6 threshold
        let mut net = Network::new();
        net.add_rule(
            RuleId(1),
            &sales_clerk_cond(&cat),
            &VirtualPolicy::SelectivityThreshold(0.6),
            &cat,
        )
        .unwrap();
        let kinds = net.alpha_kinds(RuleId(1)).unwrap();
        assert_eq!(kinds[0], AlphaKind::Virtual, "emp pred matches 100% > 60%");
        assert_eq!(kinds[1], AlphaKind::Stored, "dept pred matches 50%");
        assert_eq!(kinds[2], AlphaKind::Stored, "job pred matches 50%");
    }

    fn self_join_cond(cat: &Catalog) -> ResolvedCondition {
        cond(cat, None, "a.dno = b.dno", &[("a", "emp"), ("b", "emp")])
    }

    #[test]
    fn self_join_counting_stored_vs_virtual() {
        for policy in [
            VirtualPolicy::AllStored,
            VirtualPolicy::AllVirtual,
            VirtualPolicy::ExplicitVars(HashSet::from([0])),
            VirtualPolicy::ExplicitVars(HashSet::from([1])),
        ] {
            let mut cat = paper_catalog();
            let (ytid, yt) = insert_emp(&mut cat, "y", 1.0, 5, 1);
            let mut net = Network::new();
            net.add_rule(RuleId(1), &self_join_cond(&cat), &policy, &cat)
                .unwrap();
            net.prime(RuleId(1), &cat).unwrap();
            let base = net.pnode(RuleId(1)).unwrap().len();
            // priming a pattern rule loads (y,y)
            assert_eq!(base, 1, "policy {policy:?}");
            let _ = (ytid, yt);
            // new tuple t with same dno: expect exactly 3 new rows:
            // (t,t), (t,y), (y,t)
            let (tid, t) = insert_emp(&mut cat, "t", 2.0, 5, 1);
            net.process_token(&append_token(tid, t), &cat).unwrap();
            assert_eq!(
                net.pnode(RuleId(1)).unwrap().len(),
                4,
                "self-join count wrong for policy {policy:?}"
            );
        }
    }

    #[test]
    fn batch_insert_no_double_count() {
        for policy in [VirtualPolicy::AllStored, VirtualPolicy::AllVirtual] {
            let mut cat = paper_catalog();
            let mut net = Network::new();
            net.add_rule(RuleId(1), &self_join_cond(&cat), &policy, &cat)
                .unwrap();
            net.prime(RuleId(1), &cat).unwrap();
            // two tuples inserted in one command (one batch)
            let (t1, v1) = insert_emp(&mut cat, "t1", 1.0, 5, 1);
            let (t2, v2) = insert_emp(&mut cat, "t2", 2.0, 5, 1);
            net.process_batch(&[append_token(t1, v1), append_token(t2, v2)], &cat)
                .unwrap();
            // pairs: (t1,t1), (t1,t2), (t2,t1), (t2,t2)
            assert_eq!(
                net.pnode(RuleId(1)).unwrap().len(),
                4,
                "batch double-count for policy {policy:?}"
            );
        }
    }

    #[test]
    fn on_append_rule_is_dynamic_and_flushed() {
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        let mut net = Network::new();
        let rc = cond(
            &cat,
            Some(EventSpec {
                kind: EventKind::Append,
                relation: "emp".into(),
            }),
            "emp.dno = dept.dno and dept.name = \"Sales\"",
            &[],
        );
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        let kinds = net.alpha_kinds(RuleId(1)).unwrap();
        assert!(kinds.contains(&AlphaKind::DynamicOn));
        net.prime(RuleId(1), &cat).unwrap();
        // event rules never prime from existing data
        insert_emp(&mut cat, "old", 1.0, 1, 7);
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0);
        // append event matches
        let (tid, t) = insert_emp(&mut cat, "new", 1.0, 1, 7);
        net.process_token(&append_token(tid, t.clone()), &cat)
            .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // a replace Δ token does not trigger an on-append rule
        let (tid2, t2) = insert_emp(&mut cat, "upd", 1.0, 1, 7);
        net.process_token(
            &Token::delta_plus(EMP, tid2, t2.clone(), t2, EventSpecifier::Replace(vec![2])),
            &cat,
        )
        .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // transition end flushes binding
        net.flush_transition_state();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0);
        // only the dynamic emp memory flushed; the stored dept memory
        // legitimately keeps its "Sales" entry
        let s = net.stats();
        assert_eq!(s.alpha_entries, 1, "stored dept entry survives the flush");
    }

    #[test]
    fn on_delete_rule_binds_dead_tuple() {
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        let mut net = Network::new();
        let rc = cond(
            &cat,
            Some(EventSpec {
                kind: EventKind::Delete,
                relation: "emp".into(),
            }),
            "emp.dno = dept.dno and dept.name = \"Sales\"",
            &[],
        );
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        let (tid, t) = insert_emp(&mut cat, "victim", 1.0, 1, 7);
        net.process_token(&append_token(tid, t.clone()), &cat)
            .unwrap();
        assert_eq!(
            net.pnode(RuleId(1)).unwrap().len(),
            0,
            "append is not delete"
        );
        // delete it (engine removes from relation first, then sends token)
        cat.get_mut("emp").unwrap().delete(tid).unwrap();
        net.process_token(&Token::minus(EMP, tid, t, EventSpecifier::Delete), &cat)
            .unwrap();
        let p = net.pnode(RuleId(1)).unwrap();
        assert_eq!(p.len(), 1);
        // the dead tuple is bound without a TID
        assert_eq!(p.rows()[0][0].tid, None);
        assert!(p.rows()[0][1].tid.is_some(), "dept binding is live");
    }

    #[test]
    fn transition_rule_raiselimit() {
        let mut cat = paper_catalog();
        let mut net = Network::new();
        let rc = cond(&cat, None, "emp.sal > 1.1 * previous emp.sal", &[]);
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        assert_eq!(
            net.alpha_kinds(RuleId(1)).unwrap(),
            vec![AlphaKind::SimpleTrans]
        );
        net.prime(RuleId(1), &cat).unwrap();
        let (tid, old) = insert_emp(&mut cat, "e", 100_000.0, 1, 1);
        // raise of 20%: Δ+ matches
        let new = update_emp(&mut cat, tid, emp_row("e", 120_000.0, 1, 1));
        net.process_token(
            &Token::delta_plus(
                EMP,
                tid,
                new.clone(),
                old.clone(),
                EventSpecifier::Replace(vec![2]),
            ),
            &cat,
        )
        .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // the binding carries previous value for the action to use
        let row = &net.pnode(RuleId(1)).unwrap().rows()[0];
        assert_eq!(
            row[0].prev.as_ref().unwrap().get(2),
            &Value::Float(100_000.0)
        );
        net.flush_transition_state();
        // raise of 5%: no match
        let new2 = update_emp(&mut cat, tid, emp_row("e", 105_000.0, 1, 1));
        net.process_token(
            &Token::delta_plus(EMP, tid, new2, old, EventSpecifier::Replace(vec![2])),
            &cat,
        )
        .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0);
    }

    #[test]
    fn delta_minus_retracts_pair() {
        let mut cat = paper_catalog();
        let mut net = Network::new();
        let rc = cond(&cat, None, "emp.sal > 1.1 * previous emp.sal", &[]);
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        let (tid, old) = insert_emp(&mut cat, "e", 100.0, 1, 1);
        let new = update_emp(&mut cat, tid, emp_row("e", 200.0, 1, 1));
        net.process_token(
            &Token::delta_plus(
                EMP,
                tid,
                new.clone(),
                old.clone(),
                EventSpecifier::Replace(vec![2]),
            ),
            &cat,
        )
        .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // second modification within the transition: Δ− then Δ+
        net.process_token(
            &Token::delta_minus(EMP, tid, new, old.clone(), EventSpecifier::Replace(vec![2])),
            &cat,
        )
        .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0);
        let new2 = update_emp(&mut cat, tid, emp_row("e", 102.0, 1, 1));
        net.process_token(
            &Token::delta_plus(EMP, tid, new2, old, EventSpecifier::Replace(vec![2])),
            &cat,
        )
        .unwrap();
        assert_eq!(
            net.pnode(RuleId(1)).unwrap().len(),
            0,
            "5% raise below limit"
        );
    }

    #[test]
    fn replace_target_list_gating() {
        let mut cat = paper_catalog();
        let mut net = Network::new();
        let rc = cond(
            &cat,
            Some(EventSpec {
                kind: EventKind::Replace(Some(vec!["jno".into()])),
                relation: "emp".into(),
            }),
            "emp.sal > 0",
            &[],
        );
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        let (tid, old) = insert_emp(&mut cat, "e", 100.0, 1, 1);
        // replace touching sal (attr 2) only: no trigger
        let new = update_emp(&mut cat, tid, emp_row("e", 200.0, 1, 1));
        net.process_token(
            &Token::delta_plus(EMP, tid, new, old.clone(), EventSpecifier::Replace(vec![2])),
            &cat,
        )
        .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0);
        // replace touching jno (attr 4): trigger
        let new = update_emp(&mut cat, tid, emp_row("e", 100.0, 1, 9));
        net.process_token(
            &Token::delta_plus(EMP, tid, new, old, EventSpecifier::Replace(vec![4])),
            &cat,
        )
        .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
    }

    #[test]
    fn remove_rule_unsubscribes() {
        let mut cat = paper_catalog();
        let mut net = Network::new();
        let rc = cond(&cat, None, "emp.sal > 30000", &[]);
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        assert_eq!(net.rule_count(), 1);
        net.remove_rule(RuleId(1));
        assert_eq!(net.rule_count(), 0);
        assert!(net.pnode(RuleId(1)).is_none());
        let (tid, t) = insert_emp(&mut cat, "x", 99_999.0, 1, 1);
        net.process_token(&append_token(tid, t), &cat).unwrap();
        assert!(net.rules_with_matches().is_empty());
        // id reusable
        let rc2 = cond(&cat, None, "emp.sal > 1", &[]);
        net.add_rule(RuleId(1), &rc2, &VirtualPolicy::AllStored, &cat)
            .unwrap();
    }

    #[test]
    fn duplicate_rule_id_rejected() {
        let cat = paper_catalog();
        let mut net = Network::new();
        let rc = cond(&cat, None, "emp.sal > 30000", &[]);
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        assert!(net
            .add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .is_err());
    }

    #[test]
    fn virtual_join_uses_index_probe_consistently() {
        // same rule, virtual dept memory, with and without an index on
        // dept.dno: results must be identical (the index is §4.2's
        // constant-substitution scan choice, not a semantic change)
        let build = |with_index: bool| {
            let mut cat = paper_catalog();
            populate_sales_clerk(&mut cat);
            // extra Sales departments sharing dno values
            for i in 0..10 {
                cat.get_mut("dept")
                    .unwrap()
                    .insert(vec![(i % 3i64).into(), "Sales".into()])
                    .unwrap();
            }
            if with_index {
                cat.get_mut("dept")
                    .unwrap()
                    .create_index("dno", ariel_storage::IndexKind::Hash)
                    .unwrap();
            }
            let mut net = Network::new();
            let rc = cond(
                &cat,
                None,
                "emp.sal > 0 and emp.dno = dept.dno and dept.name = \"Sales\"",
                &[],
            );
            net.add_rule(
                RuleId(1),
                &rc,
                &VirtualPolicy::ExplicitVars(HashSet::from([1])),
                &cat,
            )
            .unwrap();
            net.prime(RuleId(1), &cat).unwrap();
            let (tid, t) = insert_emp(&mut cat, "probe", 10.0, 1, 7);
            net.process_token(&append_token(tid, t), &cat).unwrap();
            net.pnode(RuleId(1)).unwrap().len()
        };
        let without = build(false);
        let with = build(true);
        assert_eq!(without, with);
        assert!(with >= 1);
    }

    #[test]
    fn unsatisfiable_predicate_rule_never_matches() {
        let mut cat = paper_catalog();
        let mut net = Network::new();
        // contradictory band: can never match
        let rc = cond(&cat, None, "emp.sal > 100 and emp.sal < 50", &[]);
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        let (tid, t) = insert_emp(&mut cat, "x", 75.0, 1, 1);
        net.process_token(&append_token(tid, t), &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0);
    }

    #[test]
    fn network_stats_accounting() {
        let mut cat = paper_catalog();
        insert_emp(&mut cat, "a", 50_000.0, 1, 1);
        insert_emp(&mut cat, "b", 60_000.0, 1, 1);
        let mut net = Network::new();
        let rc = cond(&cat, None, "emp.sal > 30000 and emp.dno = dept.dno", &[]);
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        let s = net.stats();
        assert_eq!(s.rules, 1);
        assert_eq!(s.alpha_nodes, 2);
        assert_eq!(s.virtual_alpha_nodes, 0);
        assert_eq!(s.alpha_entries, 2, "two matching emps; dept empty");
        assert!(s.alpha_bytes > 0);
        assert!(s.selnet_bytes > 0);
        let rs = net.rule_stats(RuleId(1)).unwrap();
        assert_eq!(rs.alpha_entries, 2);
        assert_eq!(rs.pnode_rows, 0);
        assert!(net.rule_stats(RuleId(9)).is_none());
    }

    #[test]
    fn flush_is_idempotent_and_scoped() {
        let mut cat = paper_catalog();
        insert_emp(&mut cat, "a", 50_000.0, 1, 1);
        let mut net = Network::new();
        let rc = cond(&cat, None, "emp.sal > 30000", &[]);
        net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // pattern rules are untouched by transition flushes
        net.flush_transition_state();
        net.flush_transition_state();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
    }

    #[test]
    fn bare_minus_token_cleans_pattern_memories_only() {
        // the case-3 bare − (no event specifier) must retract pattern
        // state but trigger nothing
        let mut cat = paper_catalog();
        let mut net = Network::new();
        let pattern = cond(&cat, None, "emp.sal > 0", &[]);
        net.add_rule(RuleId(1), &pattern, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        let on_del = cond(
            &cat,
            Some(EventSpec {
                kind: EventKind::Delete,
                relation: "emp".into(),
            }),
            "emp.sal > 0",
            &[],
        );
        net.add_rule(RuleId(2), &on_del, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        for id in [1, 2] {
            net.prime(RuleId(id), &cat).unwrap();
        }
        let (tid, t) = insert_emp(&mut cat, "x", 10.0, 1, 1);
        net.process_token(&append_token(tid, t.clone()), &cat)
            .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        // bare − (first modification): pattern match retracted, no delete fire
        net.process_token(&Token::bare_minus(EMP, tid, t), &cat)
            .unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0);
        assert_eq!(net.pnode(RuleId(2)).unwrap().len(), 0, "no delete event");
    }

    #[test]
    fn rules_with_matches_sorted() {
        let mut cat = paper_catalog();
        insert_emp(&mut cat, "x", 50_000.0, 1, 1);
        let mut net = Network::new();
        for id in [3u64, 1, 2] {
            let rc = cond(&cat, None, "emp.sal > 30000", &[]);
            net.add_rule(RuleId(id), &rc, &VirtualPolicy::AllStored, &cat)
                .unwrap();
            net.prime(RuleId(id), &cat).unwrap();
        }
        assert_eq!(
            net.rules_with_matches(),
            vec![RuleId(1), RuleId(2), RuleId(3)]
        );
        let drained = net.drain_pnode(RuleId(2)).unwrap();
        assert_eq!(drained.len(), 1);
        assert_eq!(net.rules_with_matches(), vec![RuleId(1), RuleId(3)]);
    }

    #[test]
    fn indexed_join_matches_nested_loop_and_counts_probes() {
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        let build = |access: JoinAccess| {
            let mut net = Network::with_access(access);
            net.add_rule(
                RuleId(1),
                &sales_clerk_cond(&cat),
                &VirtualPolicy::AllStored,
                &cat,
            )
            .unwrap();
            net.prime(RuleId(1), &cat).unwrap();
            net
        };
        let mut indexed = build(JoinAccess::Composite);
        let mut nested = build(JoinAccess::Nested);
        for i in 0..12 {
            let (tid, t) = insert_emp(&mut cat, &format!("e{i}"), 40_000.0, 1 + (i % 3), 7);
            indexed
                .process_token(&append_token(tid, t.clone()), &cat)
                .unwrap();
            nested.process_token(&append_token(tid, t), &cat).unwrap();
        }
        // identical match state either way
        assert_eq!(
            indexed.pnode(RuleId(1)).unwrap().len(),
            nested.pnode(RuleId(1)).unwrap().len()
        );
        assert!(!indexed.pnode(RuleId(1)).unwrap().is_empty());
        let si = indexed.stats();
        let sn = nested.stats();
        // the indexed net probed buckets instead of enumerating memories
        assert!(si.index_probes > 0);
        assert!(si.index_hits > 0);
        assert!(si.indexed_candidates > 0);
        assert_eq!(sn.index_probes, 0, "a nested plan never probes");
        assert_eq!(sn.indexed_candidates, 0);
        assert!(
            si.stored_join_candidates < sn.stored_join_candidates,
            "bucket probes must serve fewer candidates than full scans \
             ({} vs {})",
            si.stored_join_candidates,
            sn.stored_join_candidates
        );
        // every candidate is accounted to exactly one of the two paths
        for s in [&si, &sn] {
            assert_eq!(
                s.indexed_candidates + s.scanned_candidates,
                s.stored_join_candidates + s.virtual_join_candidates
            );
        }
    }

    #[test]
    fn null_join_key_matches_nothing_indexed_or_not() {
        // SQL semantics: Null = anything is false, so an emp with a Null
        // dno joins no dept — with or without the join index (a Null probe
        // key short-circuits to the empty bucket).
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        for access in [JoinAccess::Composite, JoinAccess::Nested] {
            let mut net = Network::with_access(access);
            let rc = cond(&cat, None, "emp.sal > 30000 and emp.dno = dept.dno", &[]);
            net.add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat)
                .unwrap();
            net.prime(RuleId(1), &cat).unwrap();
            let rel = cat.get_mut("emp").unwrap();
            let tid = rel
                .insert(vec![
                    "nil".into(),
                    30i64.into(),
                    90_000.0.into(),
                    Value::Null,
                    7i64.into(),
                ])
                .unwrap();
            let t = rel.get(tid).cloned().unwrap();
            net.process_token(&append_token(tid, t), &cat).unwrap();
            assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0, "{access:?}");
            cat.get_mut("emp").unwrap().delete(tid).unwrap();
        }
    }

    #[test]
    fn join_is_zero_copy_from_relation_to_pnode() {
        // A matched instantiation's tuples must share storage with the base
        // relation — the whole path (relation → token → α-memory → β-join →
        // P-node) moves `Arc`s, never values.
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        let mut net = Network::new();
        net.add_rule(
            RuleId(1),
            &sales_clerk_cond(&cat),
            &VirtualPolicy::AllStored,
            &cat,
        )
        .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        let (tid, t) = insert_emp(&mut cat, "Sue", 45_000.0, 1, 7);
        net.process_token(&append_token(tid, t), &cat).unwrap();
        let pnode = net.pnode(RuleId(1)).unwrap();
        assert_eq!(pnode.len(), 1);
        let row = &pnode.rows()[0];
        for (col, bound) in pnode.cols().iter().zip(row) {
            let rel = cat.get(&col.rel).unwrap();
            let rel_b = rel;
            let base = rel_b.get(bound.tid.unwrap()).unwrap();
            assert!(
                bound.tuple.shares_storage(base),
                "{} binding was deep-copied",
                col.var
            );
        }
    }

    #[test]
    fn remove_rule_releases_and_reactivation_back_fills() {
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        for (i, sal) in [10_000.0, 40_000.0, 50_000.0, 60_000.0].iter().enumerate() {
            insert_emp(&mut cat, &format!("e{i}"), *sal, 1 + i as i64 % 2, 7);
        }
        // rule 2's emp memory joins on jno; rule 1's, added later, on dno —
        // its index is built over tuples rule 2 already holds
        let by_jno = cond(&cat, None, "emp.sal > 0 and emp.jno = job.jno", &[]);
        let by_dno = cond(&cat, None, "emp.sal > 30000 and emp.dno = dept.dno", &[]);
        let (dno, jno) = ([3usize], [4usize]);
        let add = |net: &mut Network, id: u64, c: &ResolvedCondition| {
            net.add_rule(RuleId(id), c, &VirtualPolicy::AllStored, &cat)
                .unwrap();
            net.prime(RuleId(id), &cat).unwrap();
        };
        let mut net = Network::new();
        add(&mut net, 2, &by_jno);
        let slot = net
            .alpha(net.rule(RuleId(2)).unwrap().vars[0].alpha)
            .store_slot()
            .unwrap();
        let held = |net: &Network| net.store.members(slot);
        assert_eq!(held(&net), 4);
        assert!(!net.store.has_index(slot, &dno));
        add(&mut net, 1, &by_dno);
        assert!(net.store.has_index(slot, &dno));
        net.store.debug_check(net.alphas.iter().flatten(), &cat);

        // deactivate: rule 1 releases its three emps (rule 2 still holds
        // them) and takes the dno index along
        net.remove_rule(RuleId(1));
        assert!(!net.store.has_index(slot, &dno));
        assert!(net.store.has_index(slot, &jno));
        assert_eq!(held(&net), 4);
        net.store.debug_check(net.alphas.iter().flatten(), &cat);
        net.remove_rule(RuleId(2));
        assert_eq!(held(&net), 0, "no memory holds an emp");
        net.store.debug_check(net.alphas.iter().flatten(), &cat);

        // reactivate both: the back-filled dno index serves a dept token
        // exactly as a network that never deactivated
        add(&mut net, 2, &by_jno);
        add(&mut net, 1, &by_dno);
        let mut fresh = Network::new();
        add(&mut fresh, 1, &by_dno);
        let dept = cat.get_mut("dept").unwrap();
        let tid = dept.insert(vec![1i64.into(), "Annex".into()]).unwrap();
        let t = dept.get(tid).cloned().unwrap();
        let token = Token::plus(DEPT, tid, t, EventSpecifier::Append);
        net.process_token(&token, &cat).unwrap();
        fresh.process_token(&token, &cat).unwrap();
        assert_eq!(pnode_set(&net, RuleId(1)), pnode_set(&fresh, RuleId(1)));
        assert_eq!(
            net.pnode(RuleId(1)).unwrap().len(),
            3 + 1,
            "primed + joined"
        );
    }

    /// Rule `i` of [`twelve_rules_share_dept_through_one_store_slot`]:
    /// its `dept` memory admits `dno > i % 3`.
    fn sharing_rule(cat: &Catalog, i: u64) -> ResolvedCondition {
        cond(
            cat,
            None,
            &format!(
                "emp.sal > {i} and emp.dno = dept.dno and dept.dno > {}",
                i % 3
            ),
            &[],
        )
    }

    #[test]
    fn twelve_rules_share_dept_through_one_store_slot() {
        for policy in [
            VirtualPolicy::AllStored,
            // emp virtual, dept stored: only dept enters the store
            VirtualPolicy::ExplicitVars(HashSet::from([0])),
        ] {
            let mut cat = paper_catalog();
            let depts: Vec<Tid> = (1..=4i64)
                .map(|dno| {
                    let dept = cat.get_mut("dept").unwrap();
                    dept.insert(vec![dno.into(), "Sales".into()]).unwrap()
                })
                .collect();
            let mut net = Network::new();
            for i in 0..12 {
                net.add_rule(RuleId(i), &sharing_rule(&cat, i), &policy, &cat)
                    .unwrap();
                net.prime(RuleId(i), &cat).unwrap();
            }
            let check = |net: &Network, cat: &Catalog| {
                net.store.debug_check(net.alphas.iter().flatten(), cat)
            };
            check(&net, &cat);
            let slot = net
                .alpha(net.rule(RuleId(0)).unwrap().vars[1].alpha)
                .store_slot()
                .expect("dept is stored under both policies");
            // the dept memories on the store slot, with their sharers
            let memories = |net: &Network| -> Vec<(AlphaId, usize)> {
                net.alphas
                    .iter()
                    .zip(&net.shared)
                    .enumerate()
                    .filter(|(_, (a, _))| a.as_ref().is_some_and(|a| a.store_slot() == Some(slot)))
                    .map(|(i, (_, shared))| (AlphaId(i), shared.sharers.len()))
                    .collect()
            };
            assert_eq!(
                memories(&net).iter().map(|m| m.1).collect::<Vec<_>>(),
                [4, 4, 4],
                "three selections, three memories, {policy:?}"
            );
            // dept dno d is held by the rules with i % 3 < d
            let holders = |net: &Network| -> Vec<usize> {
                depts
                    .iter()
                    .map(|&t| {
                        memories(net)
                            .iter()
                            .filter(|(id, _)| net.alpha(*id).contains(t))
                            .map(|m| m.1)
                            .sum()
                    })
                    .collect()
            };
            assert_eq!(holders(&net), [4, 8, 12, 12], "{policy:?}");
            assert_eq!(net.store.members(slot), 4, "each dept filed once");

            // an emp of dept 3 matches every rule
            let (tid, t) = insert_emp(&mut cat, "a", 100.0, 3, 1);
            net.process_token(&append_token(tid, t), &cat).unwrap();
            assert_eq!(net.rules_with_matches().len(), 12, "{policy:?}");

            // deactivating rule 0 releases its four depts; the other 11
            // keep matching
            net.remove_rule(RuleId(0));
            check(&net, &cat);
            assert_eq!(holders(&net), [3, 7, 11, 11], "{policy:?}");
            let (tid, t) = insert_emp(&mut cat, "b", 100.0, 3, 1);
            net.process_token(&append_token(tid, t), &cat).unwrap();
            for i in 1..12 {
                assert_eq!(
                    net.pnode(RuleId(i)).unwrap().len(),
                    2,
                    "rule {i}, {policy:?}"
                );
            }

            // replace dept 2's dno with 4: its `−` and Δ+ move the TID to
            // its new key, and the memories that reject dno 2 now hold it
            let moved = depts[1];
            let new = vec![4i64.into(), "Sales".into()];
            let old = cat.get_mut("dept").unwrap().update(moved, new).unwrap();
            let now = cat.get("dept").unwrap().get(moved).cloned().unwrap();
            let replace = EventSpecifier::Replace(vec![0]);
            net.process_batch(
                &[
                    Token::bare_minus(DEPT, moved, old.clone()),
                    Token::delta_plus(DEPT, moved, now, old, replace),
                ],
                &cat,
            )
            .unwrap();
            check(&net, &cat);
            assert_eq!(holders(&net), [3, 11, 11, 11], "{policy:?}");
            // an emp of dept 2 finds nothing under the old key; one of
            // dept 4 joins both TIDs filed under 4
            let (tid, t) = insert_emp(&mut cat, "c", 100.0, 2, 1);
            net.process_token(&append_token(tid, t), &cat).unwrap();
            let (tid, t) = insert_emp(&mut cat, "d", 100.0, 4, 1);
            net.process_token(&append_token(tid, t), &cat).unwrap();
            for i in 1..12 {
                let rows = net.pnode(RuleId(i)).unwrap().rows();
                let dept_of = |emp: &str| -> Vec<Tid> {
                    let mut tids: Vec<Tid> = rows
                        .iter()
                        .filter(|r| r[0].tuple.get(0) == &Value::from(emp))
                        .map(|r| r[1].tid.unwrap())
                        .collect();
                    tids.sort();
                    tids
                };
                assert!(dept_of("c").is_empty(), "rule {i}, {policy:?}");
                assert_eq!(dept_of("d"), [moved, depts[3]], "rule {i}, {policy:?}");
            }
            check(&net, &cat);

            // deactivate the rest one at a time: those left keep matching,
            // and a dept memory goes with its last sharer, rule 9 + k for
            // the memory admitting dno > k
            for i in 1..12 {
                net.remove_rule(RuleId(i));
                check(&net, &cat);
                let left: Vec<usize> = memories(&net).iter().map(|m| m.1).collect();
                let want: Vec<usize> = (0..3)
                    .map(|k| (k..12).step_by(3).filter(|&r| r > i).count())
                    .filter(|&n| n > 0)
                    .collect();
                assert_eq!(left, want, "after rule {i}, {policy:?}");
                let before: Vec<usize> = (i + 1..12)
                    .map(|j| net.pnode(RuleId(j)).unwrap().len())
                    .collect();
                let (tid, t) = insert_emp(&mut cat, "e", 100.0, 4, 1);
                net.process_token(&append_token(tid, t.clone()), &cat)
                    .unwrap();
                for (j, before) in (i + 1..12).zip(before) {
                    assert_eq!(
                        net.pnode(RuleId(j)).unwrap().len(),
                        before + 2,
                        "rule {j} after rule {i}, {policy:?}"
                    );
                }
                cat.get_mut("emp").unwrap().delete(tid).unwrap();
                net.process_token(&Token::minus(EMP, tid, t, EventSpecifier::Delete), &cat)
                    .unwrap();
            }
            // the last sharer took the nodes, their intervals, their store
            // registrations and their union bits along
            assert_eq!((net.selnet.len(), net.stats().alpha_nodes), (0, 0));
            assert_eq!(net.store.members(slot), 0, "{policy:?}");
            assert!(!net.store.has_index(slot, &[0]), "{policy:?}");
            assert!(net.by_key.is_empty());
            check(&net, &cat);
        }
    }

    #[test]
    fn a_delete_token_tests_only_on_delete_nodes() {
        let mut cat = paper_catalog();
        let mut net = Network::new();
        for i in 0..20u64 {
            // every band holds the doomed salary; half the rules join dept
            let qual = match i % 2 {
                0 => format!("emp.sal > {i}"),
                _ => format!("emp.sal > {i} and emp.dno = dept.dno"),
            };
            net.add_rule(
                RuleId(i),
                &cond(&cat, None, &qual, &[]),
                &VirtualPolicy::AllStored,
                &cat,
            )
            .unwrap();
        }
        let (tid, t) = insert_emp(&mut cat, "x", 100.0, 1, 1);
        net.process_token(&append_token(tid, t.clone()), &cat)
            .unwrap();
        let delete = |net: &mut Network, cat: &mut Catalog, tid, t| {
            cat.get_mut("emp").unwrap().delete(tid).unwrap();
            let before = net.stats().alpha_tests;
            net.process_token(&Token::minus(EMP, tid, t, EventSpecifier::Delete), cat)
                .unwrap();
            net.stats().alpha_tests - before
        };
        assert_eq!(
            delete(&mut net, &mut cat, tid, t),
            0,
            "20 pattern nodes, no test"
        );
        // an ON DELETE node is the one kind a dying tuple can pass
        let on_delete = EventSpec {
            kind: EventKind::Delete,
            relation: "emp".into(),
        };
        let rc = cond(&cat, Some(on_delete), "emp.sal > 0", &[]);
        net.add_rule(RuleId(99), &rc, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        let (tid, t) = insert_emp(&mut cat, "y", 100.0, 1, 1);
        net.process_token(&append_token(tid, t.clone()), &cat)
            .unwrap();
        assert_eq!(delete(&mut net, &mut cat, tid, t), 1);
        assert_eq!(net.pnode(RuleId(99)).unwrap().len(), 1);
    }

    #[test]
    fn rules_testing_one_selection_share_one_node() {
        let mut cat = paper_catalog();
        populate_sales_clerk(&mut cat);
        let mut net = Network::new();
        for i in 0..3u64 {
            let qual = format!("emp.sal > {i} and emp.dno = dept.dno and dept.name = \"Sales\"");
            net.add_rule(
                RuleId(i),
                &cond(&cat, None, &qual, &[]),
                &VirtualPolicy::AllStored,
                &cat,
            )
            .unwrap();
            net.prime(RuleId(i), &cat).unwrap();
        }
        // three emp nodes, one dept node with three sharers
        assert_eq!((net.stats().alpha_nodes, net.selnet.len()), (4, 4));
        let dept = net.rule(RuleId(0)).unwrap().vars[1].alpha;
        assert_eq!(net.shared[dept.0].sharers.len(), 3);
        let (tid, t) = insert_emp(&mut cat, "Sue", 45_000.0, 1, 7);
        net.process_token(&append_token(tid, t), &cat).unwrap();
        let d = cat.get_mut("dept").unwrap();
        let dtid = d.insert(vec![1i64.into(), "Sales".into()]).unwrap();
        let dt = d.get(dtid).cloned().unwrap();
        let tests = net.stats().alpha_tests;
        net.process_token(&Token::plus(DEPT, dtid, dt, EventSpecifier::Append), &cat)
            .unwrap();
        assert_eq!(
            net.stats().alpha_tests - tests,
            1,
            "one test for three rules"
        );
        assert_eq!(
            net.alpha(dept).counters.inserted.get(),
            2,
            "primed, then once"
        );
        for i in 0..3 {
            assert_eq!(net.pnode(RuleId(i)).unwrap().len(), 2, "rule {i}");
        }

        // two variables of one rule under one selection take two nodes,
        // which a second such rule shares one each: the self-join pairs a
        // token with itself once per rule
        let pair = cond(
            &cat,
            None,
            "x.jno = y.jno and x.sal > 40000 and y.sal > 40000",
            &[("x", "emp"), ("y", "emp")],
        );
        for i in [10, 11] {
            net.add_rule(RuleId(i), &pair, &VirtualPolicy::AllStored, &cat)
                .unwrap();
            net.prime(RuleId(i), &cat).unwrap();
        }
        let (x, y) = {
            let vars = &net.rule(RuleId(10)).unwrap().vars;
            (vars[0].alpha, vars[1].alpha)
        };
        assert_ne!(x, y);
        let vars = &net.rule(RuleId(11)).unwrap().vars;
        assert_eq!((vars[0].alpha, vars[1].alpha), (x, y));
        assert_eq!(net.stats().alpha_nodes, 6);
        for i in [10, 11] {
            assert_eq!(net.pnode(RuleId(i)).unwrap().len(), 1, "Sue with herself");
        }
        let (tid, t) = insert_emp(&mut cat, "Al", 50_000.0, 2, 7);
        net.process_token(&append_token(tid, t), &cat).unwrap();
        for i in [10, 11] {
            assert_eq!(net.pnode(RuleId(i)).unwrap().len(), 4, "2 × 2 pairs");
        }
    }

    #[test]
    fn a_stored_node_never_shares_with_a_virtual_one() {
        let mut cat = paper_catalog();
        for dno in 1..=4i64 {
            let dept = cat.get_mut("dept").unwrap();
            dept.insert(vec![dno.into(), "Sales".into()]).unwrap();
        }
        insert_emp(&mut cat, "Bo", 500.0, 2, 1);
        let rules = [
            cond(
                &cat,
                None,
                "emp.sal > 10 and emp.dno = dept.dno and dept.dno > 0",
                &[],
            ),
            // the same dept selection as variable 0
            cond(
                &cat,
                None,
                "d.dno > 0 and e.sal > 10 and d.dno = e.dno",
                &[("d", "dept"), ("e", "emp")],
            ),
            // and joined by no equi-conjunct: no index would narrow it
            cond(
                &cat,
                None,
                "d.dno > 0 and e.sal > 10 and d.dno < e.dno",
                &[("d", "dept"), ("e", "emp")],
            ),
        ];
        for policy in [
            VirtualPolicy::AllStored,
            VirtualPolicy::AllVirtual,
            VirtualPolicy::ExplicitVars(HashSet::from([0])),
            VirtualPolicy::SelectivityThreshold(0.5),
        ] {
            let mut net = Network::new();
            for (i, rc) in rules.iter().enumerate() {
                net.add_rule(RuleId(i as u64), rc, &policy, &cat).unwrap();
                net.prime(RuleId(i as u64), &cat).unwrap();
            }
            // two variables of different rules share a node exactly when
            // their keys agree, so never across kinds
            let vars: Vec<(usize, AlphaId)> = (0..3)
                .flat_map(|i| {
                    let rule = net.rule(RuleId(i)).unwrap();
                    rule.vars.iter().map(move |v| (i as usize, v.alpha))
                })
                .collect();
            for &(r1, a1) in &vars {
                for &(r2, a2) in &vars {
                    if r1 == r2 {
                        continue;
                    }
                    let same = NodeKey::of(net.alpha(a1)) == NodeKey::of(net.alpha(a2));
                    assert_eq!(a1 == a2, same, "{policy:?}");
                }
            }
            let dept_kinds: Vec<AlphaKind> = [(0, 1), (1, 0), (2, 0)]
                .iter()
                .map(|&(r, v)| net.alpha_kinds(RuleId(r)).unwrap()[v])
                .collect();
            let expect = match &policy {
                VirtualPolicy::AllStored => [AlphaKind::Stored; 3],
                VirtualPolicy::AllVirtual => [AlphaKind::Virtual; 3],
                VirtualPolicy::ExplicitVars(_) => {
                    [AlphaKind::Stored, AlphaKind::Virtual, AlphaKind::Virtual]
                }
                // every dept row passes, but an index on dno would serve
                // one: the equi-joined memories are stored
                VirtualPolicy::SelectivityThreshold(_) => {
                    [AlphaKind::Stored, AlphaKind::Stored, AlphaKind::Virtual]
                }
            };
            assert_eq!(dept_kinds, expect, "{policy:?}");
            // and each rule matches as it would alone
            let (tid, t) = insert_emp(&mut cat, "Cy", 600.0, 3, 1);
            net.process_token(&append_token(tid, t.clone()), &cat)
                .unwrap();
            let lens: Vec<usize> = (0..3)
                .map(|i| net.pnode(RuleId(i)).unwrap().len())
                .collect();
            // Bo (dno 2) and Cy (dno 3): one dept each by equality, and
            // 1 + 2 depts below their dno
            assert_eq!(lens, [2, 2, 3], "{policy:?}");
            cat.get_mut("emp").unwrap().delete(tid).unwrap();
            net.process_token(&Token::minus(EMP, tid, t, EventSpecifier::Delete), &cat)
                .unwrap();
        }
    }

    /// Sorted debug renderings of a rule's P-node rows — the
    /// order-insensitive comparison the equivalence oracle uses.
    fn pnode_set(net: &Network, id: RuleId) -> Vec<String> {
        let mut rows: Vec<String> = net
            .pnode(id)
            .unwrap()
            .rows()
            .iter()
            .map(|r| {
                r.iter()
                    .map(|b| format!("{:?}/{:?}", b.tid, b.tuple))
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        rows.sort();
        rows
    }
}
