//! Rete network (Forgy 1982) — the comparison baseline.
//!
//! Rete differs from TREAT by materializing **β-memories**: one per join
//! level, holding the partial matches of the first `i` tuple variables.
//! Insertions do incremental join work against the next α-memory only;
//! deletions walk the β-memories removing partials by TID. The price is the
//! β-memory state itself — the storage the paper's virtual-memory argument
//! (§4.2, §8: "virtual α- *and β-* memory nodes") is about.
//!
//! Joins follow the same compile-time plan the TREAT network uses (the
//! `plan` module), under the network's [`JoinAccess`]: stored α-memories
//! register the plan's hash and band interval indexes, and each β-memory
//! keeps one index over its partials — a hash index keyed on the *next*
//! level's equi attributes, or a band interval index — so a right
//! activation probes one bucket instead of enumerating every partial, and
//! the cascade probes the next α-memory instead of enumerating it. Under
//! [`JoinAccess::Nested`] the plan has no access path, so no memory is
//! indexed and every join enumerates: the classic formulation, the
//! paper's plain nested-loop join cost model.
//!
//! Every access choice produces identical P-nodes; only the work per
//! token differs. The `paper_tables -- net` bench compares them against
//! TREAT head-on.
//!
//! The engine never runs this network. It is the comparison behind the
//! NET table and an oracle leg of `tests/network_equivalence.rs` and
//! `tests/oracle_match.rs`, so it keeps only the always-on counters
//! ([`NetworkStats`], [`RuleStats`]): no timing tier, no flight recorder,
//! and no maintained conflict set — [`ReteNetwork::rules_with_matches`]
//! scans the P-nodes.
//!
//! This implementation covers pattern-based conditions (what the paper's
//! Figs. 9–11 exercise); event and transition conditions are A-TREAT
//! features ([`crate::treat`]).
//!
//! §1 of the paper notes the virtual-memory-node modification "could also
//! be used in the Rete algorithm" — [`ReteNetwork::with_policy`] does
//! exactly that: under a [`VirtualPolicy`], eligible α-memories store only
//! their predicate, and left-activations join through the base relation
//! (with the same pending/ProcessedMemories visibility discipline as
//! [`crate::treat`]).

use crate::alpha::{AlphaCounters, AlphaEntry, AlphaId, AlphaKind, AlphaNode, BandShape, RuleId};
use crate::key::{KeyBuilder, SmallKey};
use crate::plan::{BandSpec, CompositeSpec, JoinAccess, JoinPlan, RuleShape};
use crate::selnet::SelectionNetwork;
use crate::token::Token;
use crate::treat::{
    alloc_alpha, live_rel, NetworkStats, Pending, RuleStats, RuleTopology, VirtualPolicy,
};
use ariel_islist::{IntervalId, IntervalSkipList};
use ariel_query::{
    eval, eval_pred, BoundVar, Pnode, PnodeCol, QueryError, QueryResult, RExpr, ResolvedCondition,
    Row,
};
use ariel_storage::{Catalog, FxBuildHasher, Tid, Value};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A partial match over the first `level + 1` variables.
type Partial = Vec<BoundVar>;

/// Composite hash index over a β-memory's partials, keyed so the *next*
/// level's right activations can probe it: the bucket key is the
/// partial-side value tuple of an equi-conjunct group, the probe key is
/// read straight off the activating token's attributes.
#[derive(Debug)]
struct BetaEquiIndex {
    /// Token-side attribute positions on the next variable, ascending
    /// (the [`CompositeSpec::attrs`] of the spec this index serves).
    probe_attrs: Vec<usize>,
    /// Partial-side key expression per attribute, parallel to
    /// `probe_attrs` — reads variables `0..=level` only.
    key_exprs: Vec<RExpr>,
    /// Conjunct indices (into the rule's flat join-conjunct list) the
    /// probe answers; skipped on the retest path.
    conjuncts: Vec<usize>,
    /// Flat packed key → partial sequence numbers (see `crate::key`).
    buckets: HashMap<SmallKey, Vec<u64>, FxBuildHasher>,
}

/// Band interval index over a β-memory's partials: each partial spans the
/// interval its `spec_var` tuple defines under `shape`, and the next
/// level's right activation stabs with the token-side key expression.
#[derive(Debug)]
struct BetaBandIndex {
    /// Partial-side variable whose tuple supplies the interval endpoints.
    spec_var: usize,
    shape: BandShape,
    /// Token-side stab key — reads the next variable only.
    key_expr: RExpr,
    /// The `(lower, upper)` conjunct indices the stab answers.
    conjuncts: [usize; 2],
    islist: IntervalSkipList<Value>,
    by_seq: HashMap<u64, IntervalId>,
    by_interval: HashMap<IntervalId, u64>,
}

/// One β-memory level: the partial matches over variables `0..=level`,
/// plus at most one index keyed for the next level's right activations.
/// Partials carry a stable sequence number so index buckets can reference
/// them across removals.
#[derive(Debug, Default)]
struct BetaMemory {
    partials: BTreeMap<u64, Partial>,
    next_seq: u64,
    equi: Option<BetaEquiIndex>,
    band: Option<BetaBandIndex>,
    /// Partials whose equi key evaluation *errored* (not merely produced
    /// Null): unreachable through the buckets, so every probe also
    /// enumerates them with the full conjunct test — per-pair evaluation
    /// errors then surface exactly as an unindexed memory surfaces them.
    unindexed: Vec<u64>,
    /// Right-activation probes answered by this memory's index (`Cell`
    /// because probing holds `&self`).
    probes: Cell<u64>,
    /// Probes that served at least one partial.
    hits: Cell<u64>,
}

/// A partial as a row: variables `0..p.len()` bound, the rest free.
fn row_of(p: &[BoundVar], nvars: usize) -> Row {
    let mut row = Row::unbound(nvars);
    for (i, b) in p.iter().enumerate() {
        row.slots[i] = Some(b.clone());
    }
    row
}

impl BetaMemory {
    /// Evaluate a partial's composite bucket key. `Ok(None)` when a
    /// component is Null — `sql_eq` says Null joins nothing, so the
    /// partial can never satisfy the indexed conjuncts and is correctly
    /// unreachable through the index.
    fn equi_key(
        p: &[BoundVar],
        key_exprs: &[RExpr],
        nvars: usize,
    ) -> QueryResult<Option<SmallKey>> {
        let row = row_of(p, nvars);
        let mut key = KeyBuilder::new(key_exprs.len());
        for e in key_exprs {
            let v = eval(e, &row)?;
            if v.is_null() {
                return Ok(None);
            }
            key.push(&v);
        }
        Ok(Some(key.finish()))
    }

    /// Insert a partial, maintaining whichever index is configured.
    fn insert(&mut self, p: Partial, nvars: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(ix) = &mut self.equi {
            match Self::equi_key(&p, &ix.key_exprs, nvars) {
                Ok(Some(key)) => ix.buckets.entry(key).or_default().push(seq),
                Ok(None) => {} // Null key: statically unjoinable, skip
                Err(_) => self.unindexed.push(seq),
            }
        } else if let Some(bx) = &mut self.band {
            // a Null/empty span can never satisfy the conjunct pair, so a
            // partial without an interval is correctly unreachable
            if let Some(iv) = bx.shape.interval_of(&p[bx.spec_var].tuple) {
                let id = bx.islist.insert(iv);
                bx.by_seq.insert(seq, id);
                bx.by_interval.insert(id, seq);
            }
        }
        self.partials.insert(seq, p);
    }

    /// Remove one partial by sequence number, unhooking it from the index.
    /// The bucket key is recomputed from the partial — evaluation is
    /// deterministic, so it lands where `insert` put it.
    fn remove_seq(&mut self, seq: u64, nvars: usize) {
        let Some(p) = self.partials.remove(&seq) else {
            return;
        };
        if let Some(ix) = &mut self.equi {
            match Self::equi_key(&p, &ix.key_exprs, nvars) {
                Ok(Some(key)) => {
                    if let Some(bucket) = ix.buckets.get_mut(&key) {
                        bucket.retain(|&s| s != seq);
                        if bucket.is_empty() {
                            ix.buckets.remove(&key);
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => self.unindexed.retain(|&s| s != seq),
            }
        } else if let Some(bx) = &mut self.band {
            if let Some(id) = bx.by_seq.remove(&seq) {
                bx.islist.remove(id);
                bx.by_interval.remove(&id);
            }
        }
    }

    /// Remove every partial binding `tid` at variable `var`.
    fn remove_where(&mut self, var: usize, tid: Tid, nvars: usize) {
        let seqs: Vec<u64> = self
            .partials
            .iter()
            .filter(|(_, p)| p.get(var).map(|b| b.tid) == Some(Some(tid)))
            .map(|(&s, _)| s)
            .collect();
        for s in seqs {
            self.remove_seq(s, nvars);
        }
    }

    /// Approximate heap footprint: partials plus index structures.
    fn heap_size(&self) -> usize {
        let mut total: usize = self
            .partials
            .values()
            .map(|p| p.iter().map(BoundVar::heap_size).sum::<usize>() + std::mem::size_of::<u64>())
            .sum();
        if let Some(ix) = &self.equi {
            for (k, v) in &ix.buckets {
                total += std::mem::size_of::<SmallKey>()
                    + k.heap_bytes()
                    + std::mem::size_of::<Vec<u64>>()
                    + v.capacity() * std::mem::size_of::<u64>();
            }
        }
        if let Some(bx) = &self.band {
            total += bx.islist.bytes()
                + (bx.by_seq.len() + bx.by_interval.len()) * 2 * std::mem::size_of::<u64>();
        }
        total
    }
}

#[derive(Debug)]
struct ReteRule {
    alphas: Vec<AlphaId>,
    /// Multi-variable conjuncts, flat — [`JoinPlan`] and
    /// [`Self::level_conjuncts`] index into this list.
    join_conjuncts: Vec<RExpr>,
    /// `level_conjuncts[i]`: indices of the conjuncts whose highest
    /// variable is `i`, testable once vars `0..=i` are bound.
    level_conjuncts: Vec<Vec<usize>>,
    plan: JoinPlan,
    /// `betas[i]`: partial matches over vars `0..=i`; the last level feeds
    /// the P-node.
    betas: Vec<BetaMemory>,
    pnode: Pnode,
    /// Always-on counter: tokens that passed one of this rule's α-tests.
    tokens_in: u64,
    /// Always-on counter: right activations at levels above 0.
    join_probes: u64,
    /// Always-on counter: instantiations pushed into the P-node.
    pnode_inserts: u64,
}

impl ReteRule {
    /// `(beta_bytes, beta_probes, beta_hits)` over the rule's β-memories.
    fn beta_totals(&self) -> (usize, u64, u64) {
        self.betas
            .iter()
            .fold((0, 0, 0), |(bytes, probes, hits), b| {
                (
                    bytes + b.heap_size(),
                    probes + b.probes.get(),
                    hits + b.hits.get(),
                )
            })
    }
}

/// A Rete network over pattern-based rule conditions.
#[derive(Debug)]
pub struct ReteNetwork {
    selnet: SelectionNetwork,
    alphas: Vec<Option<AlphaNode>>,
    free: Vec<usize>,
    rules: BTreeMap<u64, ReteRule>,
    policy: VirtualPolicy,
    /// The access paths every rule's plan may hold, fixed at construction.
    access: JoinAccess,
    tokens_processed: u64,
}

impl Default for ReteNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl ReteNetwork {
    /// New empty network with every α-memory stored and every join access
    /// path planned ([`JoinAccess::Composite`]).
    pub fn new() -> Self {
        Self::with_policy(VirtualPolicy::AllStored, JoinAccess::default())
    }

    /// New empty network whose eligible α-memories follow `policy` — §1's
    /// "could also be used in the Rete algorithm" — and whose joins take
    /// the access paths `access` plans ([`JoinAccess::Nested`] is classic
    /// nested-loop Rete).
    pub fn with_policy(policy: VirtualPolicy, access: JoinAccess) -> Self {
        ReteNetwork {
            selnet: SelectionNetwork::new(),
            alphas: Vec::new(),
            free: Vec::new(),
            rules: BTreeMap::new(),
            policy,
            access,
            tokens_processed: 0,
        }
    }

    fn alpha(&self, id: AlphaId) -> &AlphaNode {
        self.alphas[id.0].as_ref().expect("live alpha")
    }

    /// Compile a pattern-based rule condition. The catalog feeds the
    /// [`VirtualPolicy::SelectivityThreshold`] estimate, so the threshold
    /// policy picks the same memories here as in the TREAT network.
    pub fn add_rule(
        &mut self,
        id: RuleId,
        cond: &ResolvedCondition,
        catalog: &Catalog,
    ) -> QueryResult<()> {
        if cond.on_var.is_some() || !cond.trans_vars.is_empty() {
            return Err(QueryError::Semantic(
                "the Rete baseline supports pattern-based conditions only".into(),
            ));
        }
        if self.rules.contains_key(&id.0) {
            return Err(QueryError::Semantic(format!(
                "rule {id} already in network"
            )));
        }
        let RuleShape {
            rels,
            preds,
            join_conjuncts,
            plan,
        } = RuleShape::compile(cond, catalog, &self.selnet, self.access)?;
        let nvars = rels.len();
        // a conjunct is testable once the highest variable it reads is bound
        let mut level_conjuncts: Vec<Vec<usize>> = vec![Vec::new(); nvars];
        for (i, mask) in plan.conjunct_vars.iter().enumerate() {
            level_conjuncts[mask.checked_ilog2().unwrap_or(0) as usize].push(i);
        }
        let mut alphas = Vec::with_capacity(nvars);
        let mut cols = Vec::with_capacity(nvars);
        for ((v, binding), pred) in cond.spec.vars.iter().enumerate().zip(preds) {
            let kind = if self
                .policy
                .virtualizes(v, &pred, rels[v], catalog, &plan.composite[v])
            {
                AlphaKind::Virtual
            } else {
                AlphaKind::Stored
            };
            let mut node = AlphaNode::new(id, v, rels[v], kind, pred, None);
            if kind.stores_entries() {
                node.set_join_indexes(plan.composite[v].iter().map(|s| s.attrs.clone()).collect());
                node.set_range_indexes(plan.bands[v].iter().map(|s| s.shape.clone()).collect());
            }
            let anchor = if node.pred.unsatisfiable {
                None
            } else {
                node.pred.anchor.clone()
            };
            let aid = alloc_alpha(&mut self.alphas, &mut self.free, node);
            self.selnet.subscribe(aid, rels[v], anchor);
            alphas.push(aid);
            cols.push(PnodeCol {
                var: binding.name.clone(),
                rel: binding.rel.clone(),
                schema: binding.schema.clone(),
                has_prev: false,
            });
        }
        let mut betas: Vec<BetaMemory> = (0..nvars).map(|_| BetaMemory::default()).collect();
        for (lvl, beta) in betas.iter_mut().enumerate().take(nvars.saturating_sub(1)) {
            Self::configure_beta_index(beta, &plan, lvl);
        }
        self.rules.insert(
            id.0,
            ReteRule {
                alphas,
                join_conjuncts,
                level_conjuncts,
                plan,
                betas,
                pnode: Pnode::new(cols),
                tokens_in: 0,
                join_probes: 0,
                pnode_inserts: 0,
            },
        );
        Ok(())
    }

    /// Pick the index the β-memory at `lvl` should keep for level
    /// `lvl + 1`'s right activations. Preference order mirrors the TREAT
    /// access-path choice: the widest composite equi key whose
    /// partial-side variables are all ≤ `lvl`, else a band whose interval
    /// endpoints live on a partial variable and whose stab key reads the
    /// next variable only.
    fn configure_beta_index(beta: &mut BetaMemory, plan: &JoinPlan, lvl: usize) {
        let next = lvl + 1;
        let prefix: u64 = (1u64 << next) - 1;
        if let Some(spec) = plan.composite[next]
            .iter()
            .find(|s| s.others_mask & !prefix == 0)
        {
            beta.equi = Some(BetaEquiIndex {
                probe_attrs: spec.attrs.clone(),
                key_exprs: spec.key_exprs.clone(),
                conjuncts: spec.conjuncts.clone(),
                buckets: HashMap::default(),
            });
            return;
        }
        let next_bit = 1u64 << next;
        for v in 0..=lvl {
            if let Some(spec) = plan.bands[v].iter().find(|s| s.others_mask == next_bit) {
                beta.band = Some(BetaBandIndex {
                    spec_var: v,
                    shape: spec.shape.clone(),
                    key_expr: spec.key_expr.clone(),
                    conjuncts: spec.conjuncts,
                    islist: IntervalSkipList::new(),
                    by_seq: HashMap::new(),
                    by_interval: HashMap::new(),
                });
                return;
            }
        }
    }

    /// Candidate bindings of an α-node: stored entries, or a base-relation
    /// scan under the node's predicate for virtual nodes (§4.2 applied to
    /// Rete). `visible` implements the pending/ProcessedMemories rules for
    /// virtual nodes; stored entries need no filter — the batch loop only
    /// inserts a token into an α-memory when its turn comes. `visible` is
    /// `None` while priming: every tuple is visible, and an α test that
    /// cannot be evaluated fails the activation with its error, as under
    /// TREAT; a token's reads the error as "no match".
    ///
    /// This is the *enumeration* path: a join takes it when no registered
    /// index applies (always, under [`JoinAccess::Nested`]).
    fn candidates(
        &self,
        aid: AlphaId,
        catalog: &Catalog,
        visible: Option<&dyn Fn(Tid) -> bool>,
    ) -> QueryResult<Vec<BoundVar>> {
        let alpha = self.alpha(aid);
        match alpha.kind {
            AlphaKind::Virtual => {
                let rel_b = live_rel(catalog, alpha.rel)?;
                let mut out = Vec::new();
                for (tid, t) in rel_b.scan() {
                    let pass = match visible {
                        Some(visible) => visible(tid) && alpha.pred_matches(t, None),
                        None => alpha.pred.matches(t, None)?,
                    };
                    if pass {
                        out.push(BoundVar::plain(tid, t.clone()));
                    }
                }
                Ok(out)
            }
            _ => Ok(alpha
                .entries()
                .map(|e| BoundVar {
                    tid: e.tid,
                    tuple: e.tuple.clone(),
                    prev: e.prev.clone(),
                })
                .collect()),
        }
    }

    /// Fill α-memories from current data and rebuild β-memories bottom-up.
    pub fn prime(&mut self, id: RuleId, catalog: &Catalog) -> QueryResult<()> {
        let rule = self
            .rules
            .get(&id.0)
            .ok_or_else(|| QueryError::Semantic(format!("unknown rule {id}")))?;
        let alpha_ids = rule.alphas.clone();
        for aid in &alpha_ids {
            let a = self.alphas[aid.0].as_mut().unwrap();
            if !a.kind.stores_entries() {
                continue;
            }
            for (tid, t) in live_rel(catalog, a.rel)?.scan() {
                if a.pred.matches(t, None)? {
                    let entry = AlphaEntry {
                        tid: Some(tid),
                        tuple: t.clone(),
                        prev: None,
                    };
                    a.insert(tid, entry);
                }
            }
        }
        // β levels bottom-up: enumeration is the right tool here (every
        // pair is new), but the partials land through `BetaMemory::insert`
        // so the β indexes are populated for the token path
        let nvars = alpha_ids.len();
        let mut levels: Vec<Vec<Partial>> = Vec::with_capacity(nvars);
        for lvl in 0..nvars {
            let mut out = Vec::new();
            let rule = &self.rules[&id.0];
            let cands = self.candidates(alpha_ids[lvl], catalog, None)?;
            if lvl == 0 {
                for cand in cands {
                    out.push(vec![cand]);
                }
            } else {
                for left in &levels[lvl - 1] {
                    for cand in &cands {
                        if self.join_passes(rule, lvl, left, cand, &[])? {
                            let mut p = left.clone();
                            p.push(cand.clone());
                            out.push(p);
                        }
                    }
                }
            }
            levels.push(out);
        }
        let rule = self.rules.get_mut(&id.0).unwrap();
        for (lvl, partials) in levels.into_iter().enumerate() {
            for p in partials {
                if lvl == nvars - 1 {
                    rule.pnode.push(p.clone());
                }
                rule.betas[lvl].insert(p, nvars);
            }
        }
        Ok(())
    }

    /// Test the join conjuncts at level `lvl` for `(left, cand)`, skipping
    /// the conjunct indices an index probe already answered.
    fn join_passes(
        &self,
        rule: &ReteRule,
        lvl: usize,
        left: &[BoundVar],
        cand: &BoundVar,
        skip: &[usize],
    ) -> QueryResult<bool> {
        let nvars = rule.alphas.len();
        let mut row = row_of(left, nvars);
        row.slots[lvl] = Some(cand.clone());
        for &ci in &rule.level_conjuncts[lvl] {
            if skip.contains(&ci) {
                continue;
            }
            if !eval_pred(&rule.join_conjuncts[ci], &row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Right activation at level `var > 0`: join the seed against the left
    /// β-memory — a probe of the memory's equi or band index, or, with
    /// neither, an enumeration of every partial.
    fn right_activate(
        &self,
        rule: &ReteRule,
        var: usize,
        seed: &BoundVar,
    ) -> QueryResult<Vec<Partial>> {
        let beta = &rule.betas[var - 1];
        let mut out = Vec::new();
        if let Some(ix) = &beta.equi {
            beta.probes.set(beta.probes.get() + 1);
            // probe key packed straight off the token's attributes —
            // no allocation, no string clones; a Null component joins
            // nothing, so the buckets serve nothing
            let mut key = Some(KeyBuilder::new(ix.probe_attrs.len()));
            for &attr in &ix.probe_attrs {
                let v = seed.tuple.get(attr);
                if v.is_null() {
                    key = None;
                    break;
                }
                if let Some(k) = &mut key {
                    k.push(v);
                }
            }
            let key = key.map(KeyBuilder::finish);
            let mut served = 0u64;
            if let Some(bucket) = key.as_ref().and_then(|k| ix.buckets.get(k)) {
                for seq in bucket {
                    let left = &beta.partials[seq];
                    served += 1;
                    if self.join_passes(rule, var, left, seed, &ix.conjuncts)? {
                        let mut p = left.clone();
                        p.push(seed.clone());
                        out.push(p);
                    }
                }
            }
            for seq in &beta.unindexed {
                let left = &beta.partials[seq];
                if self.join_passes(rule, var, left, seed, &[])? {
                    let mut p = left.clone();
                    p.push(seed.clone());
                    out.push(p);
                }
            }
            if served > 0 {
                beta.hits.set(beta.hits.get() + 1);
            }
            return Ok(out);
        }
        if let Some(bx) = &beta.band {
            let mut row = Row::unbound(rule.alphas.len());
            row.slots[var] = Some(seed.clone());
            // a key evaluation error falls through to enumeration, so
            // the per-pair error (if any partial exists) surfaces
            // exactly as an unindexed join would surface it
            if let Ok(key) = eval(&bx.key_expr, &row) {
                beta.probes.set(beta.probes.get() + 1);
                let mut served = 0u64;
                if !key.is_null() {
                    let mut seqs = Vec::new();
                    bx.islist.stab_with(&key, |id| {
                        if let Some(&s) = bx.by_interval.get(&id) {
                            seqs.push(s);
                        }
                    });
                    for seq in seqs {
                        let left = &beta.partials[&seq];
                        served += 1;
                        if self.join_passes(rule, var, left, seed, &bx.conjuncts)? {
                            let mut p = left.clone();
                            p.push(seed.clone());
                            out.push(p);
                        }
                    }
                }
                if served > 0 {
                    beta.hits.set(beta.hits.get() + 1);
                }
                return Ok(out);
            }
        }
        for left in beta.partials.values() {
            if self.join_passes(rule, var, left, seed, &[])? {
                let mut p = left.clone();
                p.push(seed.clone());
                out.push(p);
            }
        }
        Ok(out)
    }

    /// Process one token.
    pub fn process_token(&mut self, token: &Token, catalog: &Catalog) -> QueryResult<()> {
        self.process_batch(std::slice::from_ref(token), catalog)
    }

    /// Process a batch of tokens in order. As in [`crate::treat`], changes
    /// are already applied to base relations, so virtual α-memories hide
    /// tuples whose positive tokens are still pending.
    pub fn process_batch(&mut self, tokens: &[Token], catalog: &Catalog) -> QueryResult<()> {
        self.tokens_processed += tokens.len() as u64;
        let mut pending = Pending::default();
        pending.fill(tokens, catalog);
        for t in tokens {
            if catalog.rel(t.rel).is_none() {
                continue; // a token of a destroyed relation
            }
            if t.kind.is_positive() {
                pending.done(t);
                self.process_positive(t, catalog, &pending)?;
            } else {
                self.process_negative(t);
            }
        }
        Ok(())
    }

    /// Run one α-test, bumping the node's always-on test/pass counters.
    fn alpha_test(&self, aid: AlphaId, test: impl FnOnce(&AlphaNode) -> bool) -> bool {
        let a = self.alpha(aid);
        AlphaCounters::bump(&a.counters.tests, 1);
        let pass = test(a);
        if pass {
            AlphaCounters::bump(&a.counters.passes, 1);
        }
        pass
    }

    fn process_positive(
        &mut self,
        token: &Token,
        catalog: &Catalog,
        pending: &Pending,
    ) -> QueryResult<()> {
        // one selection-network stab per token, whatever its polarity
        let candidates = self.selnet.candidates(token.rel, &token.tuple);
        let mut matched: Vec<AlphaId> = candidates
            .into_iter()
            .filter(|aid| {
                self.alpha_test(*aid, |a| a.pred_matches(&token.tuple, token.old.as_ref()))
            })
            .collect();
        matched.sort_by_key(|a| a.0);
        matched.dedup();
        let mut processed: HashSet<usize> = HashSet::new();
        for aid in matched {
            processed.insert(aid.0);
            let (rule_id, var) = {
                let a = self.alphas[aid.0].as_mut().unwrap();
                if a.kind.stores_entries() {
                    a.insert(
                        token.tid,
                        AlphaEntry {
                            tid: Some(token.tid),
                            tuple: token.tuple.clone(),
                            prev: token.old.clone(),
                        },
                    );
                    AlphaCounters::bump(&a.counters.inserted, 1);
                }
                (a.rule, a.var)
            };
            let seed = BoundVar {
                tid: Some(token.tid),
                tuple: token.tuple.clone(),
                prev: token.old.clone(),
            };
            // right activation at level `var`
            let new_partials: Vec<Partial> = {
                let rule = &self.rules[&rule_id.0];
                if var == 0 {
                    vec![vec![seed]]
                } else {
                    self.right_activate(rule, var, &seed)?
                }
            };
            {
                let rule = self.rules.get_mut(&rule_id.0).unwrap();
                rule.tokens_in += 1;
                if var > 0 {
                    rule.join_probes += 1;
                }
            }
            self.insert_partials(
                rule_id,
                var,
                new_partials,
                token,
                &processed,
                catalog,
                pending,
            )?;
        }
        Ok(())
    }

    /// Extend `left` at `level` by probing the stored α-memory's composite
    /// or band index (the cascade's probe path). The probe answers its
    /// own conjuncts; the rest retest. A key evaluation error falls back
    /// to full enumeration so per-pair errors surface as an unindexed
    /// join would surface them.
    #[allow(clippy::too_many_arguments)]
    fn probe_extend(
        &self,
        rule: &ReteRule,
        level: usize,
        alpha: &AlphaNode,
        comp: Option<&CompositeSpec>,
        band: Option<&BandSpec>,
        left: &[BoundVar],
        out: &mut Vec<Partial>,
    ) -> QueryResult<()> {
        let nvars = rule.alphas.len();
        let row = row_of(left, nvars);
        let mut served = 0u64;
        let mut used = false;
        if let Some(spec) = comp {
            let key: QueryResult<SmallKey> = spec
                .key_exprs
                .iter()
                .try_fold(KeyBuilder::new(spec.key_exprs.len()), |mut kb, e| {
                    kb.push(&eval(e, &row)?);
                    Ok(kb)
                })
                .map(KeyBuilder::finish);
            if let Ok(key) = key {
                used = true;
                AlphaCounters::bump(&alpha.counters.index_probes, 1);
                for e in alpha
                    .probe_join_index_packed(&spec.attrs, &key)
                    .expect("probe found a registered index")
                {
                    served += 1;
                    let cand = BoundVar {
                        tid: e.tid,
                        tuple: e.tuple.clone(),
                        prev: e.prev.clone(),
                    };
                    if self.join_passes(rule, level, left, &cand, &spec.conjuncts)? {
                        let mut p = left.to_vec();
                        p.push(cand);
                        out.push(p);
                    }
                }
                if served > 0 {
                    AlphaCounters::bump(&alpha.counters.index_hits, 1);
                }
            }
        } else if let Some(spec) = band {
            if let Ok(key) = eval(&spec.key_expr, &row) {
                used = true;
                AlphaCounters::bump(&alpha.counters.range_probes, 1);
                // the hits stream off the skip list; the first error
                // stops the joins
                let mut joined = Ok(());
                let mut hits = 0u64;
                alpha
                    .probe_range_index(&spec.shape, &key, |e| {
                        hits += 1;
                        if joined.is_err() {
                            return;
                        }
                        let cand = BoundVar {
                            tid: e.tid,
                            tuple: e.tuple.clone(),
                            prev: e.prev.clone(),
                        };
                        joined = self
                            .join_passes(rule, level, left, &cand, &spec.conjuncts)
                            .map(|pass| {
                                if pass {
                                    let mut p = left.to_vec();
                                    p.push(cand);
                                    out.push(p);
                                }
                            });
                    })
                    .expect("probe found a registered index");
                joined?;
                if hits > 0 {
                    AlphaCounters::bump(&alpha.counters.range_hits, 1);
                }
                served += hits;
            }
        }
        if !used {
            for e in alpha.entries() {
                served += 1;
                let cand = BoundVar {
                    tid: e.tid,
                    tuple: e.tuple.clone(),
                    prev: e.prev.clone(),
                };
                if self.join_passes(rule, level, left, &cand, &[])? {
                    let mut p = left.to_vec();
                    p.push(cand);
                    out.push(p);
                }
            }
        }
        AlphaCounters::bump(&alpha.counters.join_candidates, served);
        if used {
            AlphaCounters::bump(&alpha.counters.indexed_candidates, served);
        } else {
            AlphaCounters::bump(&alpha.counters.scanned_candidates, served);
        }
        Ok(())
    }

    /// Insert partials at level `lvl` and cascade them down the β chain.
    ///
    /// The access path per level is decided once, before the left loop —
    /// it depends only on which variables are bound (all of `0..level`),
    /// never on the left row's values — so an unindexed level keeps one
    /// hoisted enumeration, and an indexed one probes per left row.
    #[allow(clippy::too_many_arguments)]
    fn insert_partials(
        &mut self,
        rule_id: RuleId,
        lvl: usize,
        partials: Vec<Partial>,
        token: &Token,
        processed: &HashSet<usize>,
        catalog: &Catalog,
        pending: &Pending,
    ) -> QueryResult<()> {
        if partials.is_empty() {
            return Ok(());
        }
        let nvars = self.rules[&rule_id.0].alphas.len();
        // extend level by level
        let mut current = partials;
        for level in lvl..nvars {
            if level > lvl {
                let rule = &self.rules[&rule_id.0];
                let aid = rule.alphas[level];
                let alpha = self.alpha(aid);
                let bound: u64 = (1u64 << level) - 1;
                // only stored memories carry indexes: a virtual one (or a
                // nested plan) finds no spec here and enumerates
                let comp = rule.plan.composite[level]
                    .iter()
                    .find(|s| s.others_mask & !bound == 0 && alpha.has_join_index(&s.attrs));
                let band = if comp.is_none() {
                    rule.plan.bands[level]
                        .iter()
                        .find(|s| s.others_mask & !bound == 0 && alpha.has_range_index(&s.shape))
                } else {
                    None
                };
                let mut next = Vec::new();
                if comp.is_some() || band.is_some() {
                    for left in &current {
                        self.probe_extend(rule, level, alpha, comp, band, left, &mut next)?;
                    }
                } else {
                    let pend = pending.of(alpha.rel);
                    let rel = alpha.rel;
                    let visible = move |tid: Tid| -> bool {
                        if pend.is_some_and(|p| p.contains_key(&tid.0)) {
                            return false;
                        }
                        rel != token.rel || tid != token.tid || processed.contains(&aid.0)
                    };
                    let cands = self.candidates(aid, catalog, Some(&visible))?;
                    let rule = &self.rules[&rule_id.0];
                    for left in &current {
                        for cand in &cands {
                            if self.join_passes(rule, level, left, cand, &[])? {
                                let mut p = left.clone();
                                p.push(cand.clone());
                                next.push(p);
                            }
                        }
                    }
                }
                current = next;
                if current.is_empty() {
                    return Ok(());
                }
            }
            let inserted = current.len() as u64;
            let rule = self.rules.get_mut(&rule_id.0).unwrap();
            for p in &current {
                rule.betas[level].insert(p.clone(), nvars);
            }
            if level == nvars - 1 {
                rule.pnode_inserts += inserted;
                for p in &current {
                    rule.pnode.push(p.clone());
                }
            }
        }
        Ok(())
    }

    /// Remove the TID from the α-memories, β-partials and P-node rows that
    /// hold it, found by the same stab a `+` token takes. Sound for the
    /// reason spelled out at `treat::Network::process_negative`: an entry,
    /// partial or row under a TID exists only where the value this token
    /// carries passed the node's anchor (a β-partial binds the TID at
    /// variable `v` only via `v`'s α-node), and unanchored nodes are always
    /// candidates.
    fn process_negative(&mut self, token: &Token) {
        for aid in self.selnet.candidates(token.rel, &token.tuple) {
            let (rule_id, var) = {
                let a = self.alphas[aid.0].as_mut().unwrap();
                a.remove(token.tid);
                (a.rule, a.var)
            };
            let rule = self.rules.get_mut(&rule_id.0).unwrap();
            let nvars = rule.alphas.len();
            for beta in rule.betas[var..].iter_mut() {
                beta.remove_where(var, token.tid, nvars);
            }
            rule.pnode.retract(var, token.tid);
        }
    }

    /// Remove a rule and its α-nodes.
    pub fn remove_rule(&mut self, id: RuleId) {
        let Some(rule) = self.rules.remove(&id.0) else {
            return;
        };
        for aid in rule.alphas {
            self.selnet.unsubscribe(aid);
            self.alphas[aid.0] = None;
            self.free.push(aid.0);
        }
    }

    /// The P-node of a rule.
    pub fn pnode(&self, id: RuleId) -> Option<&Pnode> {
        self.rules.get(&id.0).map(|r| &r.pnode)
    }

    /// Rules whose P-node is non-empty, ascending by id.
    pub fn rules_with_matches(&self) -> Vec<RuleId> {
        self.rules
            .iter()
            .filter(|(_, r)| !r.pnode.is_empty())
            .map(|(id, _)| RuleId(*id))
            .collect()
    }

    /// Memory statistics for one rule (same surface as
    /// [`crate::Network::rule_stats`], plus the β fields only Rete fills).
    pub fn rule_stats(&self, id: RuleId) -> Option<RuleStats> {
        let rule = self.rules.get(&id.0)?;
        let alphas = NetworkStats::of_alphas(rule.alphas.iter().map(|a| self.alpha(*a)));
        let (beta_bytes, beta_probes, beta_hits) = rule.beta_totals();
        Some(RuleStats {
            pnode_rows: rule.pnode.len(),
            pnode_bytes: rule.pnode.heap_size(),
            tokens_in: rule.tokens_in,
            join_probes: rule.join_probes,
            pnode_inserts: rule.pnode_inserts,
            beta_bytes,
            beta_probes,
            beta_hits,
            ..alphas.rule_alphas()
        })
    }

    /// Aggregate statistics across the network (same surface as
    /// [`crate::Network::stats`], plus the β fields only Rete fills).
    pub fn stats(&self) -> NetworkStats {
        let (selnet_probes, selnet_candidates) = self.selnet.probe_counts();
        let stab = self.selnet.stab_stats();
        let mut s = NetworkStats {
            rules: self.rules.len(),
            selnet_bytes: self.selnet.approx_size_bytes(),
            tokens_processed: self.tokens_processed,
            selnet_probes,
            selnet_candidates,
            islist_stabs: stab.stabs.get(),
            islist_nodes_visited: stab.nodes_visited.get(),
            ..NetworkStats::of_alphas(self.alphas.iter().flatten())
        };
        for r in self.rules.values() {
            s.pnode_rows += r.pnode.len();
            s.pnode_bytes += r.pnode.heap_size();
            s.join_probes += r.join_probes;
            s.pnode_inserts += r.pnode_inserts;
            let (bytes, probes, hits) = r.beta_totals();
            s.beta_bytes += bytes;
            s.beta_probes += probes;
            s.beta_hits += hits;
        }
        s
    }

    /// The α-node kinds of a rule's variables, in variable order.
    pub fn alpha_kinds(&self, id: RuleId) -> Option<Vec<AlphaKind>> {
        let rule = self.rules.get(&id.0)?;
        Some(rule.alphas.iter().map(|a| self.alpha(*a).kind).collect())
    }

    /// Per-variable topology of a compiled rule (see
    /// [`crate::Network::rule_topology`]).
    pub fn rule_topology(&self, id: RuleId) -> Option<RuleTopology> {
        let rule = self.rules.get(&id.0)?;
        let vars = rule
            .pnode
            .cols()
            .iter()
            .zip(rule.alphas.iter())
            .map(|(col, aid)| (col.var.clone(), col.rel.clone(), self.alpha(*aid).kind))
            .collect();
        Some((vars, rule.join_conjuncts.len()))
    }

    /// Total bytes held in β-memories, partials and indexes both (the
    /// Rete-specific storage cost). The last β level duplicates the P-node
    /// by construction.
    pub fn beta_bytes(&self) -> usize {
        self.rules.values().map(|r| r.beta_totals().0).sum()
    }

    /// Total bytes held in α-memories, entries and indexes both.
    pub fn alpha_bytes(&self) -> usize {
        self.alphas.iter().flatten().map(AlphaNode::heap_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::EventSpecifier;
    use crate::treat::{Network, VirtualPolicy};
    use ariel_query::{parse_expr, FromItem, Resolver};
    use ariel_storage::{AttrType, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(
            "emp",
            Schema::of(&[("sal", AttrType::Int), ("dno", AttrType::Int)]),
        )
        .unwrap();
        c.create(
            "dept",
            Schema::of(&[("dno", AttrType::Int), ("floor", AttrType::Int)]),
        )
        .unwrap();
        c
    }

    fn rcond(c: &Catalog, qual: &str, from: &[(&str, &str)]) -> ResolvedCondition {
        let e = parse_expr(qual).unwrap();
        let from: Vec<FromItem> = from
            .iter()
            .map(|(v, r)| FromItem {
                var: v.to_string(),
                rel: r.to_string(),
            })
            .collect();
        Resolver::new(c)
            .resolve_condition(None, Some(&e), &from)
            .unwrap()
    }

    fn ins(c: &mut Catalog, rel: &str, vals: &[i64]) -> Token {
        let r = c.get_mut(rel).unwrap();
        let tid = r
            .insert(vals.iter().map(|&v| Value::Int(v)).collect::<Vec<Value>>())
            .unwrap();
        let t = r.get(tid).cloned().unwrap();
        Token::plus(c.id(rel).unwrap(), tid, t, EventSpecifier::Append)
    }

    fn ins_vals(c: &mut Catalog, rel: &str, vals: Vec<Value>) -> Token {
        let r = c.get_mut(rel).unwrap();
        let tid = r.insert(vals).unwrap();
        let t = r.get(tid).cloned().unwrap();
        Token::plus(c.id(rel).unwrap(), tid, t, EventSpecifier::Append)
    }

    fn del(c: &mut Catalog, token: &Token) -> Token {
        let old = c.rel_mut(token.rel).unwrap().delete(token.tid).unwrap();
        Token::minus(token.rel, token.tid, old, EventSpecifier::Delete)
    }

    fn nested() -> ReteNetwork {
        ReteNetwork::with_policy(VirtualPolicy::AllStored, JoinAccess::Nested)
    }

    #[test]
    fn rete_single_variable() {
        let mut cat = catalog();
        let mut net = ReteNetwork::new();
        net.add_rule(RuleId(1), &rcond(&cat, "emp.sal > 100", &[]), &cat)
            .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        let t = ins(&mut cat, "emp", &[200, 1]);
        net.process_token(&t, &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        let low = ins(&mut cat, "emp", &[50, 1]);
        net.process_token(&low, &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
        let d = del(&mut cat, &t);
        net.process_token(&d, &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 0);
    }

    #[test]
    fn rete_matches_treat_under_random_stream() {
        // the real test: Rete (default indexed mode) and A-TREAT produce
        // identical P-node sizes for the same token stream
        let mut cat = catalog();
        let qual = "emp.sal > 10 and emp.dno = dept.dno and dept.floor < 5";
        let mut rete = ReteNetwork::new();
        rete.add_rule(RuleId(1), &rcond(&cat, qual, &[]), &cat)
            .unwrap();
        rete.prime(RuleId(1), &cat).unwrap();
        let mut treat = Network::new();
        treat
            .add_rule(
                RuleId(1),
                &rcond(&cat, qual, &[]),
                &VirtualPolicy::AllStored,
                &cat,
            )
            .unwrap();
        treat.prime(RuleId(1), &cat).unwrap();

        let mut live: Vec<Token> = Vec::new();
        let mut seed = 42u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as i64
        };
        for step in 0..120 {
            let tok = if step % 4 == 3 && !live.is_empty() {
                let k = (rnd() as usize) % live.len();
                let victim = live.swap_remove(k);
                del(&mut cat, &victim)
            } else if step % 2 == 0 {
                let t = ins(&mut cat, "emp", &[rnd() % 30, rnd() % 6]);
                live.push(t.clone());
                t
            } else {
                let t = ins(&mut cat, "dept", &[rnd() % 6, rnd() % 8]);
                live.push(t.clone());
                t
            };
            rete.process_token(&tok, &cat).unwrap();
            treat.process_token(&tok, &cat).unwrap();
            let a = rete.pnode(RuleId(1)).unwrap();
            let b = treat.pnode(RuleId(1)).unwrap();
            assert_eq!(a.len(), b.len(), "divergence at step {step}");
        }
    }

    /// The three-way oracle at module scope: indexed Rete, nested Rete and
    /// TREAT agree step by step on an equi+selection rule under churn.
    #[test]
    fn indexed_rete_matches_nested_rete_and_treat() {
        let mut cats = [catalog(), catalog(), catalog()];
        let qual = "emp.sal > 10 and emp.dno = dept.dno and dept.floor < 5";
        let mut indexed = ReteNetwork::new();
        indexed
            .add_rule(RuleId(1), &rcond(&cats[0], qual, &[]), &cats[0])
            .unwrap();
        indexed.prime(RuleId(1), &cats[0]).unwrap();
        let mut nest = nested();
        nest.add_rule(RuleId(1), &rcond(&cats[1], qual, &[]), &cats[1])
            .unwrap();
        nest.prime(RuleId(1), &cats[1]).unwrap();
        let mut treat = Network::new();
        treat
            .add_rule(
                RuleId(1),
                &rcond(&cats[2], qual, &[]),
                &VirtualPolicy::AllStored,
                &cats[2],
            )
            .unwrap();
        treat.prime(RuleId(1), &cats[2]).unwrap();

        let mut seed = 7u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as i64
        };
        let mut live: Vec<[Token; 3]> = Vec::new();
        for step in 0..160 {
            let choice = rnd();
            if choice % 4 == 3 && !live.is_empty() {
                let k = (rnd() as usize) % live.len();
                let [ta, tb, tc] = live.swap_remove(k);
                indexed
                    .process_token(&del(&mut cats[0], &ta), &cats[0])
                    .unwrap();
                nest.process_token(&del(&mut cats[1], &tb), &cats[1])
                    .unwrap();
                treat
                    .process_token(&del(&mut cats[2], &tc), &cats[2])
                    .unwrap();
            } else {
                let (rel, vals) = if choice % 2 == 0 {
                    ("emp", [rnd() % 30, rnd() % 6])
                } else {
                    ("dept", [rnd() % 6, rnd() % 8])
                };
                let toks = [
                    ins(&mut cats[0], rel, &vals),
                    ins(&mut cats[1], rel, &vals),
                    ins(&mut cats[2], rel, &vals),
                ];
                indexed.process_token(&toks[0], &cats[0]).unwrap();
                nest.process_token(&toks[1], &cats[1]).unwrap();
                treat.process_token(&toks[2], &cats[2]).unwrap();
                live.push(toks);
            }
            let a = indexed.pnode(RuleId(1)).unwrap().len();
            let b = nest.pnode(RuleId(1)).unwrap().len();
            let c = treat.pnode(RuleId(1)).unwrap().len();
            assert_eq!(a, b, "indexed vs nested diverged at step {step}");
            assert_eq!(a, c, "indexed vs TREAT diverged at step {step}");
        }
        // the two modes did measurably different work
        assert!(indexed.stats().beta_probes > 0, "indexed mode probed β");
        assert_eq!(nest.stats().beta_probes, 0, "nested mode never probes");
    }

    /// Band joins through the β band index: `dept` binds first, so the
    /// level-0 β-memory interval-indexes each dept's `(dno, floor)` span
    /// and emp right activations stab it with `emp.sal`.
    #[test]
    fn indexed_rete_band_join_matches_nested() {
        let qual = "dept.dno < emp.sal and emp.sal <= dept.floor";
        let from = [("dept", "dept"), ("emp", "emp")];
        let mut cat_a = catalog();
        let mut cat_b = catalog();
        let mut indexed = ReteNetwork::new();
        indexed
            .add_rule(RuleId(1), &rcond(&cat_a, qual, &from), &cat_a)
            .unwrap();
        indexed.prime(RuleId(1), &cat_a).unwrap();
        let mut nest = nested();
        nest.add_rule(RuleId(1), &rcond(&cat_b, qual, &from), &cat_b)
            .unwrap();
        nest.prime(RuleId(1), &cat_b).unwrap();

        let mut seed = 99u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as i64
        };
        let mut live: Vec<(Token, Token)> = Vec::new();
        for step in 0..140 {
            let choice = rnd();
            if choice % 5 == 4 && !live.is_empty() {
                let k = (rnd() as usize) % live.len();
                let (ta, tb) = live.swap_remove(k);
                indexed
                    .process_token(&del(&mut cat_a, &ta), &cat_a)
                    .unwrap();
                nest.process_token(&del(&mut cat_b, &tb), &cat_b).unwrap();
            } else {
                let (rel, vals) = if choice % 2 == 0 {
                    ("dept", [rnd() % 10, rnd() % 20])
                } else {
                    ("emp", [rnd() % 20, rnd() % 6])
                };
                let ta = ins(&mut cat_a, rel, &vals);
                let tb = ins(&mut cat_b, rel, &vals);
                indexed.process_token(&ta, &cat_a).unwrap();
                nest.process_token(&tb, &cat_b).unwrap();
                live.push((ta, tb));
            }
            assert_eq!(
                indexed.pnode(RuleId(1)).unwrap().len(),
                nest.pnode(RuleId(1)).unwrap().len(),
                "band divergence at step {step}"
            );
        }
        let s = indexed.stats();
        assert!(s.beta_probes > 0, "emp activations stab the β band index");
        assert!(s.beta_hits <= s.beta_probes);
    }

    /// Null join keys: tuples with a Null `dno` must join nothing, in both
    /// modes, through inserts and deletes.
    #[test]
    fn indexed_rete_null_keys_match_nested() {
        let qual = "emp.dno = dept.dno";
        let mut cat_a = catalog();
        let mut cat_b = catalog();
        let mut indexed = ReteNetwork::new();
        indexed
            .add_rule(RuleId(1), &rcond(&cat_a, qual, &[]), &cat_a)
            .unwrap();
        indexed.prime(RuleId(1), &cat_a).unwrap();
        let mut nest = nested();
        nest.add_rule(RuleId(1), &rcond(&cat_b, qual, &[]), &cat_b)
            .unwrap();
        nest.prime(RuleId(1), &cat_b).unwrap();

        let rows: Vec<(&str, Vec<Value>)> = vec![
            ("emp", vec![Value::Int(10), Value::Null]),
            ("dept", vec![Value::Null, Value::Int(1)]),
            ("emp", vec![Value::Int(20), Value::Int(5)]),
            ("dept", vec![Value::Int(5), Value::Int(2)]),
            ("emp", vec![Value::Int(30), Value::Null]),
            ("dept", vec![Value::Int(5), Value::Int(3)]),
        ];
        let mut live = Vec::new();
        for (rel, vals) in rows {
            let ta = ins_vals(&mut cat_a, rel, vals.clone());
            let tb = ins_vals(&mut cat_b, rel, vals);
            indexed.process_token(&ta, &cat_a).unwrap();
            nest.process_token(&tb, &cat_b).unwrap();
            live.push((ta, tb));
            assert_eq!(
                indexed.pnode(RuleId(1)).unwrap().len(),
                nest.pnode(RuleId(1)).unwrap().len()
            );
        }
        // the one keyed emp joins the two keyed depts
        assert_eq!(indexed.pnode(RuleId(1)).unwrap().len(), 2);
        while let Some((ta, tb)) = live.pop() {
            indexed
                .process_token(&del(&mut cat_a, &ta), &cat_a)
                .unwrap();
            nest.process_token(&del(&mut cat_b, &tb), &cat_b).unwrap();
            assert_eq!(
                indexed.pnode(RuleId(1)).unwrap().len(),
                nest.pnode(RuleId(1)).unwrap().len()
            );
        }
        assert_eq!(indexed.pnode(RuleId(1)).unwrap().len(), 0);
        assert_eq!(
            indexed.beta_bytes(),
            indexed.rules[&1].betas[0]
                .equi
                .as_ref()
                .map(|ix| ix.buckets.len())
                .unwrap_or(0),
            "empty memory holds no partial bytes and no buckets"
        );
    }

    #[test]
    fn rete_carries_beta_state() {
        let mut cat = catalog();
        let qual = "emp.sal > 0 and emp.dno = dept.dno";
        let mut net = ReteNetwork::new();
        net.add_rule(RuleId(1), &rcond(&cat, qual, &[]), &cat)
            .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        for i in 0..10 {
            let t = ins(&mut cat, "emp", &[100, i]);
            net.process_token(&t, &cat).unwrap();
        }
        assert!(net.beta_bytes() > 0, "β-memories hold partial matches");
        assert!(net.alpha_bytes() > 0);
    }

    #[test]
    fn rete_self_join() {
        for mode in [JoinAccess::Composite, JoinAccess::Nested] {
            let mut cat = catalog();
            let mut net = ReteNetwork::with_policy(VirtualPolicy::AllStored, mode);
            net.add_rule(
                RuleId(1),
                &rcond(&cat, "a.dno = b.dno", &[("a", "emp"), ("b", "emp")]),
                &cat,
            )
            .unwrap();
            net.prime(RuleId(1), &cat).unwrap();
            let t1 = ins(&mut cat, "emp", &[1, 5]);
            net.process_token(&t1, &cat).unwrap();
            assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1, "(t1,t1) {mode:?}");
            let t2 = ins(&mut cat, "emp", &[2, 5]);
            net.process_token(&t2, &cat).unwrap();
            assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 4, "{mode:?}");
            let d = del(&mut cat, &t1);
            net.process_token(&d, &cat).unwrap();
            assert_eq!(
                net.pnode(RuleId(1)).unwrap().len(),
                1,
                "(t2,t2) remains {mode:?}"
            );
        }
    }

    #[test]
    fn rete_rejects_event_rules() {
        let cat = catalog();
        let e = parse_expr("emp.sal > 0").unwrap();
        let rc = Resolver::new(&cat)
            .resolve_condition(
                Some(&ariel_query::EventSpec {
                    kind: ariel_query::EventKind::Append,
                    relation: "emp".into(),
                }),
                Some(&e),
                &[],
            )
            .unwrap();
        let mut net = ReteNetwork::new();
        assert!(net.add_rule(RuleId(1), &rc, &cat).is_err());
    }

    /// Join bitmasks cap a rule at 64 tuple variables: both networks
    /// refuse a 65-variable condition with an error instead of panicking
    /// (or, in a release build, wrapping the masks).
    #[test]
    fn both_networks_reject_more_than_64_variables() {
        use crate::treat::Network;
        let cat = catalog();
        let names: Vec<String> = (0..65).map(|i| format!("e{i}")).collect();
        let from: Vec<(&str, &str)> = names.iter().map(|n| (n.as_str(), "emp")).collect();
        let qual = (1..65)
            .map(|i| format!("e{}.sal = e{i}.sal", i - 1))
            .collect::<Vec<_>>()
            .join(" and ");
        let rc = rcond(&cat, &qual, &from);
        assert_eq!(rc.spec.vars.len(), 65);
        let treat = Network::new().add_rule(RuleId(1), &rc, &VirtualPolicy::AllStored, &cat);
        assert!(treat.is_err(), "TREAT refuses 65 variables");
        for access in [JoinAccess::Composite, JoinAccess::Nested] {
            let mut rete = ReteNetwork::with_policy(VirtualPolicy::AllStored, access);
            assert!(rete.add_rule(RuleId(1), &rc, &cat).is_err(), "{access:?}");
            assert!(rete.pnode(RuleId(1)).is_none(), "nothing compiled");
        }
    }

    /// The stats surface the engine's metrics export reads.
    #[test]
    fn rete_stats_surface() {
        let mut cat = catalog();
        let qual = "emp.sal > 10 and emp.dno = dept.dno";
        let mut net = ReteNetwork::new();
        net.add_rule(RuleId(1), &rcond(&cat, qual, &[]), &cat)
            .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        for i in 0..8 {
            let t = ins(&mut cat, "emp", &[20 + i, i % 3]);
            net.process_token(&t, &cat).unwrap();
            let d = ins(&mut cat, "dept", &[i % 3, i]);
            net.process_token(&d, &cat).unwrap();
        }
        let s = net.stats();
        assert_eq!(s.rules, 1);
        assert_eq!(s.alpha_nodes, 2);
        assert_eq!(s.tokens_processed, 16);
        assert!(s.alpha_tests > 0);
        assert!(s.beta_bytes > 0);
        assert!(s.beta_probes > 0, "dept activations probe the β index");
        assert!(s.beta_hits <= s.beta_probes);
        assert!(s.pnode_inserts > 0);
        let rs = net.rule_stats(RuleId(1)).unwrap();
        assert_eq!(rs.beta_probes, s.beta_probes);
        assert_eq!(rs.beta_bytes, s.beta_bytes);
        assert!(rs.tokens_in > 0);
        let (vars, joins) = net.rule_topology(RuleId(1)).unwrap();
        assert_eq!(vars.len(), 2);
        assert_eq!(joins, 1);
        assert_eq!(
            net.alpha_kinds(RuleId(1)).unwrap(),
            vec![AlphaKind::Stored, AlphaKind::Stored]
        );
    }

    /// remove_rule releases α slots for reuse.
    #[test]
    fn rete_remove_rule_reuses_slots() {
        let mut cat = catalog();
        let mut net = ReteNetwork::new();
        net.add_rule(RuleId(1), &rcond(&cat, "emp.sal > 0", &[]), &cat)
            .unwrap();
        net.remove_rule(RuleId(1));
        assert!(net.pnode(RuleId(1)).is_none());
        net.add_rule(
            RuleId(2),
            &rcond(&cat, "emp.sal > 10 and emp.dno = dept.dno", &[]),
            &cat,
        )
        .unwrap();
        net.prime(RuleId(2), &cat).unwrap();
        let t = ins(&mut cat, "emp", &[20, 1]);
        net.process_token(&t, &cat).unwrap();
        let d = ins(&mut cat, "dept", &[1, 4]);
        net.process_token(&d, &cat).unwrap();
        assert_eq!(net.pnode(RuleId(2)).unwrap().len(), 1);
    }
}

#[cfg(test)]
mod virtual_tests {
    use super::*;
    use crate::token::EventSpecifier;
    use ariel_query::{parse_expr, FromItem, Resolver};
    use ariel_storage::{AttrType, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(
            "emp",
            Schema::of(&[("sal", AttrType::Int), ("dno", AttrType::Int)]),
        )
        .unwrap();
        c.create(
            "dept",
            Schema::of(&[("dno", AttrType::Int), ("floor", AttrType::Int)]),
        )
        .unwrap();
        c
    }

    fn rcond(c: &Catalog, qual: &str, from: &[(&str, &str)]) -> ResolvedCondition {
        let e = parse_expr(qual).unwrap();
        let from: Vec<FromItem> = from
            .iter()
            .map(|(v, r)| FromItem {
                var: v.to_string(),
                rel: r.to_string(),
            })
            .collect();
        Resolver::new(c)
            .resolve_condition(None, Some(&e), &from)
            .unwrap()
    }

    fn ins(c: &mut Catalog, rel: &str, vals: &[i64]) -> Token {
        let r = c.get_mut(rel).unwrap();
        let tid = r
            .insert(vals.iter().map(|&v| Value::Int(v)).collect::<Vec<Value>>())
            .unwrap();
        let t = r.get(tid).cloned().unwrap();
        Token::plus(c.id(rel).unwrap(), tid, t, EventSpecifier::Append)
    }

    fn del(c: &mut Catalog, token: &Token) -> Token {
        let old = c.rel_mut(token.rel).unwrap().delete(token.tid).unwrap();
        Token::minus(token.rel, token.tid, old, EventSpecifier::Delete)
    }

    /// Rete with virtual α-memories must match classic Rete exactly, while
    /// carrying no α-memory bytes.
    #[test]
    fn virtual_rete_matches_classic_rete() {
        let mut cat_a = catalog();
        let mut cat_b = catalog();
        let qual = "emp.sal > 10 and emp.dno = dept.dno and dept.floor < 5";
        let mut classic = ReteNetwork::new();
        classic
            .add_rule(RuleId(1), &rcond(&cat_a, qual, &[]), &cat_a)
            .unwrap();
        classic.prime(RuleId(1), &cat_a).unwrap();
        let mut virt = ReteNetwork::with_policy(VirtualPolicy::AllVirtual, JoinAccess::Composite);
        virt.add_rule(RuleId(1), &rcond(&cat_b, qual, &[]), &cat_b)
            .unwrap();
        virt.prime(RuleId(1), &cat_b).unwrap();

        let mut seed = 17u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as i64
        };
        let mut live_a: Vec<Token> = Vec::new();
        let mut live_b: Vec<Token> = Vec::new();
        for step in 0..150 {
            let choice = rnd();
            if choice % 4 == 3 && !live_a.is_empty() {
                let k = (rnd() as usize) % live_a.len();
                let ta = live_a.swap_remove(k);
                let tb = live_b.swap_remove(k);
                classic
                    .process_token(&del(&mut cat_a, &ta), &cat_a)
                    .unwrap();
                virt.process_token(&del(&mut cat_b, &tb), &cat_b).unwrap();
            } else {
                let (rel, vals) = if choice % 2 == 0 {
                    ("emp", [rnd() % 30, rnd() % 6])
                } else {
                    ("dept", [rnd() % 6, rnd() % 8])
                };
                let ta = ins(&mut cat_a, rel, &vals);
                let tb = ins(&mut cat_b, rel, &vals);
                classic.process_token(&ta, &cat_a).unwrap();
                virt.process_token(&tb, &cat_b).unwrap();
                live_a.push(ta);
                live_b.push(tb);
            }
            assert_eq!(
                classic.pnode(RuleId(1)).unwrap().len(),
                virt.pnode(RuleId(1)).unwrap().len(),
                "divergence at step {step}"
            );
        }
        assert_eq!(virt.alpha_bytes(), 0, "virtual α-memories store nothing");
        assert!(classic.alpha_bytes() > 0);
    }

    /// Self-join counting must stay exact under virtual α-memories in Rete
    /// (the §1 claim, batch form), in both join modes.
    #[test]
    fn virtual_rete_self_join_batch() {
        for mode in [JoinAccess::Composite, JoinAccess::Nested] {
            for policy in [
                VirtualPolicy::AllStored,
                VirtualPolicy::AllVirtual,
                VirtualPolicy::ExplicitVars(HashSet::from([0])),
                VirtualPolicy::ExplicitVars(HashSet::from([1])),
            ] {
                let mut cat = catalog();
                let mut net = ReteNetwork::with_policy(policy.clone(), mode);
                net.add_rule(
                    RuleId(1),
                    &rcond(&cat, "a.dno = b.dno", &[("a", "emp"), ("b", "emp")]),
                    &cat,
                )
                .unwrap();
                net.prime(RuleId(1), &cat).unwrap();
                let t1 = ins(&mut cat, "emp", &[1, 5]);
                let t2 = ins(&mut cat, "emp", &[2, 5]);
                net.process_batch(&[t1.clone(), t2], &cat).unwrap();
                assert_eq!(
                    net.pnode(RuleId(1)).unwrap().len(),
                    4,
                    "pairs (t1,t1),(t1,t2),(t2,t1),(t2,t2) under {policy:?} {mode:?}"
                );
                let d = del(&mut cat, &t1);
                net.process_token(&d, &cat).unwrap();
                assert_eq!(
                    net.pnode(RuleId(1)).unwrap().len(),
                    1,
                    "{policy:?} {mode:?}"
                );
            }
        }
    }

    /// Primed data visible through virtual nodes.
    #[test]
    fn virtual_rete_priming() {
        let mut cat = catalog();
        cat.get_mut("emp")
            .unwrap()
            .insert(vec![20i64.into(), 1i64.into()])
            .unwrap();
        cat.get_mut("dept")
            .unwrap()
            .insert(vec![1i64.into(), 2i64.into()])
            .unwrap();
        let mut net = ReteNetwork::with_policy(VirtualPolicy::AllVirtual, JoinAccess::Composite);
        net.add_rule(
            RuleId(1),
            &rcond(&cat, "emp.sal > 10 and emp.dno = dept.dno", &[]),
            &cat,
        )
        .unwrap();
        net.prime(RuleId(1), &cat).unwrap();
        assert_eq!(net.pnode(RuleId(1)).unwrap().len(), 1);
    }

    /// With the catalog threaded through `add_rule`, the threshold policy
    /// runs the same estimate as TREAT and picks the same memories
    /// (closes the ROADMAP item "Selectivity-aware Rete α policy").
    #[test]
    fn selectivity_threshold_matches_treat() {
        use crate::treat::Network;
        let mut cat = catalog();
        for i in 0..10 {
            ins(&mut cat, "emp", &[100 + i, i % 3]);
            ins(&mut cat, "dept", &[i % 3, if i < 5 { 1 } else { 9 }]);
        }
        let policy = VirtualPolicy::SelectivityThreshold(0.6);
        let check = |qual: &str, from: &[(&str, &str)], expect: &[AlphaKind]| {
            let mut rete = ReteNetwork::with_policy(policy.clone(), JoinAccess::Composite);
            rete.add_rule(RuleId(1), &rcond(&cat, qual, from), &cat)
                .unwrap();
            let mut treat = Network::new();
            treat
                .add_rule(RuleId(1), &rcond(&cat, qual, from), &policy, &cat)
                .unwrap();
            let rk = rete.alpha_kinds(RuleId(1)).unwrap();
            let tk = treat.alpha_kinds(RuleId(1)).unwrap();
            assert_eq!(rk, tk, "backends disagree on {qual}");
            assert_eq!(rk, expect, "estimate changed for {qual}");
        };
        // equi rule: emp.sal > 10 matches 100% (> 60%), but the dno equi
        // index carves it into ~1/3 buckets → index-aware refinement
        // stores it; dept.floor < 5 matches 50% → stored outright
        check(
            "emp.sal > 10 and emp.dno = dept.dno and dept.floor < 5",
            &[],
            &[AlphaKind::Stored, AlphaKind::Stored],
        );
        // band-only rule: no equi access path to refine with, and neither
        // side has a selective predicate → both memories go virtual
        check(
            "dept.dno < emp.sal and emp.sal <= dept.floor",
            &[("dept", "dept"), ("emp", "emp")],
            &[AlphaKind::Virtual, AlphaKind::Virtual],
        );
    }
}
