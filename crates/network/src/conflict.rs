//! The conflict set: which rules currently have a non-empty P-node.
//!
//! The A-TREAT network owns one [`ConflictSet`] and calls
//! [`ConflictSet::sync`] at every site that changes a P-node's rows (push,
//! retract, drain, clear, wholesale replace, rule removal), so the engine's
//! recognize-act cycle walks the eligible rules in `O(matched)`, without
//! collecting them, instead of scanning every installed rule. The set is ordered by rule id, which
//! keeps the choice among otherwise equal rules deterministic.
//!
//! It also carries the per-batch `gained` list: rules that received at
//! least one instantiation since the engine last took it. The engine stamps
//! conflict-resolution recency from that list — *recency of a rule is the
//! tick of the last transition that added an instantiation to its P-node* —
//! so no P-node size needs remembering between transitions.

use crate::alpha::RuleId;
use ariel_query::Pnode;
use std::collections::BTreeSet;

/// Id-ordered set of rules with pending instantiations, plus the rules
/// that gained one since [`ConflictSet::drain_gained`].
#[derive(Debug, Default)]
pub(crate) struct ConflictSet {
    nonempty: BTreeSet<u64>,
    gained: Vec<RuleId>,
}

impl ConflictSet {
    /// Bring `id`'s membership in line with its P-node. Call after any
    /// change to the P-node's rows.
    pub(crate) fn sync(&mut self, id: RuleId, pnode: &Pnode) {
        if pnode.is_empty() {
            self.nonempty.remove(&id.0);
        } else {
            self.nonempty.insert(id.0);
        }
    }

    /// [`Self::sync`] after a transition's token pushed instantiations
    /// into `id`'s P-node: the rule also enters the `gained` list.
    pub(crate) fn pushed(&mut self, id: RuleId, pnode: &Pnode) {
        self.sync(id, pnode);
        // one token's pushes to a rule are consecutive; duplicates across
        // tokens are harmless (stamping is idempotent)
        if self.gained.last() != Some(&id) {
            self.gained.push(id);
        }
    }

    /// Forget a removed rule.
    pub(crate) fn remove(&mut self, id: RuleId) {
        self.nonempty.remove(&id.0);
        self.gained.retain(|g| *g != id);
    }

    /// Rules with a non-empty P-node, ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = RuleId> + '_ {
        self.nonempty.iter().map(|id| RuleId(*id))
    }

    /// Hand `f` the rules that gained an instantiation since the last
    /// call, emptying the list.
    pub(crate) fn drain_gained(&mut self, f: impl FnMut(RuleId)) {
        self.gained.drain(..).for_each(f)
    }

    /// Debug check: the maintained set equals a brute-force scan.
    pub(crate) fn debug_check<'a>(&self, pnodes: impl Iterator<Item = (u64, &'a Pnode)>) {
        if cfg!(debug_assertions) {
            let scanned: BTreeSet<u64> = pnodes
                .filter(|(_, p)| !p.is_empty())
                .map(|(id, _)| id)
                .collect();
            assert_eq!(
                self.nonempty, scanned,
                "conflict set diverged from the P-nodes"
            );
        }
    }
}
