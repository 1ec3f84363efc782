//! Conflict resolution (Fig. 1): select one rule to fire from the set of
//! eligible rules — highest priority, ties broken by most recent match,
//! then by rule name (OPS5-style recency).
//!
//! The engine presents the candidates straight off the network's conflict
//! set, each borrowed from its per-rule record: picking the next firing
//! allocates nothing and clones nothing but the winner's name.

use ariel_network::RuleId;
use std::sync::Arc;

/// One eligible rule instantiation set presented to conflict resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eligible<'a> {
    /// Network identifier of the rule.
    pub id: RuleId,
    /// Rule name (final tie-break), borrowed from the engine's per-rule
    /// record.
    pub name: &'a Arc<str>,
    /// Rule priority (higher fires first).
    pub priority: f64,
    /// Recency: tick of the last transition that added an instantiation to
    /// this rule's P-node.
    pub last_matched: u64,
}

/// Pick the next rule to fire, or `None` when the agenda is empty:
/// highest priority, then most recent match, then lowest name.
pub fn select<'a>(eligible: impl IntoIterator<Item = Eligible<'a>>) -> Option<Eligible<'a>> {
    eligible.into_iter().max_by(|a, b| {
        a.priority
            .total_cmp(&b.priority)
            .then_with(|| a.last_matched.cmp(&b.last_matched))
            // name ascending → max_by wants "greater wins", so reverse
            .then_with(|| b.name.cmp(a.name))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Candidates `(id, name, priority, last_matched)`, presented the way
    /// the engine presents its records: by reference.
    fn select_from(rules: &[(u64, &str, f64, u64)]) -> Option<u64> {
        let names: Vec<Arc<str>> = rules.iter().map(|r| r.1.into()).collect();
        let eligible = rules.iter().zip(&names).map(|(r, name)| Eligible {
            id: RuleId(r.0),
            name,
            priority: r.2,
            last_matched: r.3,
        });
        select(eligible).map(|e| e.id.0)
    }

    #[test]
    fn empty_agenda() {
        assert!(select_from(&[]).is_none());
    }

    #[test]
    fn highest_priority_wins() {
        let rules = [(1, "a", 1.0, 5), (2, "b", 10.0, 0), (3, "c", -3.0, 9)];
        assert_eq!(select_from(&rules), Some(2));
    }

    #[test]
    fn recency_breaks_priority_ties() {
        let rules = [(1, "a", 1.0, 3), (2, "b", 1.0, 7)];
        assert_eq!(select_from(&rules), Some(2));
    }

    #[test]
    fn name_breaks_remaining_ties() {
        let rules = [(1, "zeta", 1.0, 7), (2, "alpha", 1.0, 7)];
        assert_eq!(select_from(&rules), Some(2), "alpha");
        // the order of presentation does not matter
        let rules = [(2, "alpha", 1.0, 7), (1, "zeta", 1.0, 7)];
        assert_eq!(select_from(&rules), Some(2));
    }

    #[test]
    fn negative_priorities() {
        let rules = [(1, "a", -1.0, 0), (2, "b", -2.0, 0)];
        assert_eq!(select_from(&rules), Some(1));
    }
}
