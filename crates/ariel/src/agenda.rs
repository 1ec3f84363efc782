//! Conflict resolution (Fig. 1): select one rule to fire from the set of
//! eligible rules.

use ariel_network::RuleId;
use std::sync::Arc;

/// Conflict-resolution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictStrategy {
    /// Highest priority; ties broken by most recent match, then rule name
    /// (OPS5-style recency).
    #[default]
    PriorityRecency,
    /// Highest priority; ties broken by rule name only (fully
    /// deterministic regardless of match history).
    PriorityName,
}

/// One eligible rule instantiation set presented to conflict resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct Eligible {
    /// Network identifier of the rule.
    pub id: RuleId,
    /// Rule name (final tie-break), shared with the engine's per-rule
    /// record.
    pub name: Arc<str>,
    /// Rule priority (higher fires first).
    pub priority: f64,
    /// Recency: tick of the last transition that added an instantiation to
    /// this rule's P-node.
    pub last_matched: u64,
}

/// Pick the next rule to fire, or `None` when the agenda is empty.
pub fn select(strategy: ConflictStrategy, eligible: &[Eligible]) -> Option<&Eligible> {
    eligible.iter().max_by(|a, b| {
        let prio = a.priority.total_cmp(&b.priority);
        if prio != std::cmp::Ordering::Equal {
            return prio;
        }
        match strategy {
            ConflictStrategy::PriorityRecency => {
                let rec = a.last_matched.cmp(&b.last_matched);
                if rec != std::cmp::Ordering::Equal {
                    return rec;
                }
            }
            ConflictStrategy::PriorityName => {}
        }
        // name ascending → max_by wants "greater wins", so reverse
        b.name.cmp(&a.name)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u64, name: &str, priority: f64, last: u64) -> Eligible {
        Eligible {
            id: RuleId(id),
            name: name.into(),
            priority,
            last_matched: last,
        }
    }

    #[test]
    fn empty_agenda() {
        assert!(select(ConflictStrategy::default(), &[]).is_none());
    }

    #[test]
    fn highest_priority_wins() {
        let rules = vec![e(1, "a", 1.0, 5), e(2, "b", 10.0, 0), e(3, "c", -3.0, 9)];
        assert_eq!(
            select(ConflictStrategy::default(), &rules).unwrap().id,
            RuleId(2)
        );
    }

    #[test]
    fn recency_breaks_priority_ties() {
        let rules = vec![e(1, "a", 1.0, 3), e(2, "b", 1.0, 7)];
        assert_eq!(
            select(ConflictStrategy::PriorityRecency, &rules)
                .unwrap()
                .id,
            RuleId(2)
        );
    }

    #[test]
    fn name_breaks_remaining_ties() {
        let rules = vec![e(1, "zeta", 1.0, 7), e(2, "alpha", 1.0, 7)];
        assert_eq!(
            select(ConflictStrategy::PriorityRecency, &rules)
                .unwrap()
                .name
                .as_ref(),
            "alpha"
        );
        let rules = vec![e(1, "zeta", 1.0, 3), e(2, "alpha", 1.0, 7)];
        assert_eq!(
            select(ConflictStrategy::PriorityName, &rules)
                .unwrap()
                .name
                .as_ref(),
            "alpha",
            "PriorityName ignores recency"
        );
    }

    #[test]
    fn negative_priorities() {
        let rules = vec![e(1, "a", -1.0, 0), e(2, "b", -2.0, 0)];
        assert_eq!(
            select(ConflictStrategy::default(), &rules).unwrap().id,
            RuleId(1)
        );
    }
}
