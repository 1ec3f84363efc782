//! # ariel-islist
//!
//! The **interval skip list** (Hanson, *The interval skip list: a data
//! structure for finding all intervals that overlap a point*, WADS 1991),
//! plus two comparison baselines: a naive linear-scan set and a
//! treap-balanced augmented [`IntervalTree`] (stand-in for the IBS tree the
//! paper cites).
//!
//! Ariel's top-level discrimination network stores one interval per rule
//! selection predicate, keyed on the constrained attribute; a token's
//! attribute value is then *stabbed* through the index to find every rule
//! predicate it satisfies in O(log n + answers) expected time — regardless
//! of whether the relation has any index on that attribute (§4.1 of the
//! SIGMOD '92 Ariel paper).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod interval;
pub mod naive;
pub mod skiplist;
pub mod stats;
pub mod tree;

pub use interval::Interval;
pub use naive::NaiveIntervalSet;
pub use skiplist::{IntervalId, IntervalSkipList};
pub use stats::{
    json_escape, Counter, Family, Histogram, Kind, Metrics, Place, StabStats, Value,
    HISTOGRAM_BUCKETS,
};
pub use tree::IntervalTree;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::ops::Bound;

    #[derive(Debug, Clone)]
    enum Op {
        Insert { lo: i64, len: i64, kind: u8 },
        Remove(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (-50i64..50, 0i64..40, 0u8..6).prop_map(|(lo, len, kind)| Op::Insert { lo, len, kind }),
            1 => (0usize..64).prop_map(Op::Remove),
        ]
    }

    fn make_interval(lo: i64, len: i64, kind: u8) -> Option<Interval<i64>> {
        match kind {
            0 => Interval::closed(lo, lo + len),
            1 => Interval::open_closed(lo, lo + len),
            2 => Interval::new(Bound::Included(lo), Bound::Excluded(lo + len)),
            3 => Some(Interval::point(lo)),
            4 => Some(Interval::at_least(lo, len % 2 == 0)),
            _ => Some(Interval::at_most(lo, len % 2 == 0)),
        }
    }

    proptest! {
        /// The skip list and the naive set agree on every stab point after
        /// any interleaving of inserts and removes.
        #[test]
        fn skiplist_matches_naive(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let mut isl = IntervalSkipList::new();
            let mut naive = NaiveIntervalSet::new();
            // id pairing: isl id -> naive id
            let mut live: Vec<(IntervalId, IntervalId)> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert { lo, len, kind } => {
                        if let Some(iv) = make_interval(lo, len, kind) {
                            let a = isl.insert(iv.clone());
                            let b = naive.insert(iv);
                            live.push((a, b));
                        }
                    }
                    Op::Remove(k) => {
                        if !live.is_empty() {
                            let (a, b) = live.swap_remove(k % live.len());
                            prop_assert!(isl.remove(a).is_some());
                            prop_assert!(naive.remove(b).is_some());
                        }
                    }
                }
                isl.check_invariants().map_err(TestCaseError::fail)?;
            }
            let id_map: std::collections::HashMap<IntervalId, IntervalId> =
                live.iter().copied().collect();
            for x in -60..=100 {
                let mut got: Vec<IntervalId> =
                    isl.stab(&x).into_iter().map(|a| id_map[&a]).collect();
                got.sort();
                let mut want = naive.stab(&x);
                want.sort();
                prop_assert_eq!(&got, &want, "stab({}) mismatch", x);
            }
        }

        /// Stabbing an endpoint respects open/closed semantics exactly.
        #[test]
        fn endpoint_semantics(lo in -100i64..100, len in 1i64..50) {
            let mut isl = IntervalSkipList::new();
            let closed = isl.insert(Interval::closed(lo, lo + len).unwrap());
            let oc = isl.insert(Interval::open_closed(lo, lo + len).unwrap());
            let hits_lo = isl.stab(&lo);
            prop_assert!(hits_lo.contains(&closed));
            prop_assert!(!hits_lo.contains(&oc));
            let hits_hi = isl.stab(&(lo + len));
            prop_assert!(hits_hi.contains(&closed));
            prop_assert!(hits_hi.contains(&oc));
        }
    }
}
