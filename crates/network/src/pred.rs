//! Selection-predicate decomposition for the top-level network (§4.1).
//!
//! A rule variable's selection predicate (the conjunction of the rule
//! condition's single-variable conjuncts on that variable) is split into an
//! **anchor** — one attribute's worth of `attr cmp constant` comparisons,
//! intersected into a single interval suitable for the interval skip list —
//! and a **residual** evaluated only on tokens whose anchor matched.

use ariel_islist::Interval;
use ariel_query::{eval, eval_pred, BinOp, QueryResult, RExpr, Row, SingleEnv};
use ariel_storage::{Relation, Tid, Tuple, Value};
use std::ops::Bound;

/// Decomposed single-variable selection predicate (variable remapped to 0).
#[derive(Debug, Clone)]
pub struct SelectionPredicate {
    /// Indexable part: attribute position and the interval its value must
    /// fall in. `None` when no conjunct is anchorable (then `residual` is
    /// the whole predicate).
    pub anchor: Option<(usize, Interval<Value>)>,
    /// Remaining conjuncts (possibly referencing `previous` values).
    pub residual: Option<RExpr>,
    /// True when the anchor conjuncts were contradictory (e.g. `a > 5 and
    /// a < 3`): the predicate can never match.
    pub unsatisfiable: bool,
}

impl SelectionPredicate {
    /// The always-true predicate (a bare `new(var)` or an unconstrained
    /// variable).
    pub fn always_true() -> Self {
        SelectionPredicate {
            anchor: None,
            residual: None,
            unsatisfiable: false,
        }
    }

    /// Decompose the conjunction `conjuncts` (each over variable 0 only).
    pub fn decompose(conjuncts: Vec<RExpr>) -> Self {
        // Gather candidate `attr cmp const` comparisons grouped by attr.
        let mut sargs: Vec<(usize, usize, BinOp, Value)> = Vec::new(); // (conjunct idx, attr, op, val)
        for (i, c) in conjuncts.iter().enumerate() {
            if let Some((attr, op, val)) = as_sarg(c) {
                sargs.push((i, attr, op, val));
            }
        }
        if sargs.is_empty() {
            return SelectionPredicate {
                anchor: None,
                residual: RExpr::conjoin(conjuncts),
                unsatisfiable: false,
            };
        }
        // Anchor on the attribute with the most sargs (ties: lowest attr).
        let mut counts: Vec<(usize, usize)> = Vec::new();
        for (_, attr, _, _) in &sargs {
            match counts.iter_mut().find(|(a, _)| a == attr) {
                Some((_, n)) => *n += 1,
                None => counts.push((*attr, 1)),
            }
        }
        counts.sort_by_key(|&(a, n)| (std::cmp::Reverse(n), a));
        let anchor_attr = counts[0].0;

        let mut lo: Bound<Value> = Bound::Unbounded;
        let mut hi: Bound<Value> = Bound::Unbounded;
        let mut used = Vec::new();
        for (i, attr, op, val) in &sargs {
            if *attr != anchor_attr {
                continue;
            }
            match op {
                BinOp::Eq => {
                    lo = tighter_lo(lo, Bound::Included(val.clone()));
                    hi = tighter_hi(hi, Bound::Included(val.clone()));
                }
                BinOp::Gt => lo = tighter_lo(lo, Bound::Excluded(val.clone())),
                BinOp::Ge => lo = tighter_lo(lo, Bound::Included(val.clone())),
                BinOp::Lt => hi = tighter_hi(hi, Bound::Excluded(val.clone())),
                BinOp::Le => hi = tighter_hi(hi, Bound::Included(val.clone())),
                _ => continue,
            }
            used.push(*i);
        }
        let residual = RExpr::conjoin(
            conjuncts
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !used.contains(i))
                .map(|(_, c)| c)
                .collect(),
        );
        match Interval::new(lo, hi) {
            Some(interval) => SelectionPredicate {
                anchor: Some((anchor_attr, interval)),
                residual,
                unsatisfiable: false,
            },
            None => SelectionPredicate {
                anchor: None,
                residual,
                unsatisfiable: true,
            },
        }
    }

    /// Whether `(tuple, prev)` satisfies the predicate: the anchor, then
    /// the residual. A null never passes an anchor, as it never reaches
    /// one in the selection network. An error evaluating the residual is
    /// the caller's: the token path reads it as "no match", activation
    /// fails with it.
    pub fn matches(&self, tuple: &Tuple, prev: Option<&Tuple>) -> QueryResult<bool> {
        if self.unsatisfiable {
            return Ok(false);
        }
        if let Some((attr, iv)) = &self.anchor {
            let v = tuple.get(*attr);
            if v.is_null() || !iv.contains(v) {
                return Ok(false);
            }
        }
        match &self.residual {
            None => Ok(true),
            Some(r) => eval_pred(r, &SingleEnv { tuple, prev }),
        }
    }

    /// Hand `f` each tuple of `rel` that satisfies the predicate (with no
    /// previous value): the one enumeration of "the tuples of a relation
    /// passing an α predicate". When `rel` indexes the anchor attribute
    /// the index is probed — for the anchor's one value, or for its range
    /// on a B-tree — and otherwise every tuple is tested. The first error,
    /// the predicate's or `f`'s, stops the enumeration.
    pub fn each_match(
        &self,
        rel: &Relation,
        f: impl FnMut(Tid, &Tuple) -> QueryResult<()>,
    ) -> QueryResult<()> {
        if self.unsatisfiable {
            return Ok(());
        }
        if let Some((attr, iv)) = &self.anchor {
            if let Some(ix) = rel.index_on(*attr) {
                if let (Bound::Included(lo), Bound::Included(hi)) = (iv.lo(), iv.hi()) {
                    if lo == hi {
                        let hits = rel.probe_eq(*attr, lo).expect("an index on the attribute");
                        return self.each_of(hits, f);
                    }
                }
                if ix.supports_range() {
                    let hits = rel
                        .probe_range(*attr, iv.lo().as_ref(), iv.hi().as_ref())
                        .expect("a B-tree on the attribute");
                    return self.each_of(hits, f);
                }
            }
        }
        self.each_of(rel.scan(), f)
    }

    /// [`Self::each_match`] over the candidates `hits`.
    fn each_of<'r>(
        &self,
        hits: impl Iterator<Item = (Tid, &'r Tuple)>,
        mut f: impl FnMut(Tid, &Tuple) -> QueryResult<()>,
    ) -> QueryResult<()> {
        for (tid, t) in hits {
            if self.matches(t, None)? {
                f(tid, t)?;
            }
        }
        Ok(())
    }
}

fn tighter_lo(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match y.total_cmp(x) {
                std::cmp::Ordering::Greater => b,
                std::cmp::Ordering::Less => a,
                std::cmp::Ordering::Equal => {
                    if matches!(b, Bound::Excluded(_)) {
                        b
                    } else {
                        a
                    }
                }
            }
        }
    }
}

fn tighter_hi(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match y.total_cmp(x) {
                std::cmp::Ordering::Less => b,
                std::cmp::Ordering::Greater => a,
                std::cmp::Ordering::Equal => {
                    if matches!(b, Bound::Excluded(_)) {
                        b
                    } else {
                        a
                    }
                }
            }
        }
    }
}

/// Recognize `attr cmp constant` (constants may be constant-foldable
/// expressions); `previous` references never anchor.
fn as_sarg(c: &RExpr) -> Option<(usize, BinOp, Value)> {
    let RExpr::Binary { op, left, right } = c else {
        return None;
    };
    if !op.is_comparison() || *op == BinOp::Ne {
        return None;
    }
    if let RExpr::Attr { var: 0, attr } = **left {
        if let Some(v) = fold(right) {
            return Some((attr, *op, v));
        }
    }
    if let RExpr::Attr { var: 0, attr } = **right {
        if let Some(v) = fold(left) {
            return Some((attr, op.flip(), v));
        }
    }
    None
}

fn fold(e: &RExpr) -> Option<Value> {
    if !e.vars_used().is_empty() {
        return None;
    }
    let r: QueryResult<Value> = eval(e, &Row::unbound(0));
    r.ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(a: usize) -> RExpr {
        RExpr::Attr { var: 0, attr: a }
    }

    fn lit(v: impl Into<Value>) -> RExpr {
        RExpr::Const(v.into())
    }

    fn bin(op: BinOp, l: RExpr, r: RExpr) -> RExpr {
        RExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn paper_band_predicate_becomes_interval() {
        // C1 < sal <= C2 — the paper's canonical shape
        let p = SelectionPredicate::decompose(vec![
            bin(BinOp::Gt, attr(1), lit(30_000i64)),
            bin(BinOp::Le, attr(1), lit(40_000i64)),
        ]);
        let (a, iv) = p.anchor.as_ref().unwrap();
        assert_eq!(*a, 1);
        assert!(!iv.contains(&Value::Int(30_000)));
        assert!(iv.contains(&Value::Int(30_001)));
        assert!(iv.contains(&Value::Int(40_000)));
        assert!(!iv.contains(&Value::Int(40_001)));
        assert!(p.residual.is_none());
        assert!(!p.unsatisfiable);
    }

    #[test]
    fn equality_becomes_point() {
        let p = SelectionPredicate::decompose(vec![bin(BinOp::Eq, attr(0), lit("Sales"))]);
        let (_, iv) = p.anchor.as_ref().unwrap();
        assert!(iv.contains(&Value::from("Sales")));
        assert!(!iv.contains(&Value::from("Toy")));
    }

    #[test]
    fn flipped_comparison_normalized() {
        // 30000 < sal  ≡  sal > 30000
        let p = SelectionPredicate::decompose(vec![bin(BinOp::Lt, lit(30_000i64), attr(1))]);
        let (a, iv) = p.anchor.as_ref().unwrap();
        assert_eq!(*a, 1);
        assert!(!iv.contains(&Value::Int(30_000)));
        assert!(iv.contains(&Value::Int(30_001)));
    }

    #[test]
    fn residual_keeps_non_anchor_conjuncts() {
        let p = SelectionPredicate::decompose(vec![
            bin(BinOp::Gt, attr(1), lit(10i64)),
            bin(BinOp::Ne, attr(0), lit("x")),  // != can't anchor
            bin(BinOp::Eq, attr(2), lit(5i64)), // different attr: attr 1 wins? no...
        ]);
        // attr 1 and attr 2 both have one sarg; lowest attr wins ties → 1
        let (a, _) = p.anchor.as_ref().unwrap();
        assert_eq!(*a, 1);
        assert!(p.residual.is_some());
        let resid = p.residual.unwrap().conjuncts();
        assert_eq!(resid.len(), 2);
    }

    #[test]
    fn anchor_prefers_most_constrained_attr() {
        let p = SelectionPredicate::decompose(vec![
            bin(BinOp::Eq, attr(0), lit("x")),
            bin(BinOp::Gt, attr(3), lit(1i64)),
            bin(BinOp::Le, attr(3), lit(9i64)),
        ]);
        let (a, _) = p.anchor.as_ref().unwrap();
        assert_eq!(*a, 3);
    }

    #[test]
    fn contradictory_anchor_is_unsatisfiable() {
        let p = SelectionPredicate::decompose(vec![
            bin(BinOp::Gt, attr(0), lit(10i64)),
            bin(BinOp::Lt, attr(0), lit(5i64)),
        ]);
        assert!(p.unsatisfiable);
        assert!(p.anchor.is_none());
    }

    #[test]
    fn previous_refs_do_not_anchor() {
        let prev = RExpr::Prev { var: 0, attr: 1 };
        let p = SelectionPredicate::decompose(vec![bin(BinOp::Gt, attr(1), prev)]);
        assert!(p.anchor.is_none());
        assert!(p.residual.is_some());
    }

    #[test]
    fn constant_folding_in_sargs() {
        // sal > 1000 * 30
        let p = SelectionPredicate::decompose(vec![bin(
            BinOp::Gt,
            attr(1),
            bin(BinOp::Mul, lit(1000i64), lit(30i64)),
        )]);
        let (_, iv) = p.anchor.as_ref().unwrap();
        assert!(iv.contains(&Value::Int(30_001)));
        assert!(!iv.contains(&Value::Int(30_000)));
    }

    #[test]
    fn empty_predicate_always_true() {
        let p = SelectionPredicate::decompose(vec![]);
        assert!(p.anchor.is_none() && p.residual.is_none() && !p.unsatisfiable);
    }

    /// `each_match` finds exactly the tuples a test of every tuple finds,
    /// whether it probes a hash index, probes a B-tree or scans, with a
    /// null in the anchor attribute passing no anchor; and an error
    /// evaluating the residual stops it.
    #[test]
    fn each_match_equals_testing_every_tuple() {
        use ariel_storage::{AttrType, IndexKind, Schema};
        let preds = || {
            let c = |op, v: i64| bin(op, attr(0), lit(v));
            vec![
                vec![c(BinOp::Eq, 7)],
                vec![c(BinOp::Gt, 3), c(BinOp::Le, 9)],
                vec![c(BinOp::Lt, 5)],
                vec![c(BinOp::Ge, 12)],
                vec![c(BinOp::Eq, 7), bin(BinOp::Gt, attr(1), lit(100i64))],
                vec![c(BinOp::Gt, 5), c(BinOp::Lt, 3)],
                vec![bin(BinOp::Ne, attr(0), lit(4i64))],
            ]
        };
        for kind in [None, Some(IndexKind::Hash), Some(IndexKind::BTree)] {
            let schema = Schema::of(&[("a", AttrType::Int), ("b", AttrType::Int)]);
            let mut rel = Relation::new("r", schema);
            if let Some(kind) = kind {
                rel.create_index("a", kind).unwrap();
            }
            for i in 0..200i64 {
                let a = if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 20)
                };
                rel.insert(vec![a, Value::Int(i)]).unwrap();
            }
            for conjuncts in preds() {
                let p = SelectionPredicate::decompose(conjuncts);
                let mut got = Vec::new();
                p.each_match(&rel, |tid, _| {
                    got.push(tid);
                    Ok(())
                })
                .unwrap();
                got.sort();
                let want: Vec<Tid> = rel
                    .scan()
                    .filter(|(_, t)| p.matches(t, None).unwrap())
                    .map(|(tid, _)| tid)
                    .collect();
                assert_eq!(got, want, "{p:?} over {kind:?}");
                assert!(want
                    .iter()
                    .all(|tid| p.anchor.is_none() || !rel.get(*tid).unwrap().get(0).is_null()));
            }
            // 10 / (b - 3) fails on the row with b = 3, which passes the
            // anchor
            let p = SelectionPredicate::decompose(vec![
                bin(BinOp::Lt, attr(0), lit(5i64)),
                bin(
                    BinOp::Gt,
                    bin(BinOp::Div, lit(10i64), bin(BinOp::Sub, attr(1), lit(3i64))),
                    lit(0i64),
                ),
            ]);
            assert!(p.each_match(&rel, |_, _| Ok(())).is_err(), "{kind:?}");
        }
    }
}
