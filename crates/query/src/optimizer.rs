//! Cost-based query optimizer.
//!
//! System-R-in-miniature, following the paper's architecture (§3, §5.2):
//! conjunct classification, index-aware access-path selection, greedy join
//! ordering from cardinality estimates, and the rule-action special case —
//! when variables bind to the P-node, a single `PnodeScan` is always
//! generated for them and placed leftmost in the join tree.
//!
//! Planning reads the qualification in place: conjuncts are visited where
//! they sit in the `and` tree, and variable sets are bitmasks, so a plan
//! costs the allocations of what it owns (its relation names and the
//! predicates it copies) and no more.

use crate::ast::BinOp;
use crate::binding::{Pnode, Row};
use crate::error::{QueryError, QueryResult};
use crate::expr::eval;
use crate::plan::{IndexKey, Plan};
use crate::semantic::{QuerySpec, RExpr, VarSource};
use ariel_storage::{Catalog, Value};
use std::ops::Bound;
use std::ptr;

/// Default selectivity guesses (no histograms in 1992, none here either).
const SEL_EQ: f64 = 0.1;
const SEL_RANGE: f64 = 0.3;
const SEL_OTHER: f64 = 0.5;
/// Minimum input size before a sort-merge join beats nested loops.
const SORT_MERGE_THRESHOLD: f64 = 64.0;

/// A set of variable indices, one bit each.
type VarSet = u64;

/// Tuple variables one command may bind: one bit each in a [`VarSet`].
const MAX_VARS: usize = VarSet::BITS as usize;

const fn bit(var: usize) -> VarSet {
    1 << var
}

/// The members of `set`, ascending.
fn members(set: VarSet) -> impl Iterator<Item = usize> {
    (0..MAX_VARS).filter(move |&v| set & bit(v) != 0)
}

/// The variables `e` reads.
fn vars_of(e: &RExpr) -> VarSet {
    match e {
        RExpr::Const(_) | RExpr::AlwaysTrue => 0,
        RExpr::Attr { var, .. } | RExpr::Prev { var, .. } => bit(*var),
        RExpr::Unary { expr, .. } => vars_of(expr),
        RExpr::Binary { left, right, .. } => vars_of(left) | vars_of(right),
    }
}

/// Visit the conjuncts of `qual` left to right, where they sit.
fn each_conjunct<'e>(qual: Option<&'e RExpr>, f: &mut impl FnMut(&'e RExpr)) {
    match qual {
        Some(RExpr::Binary {
            op: BinOp::And,
            left,
            right,
        }) => {
            each_conjunct(Some(left), f);
            each_conjunct(Some(right), f);
        }
        Some(c) => f(c),
        None => {}
    }
}

/// The first conjunct of `qual` that `f` maps to something.
fn find_conjunct<'e, T>(
    qual: Option<&'e RExpr>,
    mut f: impl FnMut(&'e RExpr) -> Option<T>,
) -> Option<T> {
    let mut found = None;
    each_conjunct(qual, &mut |c| {
        if found.is_none() {
            found = f(c);
        }
    });
    found
}

/// Append a copy of `c` to the left-deep conjunction `acc`.
fn push_conjunct(acc: &mut Option<RExpr>, c: &RExpr) {
    *acc = Some(match acc.take() {
        None => c.clone(),
        Some(a) => RExpr::Binary {
            op: BinOp::And,
            left: Box::new(a),
            right: Box::new(c.clone()),
        },
    });
}

/// Copies of the conjuncts of `qual` that `keep` admits, conjoined in order.
fn conjoin_where(qual: Option<&RExpr>, mut keep: impl FnMut(&RExpr) -> bool) -> Option<RExpr> {
    let mut out = None;
    each_conjunct(qual, &mut |c| {
        if keep(c) {
            push_conjunct(&mut out, c);
        }
    });
    out
}

/// Whether `c` — a conjunct over several variables, or a constant one over
/// none — enters the plan at the step that binds `bound`. It enters at the
/// first step binding all its variables; `taken` is the bound set of the
/// last step that pulled such conjuncts in.
fn enters_at(c: &RExpr, bound: VarSet, taken: Option<VarSet>) -> bool {
    let vars = vars_of(c);
    vars.count_ones() != 1 && vars & !bound == 0 && !taken.is_some_and(|t| vars & !t == 0)
}

/// The query optimizer. Holds the catalog (for relation sizes and index
/// availability, consulted fresh on every call) and the P-node when
/// planning rule-action commands. A rule action is planned once and
/// re-planned only when the indexes or sizes it read have moved; the
/// engine's `action` module keeps that stamp.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    pnode: Option<&'a Pnode>,
}

/// A sargable single-variable comparison: `attr cmp constant`.
#[derive(Debug, Clone)]
struct Sarg {
    attr: usize,
    op: BinOp,
    value: Value,
}

impl<'a> Optimizer<'a> {
    /// Optimizer for top-level commands.
    pub fn new(catalog: &'a Catalog) -> Self {
        Optimizer {
            catalog,
            pnode: None,
        }
    }

    /// Optimizer for rule-action commands over `pnode`.
    pub fn with_pnode(catalog: &'a Catalog, pnode: &'a Pnode) -> Self {
        Optimizer {
            catalog,
            pnode: Some(pnode),
        }
    }

    /// Produce a physical plan binding every variable of `spec`.
    /// `spec.vars` must be non-empty (variable-free commands need no plan)
    /// and at most 64 long.
    pub fn plan(&self, spec: &QuerySpec) -> QueryResult<Plan> {
        let nvars = spec.vars.len();
        if nvars == 0 {
            return Err(QueryError::Plan("no variables to bind".into()));
        }
        if nvars > MAX_VARS {
            return Err(QueryError::Plan(format!(
                "a command binds at most {MAX_VARS} tuple variables, not {nvars}"
            )));
        }
        let qual = spec.qual.as_ref();
        let all = VarSet::MAX >> (MAX_VARS - nvars);
        // Units: the P-node variables as one unit, each relation var alone.
        let pnode_vars = members(all)
            .filter(|&v| matches!(spec.vars[v].source, VarSource::Pnode { .. }))
            .fold(0, |set, v| set | bit(v));
        // A conjunct over one variable is a selection of it; the others
        // enter the plan as `enters_at` says.
        let mut taken = None;
        let mut bound: VarSet = 0;
        let mut plan: Option<Plan> = None;

        // Rule-action plans always start with the PnodeScan (§5.2).
        if pnode_vars != 0 {
            if self.pnode.is_none() {
                return Err(QueryError::Plan(
                    "P-node variables without a P-node context".into(),
                ));
            }
            let binds = members(pnode_vars)
                .filter_map(|v| match spec.vars[v].source {
                    VarSource::Pnode { col } => Some((v, col)),
                    VarSource::Relation => None,
                })
                .collect();
            let mut filter = None;
            for v in members(pnode_vars) {
                each_conjunct(qual, &mut |c| {
                    if vars_of(c) == bit(v) {
                        push_conjunct(&mut filter, c);
                    }
                });
            }
            // also multi-var conjuncts fully inside the pnode unit
            each_conjunct(qual, &mut |c| {
                if enters_at(c, pnode_vars, None) {
                    push_conjunct(&mut filter, c);
                }
            });
            bound = pnode_vars;
            taken = Some(bound);
            plan = Some(Plan::PnodeScan { binds, filter });
        }

        // Remaining relation variables, greedily.
        let mut remaining = all & !pnode_vars;
        while remaining != 0 {
            // first unit: cheapest access path; later, prefer a variable
            // connected to the bound set by an equi-join edge, otherwise
            // cheapest (cartesian).
            let connected = members(remaining)
                .filter(|&v| plan.is_some() && Self::connected(qual, v, bound))
                .fold(0, |set, v| set | bit(v));
            let pool = if connected != 0 { connected } else { remaining };
            let pick = members(pool)
                .min_by(|&a, &b| self.estimate(spec, a).total_cmp(&self.estimate(spec, b)))
                .expect("a non-empty pool");
            remaining &= !bit(pick);
            plan = Some(match plan {
                None => self.access_path(spec, pick)?,
                Some(left) => {
                    let now = bound | bit(pick);
                    let joined =
                        self.join(spec, left, pick, bound, |c| enters_at(c, now, taken))?;
                    taken = Some(now);
                    joined
                }
            });
            bound |= bit(pick);
        }

        let mut plan = plan.expect("at least one variable");
        // Anything left (constant predicates, or conjuncts that only became
        // applicable now) goes in a top filter.
        if let Some(pred) = conjoin_where(qual, |c| enters_at(c, all, taken)) {
            plan = Plan::Filter {
                input: Box::new(plan),
                pred,
            };
        }
        Ok(plan)
    }

    /// Whether a join conjunct over `v` and the `bound` variables is an
    /// equi-join edge from them to `v`.
    fn connected(qual: Option<&RExpr>, v: usize, bound: VarSet) -> bool {
        find_conjunct(qual, |c| {
            let vars = vars_of(c);
            let joins =
                vars.count_ones() > 1 && vars & bit(v) != 0 && vars & !(bound | bit(v)) == 0;
            joins.then(|| Self::equi_edge(c, v, bound))?
        })
        .is_some()
    }

    /// If `c` is `newvar.attr = <expr over bound vars>` (either side),
    /// return `(attr_of_newvar, other_side_expr)`.
    fn equi_edge(c: &RExpr, newvar: usize, bound: VarSet) -> Option<(usize, &RExpr)> {
        let RExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        else {
            return None;
        };
        let over_bound = |e: &RExpr| vars_of(e) & !bound == 0;
        if let RExpr::Attr { var, attr } = **left {
            if var == newvar && over_bound(right) {
                return Some((attr, right));
            }
        }
        if let RExpr::Attr { var, attr } = **right {
            if var == newvar && over_bound(left) {
                return Some((attr, left));
            }
        }
        None
    }

    /// Constant-fold an expression with no variable references.
    fn fold_const(e: &RExpr) -> Option<Value> {
        if vars_of(e) != 0 {
            return None;
        }
        eval(e, &Row::unbound(0)).ok()
    }

    /// `c` as a sargable `var.attr cmp constant`, if it is one.
    fn sarg(c: &RExpr, var: usize) -> Option<Sarg> {
        let RExpr::Binary { op, left, right } = c else {
            return None;
        };
        if !op.is_comparison() || *op == BinOp::Ne {
            return None;
        }
        if let RExpr::Attr { var: v, attr } = **left {
            if v == var {
                if let Some(value) = Self::fold_const(right) {
                    return Some(Sarg {
                        attr,
                        op: *op,
                        value,
                    });
                }
            }
        }
        if let RExpr::Attr { var: v, attr } = **right {
            if v == var {
                return Self::fold_const(left).map(|value| Sarg {
                    attr,
                    op: op.flip(),
                    value,
                });
            }
        }
        None
    }

    /// Build the access path for a relation variable, over its selections.
    fn access_path(&self, spec: &QuerySpec, var: usize) -> QueryResult<Plan> {
        let qual = spec.qual.as_ref();
        let rel_name = &spec.vars[var].rel;
        let rel = self.catalog.require(rel_name)?;
        let sel = |c: &RExpr| vars_of(c) == bit(var);
        let sarg = |c: &RExpr| sel(c).then(|| Self::sarg(c, var)).flatten();

        // Equality probe first (most selective).
        let probe = find_conjunct(qual, |c| {
            let s = sarg(c)?;
            (s.op == BinOp::Eq && rel.index_on(s.attr).is_some()).then_some((c, s))
        });
        if let Some((probe, s)) = probe {
            return Ok(Plan::IndexScan {
                rel: rel_name.clone(),
                var,
                attr: s.attr,
                key: IndexKey::Eq(s.value),
                filter: conjoin_where(qual, |c| sel(c) && !ptr::eq(c, probe)),
            });
        }
        // Range probe: merge all range sargs on one B-tree-indexed attr.
        let ranged = find_conjunct(qual, |c| {
            let s = sarg(c)?;
            let ranges = rel.index_on(s.attr).is_some_and(|ix| ix.supports_range());
            (s.op != BinOp::Eq && ranges).then_some(s.attr)
        });
        if let Some(attr) = ranged {
            let bound_on_attr = |c: &RExpr| {
                sarg(c).filter(|s| {
                    s.attr == attr && matches!(s.op, BinOp::Gt | BinOp::Ge | BinOp::Lt | BinOp::Le)
                })
            };
            let (mut lo, mut hi) = (Bound::Unbounded, Bound::Unbounded);
            each_conjunct(qual, &mut |c| {
                let Some(s) = bound_on_attr(c) else {
                    return;
                };
                match s.op {
                    BinOp::Gt => tighten_lo(&mut lo, Bound::Excluded(s.value)),
                    BinOp::Ge => tighten_lo(&mut lo, Bound::Included(s.value)),
                    BinOp::Lt => tighten_hi(&mut hi, Bound::Excluded(s.value)),
                    _ => tighten_hi(&mut hi, Bound::Included(s.value)),
                }
            });
            return Ok(Plan::IndexScan {
                rel: rel_name.clone(),
                var,
                attr,
                key: IndexKey::Range(lo, hi),
                filter: conjoin_where(qual, |c| sel(c) && bound_on_attr(c).is_none()),
            });
        }
        Ok(Plan::SeqScan {
            rel: rel_name.clone(),
            var,
            filter: conjoin_where(qual, sel),
        })
    }

    /// Join the already-planned `left`, which binds `bound`, with variable
    /// `pick`; `applicable` admits the conjuncts that enter at this step.
    fn join(
        &self,
        spec: &QuerySpec,
        left: Plan,
        pick: usize,
        bound: VarSet,
        applicable: impl Fn(&RExpr) -> bool,
    ) -> QueryResult<Plan> {
        let qual = spec.qual.as_ref();
        let rel_name = &spec.vars[pick].rel;
        let rel = self.catalog.require(rel_name)?;
        let edge = |c| {
            let (attr, other) = applicable(c).then(|| Self::equi_edge(c, pick, bound))??;
            Some((c, attr, other))
        };
        let all_but = |used| conjoin_where(qual, |c| applicable(c) && !ptr::eq(c, used));

        // Try an index nested-loop: an equi edge probing an index on pick.
        let probe = find_conjunct(qual, |c| edge(c).filter(|e| rel.index_on(e.1).is_some()));
        if let Some((used, attr, key_expr)) = probe {
            return Ok(Plan::IndexedLoop {
                left: Box::new(left),
                rel: rel_name.clone(),
                var: pick,
                attr,
                key_expr: key_expr.clone(),
                filter: conjoin_where(qual, |c| vars_of(c) == bit(pick)),
                cond: all_but(used),
            });
        }

        // Sort-merge when both sides are big and an equi edge exists.
        let left_est = self.plan_estimate(&left, spec);
        let pick_est = self.estimate(spec, pick);
        if left_est > SORT_MERGE_THRESHOLD && pick_est > SORT_MERGE_THRESHOLD {
            if let Some((used, attr, other)) = find_conjunct(qual, edge) {
                return Ok(Plan::SortMergeJoin {
                    left: Box::new(left),
                    right: Box::new(self.access_path(spec, pick)?),
                    left_key: other.clone(),
                    right_key: RExpr::Attr { var: pick, attr },
                    residual: all_but(used),
                });
            }
        }

        Ok(Plan::NestedLoop {
            left: Box::new(left),
            right: Box::new(self.access_path(spec, pick)?),
            cond: conjoin_where(qual, applicable),
        })
    }

    /// Cardinality estimate for one variable after its selections.
    fn estimate(&self, spec: &QuerySpec, var: usize) -> f64 {
        let base = match &spec.vars[var].source {
            VarSource::Pnode { .. } => self.pnode.map(|p| p.len()).unwrap_or(0) as f64,
            VarSource::Relation => self
                .catalog
                .get(&spec.vars[var].rel)
                .map(|r| r.len())
                .unwrap_or(0) as f64,
        };
        let mut sel = 1.0;
        each_conjunct(spec.qual.as_ref(), &mut |c| {
            if vars_of(c) == bit(var) {
                sel *= match c {
                    RExpr::Binary { op, .. } if *op == BinOp::Eq => SEL_EQ,
                    RExpr::Binary { op, .. } if op.is_comparison() => SEL_RANGE,
                    _ => SEL_OTHER,
                };
            }
        });
        (base * sel).max(1.0)
    }

    /// Rough output-size estimate of a planned subtree.
    #[allow(clippy::only_used_in_recursion)]
    fn plan_estimate(&self, plan: &Plan, spec: &QuerySpec) -> f64 {
        match plan {
            Plan::SeqScan { rel, filter, .. } => {
                let n = self.catalog.get(rel).map(|r| r.len()).unwrap_or(0) as f64;
                if filter.is_some() {
                    (n * SEL_RANGE).max(1.0)
                } else {
                    n
                }
            }
            Plan::IndexScan { rel, key, .. } => {
                let n = self.catalog.get(rel).map(|r| r.len()).unwrap_or(0) as f64;
                match key {
                    IndexKey::Eq(_) => (n * SEL_EQ).max(1.0),
                    IndexKey::Range(..) => (n * SEL_RANGE).max(1.0),
                }
            }
            Plan::PnodeScan { .. } => self.pnode.map(|p| p.len()).unwrap_or(0) as f64,
            Plan::NestedLoop { left, right, cond } => {
                let prod = self.plan_estimate(left, spec) * self.plan_estimate(right, spec);
                if cond.is_some() {
                    (prod * SEL_EQ).max(1.0)
                } else {
                    prod
                }
            }
            Plan::IndexedLoop { left, .. } => (self.plan_estimate(left, spec) * 2.0).max(1.0),
            Plan::SortMergeJoin { left, right, .. } => {
                (self.plan_estimate(left, spec) * self.plan_estimate(right, spec) * SEL_EQ).max(1.0)
            }
            Plan::Filter { input, .. } => (self.plan_estimate(input, spec) * SEL_RANGE).max(1.0),
        }
    }
}

/// Narrow the lower bound `a` to `b` where `b` is tighter.
fn tighten_lo(a: &mut Bound<Value>, b: Bound<Value>) {
    let tighter = match (&*a, &b) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            y > x || (y == x && matches!(b, Bound::Excluded(_)))
        }
    };
    if tighter {
        *a = b;
    }
}

/// Narrow the upper bound `a` to `b` where `b` is tighter.
fn tighten_hi(a: &mut Bound<Value>, b: Bound<Value>) {
    let tighter = match (&*a, &b) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            y < x || (y == x && matches!(b, Bound::Excluded(_)))
        }
    };
    if tighter {
        *a = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_command;
    use crate::semantic::Resolver;
    use ariel_storage::{AttrType, IndexKind, Schema};

    fn catalog_with_data() -> Catalog {
        let mut c = Catalog::new();
        let emp = c
            .create(
                "emp",
                Schema::of(&[
                    ("name", AttrType::Str),
                    ("sal", AttrType::Float),
                    ("dno", AttrType::Int),
                ]),
            )
            .unwrap();
        let dept = c
            .create(
                "dept",
                Schema::of(&[("dno", AttrType::Int), ("name", AttrType::Str)]),
            )
            .unwrap();
        for i in 0..100 {
            c.rel_mut(emp)
                .unwrap()
                .insert(vec![
                    format!("e{i}").into(),
                    ((i * 100) as f64).into(),
                    ((i % 10) as i64).into(),
                ])
                .unwrap();
        }
        for i in 0..10 {
            c.rel_mut(dept)
                .unwrap()
                .insert(vec![(i as i64).into(), format!("d{i}").into()])
                .unwrap();
        }
        c
    }

    fn plan_for(cat: &Catalog, sql: &str) -> Plan {
        let cmd = parse_command(sql).unwrap();
        let rc = Resolver::new(cat).resolve_command(&cmd).unwrap();
        Optimizer::new(cat).plan(rc.spec()).unwrap()
    }

    #[test]
    fn seq_scan_without_index() {
        let cat = catalog_with_data();
        let p = plan_for(&cat, "delete emp where emp.sal > 100");
        assert_eq!(p.shape(), vec!["SeqScan"]);
    }

    #[test]
    fn index_eq_scan_with_hash_index() {
        let mut cat = catalog_with_data();
        cat.get_mut("emp")
            .unwrap()
            .create_index("dno", IndexKind::Hash)
            .unwrap();
        let p = plan_for(&cat, "delete emp where emp.dno = 3");
        assert_eq!(p.shape(), vec!["IndexScan"]);
    }

    #[test]
    fn index_range_scan_with_btree() {
        let mut cat = catalog_with_data();
        cat.get_mut("emp")
            .unwrap()
            .create_index("sal", IndexKind::BTree)
            .unwrap();
        let p = plan_for(&cat, "delete emp where emp.sal > 100 and emp.sal <= 500");
        let Plan::IndexScan {
            key: IndexKey::Range(lo, hi),
            ..
        } = &p
        else {
            panic!("expected range index scan, got {p}");
        };
        // literals stay Int; Value's cross-type numeric ordering makes the
        // B-tree probe against Float keys correct
        assert_eq!(*lo, Bound::Excluded(Value::Int(100)));
        assert_eq!(*hi, Bound::Included(Value::Int(500)));
    }

    #[test]
    fn hash_index_not_used_for_range() {
        let mut cat = catalog_with_data();
        cat.get_mut("emp")
            .unwrap()
            .create_index("sal", IndexKind::Hash)
            .unwrap();
        let p = plan_for(&cat, "delete emp where emp.sal > 100");
        assert_eq!(p.shape(), vec!["SeqScan"]);
    }

    #[test]
    fn join_prefers_indexed_loop() {
        let mut cat = catalog_with_data();
        // dept (selective eq filter) is scanned first; emp is probed
        // through its dno index.
        cat.get_mut("emp")
            .unwrap()
            .create_index("dno", IndexKind::Hash)
            .unwrap();
        let p = plan_for(
            &cat,
            "retrieve (emp.name) where emp.dno = dept.dno and dept.name = \"d3\"",
        );
        assert!(
            p.shape().contains(&"IndexedLoopJoin"),
            "expected indexed loop, got:\n{p}"
        );
    }

    #[test]
    fn join_without_index_is_nested_loop() {
        let cat = catalog_with_data();
        let p = plan_for(
            &cat,
            "retrieve (emp.name) where emp.dno = dept.dno and dept.name = \"d3\"",
        );
        assert!(p.shape().contains(&"NestedLoopJoin"), "got:\n{p}");
        // smaller/filtered relation should come first: dept has the
        // equality filter and only 10 rows.
        let Plan::NestedLoop { left, .. } = &p else {
            panic!("got:\n{p}")
        };
        assert!(matches!(**left, Plan::SeqScan { ref rel, .. } if rel == "dept"));
    }

    #[test]
    fn sort_merge_for_two_large_inputs() {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            let r = cat
                .create(name, Schema::of(&[("k", AttrType::Int)]))
                .unwrap();
            for i in 0..200 {
                cat.rel_mut(r)
                    .unwrap()
                    .insert(vec![(i as i64).into()])
                    .unwrap();
            }
        }
        let p = plan_for(&cat, "retrieve (a.k) where a.k = b.k");
        assert!(p.shape().contains(&"SortMergeJoin"), "got:\n{p}");
    }

    #[test]
    fn cartesian_product_when_no_edge() {
        let cat = catalog_with_data();
        let p = plan_for(&cat, "retrieve (emp.name, dept.name)");
        let Plan::NestedLoop { cond, .. } = &p else {
            panic!("got:\n{p}")
        };
        assert!(cond.is_none());
    }

    #[test]
    fn constant_predicate_becomes_filter() {
        let cat = catalog_with_data();
        let p = plan_for(&cat, "retrieve (emp.name) where 1 = 2");
        assert_eq!(p.shape()[0], "Filter");
    }

    #[test]
    fn empty_spec_rejected() {
        let cat = catalog_with_data();
        let spec = QuerySpec {
            vars: vec![],
            qual: None,
        };
        assert!(Optimizer::new(&cat).plan(&spec).is_err());
    }
}

#[cfg(test)]
mod pnode_tests {
    use super::*;
    use crate::binding::{BoundVar, Pnode, PnodeCol};
    use crate::parser::parse_command;
    use crate::semantic::Resolver;
    use ariel_storage::{AttrType, Schema, Tid, Tuple};

    /// §5.2: "the optimizer always generates a PnodeScan to find tuples to
    /// be bound to P" — and our planner places it leftmost.
    #[test]
    fn rule_action_plans_start_with_pnode_scan() {
        let mut cat = Catalog::new();
        let emp = cat
            .create(
                "emp",
                Schema::of(&[("sal", AttrType::Float), ("dno", AttrType::Int)]),
            )
            .unwrap();
        let dept = cat
            .create(
                "dept",
                Schema::of(&[("dno", AttrType::Int), ("name", AttrType::Str)]),
            )
            .unwrap();
        for i in 0..20i64 {
            cat.rel_mut(dept)
                .unwrap()
                .insert(vec![i.into(), format!("d{i}").into()])
                .unwrap();
        }
        let mut pnode = Pnode::new(vec![PnodeCol {
            var: "emp".into(),
            rel: "emp".into(),
            schema: cat.rel(emp).unwrap().schema().clone(),
            has_prev: false,
        }]);
        pnode.push(vec![BoundVar::plain(
            Tid(0),
            Tuple::new(vec![100.0.into(), 3i64.into()]),
        )]);
        let cmd =
            parse_command(r#"replace emp (sal = 0) where emp.dno = dept.dno and dept.name = "d3""#)
                .unwrap();
        // simulate query modification: emp shared → primed
        let modified = crate::modify::modify_action(
            std::slice::from_ref(&cmd),
            &std::collections::HashSet::from(["emp".to_string()]),
        );
        let rcmd = Resolver::with_pnode(&cat, &pnode)
            .resolve_command(&modified[0])
            .unwrap();
        let plan = Optimizer::with_pnode(&cat, &pnode)
            .plan(rcmd.spec())
            .unwrap();
        let shape = plan.shape();
        // the first scan in pre-order after any join nodes is the PnodeScan
        let first_leaf = shape.iter().find(|n| n.ends_with("Scan")).copied().unwrap();
        assert_eq!(first_leaf, "PnodeScan", "plan:\n{plan}");
    }
}
