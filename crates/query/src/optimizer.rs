//! Cost-based query optimizer.
//!
//! System-R-in-miniature, following the paper's architecture (§3, §5.2):
//! conjunct classification, index-aware access-path selection, greedy join
//! ordering from cardinality estimates, and the rule-action special case —
//! when variables bind to the P-node, a single `PnodeScan` is always
//! generated for them and placed leftmost in the join tree.

use crate::ast::BinOp;
use crate::binding::{Pnode, Row};
use crate::error::{QueryError, QueryResult};
use crate::expr::eval;
use crate::plan::{IndexKey, Plan};
use crate::semantic::{QuerySpec, RExpr, VarSource};
use ariel_storage::{Catalog, Value};
use std::collections::HashSet;
use std::ops::Bound;

/// Default selectivity guesses (no histograms in 1992, none here either).
const SEL_EQ: f64 = 0.1;
const SEL_RANGE: f64 = 0.3;
const SEL_OTHER: f64 = 0.5;
/// Minimum input size before a sort-merge join beats nested loops.
const SORT_MERGE_THRESHOLD: f64 = 64.0;

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
    /// `spec.vars` must be non-empty (variable-free commands need no plan).
    pub fn plan(&self, spec: &QuerySpec) -> QueryResult<Plan> {
        if spec.vars.is_empty() {
            return Err(QueryError::Plan("no variables to bind".into()));
        }
        let conjuncts: Vec<RExpr> = spec.qual.clone().map(|q| q.conjuncts()).unwrap_or_default();

        // Partition conjuncts by the variables they touch.
        let nvars = spec.vars.len();
        let mut selections: Vec<Vec<RExpr>> = vec![Vec::new(); nvars];
        let mut multi: Vec<(HashSet<usize>, RExpr)> = Vec::new();
        for c in conjuncts {
            let used = c.vars_used();
            match used.len() {
                0 => multi.push((HashSet::new(), c)), // constant predicate
                1 => selections[used[0]].push(c),
                _ => multi.push((used.into_iter().collect(), c)),
            }
        }

        // Units: the P-node variables as one unit, each relation var alone.
        let pnode_vars: Vec<usize> = (0..nvars)
            .filter(|&v| matches!(spec.vars[v].source, VarSource::Pnode { .. }))
            .collect();
        let rel_vars: Vec<usize> = (0..nvars)
            .filter(|&v| matches!(spec.vars[v].source, VarSource::Relation))
            .collect();

        let mut bound: HashSet<usize> = HashSet::new();
        let mut plan: Option<Plan> = None;

        // Rule-action plans always start with the PnodeScan (§5.2).
        if !pnode_vars.is_empty() {
            let pnode = self.pnode.ok_or_else(|| {
                QueryError::Plan("P-node variables without a P-node context".into())
            })?;
            let mut binds = Vec::new();
            for &v in &pnode_vars {
                let VarSource::Pnode { col } = spec.vars[v].source else {
                    unreachable!()
                };
                binds.push((v, col));
            }
            let filter = RExpr::conjoin(
                pnode_vars
                    .iter()
                    .flat_map(|&v| selections[v].clone())
                    .collect(),
            );
            // also multi-var conjuncts fully inside the pnode unit
            let _ = pnode;
            bound.extend(&pnode_vars);
            let extra = Self::take_applicable(&mut multi, &bound);
            let filter = RExpr::conjoin(filter.into_iter().chain(extra).collect::<Vec<_>>());
            plan = Some(Plan::PnodeScan { binds, filter });
        }

        // Remaining relation variables, greedily.
        let mut remaining: Vec<usize> = rel_vars;
        while !remaining.is_empty() {
            let pick = if plan.is_none() {
                // first unit: cheapest access path
                *remaining
                    .iter()
                    .min_by(|&&a, &&b| {
                        self.estimate(spec, &selections[a], a)
                            .total_cmp(&self.estimate(spec, &selections[b], b))
                    })
                    .unwrap()
            } else {
                // prefer a variable connected to the bound set by an
                // equi-join edge; otherwise cheapest (cartesian).
                let connected: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&v| {
                        multi.iter().any(|(vars, c)| {
                            vars.contains(&v)
                                && vars.iter().all(|u| *u == v || bound.contains(u))
                                && Self::equi_edge(c, v, &bound).is_some()
                        })
                    })
                    .collect();
                let pool = if connected.is_empty() {
                    &remaining
                } else {
                    &connected
                };
                *pool
                    .iter()
                    .min_by(|&&a, &&b| {
                        self.estimate(spec, &selections[a], a)
                            .total_cmp(&self.estimate(spec, &selections[b], b))
                    })
                    .unwrap()
            };
            remaining.retain(|&v| v != pick);
            let sels = std::mem::take(&mut selections[pick]);
            plan = Some(match plan {
                None => self.access_path(spec, pick, sels)?,
                Some(left) => {
                    bound.insert(pick);
                    let applicable = Self::take_applicable(&mut multi, &bound);
                    bound.remove(&pick);
                    self.join(spec, left, pick, sels, applicable, &bound)?
                }
            });
            bound.insert(pick);
        }

        let mut plan = plan.expect("at least one variable");
        // Anything left (constant predicates, or conjuncts that only became
        // applicable now) goes in a top filter.
        let leftovers: Vec<RExpr> = multi.into_iter().map(|(_, c)| c).collect();
        if let Some(pred) = RExpr::conjoin(leftovers) {
            plan = Plan::Filter {
                input: Box::new(plan),
                pred,
            };
        }
        Ok(plan)
    }

    /// Pull out the conjuncts whose variables are all bound.
    fn take_applicable(
        multi: &mut Vec<(HashSet<usize>, RExpr)>,
        bound: &HashSet<usize>,
    ) -> Vec<RExpr> {
        let mut out = Vec::new();
        multi.retain(|(vars, c)| {
            if vars.is_subset(bound) {
                out.push(c.clone());
                false
            } else {
                true
            }
        });
        out
    }

    /// If `c` is `newvar.attr = <expr over bound vars>` (either side),
    /// return `(attr_of_newvar, other_side_expr)`.
    fn equi_edge(c: &RExpr, newvar: usize, bound: &HashSet<usize>) -> Option<(usize, RExpr)> {
        let RExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        else {
            return None;
        };
        let over_bound = |e: &RExpr| e.vars_used().iter().all(|u| bound.contains(u));
        if let RExpr::Attr { var, attr } = **left {
            if var == newvar && over_bound(right) {
                return Some((attr, (**right).clone()));
            }
        }
        if let RExpr::Attr { var, attr } = **right {
            if var == newvar && over_bound(left) {
                return Some((attr, (**left).clone()));
            }
        }
        None
    }

    /// Constant-fold an expression with no variable references.
    fn fold_const(e: &RExpr) -> Option<Value> {
        if !e.vars_used().is_empty() {
            return None;
        }
        eval(e, &Row::unbound(0)).ok()
    }

    /// Extract `attr cmp const` sargs from single-variable conjuncts.
    fn extract_sargs(var: usize, sels: &[RExpr]) -> Vec<(usize, Sarg)> {
        let mut out = Vec::new();
        for (i, c) in sels.iter().enumerate() {
            let RExpr::Binary { op, left, right } = c else {
                continue;
            };
            if !op.is_comparison() || *op == BinOp::Ne {
                continue;
            }
            if let RExpr::Attr { var: v, attr } = **left {
                if v == var {
                    if let Some(val) = Self::fold_const(right) {
                        out.push((
                            i,
                            Sarg {
                                attr,
                                op: *op,
                                value: val,
                            },
                        ));
                        continue;
                    }
                }
            }
            if let RExpr::Attr { var: v, attr } = **right {
                if v == var {
                    if let Some(val) = Self::fold_const(left) {
                        out.push((
                            i,
                            Sarg {
                                attr,
                                op: op.flip(),
                                value: val,
                            },
                        ));
                    }
                }
            }
        }
        out
    }

    /// Build the access path for a relation variable.
    fn access_path(&self, spec: &QuerySpec, var: usize, sels: Vec<RExpr>) -> QueryResult<Plan> {
        let rel_name = spec.vars[var].rel.clone();
        let rel_ref = self.catalog.require(&rel_name)?;
        let sargs = Self::extract_sargs(var, &sels);

        // Equality probe first (most selective).
        for (i, s) in &sargs {
            if s.op != BinOp::Eq {
                continue;
            }
            if rel_ref.index_on(s.attr).is_some() {
                let filter = RExpr::conjoin(
                    sels.iter()
                        .enumerate()
                        .filter(|(j, _)| j != i)
                        .map(|(_, c)| c.clone())
                        .collect(),
                );
                return Ok(Plan::IndexScan {
                    rel: rel_name,
                    var,
                    attr: s.attr,
                    key: IndexKey::Eq(s.value.clone()),
                    filter,
                });
            }
        }
        // Range probe: merge all range sargs on one B-tree-indexed attr.
        for (_, s) in &sargs {
            if s.op == BinOp::Eq {
                continue;
            }
            let Some(ix) = rel_ref.index_on(s.attr) else {
                continue;
            };
            if !ix.supports_range() {
                continue;
            }
            let mut lo: Bound<Value> = Bound::Unbounded;
            let mut hi: Bound<Value> = Bound::Unbounded;
            let mut used = HashSet::new();
            for (j, s2) in &sargs {
                if s2.attr != s.attr {
                    continue;
                }
                match s2.op {
                    BinOp::Gt => {
                        lo = tighten_lo(lo, Bound::Excluded(s2.value.clone()));
                        used.insert(*j);
                    }
                    BinOp::Ge => {
                        lo = tighten_lo(lo, Bound::Included(s2.value.clone()));
                        used.insert(*j);
                    }
                    BinOp::Lt => {
                        hi = tighten_hi(hi, Bound::Excluded(s2.value.clone()));
                        used.insert(*j);
                    }
                    BinOp::Le => {
                        hi = tighten_hi(hi, Bound::Included(s2.value.clone()));
                        used.insert(*j);
                    }
                    _ => {}
                }
            }
            let filter = RExpr::conjoin(
                sels.iter()
                    .enumerate()
                    .filter(|(j, _)| !used.contains(j))
                    .map(|(_, c)| c.clone())
                    .collect(),
            );
            return Ok(Plan::IndexScan {
                rel: rel_name,
                var,
                attr: s.attr,
                key: IndexKey::Range(lo, hi),
                filter,
            });
        }
        Ok(Plan::SeqScan {
            rel: rel_name,
            var,
            filter: RExpr::conjoin(sels),
        })
    }

    /// Join the already-planned `left` with variable `pick`.
    fn join(
        &self,
        spec: &QuerySpec,
        left: Plan,
        pick: usize,
        sels: Vec<RExpr>,
        applicable: Vec<RExpr>,
        bound: &HashSet<usize>,
    ) -> QueryResult<Plan> {
        let rel_name = spec.vars[pick].rel.clone();
        let rel = self.catalog.require(&rel_name)?;

        // Try an index nested-loop: an equi edge probing an index on pick.
        for (i, c) in applicable.iter().enumerate() {
            let Some((attr, key_expr)) = Self::equi_edge(c, pick, bound) else {
                continue;
            };
            if rel.index_on(attr).is_none() {
                continue;
            }
            let cond = RExpr::conjoin(
                applicable
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, c)| c.clone())
                    .collect(),
            );
            return Ok(Plan::IndexedLoop {
                left: Box::new(left),
                rel: rel_name,
                var: pick,
                attr,
                key_expr,
                filter: RExpr::conjoin(sels),
                cond,
            });
        }

        // Sort-merge when both sides are big and an equi edge exists.
        let left_est = self.plan_estimate(&left, spec);
        let pick_est = self.estimate(spec, &sels, pick);
        if left_est > SORT_MERGE_THRESHOLD && pick_est > SORT_MERGE_THRESHOLD {
            for (i, c) in applicable.iter().enumerate() {
                if let Some((attr, other)) = Self::equi_edge(c, pick, bound) {
                    let residual = RExpr::conjoin(
                        applicable
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != i)
                            .map(|(_, c)| c.clone())
                            .collect(),
                    );
                    let right = self.access_path(spec, pick, sels)?;
                    return Ok(Plan::SortMergeJoin {
                        left: Box::new(left),
                        right: Box::new(right),
                        left_key: other,
                        right_key: RExpr::Attr { var: pick, attr },
                        residual,
                    });
                }
            }
        }

        let right = self.access_path(spec, pick, sels)?;
        Ok(Plan::NestedLoop {
            left: Box::new(left),
            right: Box::new(right),
            cond: RExpr::conjoin(applicable),
        })
    }

    /// Cardinality estimate for one variable after its selections.
    fn estimate(&self, spec: &QuerySpec, sels: &[RExpr], var: usize) -> f64 {
        let base = match &spec.vars[var].source {
            VarSource::Pnode { .. } => self.pnode.map(|p| p.len()).unwrap_or(0) as f64,
            VarSource::Relation => self
                .catalog
                .get(&spec.vars[var].rel)
                .map(|r| r.len())
                .unwrap_or(0) as f64,
        };
        let sel: f64 = sels
            .iter()
            .map(|c| match c {
                RExpr::Binary { op, .. } if *op == BinOp::Eq => SEL_EQ,
                RExpr::Binary { op, .. } if op.is_comparison() => SEL_RANGE,
                _ => SEL_OTHER,
            })
            .product();
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

fn tighten_lo(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            if y > x || (y == x && matches!(b, Bound::Excluded(_))) {
                b
            } else {
                a
            }
        }
    }
}

fn tighten_hi(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            if y < x || (y == x && matches!(b, Bound::Excluded(_))) {
                b
            } else {
                a
            }
        }
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
