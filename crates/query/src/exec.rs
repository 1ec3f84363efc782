//! Plan execution and DML application.
//!
//! Plans are executed by materialization (the data is in memory already).
//! DML commands first materialize the full set of qualifying rows, then
//! apply mutations — the paper's commands are set-oriented, so a command
//! never observes its own updates. Every mutation is recorded as a
//! [`Change`]; the rule engine feeds changes into the Δ-sets that drive
//! token generation (§4.3.1).

use crate::binding::{BoundVar, Pnode, Row};
use crate::error::{QueryError, QueryResult};
use crate::expr::{eval, eval_pred, PatchedEnv};
use crate::optimizer::Optimizer;
use crate::plan::{IndexKey, Plan};
use crate::semantic::{infer_type, RCommand, RExpr};
use ariel_storage::{AttrType, Catalog, RelId, Schema, Tid, Tuple, Value};
use std::collections::HashSet;

/// One physical change applied to a relation.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// A tuple was inserted.
    Inserted {
        /// The relation (render its name through `Catalog::name`).
        rel: RelId,
        /// New tuple's TID.
        tid: Tid,
        /// Inserted value.
        new: Tuple,
    },
    /// A tuple was deleted.
    Deleted {
        /// The relation (render its name through `Catalog::name`).
        rel: RelId,
        /// Deleted tuple's TID.
        tid: Tid,
        /// Value at deletion.
        old: Tuple,
    },
    /// A tuple was replaced in place. `attrs` lists the attribute positions
    /// named in the replace command's target list (the paper's
    /// `replace(target-list)` event specifier carries exactly these).
    Updated {
        /// The relation (render its name through `Catalog::name`).
        rel: RelId,
        /// Updated tuple's TID.
        tid: Tid,
        /// Value before the update.
        old: Tuple,
        /// Value after the update.
        new: Tuple,
        /// Attribute positions named in the command's target list.
        attrs: Vec<usize>,
    },
}

impl Change {
    /// The relation this change touched.
    pub fn relation(&self) -> RelId {
        match self {
            Change::Inserted { rel, .. }
            | Change::Deleted { rel, .. }
            | Change::Updated { rel, .. } => *rel,
        }
    }
}

/// An asynchronous notification produced by a `notify` command (§8's
/// future-work item: alert monitors, stock tickers).
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// Channel the notification is delivered on.
    pub channel: String,
    /// Column names.
    pub columns: Vec<String>,
    /// One row per qualifying binding.
    pub rows: Vec<Vec<Value>>,
}

/// Output of executing one command.
#[derive(Debug, Clone, Default)]
pub struct CmdOutput {
    /// Result column names (`retrieve` only).
    pub columns: Vec<String>,
    /// Result rows (`retrieve` only).
    pub rows: Vec<Vec<Value>>,
    /// Physical changes applied (DML only).
    pub changes: Vec<Change>,
    /// Notifications emitted (`notify` only).
    pub notifications: Vec<Notification>,
}

/// Execution context for running a plan.
pub struct ExecCtx<'a> {
    /// Relation catalog plans read from.
    pub catalog: &'a Catalog,
    /// P-node supplying rule-action bindings, if any.
    pub pnode: Option<&'a Pnode>,
    /// Number of variable slots in produced rows.
    pub nvars: usize,
}

/// Execute a plan to completion.
pub fn run_plan(plan: &Plan, ctx: &ExecCtx<'_>) -> QueryResult<Vec<Row>> {
    match plan {
        Plan::SeqScan { rel, var, filter } => {
            let rel_b = ctx.catalog.require(rel)?;
            let empty = Row::unbound(ctx.nvars);
            let mut out = Vec::new();
            for (tid, tuple) in rel_b.scan() {
                if admits(filter.as_ref(), &empty, *var, tuple)? {
                    out.push(bind(&empty, *var, tid, tuple));
                }
            }
            Ok(out)
        }
        Plan::IndexScan {
            rel,
            var,
            attr,
            key,
            filter,
        } => {
            let rel_b = ctx.catalog.require(rel)?;
            let empty = Row::unbound(ctx.nvars);
            let mut out = Vec::new();
            let mut keep = |tid: Tid, tuple: &Tuple| -> QueryResult<()> {
                if admits(filter.as_ref(), &empty, *var, tuple)? {
                    out.push(bind(&empty, *var, tid, tuple));
                }
                Ok(())
            };
            match key {
                IndexKey::Eq(v) => {
                    let hits = rel_b
                        .probe_eq(*attr, v)
                        .ok_or_else(|| QueryError::Plan(format!("no index on {rel}.#{attr}")))?;
                    for (tid, tuple) in hits {
                        keep(tid, tuple)?;
                    }
                }
                IndexKey::Range(lo, hi) => {
                    let hits = rel_b
                        .probe_range(*attr, as_ref_bound(lo), as_ref_bound(hi))
                        .ok_or_else(|| {
                            QueryError::Plan(format!("no range index on {rel}.#{attr}"))
                        })?;
                    // a null key sorts below every value, so a range open
                    // below reaches it, but it passes no comparison
                    for (tid, tuple) in hits.filter(|(_, t)| !t.get(*attr).is_null()) {
                        keep(tid, tuple)?;
                    }
                }
            }
            Ok(out)
        }
        Plan::PnodeScan { binds, filter } => {
            let pnode = ctx
                .pnode
                .ok_or_else(|| QueryError::Plan("PnodeScan without a P-node".into()))?;
            let mut out = Vec::new();
            for prow in pnode.rows() {
                let mut row = Row::unbound(ctx.nvars);
                for (var, col) in binds {
                    row.slots[*var] = Some(prow[*col].clone());
                }
                if match filter {
                    Some(f) => eval_pred(f, &row)?,
                    None => true,
                } {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::NestedLoop { left, right, cond } => {
            let lrows = run_plan(left, ctx)?;
            let rrows = run_plan(right, ctx)?;
            let mut out = Vec::new();
            for l in &lrows {
                for r in &rrows {
                    let m = l.merge(r);
                    if match cond {
                        Some(c) => eval_pred(c, &m)?,
                        None => true,
                    } {
                        out.push(m);
                    }
                }
            }
            Ok(out)
        }
        Plan::IndexedLoop {
            left,
            rel,
            var,
            attr,
            key_expr,
            filter,
            cond,
        } => {
            let lrows = run_plan(left, ctx)?;
            let rel_b = ctx.catalog.require(rel)?;
            let mut out = Vec::new();
            for l in &lrows {
                let key = eval(key_expr, l)?;
                if key.is_null() {
                    continue;
                }
                let hits = rel_b
                    .probe_eq(*attr, &key)
                    .ok_or_else(|| QueryError::Plan(format!("no index on {rel}.#{attr}")))?;
                for (tid, tuple) in hits {
                    if admits(filter.as_ref(), l, *var, tuple)?
                        && admits(cond.as_ref(), l, *var, tuple)?
                    {
                        out.push(bind(l, *var, tid, tuple));
                    }
                }
            }
            Ok(out)
        }
        Plan::SortMergeJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let lrows = run_plan(left, ctx)?;
            let rrows = run_plan(right, ctx)?;
            let mut lk: Vec<(Value, Row)> = lrows
                .into_iter()
                .map(|r| Ok((eval(left_key, &r)?, r)))
                .collect::<QueryResult<_>>()?;
            let mut rk: Vec<(Value, Row)> = rrows
                .into_iter()
                .map(|r| Ok((eval(right_key, &r)?, r)))
                .collect::<QueryResult<_>>()?;
            lk.sort_by(|a, b| a.0.total_cmp(&b.0));
            rk.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut out = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < lk.len() && j < rk.len() {
                let ord = lk[i].0.total_cmp(&rk[j].0);
                match ord {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if lk[i].0.is_null() {
                            // nulls never join
                            i += 1;
                            continue;
                        }
                        // find the equal run on the right
                        let mut j2 = j;
                        while j2 < rk.len()
                            && rk[j2].0.total_cmp(&lk[i].0) == std::cmp::Ordering::Equal
                        {
                            j2 += 1;
                        }
                        for r in &rk[j..j2] {
                            let m = lk[i].1.merge(&r.1);
                            if match residual {
                                Some(c) => eval_pred(c, &m)?,
                                None => true,
                            } {
                                out.push(m);
                            }
                        }
                        i += 1;
                    }
                }
            }
            Ok(out)
        }
        Plan::Filter { input, pred } => {
            let rows = run_plan(input, ctx)?;
            let mut out = Vec::new();
            for r in rows {
                if eval_pred(pred, &r)? {
                    out.push(r);
                }
            }
            Ok(out)
        }
    }
}

/// Whether `pred` (none: true) holds with `tuple` bound at `var` over
/// `base`, tested on the borrowed tuple: a scan builds a row only for a
/// tuple that passes.
fn admits(pred: Option<&RExpr>, base: &Row, var: usize, tuple: &Tuple) -> QueryResult<bool> {
    match pred {
        None => Ok(true),
        Some(p) => eval_pred(
            p,
            &PatchedEnv {
                base,
                var,
                tuple,
                prev: None,
            },
        ),
    }
}

/// `base` with `tid`/`tuple` bound at `var`.
fn bind(base: &Row, var: usize, tid: Tid, tuple: &Tuple) -> Row {
    let mut row = base.clone();
    row.slots[var] = Some(BoundVar::plain(tid, tuple.clone()));
    row
}

fn as_ref_bound(b: &std::ops::Bound<Value>) -> std::ops::Bound<&Value> {
    match b {
        std::ops::Bound::Included(v) => std::ops::Bound::Included(v),
        std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(v),
        std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
    }
}

/// Produce the qualification plan for a resolved command, or `None` for
/// commands with no tuple variables. Exposed so the rule engine can plan a
/// rule action once and replay the plan while it holds (the pre-planning
/// of §5.3).
pub fn plan_command(
    rcmd: &RCommand,
    catalog: &Catalog,
    pnode: Option<&Pnode>,
) -> QueryResult<Option<Plan>> {
    let spec = rcmd.spec();
    if spec.vars.is_empty() {
        return Ok(None);
    }
    let optimizer = match pnode {
        Some(p) => Optimizer::with_pnode(catalog, p),
        None => Optimizer::new(catalog),
    };
    optimizer.plan(spec).map(Some)
}

/// Run the qualification of a resolved command with a pre-built plan,
/// returning the qualifying rows. Commands with no tuple variables yield a
/// single empty row (filtered by a constant qualification if present).
pub fn qualifying_rows(
    rcmd: &RCommand,
    plan: Option<&Plan>,
    catalog: &Catalog,
    pnode: Option<&Pnode>,
) -> QueryResult<Vec<Row>> {
    let spec = rcmd.spec();
    let Some(plan) = plan else {
        let row = Row::unbound(0);
        let keep = match &spec.qual {
            Some(q) => eval_pred(q, &row)?,
            None => true,
        };
        return Ok(if keep { vec![row] } else { vec![] });
    };
    let ctx = ExecCtx {
        catalog,
        pnode,
        nvars: spec.vars.len(),
    };
    run_plan(plan, &ctx)
}

/// Execute a resolved DML command against the catalog, planning its
/// qualification first. Rule actions run their prepared plans through
/// [`execute_with_plan`] instead.
///
/// `pnode` supplies bindings for P-node variables (rule-action context).
/// The qualifying rows are computed under `&Catalog` before any relation
/// is written, so a command never observes its own updates.
pub fn execute(
    rcmd: &RCommand,
    catalog: &mut Catalog,
    pnode: Option<&Pnode>,
) -> QueryResult<CmdOutput> {
    let plan = plan_command(rcmd, catalog, pnode)?;
    execute_with_plan(rcmd, plan.as_ref(), catalog, pnode)
}

/// Execute a resolved DML command with a previously-built qualification
/// plan (`None` for variable-free commands) — how a prepared rule action
/// runs.
pub fn execute_with_plan(
    rcmd: &RCommand,
    plan: Option<&Plan>,
    catalog: &mut Catalog,
    pnode: Option<&Pnode>,
) -> QueryResult<CmdOutput> {
    let rows = qualifying_rows(rcmd, plan, catalog, pnode)?;
    let mut out = CmdOutput::default();
    match rcmd {
        RCommand::Append {
            target,
            target_schema,
            assignments,
            ..
        } => {
            // materialize new tuples before inserting (set-oriented)
            let mut new_rows = Vec::with_capacity(rows.len());
            for row in &rows {
                let mut vals = vec![Value::Null; target_schema.arity()];
                for (pos, e) in assignments {
                    vals[*pos] = eval(e, row)?;
                }
                new_rows.push(vals);
            }
            let (id, rel) = catalog.resolve_mut(target)?;
            for vals in new_rows {
                let tid = rel.insert(vals)?;
                let new = rel.get(tid).cloned().expect("just inserted");
                out.changes.push(Change::Inserted { rel: id, tid, new });
            }
        }
        RCommand::Delete { var, spec } => {
            let (id, rel) = catalog.resolve_mut(&spec.vars[*var].rel)?;
            let mut seen = HashSet::new();
            for row in &rows {
                let b = row.bound(*var).expect("target var bound");
                let Some(tid) = b.tid else { continue };
                if seen.insert(tid) {
                    let old = rel.delete(tid)?;
                    out.changes.push(Change::Deleted { rel: id, tid, old });
                }
            }
        }
        RCommand::Replace {
            var,
            assignments,
            spec,
        } => {
            let rel_name = &spec.vars[*var].rel;
            apply_replace(&rows, *var, assignments, rel_name, catalog, &mut out, false)?;
        }
        RCommand::Retrieve { into, targets, .. } => {
            out.columns = targets.iter().map(|(n, _)| n.clone()).collect();
            for row in &rows {
                let mut vals = Vec::with_capacity(targets.len());
                for (_, e) in targets {
                    vals.push(eval(e, row)?);
                }
                out.rows.push(vals);
            }
            if let Some(dest) = into {
                // create the destination relation from inferred target types
                let spec = rcmd.spec();
                let schema = Schema::new(
                    targets
                        .iter()
                        .map(|(n, e)| {
                            ariel_storage::AttrDef::new(
                                n.clone(),
                                infer_type(e, &spec.vars).unwrap_or(AttrType::Str),
                            )
                        })
                        .collect(),
                )?;
                let id = catalog.create(dest, std::sync::Arc::new(schema))?;
                let rel = catalog.rel_mut(id).expect("just created");
                for vals in &out.rows {
                    let tid = rel.insert(vals.clone())?;
                    let new = rel.get(tid).cloned().expect("just inserted");
                    out.changes.push(Change::Inserted { rel: id, tid, new });
                }
            }
        }
        RCommand::Notify {
            channel, targets, ..
        } => {
            let columns: Vec<String> = targets.iter().map(|(n, _)| n.clone()).collect();
            let mut note_rows = Vec::with_capacity(rows.len());
            for row in &rows {
                let mut vals = Vec::with_capacity(targets.len());
                for (_, e) in targets {
                    vals.push(eval(e, row)?);
                }
                note_rows.push(vals);
            }
            if !note_rows.is_empty() {
                out.notifications.push(Notification {
                    channel: channel.clone(),
                    columns,
                    rows: note_rows,
                });
            }
        }
        RCommand::DeletePrimed { pvar, spec } => {
            let (id, rel) = catalog.resolve_mut(&spec.vars[*pvar].rel)?;
            let mut seen = HashSet::new();
            for row in &rows {
                let b = row.bound(*pvar).expect("pvar bound");
                // Tuples already gone (bound by ON DELETE, or deleted by an
                // earlier rule in the cascade) are skipped silently.
                let Some(tid) = b.tid else { continue };
                if rel.get(tid).is_none() {
                    continue;
                }
                if seen.insert(tid) {
                    let old = rel.delete(tid)?;
                    out.changes.push(Change::Deleted { rel: id, tid, old });
                }
            }
        }
        RCommand::ReplacePrimed {
            pvar,
            assignments,
            spec,
        } => {
            let rel_name = &spec.vars[*pvar].rel;
            apply_replace(&rows, *pvar, assignments, rel_name, catalog, &mut out, true)?;
        }
    }
    Ok(out)
}

/// Shared implementation of `replace` and `replace'`.
#[allow(clippy::too_many_arguments)]
fn apply_replace(
    rows: &[Row],
    var: usize,
    assignments: &[(usize, crate::semantic::RExpr)],
    rel_name: &str,
    catalog: &mut Catalog,
    out: &mut CmdOutput,
    skip_dangling: bool,
) -> QueryResult<()> {
    let (id, rel) = catalog.resolve(rel_name)?;
    // Evaluate all updates first (set-oriented), then apply.
    let mut updates: Vec<(Tid, Vec<Value>)> = Vec::new();
    let mut seen = HashSet::new();
    for row in rows {
        let b = row.bound(var).expect("target var bound");
        let Some(tid) = b.tid else { continue };
        if skip_dangling && rel.get(tid).is_none() {
            continue;
        }
        if !seen.insert(tid) {
            continue; // first qualifying binding wins
        }
        let mut vals: Vec<Value> = b.tuple.values().to_vec();
        for (pos, e) in assignments {
            vals[*pos] = eval(e, row)?;
        }
        updates.push((tid, vals));
    }
    let attrs: Vec<usize> = assignments.iter().map(|(p, _)| *p).collect();
    let rel = catalog.rel_mut(id).expect("resolved above");
    for (tid, vals) in updates {
        let old = rel.update(tid, vals)?;
        let new = rel.get(tid).cloned().expect("updated tuple");
        out.changes.push(Change::Updated {
            rel: id,
            tid,
            old,
            new,
            attrs: attrs.clone(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::PnodeCol;
    use crate::parser::parse_command;
    use crate::semantic::Resolver;
    use ariel_storage::{AttrType, IndexKind, Schema};

    fn setup() -> Catalog {
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
        for (n, s, d) in [
            ("alice", 40_000.0, 1),
            ("bob", 55_000.0, 1),
            ("carol", 70_000.0, 2),
            ("dan", 35_000.0, 3),
        ] {
            c.rel_mut(emp)
                .unwrap()
                .insert(vec![n.into(), s.into(), (d as i64).into()])
                .unwrap();
        }
        for (d, n) in [(1, "Sales"), (2, "Toy"), (3, "Shoe")] {
            c.rel_mut(dept)
                .unwrap()
                .insert(vec![(d as i64).into(), n.into()])
                .unwrap();
        }
        c
    }

    fn run(cat: &mut Catalog, sql: &str) -> CmdOutput {
        let cmd = parse_command(sql).unwrap();
        let rc = Resolver::new(cat).resolve_command(&cmd).unwrap();
        execute(&rc, cat, None).unwrap()
    }

    #[test]
    fn retrieve_projects_and_filters() {
        let mut cat = setup();
        let out = run(&mut cat, "retrieve (emp.name) where emp.sal > 50000");
        assert_eq!(out.columns, vec!["col1"]);
        let mut names: Vec<String> = out
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["bob", "carol"]);
    }

    #[test]
    fn retrieve_join() {
        let mut cat = setup();
        let out = run(
            &mut cat,
            "retrieve (emp.name, dname = dept.name) where emp.dno = dept.dno and dept.name = \"Sales\"",
        );
        assert_eq!(out.rows.len(), 2);
        assert!(out.rows.iter().all(|r| r[1] == Value::from("Sales")));
    }

    #[test]
    fn retrieve_join_with_index() {
        let mut cat = setup();
        cat.get_mut("emp")
            .unwrap()
            .create_index("dno", IndexKind::Hash)
            .unwrap();
        let out = run(
            &mut cat,
            "retrieve (emp.name) where emp.dno = dept.dno and dept.name = \"Sales\"",
        );
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn append_constant_row() {
        let mut cat = setup();
        let out = run(
            &mut cat,
            r#"append emp (name = "eve", sal = 10000, dno = 2)"#,
        );
        assert_eq!(out.changes.len(), 1);
        assert_eq!(out.changes[0].relation(), cat.id("emp").unwrap());
        assert_eq!(cat.get("emp").unwrap().len(), 5);
    }

    #[test]
    fn append_from_query() {
        let mut cat = setup();
        // copy Sales employees' names into a watch relation
        cat.create("watch", Schema::of(&[("who", AttrType::Str)]))
            .unwrap();
        let out = run(
            &mut cat,
            "append watch (who = emp.name) where emp.dno = dept.dno and dept.name = \"Sales\"",
        );
        assert_eq!(out.changes.len(), 2);
        assert_eq!(cat.get("watch").unwrap().len(), 2);
    }

    #[test]
    fn append_missing_attrs_null() {
        let mut cat = setup();
        run(&mut cat, r#"append emp (name = "ghost")"#);
        let ghost = cat
            .get("emp")
            .unwrap()
            .scan()
            .find(|(_, t)| t.get(0) == &Value::from("ghost"))
            .unwrap();
        assert!(ghost.1.get(1).is_null());
    }

    #[test]
    fn delete_with_qual() {
        let mut cat = setup();
        let out = run(&mut cat, "delete emp where emp.sal < 45000");
        assert_eq!(out.changes.len(), 2); // alice, dan
        assert_eq!(cat.get("emp").unwrap().len(), 2);
    }

    #[test]
    fn delete_join_dedupes_targets() {
        let mut cat = setup();
        // extra dept row with duplicate dno would double-match
        cat.get_mut("dept")
            .unwrap()
            .insert(vec![1i64.into(), "SalesBis".into()])
            .unwrap();
        let out = run(
            &mut cat,
            "delete emp where emp.dno = dept.dno and emp.dno = 1",
        );
        assert_eq!(out.changes.len(), 2); // alice+bob deleted once each
    }

    #[test]
    fn replace_updates_and_reports_attrs() {
        let mut cat = setup();
        let out = run(
            &mut cat,
            "replace emp (sal = 60000) where emp.name = \"alice\"",
        );
        assert_eq!(out.changes.len(), 1);
        let Change::Updated {
            old, new, attrs, ..
        } = &out.changes[0]
        else {
            panic!()
        };
        assert_eq!(old.get(1), &Value::Float(40_000.0));
        assert_eq!(new.get(1), &Value::Float(60_000.0));
        assert_eq!(attrs, &vec![1]);
    }

    #[test]
    fn replace_sees_pre_update_state() {
        let mut cat = setup();
        // raise everyone by 10% — each update computed from the old value,
        // not from other rows' updates
        let out = run(
            &mut cat,
            "replace emp (sal = emp.sal * 1.1) where emp.sal > 0",
        );
        assert_eq!(out.changes.len(), 4);
        let emp = cat.get("emp").unwrap();
        let total: f64 = emp.scan().map(|(_, t)| t.get(1).as_f64().unwrap()).sum();
        assert!((total - 220_000.0).abs() < 1.0);
    }

    #[test]
    fn retrieve_into_creates_relation() {
        let mut cat = setup();
        let out = run(
            &mut cat,
            "retrieve into rich (who = emp.name, pay = emp.sal) where emp.sal > 50000",
        );
        assert_eq!(out.changes.len(), 2);
        let rich = cat.get("rich").unwrap();
        assert_eq!(rich.len(), 2);
        assert_eq!(rich.schema().attr(1).ty, AttrType::Float);
    }

    #[test]
    fn retrieve_into_existing_errors() {
        let mut cat = setup();
        let cmd = parse_command("retrieve into dept (emp.name)").unwrap();
        let rc = Resolver::new(&cat).resolve_command(&cmd).unwrap();
        assert!(execute(&rc, &mut cat, None).is_err());
    }

    #[test]
    fn primed_replace_through_pnode() {
        let mut cat = setup();
        let emp_rel = cat.get("emp").unwrap();
        let emp_schema = emp_rel.schema().clone();
        // P-node binding bob (tid from scan)
        let (bob_tid, bob_tuple) = {
            let (t, tu) = emp_rel
                .scan()
                .find(|(_, t)| t.get(0) == &Value::from("bob"))
                .unwrap();
            (t, tu.clone())
        };
        let mut pnode = Pnode::new(vec![PnodeCol {
            var: "emp".into(),
            rel: "emp".into(),
            schema: emp_schema,
            has_prev: false,
        }]);
        pnode.push(vec![BoundVar::plain(bob_tid, bob_tuple)]);
        let cmd = crate::ast::Command::ReplacePrimed {
            pvar: "emp".into(),
            assignments: vec![(
                "sal".into(),
                crate::ast::Expr::Literal(crate::ast::Literal::Int(30000)),
            )],
            from: vec![],
            qual: None,
        };
        let rc = Resolver::with_pnode(&cat, &pnode)
            .resolve_command(&cmd)
            .unwrap();
        let out = execute(&rc, &mut cat, Some(&pnode)).unwrap();
        assert_eq!(out.changes.len(), 1);
        assert_eq!(
            cat.get("emp").unwrap().get(bob_tid).unwrap().get(1),
            &Value::Float(30000.0)
        );
    }

    #[test]
    fn primed_delete_skips_dangling() {
        let mut cat = setup();
        let emp_rel = cat.get("emp").unwrap();
        let emp_schema = emp_rel.schema().clone();
        let (tid, tuple) = {
            let (t, tu) = emp_rel.scan().next().unwrap();
            (t, tu.clone())
        };
        let mut pnode = Pnode::new(vec![PnodeCol {
            var: "emp".into(),
            rel: "emp".into(),
            schema: emp_schema,
            has_prev: false,
        }]);
        pnode.push(vec![BoundVar::plain(tid, tuple)]);
        // delete underneath the P-node
        cat.get_mut("emp").unwrap().delete(tid).unwrap();
        let cmd = crate::ast::Command::DeletePrimed {
            pvar: "emp".into(),
            from: vec![],
            qual: None,
        };
        let rc = Resolver::with_pnode(&cat, &pnode)
            .resolve_command(&cmd)
            .unwrap();
        let out = execute(&rc, &mut cat, Some(&pnode)).unwrap();
        assert!(out.changes.is_empty());
    }

    #[test]
    fn primed_commands_skip_a_tid_whose_slot_was_reused() {
        let mut cat = setup();
        let emp_rel = cat.get("emp").unwrap();
        let emp_schema = emp_rel.schema().clone();
        let (tid, tuple) = {
            let (t, tu) = emp_rel.scan().next().unwrap();
            (t, tu.clone())
        };
        let mut pnode = Pnode::new(vec![PnodeCol {
            var: "emp".into(),
            rel: "emp".into(),
            schema: emp_schema,
            has_prev: false,
        }]);
        pnode.push(vec![BoundVar::plain(tid, tuple)]);
        // delete underneath the P-node, and a new tuple takes the slot
        let emp = cat.get_mut("emp").unwrap();
        emp.delete(tid).unwrap();
        let row = vec!["erin".into(), 10_000.0.into(), 9i64.into()];
        let reused = emp.insert(row).unwrap();
        assert_eq!(reused.slot(), tid.slot(), "the slot is reused");
        assert_ne!(reused, tid);
        let replace = crate::ast::Command::ReplacePrimed {
            pvar: "emp".into(),
            assignments: vec![(
                "sal".into(),
                crate::ast::Expr::Literal(crate::ast::Literal::Int(1)),
            )],
            from: vec![],
            qual: None,
        };
        let delete = crate::ast::Command::DeletePrimed {
            pvar: "emp".into(),
            from: vec![],
            qual: None,
        };
        for cmd in [replace, delete] {
            let rc = Resolver::with_pnode(&cat, &pnode)
                .resolve_command(&cmd)
                .unwrap();
            let out = execute(&rc, &mut cat, Some(&pnode)).unwrap();
            assert!(
                out.changes.is_empty(),
                "{} reached the new tuple",
                cmd.kind_name()
            );
        }
        let emp = cat.get("emp").unwrap();
        assert_eq!(emp.get(tid), None);
        assert_eq!(
            emp.get(reused).unwrap().values(),
            &[Value::from("erin"), Value::Float(10_000.0), Value::Int(9)],
            "the new tuple is untouched"
        );
        assert_eq!(emp.len(), 4);
    }

    #[test]
    fn sort_merge_join_correctness() {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            let r = cat
                .create(name, Schema::of(&[("k", AttrType::Int)]))
                .unwrap();
            for i in 0..200 {
                cat.rel_mut(r)
                    .unwrap()
                    .insert(vec![((i % 50) as i64).into()])
                    .unwrap();
            }
        }
        let out = run(&mut cat, "retrieve (a.k) where a.k = b.k");
        // 50 keys, 4 copies each side → 50 * 16
        assert_eq!(out.rows.len(), 800);
    }
}
