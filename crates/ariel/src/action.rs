//! Rule-action preparation and execution (§5).
//!
//! At fire time the data matching the rule condition sits in the P-node.
//! Each command of the (query-modified, see [`ariel_query::modify_action`])
//! action is resolved against the P-node columns, planned — the plan always
//! begins with a `PnodeScan` for shared variables — and executed.
//!
//! Hanson's implementation re-derives all of that at every firing
//! ("always reoptimize", §5.3) and names pre-planning as the alternative,
//! at the price of tracking what a plan depends on. Here every active rule
//! keeps each action command **prepared**: resolved and planned at the
//! rule's first firing, then reused for as long as its *stamp* holds —
//! that is, until something the derivation read has changed:
//!
//! * a relation the command names (target, `into` destination, scanned
//!   variable) is created, destroyed or re-created, or string interning is
//!   toggled — all of which move [`Catalog::version`];
//! * a named relation gains an index ([`ariel_storage::Relation::version`]);
//! * a relation the plan scans has left `[n/2, 2n]` of its size `n` at
//!   planning time;
//! * the plan joins the P-node to a relation, and the P-node has left
//!   `[n/2, 2n]` of its size at planning time.
//!
//! A lapsed command is re-resolved and re-planned in place. A command that
//! fails to resolve or plan fails the firing with the same error the fresh
//! derivation gives, and keeps no prepared state. Under `debug_assertions`
//! every reuse is checked against a fresh derivation: both plans must
//! qualify the same multiset of rows.
//! Prepared state is neither persisted nor match state: recovery and
//! re-activation start without it.

use ariel_query::{
    execute_with_plan, plan_command, qualifying_rows, Change, Command, Notification, Plan, Pnode,
    QueryError, QueryResult, RCommand, Resolver, VarSource,
};
use ariel_storage::{Catalog, RelId};

/// Outcome of running one rule action.
#[derive(Debug, Default)]
pub struct ActionOutcome {
    /// Physical changes the action applied (one transition's worth).
    pub changes: Vec<Change>,
    /// Notifications the action emitted (`notify` commands).
    pub notifications: Vec<Notification>,
    /// True if the action executed `halt`.
    pub halted: bool,
}

/// How often action commands were derived: first preparations, and
/// re-preparations after a stamp lapsed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PrepareCounts {
    /// Commands resolved and planned with no prepared state to reuse.
    pub(crate) prepares: u64,
    /// Prepared commands re-resolved and re-planned because their stamp
    /// no longer held.
    pub(crate) replans: u64,
}

/// One action command, resolved and planned, with the stamp that says
/// whether the derivation still holds.
#[derive(Debug)]
pub(crate) struct Prepared {
    rcmd: RCommand,
    plan: Option<Plan>,
    stamp: Stamp,
}

/// What a prepared command was derived from.
#[derive(Debug)]
struct Stamp {
    /// [`Catalog::version`] at which `deps` last matched the catalog.
    catalog: u64,
    intern_strings: bool,
    /// Every relation the command names.
    deps: Vec<Dep>,
    /// P-node rows at planning time, when the plan joins the P-node to a
    /// relation (its size then steers the join method).
    pnode_rows: Option<usize>,
}

/// One relation a prepared command names.
#[derive(Debug)]
struct Dep {
    name: String,
    /// The relation the name denoted (`None`: absent, as a `retrieve into`
    /// destination is before its first run). A re-created relation has
    /// another generation, so another id.
    id: Option<RelId>,
    /// Its [`ariel_storage::Relation::version`] then.
    version: u64,
    /// Its size at planning time, when the plan scans it.
    rows: Option<usize>,
}

/// `now` is within `[n/2, 2n]` of the size `n` a plan was built for.
fn within(now: usize, n: usize) -> bool {
    now.saturating_mul(2) >= n && now <= n.saturating_mul(2)
}

impl Stamp {
    fn new(rcmd: &RCommand, catalog: &Catalog, pnode: &Pnode) -> Stamp {
        let spec = rcmd.spec();
        let mut deps: Vec<Dep> = Vec::new();
        let mut name = |name: &str, scanned: bool| {
            let id = catalog.id(name);
            let (version, rows) = id
                .and_then(|id| catalog.rel(id))
                .map_or((0, None), |r| (r.version(), scanned.then(|| r.len())));
            match deps.iter_mut().find(|d| d.name == name) {
                Some(d) => d.rows = d.rows.or(rows),
                None => deps.push(Dep {
                    name: name.to_string(),
                    id,
                    version,
                    rows,
                }),
            }
        };
        match rcmd {
            RCommand::Append { target, .. } => name(target, false),
            RCommand::Retrieve {
                into: Some(dest), ..
            } => name(dest, false),
            _ => {}
        }
        for v in spec.vars.iter().filter(|v| v.source == VarSource::Relation) {
            name(&v.rel, true);
        }
        let from_pnode = spec
            .vars
            .iter()
            .filter(|v| v.source != VarSource::Relation)
            .count();
        let joins_pnode = from_pnode > 0 && from_pnode < spec.vars.len();
        Stamp {
            catalog: catalog.version(),
            intern_strings: catalog.intern_strings(),
            deps,
            pnode_rows: joins_pnode.then_some(pnode.len()),
        }
    }

    /// Whether the derivation still holds against `catalog` and a P-node
    /// of `pnode_rows` rows.
    fn holds(&self, catalog: &Catalog, pnode_rows: usize) -> bool {
        if catalog.version() != self.catalog {
            if catalog.intern_strings() != self.intern_strings {
                return false;
            }
            // a name now denotes another relation (another generation
            // of the slot, or none), or one where there was none
            if self.deps.iter().any(|d| catalog.id(&d.name) != d.id) {
                return false;
            }
        }
        let moved = self.deps.iter().any(|d| {
            d.id.is_some_and(|id| {
                let Some(rel) = catalog.rel(id) else {
                    return true;
                };
                rel.version() != d.version || d.rows.is_some_and(|n| !within(rel.len(), n))
            })
        });
        !moved && self.pnode_rows.map_or(true, |n| within(pnode_rows, n))
    }
}

impl Prepared {
    /// Resolve and plan `cmd` from scratch.
    fn derive(cmd: &Command, pnode: &Pnode, catalog: &Catalog) -> QueryResult<Prepared> {
        let rcmd = Resolver::with_pnode(catalog, pnode).resolve_command(cmd)?;
        let plan = plan_command(&rcmd, catalog, Some(pnode))?;
        let stamp = Stamp::new(&rcmd, catalog, pnode);
        Ok(Prepared { rcmd, plan, stamp })
    }

    /// The plan the next firing runs, if the derivation still holds. No
    /// firing runs on an empty P-node, so an empty one (between firings)
    /// is judged as a single instantiation.
    pub(crate) fn current(&self, catalog: &Catalog, pnode: &Pnode) -> Option<Option<&Plan>> {
        self.stamp
            .holds(catalog, pnode.len().max(1))
            .then_some(self.plan.as_ref())
    }
}

/// The fresh derivation of one action command, as `explain` shows it:
/// resolved and planned against the current catalog and P-node.
pub(crate) fn fresh_plan(
    cmd: &Command,
    pnode: &Pnode,
    catalog: &Catalog,
) -> QueryResult<Option<Plan>> {
    Prepared::derive(cmd, pnode, catalog).map(|p| p.plan)
}

/// Debug check, on every reuse of a prepared command: a fresh derivation
/// must still succeed, and its plan must qualify the same multiset of rows
/// as the prepared one. A stamp that misses a dependency fails here across
/// the whole test suite rather than as a wrong answer somewhere.
fn debug_check(cmd: &Command, prepared: &Prepared, pnode: &Pnode, catalog: &Catalog) {
    if !cfg!(debug_assertions) {
        return;
    }
    let fresh = Prepared::derive(cmd, pnode, catalog)
        .unwrap_or_else(|e| panic!("prepared `{cmd}` reused, but a fresh derivation fails: {e}"));
    let rows = |p: &Prepared| {
        qualifying_rows(&p.rcmd, p.plan.as_ref(), catalog, Some(pnode)).map(|rows| {
            let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort_unstable();
            rows
        })
    };
    assert_eq!(
        format!("{:?}", rows(prepared)),
        format!("{:?}", rows(&fresh)),
        "prepared `{cmd}` qualifies other rows than a fresh plan"
    );
}

/// Execute a rule's action over its matched P-node data. `prepared` holds
/// one slot per action command: a command is derived into its empty or
/// lapsed slot and reused from a slot whose stamp holds; `counts` tallies
/// the derivations.
pub(crate) fn execute_action(
    action: &[Command],
    prepared: &mut [Option<Prepared>],
    pnode: &Pnode,
    catalog: &mut Catalog,
    counts: &mut PrepareCounts,
) -> QueryResult<ActionOutcome> {
    let mut out = ActionOutcome::default();
    for (cmd, slot) in action.iter().zip(prepared) {
        match cmd {
            Command::Halt => {
                out.halted = true;
                break;
            }
            Command::Append { .. }
            | Command::Delete { .. }
            | Command::Replace { .. }
            | Command::Retrieve { .. }
            | Command::Notify { .. }
            | Command::DeletePrimed { .. }
            | Command::ReplacePrimed { .. } => {
                let p = match slot {
                    Some(p) if p.stamp.holds(catalog, pnode.len()) => {
                        // the names still denote the same relations: skip
                        // their lookups until the catalog moves again
                        p.stamp.catalog = catalog.version();
                        debug_check(cmd, p, pnode, catalog);
                        p
                    }
                    _ => {
                        let lapsed = slot.take().is_some();
                        let p = slot.insert(Prepared::derive(cmd, pnode, catalog)?);
                        if lapsed {
                            counts.replans += 1;
                        } else {
                            counts.prepares += 1;
                        }
                        p
                    }
                };
                let result = execute_with_plan(&p.rcmd, p.plan.as_ref(), catalog, Some(pnode))?;
                out.changes.extend(result.changes);
                out.notifications.extend(result.notifications);
            }
            other => {
                return Err(QueryError::Semantic(format!(
                    "`{}` is not allowed in a rule action",
                    other.kind_name()
                )));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariel_query::{modify_action, parse_command, BoundVar, PnodeCol};
    use ariel_storage::{AttrType, IndexKind, Schema, Tuple, Value};
    use std::collections::HashSet;

    fn setup() -> (Catalog, Pnode) {
        let mut cat = Catalog::new();
        let emp = cat
            .create(
                "emp",
                Schema::of(&[("name", AttrType::Str), ("sal", AttrType::Float)]),
            )
            .unwrap();
        cat.create("watch", Schema::of(&[("who", AttrType::Str)]))
            .unwrap();
        let t1 = cat
            .rel_mut(emp)
            .unwrap()
            .insert(vec!["bob".into(), 50_000.0.into()])
            .unwrap();
        let t2 = cat
            .rel_mut(emp)
            .unwrap()
            .insert(vec!["sue".into(), 60_000.0.into()])
            .unwrap();
        let mut pnode = Pnode::new(vec![PnodeCol {
            var: "emp".into(),
            rel: "emp".into(),
            schema: cat.rel(emp).unwrap().schema().clone(),
            has_prev: false,
        }]);
        for tid in [t1, t2] {
            let t = cat.rel(emp).unwrap().get(tid).cloned().unwrap();
            pnode.push(vec![BoundVar::plain(tid, t)]);
        }
        (cat, pnode)
    }

    fn action(src: &str) -> Vec<Command> {
        let cmd = parse_command(src).unwrap();
        let shared: HashSet<String> = HashSet::from(["emp".to_string()]);
        match cmd {
            Command::Block(cmds) => modify_action(&cmds, &shared),
            single => modify_action(&[single], &shared),
        }
    }

    /// A rule's action with its prepared slots and counters.
    struct Rule {
        action: Vec<Command>,
        prepared: Vec<Option<Prepared>>,
        counts: PrepareCounts,
    }

    impl Rule {
        fn new(src: &str) -> Rule {
            let action = action(src);
            let prepared = action.iter().map(|_| None).collect();
            Rule {
                action,
                prepared,
                counts: PrepareCounts::default(),
            }
        }

        fn fire(&mut self, pnode: &Pnode, cat: &mut Catalog) -> QueryResult<ActionOutcome> {
            execute_action(
                &self.action,
                &mut self.prepared,
                pnode,
                cat,
                &mut self.counts,
            )
        }

        /// Fire with the prepared state dropped first: a fresh derivation,
        /// as every firing made before actions were prepared.
        fn fire_fresh(&mut self, pnode: &Pnode, cat: &mut Catalog) -> ActionOutcome {
            self.prepared.iter_mut().for_each(|p| *p = None);
            self.fire(pnode, cat).unwrap()
        }
    }

    #[test]
    fn append_binds_pnode_rows() {
        let (mut cat, pnode) = setup();
        let out = Rule::new("append watch (who = emp.name)")
            .fire(&pnode, &mut cat)
            .unwrap();
        assert_eq!(out.changes.len(), 2, "one append per P-node row");
        assert_eq!(cat.get("watch").unwrap().len(), 2);
        assert!(!out.halted);
    }

    #[test]
    fn primed_replace_updates_through_tids() {
        let (mut cat, pnode) = setup();
        let out = Rule::new("replace emp (sal = 30000)")
            .fire(&pnode, &mut cat)
            .unwrap();
        assert_eq!(out.changes.len(), 2);
        let emp = cat.get("emp").unwrap();
        assert!(emp.scan().all(|(_, t)| t.get(1) == &Value::Float(30_000.0)));
    }

    #[test]
    fn primed_delete_removes_bound_tuples() {
        let (mut cat, pnode) = setup();
        let out = Rule::new("delete emp").fire(&pnode, &mut cat).unwrap();
        assert_eq!(out.changes.len(), 2);
        assert!(cat.get("emp").unwrap().is_empty());
    }

    #[test]
    fn halt_stops_remaining_commands() {
        let (mut cat, pnode) = setup();
        let out = Rule::new("do halt delete emp end")
            .fire(&pnode, &mut cat)
            .unwrap();
        assert!(out.halted);
        assert_eq!(cat.get("emp").unwrap().len(), 2, "delete never ran");
    }

    #[test]
    fn ddl_in_action_rejected() {
        let (mut cat, pnode) = setup();
        let mut rule = Rule {
            action: vec![parse_command("create t (x = int)").unwrap()],
            prepared: vec![None],
            counts: PrepareCounts::default(),
        };
        assert!(rule.fire(&pnode, &mut cat).is_err());
    }

    #[test]
    fn cached_plans_reused_and_invalidated() {
        let (mut cat, pnode) = setup();
        let mut rule = Rule::new("append watch (who = emp.name) where emp.sal = watch2.sal");
        // a bad action fails at every firing and keeps nothing prepared
        assert!(rule.fire(&pnode, &mut cat).is_err());
        assert!(rule.prepared[0].is_none());
        let w2 = cat
            .create("watch2", Schema::of(&[("sal", AttrType::Float)]))
            .unwrap();
        cat.rel_mut(w2)
            .unwrap()
            .insert(vec![50_000.0.into()])
            .unwrap();
        cat.rel_mut(w2)
            .unwrap()
            .insert(vec![70_000.0.into()])
            .unwrap();
        rule.fire(&pnode, &mut cat).unwrap();
        let one = PrepareCounts {
            prepares: 1,
            replans: 0,
        };
        assert_eq!(rule.counts, one);
        // the second firing reuses the prepared plan; data in relations the
        // action does not scan, and DDL elsewhere, change nothing
        cat.get_mut("emp")
            .unwrap()
            .insert(vec!["ann".into(), 1.0.into()])
            .unwrap();
        cat.create("elsewhere", Schema::of(&[("x", AttrType::Int)]))
            .unwrap();
        rule.fire(&pnode, &mut cat).unwrap();
        assert_eq!(rule.counts, one);
        assert_eq!(cat.get("watch").unwrap().len(), 2);
        // an index on the scanned relation lapses the stamp
        cat.rel_mut(w2)
            .unwrap()
            .create_index("sal", IndexKind::Hash)
            .unwrap();
        rule.fire(&pnode, &mut cat).unwrap();
        assert_eq!(rule.counts.replans, 1);
        let plan = rule.prepared[0].as_ref().unwrap().plan.as_ref().unwrap();
        assert!(plan.to_string().contains("IndexedLoop"), "{plan}");
        // so does the scanned relation more than doubling...
        for i in 0..3 {
            cat.rel_mut(w2)
                .unwrap()
                .insert(vec![(i as f64).into()])
                .unwrap();
        }
        rule.fire(&pnode, &mut cat).unwrap();
        assert_eq!(rule.counts.replans, 2);
        // ...but not growing within the band
        cat.rel_mut(w2).unwrap().insert(vec![9.0.into()]).unwrap();
        rule.fire(&pnode, &mut cat).unwrap();
        assert_eq!(rule.counts.replans, 2);
        assert_eq!(cat.get("watch").unwrap().len(), 5);
        // and the target's re-creation
        cat.destroy("watch").unwrap();
        cat.create("watch", Schema::of(&[("who", AttrType::Str)]))
            .unwrap();
        rule.fire(&pnode, &mut cat).unwrap();
        assert_eq!(rule.counts.replans, 3);
        assert_eq!(cat.get("watch").unwrap().len(), 1);
        // and an interning toggle
        cat.set_intern_strings(false);
        rule.fire(&pnode, &mut cat).unwrap();
        assert_eq!(
            rule.counts,
            PrepareCounts {
                prepares: 1,
                replans: 4,
            }
        );
    }

    #[test]
    fn pnode_only_plans_are_never_replanned() {
        let (mut cat, pnode) = setup();
        let mut rule = Rule::new("append watch (who = emp.name)");
        rule.fire(&pnode, &mut cat).unwrap();
        let mut big = Pnode::new(pnode.cols().to_vec());
        for _ in 0..50 {
            big.push(pnode.rows()[0].clone());
        }
        rule.fire(&big, &mut cat).unwrap();
        for _ in 0..100 {
            cat.get_mut("watch")
                .unwrap()
                .insert(vec!["x".into()])
                .unwrap();
        }
        rule.fire(&pnode, &mut cat).unwrap();
        assert_eq!(
            rule.counts,
            PrepareCounts {
                prepares: 1,
                replans: 0,
            },
            "the target is not scanned, and the P-node joins nothing"
        );
    }

    #[test]
    fn stamp_bands() {
        assert!(within(5, 10) && within(20, 10) && within(10, 10));
        assert!(!within(4, 10) && !within(21, 10));
        assert!(within(0, 0) && !within(1, 0));
        assert!(within(usize::MAX, usize::MAX));
    }

    #[test]
    fn cached_and_fresh_agree() {
        let (mut cat1, pnode) = setup();
        let (mut cat2, _) = setup();
        let src = "do append watch (who = emp.name) replace emp (sal = emp.sal + 1) end";
        let (mut fresh, mut prepared) = (Rule::new(src), Rule::new(src));
        for _ in 0..3 {
            fresh.fire_fresh(&pnode, &mut cat1);
            prepared.fire(&pnode, &mut cat2).unwrap();
        }
        assert_eq!(fresh.counts.prepares, 6, "two commands, derived thrice");
        assert_eq!(
            prepared.counts,
            PrepareCounts {
                prepares: 2,
                replans: 0,
            }
        );
        // note: pnode rows hold the tuple values captured at match time, so
        // both engines apply identical updates
        let sum = |cat: &Catalog| -> f64 {
            cat.get("emp")
                .unwrap()
                .scan()
                .map(|(_, t)| t.get(1).as_f64().unwrap())
                .sum()
        };
        assert_eq!(sum(&cat1), sum(&cat2));
        assert_eq!(
            cat1.get("watch").unwrap().len(),
            cat2.get("watch").unwrap().len()
        );
    }

    #[test]
    fn empty_pnode_action_is_noop() {
        let (mut cat, _) = setup();
        let emp_schema = cat.get("emp").unwrap().schema().clone();
        let empty = Pnode::new(vec![PnodeCol {
            var: "emp".into(),
            rel: "emp".into(),
            schema: emp_schema,
            has_prev: false,
        }]);
        let out = Rule::new("delete emp").fire(&empty, &mut cat).unwrap();
        assert!(out.changes.is_empty());
        assert_eq!(cat.get("emp").unwrap().len(), 2);
    }

    #[test]
    fn action_uses_previous_values() {
        // raiselimit-style action logging old and new salary
        let mut cat = Catalog::new();
        let emp = cat
            .create(
                "emp",
                Schema::of(&[("name", AttrType::Str), ("sal", AttrType::Float)]),
            )
            .unwrap();
        cat.create(
            "salaryerror",
            Schema::of(&[
                ("name", AttrType::Str),
                ("oldsal", AttrType::Float),
                ("newsal", AttrType::Float),
            ]),
        )
        .unwrap();
        let tid = cat
            .rel_mut(emp)
            .unwrap()
            .insert(vec!["bob".into(), 120_000.0.into()])
            .unwrap();
        let mut pnode = Pnode::new(vec![PnodeCol {
            var: "emp".into(),
            rel: "emp".into(),
            schema: cat.rel(emp).unwrap().schema().clone(),
            has_prev: true,
        }]);
        pnode.push(vec![BoundVar::with_prev(
            Some(tid),
            cat.rel(emp).unwrap().get(tid).cloned().unwrap(),
            Tuple::new(vec!["bob".into(), Value::Float(100_000.0)]),
        )]);
        Rule::new(
            "append salaryerror (name = emp.name, oldsal = previous emp.sal, newsal = emp.sal)",
        )
        .fire(&pnode, &mut cat)
        .unwrap();
        let log = cat.get("salaryerror").unwrap();
        let (_, row) = log.scan().next().unwrap();
        assert_eq!(row.get(1), &Value::Float(100_000.0));
        assert_eq!(row.get(2), &Value::Float(120_000.0));
    }
}
