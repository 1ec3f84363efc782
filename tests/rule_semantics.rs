//! Rule-execution semantics: the recognize-act cycle, conflict resolution,
//! cascades, halt, runaway protection, set-oriented firing, and rule
//! lifecycle management.

use ariel::storage::Value;
use ariel::{Ariel, ArielError, EngineOptions};

fn db_with_log() -> Ariel {
    let mut db = Ariel::new();
    db.execute("create items (x = int); create log (who = string, x = int)")
        .unwrap();
    db
}

fn log_entries(db: &mut Ariel) -> Vec<(String, i64)> {
    db.query("retrieve (log.all)")
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_i64().unwrap()))
        .collect()
}

#[test]
fn priority_orders_firing() {
    let mut db = db_with_log();
    // both rules match the same insert; high must fire before low
    db.execute(
        r#"define rule low priority 1 on append items then append to log(who = "low", x = 0)"#,
    )
    .unwrap();
    db.execute(
        r#"define rule high priority 9 on append items then append to log(who = "high", x = 0)"#,
    )
    .unwrap();
    db.execute("append items (x = 1)").unwrap();
    let log = log_entries(&mut db);
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].0, "high");
    assert_eq!(log[1].0, "low");
}

#[test]
fn set_oriented_firing_processes_whole_pnode() {
    // one firing handles every matched tuple: the rule logs each matched
    // item, and the engine fires it once for the three-row transition
    let mut db = db_with_log();
    db.execute("define rule all if items.x > 10 then append to log(who = \"r\", x = items.x)")
        .unwrap();
    db.execute("do append items (x = 11) append items (x = 12) append items (x = 13) end")
        .unwrap();
    assert_eq!(log_entries(&mut db).len(), 3);
    assert_eq!(db.stats().firings, 1, "one set-oriented firing");
}

#[test]
fn cascading_rules() {
    // rule A's action triggers rule B
    let mut db = db_with_log();
    db.execute("create stage2 (x = int)").unwrap();
    db.execute("define rule a on append items then append to stage2(x = items.x)")
        .unwrap();
    db.execute("define rule b on append stage2 then append to log(who = \"b\", x = stage2.x)")
        .unwrap();
    db.execute("append items (x = 7)").unwrap();
    assert_eq!(log_entries(&mut db), vec![("b".to_string(), 7)]);
    assert_eq!(db.stats().firings, 2);
}

#[test]
fn halt_stops_the_cycle() {
    let mut db = db_with_log();
    db.execute(
        r#"define rule stopper priority 10 on append items then do
             append to log(who = "stopper", x = 0)
             halt
           end"#,
    )
    .unwrap();
    db.execute(
        r#"define rule never priority 1 on append items then append to log(who = "never", x = 0)"#,
    )
    .unwrap();
    db.execute("append items (x = 1)").unwrap();
    let log = log_entries(&mut db);
    assert_eq!(log.len(), 1);
    assert_eq!(
        log[0].0, "stopper",
        "halt prevented the lower-priority rule"
    );
}

#[test]
fn runaway_cascade_detected() {
    // a rule that re-triggers itself forever: every append spawns another
    let mut db = Ariel::with_options(EngineOptions {
        max_firings: 25,
        ..Default::default()
    });
    db.execute("create items (x = int)").unwrap();
    db.execute("define rule loopy on append items then append to items(x = items.x + 1)")
        .unwrap();
    let err = db.execute("append items (x = 0)").unwrap_err();
    assert!(matches!(err, ArielError::RunawayRules { limit: 25 }));
}

#[test]
fn refraction_no_refire_on_same_data() {
    // a pattern rule must not re-fire on data it already processed
    let mut db = db_with_log();
    db.execute("define rule watch if items.x > 0 then append to log(who = \"w\", x = items.x)")
        .unwrap();
    db.execute("append items (x = 5)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 1);
    // an unrelated transition must not re-fire it
    db.execute("append items (x = -1)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 1);
}

#[test]
fn pattern_rule_fires_on_preexisting_data_after_activation() {
    let mut db = db_with_log();
    db.execute("append items (x = 42)").unwrap();
    // activation loads the P-node from existing data (§6); the rule fires
    // at the next recognize-act opportunity
    db.execute("define rule seed if items.x > 0 then append to log(who = \"s\", x = items.x)")
        .unwrap();
    assert_eq!(db.pending_matches("seed").unwrap(), 1);
    db.run_rules().unwrap();
    assert_eq!(log_entries(&mut db), vec![("s".to_string(), 42)]);
}

#[test]
fn deactivate_and_reactivate() {
    let mut db = db_with_log();
    db.execute("define rule r on append items then append to log(who = \"r\", x = items.x)")
        .unwrap();
    db.execute("append items (x = 1)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 1);
    db.execute("deactivate rule r").unwrap();
    db.execute("append items (x = 2)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 1, "inactive rule is silent");
    db.execute("activate rule r").unwrap();
    db.execute("append items (x = 3)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 2);
    // lifecycle errors
    assert!(matches!(
        db.activate_rule("r"),
        Err(ArielError::AlreadyActive(_))
    ));
    db.execute("deactivate rule r").unwrap();
    assert!(matches!(
        db.deactivate_rule("r"),
        Err(ArielError::NotActive(_))
    ));
}

#[test]
fn drop_rule_removes_it() {
    let mut db = db_with_log();
    db.execute("define rule r on append items then append to log(who = \"r\", x = 0)")
        .unwrap();
    db.execute("destroy rule r").unwrap();
    db.execute("append items (x = 1)").unwrap();
    assert!(log_entries(&mut db).is_empty());
    assert!(matches!(
        db.execute("destroy rule r"),
        Err(ArielError::UnknownRule(_))
    ));
}

#[test]
fn duplicate_rule_name_rejected() {
    let mut db = db_with_log();
    db.execute("define rule r if items.x > 0 then halt")
        .unwrap();
    assert!(matches!(
        db.execute("define rule r if items.x > 1 then halt"),
        Err(ArielError::DuplicateRule(_))
    ));
}

#[test]
fn destroy_relation_in_use_rejected() {
    let mut db = db_with_log();
    db.execute("define rule r if items.x > 0 then append to log(who = \"r\", x = 0)")
        .unwrap();
    let err = db.execute("destroy items").unwrap_err();
    assert!(matches!(err, ArielError::RelationInUse { .. }));
    // deactivating frees the relation
    db.execute("deactivate rule r").unwrap();
    db.execute("destroy items").unwrap();
}

#[test]
fn rulesets_group_rules() {
    let mut db = db_with_log();
    db.execute("define rule a in payroll if items.x > 0 then halt")
        .unwrap();
    db.execute("define rule b if items.x > 0 then halt")
        .unwrap();
    let in_payroll: Vec<_> = db
        .rules()
        .in_ruleset("payroll")
        .map(|r| r.name.clone())
        .collect();
    assert_eq!(in_payroll, vec!["a"]);
    let default: Vec<_> = db
        .rules()
        .in_ruleset(ariel::DEFAULT_RULESET)
        .map(|r| r.name.clone())
        .collect();
    assert_eq!(default, vec!["b"]);
}

#[test]
fn rule_action_error_names_the_rule() {
    let mut db = db_with_log();
    // the action divides by zero at fire time
    db.execute("define rule bad if items.x > 0 then append to log(who = \"b\", x = items.x / 0)")
        .unwrap();
    let err = db.execute("append items (x = 1)").unwrap_err();
    match err {
        ArielError::RuleAction { rule, .. } => assert_eq!(rule, "bad"),
        other => panic!("expected RuleAction, got {other:?}"),
    }
}

#[test]
fn on_delete_rule_logs_dead_tuples() {
    let mut db = db_with_log();
    db.execute("define rule obit on delete items then append to log(who = \"gone\", x = items.x)")
        .unwrap();
    db.execute("append items (x = 9)").unwrap();
    db.execute("delete items where items.x = 9").unwrap();
    assert_eq!(log_entries(&mut db), vec![("gone".to_string(), 9)]);
}

#[test]
fn mutual_rules_with_converging_values_terminate() {
    // two rules that fight but converge: cap at 10 and floor at 5
    let mut db = Ariel::new();
    db.execute("create v (x = int)").unwrap();
    db.execute("define rule cap if v.x > 10 then replace v (x = 10)")
        .unwrap();
    db.execute("define rule floor if v.x < 5 then replace v (x = 5)")
        .unwrap();
    db.execute("append v (x = 100)").unwrap();
    let out = db.query("retrieve (v.all)").unwrap();
    assert_eq!(out.rows[0][0], Value::Int(10));
    db.execute("replace v (x = -3) where v.x = 10").unwrap();
    let out = db.query("retrieve (v.all)").unwrap();
    assert_eq!(out.rows[0][0], Value::Int(5));
}

#[test]
fn engine_stats_accumulate() {
    let mut db = db_with_log();
    db.execute("define rule r on append items then append to log(who = \"r\", x = 0)")
        .unwrap();
    db.execute("append items (x = 1)").unwrap();
    let s = db.stats();
    assert!(s.transitions >= 2, "user command + rule action");
    assert!(s.tokens >= 2);
    assert_eq!(s.firings, 1);
}

#[test]
fn ruleset_activation_toggles_groups() {
    let mut db = db_with_log();
    db.execute("define rule a in audit on append items then append to log(who = \"a\", x = 0)")
        .unwrap();
    db.execute("define rule b in audit on append items then append to log(who = \"b\", x = 0)")
        .unwrap();
    db.execute("define rule c on append items then append to log(who = \"c\", x = 0)")
        .unwrap();
    // turn the whole audit ruleset off
    let off = db.deactivate_ruleset("audit").unwrap();
    assert_eq!(off.len(), 2);
    db.execute("append items (x = 1)").unwrap();
    let log = log_entries(&mut db);
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].0, "c");
    // and back on
    let on = db.activate_ruleset("audit").unwrap();
    assert_eq!(on.len(), 2);
    db.execute("append items (x = 2)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 4);
    // toggling an already-consistent set is a no-op
    assert!(db.activate_ruleset("audit").unwrap().is_empty());
    assert!(db.activate_ruleset("no_such_set").unwrap().is_empty());
}

#[test]
fn recency_is_stamped_when_a_fired_rule_is_rematched_in_the_same_cycle() {
    // Two equal-priority rules. `a` fires on three rows; its action appends
    // one tuple that matches `a` again and `b` for the first time, in the
    // same cascaded transition. Both gained an instantiation at that tick,
    // so recency ties and the name decides: `a` fires next. (Comparing the
    // new P-node size against the drained one instead — 1 row after 3 —
    // left `a` with its old stamp and let `b` win on "recency".)
    let mut db = db_with_log();
    db.execute(
        r#"define rule a if items.x > 0 then do
             append to log(who = "a", x = items.x)
             append to items(x = items.x + 497) where items.x = 3
           end"#,
    )
    .unwrap();
    db.execute(r#"define rule b if items.x > 100 then append to log(who = "b", x = items.x)"#)
        .unwrap();
    db.execute("do append items (x = 1) append items (x = 2) append items (x = 3) end")
        .unwrap();
    let order: Vec<(String, i64)> = log_entries(&mut db);
    let firing_order: Vec<&str> = order.iter().map(|(who, _)| who.as_str()).collect();
    assert_eq!(firing_order, ["a", "a", "a", "a", "b"], "{order:?}");
    assert_eq!(
        order[3],
        ("a".to_string(), 500),
        "a saw the cascaded row first"
    );
    assert_eq!(db.stats().firings, 3);
}

/// Prepared rule actions follow DDL between firings: each scripted step
/// changes something the action was derived from, and the next firing —
/// and `explain rule`, which shows what that firing runs — sees it, with
/// the errors a fresh derivation gives.
#[test]
fn prepared_actions_follow_ddl_between_firings() {
    let mut db = Ariel::new();
    db.execute(
        "create emp (id = int, dno = int); create dept (dno = int, name = string); \
         create audit (id = int, dept = string)",
    )
    .unwrap();
    for i in 0..20 {
        db.execute(&format!(r#"append dept (dno = {i}, name = "d{i}")"#))
            .unwrap();
    }
    db.execute(
        "define rule log on append emp \
         then append to audit (id = emp.id, dept = dept.name) where dept.dno = emp.dno",
    )
    .unwrap();
    let derived = |db: &Ariel| (db.stats().action_prepares, db.stats().action_replans);
    let explain = |db: &Ariel| db.explain_rule_action("log").unwrap();
    let plan = explain(&db);
    assert!(plan.contains("(fresh)"), "nothing prepared yet: {plan}");
    db.execute("append emp (id = 1, dno = 1)").unwrap();
    assert_eq!(derived(&db), (1, 0));
    let plan = explain(&db);
    assert!(plan.contains("(prepared)"), "{plan}");
    assert!(plan.contains("NestedLoopJoin"), "{plan}");

    // an index on the relation the action joins: explain shows the index
    // path the next firing derives, and the firing re-plans onto it
    db.execute("define index on dept (dno) using hash").unwrap();
    let plan = explain(&db);
    assert!(plan.contains("(fresh)"), "{plan}");
    assert!(plan.contains("IndexedLoopJoin"), "{plan}");
    db.execute("append emp (id = 2, dno = 2)").unwrap();
    assert_eq!(derived(&db), (1, 1));
    let plan = explain(&db);
    assert!(plan.contains("(prepared)"), "{plan}");
    assert!(plan.contains("IndexedLoopJoin"), "{plan}");

    // an interning toggle: resolved constants may be symbols
    db.catalog_mut().set_intern_strings(false);
    db.execute("append emp (id = 3, dno = 3)").unwrap();
    assert_eq!(derived(&db), (1, 2));
    db.catalog_mut().set_intern_strings(true);

    // deactivation drops the prepared action; the next activation's first
    // firing prepares it again
    db.execute("deactivate rule log").unwrap();
    db.execute("activate rule log").unwrap();
    assert!(explain(&db).contains("(fresh)"));
    db.execute("append emp (id = 4, dno = 4)").unwrap();
    assert_eq!(derived(&db), (2, 2));
    assert_eq!(db.query("retrieve (audit.all)").unwrap().rows.len(), 4);

    // the target destroyed and re-created with another arity: the firing
    // fails as a fresh resolution does, and keeps nothing prepared
    db.execute("destroy audit").unwrap();
    db.execute("create audit (id = int)").unwrap();
    let err = db.execute("append emp (id = 5, dno = 5)").unwrap_err();
    assert_eq!(
        err.to_string(),
        "while executing action of rule `log`: semantic error: relation `audit` has no attribute `dept`"
    );
    assert!(
        db.explain_rule_action("log").is_err(),
        "explain derives afresh, and fails alike"
    );
    db.execute("destroy audit").unwrap();
    db.execute("create audit (id = int, dept = string)")
        .unwrap();
    db.execute("append emp (id = 6, dno = 6)").unwrap();
    assert_eq!(derived(&db), (3, 2));
    assert_eq!(
        db.query("retrieve (audit.dept)").unwrap().rows,
        vec![vec![Value::from("d6")]]
    );

    // `retrieve into` in an action: the first firing creates the
    // destination, so the second fails as a fresh derivation does
    db.execute("define rule snap on append dept then retrieve into snapshot (n = dept.name)")
        .unwrap();
    db.execute(r#"append dept (dno = 100, name = "x")"#)
        .unwrap();
    assert_eq!(db.query("retrieve (snapshot.n)").unwrap().rows.len(), 1);
    let err = db
        .execute(r#"append dept (dno = 101, name = "y")"#)
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "while executing action of rule `snap`: storage error: relation already exists: snapshot"
    );
    assert_eq!(derived(&db), (4, 3), "snap was prepared, then re-planned");
}
