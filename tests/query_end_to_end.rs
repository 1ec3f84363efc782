//! The POSTQUEL-subset query language through the engine: DDL, DML,
//! retrieval, joins, indexes, and blocks — no rules involved.

use ariel::storage::Value;
use ariel::{Ariel, ArielError};

fn sample_db() -> Ariel {
    let mut db = Ariel::new();
    db.execute(
        "create emp (name = string, sal = float, dno = int); \
         create dept (dno = int, name = string)",
    )
    .unwrap();
    for (n, s, d) in [
        ("alice", 40_000.0, 1),
        ("bob", 55_000.0, 1),
        ("carol", 70_000.0, 2),
        ("dan", 35_000.0, 3),
    ] {
        db.execute(&format!(
            r#"append emp (name = "{n}", sal = {s}, dno = {d})"#
        ))
        .unwrap();
    }
    for (d, n) in [(1, "Sales"), (2, "Toy"), (3, "Shoe")] {
        db.execute(&format!(r#"append dept (dno = {d}, name = "{n}")"#))
            .unwrap();
    }
    db
}

#[test]
fn retrieve_with_computed_targets() {
    let mut db = sample_db();
    let out = db
        .query("retrieve (who = emp.name, monthly = emp.sal / 12) where emp.dno = 1")
        .unwrap();
    assert_eq!(out.columns, vec!["who", "monthly"]);
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn retrieve_join_two_relations() {
    let mut db = sample_db();
    let out = db
        .query(
            "retrieve (emp.name, dept.name) \
             where emp.dno = dept.dno and emp.sal > 50000",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2); // bob/Sales, carol/Toy
}

#[test]
fn retrieve_with_from_aliases() {
    let mut db = sample_db();
    // self-join: pairs of employees in the same department
    let out = db
        .query(
            "retrieve (a.name, b.name) from a in emp, b in emp \
             where a.dno = b.dno and a.name != b.name",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2); // (alice,bob) and (bob,alice)
}

#[test]
fn retrieve_into_materializes() {
    let mut db = sample_db();
    db.query("retrieve into rich (emp.all) where emp.sal > 50000")
        .unwrap();
    let out = db.query("retrieve (rich.name)").unwrap();
    assert_eq!(out.rows.len(), 2);
    // destination must not pre-exist
    assert!(db.query("retrieve into rich (emp.all)").is_err());
}

#[test]
fn indexes_speed_up_without_changing_results() {
    let mut db = sample_db();
    let before = db
        .query("retrieve (emp.name) where emp.dno = 1")
        .unwrap()
        .rows
        .len();
    db.execute("define index on emp (dno) using hash").unwrap();
    db.execute("define index on emp (sal) using btree").unwrap();
    let after = db
        .query("retrieve (emp.name) where emp.dno = 1")
        .unwrap()
        .rows
        .len();
    assert_eq!(before, after);
    let ranged = db
        .query("retrieve (emp.name) where emp.sal > 40000 and emp.sal <= 70000")
        .unwrap();
    assert_eq!(ranged.rows.len(), 2);
}

#[test]
fn replace_with_join_qualification() {
    let mut db = sample_db();
    db.execute(r#"replace emp (sal = 0) where emp.dno = dept.dno and dept.name = "Sales""#)
        .unwrap();
    let zeroed = db
        .query("retrieve (emp.name) where emp.sal = 0")
        .unwrap()
        .rows
        .len();
    assert_eq!(zeroed, 2);
}

#[test]
fn delete_everything_with_always_true() {
    let mut db = sample_db();
    db.execute("delete emp where emp.sal > 0").unwrap();
    assert!(db.query("retrieve (emp.name)").unwrap().rows.is_empty());
}

#[test]
fn block_is_atomic_unit_of_commands() {
    let mut db = sample_db();
    db.execute(
        "do append dept (dno = 9, name = \"New\") \
            replace dept (name = \"Newer\") where dept.dno = 9 \
         end",
    )
    .unwrap();
    let out = db.query("retrieve (dept.name) where dept.dno = 9").unwrap();
    assert_eq!(out.rows[0][0], Value::from("Newer"));
}

#[test]
fn ddl_inside_block_rejected() {
    let mut db = sample_db();
    let err = db.execute("do create t (x = int) end").unwrap_err();
    assert!(matches!(err, ArielError::Query(_)));
}

#[test]
fn destroy_and_recreate_relation() {
    let mut db = sample_db();
    db.execute("destroy dept").unwrap();
    assert!(db.query("retrieve (dept.name)").is_err());
    db.execute("create dept (dno = int, name = string)")
        .unwrap();
    assert!(db.query("retrieve (dept.name)").unwrap().rows.is_empty());
}

#[test]
fn arithmetic_and_boolean_expressions() {
    let mut db = sample_db();
    let out = db
        .query(
            "retrieve (emp.name) \
             where emp.sal * 2 > 100000 and not emp.dno = 3 or emp.name = \"dan\"",
        )
        .unwrap();
    let mut names: Vec<_> = out
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    names.sort();
    assert_eq!(names, vec!["bob", "carol", "dan"]);
}

#[test]
fn append_computed_from_join() {
    let mut db = sample_db();
    db.execute("create payroll (dept = string, cost = float)")
        .unwrap();
    db.execute(r#"append payroll (dept = dept.name, cost = emp.sal) where emp.dno = dept.dno"#)
        .unwrap();
    assert_eq!(db.query("retrieve (payroll.all)").unwrap().rows.len(), 4);
}

#[test]
fn errors_are_reported_not_panics() {
    let mut db = sample_db();
    assert!(db.execute("retrieve (nothere.x)").is_err());
    assert!(db.execute("append emp (bogus = 1)").is_err());
    assert!(db.execute("this is not a command").is_err());
    assert!(
        db.execute("create emp (x = int)").is_err(),
        "duplicate relation"
    );
    assert!(db
        .execute("retrieve (emp.name) where emp.name > 5")
        .is_err());
    // the engine stays usable after errors
    assert_eq!(db.query("retrieve (emp.name)").unwrap().rows.len(), 4);
}

#[test]
fn script_returns_one_output_per_command() {
    let mut db = Ariel::new();
    let outs = db
        .execute("create t (x = int); append t (x = 1); retrieve (t.x)")
        .unwrap();
    assert_eq!(outs.len(), 3);
    assert_eq!(outs[2].rows.len(), 1);
}

#[test]
fn null_semantics_in_queries() {
    let mut db = Ariel::new();
    db.execute("create t (x = int, y = int)").unwrap();
    db.execute("append t (x = 1)").unwrap(); // y is null
    let out = db.query("retrieve (t.x) where t.y = t.y").unwrap();
    assert!(out.rows.is_empty(), "null never equals anything");
    let out = db.query("retrieve (t.x) where t.x = 1").unwrap();
    assert_eq!(out.rows.len(), 1);
}

#[test]
fn explain_shows_plan_without_executing() {
    let db = sample_db();
    let before = db.stats().transitions;
    let plan = db
        .explain("retrieve (emp.name) where emp.dno = dept.dno")
        .unwrap();
    assert!(plan.contains("NestedLoopJoin") || plan.contains("SortMergeJoin"));
    // nothing was executed
    assert_eq!(db.stats().transitions, before);
}

#[test]
fn explain_rule_action_reproduces_figure8_shape() {
    // Fig. 8: the rule-action plan scans the P-node and joins dept
    let mut db = sample_db();
    db.execute(
        r#"define rule cap if emp.sal > 100 then
           replace emp (sal = 100) where emp.dno = dept.dno and dept.name = "Sales""#,
    )
    .unwrap();
    let plan = db.explain_rule_action("cap").unwrap();
    assert!(plan.contains("PnodeScan"), "{plan}");
    assert!(plan.contains("Join"), "{plan}");
    // inactive rules cannot be explained
    db.execute("deactivate rule cap").unwrap();
    assert!(db.explain_rule_action("cap").is_err());
}

/// A null passes no comparison, with or without an index: a B-tree range
/// open below (`emp.sal < …`) reaches the null keys, which sort first,
/// and must not return them.
#[test]
fn a_range_index_scan_returns_no_null() {
    let mut db = sample_db();
    db.execute(r#"append emp (name = "nosal", dno = 1)"#)
        .unwrap();
    let query = "retrieve (emp.name) where emp.sal < 50000";
    let scanned = db.query(query).unwrap().rows;
    db.execute("define index on emp (sal) using btree").unwrap();
    let mut probed = db.query(query).unwrap().rows;
    probed.sort_by(|a, b| a[0].total_cmp(&b[0]));
    assert_eq!(probed, scanned);
    assert_eq!(probed.len(), 2, "alice and dan: {probed:?}");
}
