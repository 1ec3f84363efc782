//! Workload generators for the benchmark harness.
//!
//! Reproduces the experimental setup of §6 of the paper:
//!
//! * the `emp` (25 tuples), `dept` (7) and `job` (5) relations;
//! * three rule types with 1, 2 and 3 tuple variables, each carrying a
//!   single-relation band predicate `Cᵢ < emp.sal <= Cᵢ + 10000` with
//!   `Cᵢ = i · 1000`, so any one salary value matches at most 10 rules
//!   regardless of how many rules are installed;
//! * token tests driven by "a token generated by a single insert into emp".

use ariel::network::{EventSpecifier, Token, VirtualPolicy};
use ariel::storage::Value;
use ariel::{Ariel, EngineOptions};

/// Width of each rule's salary band.
pub const BAND_WIDTH: i64 = 10_000;
/// Gap between consecutive rules' band starts.
pub const BAND_STEP: i64 = 1_000;
/// A salary that falls inside exactly 10 bands once ≥ 21 rules exist.
pub const PROBE_SAL: f64 = 20_500.0;

/// Build the paper's benchmark database: emp(25), dept(7), job(5), plus a
/// `bench_log` relation rule actions append to.
pub fn paper_db(policy: VirtualPolicy) -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        ..Default::default()
    });
    db.execute(
        "create emp (name = string, age = int, sal = float, dno = int, jno = int); \
         create dept (dno = int, name = string, building = string); \
         create job (jno = int, title = string, paygrade = int, description = string); \
         create bench_log (name = string)",
    )
    .expect("schema");
    {
        let cat = db.catalog_mut();
        let emp = cat.get_mut("emp").unwrap();
        for i in 0..25i64 {
            emp.insert(vec![
                format!("e{i}").into(),
                (20 + i).into(),
                ((i * 1000) as f64).into(),
                (i % 7).into(),
                (i % 5).into(),
            ])
            .expect("emp row");
        }
        let dept = cat.get_mut("dept").unwrap();
        for i in 0..7i64 {
            dept.insert(vec![i.into(), format!("d{i}").into(), "HQ".into()])
                .expect("dept row");
        }
        let job = cat.get_mut("job").unwrap();
        for i in 0..5i64 {
            job.insert(vec![i.into(), format!("j{i}").into(), i.into(), "-".into()])
                .expect("job row");
        }
    }
    db
}

/// ARL source of benchmark rule `i` with `vars` tuple variables (1–3).
pub fn rule_src(vars: usize, i: usize) -> String {
    let c1 = i as i64 * BAND_STEP;
    let c2 = c1 + BAND_WIDTH;
    let mut cond = format!("{c1} < emp.sal and emp.sal <= {c2}");
    if vars >= 2 {
        cond.push_str(" and emp.dno = dept.dno");
    }
    if vars >= 3 {
        cond.push_str(" and emp.jno = job.jno");
    }
    format!("define rule bench_{vars}_{i} if {cond} then append to bench_log(name = emp.name)")
}

/// Install `n` rules of the given type (the paper's *installation* phase).
pub fn install_rules(db: &mut Ariel, vars: usize, n: usize) {
    for i in 0..n {
        db.install_rule_src(&rule_src(vars, i)).expect("install");
    }
}

/// Activate the first `n` rules of the given type (the *activation* phase).
pub fn activate_rules(db: &mut Ariel, vars: usize, n: usize) {
    for i in 0..n {
        db.activate_rule(&format!("bench_{vars}_{i}"))
            .expect("activate");
    }
}

/// Insert an emp row directly into storage (bypassing rule processing) and
/// return the `+` token a single `append emp` would have generated.
pub fn emp_plus_token(db: &mut Ariel, sal: f64) -> Token {
    let emp = db.catalog_mut().get_mut("emp").unwrap();
    let tid = emp
        .insert(vec![
            "probe".into(),
            30i64.into(),
            sal.into(),
            1i64.into(),
            1i64.into(),
        ])
        .expect("probe row");
    let tuple = emp.get(tid).cloned().unwrap();
    let rel = db.catalog().id("emp").unwrap();
    Token::plus(rel, tid, tuple, EventSpecifier::Append)
}

/// The `−` token a `delete` of the probe row behind `token` would generate.
pub fn delete_token_for(token: &Token) -> Token {
    Token::minus(
        token.rel,
        token.tid,
        token.tuple.clone(),
        EventSpecifier::Delete,
    )
}

/// Undo a probe insertion: delete the row, then retract its matches (a
/// batch is matched against the relations at its end state).
pub fn undo_emp_token(db: &mut Ariel, token: &Token) {
    let emp = db.catalog_mut().get_mut("emp").unwrap();
    emp.delete(token.tid).expect("cleanup");
    db.match_tokens(&[delete_token_for(token)])
        .expect("retract");
}

/// Insert a dept row directly into storage and return its `+` token (used
/// by the VIRT ablation: dept tokens join *into* the emp α-memory).
pub fn dept_plus_token(db: &mut Ariel, dno: i64, name: &str) -> Token {
    let dept = db.catalog_mut().get_mut("dept").unwrap();
    let arity = dept.schema().arity();
    let mut row: Vec<Value> = vec![dno.into(), name.into()];
    if arity == 3 {
        row.push("HQ".into());
    }
    let tid = dept.insert(row).expect("dept row");
    let tuple = dept.get(tid).cloned().unwrap();
    let rel = db.catalog().id("dept").unwrap();
    Token::plus(rel, tid, tuple, EventSpecifier::Append)
}

/// Remove a probe dept row and retract its matches.
pub fn undo_dept_token(db: &mut Ariel, token: &Token) {
    let dept = db.catalog_mut().get_mut("dept").unwrap();
    dept.delete(token.tid).expect("cleanup");
    db.match_tokens(&[delete_token_for(token)])
        .expect("retract");
}

/// A rule-condition tester with **no** discrimination index: every rule's
/// selection predicate is evaluated, as a resolved expression, against
/// every token — what a rule system without a selection network must do.
/// This is the §6 comparison point "rule condition testing techniques that
/// do not use some form of discrimination network simply cannot compete
/// when the number of rules becomes large".
#[derive(Debug, Default)]
pub struct NaiveMatcher {
    preds: Vec<ariel::query::RExpr>,
}

impl NaiveMatcher {
    /// Build a matcher holding `n` band predicates (same bands as
    /// [`rule_src`]), each kept as a resolved expression tree.
    pub fn with_rules(n: usize) -> Self {
        use ariel::query::{BinOp, RExpr};
        let attr = RExpr::Attr { var: 0, attr: 2 }; // emp.sal
        NaiveMatcher {
            preds: (0..n)
                .map(|i| {
                    let c1 = i as i64 * BAND_STEP;
                    let c2 = c1 + BAND_WIDTH;
                    RExpr::Binary {
                        op: BinOp::And,
                        left: Box::new(RExpr::Binary {
                            op: BinOp::Gt,
                            left: Box::new(attr.clone()),
                            right: Box::new(RExpr::Const(Value::Int(c1))),
                        }),
                        right: Box::new(RExpr::Binary {
                            op: BinOp::Le,
                            left: Box::new(attr.clone()),
                            right: Box::new(RExpr::Const(Value::Int(c2))),
                        }),
                    }
                })
                .collect(),
        }
    }

    /// Number of rule predicates the tuple satisfies; O(n) expression
    /// evaluations per token.
    pub fn matches(&self, tuple: &ariel::storage::Tuple) -> usize {
        use ariel::query::{eval_pred, SingleEnv};
        let env = SingleEnv { tuple, prev: None };
        self.preds
            .iter()
            .filter(|p| eval_pred(p, &env).unwrap_or(false))
            .count()
    }

    /// Number of stored predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True iff no predicates are stored.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

/// The tuple a probe token carries (for naive-matcher comparisons).
pub fn probe_tuple(sal: f64) -> ariel::storage::Tuple {
    ariel::storage::Tuple::new(vec![
        "probe".into(),
        30i64.into(),
        sal.into(),
        1i64.into(),
        1i64.into(),
    ])
}

/// Build a SalesClerkRule-style database with `emp_rows` employees for the
/// virtual-α-memory ablation; `index_dno` adds a hash index on `emp.dno`
/// (the probe attribute of virtual emp-memory joins).
pub fn scaled_sales_db(policy: VirtualPolicy, emp_rows: usize, index_dno: bool) -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        ..Default::default()
    });
    db.execute(
        "create emp (name = string, sal = float, dno = int, jno = int); \
         create dept (dno = int, name = string); \
         create job (jno = int, title = string); \
         create bench_log (name = string)",
    )
    .expect("schema");
    {
        let cat = db.catalog_mut();
        let emp = cat.get_mut("emp").unwrap();
        if index_dno {
            emp.create_index("dno", ariel::storage::IndexKind::Hash)
                .expect("index");
        }
        for i in 0..emp_rows as i64 {
            emp.insert(vec![
                format!("e{i}").into(),
                (31_000 + (i % 50_000)).into(),
                (i % 100).into(),
                (i % 3).into(),
            ])
            .expect("emp");
        }
        let dept = cat.get_mut("dept").unwrap();
        for i in 0..100i64 {
            dept.insert(vec![
                i.into(),
                if i == 0 {
                    "Sales".into()
                } else {
                    format!("d{i}").into()
                },
            ])
            .expect("dept");
        }
        let job = cat.get_mut("job").unwrap();
        for i in 0..3i64 {
            job.insert(vec![
                i.into(),
                if i == 0 {
                    "Clerk".into()
                } else {
                    format!("j{i}").into()
                },
            ])
            .expect("job");
        }
    }
    // the SalesClerkRule of Fig. 3/4: emp.sal > 30000 is (almost) totally
    // unselective here, so its stored α-memory would mirror the emp table
    db.install_rule_src(
        "define rule SalesClerkRule \
         if emp.sal > 30000 and emp.dno = dept.dno and dept.name = \"Sales\" \
            and emp.jno = job.jno and job.title = \"Clerk\" \
         then append to bench_log(name = emp.name)",
    )
    .expect("install");
    db.activate_rule("SalesClerkRule").expect("activate");
    db
}

#[cfg(test)]
mod harness_tests {
    use super::measure;
    use super::table::{aggregate, Row};

    fn find<'a>(rows: &'a [Row], keys: &[&str], label: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.label(keys) == label)
            .unwrap_or_else(|| panic!("no row {label}"))
    }

    fn num(row: &Row, col: &str) -> f64 {
        row.num(col).unwrap_or_else(|| panic!("no number {col}"))
    }

    /// The measurement harness itself must keep working (tiny parameters).
    #[test]
    fn measure_functions_smoke() {
        let rows = measure::fig_table(1, &[5], 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].num("rules"), Some(5.0));

        assert_eq!(measure::action_times(2).len(), 3);
        assert_eq!(measure::scale_table(&[25], 3).len(), 1);

        let virt = measure::virt_table(&[50], 2);
        assert_eq!(virt.len(), 4, "four configs per size");
        let config = |name: &str| find(&virt, &["config"], name);
        assert!(num(config("virtual"), "alpha_bytes") < num(config("stored"), "alpha_bytes"));

        assert_eq!(measure::islist_table(&[40], 2).len(), 1);

        let net = measure::net_table(3, 30);
        assert_eq!(net.len(), 4);
        let network = |name: &str| find(&net, &["network"], name);
        let treat = network("TREAT (indexed)");
        let rete_ix = network("Rete (indexed)");
        assert_eq!(
            num(treat, "beta_bytes"),
            0.0,
            "TREAT materializes no β state"
        );
        assert_eq!(
            num(network("A-TREAT (all virtual)"), "alpha_bytes"),
            0.0,
            "virtual α-memories store nothing"
        );
        assert!(num(rete_ix, "beta_bytes") > 0.0);
        assert!(num(network("Rete (nested)"), "beta_bytes") > 0.0);
        assert!(num(treat, "alpha_bytes") > 0.0);
        // indexed Rete carries the same α planning as TREAT *plus* β state
        assert!(
            num(rete_ix, "alpha_bytes") + num(rete_ix, "beta_bytes") > num(treat, "alpha_bytes"),
            "Rete's β state is the memory cost TREAT avoids"
        );

        assert_eq!(measure::plan_table(5).len(), 2);

        let joins = measure::joins_table(3, 20, 30);
        assert_eq!(
            joins.len(),
            9,
            "4 workloads × indexing on/off + fig13-single"
        );
        let join = |label: &str| find(&joins, &["workload", "indexed"], label);
        for w in ["fig10-2var", "fig11-3var", "fig12-band", "fig13-composite"] {
            let on = join(&format!("{w}/indexed=true"));
            let off = join(&format!("{w}/indexed=false"));
            let (probes, hits) = if w == "fig12-band" {
                ("range_probes", "range_hits")
            } else {
                ("index_probes", "index_hits")
            };
            assert!(num(on, probes) > 0.0 && num(on, hits) > 0.0, "{w}");
            assert_eq!(num(off, probes), 0.0, "{w}: a nested plan never probes");
            assert!(
                num(on, "join_candidates") < num(off, "join_candidates"),
                "{w}: index probes must shrink the candidate stream"
            );
        }
        assert!(
            num(join("fig13-composite/indexed=true"), "join_candidates")
                < num(join("fig13-single/indexed=true"), "join_candidates"),
            "composite keys beat probe-then-retest"
        );

        let mem = measure::mem_table(3, 40, 20);
        assert_eq!(mem.len(), 2, "interned and legacy configs");
        let interned = find(&mem, &["config"], "interned");
        let legacy = find(&mem, &["config"], "legacy");
        assert_eq!(
            num(interned, "alpha_entries"),
            num(legacy, "alpha_entries"),
            "layout must not change what is matched"
        );
        assert!(
            num(interned, "rel_bytes") < num(legacy, "rel_bytes"),
            "interned tuples must shrink the relations"
        );
        assert_eq!(
            num(interned, "alpha_bytes"),
            num(legacy, "alpha_bytes"),
            "a stored memory holds no tuple bytes"
        );
        // a second run (its names already interned) repeats every count
        aggregate("mem", &[mem.clone(), measure::mem_table(3, 40, 20)]).unwrap();

        let wal = measure::wal_table(2, 3);
        assert_eq!(wal.len(), 3, "off, commit, batch");
        let mode = |name: &str| find(&wal, &["mode"], name);
        assert_eq!(
            num(mode("off"), "wal_records"),
            0.0,
            "durability off logs nothing"
        );
        assert_eq!(num(mode("off"), "wal_bytes"), 0.0);
        assert_eq!(
            num(mode("commit"), "wal_records"),
            6.0,
            "one record per committed command"
        );
        for col in ["wal_records", "wal_bytes"] {
            assert_eq!(
                mode("commit").get(col),
                mode("batch").get(col),
                "sync policy must not change what is logged"
            );
        }

        let trace = measure::trace_table(3, 10);
        assert_eq!(trace.len(), 1);
        assert!(num(&trace[0], "recorded") > 0.0);
        assert!(num(&trace[0], "firing") > 0.0, "the run fires rules");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_db_shape() {
        let db = paper_db(VirtualPolicy::AllStored);
        assert_eq!(db.catalog().get("emp").unwrap().len(), 25);
        assert_eq!(db.catalog().get("dept").unwrap().len(), 7);
        assert_eq!(db.catalog().get("job").unwrap().len(), 5);
    }

    #[test]
    fn rule_src_shapes() {
        let r1 = rule_src(1, 3);
        assert!(r1.contains("3000 < emp.sal and emp.sal <= 13000"));
        assert!(!r1.contains("dept"));
        let r2 = rule_src(2, 0);
        assert!(r2.contains("emp.dno = dept.dno"));
        let r3 = rule_src(3, 0);
        assert!(r3.contains("emp.jno = job.jno"));
    }

    #[test]
    fn install_activate_and_probe() {
        let mut db = paper_db(VirtualPolicy::AllStored);
        install_rules(&mut db, 2, 25);
        activate_rules(&mut db, 2, 25);
        // activation already primed P-nodes from pre-existing data; the
        // probe should add matches to exactly the 10 bands containing it
        let before: Vec<usize> = (0..25)
            .map(|i| db.pending_matches(&format!("bench_2_{i}")).unwrap())
            .collect();
        let token = emp_plus_token(&mut db, PROBE_SAL);
        db.match_tokens(std::slice::from_ref(&token)).unwrap();
        let grew = (0..25)
            .filter(|&i| db.pending_matches(&format!("bench_2_{i}")).unwrap() > before[i])
            .count();
        assert_eq!(grew, 10, "bands 11..=20 contain 20,500");
        undo_emp_token(&mut db, &token);
        let after: Vec<usize> = (0..25)
            .map(|i| db.pending_matches(&format!("bench_2_{i}")).unwrap())
            .collect();
        assert_eq!(after, before, "undo restores the P-nodes");
        assert_eq!(db.catalog().get("emp").unwrap().len(), 25);
    }

    #[test]
    fn naive_matcher_agrees_with_bands() {
        let m = NaiveMatcher::with_rules(200);
        assert_eq!(m.matches(&probe_tuple(PROBE_SAL)), 10);
        assert_eq!(m.matches(&probe_tuple(-5.0)), 0);
        assert_eq!(m.len(), 200);
    }

    #[test]
    fn scaled_db_builds_with_all_policies() {
        for policy in [VirtualPolicy::AllStored, VirtualPolicy::AllVirtual] {
            let mut db = scaled_sales_db(policy, 200, true);
            let t = dept_plus_token(&mut db, 0, "Sales");
            db.match_tokens(std::slice::from_ref(&t)).unwrap();
            let matches = db.pending_matches("SalesClerkRule").unwrap();
            assert!(matches > 0, "Sales dept joins clerk emps");
            undo_dept_token(&mut db, &t);
        }
    }

    #[test]
    fn stored_vs_virtual_memory_footprint() {
        let stored = scaled_sales_db(VirtualPolicy::AllStored, 1000, false);
        let virt = scaled_sales_db(VirtualPolicy::AllVirtual, 1000, false);
        let sb = stored.network_stats().alpha_bytes;
        let vb = virt.network_stats().alpha_bytes;
        assert!(
            vb * 10 < sb,
            "virtual α-memories should save >90% here (stored={sb}, virtual={vb})"
        );
    }
}

pub mod serve;
pub mod table;

/// The experiments behind `paper_tables`: every table and figure of §6
/// plus the ablations listed in DESIGN.md. Each function runs its
/// experiment once and returns one [`Row`](crate::table::Row) per
/// configuration.
pub mod measure {
    use super::*;
    use crate::table::Row;
    use ariel::islist::{Interval, IntervalSkipList, IntervalTree, NaiveIntervalSet};
    use ariel::network::{JoinAccess, Network, NetworkStats, ReteNetwork, RuleId};
    use ariel::query::{parse_expr, ResolvedCondition, Resolver};
    use ariel::storage::{AttrType, Catalog, Schema};
    use std::time::{Duration, Instant};

    /// Reproduce Figure 9 (vars = 1), 10 (vars = 2) or 11 (vars = 3):
    /// total installation time, total activation time, and per-token test
    /// time (mean over `token_reps` tokens) for `ns` rules. Each row is
    /// keyed by its figure (`fig9`…`fig11`) and rule count, so the three
    /// figures share one `BENCH_fig.json`.
    pub fn fig_table(vars: usize, ns: &[usize], token_reps: usize) -> Vec<Row> {
        let fig = format!("fig{}", 8 + vars);
        ns.iter()
            .map(|&n| {
                let mut db = paper_db(VirtualPolicy::AllStored);
                let t0 = Instant::now();
                install_rules(&mut db, vars, n);
                let install = t0.elapsed();
                let t0 = Instant::now();
                activate_rules(&mut db, vars, n);
                let activate = t0.elapsed();
                let mut total = Duration::ZERO;
                for _ in 0..token_reps {
                    let token = emp_plus_token(&mut db, PROBE_SAL);
                    let t0 = Instant::now();
                    db.match_tokens(std::slice::from_ref(&token))
                        .expect("match");
                    total += t0.elapsed();
                    undo_emp_token(&mut db, &token);
                }
                Row::new()
                    .key("fig", &fig)
                    .count("rules", n)
                    .ms("install_ms", install)
                    .ms("activate_ms", activate)
                    .us("token_test_us", total / token_reps as u32)
            })
            .collect()
    }

    /// §6 in-text: mean time to run the action of a type 1/2/3 rule.
    pub fn action_times(reps: usize) -> Vec<Row> {
        (1..=3)
            .map(|vars| {
                let mut db = paper_db(VirtualPolicy::AllStored);
                install_rules(&mut db, vars, 25);
                activate_rules(&mut db, vars, 25);
                // consume activation-primed matches first
                db.run_rules().expect("drain primed matches");
                let mut total = Duration::ZERO;
                for _ in 0..reps {
                    let token = emp_plus_token(&mut db, PROBE_SAL);
                    db.match_tokens(std::slice::from_ref(&token))
                        .expect("match");
                    let t0 = Instant::now();
                    db.run_rules().expect("fire");
                    total += t0.elapsed();
                    undo_emp_token(&mut db, &token);
                }
                Row::new()
                    .count("vars", vars)
                    .us("action_us", total / reps as u32)
            })
            .collect()
    }

    /// SCALE: mean per-operation cost at `ns` installed one-variable band
    /// rules, of which any one salary matches at most 10 — the selection
    /// network for both token polarities, one `append emp` `execute` that
    /// matches and fires the (up to) 10 rules its salary satisfies, and
    /// the naive evaluate-every-predicate matcher.
    pub fn scale_table(ns: &[usize], reps: usize) -> Vec<Row> {
        ns.iter()
            .map(|&n| {
                let mut db = paper_db(VirtualPolicy::AllStored);
                install_rules(&mut db, 1, n);
                activate_rules(&mut db, 1, n);
                let (mut plus_total, mut minus_total) = (Duration::ZERO, Duration::ZERO);
                for _ in 0..reps {
                    let token = emp_plus_token(&mut db, PROBE_SAL);
                    let t0 = Instant::now();
                    db.match_tokens(std::slice::from_ref(&token))
                        .expect("match");
                    plus_total += t0.elapsed();
                    let emp = db.catalog_mut().get_mut("emp").unwrap();
                    emp.delete(token.tid).expect("cleanup");
                    let minus = delete_token_for(&token);
                    let t0 = Instant::now();
                    db.match_tokens(std::slice::from_ref(&minus))
                        .expect("retract");
                    minus_total += t0.elapsed();
                }
                // fire what activation primed, so each timed append fires
                // exactly the rules its own salary satisfies
                db.run_rules().expect("drain primed matches");
                let append = format!(
                    "append emp (name = \"probe\", age = 30, sal = {PROBE_SAL}, dno = 1, jno = 1)"
                );
                let mut firing_total = Duration::ZERO;
                for _ in 0..reps {
                    let fired = db.stats().firings;
                    let t0 = Instant::now();
                    db.execute(&append).expect("append");
                    firing_total += t0.elapsed();
                    assert_eq!(db.stats().firings - fired, 10.min(n) as u64);
                    db.execute("delete emp where emp.name = \"probe\"")
                        .expect("cleanup");
                }
                let naive = NaiveMatcher::with_rules(n);
                let probe = probe_tuple(PROBE_SAL);
                let t0 = Instant::now();
                let mut hits = 0usize;
                for _ in 0..reps {
                    hits += naive.matches(&probe);
                }
                let naive_total = t0.elapsed();
                assert_eq!(hits, reps * 10.min(n));
                let reps = reps as u32;
                Row::new()
                    .count("rules", n)
                    .us("plus_token_us", plus_total / reps)
                    .us("minus_token_us", minus_total / reps)
                    .us("append_firing_us", firing_total / reps)
                    .us("naive_us", naive_total / reps)
                    .time(
                        "speedup",
                        naive_total.as_secs_f64() / plus_total.as_secs_f64(),
                    )
            })
            .collect()
    }

    /// VIRT: α-memory bytes and dept-token join time for the scaled
    /// SalesClerkRule database under different virtualization choices.
    pub fn virt_table(sizes: &[usize], reps: usize) -> Vec<Row> {
        let configs = [
            ("stored", VirtualPolicy::AllStored, false),
            ("virtual", VirtualPolicy::AllVirtual, false),
            ("virtual+index", VirtualPolicy::AllVirtual, true),
            (
                "threshold(0.5)",
                VirtualPolicy::SelectivityThreshold(0.5),
                false,
            ),
        ];
        let mut out = Vec::new();
        for &rows in sizes {
            for (name, policy, index) in &configs {
                let mut db = scaled_sales_db(policy.clone(), rows, *index);
                let alpha_bytes = db.network_stats().alpha_bytes;
                let mut total = Duration::ZERO;
                for _ in 0..reps {
                    let token = dept_plus_token(&mut db, 0, "Sales");
                    let t0 = Instant::now();
                    db.match_tokens(std::slice::from_ref(&token))
                        .expect("match");
                    total += t0.elapsed();
                    undo_dept_token(&mut db, &token);
                }
                out.push(
                    Row::new()
                        .count("emp_rows", rows)
                        .key("config", name)
                        .count("alpha_bytes", alpha_bytes)
                        .us("token_join_us", total / reps as u32),
                );
            }
        }
        out
    }

    /// ISL: mean stabbing time — interval skip list vs augmented interval
    /// tree (the IBS-tree stand-in) vs naive interval set.
    pub fn islist_table(sizes: &[usize], reps: usize) -> Vec<Row> {
        sizes
            .iter()
            .map(|&n| {
                let mut isl: IntervalSkipList<i64> = IntervalSkipList::new();
                let mut tree: IntervalTree<i64> = IntervalTree::new();
                let mut naive: NaiveIntervalSet<i64> = NaiveIntervalSet::new();
                for i in 0..n as i64 {
                    // selective bands: any point hits ~50 intervals no
                    // matter how many are stored (the selection-predicate
                    // workload shape)
                    let iv = Interval::open_closed(i * 10, i * 10 + 500).unwrap();
                    isl.insert(iv.clone());
                    tree.insert(iv.clone());
                    naive.insert(iv);
                }
                let probe = (n as i64 * 10) / 2;
                let time = |stab: &dyn Fn() -> usize| {
                    let t0 = Instant::now();
                    let hits: usize = (0..reps).map(|_| stab()).sum();
                    (t0.elapsed() / reps as u32, hits)
                };
                let (isl_time, isl_hits) = time(&|| isl.stab(&probe).len());
                let (tree_time, tree_hits) = time(&|| tree.stab(&probe).len());
                let (naive_time, naive_hits) = time(&|| naive.stab(&probe).len());
                // hits per stab: `bench_gate isl` holds the three equal
                Row::new()
                    .count("intervals", n)
                    .us("islist_us", isl_time)
                    .us("tree_us", tree_time)
                    .us("naive_us", naive_time)
                    .time(
                        "speedup",
                        naive_time.as_secs_f64() / isl_time.as_secs_f64().max(1e-12),
                    )
                    .count("islist_hits", isl_hits / reps)
                    .count("tree_hits", tree_hits / reps)
                    .count("naive_hits", naive_hits / reps)
            })
            .collect()
    }

    /// NET: token throughput and join-state memory on a fig11-style
    /// three-variable workload — TREAT (indexed) vs A-TREAT (all virtual)
    /// vs Rete with composite and with nested joins. `n_rules` rules (`emp`
    /// band + `emp ⋈ dept ⋈ job` equi-chain) over a stream that churns all
    /// three relations, so `dept`/`job` tokens arrive as right activations
    /// — the case where Rete's β-memories (and their indexes) do the work.
    /// `alpha_bytes` counts entries and join indexes; `beta_bytes` counts
    /// partials and β indexes and is zero for TREAT, which materializes no
    /// β state.
    pub fn net_table(n_rules: usize, stream: usize) -> Vec<Row> {
        let build_catalog = || {
            let mut cat = Catalog::new();
            let int = AttrType::Int;
            relation(&mut cat, "emp", &[("sal", int), ("dno", int)], []);
            let depts = (0..20i64).map(|i| vec![i.into(), (i % 10).into()]);
            relation(&mut cat, "dept", &[("dno", int), ("floor", int)], depts);
            let jobs = (0..10i64).map(|i| vec![i.into(), (i * 100).into()]);
            relation(&mut cat, "job", &[("jno", int), ("pay", int)], jobs);
            cat
        };
        let srcs: Vec<String> = (0..n_rules)
            .map(|i| {
                format!(
                    "{} and emp.dno = dept.dno and dept.floor = job.jno",
                    band(i)
                )
            })
            .collect();
        // insert a row, hand its `+` token on, and (unless `keep`) delete
        // it again and hand on the `−` token
        let churn_one = |cat: &mut Catalog,
                         rel: &str,
                         row: Vec<Value>,
                         keep: bool,
                         process: &mut dyn FnMut(&Token, &Catalog)| {
            let (id, r) = cat.resolve_mut(rel).unwrap();
            let tid = r.insert(row).unwrap();
            let t = r.get(tid).cloned().unwrap();
            process(
                &Token::plus(id, tid, t.clone(), EventSpecifier::Append),
                cat,
            );
            if !keep {
                cat.rel_mut(id).unwrap().delete(tid).unwrap();
                process(&Token::minus(id, tid, t, EventSpecifier::Delete), cat);
            }
        };
        let run_stream = |cat: &mut Catalog, process: &mut dyn FnMut(&Token, &Catalog)| {
            let t0 = Instant::now();
            for i in 0..stream as i64 {
                let emp = vec![(i * 37 % 25_000).into(), (i % 20).into()];
                churn_one(&mut *cat, "emp", emp, i % 2 == 0, process);
                if i % 3 == 0 {
                    // dept churn: right activations against β level 0
                    churn_one(
                        &mut *cat,
                        "dept",
                        vec![(i % 20).into(), (i % 10).into()],
                        false,
                        process,
                    );
                }
                if i % 5 == 0 {
                    // job churn: right activations against β level 1
                    churn_one(
                        &mut *cat,
                        "job",
                        vec![(i % 10).into(), i.into()],
                        false,
                        process,
                    );
                }
            }
            t0.elapsed()
        };

        let mut out = Vec::new();
        for (name, policy) in [
            ("TREAT (indexed)", VirtualPolicy::AllStored),
            ("A-TREAT (all virtual)", VirtualPolicy::AllVirtual),
        ] {
            let mut cat = build_catalog();
            let mut net = Network::new();
            for (i, c) in conditions(&cat, &srcs).iter().enumerate() {
                net.add_rule(RuleId(i as u64), c, &policy, &cat).unwrap();
                net.prime(RuleId(i as u64), &cat).unwrap();
            }
            let total = run_stream(&mut cat, &mut |t, cat| {
                net.process_token(t, cat).unwrap();
            });
            out.push(
                Row::new()
                    .key("network", name)
                    .ms("total_ms", total)
                    .count("alpha_bytes", net.stats().alpha_bytes)
                    .count("beta_bytes", 0u64),
            );
        }
        for (name, access) in [
            ("Rete (indexed)", JoinAccess::Composite),
            ("Rete (nested)", JoinAccess::Nested),
        ] {
            let mut cat = build_catalog();
            let mut net = ReteNetwork::with_policy(VirtualPolicy::AllStored, access);
            for (i, c) in conditions(&cat, &srcs).iter().enumerate() {
                net.add_rule(RuleId(i as u64), c, &cat).unwrap();
                net.prime(RuleId(i as u64), &cat).unwrap();
            }
            let total = run_stream(&mut cat, &mut |t, cat| {
                net.process_token(t, cat).unwrap();
            });
            out.push(
                Row::new()
                    .key("network", name)
                    .ms("total_ms", total)
                    .count("alpha_bytes", net.alpha_bytes())
                    .count("beta_bytes", net.beta_bytes()),
            );
        }
        out
    }

    /// Create relation `name` in `cat` and fill it with `rows`.
    fn relation(
        cat: &mut Catalog,
        name: &str,
        attrs: &[(&str, AttrType)],
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) {
        cat.create(name, Schema::of(attrs)).unwrap();
        let rel = cat.get_mut(name).unwrap();
        for row in rows {
            rel.insert(row).unwrap();
        }
    }

    /// Rule condition sources resolved against `cat`.
    fn conditions(cat: &Catalog, srcs: &[String]) -> Vec<ResolvedCondition> {
        srcs.iter()
            .map(|src| {
                let e = parse_expr(src).unwrap();
                Resolver::new(cat)
                    .resolve_condition(None, Some(&e), &[])
                    .unwrap()
            })
            .collect()
    }

    /// Rule `i`'s salary band, as in [`rule_src`].
    fn band(i: usize) -> String {
        let c1 = i as i64 * BAND_STEP;
        format!("{c1} < emp.sal and emp.sal <= {}", c1 + BAND_WIDTH)
    }

    /// The churn loop behind JOINS and MEM: compile `srcs` as stored
    /// rules on a network with the given join access, then push `stream`
    /// emp inserts (`emp(i)` gives row `i`) through it as `+` tokens,
    /// deleting every other one again as a `−` token. Returns the stream's
    /// wall clock and the network's counters afterwards.
    fn churn(
        cat: &mut Catalog,
        srcs: &[String],
        access: JoinAccess,
        stream: usize,
        emp: impl Fn(i64) -> Vec<Value>,
    ) -> (Duration, NetworkStats) {
        let mut net = Network::with_access(access);
        for (i, c) in conditions(cat, srcs).iter().enumerate() {
            net.add_rule(RuleId(i as u64), c, &VirtualPolicy::AllStored, cat)
                .unwrap();
            net.prime(RuleId(i as u64), cat).unwrap();
        }
        let emp_id = cat.id("emp").unwrap();
        let t0 = Instant::now();
        for i in 0..stream as i64 {
            let rel = cat.rel_mut(emp_id).unwrap();
            let tid = rel.insert(emp(i)).unwrap();
            let t = rel.get(tid).cloned().unwrap();
            net.process_token(
                &Token::plus(emp_id, tid, t.clone(), EventSpecifier::Append),
                cat,
            )
            .unwrap();
            if i % 2 == 1 {
                cat.rel_mut(emp_id).unwrap().delete(tid).unwrap();
                net.process_token(&Token::minus(emp_id, tid, t, EventSpecifier::Delete), cat)
                    .unwrap();
            }
        }
        (t0.elapsed(), net.stats())
    }

    /// JOINS: indexed α-memories vs the nested-loop join, all memories
    /// stored (classic TREAT), `n_rules` rules churned by `stream` emp
    /// tokens against relations of about `dim_rows` rows. Workloads:
    ///
    /// * `fig10-2var` / `fig11-3var`: band rules joining emp against dept
    ///   (and, for three variables, job) on single attributes;
    /// * `fig12-band`: the band join `band.lo < emp.sal and emp.sal <=
    ///   band.hi` against `4·dim_rows` overlapping intervals (step 5,
    ///   width 40, so any salary stabs ~8) — indexed, each emp token
    ///   stabs an interval index once per rule; nested-loop, it scans
    ///   every band tuple;
    /// * `fig13-composite` / `fig13-single`: the two-conjunct equi-join
    ///   `emp.dno = dept.dno and emp.jno = dept.floor` against a dept
    ///   relation where every `dno` repeats 4× but every `(dno, floor)`
    ///   pair is unique — a composite probe lands on a 1-entry bucket, the
    ///   single-attribute probe ([`JoinAccess::Single`]) on the 4-entry
    ///   `dno` bucket, and re-tests.
    ///
    /// `indexed=false` rows run [`JoinAccess::Nested`].
    pub fn joins_table(n_rules: usize, stream: usize, dim_rows: usize) -> Vec<Row> {
        let int = AttrType::Int;
        let emp3 = [("sal", int), ("dno", int), ("jno", int)];
        let dim = dim_rows as i64;
        let job_rows = (dim * 3 + 3) / 4;
        let mut out = Vec::new();
        let mut push =
            |workload: &str, access: JoinAccess, (total, s): (Duration, NetworkStats)| {
                out.push(
                    Row::new()
                        .key("workload", workload)
                        .flag("indexed", access != JoinAccess::Nested)
                        .ms("total_ms", total)
                        .count(
                            "join_candidates",
                            s.stored_join_candidates + s.virtual_join_candidates,
                        )
                        .count("index_probes", s.index_probes)
                        .count("index_hits", s.index_hits)
                        .count("range_probes", s.range_probes)
                        .count("range_hits", s.range_hits)
                        .count("alpha_bytes", s.alpha_bytes),
                )
            };

        for (workload, vars) in [("fig10-2var", 2), ("fig11-3var", 3)] {
            let srcs: Vec<String> = (0..n_rules)
                .map(|i| {
                    let job = if vars >= 3 {
                        " and emp.jno = job.jno"
                    } else {
                        ""
                    };
                    format!("{} and emp.dno = dept.dno{job}", band(i))
                })
                .collect();
            for access in [JoinAccess::Composite, JoinAccess::Nested] {
                let mut cat = Catalog::new();
                relation(&mut cat, "emp", &emp3, []);
                let depts = (0..dim).map(|i| vec![i.into(), (i % 5).into()]);
                relation(&mut cat, "dept", &[("dno", int), ("floor", int)], depts);
                let jobs = (0..job_rows).map(|i| vec![i.into(), (i % 9).into()]);
                relation(&mut cat, "job", &[("jno", int), ("paygrade", int)], jobs);
                let emp = |i: i64| {
                    vec![
                        (i * 37 % 25_000).into(),
                        (i % dim).into(),
                        (i % job_rows).into(),
                    ]
                };
                push(
                    workload,
                    access,
                    churn(&mut cat, &srcs, access, stream, emp),
                );
            }
        }

        let band_rows = dim * 4;
        let srcs = vec!["band.lo < emp.sal and emp.sal <= band.hi".to_string(); n_rules];
        for access in [JoinAccess::Composite, JoinAccess::Nested] {
            let mut cat = Catalog::new();
            relation(&mut cat, "emp", &[("sal", int)], []);
            let bands = (0..band_rows).map(|i| vec![(i * 5).into(), (i * 5 + 40).into()]);
            relation(&mut cat, "band", &[("lo", int), ("hi", int)], bands);
            let emp = |i: i64| vec![(i * 37 % (band_rows * 5)).into()];
            push(
                "fig12-band",
                access,
                churn(&mut cat, &srcs, access, stream, emp),
            );
        }

        // 4 dept rows per dno; (dno, floor) pairs all distinct as long as
        // lcm(dnos, 7) exceeds dim_rows — keep dnos off multiples of 7 so
        // the dno and floor cycles never lock together.
        let mut dnos = (dim / 4).max(1);
        if dnos % 7 == 0 {
            dnos += 1;
        }
        let srcs: Vec<String> = (0..n_rules)
            .map(|i| {
                format!(
                    "{} and emp.dno = dept.dno and emp.jno = dept.floor",
                    band(i)
                )
            })
            .collect();
        for (workload, access) in [
            ("fig13-composite", JoinAccess::Composite),
            ("fig13-single", JoinAccess::Single),
            ("fig13-composite", JoinAccess::Nested),
        ] {
            let mut cat = Catalog::new();
            relation(&mut cat, "emp", &emp3, []);
            let depts = (0..dim).map(|i| vec![(i % dnos).into(), (i % 7).into()]);
            relation(&mut cat, "dept", &[("dno", int), ("floor", int)], depts);
            let emp = |i: i64| vec![(i * 37 % 25_000).into(), (i % dnos).into(), (i % 7).into()];
            push(
                workload,
                access,
                churn(&mut cat, &srcs, access, stream, emp),
            );
        }
        out
    }

    /// PLAN: total time to fire a join-action rule (the P-node joined to
    /// `dept`) `firings` times, with how often its prepared action was
    /// derived. `steady` keeps `dept` at 50 rows; `growing` adds rows
    /// (under join keys no `emp` carries) until it holds 5 000, so the
    /// plan built for 50 rows lapses and is re-planned along the way.
    pub fn plan_table(firings: usize) -> Vec<Row> {
        const DEPT_ROWS: usize = 50;
        const GROWN_ROWS: usize = 5_000;
        [("steady", DEPT_ROWS), ("growing", GROWN_ROWS)]
            .into_iter()
            .map(|(name, final_rows)| {
                let mut db = Ariel::new();
                db.execute(
                    "create emp (id = int, sal = float, dno = int); \
                     create dept (dno = int, name = string); \
                     create audit (id = int, dept = string)",
                )
                .unwrap();
                for i in 0..DEPT_ROWS {
                    db.execute(&format!(r#"append dept (dno = {i}, name = "d{i}")"#))
                        .unwrap();
                }
                // the action joins the P-node to dept: what a firing plans
                db.execute(
                    "define rule log_hire on append emp \
                     then append to audit(id = emp.id, dept = dept.name) \
                          where dept.dno = emp.dno",
                )
                .unwrap();
                let append = |db: &mut Ariel, i: usize| {
                    db.execute(&format!(
                        "append emp (id = {i}, sal = 100, dno = {})",
                        i % DEPT_ROWS
                    ))
                    .unwrap();
                };
                // warm-up round (allocator, the first firing's preparation)
                for i in 0..DEPT_ROWS {
                    append(&mut db, i);
                }
                let mut rows = DEPT_ROWS;
                let t0 = Instant::now();
                for i in 0..firings {
                    // grow dept in step with the firings, straight into
                    // the relation: no rule watches it
                    while rows < DEPT_ROWS + (final_rows - DEPT_ROWS) * (i + 1) / firings {
                        let dno = (DEPT_ROWS + rows) as i64;
                        db.catalog_mut()
                            .get_mut("dept")
                            .unwrap()
                            .insert(vec![dno.into(), Value::from("grown")])
                            .unwrap();
                        rows += 1;
                    }
                    append(&mut db, i);
                }
                let elapsed = t0.elapsed();
                assert_eq!(db.stats().firings as usize, DEPT_ROWS + firings);
                assert_eq!(db.catalog().get("dept").unwrap().len(), final_rows);
                Row::new()
                    .key("workload", name)
                    .ms("total_ms", elapsed)
                    .count("prepares", db.stats().action_prepares)
                    .count("replans", db.stats().action_replans)
            })
            .collect()
    }

    /// TRACE: the fig11-style three-variable workload through the full
    /// engine path twice — flight recorder off, then on — as one row: both
    /// timings (the recorder's measured overhead), the ring's bound and
    /// eviction counts, and one count per retained event kind, named by
    /// the kind. The schema is documented in `docs/OBSERVABILITY.md`.
    pub fn trace_table(n_rules: usize, appends: usize) -> Vec<Row> {
        use std::collections::BTreeMap;

        let run = |tracing: bool| {
            let mut db = paper_db(VirtualPolicy::AllStored);
            db.set_tracing(tracing);
            install_rules(&mut db, 3, n_rules);
            activate_rules(&mut db, 3, n_rules);
            let t0 = Instant::now();
            for i in 0..appends {
                let sal = (i % 30) as f64 * 1000.0 + 500.0;
                db.execute(&format!(
                    "append emp (name = \"tr{i}\", age = 30, sal = {sal}, dno = {}, jno = {})",
                    i % 7,
                    i % 5,
                ))
                .expect("traced append");
            }
            (t0.elapsed(), db)
        };
        let (off, _) = run(false);
        let (on, db) = run(true);
        let events = db.trace_events();
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &events {
            *counts.entry(e.kind.kind_name()).or_insert(0) += 1;
        }
        let mut row = Row::new()
            .key("workload", "fig11-3var-engine")
            .count("rules", n_rules)
            .count("appends", appends)
            .ms("off_ms", off)
            .ms("on_ms", on)
            .time(
                "overhead_pct",
                (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0,
            )
            .count("capacity", db.trace_limit())
            .count("recorded", events.len())
            .count("dropped", db.trace_dropped());
        for (kind, n) in counts {
            row = row.count(kind, n);
        }
        vec![row]
    }

    /// MEM: the memory-layout ablation behind `paper_tables -- mem` /
    /// `bench_gate mem`. A string-heavy fig10 shape — `n_rules` band rules
    /// joining on a **string** attribute (`emp.dept_name = dept.dname`) —
    /// churns `stream` emp tokens against `dim_rows` dept rows, once with
    /// string interning on (tuples carry `Value::Sym`) and once with the
    /// legacy heap-string layout. The layout shows in `rel_bytes`, the two
    /// relations' footprint: a stored memory holds slots, and the shared
    /// join keys are interned either way, so `alpha_bytes` is the same.
    pub fn mem_table(n_rules: usize, stream: usize, dim_rows: usize) -> Vec<Row> {
        let srcs: Vec<String> = (0..n_rules)
            .map(|i| format!("{} and emp.dept_name = dept.dname", band(i)))
            .collect();
        let mut out = Vec::new();
        for (config, interned) in [("interned", true), ("legacy", false)] {
            let dname = |i: i64| format!("mem-{config}-dept-{i}");
            let mut cat = Catalog::new();
            cat.set_intern_strings(interned);
            let (int, str_) = (AttrType::Int, AttrType::Str);
            relation(&mut cat, "emp", &[("sal", int), ("dept_name", str_)], []);
            let depts = (0..dim_rows as i64).map(|i| vec![dname(i).into(), (i % 5).into()]);
            relation(&mut cat, "dept", &[("dname", str_), ("floor", int)], depts);
            let emp = |i: i64| vec![(i * 37 % 25_000).into(), dname(i % dim_rows as i64).into()];
            let (total, s) = churn(&mut cat, &srcs, JoinAccess::Composite, stream, emp);
            let rel_bytes: usize = ["emp", "dept"]
                .iter()
                .map(|r| cat.get(r).expect("created above").heap_size())
                .sum();
            out.push(
                Row::new()
                    .key("config", config)
                    .ms("total_ms", total)
                    .count("alpha_entries", s.alpha_entries)
                    .count("alpha_bytes", s.alpha_bytes)
                    .count("rel_bytes", rel_bytes),
            );
        }
        out
    }

    /// WAL: logging overhead of the durability subsystem on a fig10-style
    /// churn workload — `n_rules` two-variable band rules, `rounds` rounds
    /// of one `append emp` + one `delete emp` through the full engine path
    /// (each command is one committed transition, hence one WAL record).
    /// The same workload runs once per durability mode; `off` attaches no
    /// writer at all, so its record/byte counts must be zero, while
    /// `commit` (fsync per record) and `batch` (fsync every
    /// [`ariel::storage::wal::BATCH_SYNC_EVERY`] records) log identical
    /// record streams and differ only in sync cost.
    pub fn wal_table(n_rules: usize, rounds: usize) -> Vec<Row> {
        use ariel::Durability;

        let mut out = Vec::new();
        for mode in [Durability::Off, Durability::Commit, Durability::Batch] {
            let dir = std::env::temp_dir().join(format!(
                "ariel_bench_wal_{}_{}",
                std::process::id(),
                mode.as_str()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = paper_db(VirtualPolicy::AllStored);
            install_rules(&mut db, 2, n_rules);
            activate_rules(&mut db, 2, n_rules);
            db.run_rules().expect("drain primed matches");
            db.set_durability(mode).expect("set durability");
            db.checkpoint(&dir).expect("checkpoint");
            let t0 = Instant::now();
            for i in 0..rounds {
                let sal = (i % 30) as f64 * 1000.0 + 500.0;
                db.execute(&format!(
                    "append emp (name = \"wal{i}\", age = 30, sal = {sal}, \
                     dno = {}, jno = {})",
                    i % 7,
                    i % 5,
                ))
                .expect("append");
                db.execute(&format!("delete emp where emp.name = \"wal{i}\""))
                    .expect("delete");
            }
            out.push(
                Row::new()
                    .key("mode", mode.as_str())
                    .ms("total_ms", t0.elapsed())
                    .count("wal_records", db.wal_records())
                    .count("wal_bytes", db.wal_bytes()),
            );
            drop(db); // the writer's Drop syncs before the dir goes away
            let _ = std::fs::remove_dir_all(&dir);
        }
        out
    }
}
