//! The fundamental discrimination-network invariant, property-tested:
//! after ANY sequence of inserts, deletes and updates, a pattern rule's
//! P-node must hold exactly the rows a from-scratch evaluation of its
//! condition produces (incremental match ≡ recompute). Checked for every
//! virtual-memory policy and for Rete with composite and nested joins.
//!
//! `−` tokens are routed by stabbing the selection network with the value
//! they carry, so the rule set and the streams lean on what that routing
//! has to get right: unanchored predicates (`!=`), nulls in an anchored
//! attribute, replaces that move a tuple between disjoint bands, and
//! several touches of one tuple inside one batch. Every batch also runs
//! the A-TREAT network's debug check that its maintained conflict set
//! equals a scan of the P-nodes.

#[path = "common/matchers.rs"]
mod matchers;

use ariel::network::{JoinAccess, RuleId, VirtualPolicy};
use ariel::query::Change;
use ariel::query::{parse_expr, ResolvedCondition, Resolver};
use ariel::storage::{AttrType, Catalog, Schema, Tid, Value};
use ariel::DeltaTracker;
use matchers::{pnode_tids, recompute, Config, Net};
use proptest::prelude::*;

/// `a` is the attribute every rule anchors on; `NULL_A` stands for Null.
#[derive(Debug, Clone)]
enum Op {
    Insert { rel: u8, a: i64, b: i64 },
    Delete { pick: usize },
    Update { pick: usize, a: i64 },
}

/// Drawn about one time in ten: the first attribute is left Null.
const NULL_A: i64 = -1;

fn a_value(a: i64) -> Value {
    if a == NULL_A {
        Value::Null
    } else {
        Value::Int(a)
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let a = || prop_oneof![9 => 0i64..20, 1 => Just(NULL_A)];
    prop_oneof![
        4 => (0u8..2, a(), 0i64..6).prop_map(|(rel, a, b)| Op::Insert { rel, a, b }),
        2 => (0usize..64).prop_map(|pick| Op::Delete { pick }),
        2 => (0usize..64, a()).prop_map(|(pick, a)| Op::Update { pick, a }),
    ]
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.create(
        "r1",
        Schema::of(&[("a", AttrType::Int), ("b", AttrType::Int)]),
    )
    .unwrap();
    c.create(
        "r2",
        Schema::of(&[("b", AttrType::Int), ("c", AttrType::Int)]),
    )
    .unwrap();
    c
}

/// The pattern condition `qual` over the `from` variables (none: the
/// relations it names).
fn condition(cat: &Catalog, qual: &str, from: &[(&str, &str)]) -> ResolvedCondition {
    let e = parse_expr(qual).unwrap();
    let from: Vec<ariel::query::FromItem> = from
        .iter()
        .map(|(v, r)| ariel::query::FromItem {
            var: v.to_string(),
            rel: r.to_string(),
        })
        .collect();
    Resolver::new(cat)
        .resolve_condition(None, Some(&e), &from)
        .unwrap()
}

fn conditions(cat: &Catalog) -> Vec<ResolvedCondition> {
    let make = |qual: &str, from: &[(&str, &str)]| condition(cat, qual, from);
    vec![
        make("r1.a > 10", &[]),
        make("r1.a > 3 and r1.b = r2.b and r2.c < 4", &[]),
        make("x.b = y.b and x.a < y.a", &[("x", "r1"), ("y", "r1")]),
        make("r1.a > 1 and r1.a <= 15 and r1.b = r2.b", &[]),
        // unanchored selections: candidates for every token on r1
        make("r1.a != 5", &[]),
        make("r1.a != 7 and r1.b = r2.b", &[]),
        // disjoint bands: an update moves a tuple out of one, into the other
        make("r1.a > 0 and r1.a <= 5 and r1.b = r2.b", &[]),
        make("r1.a > 10 and r1.a <= 15", &[]),
    ]
}

/// Apply one op to the catalog and return the physical change.
fn apply(cat: &mut Catalog, live: &mut Vec<(String, Tid)>, op: &Op) -> Option<Change> {
    match op {
        Op::Insert { rel, a, b } => {
            let name = if *rel == 0 { "r1" } else { "r2" };
            let (rel, r) = cat.resolve_mut(name).unwrap();
            let tid = r.insert(vec![a_value(*a), Value::Int(*b)]).unwrap();
            let t = r.get(tid).cloned().unwrap();
            live.push((name.to_string(), tid));
            Some(Change::Inserted { rel, tid, new: t })
        }
        Op::Delete { pick } => {
            if live.is_empty() {
                return None;
            }
            let (name, tid) = live.swap_remove(pick % live.len());
            let (rel, r) = cat.resolve_mut(&name).unwrap();
            let old = r.delete(tid).unwrap();
            Some(Change::Deleted { rel, tid, old })
        }
        Op::Update { pick, a } => {
            if live.is_empty() {
                return None;
            }
            let (name, tid) = live[pick % live.len()].clone();
            let (rel, r) = cat.resolve_mut(&name).unwrap();
            let old = r.get(tid).cloned().unwrap();
            let new_vals = vec![a_value(*a), old.get(1).clone()];
            let old = r.update(tid, new_vals).unwrap();
            let new = r.get(tid).cloned().unwrap();
            Some(Change::Updated {
                rel,
                tid,
                old,
                new,
                attrs: vec![0],
            })
        }
    }
}

/// The A-TREAT network under both memory extremes, and the Rete
/// comparison network with composite and nested joins.
fn all_configs() -> Vec<Config> {
    vec![
        Config::Treat(VirtualPolicy::AllStored, JoinAccess::Composite),
        Config::Treat(VirtualPolicy::AllVirtual, JoinAccess::Composite),
        Config::Rete(VirtualPolicy::AllStored, JoinAccess::Composite),
        Config::Rete(VirtualPolicy::AllStored, JoinAccess::Nested),
        Config::Rete(VirtualPolicy::AllVirtual, JoinAccess::Composite),
    ]
}

impl Net {
    /// Every P-node equals a from-scratch evaluation of its condition, and
    /// the eligible rules are exactly the non-empty ones.
    fn check(
        &self,
        conds: &[ResolvedCondition],
        cat: &Catalog,
        at: &dyn std::fmt::Debug,
    ) -> Result<(), TestCaseError> {
        let mut nonempty = Vec::new();
        for (i, cond) in conds.iter().enumerate() {
            let got = pnode_tids(self.pnode(i));
            let want = recompute(cat, cond);
            prop_assert_eq!(
                &got,
                &want,
                "rule {} diverged from recompute at {:?}",
                i,
                at
            );
            if !want.is_empty() {
                nonempty.push(RuleId(i as u64));
            }
        }
        prop_assert_eq!(
            self.rules_with_matches(),
            nonempty,
            "eligible rules at {:?}",
            at
        );
        Ok(())
    }
}

fn run_stream(config: Config, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cat = catalog();
    let conds = conditions(&cat);
    let mut net = Net::build(&config, &conds, &cat);
    let mut live: Vec<(String, Tid)> = Vec::new();
    let mut delta = DeltaTracker::new();
    for (step, op) in ops.iter().enumerate() {
        // each op = one transition (Δ-sets reset per transition)
        delta.reset();
        let Some(change) = apply(&mut cat, &mut live, op) else {
            continue;
        };
        net.process_batch(&delta.tokens_for(&change), &cat);
        net.check(&conds, &cat, &(step, op, &config))?;
    }
    Ok(())
}

/// Several ops inside one transition, every token in one batch — the
/// shape of a rule action's changes: the relations are already at their
/// end-of-batch state while the tokens of earlier ops are processed.
fn run_chunked(config: Config, ops: &[Op], chunk: usize) -> Result<(), TestCaseError> {
    let mut cat = catalog();
    let conds = conditions(&cat);
    let mut net = Net::build(&config, &conds, &cat);
    let mut live: Vec<(String, Tid)> = Vec::new();
    let mut delta = DeltaTracker::new();
    for (t, ops_chunk) in ops.chunks(chunk).enumerate() {
        delta.reset();
        let mut tokens = Vec::new();
        for op in ops_chunk {
            if let Some(change) = apply(&mut cat, &mut live, op) {
                tokens.extend(delta.tokens_for(&change));
            }
        }
        net.process_batch(&tokens, &cat);
        net.check(&conds, &cat, &(t, ops_chunk, &config))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn treat_all_stored_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_stream(Config::Treat(VirtualPolicy::AllStored, JoinAccess::Composite), &ops)?;
    }

    #[test]
    fn treat_all_virtual_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_stream(Config::Treat(VirtualPolicy::AllVirtual, JoinAccess::Composite), &ops)?;
    }

    #[test]
    fn treat_threshold_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_stream(Config::Treat(VirtualPolicy::SelectivityThreshold(0.4), JoinAccess::Composite), &ops)?;
    }

    #[test]
    fn rete_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_stream(Config::Rete(VirtualPolicy::AllStored, JoinAccess::Composite), &ops)?;
    }

    #[test]
    fn rete_nested_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_stream(Config::Rete(VirtualPolicy::AllStored, JoinAccess::Nested), &ops)?;
    }

    #[test]
    fn rete_all_virtual_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_stream(Config::Rete(VirtualPolicy::AllVirtual, JoinAccess::Composite), &ops)?;
    }
}

// Δ-token path as well: several updates inside one transition (no reset),
// on every backend — a tuple touched twice in one batch is where a virtual
// memory could serve a value no token has announced yet.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn multi_op_transitions_match_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        chunk in 2usize..5,
    ) {
        for config in all_configs() {
            run_chunked(config, &ops, chunk)?;
        }
    }
}

/// The token shapes `−` routing must get right, spelled out: each line is
/// one batch; the recompute oracle and the conflict-set check run after
/// every batch, on every backend.
#[test]
fn minus_routing_corner_cases_match_oracle() {
    let ins = |a, b| Op::Insert { rel: 0, a, b };
    // r2 is (b, c): the op's first value lands in the join attribute
    let dept = |b| Op::Insert { rel: 1, a: b, b: 2 };
    let upd = |pick, a| Op::Update { pick, a };
    let del = |pick| Op::Delete { pick };
    let batches: Vec<Vec<Op>> = vec![
        vec![dept(1), dept(2)],
        // a replace that moves a tuple from band (0, 5] to band (10, 15]
        vec![ins(3, 1)],
        vec![upd(2, 12)],
        // … and out of every band, into the `!=` rules only
        vec![upd(2, 7)],
        vec![upd(2, 5)],
        // a null in the anchored attribute: in no anchored node, retracted
        // from the unanchored ones by a − token that stabs nothing
        vec![upd(2, NULL_A)],
        vec![upd(2, 4)],
        vec![ins(NULL_A, 2)],
        vec![del(3)],
        // i m d in one batch: nets to nothing
        vec![ins(3, 2), upd(3, 13), del(3)],
        // m m d in one batch: Δ−/Δ+ pairs, then the delete
        vec![upd(2, 14), upd(2, 2), del(2)],
        // i m, and m m, left standing
        vec![ins(4, 1), upd(2, 11)],
        vec![upd(2, 3), upd(2, 20)],
        // m, a join partner arriving, m again: while the partner's token is
        // processed the relation already holds the second value, which no
        // token has announced — a virtual memory must not serve it, or the
        // Δ− carrying the first value would not find the row to retract
        vec![upd(2, 12), dept(1), upd(2, 3)],
        vec![del(2)],
    ];
    for config in all_configs() {
        let mut cat = catalog();
        let conds = conditions(&cat);
        let mut net = Net::build(&config, &conds, &cat);
        let mut live: Vec<(String, Tid)> = Vec::new();
        let mut delta = DeltaTracker::new();
        for (t, batch) in batches.iter().enumerate() {
            delta.reset();
            let mut tokens = Vec::new();
            for op in batch {
                let change = apply(&mut cat, &mut live, op).expect("scripted op applies");
                tokens.extend(delta.tokens_for(&change));
            }
            net.process_batch(&tokens, &cat);
            net.check(&conds, &cat, &(t, batch, &config)).unwrap();
        }
    }
}

/// A delete and an append into the slot it frees, in one batch (the
/// tokens of one `do … end` block), while P-node rows bind the deleted
/// tuple's TID: the new tuple takes the slot under the next generation,
/// the rows binding the old TID are retracted and no others. Also an
/// append, its delete and an append reusing its slot in one batch, and a
/// reused `r2` slot that rows join through. The store's debug check runs
/// after every batch (debug builds), the recompute oracle after every
/// batch, on every backend.
#[test]
fn a_slot_reused_within_one_batch_matches_oracle() {
    let ins = |a, b| Op::Insert { rel: 0, a, b };
    let dept = |b| Op::Insert { rel: 1, a: b, b: 2 };
    let del = |pick| Op::Delete { pick };
    let batches: Vec<Vec<Op>> = vec![
        vec![dept(1), dept(2)],
        vec![ins(4, 1), ins(12, 1), ins(13, 2)],
        // r1 slot 0, bound by rows of several rules, is freed and reused
        vec![del(2), ins(14, 1)],
        // i d i: the second append reuses the first one's slot
        vec![ins(5, 2), del(5), ins(6, 1)],
        // the r2 tuple rows join through is replaced in its own slot
        vec![del(0), dept(1)],
    ];
    for config in all_configs() {
        let mut cat = catalog();
        let conds = conditions(&cat);
        let mut net = Net::build(&config, &conds, &cat);
        let mut live: Vec<(String, Tid)> = Vec::new();
        let mut delta = DeltaTracker::new();
        for (t, batch) in batches.iter().enumerate() {
            delta.reset();
            let mut tokens = Vec::new();
            for op in batch {
                let change = apply(&mut cat, &mut live, op).expect("scripted op applies");
                tokens.extend(delta.tokens_for(&change));
            }
            net.process_batch(&tokens, &cat);
            net.check(&conds, &cat, &(t, batch, &config)).unwrap();
        }
        let tids = |rel: &str| -> Vec<Tid> {
            let mut tids: Vec<Tid> = cat.get(rel).unwrap().scan().map(|(t, _)| t).collect();
            tids.sort();
            tids
        };
        let (r1_0, r1_3) = (Tid::new(0, 1), Tid::new(3, 1));
        assert_eq!(tids("r1"), [Tid(1), Tid(2), r1_0, r1_3], "{config:?}");
        assert_eq!(tids("r2"), [Tid(1), Tid::new(0, 1)], "{config:?}");
    }
}

/// Stored memories read their members from the relation, which holds its
/// end-of-batch state while the batch is matched: a tuple with a `+` still
/// to come is hidden, and a freed or reused slot serves nothing. One batch
/// replaces an `r1` tuple that stored memories hold, deletes it, and
/// appends a tuple into its slot, with an `r2` replace — a token that
/// joins into the `r1` memories on that tuple's key — before, between and
/// after those steps. The recompute oracle and the store's debug check
/// (debug builds) run after every batch, on every backend.
#[test]
fn a_held_tuple_replaced_deleted_and_reused_in_one_batch_matches_oracle() {
    let ins = |a, b| Op::Insert { rel: 0, a, b };
    let dept = |b| Op::Insert { rel: 1, a: b, b: 2 };
    let upd = |pick, a| Op::Update { pick, a };
    let del = |pick| Op::Delete { pick };
    // live: r2 (1, 2), r2 (2, 2), then r1 (4, 1) in slot 0 and r1 (12, 1)
    let batches: Vec<Vec<Op>> = vec![
        vec![dept(1), dept(2)],
        vec![ins(4, 1), ins(12, 1)],
        vec![
            // the r2 replace sets its join key to 1, the held tuple's key
            upd(1, 1),
            upd(2, 5),
            upd(1, 1),
            // deleting live[2] moves r1 (12, 1) into its place
            del(2),
            upd(1, 1),
            // reuses slot 0 under the next generation
            ins(6, 1),
            upd(1, 1),
        ],
        vec![upd(1, 1)],
    ];
    for config in all_configs() {
        let mut cat = catalog();
        let conds = conditions(&cat);
        let mut net = Net::build(&config, &conds, &cat);
        let mut live: Vec<(String, Tid)> = Vec::new();
        let mut delta = DeltaTracker::new();
        for (t, batch) in batches.iter().enumerate() {
            delta.reset();
            let mut tokens = Vec::new();
            for op in batch {
                let change = apply(&mut cat, &mut live, op).expect("scripted op applies");
                tokens.extend(delta.tokens_for(&change));
            }
            net.process_batch(&tokens, &cat);
            net.check(&conds, &cat, &(t, batch, &config)).unwrap();
        }
        let r1 = cat.get("r1").unwrap();
        assert_eq!(
            r1.get(Tid::new(0, 1)).map(|t| t.get(0)),
            Some(&Value::Int(6))
        );
        assert!(r1.get(Tid::new(0, 0)).is_none(), "{config:?}");
        // both r1 tuples join both r2 tuples, all four on b = 1
        assert_eq!(pnode_tids(net.pnode(5)).len(), 4, "{config:?}");
    }
}

/// The scaling claim for `−` tokens, as counts: one delete costs one
/// selection-network probe and reaches only the α-nodes whose band holds
/// the dying value — the same number against 200 rules as against 1 600.
#[test]
fn delete_token_work_is_independent_of_rule_count() {
    // per backend: (probes, candidates, α-tests) one delete token added
    let measure = |n_rules: usize, config: &Config| -> (u64, u64, u64) {
        let mut cat = catalog();
        let conds: Vec<ResolvedCondition> = (0..n_rules as i64)
            .map(|i| {
                // disjoint bands (10i, 10i + 10], each joined to r2
                let qual = format!(
                    "r1.a > {} and r1.a <= {} and r1.b = r2.b",
                    10 * i,
                    10 * i + 10
                );
                Resolver::new(&cat)
                    .resolve_condition(None, Some(&parse_expr(&qual).unwrap()), &[])
                    .unwrap()
            })
            .collect();
        let mut net = Net::build(config, &conds, &cat);
        let mut live = Vec::new();
        let mut delta = DeltaTracker::new();
        for op in [
            Op::Insert { rel: 1, a: 1, b: 2 },
            Op::Insert {
                rel: 0,
                a: 55,
                b: 1,
            },
        ] {
            let change = apply(&mut cat, &mut live, &op).unwrap();
            net.process_batch(&delta.tokens_for(&change), &cat);
            delta.reset();
        }
        assert_eq!(net.rules_with_matches(), vec![RuleId(5)]);
        let before = net.stats();
        let change = apply(&mut cat, &mut live, &Op::Delete { pick: 1 }).unwrap();
        net.process_batch(&delta.tokens_for(&change), &cat);
        let after = net.stats();
        assert!(net.rules_with_matches().is_empty(), "match retracted");
        assert_eq!(after.alpha_entries, before.alpha_entries - 1);
        (
            after.selnet_probes - before.selnet_probes,
            after.selnet_candidates - before.selnet_candidates,
            after.alpha_tests - before.alpha_tests,
        )
    };
    for config in [
        Config::Treat(VirtualPolicy::AllStored, JoinAccess::Composite),
        Config::Rete(VirtualPolicy::AllStored, JoinAccess::Composite),
        Config::Rete(VirtualPolicy::AllStored, JoinAccess::Nested),
    ] {
        let small = measure(200, &config);
        let large = measure(1600, &config);
        assert_eq!(small, large, "{config:?}");
        assert_eq!(small.0, 1, "one probe per − token ({config:?})");
        assert_eq!(
            small.1, 1,
            "only the band holding 55 is reached ({config:?})"
        );
    }
}

/// [`conditions`] plus bands open below on the attribute that holds
/// nulls: a null sorts below every value, but never passes an anchor.
fn priming_conditions(cat: &Catalog) -> Vec<ResolvedCondition> {
    let mut conds = conditions(cat);
    conds.push(condition(cat, "r1.a < 8 and r1.b = r2.b", &[]));
    conds.push(condition(cat, "r1.a <= 6", &[]));
    conds.push(condition(
        cat,
        "x.a < 9 and x.b = y.b",
        &[("x", "r1"), ("y", "r1")],
    ));
    conds
}

/// Apply `prefix` to the catalog, then delete each `churn` pick and
/// append its row — appends that reuse the freed slots under their next
/// generation. Then build and prime the network over that data: every
/// P-node must equal recompute, and again after `suffix` streams through.
fn run_primed(
    config: Config,
    prefix: &[Op],
    churn: &[(usize, i64, i64)],
    suffix: &[Op],
) -> Result<(), TestCaseError> {
    let mut cat = catalog();
    let conds = priming_conditions(&cat);
    let mut live: Vec<(String, Tid)> = Vec::new();
    for op in prefix {
        apply(&mut cat, &mut live, op);
    }
    for &(pick, _, _) in churn {
        apply(&mut cat, &mut live, &Op::Delete { pick });
    }
    for &(_, a, b) in churn {
        apply(&mut cat, &mut live, &Op::Insert { rel: 0, a, b });
    }
    let mut net = Net::build(&config, &conds, &cat);
    net.check(&conds, &cat, &("primed", &config))?;
    let mut delta = DeltaTracker::new();
    for (step, op) in suffix.iter().enumerate() {
        delta.reset();
        let Some(change) = apply(&mut cat, &mut live, op) else {
            continue;
        };
        net.process_batch(&delta.tokens_for(&change), &cat);
        net.check(&conds, &cat, &(step, op, &config))?;
    }
    Ok(())
}

// Activation over existing data: every backend primes to what recompute
// finds, over relations whose slots were freed and reused, and keeps
// agreeing while tokens stream afterwards.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn priming_over_existing_data_matches_oracle(
        prefix in proptest::collection::vec(op_strategy(), 0..60),
        churn in proptest::collection::vec((0usize..64, 0i64..20, 0i64..6), 0..8),
        suffix in proptest::collection::vec(op_strategy(), 0..20),
    ) {
        for config in all_configs() {
            run_primed(config, &prefix, &churn, &suffix)?;
        }
    }
}

/// A `match.join_churn`-shaped catalog: `emp` bands joined to `dept` on
/// `dno` and to `job` on `jno`, with the hash indexes that workload
/// defines, after a round of deletes and appends that reuses slots.
fn join_churn_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let int = AttrType::Int;
    for (rel, attrs) in [
        (
            "emp",
            &[("eno", int), ("sal", int), ("dno", int), ("jno", int)][..],
        ),
        ("dept", &[("dno", int), ("floor", int)]),
        ("job", &[("jno", int), ("grade", int)]),
    ] {
        cat.create(rel, Schema::of(attrs)).unwrap();
    }
    for (rel, attr) in [
        ("emp", "dno"),
        ("emp", "jno"),
        ("dept", "dno"),
        ("job", "jno"),
    ] {
        cat.get_mut(rel)
            .unwrap()
            .create_index(attr, ariel::storage::IndexKind::Hash)
            .unwrap();
    }
    let emp_row = |i: i64| {
        vec![
            Value::Int(i),
            Value::Int(1_001 + i * 7_919 % 19_000),
            Value::Int(i % 25),
            Value::Int(i % 12),
        ]
    };
    let emp = cat.get_mut("emp").unwrap();
    let tids: Vec<Tid> = (0..600).map(|i| emp.insert(emp_row(i)).unwrap()).collect();
    for tid in tids.iter().step_by(3) {
        emp.delete(*tid).unwrap();
    }
    for i in 600..700 {
        emp.insert(emp_row(i)).unwrap();
    }
    let dept = cat.get_mut("dept").unwrap();
    for d in 0..25i64 {
        dept.insert(vec![Value::Int(d), Value::Int(d % 4)]).unwrap();
    }
    let job = cat.get_mut("job").unwrap();
    for j in 0..12i64 {
        job.insert(vec![Value::Int(j), Value::Int(j * 5 % 4)])
            .unwrap();
    }
    cat
}

/// The activation the optimizer used to prime with, kept as the oracle:
/// on the `match.join_churn` rule shape, under every virtual policy and
/// join access, the primed P-node holds exactly the rows a plan of the
/// whole condition finds.
#[test]
fn primed_join_churn_pnodes_equal_the_planned_condition() {
    let cat = join_churn_catalog();
    let conds: Vec<ResolvedCondition> = (0..40i64)
        .map(|i| {
            let lo = 1_000 + i * 450;
            let qual = format!(
                "{lo} < emp.sal and emp.sal <= {} and emp.dno = dept.dno \
                 and dept.floor = {} and emp.jno = job.jno and job.grade = {}",
                lo + 4_500,
                i % 4,
                i * 3 % 4
            );
            condition(&cat, &qual, &[])
        })
        .collect();
    let policies = [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.3),
        VirtualPolicy::ExplicitVars([0].into()),
        VirtualPolicy::ExplicitVars([1, 2].into()),
    ];
    let mut matched = 0;
    for policy in policies {
        for access in [
            JoinAccess::Composite,
            JoinAccess::Single,
            JoinAccess::Nested,
        ] {
            let config = Config::Treat(policy.clone(), access);
            let net = Net::build(&config, &conds, &cat);
            for (i, cond) in conds.iter().enumerate() {
                let want = recompute(&cat, cond);
                assert_eq!(pnode_tids(net.pnode(i)), want, "rule {i} under {config:?}");
                matched += want.len();
            }
        }
    }
    assert!(
        matched > 1_000,
        "{matched} instantiations: the oracle sees data"
    );
}
