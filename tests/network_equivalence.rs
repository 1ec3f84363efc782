//! Equivalence of discrimination-network configurations: whatever mix of
//! stored and virtual α-memories (and whichever network algorithm) is used,
//! rule behaviour must be identical. Runs a randomized command stream
//! against engines configured differently and compares final database
//! states.

use ariel::network::{ReteMode, VirtualPolicy};
use ariel::storage::Value;
use ariel::{Ariel, EngineOptions};

/// Deterministic xorshift for workload generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn build(policy: VirtualPolicy) -> Ariel {
    build_with_indexing(policy, true)
}

fn build_with_indexing(policy: VirtualPolicy, join_indexing: bool) -> Ariel {
    build_with(EngineOptions {
        virtual_policy: policy,
        join_indexing,
        ..Default::default()
    })
}

fn build_with(options: EngineOptions) -> Ariel {
    let mut db = Ariel::with_options(options);
    db.execute(
        "create emp (id = int, sal = float, dno = int); \
         create dept (dno = int, floor = int); \
         create audit (id = int, kind = int)",
    )
    .unwrap();
    // a mix of rule shapes: selection, join, transition, event
    db.execute("define rule r_sel if emp.sal > 5000 then append to audit(id = emp.id, kind = 1)")
        .unwrap();
    db.execute(
        "define rule r_join if emp.sal > 1000 and emp.dno = dept.dno and dept.floor < 3 \
         then append to audit(id = emp.id, kind = 2)",
    )
    .unwrap();
    db.execute(
        "define rule r_trans if emp.sal > 2 * previous emp.sal \
         then append to audit(id = emp.id, kind = 3)",
    )
    .unwrap();
    db.execute("define rule r_event on delete emp then append to audit(id = emp.id, kind = 4)")
        .unwrap();
    db
}

fn apply_stream(db: &mut Ariel, seed: u64, steps: usize) {
    let mut rng = Rng(seed | 1);
    let mut next_id = 0i64;
    for _ in 0..steps {
        match rng.below(10) {
            0..=3 => {
                let id = next_id;
                next_id += 1;
                let sal = rng.below(9000);
                let dno = rng.below(5);
                db.execute(&format!("append emp (id = {id}, sal = {sal}, dno = {dno})"))
                    .unwrap();
            }
            4..=5 => {
                let dno = rng.below(5);
                let floor = rng.below(6);
                db.execute(&format!("append dept (dno = {dno}, floor = {floor})"))
                    .unwrap();
            }
            6..=7 => {
                let id = rng.below(next_id.max(1) as u64);
                let sal = rng.below(12_000);
                db.execute(&format!("replace emp (sal = {sal}) where emp.id = {id}"))
                    .unwrap();
            }
            _ => {
                let id = rng.below(next_id.max(1) as u64);
                db.execute(&format!("delete emp where emp.id = {id}"))
                    .unwrap();
            }
        }
    }
}

type Rows = Vec<Vec<Value>>;

fn sorted(mut rows: Rows) -> Rows {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

fn snapshot(db: &mut Ariel, rel: &str) -> Rows {
    sorted(db.query(&format!("retrieve ({rel}.all)")).unwrap().rows)
}

#[test]
fn virtual_policies_produce_identical_states() {
    let policies = [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.3),
        VirtualPolicy::SelectivityThreshold(0.8),
    ];
    let mut reference: Option<(Rows, Rows)> = None;
    for policy in policies {
        let mut db = build(policy.clone());
        apply_stream(&mut db, 0xDECAF, 150);
        let emp = snapshot(&mut db, "emp");
        let audit = snapshot(&mut db, "audit");
        assert!(!audit.is_empty(), "the stream must exercise the rules");
        match &reference {
            None => reference = Some((emp, audit)),
            Some((ref_emp, ref_audit)) => {
                assert_eq!(&emp, ref_emp, "emp diverged under {policy:?}");
                assert_eq!(&audit, ref_audit, "audit diverged under {policy:?}");
            }
        }
    }
}

#[test]
fn plan_caching_matches_always_reoptimize() {
    for cache in [false, true] {
        let mut db = Ariel::with_options(EngineOptions {
            cache_action_plans: cache,
            ..Default::default()
        });
        db.execute(
            "create emp (id = int, sal = float, dno = int); \
                    create dept (dno = int, floor = int); \
                    create audit (id = int, kind = int)",
        )
        .unwrap();
        db.execute(
            "define rule r if emp.sal > 100 and emp.dno = dept.dno \
             then append to audit(id = emp.id, kind = 1)",
        )
        .unwrap();
        db.execute("append dept (dno = 1, floor = 1)").unwrap();
        for i in 0..20 {
            db.execute(&format!("append emp (id = {i}, sal = 200, dno = 1)"))
                .unwrap();
        }
        assert_eq!(
            db.query("retrieve (audit.all)").unwrap().rows.len(),
            20,
            "cache={cache}"
        );
    }
}

/// Indexed-vs-nested-loop oracle: the hash join indexes are a pure
/// optimization, so with indexing on or off — and under every virtual
/// policy — the same rule set and token stream must produce the same
/// final database state.
#[test]
fn join_indexing_produces_identical_states() {
    let policies = [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.3),
    ];
    let mut reference: Option<(Rows, Rows)> = None;
    for policy in policies {
        for indexing in [true, false] {
            let mut db = build_with_indexing(policy.clone(), indexing);
            apply_stream(&mut db, 0xDECAF, 150);
            let emp = snapshot(&mut db, "emp");
            let audit = snapshot(&mut db, "audit");
            assert!(!audit.is_empty(), "the stream must exercise the rules");
            if indexing {
                let s = db.network_stats();
                assert_eq!(
                    s.indexed_candidates + s.scanned_candidates,
                    s.stored_join_candidates + s.virtual_join_candidates,
                    "every join candidate comes from a probe or a scan"
                );
            }
            match &reference {
                None => reference = Some((emp, audit)),
                Some((ref_emp, ref_audit)) => {
                    assert_eq!(&emp, ref_emp, "emp diverged: {policy:?}/{indexing}");
                    assert_eq!(&audit, ref_audit, "audit diverged: {policy:?}/{indexing}");
                }
            }
        }
    }
}

/// Build an engine exercising the composite-key and band-join access
/// paths: two-conjunct equi-joins (pure `Int` keys and mixed `Float`/`Int`
/// keys) plus an interval-shaped band join against a `band` relation whose
/// bounds mix `Int` (`lo`) and `Float` (`hi`) columns.
fn build_composite_band(policy: VirtualPolicy, join_indexing: bool, composite: bool) -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        join_indexing,
        composite_join_keys: composite,
        ..Default::default()
    });
    db.execute(
        "create emp (id = int, sal = float, dno = int, jno = int); \
         create dept (dno = int, floor = int); \
         create band (lo = int, hi = float); \
         create audit (id = int, kind = int)",
    )
    .unwrap();
    db.execute(
        "define rule r_comp if emp.dno = dept.dno and emp.jno = dept.floor \
         then append to audit(id = emp.id, kind = 1)",
    )
    .unwrap();
    db.execute(
        "define rule r_band if band.lo < emp.sal and emp.sal <= band.hi \
         then append to audit(id = emp.id, kind = 2)",
    )
    .unwrap();
    db.execute(
        "define rule r_mixed if emp.sal = dept.floor and emp.dno = dept.dno \
         then append to audit(id = emp.id, kind = 3)",
    )
    .unwrap();
    db
}

/// Randomized stream over emp/dept/band that regularly leaves join-key
/// attributes null (omitted from the append) — null keys must join nothing
/// on both the indexed and the nested-loop path.
fn apply_composite_band_stream(db: &mut Ariel, seed: u64, steps: usize) {
    let mut rng = Rng(seed | 1);
    let mut next_id = 0i64;
    for _ in 0..steps {
        match rng.below(12) {
            0..=4 => {
                let id = next_id;
                next_id += 1;
                let sal = rng.below(50);
                let dno = rng.below(6);
                let jno = rng.below(6);
                let cmd = match rng.below(8) {
                    0 => format!("append emp (id = {id}, sal = {sal}, jno = {jno})"),
                    1 => format!("append emp (id = {id}, dno = {dno}, jno = {jno})"),
                    _ => format!("append emp (id = {id}, sal = {sal}, dno = {dno}, jno = {jno})"),
                };
                db.execute(&cmd).unwrap();
            }
            5..=6 => {
                let dno = rng.below(6);
                let floor = rng.below(6);
                let cmd = if rng.below(6) == 0 {
                    format!("append dept (dno = {dno})")
                } else {
                    format!("append dept (dno = {dno}, floor = {floor})")
                };
                db.execute(&cmd).unwrap();
            }
            7..=8 => {
                let lo = rng.below(40);
                let hi = lo + 15;
                let cmd = if rng.below(6) == 0 {
                    format!("append band (lo = {lo})")
                } else {
                    format!("append band (lo = {lo}, hi = {hi})")
                };
                db.execute(&cmd).unwrap();
            }
            9 => {
                let id = rng.below(next_id.max(1) as u64);
                let sal = rng.below(50);
                db.execute(&format!("replace emp (sal = {sal}) where emp.id = {id}"))
                    .unwrap();
            }
            _ => {
                let id = rng.below(next_id.max(1) as u64);
                db.execute(&format!("delete emp where emp.id = {id}"))
                    .unwrap();
            }
        }
    }
}

/// Composite-key and band-join oracle: hash-composite and interval-index
/// access paths are pure optimizations, so every (policy, indexing,
/// composite-keys) configuration must converge to the same database state
/// — including null join keys and mixed Int/Float key components.
#[test]
fn composite_and_band_joins_produce_identical_states() {
    let policies = [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.3),
        VirtualPolicy::SelectivityThreshold(0.8),
    ];
    let mut reference: Option<(Rows, Rows)> = None;
    for policy in policies {
        for (indexing, composite) in [(false, true), (true, true), (true, false)] {
            let mut db = build_composite_band(policy.clone(), indexing, composite);
            apply_composite_band_stream(&mut db, 0xBA5EBA11, 140);
            let emp = snapshot(&mut db, "emp");
            let audit = snapshot(&mut db, "audit");
            for kind in 1..=3 {
                assert!(
                    audit.iter().any(|r| r[1] == Value::Int(kind)),
                    "rule kind {kind} must fire under {policy:?}"
                );
            }
            if indexing {
                let s = db.network_stats();
                assert_eq!(
                    s.indexed_candidates + s.scanned_candidates,
                    s.stored_join_candidates + s.virtual_join_candidates,
                    "every join candidate comes from a probe or a scan"
                );
                if matches!(policy, VirtualPolicy::AllStored) {
                    assert!(
                        s.range_probes > 0 && s.range_hits > 0,
                        "stored band memories must serve stabbing queries"
                    );
                    assert!(s.index_probes > 0, "equi joins must probe hash buckets");
                }
            }
            match &reference {
                None => reference = Some((emp, audit)),
                Some((ref_emp, ref_audit)) => {
                    assert_eq!(
                        &emp, ref_emp,
                        "emp diverged: {policy:?}/indexing={indexing}/composite={composite}"
                    );
                    assert_eq!(
                        &audit, ref_audit,
                        "audit diverged: {policy:?}/indexing={indexing}/composite={composite}"
                    );
                }
            }
        }
    }
}

/// Build an engine on a chosen network backend with the composite/band/
/// null-key rule set, but pattern-only (the Rete baseline rejects event
/// and transition conditions).
fn build_backend(policy: VirtualPolicy, rete: Option<ReteMode>) -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        rete_mode: rete,
        ..Default::default()
    });
    db.execute(
        "create emp (id = int, sal = float, dno = int, jno = int); \
         create dept (dno = int, floor = int); \
         create band (lo = int, hi = float); \
         create audit (id = int, kind = int)",
    )
    .unwrap();
    db.execute(
        "define rule r_comp if emp.dno = dept.dno and emp.jno = dept.floor \
         then append to audit(id = emp.id, kind = 1)",
    )
    .unwrap();
    db.execute(
        "define rule r_band if band.lo < emp.sal and emp.sal <= band.hi \
         then append to audit(id = emp.id, kind = 2)",
    )
    .unwrap();
    db.execute(
        "define rule r_sel if emp.sal > 40 \
         then append to audit(id = emp.id, kind = 3)",
    )
    .unwrap();
    db
}

/// Three-way network oracle: the A-TREAT network, the indexed Rete network
/// and the nested-loop Rete network must all converge to the same database
/// state — on band joins, composite equi-joins and null join keys, under
/// append/delete/replace churn, for every virtual policy. (The Rete
/// backend maps `SelectivityThreshold` to all-stored; behaviour must still
/// be identical, only memory differs.)
#[test]
fn treat_and_both_rete_modes_produce_identical_states() {
    let policies = [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.3),
        VirtualPolicy::SelectivityThreshold(0.8),
    ];
    let backends = [None, Some(ReteMode::Indexed), Some(ReteMode::Nested)];
    let mut reference: Option<(Rows, Rows)> = None;
    for policy in policies {
        for backend in backends {
            let mut db = build_backend(policy.clone(), backend);
            apply_composite_band_stream(&mut db, 0xC0FFEE, 140);
            let emp = snapshot(&mut db, "emp");
            let audit = snapshot(&mut db, "audit");
            for kind in 1..=3 {
                assert!(
                    audit.iter().any(|r| r[1] == Value::Int(kind)),
                    "rule kind {kind} must fire under {policy:?}/{backend:?}"
                );
            }
            let s = db.network_stats();
            match backend {
                Some(ReteMode::Indexed) => {
                    assert!(s.beta_bytes > 0, "Rete holds β state ({policy:?})");
                    assert!(
                        s.beta_probes > 0,
                        "indexed Rete probes β indexes ({policy:?})"
                    );
                    assert!(s.beta_hits <= s.beta_probes);
                }
                Some(ReteMode::Nested) => {
                    assert!(s.beta_bytes > 0, "Rete holds β state ({policy:?})");
                    assert_eq!(s.beta_probes, 0, "nested Rete never probes");
                }
                None => {
                    assert_eq!(s.beta_bytes, 0, "TREAT materializes no β state");
                    assert_eq!(s.beta_probes, 0);
                }
            }
            match &reference {
                None => reference = Some((emp, audit)),
                Some((ref_emp, ref_audit)) => {
                    assert_eq!(&emp, ref_emp, "emp diverged: {policy:?}/{backend:?}");
                    assert_eq!(&audit, ref_audit, "audit diverged: {policy:?}/{backend:?}");
                }
            }
        }
    }
}

/// A stream that lands several appends per transition (`do … end`), so
/// the parallel match path sees multi-token *runs* — the case where its
/// visibility stamps, not the pending set, keep self-joins correct.
fn apply_batched_stream(db: &mut Ariel, seed: u64, rounds: usize) {
    let mut rng = Rng(seed | 1);
    let mut next_id = 1000i64;
    for _ in 0..rounds {
        let mut cmds = Vec::new();
        for _ in 0..(2 + rng.below(6)) {
            let id = next_id;
            next_id += 1;
            let sal = rng.below(9000);
            let dno = rng.below(5);
            cmds.push(format!("append emp (id = {id}, sal = {sal}, dno = {dno})"));
        }
        db.execute(&format!("do {} end", cmds.join(" "))).unwrap();
        if rng.below(3) == 0 {
            let dno = rng.below(5);
            let floor = rng.below(6);
            db.execute(&format!("append dept (dno = {dno}, floor = {floor})"))
                .unwrap();
        }
        if rng.below(4) == 0 {
            let id = 1000 + rng.below((next_id - 1000).max(1) as u64);
            db.execute(&format!("delete emp where emp.id = {id}"))
                .unwrap();
        }
    }
}

/// Parallel-match oracle: with β-join probes fanned across 1, 2 or 4
/// workers, every virtual policy must converge to the same final state as
/// the sequential reference — under the per-command churn stream (runs of
/// length 1, exercising the run boundaries and sequential fallbacks) and
/// the batched stream (long runs, exercising the visibility stamps).
#[test]
fn parallel_match_produces_identical_states() {
    let policies = [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.3),
    ];
    for policy in policies {
        let mut seq = build(policy.clone());
        apply_stream(&mut seq, 0xFEED, 120);
        apply_batched_stream(&mut seq, 0xABBA, 30);
        let ref_emp = snapshot(&mut seq, "emp");
        let ref_audit = snapshot(&mut seq, "audit");
        assert!(!ref_audit.is_empty(), "the stream must exercise the rules");
        for threads in [1usize, 2, 4] {
            let mut par = build_with(EngineOptions {
                virtual_policy: policy.clone(),
                parallel_match: true,
                match_threads: threads,
                ..Default::default()
            });
            assert!(par.parallel_match());
            apply_stream(&mut par, 0xFEED, 120);
            apply_batched_stream(&mut par, 0xABBA, 30);
            assert_eq!(
                snapshot(&mut par, "emp"),
                ref_emp,
                "emp diverged: {policy:?}/{threads} threads"
            );
            assert_eq!(
                snapshot(&mut par, "audit"),
                ref_audit,
                "audit diverged: {policy:?}/{threads} threads"
            );
        }
    }
}

/// Parallel match against all three backends: the A-TREAT network runs
/// the parallel path, the Rete baselines ignore the flag and stay
/// sequential — every (backend, thread-count) combination must converge
/// to the same state the sequential three-way oracle already pins down.
#[test]
fn parallel_match_across_backends_produces_identical_states() {
    let backends = [None, Some(ReteMode::Indexed), Some(ReteMode::Nested)];
    let mut reference: Option<(Rows, Rows)> = None;
    for backend in backends {
        for threads in [1usize, 2, 4] {
            let mut db = Ariel::with_options(EngineOptions {
                rete_mode: backend,
                parallel_match: backend.is_none(),
                match_threads: threads,
                ..Default::default()
            });
            db.execute(
                "create emp (id = int, sal = float, dno = int, jno = int); \
                 create dept (dno = int, floor = int); \
                 create band (lo = int, hi = float); \
                 create audit (id = int, kind = int)",
            )
            .unwrap();
            db.execute(
                "define rule r_comp if emp.dno = dept.dno and emp.jno = dept.floor \
                 then append to audit(id = emp.id, kind = 1)",
            )
            .unwrap();
            db.execute(
                "define rule r_band if band.lo < emp.sal and emp.sal <= band.hi \
                 then append to audit(id = emp.id, kind = 2)",
            )
            .unwrap();
            db.execute(
                "define rule r_sel if emp.sal > 40 \
                 then append to audit(id = emp.id, kind = 3)",
            )
            .unwrap();
            apply_composite_band_stream(&mut db, 0xC0FFEE, 140);
            let emp = snapshot(&mut db, "emp");
            let audit = snapshot(&mut db, "audit");
            match &reference {
                None => reference = Some((emp, audit)),
                Some((ref_emp, ref_audit)) => {
                    assert_eq!(&emp, ref_emp, "emp diverged: {backend:?}/{threads}");
                    assert_eq!(&audit, ref_audit, "audit diverged: {backend:?}/{threads}");
                }
            }
        }
    }
}

/// Scheduling-independence stress: permuting how join seeds are dealt to
/// worker deques (seeded shuffles standing in for adversarial schedules)
/// must not change any result, because each seed's computation is
/// self-contained and the merge runs in token order.
#[test]
fn parallel_match_shard_order_stress() {
    let mut reference: Option<(Rows, Rows)> = None;
    for shard_seed in [
        None,
        Some(0x5EED_0001u64),
        Some(0x5EED_0002),
        Some(u64::MAX),
    ] {
        let mut db = build_with(EngineOptions {
            parallel_match: true,
            match_threads: 3,
            ..Default::default()
        });
        db.set_match_shard_seed(shard_seed);
        apply_batched_stream(&mut db, 0xD15EA5E, 40);
        apply_stream(&mut db, 0xD15EA5E, 60);
        let emp = snapshot(&mut db, "emp");
        let audit = snapshot(&mut db, "audit");
        assert!(!audit.is_empty(), "the stream must exercise the rules");
        match &reference {
            None => reference = Some((emp, audit)),
            Some((ref_emp, ref_audit)) => {
                assert_eq!(
                    &emp, ref_emp,
                    "emp diverged under shard seed {shard_seed:?}"
                );
                assert_eq!(
                    &audit, ref_audit,
                    "audit diverged under shard seed {shard_seed:?}"
                );
            }
        }
    }
}

/// Build an engine over a string-keyed schema on a chosen backend, with
/// string interning on or off — the memory-layout dimension. Rules cover
/// a string equi-join, a string selection predicate and a numeric band.
fn build_interning(rete: Option<ReteMode>, intern: bool) -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        rete_mode: rete,
        intern_strings: intern,
        ..Default::default()
    });
    db.execute(
        "create emp (id = int, name = string, dept = string, sal = float); \
         create dept (dname = string, floor = int); \
         create audit (id = int, kind = int)",
    )
    .unwrap();
    db.execute(
        "define rule r_sjoin if emp.dept = dept.dname and dept.floor < 4 \
         then append to audit(id = emp.id, kind = 1)",
    )
    .unwrap();
    db.execute(
        "define rule r_ssel if emp.name = \"hot\" \
         then append to audit(id = emp.id, kind = 2)",
    )
    .unwrap();
    db.execute(
        "define rule r_band if emp.sal > 30 and emp.sal <= 60 \
         then append to audit(id = emp.id, kind = 3)",
    )
    .unwrap();
    db
}

/// Randomized stream over the string-keyed schema: pooled names (so
/// interning dedupes), occasional null join keys, churn on both sides of
/// the string join.
fn apply_string_stream(db: &mut Ariel, seed: u64, steps: usize) {
    let mut rng = Rng(seed | 1);
    let mut next_id = 0i64;
    for _ in 0..steps {
        match rng.below(10) {
            0..=4 => {
                let id = next_id;
                next_id += 1;
                let name = if rng.below(5) == 0 {
                    "hot".to_string()
                } else {
                    format!("n{}", rng.below(8))
                };
                let sal = rng.below(80);
                let cmd = if rng.below(6) == 0 {
                    format!("append emp (id = {id}, name = \"{name}\", sal = {sal})")
                } else {
                    format!(
                        "append emp (id = {id}, name = \"{name}\", \
                         dept = \"d{}\", sal = {sal})",
                        rng.below(6)
                    )
                };
                db.execute(&cmd).unwrap();
            }
            5..=6 => {
                let cmd = format!(
                    "append dept (dname = \"d{}\", floor = {})",
                    rng.below(6),
                    rng.below(8)
                );
                db.execute(&cmd).unwrap();
            }
            7 => {
                let id = rng.below(next_id.max(1) as u64);
                db.execute(&format!(
                    "replace emp (dept = \"d{}\") where emp.id = {id}",
                    rng.below(6)
                ))
                .unwrap();
            }
            _ => {
                let id = rng.below(next_id.max(1) as u64);
                db.execute(&format!("delete emp where emp.id = {id}"))
                    .unwrap();
            }
        }
    }
}

/// Like [`snapshot`], but normalizes interned symbols back to plain
/// strings first: `Sym` and `Str` compare equal by content, yet their
/// `Debug` sort keys differ, so the interned and legacy layouts would
/// order rows differently without this.
fn snapshot_normalized(db: &mut Ariel, rel: &str) -> Rows {
    let mut rows: Rows = db
        .query(&format!("retrieve ({rel}.all)"))
        .unwrap()
        .rows
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| match v {
                    Value::Sym(s) => Value::Str(s.as_str().to_string()),
                    other => other,
                })
                .collect()
        })
        .collect();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// Interning oracle: symbol interning is a pure representation change, so
/// every (backend, interning) combination — A-TREAT, indexed Rete, nested
/// Rete, each with interning on and off — must converge to the same
/// database state on a string-keyed workload with pooled names, string
/// join keys and null-key churn.
#[test]
fn interning_on_and_off_produce_identical_states() {
    let backends = [None, Some(ReteMode::Indexed), Some(ReteMode::Nested)];
    let mut reference: Option<(Rows, Rows)> = None;
    for backend in backends {
        for intern in [true, false] {
            let mut db = build_interning(backend, intern);
            assert_eq!(db.catalog().intern_strings(), intern);
            apply_string_stream(&mut db, 0x1D10_7BEE, 150);
            let emp = snapshot_normalized(&mut db, "emp");
            let audit = snapshot_normalized(&mut db, "audit");
            for kind in 1..=3 {
                assert!(
                    audit.iter().any(|r| r[1] == Value::Int(kind)),
                    "rule kind {kind} must fire under {backend:?}/intern={intern}"
                );
            }
            match &reference {
                None => reference = Some((emp, audit)),
                Some((ref_emp, ref_audit)) => {
                    assert_eq!(&emp, ref_emp, "emp diverged: {backend:?}/intern={intern}");
                    assert_eq!(
                        &audit, ref_audit,
                        "audit diverged: {backend:?}/intern={intern}"
                    );
                }
            }
        }
    }
}

#[test]
fn long_stream_with_two_seeds() {
    for seed in [7u64, 99] {
        let mut a = build(VirtualPolicy::AllStored);
        let mut b = build(VirtualPolicy::AllVirtual);
        apply_stream(&mut a, seed, 100);
        apply_stream(&mut b, seed, 100);
        assert_eq!(
            snapshot(&mut a, "audit"),
            snapshot(&mut b, "audit"),
            "seed {seed}"
        );
        assert_eq!(
            snapshot(&mut a, "emp"),
            snapshot(&mut b, "emp"),
            "seed {seed}"
        );
    }
}

/// Engine for the `−`-routing scenarios: two disjoint salary bands, an
/// unanchored `!=` selection inside a join, and — A-TREAT only, the Rete
/// baseline rejects them — an ON DELETE rule and a `previous` condition on
/// the same relation.
fn build_minus_routing(policy: VirtualPolicy, rete: Option<ReteMode>) -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        rete_mode: rete,
        ..Default::default()
    });
    db.execute(
        "create emp (id = int, sal = int, dno = int); \
         create dept (dno = int, floor = int); \
         create audit (id = int, kind = int)",
    )
    .unwrap();
    let mut rules = vec![
        "define rule band_lo if emp.sal > 0 and emp.sal <= 100 \
         then append to audit(id = emp.id, kind = 1)",
        "define rule band_hi if emp.sal > 1000 and emp.sal <= 2000 \
         then append to audit(id = emp.id, kind = 2)",
        "define rule not50 if emp.sal != 50 and emp.dno = dept.dno \
         then append to audit(id = emp.id, kind = 3)",
    ];
    if rete.is_none() {
        rules.push("define rule gone on delete emp then append to audit(id = emp.id, kind = 4)");
        rules.push(
            "define rule doubled if emp.sal > 2 * previous emp.sal \
             then append to audit(id = emp.id, kind = 5)",
        );
    }
    for rule in rules {
        db.execute(rule).unwrap();
    }
    db
}

/// `−` tokens find what they retract by stabbing the selection network
/// with the value they carry. Each block below leaves matches standing
/// between its commands (rules fire at the block's end), so a `−` token
/// that missed a memory or a P-node row would fire a rule that must not
/// fire. The expected audit rows are worked out by hand, per block.
#[test]
fn minus_routing_scenarios_have_exact_outcomes() {
    // (script, audit rows it adds on every backend, rows it adds where the
    // event and transition rules exist)
    type Step = (&'static str, &'static [(i64, i64)], &'static [(i64, i64)]);
    let steps: &[Step] = &[
        ("append dept (dno = 1, floor = 1)", &[], &[]),
        // i m: the replace moves the tuple from band_lo to the disjoint
        // band_hi; the − carrying 50 retracts band_lo's standing match
        (
            "do append emp (id = 1, sal = 50, dno = 1) \
                replace emp (sal = 1500) where emp.id = 1 end",
            &[(1, 2), (1, 3)],
            &[],
        ),
        // i m into the value `!=` excludes: the unanchored node is a
        // candidate of every token and gives its match back
        (
            "do append emp (id = 2, sal = 70, dno = 1) \
                replace emp (sal = 50) where emp.id = 2 end",
            &[(2, 1)],
            &[],
        ),
        // i m d: nets to nothing, not even a delete event
        (
            "do append emp (id = 3, sal = 80, dno = 1) \
                replace emp (sal = 1200) where emp.id = 3 \
                delete emp where emp.id = 3 end",
            &[],
            &[],
        ),
        // m m d on a pre-existing tuple: every Δ+ match (both bands, `!=`,
        // the doubling) is taken back by the Δ− that follows; only the
        // delete event survives
        (
            "do replace emp (sal = 90) where emp.id = 2 \
                replace emp (sal = 1100) where emp.id = 2 \
                delete emp where emp.id = 2 end",
            &[],
            &[(2, 4)],
        ),
        // m m: the first replace more than doubles the salary, the second
        // does not — the `previous` condition (never anchored) lets go
        (
            "do replace emp (sal = 4000) where emp.id = 1 \
                replace emp (sal = 1600) where emp.id = 1 end",
            &[(1, 2), (1, 3)],
            &[],
        ),
        // a null in the anchored attribute: the − token stabs no band
        (
            "do append emp (id = 4, dno = 1) \
                replace emp (sal = 60) where emp.id = 4 end",
            &[(4, 1), (4, 3)],
            &[],
        ),
        // an ON DELETE rule beside the pattern rules on emp
        ("delete emp where emp.id = 4", &[], &[(4, 4)]),
        (
            "do append emp (id = 5, sal = 1500, dno = 1) \
                delete emp where emp.id = 1 end",
            &[(5, 2), (5, 3)],
            &[(1, 4)],
        ),
        // and the transition rule does fire when the doubling stands
        (
            "replace emp (sal = 4000) where emp.id = 5",
            &[(5, 3)],
            &[(5, 5)],
        ),
    ];
    let backends = [
        (VirtualPolicy::AllStored, None),
        (VirtualPolicy::AllVirtual, None),
        (VirtualPolicy::AllStored, Some(ReteMode::Indexed)),
        (VirtualPolicy::AllStored, Some(ReteMode::Nested)),
        (VirtualPolicy::AllVirtual, Some(ReteMode::Indexed)),
    ];
    for (policy, rete) in backends {
        let mut db = build_minus_routing(policy.clone(), rete);
        let mut want: Rows = Vec::new();
        for (script, always, with_events) in steps {
            db.execute(script).unwrap();
            let events: &[(i64, i64)] = if rete.is_none() { with_events } else { &[] };
            for (id, kind) in always.iter().chain(events) {
                want.push(vec![Value::Int(*id), Value::Int(*kind)]);
            }
            assert_eq!(
                snapshot(&mut db, "audit"),
                sorted(want.clone()),
                "after `{script}` under {policy:?}/{rete:?}"
            );
        }
        assert_eq!(
            db.network_stats().pnode_rows,
            0,
            "quiescent: {policy:?}/{rete:?}"
        );
    }
}

/// Stored TREAT memories share their relation's join indexes (one shared
/// index per attribute set, each tuple filed once however many memories
/// hold it). Overlapping-band join rules put one `emp` tuple in several
/// memories at once; the script then moves join keys, and touches one
/// tuple several times inside a block, while the P-nodes — never drained,
/// no rule fires here — are compared after every block: stored TREAT vs
/// all-virtual A-TREAT vs indexed Rete vs a from-scratch evaluation.
#[test]
fn shared_join_indexes_scripted_blocks_match_across_backends() {
    use ariel::network::{Network, ReteNetwork, RuleId};
    use ariel::query::{parse_command, parse_expr, run_plan, Command, ExecCtx, Optimizer};
    use ariel::query::{FromItem, Pnode, ResolvedCondition, Resolver};
    use ariel::storage::{AttrType, Catalog, Schema};
    use ariel::DeltaTracker;

    let mut cat = Catalog::new();
    let int = AttrType::Int;
    for (rel, attrs) in [
        (
            "emp",
            &[("id", int), ("sal", int), ("dno", int), ("jno", int)][..],
        ),
        ("dept", &[("dno", int), ("floor", int)]),
        ("job", &[("jno", int), ("grade", int)]),
    ] {
        cat.create(rel, Schema::of(attrs)).unwrap();
    }
    let conds: Vec<ResolvedCondition> = [
        "emp.sal > 0 and emp.sal <= 100 and emp.dno = dept.dno",
        "emp.sal > 50 and emp.sal <= 150 and emp.dno = dept.dno and emp.jno = job.jno",
        "emp.sal > 80 and emp.sal <= 200 and emp.jno = job.jno and job.grade = 1",
        "emp.sal > 50 and emp.sal <= 150 and emp.dno = dept.dno and dept.floor = 1",
    ]
    .iter()
    .map(|q| {
        Resolver::new(&cat)
            .resolve_condition(None, Some(&parse_expr(q).unwrap()), &[])
            .unwrap()
    })
    .chain(std::iter::once(
        Resolver::new(&cat)
            .resolve_condition(
                None,
                Some(
                    &parse_expr(
                        "x.sal > 0 and x.sal <= 100 and y.sal > 50 and y.sal <= 150 \
                         and x.dno = y.dno",
                    )
                    .unwrap(),
                ),
                &[
                    FromItem {
                        var: "x".into(),
                        rel: "emp".into(),
                    },
                    FromItem {
                        var: "y".into(),
                        rel: "emp".into(),
                    },
                ],
            )
            .unwrap(),
    ))
    .collect();
    let mut stored = Network::new();
    let mut virt = Network::new();
    let mut rete = ReteNetwork::new();
    for (i, c) in conds.iter().enumerate() {
        let id = RuleId(i as u64);
        stored
            .add_rule(id, c, &VirtualPolicy::AllStored, &cat)
            .unwrap();
        virt.add_rule(id, c, &VirtualPolicy::AllVirtual, &cat)
            .unwrap();
        rete.add_rule(id, c, &cat).unwrap();
    }
    let tids = |p: &Pnode| {
        let mut rows: Vec<Vec<Option<u64>>> = p
            .rows()
            .iter()
            .map(|r| r.iter().map(|b| b.tid.map(|t| t.0)).collect())
            .collect();
        rows.sort();
        rows
    };
    let recompute = |cat: &Catalog, c: &ResolvedCondition| {
        let plan = Optimizer::new(cat).plan(&c.spec).unwrap();
        let ctx = ExecCtx {
            catalog: cat,
            pnode: None,
            nvars: c.spec.vars.len(),
        };
        let mut rows: Vec<Vec<Option<u64>>> = run_plan(&plan, &ctx)
            .unwrap()
            .iter()
            .map(|r| {
                r.slots
                    .iter()
                    .map(|s| s.as_ref().and_then(|b| b.tid).map(|t| t.0))
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    };
    let blocks = [
        "do append dept (dno = 1, floor = 1) append dept (dno = 2, floor = 2) \
            append dept (dno = 3, floor = 1) append job (jno = 1, grade = 1) \
            append job (jno = 2, grade = 2) end",
        // one emp lands in up to four band memories at once
        "do append emp (id = 1, sal = 60, dno = 1, jno = 1) \
            append emp (id = 2, sal = 90, dno = 1, jno = 2) \
            append emp (id = 3, sal = 120, dno = 2, jno = 1) end",
        // a replace that moves a tuple's join key, held by several memories
        "replace emp (dno = 2) where emp.id = 2",
        // both sides move: an emp's jno and a dept's dno
        "do replace emp (jno = 2, sal = 140) where emp.id = 3 \
            replace dept (dno = 4) where dept.dno = 2 end",
        // i m d inside one block: nets to nothing
        "do append emp (id = 4, sal = 70, dno = 1, jno = 1) \
            replace emp (dno = 3) where emp.id = 4 \
            delete emp where emp.id = 4 end",
        // m m d on a pre-existing tuple
        "do replace emp (sal = 95) where emp.id = 2 \
            replace emp (dno = 3) where emp.id = 2 \
            delete emp where emp.id = 2 end",
        // m m left standing: out of one band set, into another
        "do replace emp (sal = 130) where emp.id = 1 \
            replace emp (jno = 2, dno = 3) where emp.id = 1 end",
        // a Null join key: in the band memories, in no bucket
        "append emp (id = 5, sal = 75, jno = 2)",
        "do replace emp (dno = 1) where emp.id = 5 delete emp where emp.id = 3 end",
    ];
    let mut matched = 0;
    for block in blocks {
        let cmds = match parse_command(block).unwrap() {
            Command::Block(cmds) => cmds,
            single => vec![single],
        };
        let mut delta = DeltaTracker::new();
        for cmd in &cmds {
            let rcmd = Resolver::new(&cat).resolve_command(cmd).unwrap();
            let out = ariel::query::execute(&rcmd, &mut cat, None).unwrap();
            let tokens = delta.tokens_for_all(&out.changes);
            stored.process_batch(&tokens, &cat).unwrap();
            virt.process_batch(&tokens, &cat).unwrap();
            rete.process_batch(&tokens, &cat).unwrap();
        }
        for (i, c) in conds.iter().enumerate() {
            let id = RuleId(i as u64);
            let want = recompute(&cat, c);
            let got = tids(stored.pnode(id).unwrap());
            assert_eq!(got, want, "stored TREAT, rule {i}, after `{block}`");
            assert_eq!(tids(virt.pnode(id).unwrap()), want, "A-TREAT, rule {i}");
            assert_eq!(tids(rete.pnode(id).unwrap()), want, "Rete, rule {i}");
            matched += want.len();
        }
    }
    assert!(
        matched > 20,
        "the script must leave matches standing ({matched})"
    );
    let s = stored.stats();
    assert!(
        s.index_probes > 0,
        "stored memories probed the shared indexes"
    );
}
