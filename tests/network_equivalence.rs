//! Equivalence of discrimination-network configurations: whatever mix of
//! stored and virtual α-memories (and whichever network algorithm) is used,
//! rule behaviour must be identical.
//!
//! Two levels. Engine-level tests run a randomized command stream against
//! engines configured differently and compare final database states. The
//! network-level tests feed the same streams, transition by transition,
//! to the A-TREAT `Network` under several virtual policies and join access
//! paths and to the `ReteNetwork` comparison baseline in both join modes,
//! and check every P-node against a from-scratch evaluation of its
//! condition after every transition. Rete, nested-loop joins,
//! single-attribute join keys and the legacy string layout are ablations
//! of the network and the catalog, not engine options, so their legs live
//! at that level.

#[path = "common/matchers.rs"]
mod matchers;

use ariel::network::{ReteMode, RuleId, VirtualPolicy};
use ariel::query::{parse_command, Command, ResolvedCondition, Resolver};
use ariel::storage::{AttrDef, Catalog, Schema, Value};
use ariel::{Ariel, DeltaTracker, EngineOptions};
use matchers::{pnode_tids, recompute, Config, Net};
use std::sync::Arc;

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

/// Execute a command stream, one transition per command.
fn run(db: &mut Ariel, cmds: &[String]) {
    for cmd in cmds {
        db.execute(cmd).unwrap();
    }
}

const CHURN_SCHEMA: &str = "create emp (id = int, sal = float, dno = int); \
     create dept (dno = int, floor = int); \
     create audit (id = int, kind = int)";

/// The pattern rules of the churn workload: a selection and a join.
const CHURN_PATTERN_RULES: [&str; 2] = [
    "define rule r_sel if emp.sal > 5000 then append to audit(id = emp.id, kind = 1)",
    "define rule r_join if emp.sal > 1000 and emp.dno = dept.dno and dept.floor < 3 \
     then append to audit(id = emp.id, kind = 2)",
];

fn build(policy: VirtualPolicy) -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        ..Default::default()
    });
    db.execute(CHURN_SCHEMA).unwrap();
    // a mix of rule shapes: selection, join, transition, event
    for rule in CHURN_PATTERN_RULES {
        db.execute(rule).unwrap();
    }
    db.execute(
        "define rule r_trans if emp.sal > 2 * previous emp.sal \
         then append to audit(id = emp.id, kind = 3)",
    )
    .unwrap();
    db.execute("define rule r_event on delete emp then append to audit(id = emp.id, kind = 4)")
        .unwrap();
    db
}

/// Appends, replaces and deletes over emp/dept.
fn churn_stream(seed: u64, steps: usize) -> Vec<String> {
    let mut rng = Rng(seed | 1);
    let mut next_id = 0i64;
    (0..steps)
        .map(|_| match rng.below(10) {
            0..=3 => {
                let id = next_id;
                next_id += 1;
                let sal = rng.below(9000);
                let dno = rng.below(5);
                format!("append emp (id = {id}, sal = {sal}, dno = {dno})")
            }
            4..=5 => {
                let dno = rng.below(5);
                let floor = rng.below(6);
                format!("append dept (dno = {dno}, floor = {floor})")
            }
            6..=7 => {
                let id = rng.below(next_id.max(1) as u64);
                let sal = rng.below(12_000);
                format!("replace emp (sal = {sal}) where emp.id = {id}")
            }
            _ => {
                let id = rng.below(next_id.max(1) as u64);
                format!("delete emp where emp.id = {id}")
            }
        })
        .collect()
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
    let stream = churn_stream(0xDECAF, 150);
    let mut reference: Option<(Rows, Rows)> = None;
    for policy in policies {
        let mut db = build(policy.clone());
        run(&mut db, &stream);
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
        db.execute(CHURN_SCHEMA).unwrap();
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

const COMPOSITE_BAND_SCHEMA: &str = "create emp (id = int, sal = float, dno = int, jno = int); \
     create dept (dno = int, floor = int); \
     create band (lo = int, hi = float); \
     create audit (id = int, kind = int)";

/// Two-conjunct equi-joins (a pure `Int` key and a mixed `Float`/`Int`
/// key) plus an interval-shaped band join against a `band` relation whose
/// bounds mix `Int` (`lo`) and `Float` (`hi`) columns.
const COMPOSITE_BAND_RULES: [&str; 3] = [
    "define rule r_comp if emp.dno = dept.dno and emp.jno = dept.floor \
     then append to audit(id = emp.id, kind = 1)",
    "define rule r_band if band.lo < emp.sal and emp.sal <= band.hi \
     then append to audit(id = emp.id, kind = 2)",
    "define rule r_mixed if emp.sal = dept.floor and emp.dno = dept.dno \
     then append to audit(id = emp.id, kind = 3)",
];

/// Randomized stream over emp/dept/band that regularly leaves join-key
/// attributes null (omitted from the append) — null keys must join nothing
/// on both the indexed and the nested-loop path.
fn composite_band_stream(seed: u64, steps: usize) -> Vec<String> {
    let mut rng = Rng(seed | 1);
    let mut next_id = 0i64;
    (0..steps)
        .map(|_| match rng.below(12) {
            0..=4 => {
                let id = next_id;
                next_id += 1;
                let sal = rng.below(50);
                let dno = rng.below(6);
                let jno = rng.below(6);
                match rng.below(8) {
                    0 => format!("append emp (id = {id}, sal = {sal}, jno = {jno})"),
                    1 => format!("append emp (id = {id}, dno = {dno}, jno = {jno})"),
                    _ => format!("append emp (id = {id}, sal = {sal}, dno = {dno}, jno = {jno})"),
                }
            }
            5..=6 => {
                let dno = rng.below(6);
                let floor = rng.below(6);
                if rng.below(6) == 0 {
                    format!("append dept (dno = {dno})")
                } else {
                    format!("append dept (dno = {dno}, floor = {floor})")
                }
            }
            7..=8 => {
                let lo = rng.below(40);
                let hi = lo + 15;
                if rng.below(6) == 0 {
                    format!("append band (lo = {lo})")
                } else {
                    format!("append band (lo = {lo}, hi = {hi})")
                }
            }
            9 => {
                let id = rng.below(next_id.max(1) as u64);
                let sal = rng.below(50);
                format!("replace emp (sal = {sal}) where emp.id = {id}")
            }
            _ => {
                let id = rng.below(next_id.max(1) as u64);
                format!("delete emp where emp.id = {id}")
            }
        })
        .collect()
}

// ----- network level: A-TREAT vs Rete vs recompute ---------------------------

/// Pattern rules compiled into several matchers over one catalog. Each
/// transition is applied to the catalog exactly as the engine applies it
/// (one Δ-set per transition, one token batch per command), fed to every
/// matcher, and checked: every P-node equals a from-scratch evaluation of
/// its condition, and each matcher's eligible rules are the non-empty
/// ones. No rule fires, so P-nodes accumulate every standing match.
struct Networks {
    cat: Catalog,
    conds: Vec<ResolvedCondition>,
    nets: Vec<(Config, Net)>,
    /// Per rule: the most instantiations any check saw standing.
    peak: Vec<usize>,
}

impl Networks {
    /// `schema` is a script of `create` commands and `rules` are `define
    /// rule` texts — the same inputs an engine-level test executes.
    fn new(schema: &str, rules: &[&str], configs: &[Config], intern: bool) -> Networks {
        let mut cat = Catalog::new();
        cat.set_intern_strings(intern);
        for cmd in ariel::query::parse_script(schema).unwrap() {
            let Command::CreateRelation { name, attrs } = cmd else {
                panic!("schema scripts hold `create` commands only");
            };
            let attrs = attrs.into_iter().map(|(n, t)| AttrDef::new(n, t)).collect();
            cat.create(&name, Arc::new(Schema::new(attrs).unwrap()))
                .unwrap();
        }
        let conds: Vec<ResolvedCondition> = rules
            .iter()
            .map(|src| {
                let Command::DefineRule(def) = parse_command(src).unwrap() else {
                    panic!("not a rule: {src}");
                };
                Resolver::new(&cat)
                    .resolve_condition(def.on.as_ref(), def.condition.as_ref(), &def.cond_from)
                    .unwrap()
            })
            .collect();
        let nets = configs
            .iter()
            .map(|c| (c.clone(), Net::build(c, &conds, &cat)))
            .collect();
        let peak = vec![0; conds.len()];
        let mut harness = Networks {
            cat,
            conds,
            nets,
            peak,
        };
        harness.check("activation");
        harness
    }

    /// Apply one transition — a command or a `do … end` block.
    fn run(&mut self, script: &str) {
        let cmds = match parse_command(script).unwrap() {
            Command::Block(cmds) => cmds,
            single => vec![single],
        };
        let mut delta = DeltaTracker::new();
        for cmd in &cmds {
            let rcmd = Resolver::new(&self.cat).resolve_command(cmd).unwrap();
            let out = ariel::query::execute(&rcmd, &mut self.cat, None).unwrap();
            let tokens = delta.tokens_for_all(&out.changes);
            for (_, net) in &mut self.nets {
                net.process_batch(&tokens, &self.cat);
            }
        }
        self.check(script);
    }

    fn run_all(&mut self, scripts: &[String]) {
        for script in scripts {
            self.run(script);
        }
    }

    fn check(&mut self, after: &str) {
        let mut nonempty = Vec::new();
        for (i, cond) in self.conds.iter().enumerate() {
            let want = recompute(&self.cat, cond);
            for (config, net) in &self.nets {
                assert_eq!(
                    pnode_tids(net.pnode(i)),
                    want,
                    "rule {i} on {config:?} after `{after}`"
                );
            }
            self.peak[i] = self.peak[i].max(want.len());
            if !want.is_empty() {
                nonempty.push(RuleId(i as u64));
            }
        }
        for (config, net) in &self.nets {
            assert_eq!(
                net.rules_with_matches(),
                nonempty,
                "eligible rules on {config:?} after `{after}`"
            );
        }
    }

    /// Every rule had a match standing at some check.
    fn assert_every_rule_matched(&self) {
        for (i, peak) in self.peak.iter().enumerate() {
            assert!(*peak > 0, "the stream never matched rule {i}");
        }
    }

    /// With join indexing on, every join candidate comes from a probe or a
    /// scan; with it off, nothing is probed.
    fn assert_join_paths(&self) {
        for (config, net) in &self.nets {
            let s = net.stats();
            if let Config::TreatJoins {
                indexing: false, ..
            } = config
            {
                assert_eq!(
                    s.index_probes + s.range_probes,
                    0,
                    "{config:?} never probes"
                );
            } else {
                assert_eq!(
                    s.indexed_candidates + s.scanned_candidates,
                    s.stored_join_candidates + s.virtual_join_candidates,
                    "every join candidate comes from a probe or a scan ({config:?})"
                );
            }
        }
    }

    /// TREAT holds no β state; both Rete modes do, and only the indexed
    /// one probes it.
    fn assert_beta_work(&self) {
        for (config, net) in &self.nets {
            let s = net.stats();
            match config {
                Config::Treat(_) | Config::TreatJoins { .. } => {
                    assert_eq!(s.beta_bytes, 0, "TREAT materializes no β state");
                    assert_eq!(s.beta_probes, 0);
                }
                Config::Rete(_, ReteMode::Indexed) => {
                    assert!(s.beta_bytes > 0, "Rete holds β state ({config:?})");
                    assert!(s.beta_probes > 0, "indexed Rete probes β ({config:?})");
                    assert!(s.beta_hits <= s.beta_probes);
                }
                Config::Rete(_, ReteMode::Nested) => {
                    assert!(s.beta_bytes > 0, "Rete holds β state ({config:?})");
                    assert_eq!(s.beta_probes, 0, "nested Rete never probes");
                }
            }
        }
    }
}

/// TREAT under every policy, and Rete in both join modes under each
/// policy Rete honours.
fn every_matcher() -> Vec<Config> {
    let mut configs = Vec::new();
    for policy in [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.3),
        VirtualPolicy::SelectivityThreshold(0.8),
    ] {
        configs.push(Config::Treat(policy.clone()));
        configs.push(Config::Rete(policy.clone(), ReteMode::Indexed));
        configs.push(Config::Rete(policy, ReteMode::Nested));
    }
    configs
}

/// Three-way network oracle: the A-TREAT network, the indexed Rete network
/// and the nested-loop Rete network, each under every virtual policy, must
/// all hold exactly the recomputed matches — on band joins, composite
/// equi-joins and null join keys, under append/delete/replace churn.
#[test]
fn treat_and_rete_in_both_join_modes_match_recompute() {
    let rules = [
        COMPOSITE_BAND_RULES[0],
        COMPOSITE_BAND_RULES[1],
        "define rule r_sel if emp.sal > 40 then append to audit(id = emp.id, kind = 3)",
    ];
    let mut nets = Networks::new(COMPOSITE_BAND_SCHEMA, &rules, &every_matcher(), true);
    nets.run_all(&composite_band_stream(0xC0FFEE, 140));
    nets.assert_every_rule_matched();
    nets.assert_beta_work();
}

/// Indexed-vs-nested-loop oracle: the hash join indexes are a pure
/// optimization, so with indexing on or off — under every virtual policy
/// — the TREAT network holds exactly the recomputed matches after every
/// transition of the churn stream.
#[test]
fn join_indexing_produces_identical_states() {
    let mut configs = Vec::new();
    for policy in [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.3),
    ] {
        for indexing in [true, false] {
            configs.push(Config::TreatJoins {
                policy: policy.clone(),
                indexing,
                composite: true,
            });
        }
    }
    let mut nets = Networks::new(CHURN_SCHEMA, &CHURN_PATTERN_RULES, &configs, true);
    nets.run_all(&churn_stream(0xDECAF, 150));
    nets.assert_every_rule_matched();
    nets.assert_join_paths();
}

/// Composite-key and band-join oracle: hash-composite and interval-index
/// access paths are pure optimizations, so under every (policy, indexing,
/// composite-keys) configuration the TREAT network holds exactly the
/// recomputed matches — including null join keys and mixed Int/Float key
/// components.
#[test]
fn composite_and_band_joins_produce_identical_states() {
    let mut configs = Vec::new();
    for policy in [
        VirtualPolicy::AllStored,
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.3),
        VirtualPolicy::SelectivityThreshold(0.8),
    ] {
        for (indexing, composite) in [(false, true), (true, true), (true, false)] {
            configs.push(Config::TreatJoins {
                policy: policy.clone(),
                indexing,
                composite,
            });
        }
    }
    let mut nets = Networks::new(COMPOSITE_BAND_SCHEMA, &COMPOSITE_BAND_RULES, &configs, true);
    nets.run_all(&composite_band_stream(0xBA5EBA11, 140));
    nets.assert_every_rule_matched();
    nets.assert_join_paths();
    for (config, net) in &nets.nets {
        if let Config::TreatJoins {
            policy: VirtualPolicy::AllStored,
            indexing: true,
            ..
        } = config
        {
            let s = net.stats();
            assert!(
                s.range_probes > 0 && s.range_hits > 0,
                "stored band memories must serve stabbing queries ({config:?})"
            );
            assert!(
                s.index_probes > 0,
                "equi joins must probe hash buckets ({config:?})"
            );
        }
    }
}

const STRING_SCHEMA: &str = "create emp (id = int, name = string, dept = string, sal = float); \
     create dept (dname = string, floor = int); \
     create audit (id = int, kind = int)";

/// A string equi-join, a string selection predicate and a numeric band.
const STRING_RULES: [&str; 3] = [
    "define rule r_sjoin if emp.dept = dept.dname and dept.floor < 4 \
     then append to audit(id = emp.id, kind = 1)",
    "define rule r_ssel if emp.name = \"hot\" then append to audit(id = emp.id, kind = 2)",
    "define rule r_band if emp.sal > 30 and emp.sal <= 60 \
     then append to audit(id = emp.id, kind = 3)",
];

/// Randomized stream over the string-keyed schema: pooled names (so
/// interning dedupes), occasional null join keys, churn on both sides of
/// the string join.
fn string_stream(seed: u64, steps: usize) -> Vec<String> {
    let mut rng = Rng(seed | 1);
    let mut next_id = 0i64;
    (0..steps)
        .map(|_| match rng.below(10) {
            0..=4 => {
                let id = next_id;
                next_id += 1;
                let name = if rng.below(5) == 0 {
                    "hot".to_string()
                } else {
                    format!("n{}", rng.below(8))
                };
                let sal = rng.below(80);
                if rng.below(6) == 0 {
                    format!("append emp (id = {id}, name = \"{name}\", sal = {sal})")
                } else {
                    format!(
                        "append emp (id = {id}, name = \"{name}\", \
                         dept = \"d{}\", sal = {sal})",
                        rng.below(6)
                    )
                }
            }
            5..=6 => format!(
                "append dept (dname = \"d{}\", floor = {})",
                rng.below(6),
                rng.below(8)
            ),
            7 => {
                let id = rng.below(next_id.max(1) as u64);
                format!(
                    "replace emp (dept = \"d{}\") where emp.id = {id}",
                    rng.below(6)
                )
            }
            _ => {
                let id = rng.below(next_id.max(1) as u64);
                format!("delete emp where emp.id = {id}")
            }
        })
        .collect()
}

/// Interning oracle: symbol interning is a pure representation change.
/// A-TREAT and both Rete modes hold exactly the recomputed matches under
/// either catalog layout — and the same TIDs, since both catalogs see the
/// same commands.
#[test]
fn interning_on_and_off_produce_identical_states() {
    let stream = string_stream(0x1D10_7BEE, 150);
    let configs = [
        Config::Treat(VirtualPolicy::AllStored),
        Config::Treat(VirtualPolicy::AllVirtual),
        Config::Rete(VirtualPolicy::AllStored, ReteMode::Indexed),
        Config::Rete(VirtualPolicy::AllStored, ReteMode::Nested),
    ];
    let layouts = [true, false].map(|intern| {
        let mut nets = Networks::new(STRING_SCHEMA, &STRING_RULES, &configs, intern);
        assert_eq!(nets.cat.intern_strings(), intern);
        nets.run_all(&stream);
        nets.assert_every_rule_matched();
        nets
    });
    for rule in 0..STRING_RULES.len() {
        assert_eq!(
            pnode_tids(layouts[0].nets[0].1.pnode(rule)),
            pnode_tids(layouts[1].nets[0].1.pnode(rule)),
            "rule {rule}: interned and legacy layouts matched different tuples"
        );
    }
}

#[test]
fn long_stream_with_two_seeds() {
    for seed in [7u64, 99] {
        let stream = churn_stream(seed, 100);
        let mut a = build(VirtualPolicy::AllStored);
        let mut b = build(VirtualPolicy::AllVirtual);
        run(&mut a, &stream);
        run(&mut b, &stream);
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

const MINUS_ROUTING_SCHEMA: &str = "create emp (id = int, sal = int, dno = int); \
     create dept (dno = int, floor = int); \
     create audit (id = int, kind = int)";

/// The pattern rules of the `−`-routing scenarios: two disjoint salary
/// bands and an unanchored `!=` selection inside a join.
const MINUS_ROUTING_PATTERN_RULES: [&str; 3] = [
    "define rule band_lo if emp.sal > 0 and emp.sal <= 100 \
     then append to audit(id = emp.id, kind = 1)",
    "define rule band_hi if emp.sal > 1000 and emp.sal <= 2000 \
     then append to audit(id = emp.id, kind = 2)",
    "define rule not50 if emp.sal != 50 and emp.dno = dept.dno \
     then append to audit(id = emp.id, kind = 3)",
];

/// Each block leaves matches standing between its commands (rules fire at
/// the block's end), so a `−` token that missed a memory or a P-node row
/// would fire a rule that must not fire. Per block: the script, and the
/// audit rows it adds — worked out by hand.
const MINUS_ROUTING_STEPS: [(&str, &[(i64, i64)]); 10] = [
    ("append dept (dno = 1, floor = 1)", &[]),
    // i m: the replace moves the tuple from band_lo to the disjoint
    // band_hi; the − carrying 50 retracts band_lo's standing match
    (
        "do append emp (id = 1, sal = 50, dno = 1) \
            replace emp (sal = 1500) where emp.id = 1 end",
        &[(1, 2), (1, 3)],
    ),
    // i m into the value `!=` excludes: the unanchored node is a
    // candidate of every token and gives its match back
    (
        "do append emp (id = 2, sal = 70, dno = 1) \
            replace emp (sal = 50) where emp.id = 2 end",
        &[(2, 1)],
    ),
    // i m d: nets to nothing, not even a delete event
    (
        "do append emp (id = 3, sal = 80, dno = 1) \
            replace emp (sal = 1200) where emp.id = 3 \
            delete emp where emp.id = 3 end",
        &[],
    ),
    // m m d on a pre-existing tuple: every Δ+ match (both bands, `!=`,
    // the doubling) is taken back by the Δ− that follows; only the
    // delete event survives
    (
        "do replace emp (sal = 90) where emp.id = 2 \
            replace emp (sal = 1100) where emp.id = 2 \
            delete emp where emp.id = 2 end",
        &[(2, 4)],
    ),
    // m m: the first replace more than doubles the salary, the second
    // does not — the `previous` condition (never anchored) lets go
    (
        "do replace emp (sal = 4000) where emp.id = 1 \
            replace emp (sal = 1600) where emp.id = 1 end",
        &[(1, 2), (1, 3)],
    ),
    // a null in the anchored attribute: the − token stabs no band
    (
        "do append emp (id = 4, dno = 1) \
            replace emp (sal = 60) where emp.id = 4 end",
        &[(4, 1), (4, 3)],
    ),
    // an ON DELETE rule beside the pattern rules on emp
    ("delete emp where emp.id = 4", &[(4, 4)]),
    (
        "do append emp (id = 5, sal = 1500, dno = 1) \
            delete emp where emp.id = 1 end",
        &[(5, 2), (5, 3), (1, 4)],
    ),
    // and the transition rule does fire when the doubling stands
    (
        "replace emp (sal = 4000) where emp.id = 5",
        &[(5, 3), (5, 5)],
    ),
];

/// `−` tokens find what they retract by stabbing the selection network
/// with the value they carry. On the engine — the pattern rules plus an
/// ON DELETE rule and a `previous` condition on the same relation — every
/// block adds exactly the audit rows worked out by hand. At network level
/// the pattern rules run the same blocks on A-TREAT and both Rete modes,
/// whose P-nodes must equal the recomputed matches after every block.
#[test]
fn minus_routing_scenarios_have_exact_outcomes() {
    for policy in [VirtualPolicy::AllStored, VirtualPolicy::AllVirtual] {
        let mut db = Ariel::with_options(EngineOptions {
            virtual_policy: policy.clone(),
            ..Default::default()
        });
        db.execute(MINUS_ROUTING_SCHEMA).unwrap();
        for rule in MINUS_ROUTING_PATTERN_RULES {
            db.execute(rule).unwrap();
        }
        db.execute("define rule gone on delete emp then append to audit(id = emp.id, kind = 4)")
            .unwrap();
        db.execute(
            "define rule doubled if emp.sal > 2 * previous emp.sal \
             then append to audit(id = emp.id, kind = 5)",
        )
        .unwrap();
        let mut want: Rows = Vec::new();
        for (script, adds) in MINUS_ROUTING_STEPS {
            db.execute(script).unwrap();
            for (id, kind) in adds {
                want.push(vec![Value::Int(*id), Value::Int(*kind)]);
            }
            assert_eq!(
                snapshot(&mut db, "audit"),
                sorted(want.clone()),
                "after `{script}` under {policy:?}"
            );
        }
        assert_eq!(db.network_stats().pnode_rows, 0, "quiescent: {policy:?}");
    }

    let configs = [
        Config::Treat(VirtualPolicy::AllStored),
        Config::Treat(VirtualPolicy::AllVirtual),
        Config::Rete(VirtualPolicy::AllStored, ReteMode::Indexed),
        Config::Rete(VirtualPolicy::AllStored, ReteMode::Nested),
        Config::Rete(VirtualPolicy::AllVirtual, ReteMode::Indexed),
        Config::Rete(VirtualPolicy::AllVirtual, ReteMode::Nested),
    ];
    let mut nets = Networks::new(
        MINUS_ROUTING_SCHEMA,
        &MINUS_ROUTING_PATTERN_RULES,
        &configs,
        true,
    );
    for (script, _) in MINUS_ROUTING_STEPS {
        nets.run(script);
    }
    nets.assert_every_rule_matched();
}

/// Stored TREAT memories share their relation's join indexes (one shared
/// index per attribute set, each tuple filed once however many memories
/// hold it). Overlapping-band join rules put one `emp` tuple in several
/// memories at once; the script then moves join keys, and touches one
/// tuple several times inside a block, while the P-nodes — never drained,
/// no rule fires here — are compared after every block: stored TREAT vs
/// all-virtual A-TREAT vs both Rete modes vs a from-scratch evaluation.
#[test]
fn shared_join_indexes_scripted_blocks_match_across_backends() {
    let rules = [
        "define rule r0 if emp.sal > 0 and emp.sal <= 100 and emp.dno = dept.dno then halt",
        "define rule r1 if emp.sal > 50 and emp.sal <= 150 and emp.dno = dept.dno \
         and emp.jno = job.jno then halt",
        "define rule r2 if emp.sal > 80 and emp.sal <= 200 and emp.jno = job.jno \
         and job.grade = 1 then halt",
        "define rule r3 if emp.sal > 50 and emp.sal <= 150 and emp.dno = dept.dno \
         and dept.floor = 1 then halt",
        "define rule r4 if x.sal > 0 and x.sal <= 100 and y.sal > 50 and y.sal <= 150 \
         and x.dno = y.dno from x in emp, y in emp then halt",
    ];
    let configs = [
        Config::Treat(VirtualPolicy::AllStored),
        Config::Treat(VirtualPolicy::AllVirtual),
        Config::Rete(VirtualPolicy::AllStored, ReteMode::Indexed),
        Config::Rete(VirtualPolicy::AllStored, ReteMode::Nested),
    ];
    let mut nets = Networks::new(
        "create emp (id = int, sal = int, dno = int, jno = int); \
         create dept (dno = int, floor = int); \
         create job (jno = int, grade = int)",
        &rules,
        &configs,
        true,
    );
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
    for block in blocks {
        nets.run(block);
    }
    nets.assert_every_rule_matched();
    assert!(
        nets.nets[0].1.stats().index_probes > 0,
        "stored memories probed the shared indexes"
    );
}
