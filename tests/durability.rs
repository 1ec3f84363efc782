//! Durability: checkpoint / write-ahead-log / recovery semantics, and the
//! transition-merge and flight-recorder regressions fixed alongside them.
//!
//! The heart of the suite is the crash oracle: an engine that checkpoints,
//! keeps running with the WAL attached, and is then dropped mid-flight
//! must — after [`Ariel::recover`] — be *behaviourally indistinguishable*
//! from an engine that never crashed: same relation contents, same pending
//! matches (consumed instantiations stay consumed), same α-memory
//! footprint, and the same response to any further command stream. The
//! rule mix and churn stream from `network_equivalence.rs` supply the
//! distinguishing power.

#[path = "../crates/query/tests/common/writer.rs"]
mod writer;

use ariel::network::VirtualPolicy;
use ariel::storage::Value;
use ariel::{Ariel, Durability, EngineOptions, TraceEventKind};
use proptest::TestRng;
use std::path::PathBuf;
use writer::Writer;

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

/// Fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ariel-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(options: EngineOptions) -> Ariel {
    let mut db = Ariel::with_options(options);
    db.execute(
        "create emp (id = int, sal = float, dno = int); \
         create dept (dno = int, floor = int); \
         create audit (id = int, kind = int)",
    )
    .unwrap();
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

fn apply_stream(db: &mut Ariel, seed: u64, steps: usize, next_id: &mut i64) {
    let mut rng = Rng(seed | 1);
    for _ in 0..steps {
        match rng.below(10) {
            0..=3 => {
                let id = *next_id;
                *next_id += 1;
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
                let id = rng.below((*next_id).max(1) as u64);
                let sal = rng.below(12_000);
                db.execute(&format!("replace emp (sal = {sal}) where emp.id = {id}"))
                    .unwrap();
            }
            _ => {
                let id = rng.below((*next_id).max(1) as u64);
                db.execute(&format!("delete emp where emp.id = {id}"))
                    .unwrap();
            }
        }
    }
}

type Rows = Vec<Vec<Value>>;

fn snapshot(db: &mut Ariel, rel: &str) -> Rows {
    let mut rows = db.query(&format!("retrieve ({rel}.all)")).unwrap().rows;
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// Everything the oracle compares: relation contents, per-rule pending
/// matches, α/P-node footprint, and the engine counters conflict
/// resolution depends on.
type Fingerprint = (Vec<(String, Rows)>, Vec<(String, usize)>, usize, usize);

fn fingerprint(db: &mut Ariel) -> Fingerprint {
    let rels: Vec<(String, Rows)> = db
        .catalog()
        .names()
        .into_iter()
        .map(|n| {
            let rows = snapshot(db, &n);
            (n, rows)
        })
        .collect();
    let pending: Vec<(String, usize)> = db
        .rules()
        .iter()
        .map(|r| r.name.clone())
        .collect::<Vec<_>>()
        .into_iter()
        .map(|n| {
            let p = db.pending_matches(&n).unwrap_or(0);
            (n, p)
        })
        .collect();
    let mem = db.memory_stats();
    (rels, pending, mem.alpha_entries, mem.pnode_rows)
}

/// The crash oracle, parameterized by virtual policy and fsync mode: a
/// crashed-and-recovered engine must be indistinguishable from one that
/// never crashed — including under a continued command stream after
/// recovery.
fn crash_recover_equivalence(name: &str, policy: VirtualPolicy, durability: Durability) {
    let dir = scratch(name);
    let options = EngineOptions {
        virtual_policy: policy,
        durability,
        ..Default::default()
    };

    // the uncrashed reference runs the identical stream, no durability
    let mut reference = build(EngineOptions {
        durability: Durability::Off,
        ..options.clone()
    });
    let mut ref_id = 0i64;
    apply_stream(&mut reference, 0xC4A54, 80, &mut ref_id);
    apply_stream(&mut reference, 0xAF7E4, 60, &mut ref_id);

    // the crashing engine: checkpoint mid-stream, keep going, then "crash"
    let mut db = build(options.clone());
    let mut next_id = 0i64;
    apply_stream(&mut db, 0xC4A54, 80, &mut next_id);
    db.checkpoint(&dir).unwrap();
    apply_stream(&mut db, 0xAF7E4, 60, &mut next_id);
    assert!(db.wal_records() > 0, "post-checkpoint work must be logged");
    drop(db); // the crash (nothing is flushed beyond what the mode fsynced)

    let (mut recovered, report) = Ariel::recover(&dir, options).unwrap();
    assert!(!report.torn_tail, "clean shutdown leaves no torn tail");
    assert!(report.replayed > 0, "the WAL tail must replay");
    assert!(
        report.replay_errors.is_empty(),
        "unexpected replay errors: {:?}",
        report.replay_errors
    );
    assert_eq!(next_id, ref_id);

    assert_eq!(
        fingerprint(&mut recovered),
        fingerprint(&mut reference),
        "{name}: recovered state diverged from the uncrashed reference"
    );

    // the decisive probe: both engines must respond identically to more work
    apply_stream(&mut recovered, 0xF00D, 60, &mut next_id);
    apply_stream(&mut reference, 0xF00D, 60, &mut ref_id);
    assert_eq!(
        fingerprint(&mut recovered),
        fingerprint(&mut reference),
        "{name}: divergence after continued stream post-recovery"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_equivalence_treat_commit() {
    crash_recover_equivalence("treat-commit", VirtualPolicy::AllStored, Durability::Commit);
}

#[test]
fn crash_recovery_equivalence_treat_batch() {
    crash_recover_equivalence("treat-batch", VirtualPolicy::AllStored, Durability::Batch);
}

#[test]
fn crash_recovery_equivalence_all_virtual() {
    crash_recover_equivalence("all-virtual", VirtualPolicy::AllVirtual, Durability::Commit);
}

/// A snapshot taken under one virtual policy must recover onto another:
/// the snapshot stores relations and rule *sources*, and recovery rebuilds
/// the network through normal activation.
#[test]
fn snapshot_recovers_across_backends() {
    let dir = scratch("cross-backend");
    let mut db = Ariel::with_options(EngineOptions {
        durability: Durability::Commit,
        ..Default::default()
    });
    db.execute(
        "create emp (id = int, sal = float, dno = int); \
         create dept (dno = int); \
         create audit (id = int, kind = int)",
    )
    .unwrap();
    db.execute("append dept (dno = 0)").unwrap();
    db.execute("append dept (dno = 1)").unwrap();
    db.execute(
        "define rule r if emp.sal > 50 and emp.dno = dept.dno \
         then append to audit(id = emp.id, kind = 1)",
    )
    .unwrap();
    for i in 0..20 {
        db.execute(&format!("append emp (id = {i}, sal = {}, dno = 0)", i * 10))
            .unwrap();
    }
    db.checkpoint(&dir).unwrap();
    db.execute("append emp (id = 100, sal = 900, dno = 1)")
        .unwrap();
    let want_emp = snapshot(&mut db, "emp");
    let want_audit = snapshot(&mut db, "audit");
    drop(db);
    for policy in [
        VirtualPolicy::AllVirtual,
        VirtualPolicy::SelectivityThreshold(0.5),
        VirtualPolicy::AllStored,
    ] {
        let (mut back, report) = Ariel::recover(
            &dir,
            EngineOptions {
                virtual_policy: policy.clone(),
                durability: Durability::Off,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.relations, 3, "{policy:?}");
        assert_eq!(report.rules, 1, "{policy:?}");
        assert_eq!(snapshot(&mut back, "emp"), want_emp, "{policy:?}");
        assert_eq!(snapshot(&mut back, "audit"), want_audit, "{policy:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Consumed instantiations stay consumed: recovery must not re-fire rules
/// whose matches were drained before the checkpoint, and must preserve
/// matches that were still pending.
#[test]
fn recovery_does_not_refire_consumed_matches() {
    let dir = scratch("no-refire");
    let options = EngineOptions {
        durability: Durability::Commit,
        ..Default::default()
    };
    let mut db = Ariel::with_options(options.clone());
    db.execute("create emp (id = int, sal = float); create audit (id = int, kind = int)")
        .unwrap();
    db.execute("define rule r if emp.sal > 50 then append to audit(id = emp.id, kind = 1)")
        .unwrap();
    db.execute("append emp (id = 1, sal = 100)").unwrap();
    assert_eq!(db.query("retrieve (audit.all)").unwrap().rows.len(), 1);
    assert_eq!(db.pending_matches("r").unwrap(), 0, "match consumed");
    // install (but do not activate) a second rule, then leave one rule
    // with a *pending* match by activating after the data arrived
    db.install_rule_src(
        "define rule pending if emp.sal > 10 then append to audit(id = emp.id, kind = 2)",
    )
    .unwrap();
    db.activate_rule("pending").unwrap();
    assert_eq!(db.pending_matches("pending").unwrap(), 1, "primed, unfired");
    db.checkpoint(&dir).unwrap();
    drop(db);
    let (mut back, _report) = Ariel::recover(&dir, options).unwrap();
    assert_eq!(
        back.pending_matches("r").unwrap(),
        0,
        "a consumed match must not resurrect (priming alone would)"
    );
    assert_eq!(
        back.pending_matches("pending").unwrap(),
        1,
        "a pending match must survive"
    );
    assert_eq!(
        back.query("retrieve (audit.all)").unwrap().rows.len(),
        1,
        "recovery itself fires nothing"
    );
    // the preserved pending match fires at the next transition
    back.execute("append emp (id = 2, sal = 5)").unwrap();
    let audit = snapshot(&mut back, "audit");
    assert!(
        audit.iter().any(|r| r[1] == Value::Int(2)),
        "the recovered pending match fires: {audit:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-append leaves a torn final record: recovery keeps every
/// whole record, reports the tear, and truncates it away.
#[test]
fn torn_wal_tail_is_tolerated_and_truncated() {
    let dir = scratch("torn-tail");
    let options = EngineOptions {
        durability: Durability::Commit,
        ..Default::default()
    };
    let mut db = Ariel::with_options(options.clone());
    db.execute("create emp (id = int, sal = float)").unwrap();
    db.checkpoint(&dir).unwrap();
    db.execute("append emp (id = 1, sal = 10)").unwrap();
    db.execute("append emp (id = 2, sal = 20)").unwrap();
    drop(db);
    // tear the tail: chop half of the final record off
    let wal = dir.join("wal.log");
    let data = std::fs::read(&wal).unwrap();
    let torn_len = data.len() - 7;
    std::fs::write(&wal, &data[..torn_len]).unwrap();
    let (mut back, report) = Ariel::recover(&dir, options.clone()).unwrap();
    assert!(report.torn_tail, "the tear must be reported");
    assert_eq!(report.replayed, 1, "the whole record replays");
    assert_eq!(
        snapshot(&mut back, "emp"),
        vec![vec![Value::Int(1), Value::Float(10.0)]],
        "the torn record's append is lost, the earlier one survives"
    );
    drop(back);
    assert!(
        std::fs::metadata(&wal).unwrap().len() < torn_len as u64,
        "the torn tail is truncated from the log"
    );
    // a second recovery sees a clean log
    let (_again, report) = Ariel::recover(&dir, options).unwrap();
    assert!(!report.torn_tail);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A logged command that failed when first executed fails identically on
/// replay; recovery reports it and carries on.
#[test]
fn failed_commands_replay_deterministically() {
    let dir = scratch("replay-errors");
    let options = EngineOptions {
        durability: Durability::Commit,
        ..Default::default()
    };
    let mut db = Ariel::with_options(options.clone());
    db.execute("create emp (id = int)").unwrap();
    db.checkpoint(&dir).unwrap();
    assert!(db.execute("create emp (id = int)").is_err(), "duplicate");
    db.execute("append emp (id = 7)").unwrap();
    drop(db);
    let (mut back, report) = Ariel::recover(&dir, options).unwrap();
    assert_eq!(report.replay_errors.len(), 1, "{:?}", report.replay_errors);
    assert!(report.replay_errors[0].contains("already exists"));
    assert_eq!(
        snapshot(&mut back, "emp"),
        vec![vec![Value::Int(7)]],
        "replay continues past the failing record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pure reads leave no state behind, so an interactive session's
/// retrieves must not grow the log — only mutations are records.
#[test]
fn retrieves_are_not_logged() {
    let dir = scratch("read-only");
    let mut db = Ariel::with_options(EngineOptions {
        durability: Durability::Commit,
        ..Default::default()
    });
    db.execute("create emp (id = int)").unwrap();
    db.checkpoint(&dir).unwrap();
    db.execute("append emp (id = 1)").unwrap();
    let logged = db.wal_records();
    assert_eq!(logged, 1);
    db.query("retrieve (emp.all)").unwrap();
    db.execute("do retrieve (emp.id) retrieve (emp.all) end")
        .unwrap();
    assert_eq!(db.wal_records(), logged, "reads must not be logged");
    // a mixed block mutates, so it is logged whole
    db.execute("do retrieve (emp.all) append emp (id = 2) end")
        .unwrap();
    assert_eq!(db.wal_records(), logged + 1);
    drop(db);
    let (mut back, report) = Ariel::recover(&dir, EngineOptions::default()).unwrap();
    assert_eq!(report.replayed, 2);
    assert_eq!(snapshot(&mut back, "emp").len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability off is literally free: no writer is attached, nothing is
/// written after the checkpoint.
#[test]
fn durability_off_attaches_no_writer() {
    let dir = scratch("off-mode");
    let mut db = Ariel::new(); // durability: Off
    db.execute("create emp (id = int)").unwrap();
    db.checkpoint(&dir).unwrap();
    for i in 0..10 {
        db.execute(&format!("append emp (id = {i})")).unwrap();
    }
    assert_eq!(db.wal_records(), 0);
    assert_eq!(db.wal_bytes(), 0);
    assert_eq!(
        std::fs::metadata(dir.join("wal.log")).unwrap().len(),
        0,
        "no records hit the disk with durability off"
    );
    // recovery then restores the checkpoint state (the 10 appends are lost
    // by construction)
    drop(db);
    let (mut back, report) = Ariel::recover(&dir, EngineOptions::default()).unwrap();
    assert_eq!(report.replayed, 0);
    assert!(snapshot(&mut back, "emp").is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rule ids survive recovery exactly — including gaps left by dropped
/// rules — so recency bookkeeping and later installs stay consistent.
#[test]
fn rule_ids_and_gaps_survive_recovery() {
    let dir = scratch("rule-ids");
    let options = EngineOptions {
        durability: Durability::Commit,
        ..Default::default()
    };
    let mut db = Ariel::with_options(options.clone());
    db.execute("create emp (id = int)").unwrap();
    db.execute("define rule a if emp.id > 100 then delete emp")
        .unwrap();
    db.execute("define rule b if emp.id > 200 then delete emp")
        .unwrap();
    db.execute("destroy rule a").unwrap();
    let b_id = db.rules().require("b").unwrap().id;
    db.checkpoint(&dir).unwrap();
    drop(db);
    let (mut back, _) = Ariel::recover(&dir, options).unwrap();
    assert_eq!(back.rules().require("b").unwrap().id, b_id);
    // a fresh install lands past every restored id
    back.execute("define rule c if emp.id > 300 then delete emp")
        .unwrap();
    assert!(back.rules().require("c").unwrap().id.0 > b_id.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot format v2 carries per-rule recency and nothing else of the
/// conflict-resolution bookkeeping; an image in the old format (v1, which
/// also held a "previous P-node size" map) is refused with the typed
/// version error instead of being misread.
#[test]
fn old_snapshot_version_is_refused() {
    let dir = scratch("snapshot-version");
    let mut db = Ariel::new();
    db.execute("create emp (id = int)").unwrap();
    db.checkpoint(&dir).unwrap();
    drop(db);
    let path = dir.join("snapshot.bin");
    let mut image = std::fs::read(&path).unwrap();
    assert_eq!(&image[..4], b"ARSN");
    assert_eq!(image[4..8], 3u32.to_be_bytes(), "current format is v3");
    image[4..8].copy_from_slice(&1u32.to_be_bytes());
    std::fs::write(&path, &image).unwrap();
    let err = Ariel::recover(&dir, EngineOptions::default()).unwrap_err();
    assert!(
        err.to_string().contains("unsupported snapshot version 1"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scenario behind `tests/fixtures/snapshot_v2/`, whose snapshot the
/// previous format (v2, a TID counter per relation) wrote: deletes and
/// re-inserts make its TIDs differ from heap slots, and at the checkpoint
/// `purge` (a primed `delete'`) and `cool` (a primed `replace'`) had
/// P-node rows binding those TIDs.
const V2_HEAD: &str = "\
create emp (id = int, sal = float, dno = int)
create dept (dno = int, floor = int)
create audit (id = int, kind = int)
append dept (dno = 1, floor = 1)
append dept (dno = 2, floor = 5)
append dept (dno = 3, floor = 6)
append emp (id = 1, sal = 1000, dno = 1)
append emp (id = 2, sal = 4000, dno = 2)
append emp (id = 3, sal = 5000, dno = 3)
append emp (id = 4, sal = 200, dno = 2)
delete emp where emp.id = 1
append emp (id = 5, sal = 6000, dno = 2)
delete emp where emp.id = 4
append emp (id = 6, sal = 7000, dno = 1)
append emp (id = 7, sal = 300, dno = 3)
delete dept where dept.dno = 1
append dept (dno = 4, floor = 7)
define rule watch if emp.sal > 4500 and emp.dno = dept.dno then append to audit (id = emp.id, kind = 1)
append emp (id = 8, sal = 9000, dno = 4)
delete emp where emp.id = 2";
const V2_PENDING: [&str; 2] = [
    "define rule purge if emp.sal > 3000 and emp.dno = dept.dno and dept.floor > 4 then delete emp",
    "define rule cool if dept.floor > 5 then replace dept (floor = 0)",
];
/// The commands the fixture's WAL holds after the checkpoint.
const V2_TAIL: &str = "\
append audit (id = 0, kind = 9)
append emp (id = 9, sal = 3500, dno = 2)
delete emp where emp.id = 6
append emp (id = 10, sal = 100, dno = 3)";

/// The v2 fixture, copied into a scratch directory (recovery writes to
/// its directory); `with_wal: false` leaves the log empty.
fn v2_fixture(name: &str, with_wal: bool) -> PathBuf {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/snapshot_v2");
    let dir = scratch(name);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(src.join("snapshot.bin"), dir.join("snapshot.bin")).unwrap();
    let wal = if with_wal {
        std::fs::read(src.join("wal.log")).unwrap()
    } else {
        Vec::new()
    };
    std::fs::write(dir.join("wal.log"), wal).unwrap();
    dir
}

fn ints(rows: &[&[i64]]) -> Rows {
    rows.iter()
        .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
        .collect()
}

fn emps(rows: &[(i64, f64, i64)]) -> Rows {
    rows.iter()
        .map(|&(id, sal, dno)| vec![Value::Int(id), Value::Float(sal), Value::Int(dno)])
        .collect()
}

/// A snapshot in the previous format still recovers, to what the engine
/// that wrote it recovered: every slot restores at generation 0, and the
/// P-node rows' TIDs are carried over through the same table, so the
/// pending `delete'` and `replace'` reach the tuples they bound. The
/// expected values are what the previous format's engine printed for
/// the same two recoveries.
#[test]
fn a_v2_snapshot_recovers_to_what_its_writer_recovered() {
    let head = || {
        let mut db = Ariel::new();
        for cmd in V2_HEAD.lines() {
            db.execute(cmd).unwrap();
        }
        for src in V2_PENDING {
            db.install_rule_src(src).unwrap();
        }
        for name in ["purge", "cool"] {
            db.activate_rule(name).unwrap();
        }
        db
    };
    // what the previous format's engine printed, observed in this order
    // (a retrieve shows the state its own transition's firings follow)
    let observe = |db: &mut Ariel| {
        let pending = ["watch", "purge", "cool"].map(|r| db.pending_matches(r).unwrap());
        let mem = db.memory_stats();
        let rows = ["emp", "dept", "audit"].map(|rel| snapshot(db, rel));
        (pending, mem.alpha_entries, mem.pnode_rows, rows)
    };

    // the snapshot alone: the P-node rows wait, then fire on the first
    // retrieve
    let dir = v2_fixture("v2-snapshot", false);
    let (mut back, report) = Ariel::recover(&dir, EngineOptions::default()).unwrap();
    assert_eq!((report.relations, report.rules, report.replayed), (3, 3, 0));
    let seen = observe(&mut back);
    assert_eq!((seen.0, seen.1, seen.2), ([0, 3, 2], 14, 5));
    assert_eq!(
        seen.3,
        [
            emps(&[
                (3, 5000.0, 3),
                (5, 6000.0, 2),
                (6, 7000.0, 1),
                (7, 300.0, 3),
                (8, 9000.0, 4)
            ]),
            ints(&[&[2, 5], &[3, 0], &[4, 0]]),
            ints(&[&[3, 1], &[3, 1], &[5, 1], &[8, 1], &[8, 1]]),
        ]
    );
    assert_eq!(back.memory_stats().alpha_entries, 10);
    let mut twin = head();
    assert_eq!(observe(&mut twin), seen);
    assert_eq!(fingerprint(&mut back), fingerprint(&mut twin));
    let _ = std::fs::remove_dir_all(&dir);

    // with the WAL tail: `purge` deletes emp 5 through its v2 TID (4, in
    // slot 0) while replaying; a TID read as a slot would delete emp 7
    let dir = v2_fixture("v2-wal", true);
    let (mut back, report) = Ariel::recover(&dir, EngineOptions::default()).unwrap();
    assert_eq!(report.replayed, 4);
    assert!(
        report.replay_errors.is_empty(),
        "{:?}",
        report.replay_errors
    );
    let seen = observe(&mut back);
    assert_eq!((seen.0, seen.1, seen.2), ([0, 0, 0], 8, 0));
    assert_eq!(
        seen.3,
        [
            emps(&[
                (10, 100.0, 3),
                (3, 5000.0, 3),
                (7, 300.0, 3),
                (8, 9000.0, 4)
            ]),
            ints(&[&[2, 5], &[3, 0], &[4, 0]]),
            ints(&[&[0, 9], &[3, 1], &[3, 1], &[5, 1], &[8, 1], &[8, 1]]),
        ]
    );
    let mut twin = head();
    for cmd in V2_TAIL.lines() {
        twin.execute(cmd).unwrap();
    }
    assert_eq!(observe(&mut twin), seen);
    // and both go on alike
    for db in [&mut back, &mut twin] {
        db.execute("append emp (id = 11, sal = 8000, dno = 2)")
            .unwrap();
    }
    assert_eq!(fingerprint(&mut back), fingerprint(&mut twin));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A v3 checkpoint keeps each slot's generation: after slot reuse, a
/// recovered engine's relations scan in the same order under the same
/// TIDs, keep the same free slots, and hand the next insert the same TID.
#[test]
fn a_v3_snapshot_keeps_slot_generations() {
    let dir = scratch("v3-generations");
    let mut db = Ariel::new();
    db.execute("create emp (id = int, sal = int)").unwrap();
    for id in 0..6 {
        db.execute(&format!("append emp (id = {id}, sal = {id})"))
            .unwrap();
    }
    for (gone, again) in [(1, 10), (4, 11), (10, 12), (2, 13)] {
        db.execute(&format!("delete emp where emp.id = {gone}"))
            .unwrap();
        db.execute(&format!("append emp (id = {again}, sal = 0)"))
            .unwrap();
    }
    db.execute("delete emp where emp.id = 3").unwrap();
    db.checkpoint(&dir).unwrap();
    let (mut back, _) = Ariel::recover(&dir, EngineOptions::default()).unwrap();
    let layout = |db: &Ariel| {
        let rel = db.catalog().get("emp").unwrap();
        let tids: Vec<_> = rel.scan().map(|(tid, t)| (tid, t.clone())).collect();
        (
            tids,
            rel.free_slots().to_vec(),
            rel.snapshot_slots().to_vec(),
        )
    };
    let before = layout(&db);
    assert!(
        before.0.iter().any(|(tid, _)| tid.gen() == 2),
        "a slot reused twice: {:?}",
        before.0
    );
    assert_eq!(layout(&back), before);
    let next = |db: &mut Ariel| {
        let rel = db.catalog_mut().require_mut("emp").unwrap();
        rel.insert(vec![Value::Int(99), Value::Int(0)]).unwrap()
    };
    assert_eq!(next(&mut back), next(&mut db));
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- satellite regressions -------------------------------------------------

/// Satellite (PR 10): string literals holding quotes, backslashes and
/// control characters round-trip through the WAL now that the lexer
/// decodes escapes and the display layer re-encodes them. Before, a value
/// containing `"` rendered as an unparseable record and was lost on
/// replay.
#[test]
fn escaped_strings_survive_replay() {
    let dir = scratch("escapes");
    let options = EngineOptions {
        durability: Durability::Commit,
        ..Default::default()
    };
    let mut db = Ariel::with_options(options.clone());
    db.execute("create note (id = int, text = string)").unwrap();
    // a rule whose action copies the string keeps the escape path honest
    // through query modification and transition logging, not just REC_CMD
    db.execute(
        "define rule echo if note.id > 10 \
         then append to note(id = note.id - 100, text = note.text)",
    )
    .unwrap();
    db.checkpoint(&dir).unwrap();
    db.execute(r#"append note (id = 1, text = "says \"hi\"")"#)
        .unwrap();
    db.execute(r#"append note (id = 2, text = "back\\slash")"#)
        .unwrap();
    db.execute(r#"append note (id = 13, text = "line\none\ttab")"#)
        .unwrap();
    let live = snapshot(&mut db, "note");
    assert_eq!(live.len(), 4, "rule fired once: {live:?}");
    drop(db);
    let (mut back, report) = Ariel::recover(&dir, options).unwrap();
    assert!(
        report.replay_errors.is_empty(),
        "escape-bearing records must replay clean: {:?}",
        report.replay_errors
    );
    let recovered = snapshot(&mut back, "note");
    assert_eq!(recovered, live, "values survive replay byte-for-byte");
    // the exact escaped value is still reachable by equality predicate
    let hit = back
        .query(r#"retrieve (note.id) where note.text = "says \"hi\"""#)
        .unwrap();
    assert_eq!(hit.rows, vec![vec![Value::Int(1)]], "{:?}", hit.rows);
    // original row plus the rule's copy — both carry the control chars
    let hit = back
        .query(r#"retrieve (note.id) where note.text = "line\none\ttab""#)
        .unwrap();
    assert_eq!(hit.rows.len(), 2, "{:?}", hit.rows);
    let _ = std::fs::remove_dir_all(&dir);
}

/// WAL telemetry (PR 10): `wal_metrics` reports engine-lifetime totals —
/// fsyncs are counted and timed, and figures survive the writer being
/// dropped and recreated at a checkpoint, unlike `wal_records()`.
#[test]
fn wal_metrics_accumulate_across_checkpoints() {
    let dir = scratch("wal-metrics");
    let options = EngineOptions {
        durability: Durability::Commit,
        ..Default::default()
    };
    let mut db = Ariel::with_options(options.clone());
    db.execute("create emp (id = int)").unwrap();
    let m = db.wal_metrics();
    assert!(!m.attached);
    assert_eq!((m.records, m.bytes, m.fsyncs), (0, 0, 0));
    db.checkpoint(&dir).unwrap();
    for i in 0..5 {
        db.execute(&format!("append emp (id = {i})")).unwrap();
    }
    let m1 = db.wal_metrics();
    assert!(m1.attached);
    assert_eq!(m1.records, 5);
    assert_eq!(m1.fsyncs, 5, "Commit mode syncs every append");
    assert_eq!(m1.fsync_ns.count(), m1.fsyncs, "every fsync is timed");
    assert!(m1.bytes > 0);
    // a second checkpoint resets the live writer but not the totals
    db.checkpoint(&dir).unwrap();
    assert_eq!(db.wal_records(), 0, "live-writer view resets");
    let m2 = db.wal_metrics();
    assert_eq!(m2.records, 5, "lifetime view survives the checkpoint");
    assert!(m2.fsyncs >= m1.fsyncs);
    db.execute("append emp (id = 99)").unwrap();
    assert_eq!(db.wal_metrics().records, 6, "live writer folds in");
    // the metrics snapshot carries the wal section
    let json = db.metrics_json();
    assert!(json.contains("\"wal\":{\"attached\":true"), "{json}");
    assert!(json.contains("\"fsyncs\":"), "{json}");
    // and the Prometheus exposition carries the families
    let prom = db.metrics_prometheus();
    assert!(prom.contains("ariel_wal_records_total 6"), "{prom}");
    assert!(prom.contains("ariel_wal_fsync_duration_ns_count"), "{prom}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group commit: inside [`Ariel::group_commit`] commit-mode records share
/// one fsync issued at scope exit (none if nothing was logged); outside
/// it — the embedded/REPL path — every record still gets its own; a panic
/// inside the scope does not leave the writer deferring; and what the
/// scope logged replays like any other record.
#[test]
fn group_commit_scope_defers_to_one_fsync() {
    let dir = scratch("group-commit");
    let mut db = Ariel::with_options(EngineOptions {
        durability: Durability::Commit,
        ..Default::default()
    });
    db.execute("create emp (id = int)").unwrap();
    db.checkpoint(&dir).unwrap();
    let base = db.wal_metrics().fsyncs;
    let fsyncs = |db: &Ariel| db.wal_metrics().fsyncs - base;

    db.execute("append emp (id = 0)").unwrap();
    db.execute("append emp (id = 1)").unwrap();
    assert_eq!(fsyncs(&db), 2, "outside a scope: one fsync per record");

    let inside = db
        .group_commit(|db| {
            for i in 2..6 {
                db.execute(&format!("append emp (id = {i})")).unwrap();
            }
            db.wal_metrics().fsyncs - base
        })
        .unwrap();
    assert_eq!(inside, 2, "no fsync while the scope is open");
    assert_eq!(fsyncs(&db), 3, "exactly one at its exit, for four records");

    db.group_commit(|db| db.query("retrieve (emp.id)").unwrap())
        .unwrap();
    assert_eq!(fsyncs(&db), 3, "a scope that logged nothing syncs nothing");

    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = db.group_commit(|db| {
            db.execute("append emp (id = 6)").unwrap();
            panic!("mid-scope");
        });
    }));
    assert!(caught.is_err());
    let after_panic = fsyncs(&db);
    db.execute("append emp (id = 7)").unwrap();
    assert_eq!(
        fsyncs(&db),
        after_panic + 1,
        "per-record again after an unwind"
    );

    assert_eq!(db.wal_metrics().records, 8);
    drop(db);
    let (mut back, report) = Ariel::recover(&dir, EngineOptions::default()).unwrap();
    assert_eq!(report.replayed, 8);
    assert_eq!(back.query("retrieve (emp.id)").unwrap().rows.len(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression (PR 9): the second `retrieve` in a `do…end` block used to
/// overwrite the first one's rows in the merged output.
#[test]
fn do_block_merges_multiple_retrieves() {
    let mut db = Ariel::new();
    db.execute("create emp (id = int)").unwrap();
    db.execute("append emp (id = 1)").unwrap();
    db.execute("append emp (id = 2)").unwrap();
    let out = db
        .execute("do retrieve (emp.id) where emp.id = 1 retrieve (emp.id) where emp.id = 2 end")
        .unwrap();
    assert_eq!(out.len(), 1);
    let mut rows = out[0].rows.clone();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    assert_eq!(
        rows,
        vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        "both retrieves' rows survive the merge"
    );
}

/// Regression (PR 9): a mid-transition error left a dangling
/// `TransitionBegin` in the flight recorder (unclosed span in the Chrome
/// trace export).
#[test]
fn failed_transition_closes_its_trace_span() {
    let mut db = Ariel::with_options(EngineOptions {
        tracing: true,
        ..Default::default()
    });
    db.execute("create emp (id = int)").unwrap();
    let err = db.execute("do append emp (id = 1) append ghost (id = 2) end");
    assert!(err.is_err(), "the second command hits a missing relation");
    let events = db.trace_events();
    let begins = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::TransitionBegin { .. }))
        .count();
    let ends = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::TransitionEnd { .. }))
        .count();
    assert_eq!(begins, ends, "every TransitionBegin is closed: {events:#?}");
}

/// The first half of the generation session: a stored and a virtual
/// memory watch `dept`, and a third rule's prepared action appends to it.
fn generation_head(db: &mut Ariel) {
    db.execute(
        "create emp (name = string, dno = int); \
         create dept (dno = int, dname = string); \
         create log (who = string, tag = int); \
         define rule s_stored if dept.dno = emp.dno then append to log (who = emp.name, tag = 1); \
         define rule v_virtual if emp.dno = dept.dno then append to log (who = emp.name, tag = 2); \
         define rule w_writer on append emp if emp.name = \"mk\" then append to dept (dno = emp.dno); \
         append dept (dno = 1, dname = \"toys\"); \
         append emp (name = \"a\", dno = 1); \
         append emp (name = \"mk\", dno = 2)",
    )
    .unwrap();
}

/// `dept` is destroyed and created again with another schema.
fn generation_recreate(db: &mut Ariel) {
    db.execute(
        "deactivate rule s_stored; deactivate rule v_virtual; \
         destroy dept; \
         create dept (dno = int, floor = int); \
         activate rule s_stored; activate rule v_virtual",
    )
    .unwrap();
}

/// The second half: tuples of the re-created `dept`, one of them appended
/// by the prepared action.
fn generation_tail(db: &mut Ariel) {
    db.execute(
        "append emp (name = \"mk\", dno = 3); \
         append dept (dno = 1, floor = 2)",
    )
    .unwrap();
}

/// A relation destroyed and created again under its name takes the next
/// generation of its slot: tuples of the new generation match, a token of
/// the old one reaches nothing, the prepared action that names it
/// re-derives, and recovery equals a session that never crashed.
#[test]
fn recreated_relation_takes_a_new_generation() {
    use ariel::network::{AlphaKind, EventSpecifier, NetworkStats, Token};
    use std::collections::HashSet;
    let options = EngineOptions {
        // the second variable of each two-variable rule is virtual
        virtual_policy: VirtualPolicy::ExplicitVars(HashSet::from([1])),
        durability: Durability::Commit,
        ..Default::default()
    };
    let mut db = Ariel::with_options(options.clone());
    generation_head(&mut db);
    let kinds = |db: &Ariel, rule: &str| {
        let id = db.rules().require(rule).unwrap().id;
        db.network().alpha_kinds(id).unwrap()
    };
    assert_eq!(
        kinds(&db, "s_stored"),
        [AlphaKind::Stored, AlphaKind::Virtual]
    );
    assert_eq!(
        kinds(&db, "v_virtual"),
        [AlphaKind::Stored, AlphaKind::Virtual]
    );
    assert_eq!(snapshot(&mut db, "log").len(), 4, "a and mk, by both rules");

    // a `+` token of the old generation, kept past the destroy
    let old_id = db.catalog().id("dept").unwrap();
    let (tid, tuple) = {
        let dept = db.catalog().rel(old_id).unwrap();
        let (tid, t) = dept.scan().next().unwrap();
        (tid, t.clone())
    };
    let stale = Token::plus(old_id, tid, tuple, EventSpecifier::Append);
    generation_recreate(&mut db);
    let new_id = db.catalog().id("dept").unwrap();
    assert_eq!(new_id.slot(), old_id.slot(), "the slot is reused");
    assert_eq!(new_id.gen(), old_id.gen() + 1, "under the next generation");
    assert!(
        db.catalog().rel(old_id).is_none(),
        "a stale id never resolves"
    );
    let net_before = db.network_stats();
    let mem_before = db.memory_stats();
    db.match_tokens(&[stale]).unwrap();
    let net_after = db.network_stats();
    assert_eq!(
        net_after,
        NetworkStats {
            tokens_processed: net_after.tokens_processed,
            ..net_before
        },
        "a stale token reaches no selection network, memory, store or P-node"
    );
    // the engine's match state (the symbol figures are process-wide,
    // shared with tests running alongside; scratch is not match state)
    let mem = db.memory_stats();
    assert_eq!(
        (
            mem.alpha_entries,
            mem.alpha_bytes,
            mem.pnode_rows,
            mem.selnet_bytes
        ),
        (
            mem_before.alpha_entries,
            mem_before.alpha_bytes,
            mem_before.pnode_rows,
            mem_before.selnet_bytes
        )
    );
    for rule in ["s_stored", "v_virtual", "w_writer"] {
        assert_eq!(db.pending_matches(rule).unwrap(), 0, "{rule}");
    }

    // the new generation matches, and the prepared action re-derives
    let replans = db.stats().action_replans;
    generation_tail(&mut db);
    assert!(
        db.stats().action_replans > replans,
        "the action naming the re-created relation re-derives"
    );
    let log = snapshot(&mut db, "log");
    let tags = |who: &str| -> Vec<i64> {
        let mut tags: Vec<i64> = log
            .iter()
            .filter(|r| r[0] == Value::from(who))
            .map(|r| r[1].as_i64().unwrap())
            .collect();
        tags.sort_unstable();
        tags
    };
    assert_eq!(
        tags("a"),
        [1, 1, 2, 2],
        "a joins dept 1 of both generations"
    );
    assert_eq!(tags("mk"), [1, 1, 2, 2], "mk joins dept 2, then dept 3");

    // checkpoint before the destroy, crash after the tail: recovery equals
    // the session that never crashed, and stays equal under more work
    let dir = scratch("generations");
    let mut crashing = Ariel::with_options(options.clone());
    generation_head(&mut crashing);
    crashing.checkpoint(&dir).unwrap();
    generation_recreate(&mut crashing);
    generation_tail(&mut crashing);
    drop(crashing);
    let (mut back, report) = Ariel::recover(&dir, options).unwrap();
    assert!(
        report.replay_errors.is_empty(),
        "{:?}",
        report.replay_errors
    );
    assert_eq!(fingerprint(&mut back), fingerprint(&mut db));
    for engine in [&mut back, &mut db] {
        engine
            .execute("append emp (name = \"b\", dno = 1); append emp (name = \"mk\", dno = 4)")
            .unwrap();
    }
    assert_eq!(fingerprint(&mut back), fingerprint(&mut db));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL logs each command's `Display` text, so a printer bug is a
/// recovery bug. A few hundred `append`/`replace` commands from the front
/// end's round-trip generator — every string escape, exponents, negative
/// numbers, arithmetic — run through checkpoint → log → recover must
/// replay without an error into the state the live engine reached.
#[test]
fn generated_commands_replay_from_the_wal() {
    let dir = scratch("generated");
    let options = EngineOptions {
        durability: Durability::Batch,
        ..Default::default()
    };
    let mut db = Ariel::with_options(options.clone());
    db.execute(
        "create emp (s = string, f = float); \
         create log (s = string); \
         define rule big if emp.f > 1000 then append to log (s = emp.s)",
    )
    .unwrap();
    db.checkpoint(&dir).unwrap();
    let mut rng = TestRng::for_test("generated_commands_replay_from_the_wal");
    const COMMANDS: usize = 300;
    for _ in 0..COMMANDS {
        let mut w = Writer::new(&mut rng);
        w.dml();
        db.execute(&w.out)
            .unwrap_or_else(|e| panic!("`{}`: {e}", w.out));
    }
    let live = fingerprint(&mut db);
    assert!(live
        .0
        .iter()
        .any(|(rel, rows)| rel == "log" && !rows.is_empty()));
    drop(db);
    let (mut back, report) = Ariel::recover(&dir, options).unwrap();
    assert_eq!(report.replayed, COMMANDS);
    assert!(
        report.replay_errors.is_empty(),
        "{:?}",
        report.replay_errors
    );
    assert_eq!(fingerprint(&mut back), live);
    let _ = std::fs::remove_dir_all(&dir);
}
