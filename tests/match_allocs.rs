//! Allocation guard for the match path: what a token allocates must not
//! grow with the number of α-memories it enters. And for the query front
//! end in front of it: lexing, parsing and planning a request allocate
//! what the AST and the plan keep, not a copy per token.
//!
//! A counting global allocator tallies allocations per thread (the test
//! harness runs tests on threads of their own). Each case primes an engine
//! with 100 band rules over `emp` joined to `dept`, warms every memory and
//! scratch buffer, then pushes a `+` token that enters 10 memories and one
//! that enters 100 — neither finds a join partner — and the matching `−`
//! tokens. Each pair must allocate the same number of times, under stored
//! and under virtual α-memories. An engine moved to a fresh thread, as a
//! server session picks it up, must allocate no more for its first token
//! there than on the thread that warmed it.
//!
//! The same allocator keeps a live-byte count, which guards what a stored
//! α-memory keeps per tuple it holds: a bit for its heap slot, not a copy
//! of the entry.

// The counter below is the one `thread_local!` the tree allows.
#![allow(clippy::disallowed_macros)]

use ariel::network::{EventSpecifier, Token, VirtualPolicy};
use ariel::query::lexer::lex;
use ariel::query::{parse_command, parse_script, Optimizer, Resolver};
use ariel::storage::Value;
use ariel::{Ariel, EngineOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

// Per thread by design: each test counts only its own thread's allocations
// and the bytes they leave live (freed on the same thread).
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// One allocation of `bytes` (a `realloc` counts as one, of its growth).
fn bump(bytes: i64) {
    // `try_with`: the allocator runs during thread teardown too
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    live(bytes);
}

fn live(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the thread-local
// counters are `const`-initialised `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Heap bytes `f` leaves live on this thread.
fn live_growth(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - before
}

/// Rule `i` admits `emp.sal` in `(0, 10 + i]`: a salary of 5 enters all
/// 100 memories, one of 100 enters the last 10.
const RULES: i64 = 100;
const ENTERS_ALL: i64 = 5;
const ENTERS_TEN: i64 = 100;

fn engine(policy: VirtualPolicy) -> Ariel {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        ..Default::default()
    });
    db.execute(
        "create emp (id = int, sal = int, dno = int); \
         create dept (dno = int, floor = int); \
         create log (id = int); \
         define index on dept (dno) using hash; \
         append dept (dno = 1, floor = 1)",
    )
    .unwrap();
    for i in 0..RULES {
        db.execute(&format!(
            "define rule band{i} if emp.sal > 0 and emp.sal <= {} and emp.dno = dept.dno \
             then append to log (id = emp.id)",
            10 + i
        ))
        .unwrap();
    }
    db
}

/// Insert an `emp` row with no `dept` partner and return its `+` token.
fn plus(db: &mut Ariel, sal: i64) -> Token {
    let (rel, emp) = db.catalog_mut().resolve_mut("emp").unwrap();
    let tid = emp
        .insert(vec![Value::Int(sal), Value::Int(sal), Value::Int(7)])
        .unwrap();
    let tuple = emp.get(tid).cloned().unwrap();
    Token::plus(rel, tid, tuple, EventSpecifier::Append)
}

/// Delete the row behind `plus` and return its `−` token.
fn minus(db: &mut Ariel, plus: &Token) -> Token {
    let emp = db.catalog_mut().rel_mut(plus.rel).unwrap();
    let old = emp.delete(plus.tid).unwrap();
    Token::minus(plus.rel, plus.tid, old, EventSpecifier::Delete)
}

/// `(+ allocations, − allocations)` of one token entering the memories
/// a salary of `sal` passes.
fn round(db: &mut Ariel, sal: i64) -> (u64, u64) {
    let p = plus(db, sal);
    let m = minus(db, &p);
    let plus_allocs = allocs(|| db.match_tokens(std::slice::from_ref(&p)).unwrap());
    let minus_allocs = allocs(|| db.match_tokens(std::slice::from_ref(&m)).unwrap());
    assert_eq!(db.memory_stats().pnode_rows, 0, "no join partner");
    (plus_allocs, minus_allocs)
}

/// Warm every memory, the store and the scratch buffers.
fn warm(db: &mut Ariel) {
    for _ in 0..3 {
        round(db, ENTERS_ALL);
        round(db, ENTERS_TEN);
    }
}

fn allocations_do_not_grow_with_memories(policy: VirtualPolicy) {
    let mut db = engine(policy);
    warm(&mut db);
    let before = db.network_stats().alpha_passes;
    let ten = round(&mut db, ENTERS_TEN);
    let passes = db.network_stats().alpha_passes - before;
    assert_eq!(passes, 10, "the first token enters 10 memories");
    let before = db.network_stats().alpha_passes;
    let hundred = round(&mut db, ENTERS_ALL);
    let passes = db.network_stats().alpha_passes - before;
    assert_eq!(passes, 100, "the second token enters 100 memories");
    assert_eq!(
        ten.0, hundred.0,
        "a `+` token allocates the same into 10 memories as into 100"
    );
    assert_eq!(
        ten.1, hundred.1,
        "a `−` token allocates the same from 10 memories as from 100"
    );
}

#[test]
fn stored_memories_allocate_per_token_not_per_memory() {
    allocations_do_not_grow_with_memories(VirtualPolicy::AllStored);
}

#[test]
fn virtual_memories_allocate_per_token_not_per_memory() {
    allocations_do_not_grow_with_memories(VirtualPolicy::AllVirtual);
}

/// A band join's probe streams the hits of its interval index straight
/// into the join: a `+` token whose stab hits 20 intervals of a stored
/// memory allocates no more than one whose stab hits none. Every hit
/// fails the join's `!=` conjunct, so neither token binds a row.
#[test]
fn a_band_probe_allocates_nothing_per_hit() {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: VirtualPolicy::AllStored,
        ..Default::default()
    });
    db.execute(
        "create emp (id = int, sal = int, dno = int); \
         create band (lo = int, hi = int, dno = int); \
         create log (id = int)",
    )
    .unwrap();
    let mut load = String::from("do");
    for i in 0..20 {
        load.push_str(&format!(
            " append band (lo = {i}, hi = {}, dno = 7)",
            i + 100
        ));
    }
    load.push_str(" end");
    db.execute(&load).unwrap();
    db.execute(
        "define rule in_band if band.lo < emp.sal and emp.sal <= band.hi \
         and emp.dno != band.dno then append to log (id = emp.id)",
    )
    .unwrap();
    const HITS_ALL: i64 = 50;
    const HITS_NONE: i64 = -50;
    for _ in 0..3 {
        round(&mut db, HITS_ALL);
        round(&mut db, HITS_NONE);
    }
    let stats = |db: &Ariel| {
        let s = db.network_stats();
        (s.range_probes, s.range_hits, s.stored_join_candidates)
    };
    let before = stats(&db);
    let none = round(&mut db, HITS_NONE);
    let after_none = stats(&db);
    let all = round(&mut db, HITS_ALL);
    let after_all = stats(&db);
    assert_eq!(
        (
            after_none.0 - before.0,
            after_none.1 - before.1,
            after_none.2 - before.2
        ),
        (1, 0, 0),
        "the first token stabs and hits nothing"
    );
    assert_eq!(
        (
            after_all.0 - after_none.0,
            after_all.1 - after_none.1,
            after_all.2 - after_none.2
        ),
        (1, 1, 20),
        "the second token's stab serves 20 candidates"
    );
    assert_eq!(
        none.0, all.0,
        "a band probe with 20 hits allocates what one with none does"
    );
}

/// A server session picks the engine up on its own thread: the scratch
/// buffers travel with the engine, so its first token there allocates no
/// more than the same token on the thread that warmed it.
fn a_moved_engine_starts_warm(policy: VirtualPolicy) {
    let mut db = engine(policy);
    warm(&mut db);
    let (here, _) = round(&mut db, ENTERS_ALL);
    let (there, _) = std::thread::spawn(move || round(&mut db, ENTERS_ALL))
        .join()
        .unwrap();
    assert!(
        there <= here,
        "first `+` token on a fresh thread: {there} allocations, {here} on the warm one"
    );
}

#[test]
fn stored_memories_start_warm_on_a_fresh_thread() {
    a_moved_engine_starts_warm(VirtualPolicy::AllStored);
}

#[test]
fn virtual_memories_start_warm_on_a_fresh_thread() {
    a_moved_engine_starts_warm(VirtualPolicy::AllVirtual);
}

/// One `append` of the `match.*` workloads' request blocks.
const APPEND: &str = "append emp (eno = 1207, sal = 3150, dno = 12, jno = 3)";

/// A `do … end` block of `k` appends.
fn block(k: usize) -> String {
    format!("do {} end", vec![APPEND; k].join(" "))
}

#[test]
fn lexing_allocates_once_whatever_the_token_count() {
    for k in [1, 8, 32] {
        let src = block(k);
        let n = allocs(|| {
            lex(&src).unwrap();
        });
        assert_eq!(n, 1, "lexing {k} appends: {n} allocations");
    }
}

#[test]
fn parsing_allocates_what_the_ast_keeps() {
    // what one append's AST owns: its names and its assignment list
    let one = parse_command(APPEND).unwrap();
    let per_append = allocs(|| drop(one.clone()));
    for k in [1, 8, 32] {
        let src = block(k);
        let n = allocs(|| {
            parse_script(&src).unwrap();
        });
        // besides: the token buffer, the script's command list, and the
        // block's command list growing by doubling
        let bound = per_append * k as u64 + 2 + u64::from(k.ilog2()) + 1;
        assert!(
            n <= bound,
            "parsing {k} appends: {n} allocations, the ASTs keep {per_append} each"
        );
    }
}

#[test]
fn planning_a_keyed_delete_allocates_only_its_plan() {
    let mut db = Ariel::new();
    db.execute(
        "create emp (eno = int, sal = int); \
         define index on emp (eno) using hash; \
         append emp (eno = 7, sal = 1)",
    )
    .unwrap();
    let cmd = parse_command("delete emp where emp.eno = 7").unwrap();
    let rcmd = Resolver::new(db.catalog()).resolve_command(&cmd).unwrap();
    let optimizer = Optimizer::new(db.catalog());
    let plan = optimizer.plan(rcmd.spec()).unwrap();
    let kept = allocs(|| drop(plan.clone()));
    let n = allocs(|| drop(optimizer.plan(rcmd.spec()).unwrap()));
    assert!(
        n <= kept,
        "planning a keyed delete: {n} allocations, its plan owns {kept}"
    );
}

/// Allocations of one `retrieve` whose qualification rejects every row
/// of an `emp` holding `rows` rows (after one warm-up run).
fn rejecting_retrieve(rows: i64) -> u64 {
    let mut db = Ariel::new();
    db.execute("create emp (eno = int, sal = int)").unwrap();
    let mut load = String::from("do");
    for i in 0..rows {
        load.push_str(&format!(" append emp (eno = {i}, sal = {i})"));
    }
    load.push_str(" end");
    db.execute(&load).unwrap();
    let query = "retrieve (emp.eno) where emp.sal < 0";
    assert!(db.query(query).unwrap().rows.is_empty());
    allocs(|| {
        db.query(query).unwrap();
    })
}

/// A scan tests its qualification on the borrowed tuple and builds a row
/// only for a tuple that passes, so a `retrieve` that rejects every row
/// allocates as often over 1 000 rows as over 10 — not once per row.
#[test]
fn a_rejected_row_allocates_nothing() {
    let (ten, thousand) = (rejecting_retrieve(10), rejecting_retrieve(1_000));
    assert_eq!(
        ten, thousand,
        "rejecting 10 rows: {ten} allocations, 1 000 rows: {thousand}"
    );
}

/// Live heap the match state gains while `tokens` `+` tokens of salary
/// `sal` (no `dept` partner) run through a warmed stored engine, sampled
/// after every batch of eight: `(tokens so far, bytes so far)`, and the
/// engine.
fn stored_growth(sal: i64, tokens: usize) -> (Vec<(usize, i64)>, Ariel) {
    let mut db = engine(VirtualPolicy::AllStored);
    warm(&mut db);
    let mut grown = 0;
    let mut samples = Vec::new();
    for n in (8..=tokens).step_by(8) {
        let batch: Vec<Token> = (0..8).map(|_| plus(&mut db, sal)).collect();
        grown += live_growth(|| db.match_tokens(&batch).unwrap());
        samples.push((n, grown));
    }
    assert_eq!(db.memory_stats().pnode_rows, 0, "no join partner");
    (samples, db)
}

/// A stored memory keeps one bit per heap slot it holds; the tuple itself
/// is kept once, by its relation's store. So a `+` token entering 100
/// stored memories grows the live heap by at most 1/4 byte more per
/// memory than one entering 10: its bit, the memory's share of the word
/// it lies in, and as much again in spare capacity (the word vector
/// doubles as it grows). The bound is on the mean over the second half
/// of the run (225..=448 members), and no sample may exceed 1/2 byte. A hash set of TIDs came
/// to 10–21 B a member, an entry holding its own tuple handle and `prev`
/// to 64–130 B.
///
/// And what the store keeps is the relation's tuple: a `dept` token that
/// probes the memories binds, in every P-node row, the very storage the
/// `emp` relation holds.
#[test]
fn a_stored_membership_costs_a_tid_of_live_heap() {
    const TOKENS: usize = 448;
    let (ten, _) = stored_growth(ENTERS_TEN, TOKENS);
    let (hundred, mut db) = stored_growth(ENTERS_ALL, TOKENS);
    let per_member: Vec<f64> = ten
        .iter()
        .zip(&hundred)
        .filter(|((n, _), _)| *n > TOKENS / 2)
        .map(|((n, ten), (_, hundred))| (hundred - ten) as f64 / (90 * n) as f64)
        .collect();
    let mean = per_member.iter().sum::<f64>() / per_member.len() as f64;
    let worst = per_member.iter().copied().fold(0.0, f64::max);
    assert!(
        mean <= 0.25,
        "a stored membership holds {mean:.2} live bytes on average"
    );
    assert!(
        worst <= 0.5,
        "a stored membership holds {worst:.2} live bytes just after its memory grew"
    );

    let (dept, rel) = db.catalog_mut().resolve_mut("dept").unwrap();
    let tid = rel.insert(vec![Value::Int(7), Value::Int(2)]).unwrap();
    let tuple = rel.get(tid).cloned().unwrap();
    db.match_tokens(&[Token::plus(dept, tid, tuple, EventSpecifier::Append)])
        .unwrap();
    let net = db.network();
    let rules: Vec<_> = net.conflict_set().collect();
    assert_eq!(rules.len(), RULES as usize, "every emp joins the new dept");
    for rule in rules {
        let pnode = net.pnode(rule).unwrap();
        assert_eq!(pnode.len(), TOKENS);
        for row in pnode.rows() {
            for (col, bound) in pnode.cols().iter().zip(row) {
                let rel = db.catalog().get(&col.rel).unwrap();
                let base = rel.get(bound.tid.unwrap()).unwrap();
                assert!(bound.tuple.shares_storage(base), "{} was copied", col.var);
            }
        }
    }
}

/// Live heap a `match.join_churn`-shaped rule set takes when activated
/// over its data: 2 000 `emp`, 50 `dept` and 20 `job` rows, 200
/// three-variable rules whose `emp` bands overlap ten deep. Activation
/// primes every stored memory.
fn join_churn_activation(policy: VirtualPolicy) -> (i64, usize) {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        ..Default::default()
    });
    db.execute(
        "create emp (eno = int, sal = int, dno = int, jno = int); \
         create dept (dno = int, floor = int); \
         create job (jno = int, grade = int); \
         create log (eno = int); \
         define index on emp (dno) using hash; \
         define index on emp (jno) using hash; \
         define index on dept (dno) using hash; \
         define index on job (jno) using hash",
    )
    .unwrap();
    let mut load = String::from("do");
    for i in 0..2_000i64 {
        let sal = 1_001 + i * 7_919 % 19_000;
        load.push_str(&format!(
            " append emp (eno = {i}, sal = {sal}, dno = {}, jno = {})",
            i % 50,
            i % 20
        ));
    }
    for d in 0..50i64 {
        load.push_str(&format!(" append dept (dno = {d}, floor = {})", d % 16));
    }
    for j in 0..20i64 {
        load.push_str(&format!(" append job (jno = {j}, grade = {})", j * 7 % 16));
    }
    load.push_str(" end");
    db.execute(&load).unwrap();
    let grown = live_growth(|| {
        for i in 0..200i64 {
            let lo = i * 100;
            db.execute(&format!(
                "define rule band{i} if {lo} < emp.sal and emp.sal <= {} \
                 and emp.dno = dept.dno and dept.floor = {} \
                 and emp.jno = job.jno and job.grade = {} \
                 then append to log (eno = emp.eno)",
                lo + 1_000,
                i % 16,
                i * 5 % 16
            ))
            .unwrap();
        }
    });
    (grown, db.network_stats().alpha_entries)
}

/// The real-memory side of the store's accounting: activating a
/// `match.join_churn`-shaped rule set over its data with stored memories
/// takes at most 9 B of live heap per membership more than with virtual
/// ones (about 21 000 memberships): a memory's bit words and the shared
/// indexes, each TID filed once. Keeping each held tuple a second time,
/// in a per-slot vector beside the relation, came to about 11 B; a hash
/// set of TIDs per memory to about 23 B, an entry per membership holding
/// its own tuple handle to about 84 B.
#[test]
fn join_churn_memories_hold_about_a_tid_per_membership() {
    let (stored, memberships) = join_churn_activation(VirtualPolicy::AllStored);
    let (virtual_, none) = join_churn_activation(VirtualPolicy::AllVirtual);
    assert_eq!(none, 0, "virtual memories hold nothing");
    assert!(memberships > 20_000, "{memberships} memberships");
    let per_member = (stored - virtual_) as f64 / memberships as f64;
    assert!(
        per_member <= 9.0,
        "stored memories take {per_member:.1} live bytes per membership"
    );
}

/// A selective stored memory over a large relation costs what it holds:
/// the 100 highest heap slots of a 200 000-row `emp`, joined to `dept`,
/// add at most 128 KB of live heap and of `alpha_bytes` when the rule is
/// activated. A memory whose bit words, or a store whose per-slot vector,
/// reached its highest slot paid about 9.65 MB for the same 100 members.
#[test]
fn a_sparse_stored_memory_costs_its_members_not_its_relation() {
    const ROWS: i64 = 200_000;
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: VirtualPolicy::AllStored,
        ..Default::default()
    });
    db.execute(
        "create emp (eno = int, sal = int, dno = int); \
         create dept (dno = int, floor = int); \
         create log (eno = int); \
         append dept (dno = 1, floor = 1)",
    )
    .unwrap();
    let (_, emp) = db.catalog_mut().resolve_mut("emp").unwrap();
    for i in 0..ROWS {
        emp.insert(vec![Value::Int(i), Value::Int(i), Value::Int(1 + i % 7)])
            .unwrap();
    }
    let before = db.network_stats().alpha_bytes;
    let grown = live_growth(|| {
        db.execute(&format!(
            "define rule top if emp.sal >= {} and emp.dno = dept.dno \
             then append to log (eno = emp.eno)",
            ROWS - 100
        ))
        .unwrap();
    });
    let stats = db.network_stats();
    assert_eq!(
        stats.alpha_entries,
        100 + 1,
        "the top 100 emps and the dept"
    );
    let alpha = stats.alpha_bytes - before;
    assert!(alpha <= 128 << 10, "the memory is charged {alpha} B");
    assert!(grown <= 128 << 10, "activation left {grown} B live");
}
