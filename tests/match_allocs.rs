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

// Per thread by design: each test counts only its own thread's allocations.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator runs during thread teardown too
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the thread-local
// counter is a `const`-initialised `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
