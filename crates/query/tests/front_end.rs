//! The query front end, pinned from outside: the exact error every
//! malformed input draws (kind, byte offset, message), and a generated
//! round trip — source text → AST → `Display` → AST — over commands and
//! rule definitions written with mixed-case keywords, keywords used as
//! names, negative numbers, every string escape and every operator.

mod common;

use ariel_query::{parse_command, parse_expr, parse_script, QueryError};
use common::writer::Writer;
use proptest::prelude::*;
use proptest::TestRng;

fn lex_err(pos: usize, msg: &str) -> QueryError {
    QueryError::Lex {
        pos,
        msg: msg.into(),
    }
}

fn parse_err(pos: usize, msg: &str) -> QueryError {
    QueryError::Parse {
        pos,
        msg: msg.into(),
    }
}

#[test]
fn malformed_scripts_draw_their_exact_errors() {
    let table = [
        (
            r#"append t (s = "oops"#,
            lex_err(14, "unterminated string literal"),
        ),
        (
            r#"append t (s = "a\qb")"#,
            lex_err(16, "unknown escape `\\q`"),
        ),
        (
            "append t (s = \"a\\",
            lex_err(14, "unterminated string literal"),
        ),
        (
            "append t (s = \"a\\\x01\")",
            lex_err(16, "unknown escape `\\x01`"),
        ),
        (
            "retrieve (héllo.a)",
            lex_err(11, "unexpected non-ascii byte 0xc3"),
        ),
        (
            "delete t where t.x ! 1",
            lex_err(19, "expected `=` after `!`"),
        ),
        (
            "delete t where t.x @ 1",
            lex_err(19, "unexpected character `@`"),
        ),
        (
            "append t (x = 99999999999999999999)",
            lex_err(14, "bad integer literal `99999999999999999999`"),
        ),
        (
            "retrieve (emp.all",
            parse_err(17, "expected ), found <eof>"),
        ),
        (
            "retrieve (emp.a) where emp.a <",
            parse_err(30, "expected an expression, found <eof>"),
        ),
        (
            "append t (x = )",
            parse_err(14, "expected an expression, found )"),
        ),
        ("append t ()", parse_err(10, "expected identifier, found )")),
        (
            "retrieve (x.a,) ",
            parse_err(14, "expected an expression, found )"),
        ),
        (
            "replace t (x = 1) where",
            parse_err(23, "expected an expression, found <eof>"),
        ),
        // the offending token is the priority value `x`, not the `if` after it
        (
            "define rule r priority x if emp.sal > 1 then halt",
            parse_err(23, "expected priority value, found `x`"),
        ),
        // the offending token is the inner `do`, not the last `end`
        (
            "do append e (a = 1) do append e (a = 2) end end",
            parse_err(20, "blocks may not be nested (§2.2.1)"),
        ),
        ("create t (x = blob)", parse_err(18, "unknown type `blob`")),
        (
            "define index on t (x) using trie",
            parse_err(32, "unknown index kind `trie`"),
        ),
        (
            "define rule bad then halt",
            parse_err(25, "rule needs an `on` event or an `if` condition"),
        ),
        (
            "define rule r on insert t then halt",
            parse_err(17, "expected `append`, `delete` or `replace` after `on`"),
        ),
        (
            "do append t (x = 1)",
            parse_err(19, "unterminated `do … end` block"),
        ),
        // comparisons do not chain
        (
            "retrieve (x.a) where x.a = 1 = 2",
            parse_err(29, "expected a command, found ="),
        ),
        // `not` is no operand of a comparison: here it reads as a variable
        (
            "retrieve (x.a) where x.a = not x.b",
            parse_err(31, "expected ., found `x`"),
        ),
        (
            "retrieve (x.a) where previous x",
            parse_err(31, "expected ., found <eof>"),
        ),
        (
            "retrieve (x.a) where new(x",
            parse_err(26, "expected ), found <eof>"),
        ),
        (
            "frobnicate t",
            parse_err(0, "expected a command, found `frobnicate`"),
        ),
        (
            "define rule r if x.a > 1 then do halt end extra",
            parse_err(42, "expected a command, found `extra`"),
        ),
    ];
    for (src, want) in table {
        assert_eq!(parse_script(src).unwrap_err(), want, "{src:?}");
    }
}

#[test]
fn malformed_expressions_and_commands_draw_their_exact_errors() {
    let exprs = [
        ("x.a = 1 )", parse_err(8, "unexpected trailing input )")),
        ("x.a + * 2", parse_err(6, "expected an expression, found *")),
        ("(x.a = 1", parse_err(8, "expected ), found <eof>")),
        ("-", parse_err(1, "expected an expression, found <eof>")),
        (
            "x.a = 1 and",
            parse_err(11, "expected an expression, found <eof>"),
        ),
    ];
    for (src, want) in exprs {
        assert_eq!(parse_expr(src).unwrap_err(), want, "{src:?}");
    }
    let cmds = [
        ("", parse_err(0, "empty input")),
        (" # only a comment", parse_err(0, "empty input")),
        ("halt; halt", parse_err(0, "expected a single command")),
    ];
    for (src, want) in cmds {
        assert_eq!(parse_command(src).unwrap_err(), want, "{src:?}");
    }
}

// ----- generated source text ----------------------------------------------

/// A script of one to three commands, `;`-separated or not.
struct Script;

impl Strategy for Script {
    type Value = String;
    fn gen_value(&self, rng: &mut TestRng) -> String {
        let mut w = Writer::new(rng);
        for _ in 0..1 + w.rng.below(3) {
            w.command(false);
            if w.chance(2) {
                w.out.push(';');
            }
        }
        w.out
    }
}

/// One qualification.
struct Condition;

impl Strategy for Condition {
    type Value = String;
    fn gen_value(&self, rng: &mut TestRng) -> String {
        let mut w = Writer::new(rng);
        w.cond(4);
        w.out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// parse → Display → parse gives back the same commands.
    #[test]
    fn scripts_round_trip_through_display(src in Script) {
        let cmds = parse_script(&src)
            .map_err(|e| TestCaseError::fail(format!("`{src}`: {e}")))?;
        let printed: Vec<String> = cmds.iter().map(ToString::to_string).collect();
        let printed = printed.join("; ");
        let again = parse_script(&printed)
            .map_err(|e| TestCaseError::fail(format!("`{src}` printed as `{printed}`: {e}")))?;
        prop_assert_eq!(again, cmds, "`{}` printed as `{}`", src, printed);
    }

    /// parse → Display → parse gives back the same qualification.
    #[test]
    fn conditions_round_trip_through_display(src in Condition) {
        let e = parse_expr(&src).map_err(|err| TestCaseError::fail(format!("`{src}`: {err}")))?;
        let printed = e.to_string();
        let again = parse_expr(&printed)
            .map_err(|err| TestCaseError::fail(format!("`{src}` printed as `{printed}`: {err}")))?;
        prop_assert_eq!(again, e, "`{}` printed as `{}`", src, printed);
    }
}
