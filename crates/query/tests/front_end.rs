//! The query front end, pinned from outside: the exact error every
//! malformed input draws (kind, byte offset, message), and a generated
//! round trip — source text → AST → `Display` → AST — over commands and
//! rule definitions written with mixed-case keywords, keywords used as
//! names, negative numbers, every string escape and every operator.

use ariel_query::{parse_command, parse_expr, parse_script, QueryError};
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

/// Writes random, well-formed ARL source.
struct Writer<'r> {
    rng: &'r mut TestRng,
    out: String,
}

/// Names that are also keywords somewhere in the grammar but read as names
/// where one is expected.
const KEYWORD_NAMES: &[&str] = &[
    "rule", "index", "where", "from", "end", "to", "do", "if", "on", "in", "halt", "priority",
    "using", "into", "then", "and", "or", "append", "delete", "replace", "retrieve", "notify",
    "all", "new", "create",
];
const PLAIN_NAMES: &[&str] = &["emp", "Dept", "x1", "_t", "salary_2", "E"];

impl Writer<'_> {
    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.rng.below(from.len() as u64) as usize]
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.rng.below(one_in) == 0
    }

    fn push(&mut self, text: &str) {
        if !self.out.is_empty() && !self.out.ends_with([' ', '(', '.']) {
            self.out.push(' ');
        }
        self.out.push_str(text);
    }

    /// A keyword, each letter upper- or lower-case at random.
    fn kw(&mut self, word: &str) {
        let mixed: String = word
            .chars()
            .map(|c| {
                if self.chance(2) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        self.push(&mixed);
    }

    /// A name for where the grammar wants one: keywords included.
    fn pick_name(&mut self) -> &'static str {
        if self.chance(2) {
            self.pick(KEYWORD_NAMES)
        } else {
            self.pick(PLAIN_NAMES)
        }
    }

    fn name(&mut self) {
        let name = self.pick_name();
        self.push(name);
    }

    /// An optional filler keyword, then a name; a name that is the filler
    /// itself needs the filler written out.
    fn filler_then_name(&mut self, filler: &str) {
        let name = self.pick_name();
        if name == filler || self.chance(2) {
            self.kw(filler);
        }
        self.push(name);
    }

    /// `var.attr` inside an expression. The variable is never `not`,
    /// `true`, `false` or `previous`, which an operand reads as keywords,
    /// and the attribute never `all`, which a target list reads as `var.all`.
    fn var_attr(&mut self) {
        let var = if self.chance(3) {
            self.pick(&["where", "from", "and", "new", "all", "then"])
        } else {
            self.pick(PLAIN_NAMES)
        };
        self.push(var);
        self.out.push('.');
        let attr = if self.chance(3) {
            self.pick(&["if", "end", "or", "to", "in", "do"])
        } else {
            self.pick(PLAIN_NAMES)
        };
        self.push(attr);
    }

    fn string(&mut self) {
        let quote = if self.chance(2) { '"' } else { '\'' };
        let mut s = String::from(quote);
        for _ in 0..self.rng.below(7) {
            let piece = self.pick(&[
                "a", "Z", "0", " ", "é", "你", "\\\"", "\\'", "\\\\", "\\n", "\\t", "\n", "\t",
            ]);
            s.push_str(piece);
        }
        // the other quote, raw
        if self.chance(3) {
            s.push(if quote == '"' { '\'' } else { '"' });
        }
        s.push(quote);
        self.push(&s);
    }

    fn number(&mut self) {
        if self.chance(3) {
            self.push("-");
        }
        let n = self.pick(&[
            "0", "7", "42", "1000000", "1.5", "0.25", "2e3", "1.5E-2", "3e+2", "12.0", "1e20",
        ]);
        self.push(n);
    }

    fn leaf(&mut self) {
        match self.rng.below(6) {
            0 | 1 => self.number(),
            2 => self.string(),
            3 => {
                self.kw("previous");
                self.var_attr();
            }
            _ => self.var_attr(),
        }
    }

    fn arith(&mut self, depth: u32) {
        if depth == 0 {
            return self.leaf();
        }
        match self.rng.below(5) {
            0 => self.leaf(),
            1 => {
                self.push("-");
                self.arith(depth - 1);
            }
            2 => {
                self.push("(");
                self.arith(depth - 1);
                self.push(")");
            }
            _ => {
                self.arith(depth - 1);
                let op = self.pick(&["+", "-", "*", "/"]);
                self.push(op);
                self.arith(depth - 1);
            }
        }
    }

    fn cond(&mut self, depth: u32) {
        let branch = if depth == 0 { 0 } else { self.rng.below(8) };
        match branch {
            0 | 1 => {
                self.arith(depth.min(2));
                let op = self.pick(&["=", "!=", "<>", "<", "<=", ">", ">="]);
                self.push(op);
                self.arith(depth.min(2));
            }
            2 => {
                let word = self.pick(&["true", "false"]);
                self.kw(word);
            }
            3 => {
                self.kw("new");
                self.push("(");
                self.name();
                self.push(")");
            }
            4 => {
                self.kw("not");
                self.cond(depth - 1);
            }
            5 => {
                self.push("(");
                self.cond(depth - 1);
                self.push(")");
            }
            _ => {
                self.cond(depth - 1);
                let word = self.pick(&["and", "or"]);
                self.kw(word);
                self.cond(depth - 1);
            }
        }
    }

    fn list(&mut self, item: fn(&mut Self)) {
        for i in 0..1 + self.rng.below(3) {
            if i > 0 {
                self.out.push(',');
            }
            item(self);
        }
    }

    fn write_from_list(&mut self) {
        self.kw("from");
        self.list(|w| {
            w.name();
            w.kw("in");
            w.name();
        });
    }

    /// `[from …] [where …]`, in either order.
    fn write_from_where(&mut self) {
        let from_first = self.chance(2);
        if from_first && self.chance(2) {
            self.write_from_list();
        }
        if self.chance(2) {
            self.kw("where");
            self.cond(3);
        }
        if !from_first && self.chance(3) {
            self.write_from_list();
        }
    }

    fn assignments(&mut self) {
        self.push("(");
        self.list(|w| {
            w.name();
            w.push("=");
            w.arith(2);
        });
        self.push(")");
    }

    fn targets(&mut self) {
        self.push("(");
        self.list(|w| match w.rng.below(3) {
            0 => {
                w.var_attr_all();
            }
            1 => {
                w.name();
                w.push("=");
                w.arith(2);
            }
            _ => w.arith(2),
        });
        self.push(")");
    }

    fn var_attr_all(&mut self) {
        let var = self.pick(PLAIN_NAMES);
        self.push(var);
        self.out.push('.');
        self.kw("all");
    }

    /// One command; `in_block` leaves out blocks and rule definitions.
    fn command(&mut self, in_block: bool) {
        let kinds = if in_block { 9 } else { 11 };
        match self.rng.below(kinds) {
            0 => {
                self.kw("append");
                self.filler_then_name("to");
                self.assignments();
                self.write_from_where();
            }
            1 => {
                self.kw("delete");
                self.name();
                self.write_from_where();
            }
            2 => {
                self.kw("replace");
                self.name();
                self.assignments();
                self.write_from_where();
            }
            3 => {
                self.kw("retrieve");
                if self.chance(3) {
                    self.kw("into");
                    self.name();
                }
                self.targets();
                self.write_from_where();
            }
            4 => {
                self.kw("notify");
                self.name();
                self.targets();
                self.write_from_where();
            }
            5 => {
                self.kw("create");
                self.name();
                self.push("(");
                self.list(|w| {
                    w.name();
                    w.push("=");
                    let ty = w.pick(&[
                        "int", "i4", "integer", "float", "f8", "float8", "real", "string", "str",
                        "text", "char", "c", "bool", "boolean",
                    ]);
                    w.kw(ty);
                });
                self.push(")");
            }
            6 => {
                self.kw("define");
                self.kw("index");
                self.kw("on");
                self.name();
                self.push("(");
                self.name();
                self.push(")");
                if self.chance(2) {
                    self.kw("using");
                    let kind = self.pick(&["btree", "hash"]);
                    self.kw(kind);
                }
            }
            7 => {
                let verb = self.pick(&["destroy", "activate", "deactivate"]);
                self.kw(verb);
                self.kw("rule");
                self.name();
            }
            8 => match self.rng.below(2) {
                0 => self.kw("halt"),
                _ => {
                    self.kw("destroy");
                    let rel = self.pick(PLAIN_NAMES);
                    self.push(rel);
                }
            },
            9 => self.block(),
            _ => self.rule(),
        }
    }

    fn block(&mut self) {
        self.kw("do");
        for _ in 0..self.rng.below(4) {
            self.command(true);
            if self.chance(3) {
                self.out.push(';');
            }
        }
        self.kw("end");
    }

    fn rule(&mut self) {
        self.kw("define");
        self.kw("rule");
        self.name();
        if self.chance(3) {
            self.kw("in");
            self.name();
        }
        if self.chance(3) {
            self.kw("priority");
            self.number();
        }
        let on = self.chance(2);
        if on {
            self.kw("on");
            let (event, filler) = [("append", "to"), ("delete", "from"), ("replace", "to")]
                [self.rng.below(3) as usize];
            self.kw(event);
            self.filler_then_name(filler);
            if event == "replace" && self.chance(2) {
                self.push("(");
                self.list(Self::name);
                self.push(")");
            }
        }
        if !on || self.chance(2) {
            self.kw("if");
            self.cond(3);
            if self.chance(3) {
                self.write_from_list();
            }
        }
        self.kw("then");
        if self.chance(3) {
            self.block();
        } else {
            self.command(true);
        }
    }
}

/// A script of one to three commands, `;`-separated or not.
struct Script;

impl Strategy for Script {
    type Value = String;
    fn gen_value(&self, rng: &mut TestRng) -> String {
        let mut w = Writer {
            rng,
            out: String::new(),
        };
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
        let mut w = Writer {
            rng,
            out: String::new(),
        };
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
