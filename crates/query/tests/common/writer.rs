//! Random, well-formed ARL source: the generator behind the front end's
//! parse → `Display` → parse round trip, and behind the WAL's replay of
//! generated commands (whose log records are that `Display` text).
//!
//! Each test binary including this module uses part of it.
#![allow(dead_code)]

use proptest::TestRng;

/// Writes random, well-formed ARL source.
pub struct Writer<'r> {
    pub rng: &'r mut TestRng,
    pub out: String,
}

/// Names that are also keywords somewhere in the grammar but read as names
/// where one is expected.
const KEYWORD_NAMES: &[&str] = &[
    "rule", "index", "where", "from", "end", "to", "do", "if", "on", "in", "halt", "priority",
    "using", "into", "then", "and", "or", "append", "delete", "replace", "retrieve", "notify",
    "all", "new", "create",
];
const PLAIN_NAMES: &[&str] = &["emp", "Dept", "x1", "_t", "salary_2", "E"];

impl<'r> Writer<'r> {
    /// A writer drawing from `rng`, its output empty.
    pub fn new(rng: &'r mut TestRng) -> Writer<'r> {
        Writer {
            rng,
            out: String::new(),
        }
    }

    pub fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.rng.below(from.len() as u64) as usize]
    }

    pub fn chance(&mut self, one_in: u64) -> bool {
        self.rng.below(one_in) == 0
    }

    pub fn push(&mut self, text: &str) {
        if !self.out.is_empty() && !self.out.ends_with([' ', '(', '.']) {
            self.out.push(' ');
        }
        self.out.push_str(text);
    }

    /// A keyword, each letter upper- or lower-case at random.
    pub fn kw(&mut self, word: &str) {
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
    pub fn pick_name(&mut self) -> &'static str {
        if self.chance(2) {
            self.pick(KEYWORD_NAMES)
        } else {
            self.pick(PLAIN_NAMES)
        }
    }

    pub fn name(&mut self) {
        let name = self.pick_name();
        self.push(name);
    }

    /// An optional filler keyword, then a name; a name that is the filler
    /// itself needs the filler written out.
    pub fn filler_then_name(&mut self, filler: &str) {
        let name = self.pick_name();
        if name == filler || self.chance(2) {
            self.kw(filler);
        }
        self.push(name);
    }

    /// `var.attr` inside an expression. The variable is never `not`,
    /// `true`, `false` or `previous`, which an operand reads as keywords,
    /// and the attribute never `all`, which a target list reads as `var.all`.
    pub fn var_attr(&mut self) {
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

    pub fn string(&mut self) {
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

    pub fn number(&mut self) {
        if self.chance(3) {
            self.push("-");
        }
        let n = self.pick(&[
            "0", "7", "42", "1000000", "1.5", "0.25", "2e3", "1.5E-2", "3e+2", "12.0", "1e20",
        ]);
        self.push(n);
    }

    pub fn leaf(&mut self) {
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

    pub fn arith(&mut self, depth: u32) {
        self.arith_over(depth, Self::leaf, &["+", "-", "*", "/"]);
    }

    /// Arithmetic of `depth` over operands `leaf` writes, joined by `ops`.
    pub fn arith_over(&mut self, depth: u32, leaf: fn(&mut Self), ops: &[&'static str]) {
        if depth == 0 {
            return leaf(self);
        }
        match self.rng.below(5) {
            0 => leaf(self),
            1 => {
                self.push("-");
                self.arith_over(depth - 1, leaf, ops);
            }
            2 => {
                self.push("(");
                self.arith_over(depth - 1, leaf, ops);
                self.push(")");
            }
            _ => {
                self.arith_over(depth - 1, leaf, ops);
                let op = self.pick(ops);
                self.push(op);
                self.arith_over(depth - 1, leaf, ops);
            }
        }
    }

    pub fn cond(&mut self, depth: u32) {
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

    pub fn list(&mut self, item: fn(&mut Self)) {
        for i in 0..1 + self.rng.below(3) {
            if i > 0 {
                self.out.push(',');
            }
            item(self);
        }
    }

    pub fn write_from_list(&mut self) {
        self.kw("from");
        self.list(|w| {
            w.name();
            w.kw("in");
            w.name();
        });
    }

    /// `[from …] [where …]`, in either order.
    pub fn write_from_where(&mut self) {
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

    pub fn assignments(&mut self) {
        self.push("(");
        self.list(|w| {
            w.name();
            w.push("=");
            w.arith(2);
        });
        self.push(")");
    }

    pub fn targets(&mut self) {
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

    pub fn var_attr_all(&mut self) {
        let var = self.pick(PLAIN_NAMES);
        self.push(var);
        self.out.push('.');
        self.kw("all");
    }

    /// One command; `in_block` leaves out blocks and rule definitions.
    pub fn command(&mut self, in_block: bool) {
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

    pub fn block(&mut self) {
        self.kw("do");
        for _ in 0..self.rng.below(4) {
            self.command(true);
            if self.chance(3) {
                self.out.push(';');
            }
        }
        self.kw("end");
    }

    pub fn rule(&mut self) {
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

    /// One `append` or `replace` that succeeds on `emp (s = string, f =
    /// float)`: every string escape, negative and exponent numbers and
    /// arithmetic over them (no division, so no value errs), mixed-case
    /// keywords.
    pub fn dml(&mut self) {
        let number = |w: &mut Self| w.arith_over(2, Self::number, &["+", "-", "*"]);
        if self.chance(2) {
            self.kw("append");
            if self.chance(2) {
                self.kw("to");
            }
            self.push("emp");
            self.push("(");
            self.push("s =");
            self.string();
            self.out.push(',');
            self.push("f =");
            number(self);
            self.push(")");
        } else {
            self.kw("replace");
            self.push("emp");
            self.push("(");
            self.push("f =");
            number(self);
            if self.chance(2) {
                self.out.push(',');
                self.push("s =");
                self.string();
            }
            self.push(")");
            self.kw("where");
            self.push("emp.f");
            let op = self.pick(&["=", "!=", "<", "<=", ">", ">="]);
            self.push(op);
            self.number();
        }
    }
}
