//! Pretty-printing of ASTs back to ARL/POSTQUEL source.
//!
//! The rule catalog stores rule definitions as syntax trees (§5.1); these
//! `Display` impls render them back to canonical source — used by rule
//! inspection (`Ariel::show_rule`) and round-trip tested against the
//! parser.

use crate::ast::{Command, EventKind, Expr, FromItem, Literal, RuleDef, Target, UnaryOp};
use std::fmt;

/// Render a string literal with the lexer's escape sequences (`\"`, `\\`,
/// `\n`, `\t`), so rendered command texts — including those replayed from
/// the WAL — re-lex to the same value.
fn fmt_str_literal(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '\\' => write!(f, "\\\\")?,
            '"' => write!(f, "\\\"")?,
            '\n' => write!(f, "\\n")?,
            '\t' => write!(f, "\\t")?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Render a float so the lexer reads back the same float: a whole number
/// keeps a `.0`, or takes an exponent once `{x}` would print more digits
/// than an integer literal may have.
fn fmt_float(x: f64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if x.fract() != 0.0 || !x.is_finite() {
        write!(f, "{x}")
    } else if x.abs() < 1e15 {
        write!(f, "{x:.1}")
    } else {
        write!(f, "{x:e}")
    }
}

fn fmt_expr(e: &Expr, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match e {
        Expr::Literal(Literal::Int(i)) => write!(f, "{i}"),
        Expr::Literal(Literal::Float(x)) => fmt_float(*x, f),
        Expr::Literal(Literal::Str(s)) => fmt_str_literal(s, f),
        Expr::Literal(Literal::Bool(b)) => write!(f, "{b}"),
        Expr::Attr {
            var,
            attr,
            previous,
        } => {
            if *previous {
                write!(f, "previous {var}.{attr}")
            } else {
                write!(f, "{var}.{attr}")
            }
        }
        Expr::New { var } => write!(f, "new({var})"),
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => {
                // `not` parses between `and` and comparisons: parenthesize
                // when embedded in anything tighter than `and`
                let needs_parens = parent > 2;
                if needs_parens {
                    write!(f, "(")?;
                }
                write!(f, "not ")?;
                fmt_expr(expr, 3, f)?;
                if needs_parens {
                    write!(f, ")")?;
                }
                Ok(())
            }
            UnaryOp::Neg => {
                write!(f, "-")?;
                fmt_expr(expr, 6, f)
            }
        },
        Expr::Binary { op, left, right } => {
            let p = op.precedence();
            let needs_parens = p < parent;
            if needs_parens {
                write!(f, "(")?;
            }
            // comparisons are non-associative in the grammar: both operands
            // must parenthesize nested comparisons
            let left_ctx = if op.is_comparison() { p + 1 } else { p };
            fmt_expr(left, left_ctx, f)?;
            write!(f, " {op} ")?;
            // right side binds one tighter to keep left-associativity
            fmt_expr(right, p + 1, f)?;
            if needs_parens {
                write!(f, ")")?;
            }
            Ok(())
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_expr(self, 0, f)
    }
}

fn fmt_from_where(
    f: &mut fmt::Formatter<'_>,
    from: &[FromItem],
    qual: &Option<Expr>,
) -> fmt::Result {
    if !from.is_empty() {
        write!(f, " from ")?;
        for (i, item) in from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} in {}", item.var, item.rel)?;
        }
    }
    if let Some(q) = qual {
        write!(f, " where {q}")?;
    }
    Ok(())
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::CreateRelation { name, attrs } => {
                write!(f, "create {name} (")?;
                for (i, (a, t)) in attrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a} = {t}")?;
                }
                write!(f, ")")
            }
            Command::DestroyRelation { name } => write!(f, "destroy {name}"),
            Command::CreateIndex { rel, attr, kind } => {
                let k = match kind {
                    ariel_storage::IndexKind::BTree => "btree",
                    ariel_storage::IndexKind::Hash => "hash",
                };
                write!(f, "define index on {rel} ({attr}) using {k}")
            }
            Command::Append {
                target,
                assignments,
                from,
                qual,
            } => {
                write!(f, "append to {target} (")?;
                for (i, (a, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a} = {e}")?;
                }
                write!(f, ")")?;
                fmt_from_where(f, from, qual)
            }
            Command::Delete { var, from, qual } => {
                write!(f, "delete {var}")?;
                fmt_from_where(f, from, qual)
            }
            Command::Replace {
                var,
                assignments,
                from,
                qual,
            } => {
                write!(f, "replace {var} (")?;
                for (i, (a, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a} = {e}")?;
                }
                write!(f, ")")?;
                fmt_from_where(f, from, qual)
            }
            Command::Retrieve {
                into,
                targets,
                from,
                qual,
            } => {
                write!(f, "retrieve ")?;
                if let Some(dest) = into {
                    write!(f, "into {dest} ")?;
                }
                write!(f, "(")?;
                for (i, t) in targets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match t {
                        Target::Expr { name, expr } => write!(f, "{name} = {expr}")?,
                        Target::All { var } => write!(f, "{var}.all")?,
                    }
                }
                write!(f, ")")?;
                fmt_from_where(f, from, qual)
            }
            Command::Block(cmds) => {
                write!(f, "do")?;
                for c in cmds {
                    write!(f, " {c}")?;
                }
                write!(f, " end")
            }
            Command::DefineRule(def) => write!(f, "{def}"),
            Command::DropRule { name } => write!(f, "destroy rule {name}"),
            Command::ActivateRule { name } => write!(f, "activate rule {name}"),
            Command::DeactivateRule { name } => write!(f, "deactivate rule {name}"),
            Command::Halt => write!(f, "halt"),
            Command::Notify {
                channel,
                targets,
                from,
                qual,
            } => {
                write!(f, "notify {channel} (")?;
                for (i, t) in targets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match t {
                        Target::Expr { name, expr } => write!(f, "{name} = {expr}")?,
                        Target::All { var } => write!(f, "{var}.all")?,
                    }
                }
                write!(f, ")")?;
                fmt_from_where(f, from, qual)
            }
            Command::ReplacePrimed {
                pvar,
                assignments,
                from,
                qual,
            } => {
                // primed commands have no surface syntax; render annotated
                write!(f, "replace {pvar} (")?;
                for (i, (a, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a} = {e}")?;
                }
                write!(f, ")")?;
                fmt_from_where(f, from, qual)?;
                write!(f, " # via P-node")
            }
            Command::DeletePrimed { pvar, from, qual } => {
                write!(f, "delete {pvar}")?;
                fmt_from_where(f, from, qual)?;
                write!(f, " # via P-node")
            }
        }
    }
}

impl fmt::Display for RuleDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "define rule {}", self.name)?;
        if let Some(rs) = &self.ruleset {
            write!(f, " in {rs}")?;
        }
        if let Some(p) = self.priority {
            if p.fract() == 0.0 && p.abs() < 1e15 {
                write!(f, " priority {}", p as i64)?;
            } else {
                write!(f, " priority ")?;
                fmt_float(p, f)?;
            }
        }
        if let Some(ev) = &self.on {
            match &ev.kind {
                EventKind::Append => write!(f, " on append to {}", ev.relation)?,
                EventKind::Delete => write!(f, " on delete from {}", ev.relation)?,
                EventKind::Replace(None) => write!(f, " on replace to {}", ev.relation)?,
                EventKind::Replace(Some(attrs)) => {
                    write!(f, " on replace to {} ({})", ev.relation, attrs.join(", "))?
                }
            }
        }
        if let Some(c) = &self.condition {
            write!(f, " if {c}")?;
            if !self.cond_from.is_empty() {
                write!(f, " from ")?;
                for (i, item) in self.cond_from.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} in {}", item.var, item.rel)?;
                }
            }
        }
        write!(f, " then ")?;
        if self.action.len() == 1 {
            write!(f, "{}", self.action[0])
        } else {
            write!(f, "do")?;
            for c in &self.action {
                write!(f, " {c}")?;
            }
            write!(f, " end")
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::{parse_command, parse_expr};

    fn roundtrip_expr(src: &str) {
        let e = parse_expr(src).expect("parse");
        let printed = e.to_string();
        let e2 = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        assert_eq!(e, e2, "roundtrip changed `{src}` → `{printed}`");
    }

    fn roundtrip_cmd(src: &str) {
        let c = parse_command(src).expect("parse");
        let printed = c.to_string();
        let c2 = parse_command(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        assert_eq!(c, c2, "roundtrip changed `{src}` → `{printed}`");
    }

    #[test]
    fn expr_roundtrips() {
        for src in [
            "emp.sal > 1.1 * previous emp.sal",
            "(emp.a + emp.b) * emp.c = 10",
            "emp.a - (emp.b - emp.c)",
            "not (emp.x = 1 or emp.y = 2) and emp.z != 3",
            "new(emp) and emp.dno = dept.dno",
            "-emp.x < - (emp.y + 1)",
            "emp.name = \"Bob\"",
            "emp.flag = true or emp.flag = false",
            "emp.a / emp.b / emp.c > 0",
        ] {
            roundtrip_expr(src);
        }
    }

    #[test]
    fn command_roundtrips() {
        for src in [
            "create emp (name = string, age = int, sal = float, ok = bool)",
            "destroy emp",
            "define index on emp (sal) using btree",
            "define index on emp (dno) using hash",
            r#"append to emp (name = "x", sal = emp.sal + 1) where emp.dno = 1"#,
            "delete e from e in emp where e.sal > 10",
            r#"replace emp (sal = 0, name = "gone") where emp.sal < 0"#,
            "retrieve into out (emp.all, x = emp.sal * 2) from e in emp where emp.dno = e.dno",
            "do append to t (x = 1) delete t where t.x = 0 end",
            "destroy rule r",
            "activate rule r",
            "deactivate rule r",
            "halt",
        ] {
            roundtrip_cmd(src);
        }
    }

    #[test]
    fn rule_roundtrips() {
        for src in [
            r#"define rule NoBobs on append emp if emp.name = "Bob" then delete emp"#,
            "define rule r in payroll priority 10 if emp.sal > 1 then halt",
            "define rule raiselimit if emp.sal > 1.1 * previous emp.sal \
             then append to err(name = emp.name)",
            "define rule d on replace emp (jno, dno) \
             if a.jno = emp.jno from a in job then halt",
            "define rule multi if emp.sal > 0 then do halt delete emp end",
            "define rule ev on delete emp then append to log(x = emp.sal)",
        ] {
            roundtrip_cmd(src);
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        // values that only survive because the renderer escapes what the
        // lexer decodes — the WAL replay path depends on this closure
        for src in [
            r#"emp.name = "quo\"te""#,
            r#"emp.name = "back\\slash""#,
            r#"emp.name = "line\none""#,
            r#"emp.name = "tab\tstop""#,
            r#"append to emp (name = "a\"b\\c\nd")"#,
        ] {
            roundtrip_expr_or_cmd(src);
        }
        // rendering normalizes a single-quoted literal into escaped
        // double-quoted form
        let e = parse_expr("emp.name = 'it\"s'").expect("parse");
        let printed = e.to_string();
        assert!(printed.contains(r#""it\"s""#), "{printed}");
        assert_eq!(parse_expr(&printed).unwrap(), e);
    }

    fn roundtrip_expr_or_cmd(src: &str) {
        if src.starts_with("append") {
            roundtrip_cmd(src);
        } else {
            roundtrip_expr(src);
        }
    }

    #[test]
    fn precedence_preserved() {
        // and/or mix must not change meaning when printed
        let e = parse_expr("emp.a = 1 or emp.b = 2 and emp.c = 3").unwrap();
        let printed = e.to_string();
        assert_eq!(parse_expr(&printed).unwrap(), e);
        let e = parse_expr("(emp.a = 1 or emp.b = 2) and emp.c = 3").unwrap();
        let printed = e.to_string();
        assert_eq!(parse_expr(&printed).unwrap(), e);
    }
}

#[cfg(test)]
mod proptests {
    use crate::ast::*;
    use crate::parser::{parse_command, parse_expr};
    use proptest::prelude::*;

    fn ident() -> impl Strategy<Value = String> {
        // identifiers that are not keywords
        "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
            ![
                "create",
                "destroy",
                "define",
                "rule",
                "index",
                "on",
                "if",
                "then",
                "do",
                "end",
                "append",
                "delete",
                "replace",
                "retrieve",
                "into",
                "from",
                "where",
                "in",
                "and",
                "or",
                "not",
                "previous",
                "new",
                "halt",
                "notify",
                "activate",
                "deactivate",
                "priority",
                "using",
                "to",
                "all",
                "true",
                "false",
            ]
            .contains(&s.as_str())
        })
    }

    fn literal() -> impl Strategy<Value = Expr> {
        prop_oneof![
            (-1000i64..1000).prop_map(|i| Expr::Literal(Literal::Int(i))),
            (-100.0f64..100.0).prop_map(|x| Expr::Literal(Literal::Float(x))),
            // includes the escape-worthy characters so proptest exercises
            // the lexer/renderer escape closure
            "[a-zA-Z0-9 \"'\\\\\n\t]{0,8}".prop_map(|s| Expr::Literal(Literal::Str(s))),
            any::<bool>().prop_map(|b| Expr::Literal(Literal::Bool(b))),
        ]
    }

    fn expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            literal(),
            (ident(), ident(), any::<bool>()).prop_map(|(var, attr, previous)| {
                Expr::Attr {
                    var,
                    attr,
                    previous,
                }
            }),
            ident().prop_map(|var| Expr::New { var }),
        ];
        leaf.prop_recursive(4, 32, 3, |inner| {
            prop_oneof![
                (
                    inner.clone(),
                    inner.clone(),
                    prop_oneof![
                        Just(BinOp::Add),
                        Just(BinOp::Sub),
                        Just(BinOp::Mul),
                        Just(BinOp::Div),
                        Just(BinOp::Eq),
                        Just(BinOp::Ne),
                        Just(BinOp::Lt),
                        Just(BinOp::Le),
                        Just(BinOp::Gt),
                        Just(BinOp::Ge),
                        Just(BinOp::And),
                        Just(BinOp::Or),
                    ]
                )
                    .prop_map(|(l, r, op)| Expr::Binary {
                        op,
                        left: Box::new(l),
                        right: Box::new(r),
                    }),
                inner.clone().prop_map(|e| Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(e),
                }),
                inner.prop_map(|e| Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(e),
                }),
            ]
        })
    }

    /// Negation of a literal prints as `-5`, which reparses as a negative
    /// literal — normalize before comparing.
    fn normalize(e: &Expr) -> Expr {
        match e {
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => match normalize(expr) {
                Expr::Literal(Literal::Int(i)) => Expr::Literal(Literal::Int(-i)),
                Expr::Literal(Literal::Float(x)) => Expr::Literal(Literal::Float(-x)),
                inner => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(inner),
                },
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(normalize(expr)),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(normalize(left)),
                right: Box::new(normalize(right)),
            },
            other => other.clone(),
        }
    }

    proptest! {
        /// print → parse is the identity on expression trees.
        #[test]
        fn expr_print_parse_roundtrip(e in expr()) {
            let printed = e.to_string();
            let reparsed = parse_expr(&printed)
                .map_err(|err| TestCaseError::fail(format!("`{printed}`: {err}")))?;
            prop_assert_eq!(normalize(&reparsed), normalize(&e), "printed as `{}`", printed);
        }

        /// print → parse is the identity on a family of commands.
        #[test]
        fn command_print_parse_roundtrip(
            rel in ident(),
            var in ident(),
            attrs in proptest::collection::vec((ident(), expr()), 1..4),
            qual in proptest::option::of(expr()),
        ) {
            // dedup attribute names to keep the command well-formed
            let mut seen = std::collections::HashSet::new();
            let attrs: Vec<(String, Expr)> = attrs
                .into_iter()
                .filter(|(n, _)| seen.insert(n.clone()))
                .collect();
            for cmd in [
                Command::Append {
                    target: rel.clone(),
                    assignments: attrs.clone(),
                    from: vec![],
                    qual: qual.clone(),
                },
                Command::Replace {
                    var: var.clone(),
                    assignments: attrs.clone(),
                    from: vec![],
                    qual: qual.clone(),
                },
                Command::Delete { var: var.clone(), from: vec![], qual: qual.clone() },
            ] {
                let printed = cmd.to_string();
                let reparsed = parse_command(&printed)
                    .map_err(|err| TestCaseError::fail(format!("`{printed}`: {err}")))?;
                prop_assert_eq!(
                    norm_cmd(&reparsed), norm_cmd(&cmd), "printed as `{}`", printed
                );
            }
        }
    }

    fn norm_cmd(c: &Command) -> Command {
        match c {
            Command::Append {
                target,
                assignments,
                from,
                qual,
            } => Command::Append {
                target: target.clone(),
                assignments: assignments
                    .iter()
                    .map(|(n, e)| (n.clone(), normalize(e)))
                    .collect(),
                from: from.clone(),
                qual: qual.as_ref().map(normalize),
            },
            Command::Replace {
                var,
                assignments,
                from,
                qual,
            } => Command::Replace {
                var: var.clone(),
                assignments: assignments
                    .iter()
                    .map(|(n, e)| (n.clone(), normalize(e)))
                    .collect(),
                from: from.clone(),
                qual: qual.as_ref().map(normalize),
            },
            Command::Delete { var, from, qual } => Command::Delete {
                var: var.clone(),
                from: from.clone(),
                qual: qual.as_ref().map(normalize),
            },
            other => other.clone(),
        }
    }
}
