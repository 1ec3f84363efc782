//! Recursive-descent parser for the POSTQUEL subset + ARL, with one
//! precedence-climbing loop for expressions.
//!
//! Keywords are matched case-insensitively and contextually; any word can
//! still serve as a relation / attribute / rule name where the grammar
//! expects one. The parser reads the lexer's borrowed tokens in place and
//! allocates only what the AST keeps: each name once, each string literal
//! once.

use crate::ast::*;
use crate::error::{QueryError, QueryResult};
use crate::lexer::{lex, Token, TokenKind};
use ariel_storage::{AttrType, IndexKind};

/// Parse a script: one or more commands, optionally `;`-separated.
///
/// ```
/// use ariel_query::parse_script;
///
/// let cmds = parse_script(
///     "create emp (name = string, sal = float); \
///      define rule cap if emp.sal > 100 then replace emp (sal = 100)",
/// )
/// .unwrap();
/// assert_eq!(cmds.len(), 2);
/// ```
pub fn parse_script(src: &str) -> QueryResult<Vec<Command>> {
    let mut p = Parser::new(src)?;
    let mut cmds = Vec::new();
    loop {
        p.skip_semicolons();
        if p.peek_is_eof() {
            break;
        }
        cmds.push(p.parse_command()?);
    }
    Ok(cmds)
}

/// Parse exactly one command.
pub fn parse_command(src: &str) -> QueryResult<Command> {
    let mut cmds = parse_script(src)?;
    match cmds.len() {
        1 => Ok(cmds.pop().unwrap()),
        0 => Err(QueryError::Parse {
            pos: 0,
            msg: "empty input".into(),
        }),
        _ => Err(QueryError::Parse {
            pos: 0,
            msg: "expected a single command".into(),
        }),
    }
}

/// Parse a qualification expression in isolation (used by tests and by the
/// rule catalog when reconstructing conditions).
pub fn parse_expr(src: &str) -> QueryResult<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Attribute type names `create` accepts.
const TYPES: [(&str, AttrType); 14] = [
    ("int", AttrType::Int),
    ("i4", AttrType::Int),
    ("integer", AttrType::Int),
    ("float", AttrType::Float),
    ("f8", AttrType::Float),
    ("float8", AttrType::Float),
    ("real", AttrType::Float),
    ("string", AttrType::Str),
    ("str", AttrType::Str),
    ("text", AttrType::Str),
    ("char", AttrType::Str),
    ("c", AttrType::Str),
    ("bool", AttrType::Bool),
    ("boolean", AttrType::Bool),
];

/// Index kinds `define index … using` accepts.
const INDEX_KINDS: [(&str, IndexKind); 2] =
    [("btree", IndexKind::BTree), ("hash", IndexKind::Hash)];

/// The entry of `table` named `word`, case-insensitively.
fn lookup<T: Copy>(table: &[(&str, T)], word: &str) -> Option<T> {
    table
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(word))
        .map(|&(_, v)| v)
}

struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    at: usize,
}

impl<'src> Parser<'src> {
    fn new(src: &'src str) -> QueryResult<Self> {
        Ok(Parser {
            tokens: lex(src)?,
            at: 0,
        })
    }

    fn peek(&self) -> &Token<'src> {
        &self.tokens[self.at]
    }

    /// The kind of the token `ahead` places past the current one.
    fn kind_at(&self, ahead: usize) -> Option<&TokenKind<'src>> {
        self.tokens.get(self.at + ahead).map(|t| &t.kind)
    }

    fn peek_is_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    /// Step past the current token (never past `Eof`).
    fn bump(&mut self) {
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> QueryResult<T> {
        Err(QueryError::Parse {
            pos: self.peek().pos,
            msg: msg.into(),
        })
    }

    fn skip_semicolons(&mut self) {
        while matches!(self.peek().kind, TokenKind::Semicolon) {
            self.bump();
        }
    }

    fn expect_eof(&self) -> QueryResult<()> {
        if self.peek_is_eof() {
            Ok(())
        } else {
            self.err(format!("unexpected trailing input {}", self.peek().kind))
        }
    }

    /// Is the current token the given (case-insensitive) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the given keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        let at = self.at_kw(kw);
        if at {
            self.bump();
        }
        at
    }

    fn expect_kw(&mut self, kw: &str) -> QueryResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.peek().kind))
        }
    }

    fn eat_tok(&mut self, kind: TokenKind<'_>) -> bool {
        let at = self.peek().kind == kind;
        if at {
            self.bump();
        }
        at
    }

    fn expect_tok(&mut self, kind: TokenKind<'_>) -> QueryResult<()> {
        if self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    /// The current word, consumed, still borrowed from the source.
    fn expect_word(&mut self) -> QueryResult<&'src str> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            ref other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// The current word, consumed and copied into the AST.
    fn expect_ident(&mut self) -> QueryResult<String> {
        self.expect_word().map(str::to_owned)
    }

    /// `item (, item)*`
    fn comma_list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> QueryResult<T>,
    ) -> QueryResult<Vec<T>> {
        let mut out = Vec::new();
        loop {
            out.push(item(self)?);
            if !self.eat_tok(TokenKind::Comma) {
                return Ok(out);
            }
        }
    }

    // ----- commands ---------------------------------------------------------

    fn parse_command(&mut self) -> QueryResult<Command> {
        if self.at_kw("create") {
            return self.parse_create();
        }
        if self.at_kw("destroy") {
            return self.parse_destroy();
        }
        if self.at_kw("define") {
            return self.parse_define();
        }
        if self.eat_kw("activate") {
            self.expect_kw("rule")?;
            let name = self.expect_ident()?;
            return Ok(Command::ActivateRule { name });
        }
        if self.eat_kw("deactivate") {
            self.expect_kw("rule")?;
            let name = self.expect_ident()?;
            return Ok(Command::DeactivateRule { name });
        }
        if self.at_kw("append") {
            return self.parse_append();
        }
        if self.at_kw("delete") {
            return self.parse_delete();
        }
        if self.at_kw("replace") {
            return self.parse_replace();
        }
        if self.at_kw("retrieve") {
            return self.parse_retrieve();
        }
        if self.at_kw("do") {
            return self.parse_block();
        }
        if self.eat_kw("halt") {
            return Ok(Command::Halt);
        }
        if self.at_kw("notify") {
            return self.parse_notify();
        }
        self.err(format!("expected a command, found {}", self.peek().kind))
    }

    fn parse_create(&mut self) -> QueryResult<Command> {
        self.expect_kw("create")?;
        let name = self.expect_ident()?;
        self.expect_tok(TokenKind::LParen)?;
        let attrs = self.comma_list(|p| {
            let attr = p.expect_ident()?;
            p.expect_tok(TokenKind::Eq)?;
            let ty = p.expect_word()?;
            match lookup(&TYPES, ty) {
                Some(ty) => Ok((attr, ty)),
                None => p.err(format!("unknown type `{}`", ty.to_ascii_lowercase())),
            }
        })?;
        self.expect_tok(TokenKind::RParen)?;
        Ok(Command::CreateRelation { name, attrs })
    }

    fn parse_destroy(&mut self) -> QueryResult<Command> {
        self.expect_kw("destroy")?;
        if self.eat_kw("rule") {
            let name = self.expect_ident()?;
            return Ok(Command::DropRule { name });
        }
        let name = self.expect_ident()?;
        Ok(Command::DestroyRelation { name })
    }

    fn parse_define(&mut self) -> QueryResult<Command> {
        self.expect_kw("define")?;
        if self.eat_kw("index") {
            self.expect_kw("on")?;
            let rel = self.expect_ident()?;
            self.expect_tok(TokenKind::LParen)?;
            let attr = self.expect_ident()?;
            self.expect_tok(TokenKind::RParen)?;
            let kind = if self.eat_kw("using") {
                let k = self.expect_word()?;
                match lookup(&INDEX_KINDS, k) {
                    Some(kind) => kind,
                    None => {
                        return self.err(format!("unknown index kind `{}`", k.to_ascii_lowercase()))
                    }
                }
            } else {
                IndexKind::BTree
            };
            return Ok(Command::CreateIndex { rel, attr, kind });
        }
        self.expect_kw("rule")?;
        let rule = self.parse_rule_def()?;
        Ok(Command::DefineRule(rule))
    }

    fn parse_rule_def(&mut self) -> QueryResult<RuleDef> {
        let name = self.expect_ident()?;
        let ruleset = if self.eat_kw("in") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        let priority = if self.eat_kw("priority") {
            let neg = self.eat_tok(TokenKind::Minus);
            let v = match self.peek().kind {
                TokenKind::Int(i) => i as f64,
                TokenKind::Float(x) => x,
                ref other => return self.err(format!("expected priority value, found {other}")),
            };
            self.bump();
            Some(if neg { -v } else { v })
        } else {
            None
        };
        let on = if self.eat_kw("on") {
            Some(self.parse_event_spec()?)
        } else {
            None
        };
        let (condition, cond_from) = if self.eat_kw("if") {
            let e = self.expr()?;
            let from = if self.eat_kw("from") {
                self.parse_from_items()?
            } else {
                Vec::new()
            };
            (Some(e), from)
        } else {
            (None, Vec::new())
        };
        self.expect_kw("then")?;
        let action = match self.parse_command()? {
            Command::Block(cmds) => cmds,
            single => vec![single],
        };
        if on.is_none() && condition.is_none() {
            return self.err("rule needs an `on` event or an `if` condition");
        }
        Ok(RuleDef {
            name,
            ruleset,
            priority,
            on,
            condition,
            cond_from,
            action,
        })
    }

    fn parse_event_spec(&mut self) -> QueryResult<EventSpec> {
        let (kind, filler) = if self.eat_kw("append") {
            (EventKind::Append, "to")
        } else if self.eat_kw("delete") {
            (EventKind::Delete, "from")
        } else if self.eat_kw("replace") {
            (EventKind::Replace(None), "to")
        } else {
            return self.err("expected `append`, `delete` or `replace` after `on`");
        };
        self.eat_kw(filler);
        let relation = self.expect_ident()?;
        let kind = match kind {
            EventKind::Replace(_) if self.eat_tok(TokenKind::LParen) => {
                let attrs = self.comma_list(Self::expect_ident)?;
                self.expect_tok(TokenKind::RParen)?;
                EventKind::Replace(Some(attrs))
            }
            kind => kind,
        };
        Ok(EventSpec { kind, relation })
    }

    fn parse_assignments(&mut self) -> QueryResult<Vec<(String, Expr)>> {
        self.expect_tok(TokenKind::LParen)?;
        let out = self.comma_list(|p| {
            let attr = p.expect_ident()?;
            p.expect_tok(TokenKind::Eq)?;
            Ok((attr, p.expr()?))
        })?;
        self.expect_tok(TokenKind::RParen)?;
        Ok(out)
    }

    fn parse_from_items(&mut self) -> QueryResult<Vec<FromItem>> {
        self.comma_list(|p| {
            let var = p.expect_ident()?;
            p.expect_kw("in")?;
            let rel = p.expect_ident()?;
            Ok(FromItem { var, rel })
        })
    }

    /// Optional `from …` then optional `where …`, in either order? The
    /// paper's syntax is `[from from-list] [where qual]`, with `where`
    /// allowed first in practice; we accept both orders.
    fn parse_from_where(&mut self) -> QueryResult<(Vec<FromItem>, Option<Expr>)> {
        let mut from = Vec::new();
        let mut qual = None;
        loop {
            if self.eat_kw("from") {
                from.extend(self.parse_from_items()?);
            } else if self.eat_kw("where") {
                let e = self.expr()?;
                qual = Expr::and(qual, Some(e));
            } else {
                break;
            }
        }
        Ok((from, qual))
    }

    fn parse_append(&mut self) -> QueryResult<Command> {
        self.expect_kw("append")?;
        self.eat_kw("to");
        let target = self.expect_ident()?;
        let assignments = self.parse_assignments()?;
        let (from, qual) = self.parse_from_where()?;
        Ok(Command::Append {
            target,
            assignments,
            from,
            qual,
        })
    }

    fn parse_delete(&mut self) -> QueryResult<Command> {
        self.expect_kw("delete")?;
        let var = self.expect_ident()?;
        let (from, qual) = self.parse_from_where()?;
        Ok(Command::Delete { var, from, qual })
    }

    fn parse_replace(&mut self) -> QueryResult<Command> {
        self.expect_kw("replace")?;
        let var = self.expect_ident()?;
        let assignments = self.parse_assignments()?;
        let (from, qual) = self.parse_from_where()?;
        Ok(Command::Replace {
            var,
            assignments,
            from,
            qual,
        })
    }

    fn parse_retrieve(&mut self) -> QueryResult<Command> {
        self.expect_kw("retrieve")?;
        let into = if self.eat_kw("into") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        let targets = self.parse_targets()?;
        let (from, qual) = self.parse_from_where()?;
        Ok(Command::Retrieve {
            into,
            targets,
            from,
            qual,
        })
    }

    fn parse_notify(&mut self) -> QueryResult<Command> {
        self.expect_kw("notify")?;
        let channel = self.expect_ident()?;
        let targets = self.parse_targets()?;
        let (from, qual) = self.parse_from_where()?;
        Ok(Command::Notify {
            channel,
            targets,
            from,
            qual,
        })
    }

    /// The parenthesized target list of `retrieve` and `notify`: each
    /// target is `var.all`, `name = expr`, or an expression named `colN`
    /// after the anonymous targets before it.
    fn parse_targets(&mut self) -> QueryResult<Vec<Target>> {
        self.expect_tok(TokenKind::LParen)?;
        let mut anon = 0usize;
        let targets = self.comma_list(|p| {
            let TokenKind::Ident(first) = p.peek().kind else {
                return p.anonymous_target(&mut anon);
            };
            let all = matches!(
                (p.kind_at(1), p.kind_at(2)),
                (Some(TokenKind::Dot), Some(TokenKind::Ident(a))) if a.eq_ignore_ascii_case("all")
            );
            if all {
                p.at += 3; // `var`, `.`, `all`: none of them `Eof`
                Ok(Target::All {
                    var: first.to_owned(),
                })
            } else if p.kind_at(1) == Some(&TokenKind::Eq) {
                p.at += 2; // `name`, `=`
                let expr = p.expr()?;
                Ok(Target::Expr {
                    name: first.to_owned(),
                    expr,
                })
            } else {
                p.anonymous_target(&mut anon)
            }
        })?;
        self.expect_tok(TokenKind::RParen)?;
        Ok(targets)
    }

    fn anonymous_target(&mut self, anon: &mut usize) -> QueryResult<Target> {
        let expr = self.expr()?;
        *anon += 1;
        Ok(Target::Expr {
            name: format!("col{anon}"),
            expr,
        })
    }

    fn parse_block(&mut self) -> QueryResult<Command> {
        self.expect_kw("do")?;
        let mut cmds = Vec::new();
        loop {
            self.skip_semicolons();
            if self.eat_kw("end") {
                break;
            }
            if self.peek_is_eof() {
                return self.err("unterminated `do … end` block");
            }
            if self.at_kw("do") {
                return self.err("blocks may not be nested (§2.2.1)");
            }
            cmds.push(self.parse_command()?);
        }
        Ok(Command::Block(cmds))
    }

    // ----- expressions -------------------------------------------------------

    fn expr(&mut self) -> QueryResult<Expr> {
        self.climb(BinOp::Or.precedence())
    }

    /// The binary operator at the current token, if any.
    fn binop(&self) -> Option<BinOp> {
        Some(match self.peek().kind {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::Plus => BinOp::Add,
            TokenKind::Minus => BinOp::Sub,
            TokenKind::StarTok => BinOp::Mul,
            TokenKind::Slash => BinOp::Div,
            TokenKind::Ident(w) if w.eq_ignore_ascii_case("and") => BinOp::And,
            TokenKind::Ident(w) if w.eq_ignore_ascii_case("or") => BinOp::Or,
            _ => return None,
        })
    }

    /// Precedence climbing over `or` < `and` < prefix `not` < comparison <
    /// `+ -` < `* /` < unary `-`: an operand, then each binary operator
    /// binding at least `min` tightly, its right operand one level tighter
    /// (all are left-associative). A prefix `not` is read only where an
    /// operand of `and`/`or` starts, and takes one comparison-level operand.
    /// `ceiling` is the tightest operator that may still follow: after a
    /// `not` or a comparison, only `and`/`or` (comparisons do not chain).
    fn climb(&mut self, min: u8) -> QueryResult<Expr> {
        let cmp = BinOp::Eq.precedence();
        let (mut lhs, mut ceiling) = if min <= cmp && self.eat_kw("not") {
            let operand = self.climb(cmp)?;
            let not = Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(operand),
            };
            (not, BinOp::And.precedence())
        } else if self.eat_tok(TokenKind::Minus) {
            let operand = self.climb(u8::MAX)?;
            let neg = Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(operand),
            };
            (neg, u8::MAX)
        } else {
            (self.parse_primary()?, u8::MAX)
        };
        while let Some(op) = self.binop() {
            let prec = op.precedence();
            if prec < min || prec > ceiling {
                break;
            }
            self.bump();
            let right = self.climb(prec + 1)?;
            lhs = Expr::Binary {
                op,
                left: Box::new(lhs),
                right: Box::new(right),
            };
            ceiling = if op.is_comparison() {
                BinOp::And.precedence()
            } else {
                prec
            };
        }
        Ok(lhs)
    }

    fn parse_primary(&mut self) -> QueryResult<Expr> {
        let literal = match &mut self.tokens[self.at].kind {
            TokenKind::Int(i) => Literal::Int(*i),
            TokenKind::Float(x) => Literal::Float(*x),
            // the AST takes the literal over: no copy of decoded text
            TokenKind::Str(s) => Literal::Str(std::mem::take(s).into_owned()),
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect_tok(TokenKind::RParen)?;
                return Ok(e);
            }
            TokenKind::Ident(word) => {
                let word = *word;
                return self.parse_word_operand(word);
            }
            other => {
                let msg = format!("expected an expression, found {other}");
                return self.err(msg);
            }
        };
        self.bump();
        Ok(Expr::Literal(literal))
    }

    /// An operand that starts with a word: `true`/`false`, `previous
    /// var.attr`, `new(var)` or `var.attr`.
    fn parse_word_operand(&mut self, word: &'src str) -> QueryResult<Expr> {
        let is = |kw: &str| word.eq_ignore_ascii_case(kw);
        if is("true") || is("false") {
            self.bump();
            return Ok(Expr::Literal(Literal::Bool(is("true"))));
        }
        if is("new") && self.kind_at(1) == Some(&TokenKind::LParen) {
            self.at += 2; // `new`, `(`
            let var = self.expect_ident()?;
            self.expect_tok(TokenKind::RParen)?;
            return Ok(Expr::New { var });
        }
        self.bump();
        let previous = is("previous");
        let var = if previous {
            self.expect_ident()?
        } else {
            word.to_owned()
        };
        self.expect_tok(TokenKind::Dot)?;
        let attr = self.expect_ident()?;
        Ok(Expr::Attr {
            var,
            attr,
            previous,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_relation() {
        let c = parse_command("create emp (name = string, age = int, salary = float)").unwrap();
        match c {
            Command::CreateRelation { name, attrs } => {
                assert_eq!(name, "emp");
                assert_eq!(attrs.len(), 3);
                assert_eq!(attrs[1], ("age".to_string(), AttrType::Int));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_append_with_constants() {
        let c = parse_command(r#"append emp(name="Sue", age=27, sal=55000, dno=12)"#).unwrap();
        match c {
            Command::Append {
                target,
                assignments,
                ..
            } => {
                assert_eq!(target, "emp");
                assert_eq!(assignments.len(), 4);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_replace_with_where() {
        let c = parse_command(r#"replace emp (name="bob") where emp.name = "Sue""#).unwrap();
        match c {
            Command::Replace {
                var,
                assignments,
                qual,
                ..
            } => {
                assert_eq!(var, "emp");
                assert_eq!(assignments.len(), 1);
                assert!(qual.is_some());
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_retrieve_targets() {
        let c = parse_command(
            "retrieve into result (emp.all, total = emp.sal + 10) from emp in employees where emp.sal > 100",
        )
        .unwrap();
        match c {
            Command::Retrieve {
                into,
                targets,
                from,
                qual,
            } => {
                assert_eq!(into.as_deref(), Some("result"));
                assert_eq!(targets.len(), 2);
                assert!(matches!(&targets[0], Target::All { var } if var == "emp"));
                assert!(matches!(&targets[1], Target::Expr { name, .. } if name == "total"));
                assert_eq!(
                    from,
                    vec![FromItem {
                        var: "emp".into(),
                        rel: "employees".into()
                    }]
                );
                assert!(qual.is_some());
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_do_block() {
        let c = parse_command(
            r#"do append emp(name="a") replace emp (name="b") where emp.name = "a" end"#,
        )
        .unwrap();
        match c {
            Command::Block(cmds) => assert_eq!(cmds.len(), 2),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn nested_blocks_rejected() {
        let r = parse_command("do do halt end end");
        assert!(matches!(r, Err(QueryError::Parse { .. })));
    }

    #[test]
    fn parse_rule_nobobs() {
        let c = parse_command(
            r#"define rule NoBobs on append emp if emp.name = "Bob" then delete emp"#,
        )
        .unwrap();
        match c {
            Command::DefineRule(r) => {
                assert_eq!(r.name, "NoBobs");
                assert_eq!(
                    r.on,
                    Some(EventSpec {
                        kind: EventKind::Append,
                        relation: "emp".into()
                    })
                );
                assert!(r.condition.is_some());
                assert_eq!(r.action.len(), 1);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_rule_raiselimit_with_previous() {
        let c = parse_command(
            "define rule raiselimit if emp.sal > 1.1 * previous emp.sal \
             then append to salaryerror(name=emp.name, old=previous emp.sal, new=emp.sal)",
        )
        .unwrap();
        match c {
            Command::DefineRule(r) => {
                assert!(r.condition.unwrap().has_previous_ref("emp"));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_rule_finddemotions_full() {
        let c = parse_command(
            "define rule finddemotions on replace emp(jno) \
             if newjob.jno = emp.jno and oldjob.jno = previous emp.jno and newjob.paygrade < oldjob.paygrade \
             from oldjob in job, newjob in job \
             then append to demotions (name=emp.name, dno=emp.dno, oldjno=oldjob.jno, newjno=newjob.jno)",
        )
        .unwrap();
        match c {
            Command::DefineRule(r) => {
                assert_eq!(
                    r.on,
                    Some(EventSpec {
                        kind: EventKind::Replace(Some(vec!["jno".into()])),
                        relation: "emp".into()
                    })
                );
                assert_eq!(r.cond_from.len(), 2);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_rule_with_priority_and_ruleset() {
        let c = parse_command("define rule r1 in payroll priority 10 if emp.sal > 100 then halt")
            .unwrap();
        match c {
            Command::DefineRule(r) => {
                assert_eq!(r.ruleset.as_deref(), Some("payroll"));
                assert_eq!(r.priority, Some(10.0));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_rule_with_block_action() {
        let c = parse_command(
            "define rule r2 if emp.sal > 30000 then do \
               append to salarywatch(name = emp.name) \
               replace emp (sal = 30000) \
             end",
        )
        .unwrap();
        match c {
            Command::DefineRule(r) => assert_eq!(r.action.len(), 2),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn rule_without_on_or_if_rejected() {
        assert!(parse_command("define rule bad then halt").is_err());
    }

    #[test]
    fn parse_new_predicate() {
        let e = parse_expr("new(emp)").unwrap();
        assert_eq!(e, Expr::New { var: "emp".into() });
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("emp.a + emp.b * 2 = 10 and emp.c < 5 or emp.d > 1").unwrap();
        // or at top
        let Expr::Binary {
            op: BinOp::Or,
            left,
            ..
        } = e
        else {
            panic!("expected or at top");
        };
        let Expr::Binary {
            op: BinOp::And,
            left: cmp,
            ..
        } = *left
        else {
            panic!("expected and under or");
        };
        let Expr::Binary {
            op: BinOp::Eq,
            left: add,
            ..
        } = *cmp
        else {
            panic!("expected = under and");
        };
        let Expr::Binary {
            op: BinOp::Add,
            right: mul,
            ..
        } = *add
        else {
            panic!("expected + under =");
        };
        assert!(matches!(*mul, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn not_and_negation() {
        let e = parse_expr("not emp.flag = true").unwrap();
        assert!(matches!(
            e,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
        let e = parse_expr("-emp.x < 0").unwrap();
        let Expr::Binary { left, .. } = e else {
            panic!()
        };
        assert!(matches!(
            *left,
            Expr::Unary {
                op: UnaryOp::Neg,
                ..
            }
        ));
    }

    #[test]
    fn parse_script_multiple() {
        let cmds = parse_script("create t (x = int); append t (x = 1); halt").unwrap();
        assert_eq!(cmds.len(), 3);
    }

    #[test]
    fn parse_index_ddl() {
        let c = parse_command("define index on emp (sal) using btree").unwrap();
        assert!(matches!(
            c,
            Command::CreateIndex {
                kind: IndexKind::BTree,
                ..
            }
        ));
        let c = parse_command("define index on emp (dno) using hash").unwrap();
        assert!(matches!(
            c,
            Command::CreateIndex {
                kind: IndexKind::Hash,
                ..
            }
        ));
    }

    #[test]
    fn activate_deactivate_drop() {
        assert!(matches!(
            parse_command("activate rule r").unwrap(),
            Command::ActivateRule { .. }
        ));
        assert!(matches!(
            parse_command("deactivate rule r").unwrap(),
            Command::DeactivateRule { .. }
        ));
        assert!(matches!(
            parse_command("destroy rule r").unwrap(),
            Command::DropRule { .. }
        ));
    }

    #[test]
    fn where_before_from_accepted() {
        let c = parse_command("delete e where e.x = 1 from e in t").unwrap();
        match c {
            Command::Delete { var, from, qual } => {
                assert_eq!(var, "e");
                assert_eq!(from.len(), 1);
                assert!(qual.is_some());
            }
            other => panic!("wrong command: {other:?}"),
        }
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The lexer+parser must never panic — any byte soup either parses
        /// or returns a structured error.
        #[test]
        fn parser_never_panics(src in "\\PC{0,120}") {
            let _ = parse_script(&src);
            let _ = parse_expr(&src);
        }

        /// ARL-shaped noise: random keyword salads stay panic-free too.
        #[test]
        fn keyword_salad_never_panics(
            words in proptest::collection::vec(
                prop_oneof![
                    Just("define"), Just("rule"), Just("on"), Just("if"),
                    Just("then"), Just("do"), Just("end"), Just("append"),
                    Just("delete"), Just("replace"), Just("retrieve"),
                    Just("where"), Just("from"), Just("previous"), Just("new"),
                    Just("("), Just(")"), Just("="), Just("<"), Just("."),
                    Just("emp"), Just("sal"), Just("1"), Just("\"x\""),
                    Just("and"), Just("halt"), Just("notify"), Just(","),
                ],
                0..25,
            )
        ) {
            let src = words.join(" ");
            let _ = parse_script(&src);
        }
    }
}
