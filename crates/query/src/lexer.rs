//! Lexer for the POSTQUEL subset + ARL rule language.
//!
//! Keywords follow the paper's examples: `define rule … on … if … then`,
//! `append to`, `replace`, `delete`, `retrieve`, `do … end`, `previous`,
//! `new`, `from`, `where`, `in`, `priority`, plus DDL (`create`, `destroy`,
//! `index`, `using`). Identifiers are case-insensitive for keywords but
//! preserved verbatim otherwise.
//!
//! Tokens borrow from the source: a word is a slice of it, and a string
//! literal is too unless it has an escape to decode. Lexing a command
//! allocates the token buffer and nothing else; the parser copies only
//! what the AST keeps.

use crate::error::{QueryError, QueryResult};
use std::borrow::Cow;
use std::fmt;

/// A lexical token with its source byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'src> {
    /// Token kind.
    pub kind: TokenKind<'src>,
    /// Byte offset in the source text.
    pub pos: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'src> {
    /// Identifier or keyword.
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes stripped, escapes decoded).
    Str(Cow<'src, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    StarTok,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(i) => write!(f, "{i}"),
            TokenKind::Float(x) => write!(f, "{x}"),
            TokenKind::Str(s) => write!(f, "\"{s}\""),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Ne => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::StarTok => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

fn lex_err<T>(pos: usize, msg: impl Into<String>) -> QueryResult<T> {
    Err(QueryError::Lex {
        pos,
        msg: msg.into(),
    })
}

/// Tokenize a command string.
pub fn lex(src: &str) -> QueryResult<Vec<Token<'_>>> {
    let bytes = src.as_bytes();
    // spaced command text averages well over two bytes a token, so the
    // buffer is allocated once; denser text grows it
    let mut out = Vec::with_capacity(bytes.len() / 2 + 1);
    let mut i = 0usize;
    while i < bytes.len() {
        let pos = i;
        let next = bytes.get(i + 1).copied();
        let (kind, len) = match bytes[i] {
            c if (c as char).is_whitespace() => {
                i += 1;
                continue;
            }
            b'#' => {
                // comment to end of line
                i += bytes[i..].iter().take_while(|&&b| b != b'\n').count();
                continue;
            }
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b',' => (TokenKind::Comma, 1),
            b'.' => (TokenKind::Dot, 1),
            b';' => (TokenKind::Semicolon, 1),
            b'=' => (TokenKind::Eq, 1),
            b'+' => (TokenKind::Plus, 1),
            b'-' => (TokenKind::Minus, 1),
            b'*' => (TokenKind::StarTok, 1),
            b'/' => (TokenKind::Slash, 1),
            b'!' if next == Some(b'=') => (TokenKind::Ne, 2),
            b'!' => return lex_err(pos, "expected `=` after `!`"),
            b'<' if next == Some(b'=') => (TokenKind::Le, 2),
            b'<' if next == Some(b'>') => (TokenKind::Ne, 2),
            b'<' => (TokenKind::Lt, 1),
            b'>' if next == Some(b'=') => (TokenKind::Ge, 2),
            b'>' => (TokenKind::Gt, 1),
            b'"' | b'\'' => {
                let (text, end) = string_literal(src, pos)?;
                (TokenKind::Str(text), end - pos)
            }
            c if c.is_ascii_digit() => {
                let (kind, end) = number(src, pos)?;
                (kind, end - pos)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let len = bytes[i..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                    .count();
                (TokenKind::Ident(&src[pos..pos + len]), len)
            }
            other => {
                // non-ASCII bytes outside string literals are rejected with
                // a structured error (never sliced mid-character)
                return lex_err(
                    pos,
                    if other.is_ascii() {
                        format!("unexpected character `{}`", other as char)
                    } else {
                        format!("unexpected non-ascii byte 0x{other:02x}")
                    },
                );
            }
        };
        out.push(Token { kind, pos });
        i += len;
    }
    out.push(Token {
        kind: TokenKind::Eof,
        pos: bytes.len(),
    });
    Ok(out)
}

/// The string literal whose opening quote is at `pos`, and the offset past
/// its closing quote. Escape sequences (`\"`, `\'`, `\\`, `\n`, `\t`) are
/// decoded here and re-encoded by the display layer, so command texts
/// round-trip through the WAL (see `docs/DURABILITY.md`); a literal without
/// one stays a slice of the source.
fn string_literal(src: &str, pos: usize) -> QueryResult<(Cow<'_, str>, usize)> {
    let bytes = src.as_bytes();
    let quote = bytes[pos];
    let unterminated = || lex_err(pos, "unterminated string literal");
    // find the closing quote, checking each escape on the way
    let (mut end, mut escaped) = (pos + 1, false);
    loop {
        match bytes.get(end) {
            None => return unterminated(),
            Some(&b) if b == quote => break,
            Some(b'\\') => {
                match bytes.get(end + 1) {
                    None => return unterminated(),
                    Some(b'\\' | b'"' | b'\'' | b'n' | b't') => {}
                    Some(&other) => {
                        return lex_err(
                            end,
                            if other.is_ascii() && !other.is_ascii_control() {
                                format!("unknown escape `\\{}`", other as char)
                            } else {
                                format!("unknown escape `\\x{other:02x}`")
                            },
                        )
                    }
                }
                escaped = true;
                end += 2;
            }
            Some(_) => end += 1,
        }
    }
    let body = &src[pos + 1..end];
    if !escaped {
        return Ok((Cow::Borrowed(body), end + 1));
    }
    let mut text = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        text.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                // `\\`, `\"` and `\'` stand for themselves
                escaped => escaped.unwrap_or('\\'),
            },
            c => c,
        });
    }
    Ok((Cow::Owned(text), end + 1))
}

/// The numeric literal starting at `pos`, and the offset past it.
fn number(src: &str, pos: usize) -> QueryResult<(TokenKind<'_>, usize)> {
    let bytes = src.as_bytes();
    let digits = |from: usize| {
        from + bytes[from..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count()
    };
    let is_digit = |at: usize| bytes.get(at).is_some_and(u8::is_ascii_digit);
    let mut end = digits(pos);
    let mut is_float = false;
    // fractional part: `.` followed by a digit (so `5.attr` lexes as Int
    // Dot Ident, not a malformed float)
    if bytes.get(end) == Some(&b'.') && is_digit(end + 1) {
        is_float = true;
        end = digits(end + 1);
    }
    // exponent
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let j = end + 1 + usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
        if is_digit(j) {
            is_float = true;
            end = digits(j);
        }
    }
    let text = &src[pos..end];
    let kind = if is_float {
        match text.parse() {
            Ok(x) => TokenKind::Float(x),
            Err(_) => return lex_err(pos, format!("bad float literal `{text}`")),
        }
    } else {
        match text.parse() {
            Ok(n) => TokenKind::Int(n),
            Err(_) => return lex_err(pos, format!("bad integer literal `{text}`")),
        }
    };
    Ok((kind, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn punctuation_and_operators() {
        assert_eq!(
            kinds("( ) , . ; = != < <= > >= + - * / <>"),
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::Dot,
                TokenKind::Semicolon,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::StarTok,
                TokenKind::Slash,
                TokenKind::Ne,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 1.5 2e3 1.5e-2"),
            vec![
                TokenKind::Int(42),
                TokenKind::Float(1.5),
                TokenKind::Float(2000.0),
                TokenKind::Float(0.015),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn dotted_attr_not_a_float() {
        assert_eq!(
            kinds("emp.sal"),
            vec![
                TokenKind::Ident("emp"),
                TokenKind::Dot,
                TokenKind::Ident("sal"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_both_quotes() {
        assert_eq!(
            kinds(r#""Bob" 'Toy'"#),
            vec![
                TokenKind::Str("Bob".into()),
                TokenKind::Str("Toy".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(lex("\"oops"), Err(QueryError::Lex { .. })));
        // a trailing backslash can't hide the missing close quote
        assert!(matches!(lex("\"oops\\"), Err(QueryError::Lex { .. })));
        assert!(matches!(lex("\"oops\\\""), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            kinds(r#""a\"b" "c\\d" "e\nf" "g\th" 'i\'j'"#),
            vec![
                TokenKind::Str("a\"b".into()),
                TokenKind::Str("c\\d".into()),
                TokenKind::Str("e\nf".into()),
                TokenKind::Str("g\th".into()),
                TokenKind::Str("i'j".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unknown_escape_is_a_structured_error() {
        let err = lex(r#""a\qb""#).unwrap_err();
        match err {
            QueryError::Lex { pos, msg } => {
                assert_eq!(pos, 2, "error points at the backslash");
                assert!(msg.contains("\\q"), "{msg}");
            }
            other => panic!("expected Lex error, got {other:?}"),
        }
    }

    #[test]
    fn escaped_quote_of_the_other_kind_is_literal() {
        // inside a double-quoted string, `\'` decodes to a plain quote
        assert_eq!(
            kinds(r#""a\'b""#),
            vec![TokenKind::Str("a'b".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a # comment\n b"),
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof,]
        );
    }

    #[test]
    fn bang_without_eq_errors() {
        assert!(matches!(lex("!x"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(matches!(lex("@"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn unicode_inside_string_literals_ok() {
        let toks = lex("\"héllo wörld 你好\"").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Str("héllo wörld 你好".into()));
    }

    #[test]
    fn unicode_outside_strings_is_a_structured_error() {
        // never panics, never slices mid-character
        assert!(matches!(lex("héllo"), Err(QueryError::Lex { .. })));
        assert!(matches!(lex("你好"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn rule_snippet_lexes() {
        let toks = kinds("define rule NoBobs on append emp if emp.name = \"Bob\" then delete emp");
        assert_eq!(toks.len(), 16);
        assert_eq!(toks[0], TokenKind::Ident("define"));
    }
}
