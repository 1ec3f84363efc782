//! Evaluation of resolved expressions.
//!
//! Null handling: `Null` propagates through arithmetic; comparisons
//! involving `Null` are false; `and`/`or` treat `Null` as false. This is a
//! deliberate two-valued simplification of SQL's three-valued logic — the
//! paper's language predates SQL NULL subtleties and its examples never rely
//! on them.

use crate::ast::{BinOp, UnaryOp};
use crate::binding::Row;
use crate::error::{QueryError, QueryResult};
use crate::semantic::RExpr;
use ariel_storage::{Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// How an expression reads variable bindings during evaluation.
pub trait Env {
    /// Current tuple bound to variable `var`.
    fn current(&self, var: usize) -> QueryResult<&Tuple>;
    /// Previous (start-of-transition) tuple bound to `var`, if tracked.
    fn previous(&self, var: usize) -> QueryResult<&Tuple>;
}

impl Env for Row {
    fn current(&self, var: usize) -> QueryResult<&Tuple> {
        self.bound(var)
            .map(|b| &b.tuple)
            .ok_or_else(|| QueryError::Eval(format!("variable #{var} is unbound")))
    }

    fn previous(&self, var: usize) -> QueryResult<&Tuple> {
        let b = self
            .bound(var)
            .ok_or_else(|| QueryError::Eval(format!("variable #{var} is unbound")))?;
        b.prev
            .as_ref()
            .ok_or_else(|| QueryError::Eval(format!("variable #{var} has no previous value")))
    }
}

/// Environment over a single tuple: every variable index resolves to the
/// same `(tuple, prev)` pair. Used by the discrimination network to test
/// single-relation selection predicates against in-flight tokens.
pub struct SingleEnv<'a> {
    /// Current tuple value.
    pub tuple: &'a Tuple,
    /// Start-of-transition value, if available.
    pub prev: Option<&'a Tuple>,
}

impl Env for SingleEnv<'_> {
    fn current(&self, _var: usize) -> QueryResult<&Tuple> {
        Ok(self.tuple)
    }

    fn previous(&self, _var: usize) -> QueryResult<&Tuple> {
        self.prev
            .ok_or_else(|| QueryError::Eval("no previous value available".into()))
    }
}

/// Environment layering one *borrowed* candidate binding over a base
/// [`Row`]: variable `var` resolves to `(tuple, prev)`, every other
/// variable falls through to the base row. The discrimination network's
/// streaming join uses this to test join conjuncts against each candidate
/// *before* committing it to the row, so losing candidates are never
/// cloned.
pub struct PatchedEnv<'a> {
    /// Partially-bound row providing every other variable.
    pub base: &'a Row,
    /// Variable index the overlay binds.
    pub var: usize,
    /// Candidate tuple for `var`.
    pub tuple: &'a Tuple,
    /// Candidate's start-of-transition value, if any.
    pub prev: Option<&'a Tuple>,
}

impl Env for PatchedEnv<'_> {
    fn current(&self, var: usize) -> QueryResult<&Tuple> {
        if var == self.var {
            Ok(self.tuple)
        } else {
            self.base.current(var)
        }
    }

    fn previous(&self, var: usize) -> QueryResult<&Tuple> {
        if var == self.var {
            self.prev
                .ok_or_else(|| QueryError::Eval(format!("variable #{var} has no previous value")))
        } else {
            self.base.previous(var)
        }
    }
}

/// Evaluate an expression to a value.
pub fn eval(e: &RExpr, env: &dyn Env) -> QueryResult<Value> {
    match e {
        RExpr::Const(v) => Ok(v.clone()),
        RExpr::AlwaysTrue => Ok(Value::Bool(true)),
        RExpr::Attr { var, attr } => Ok(env.current(*var)?.get(*attr).clone()),
        RExpr::Prev { var, attr } => Ok(env.previous(*var)?.get(*attr).clone()),
        RExpr::Unary { op, expr } => {
            let v = eval(expr, env)?;
            match op {
                UnaryOp::Not => Ok(Value::Bool(!truthy(&v))),
                UnaryOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    Value::Null => Ok(Value::Null),
                    other => Err(QueryError::Eval(format!(
                        "cannot negate {}",
                        other.type_name()
                    ))),
                },
            }
        }
        RExpr::Binary { op, left, right } => {
            // short-circuit logical operators
            match op {
                BinOp::And => {
                    if !truthy(&eval(left, env)?) {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(truthy(&eval(right, env)?)));
                }
                BinOp::Or => {
                    if truthy(&eval(left, env)?) {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(truthy(&eval(right, env)?)));
                }
                _ => {}
            }
            let l = eval(left, env)?;
            let r = eval(right, env)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(*op, l, r),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
                _ => Ok(Value::Bool(compare(*op, &l, &r))),
            }
        }
    }
}

/// Evaluate a predicate: `Null` and non-boolean falsy values are false.
///
/// Equal to `truthy(eval(e))`, errors included, without building the
/// values it only compares: `and`/`or`/`not` work on `bool`s, and a
/// comparison reads a constant, attribute or `previous` operand in place
/// instead of cloning it (a string is then never copied to be compared).
pub fn eval_pred(e: &RExpr, env: &dyn Env) -> QueryResult<bool> {
    match e {
        RExpr::Binary { op, left, right } => match op {
            BinOp::And => Ok(eval_pred(left, env)? && eval_pred(right, env)?),
            BinOp::Or => Ok(eval_pred(left, env)? || eval_pred(right, env)?),
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => Ok(truthy(&eval(e, env)?)),
            _ => {
                let l = operand(left, env)?;
                let r = operand(right, env)?;
                Ok(compare(*op, &l, &r))
            }
        },
        RExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => Ok(!eval_pred(expr, env)?),
        _ => Ok(truthy(&eval(e, env)?)),
    }
}

/// A comparison operand: borrowed where the expression names a value
/// (a constant, an attribute, a `previous` attribute), computed otherwise.
fn operand<'a>(e: &'a RExpr, env: &'a dyn Env) -> QueryResult<Cow<'a, Value>> {
    Ok(match e {
        RExpr::Const(v) => Cow::Borrowed(v),
        RExpr::Attr { var, attr } => Cow::Borrowed(env.current(*var)?.get(*attr)),
        RExpr::Prev { var, attr } => Cow::Borrowed(env.previous(*var)?.get(*attr)),
        _ => Cow::Owned(eval(e, env)?),
    })
}

/// Predicate truthiness: only `Bool(true)` is true.
fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// One of the six comparisons: false when either side is `Null`.
fn compare(op: BinOp, l: &Value, r: &Value) -> bool {
    if l.is_null() || r.is_null() {
        return false;
    }
    let o = l.total_cmp(r);
    match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::Ne => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::Le => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::Ge => o != Ordering::Less,
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

fn arith(op: BinOp, l: Value, r: Value) -> QueryResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            match op {
                BinOp::Add => Ok(Value::Int(a.wrapping_add(b))),
                BinOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
                BinOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
                BinOp::Div => {
                    if b == 0 {
                        Err(QueryError::Eval("integer division by zero".into()))
                    } else {
                        Ok(Value::Int(a / b))
                    }
                }
                _ => unreachable!(),
            }
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(QueryError::Eval(format!(
                    "arithmetic on {} and {}",
                    l.type_name(),
                    r.type_name()
                )));
            };
            let x = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => unreachable!(),
            };
            Ok(Value::Float(x))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::BoundVar;
    use ariel_storage::Tid;

    fn env_one(vals: Vec<Value>, prev: Option<Vec<Value>>) -> Row {
        let tuple = Tuple::new(vals);
        let bv = match prev {
            Some(p) => BoundVar::with_prev(Some(Tid(0)), tuple, Tuple::new(p)),
            None => BoundVar::plain(Tid(0), tuple),
        };
        Row {
            slots: vec![Some(bv)],
        }
    }

    fn attr(a: usize) -> RExpr {
        RExpr::Attr { var: 0, attr: a }
    }

    fn lit(v: impl Into<Value>) -> RExpr {
        RExpr::Const(v.into())
    }

    fn bin(op: BinOp, l: RExpr, r: RExpr) -> RExpr {
        RExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_int_and_float() {
        let row = env_one(vec![Value::Int(10), Value::Float(2.5)], None);
        assert_eq!(
            eval(&bin(BinOp::Add, attr(0), lit(5i64)), &row).unwrap(),
            Value::Int(15)
        );
        assert_eq!(
            eval(&bin(BinOp::Mul, attr(0), attr(1)), &row).unwrap(),
            Value::Float(25.0)
        );
        assert_eq!(
            eval(&bin(BinOp::Div, lit(7i64), lit(2i64)), &row).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn division_by_zero_errors() {
        let row = env_one(vec![], None);
        assert!(eval(&bin(BinOp::Div, lit(1i64), lit(0i64)), &row).is_err());
        // float division by zero yields inf, not an error
        assert_eq!(
            eval(&bin(BinOp::Div, lit(1.0), lit(0.0)), &row).unwrap(),
            Value::Float(f64::INFINITY)
        );
    }

    #[test]
    fn comparisons() {
        let row = env_one(vec![Value::Int(10)], None);
        assert!(eval_pred(&bin(BinOp::Gt, attr(0), lit(5i64)), &row).unwrap());
        assert!(eval_pred(&bin(BinOp::Le, attr(0), lit(10i64)), &row).unwrap());
        assert!(!eval_pred(&bin(BinOp::Ne, attr(0), lit(10i64)), &row).unwrap());
        assert!(eval_pred(&bin(BinOp::Eq, lit("a"), lit("a")), &row).unwrap());
    }

    #[test]
    fn null_comparisons_false_null_arith_propagates() {
        let row = env_one(vec![Value::Null], None);
        assert!(!eval_pred(&bin(BinOp::Eq, attr(0), lit(1i64)), &row).unwrap());
        assert!(!eval_pred(&bin(BinOp::Ne, attr(0), lit(1i64)), &row).unwrap());
        assert!(!eval_pred(&bin(BinOp::Lt, attr(0), lit(1i64)), &row).unwrap());
        assert_eq!(
            eval(&bin(BinOp::Add, attr(0), lit(1i64)), &row).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn logical_short_circuit() {
        let row = env_one(vec![Value::Int(1)], None);
        // right side would error (div by zero) but is never evaluated
        let e = bin(
            BinOp::And,
            bin(BinOp::Eq, attr(0), lit(2i64)),
            bin(BinOp::Eq, bin(BinOp::Div, lit(1i64), lit(0i64)), lit(1i64)),
        );
        assert!(!eval_pred(&e, &row).unwrap());
        let e = bin(
            BinOp::Or,
            bin(BinOp::Eq, attr(0), lit(1i64)),
            bin(BinOp::Eq, bin(BinOp::Div, lit(1i64), lit(0i64)), lit(1i64)),
        );
        assert!(eval_pred(&e, &row).unwrap());
    }

    #[test]
    fn previous_references() {
        let row = env_one(vec![Value::Float(110.0)], Some(vec![Value::Float(100.0)]));
        // emp.sal > 1.05 * previous emp.sal
        let e = bin(
            BinOp::Gt,
            attr(0),
            bin(BinOp::Mul, lit(1.05), RExpr::Prev { var: 0, attr: 0 }),
        );
        assert!(eval_pred(&e, &row).unwrap());
    }

    #[test]
    fn previous_without_history_errors() {
        let row = env_one(vec![Value::Int(1)], None);
        assert!(eval(&RExpr::Prev { var: 0, attr: 0 }, &row).is_err());
    }

    #[test]
    fn unbound_variable_errors() {
        let row = Row::unbound(2);
        assert!(eval(&attr(0), &row).is_err());
    }

    #[test]
    fn single_env() {
        let t = Tuple::new(vec![Value::Int(42)]);
        let p = Tuple::new(vec![Value::Int(41)]);
        let env = SingleEnv {
            tuple: &t,
            prev: Some(&p),
        };
        assert_eq!(eval(&attr(0), &env).unwrap(), Value::Int(42));
        assert_eq!(
            eval(&RExpr::Prev { var: 7, attr: 0 }, &env).unwrap(),
            Value::Int(41)
        );
        let env2 = SingleEnv {
            tuple: &t,
            prev: None,
        };
        assert!(eval(&RExpr::Prev { var: 0, attr: 0 }, &env2).is_err());
    }

    #[test]
    fn not_and_neg() {
        let row = env_one(vec![Value::Int(5)], None);
        let e = RExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(bin(BinOp::Gt, attr(0), lit(10i64))),
        };
        assert!(eval_pred(&e, &row).unwrap());
        let e = RExpr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(attr(0)),
        };
        assert_eq!(eval(&e, &row).unwrap(), Value::Int(-5));
        let e = RExpr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(lit("s")),
        };
        assert!(eval(&e, &row).is_err());
    }

    /// `eval_pred` against `truthy(eval(..))` over a table of
    /// predicates: the same answer, and the same error when either fails.
    #[test]
    fn eval_pred_equals_truthy_eval() {
        let mut sym = Value::from("toys");
        sym.intern_in_place();
        // attributes: 0 Int 10, 1 Float 10.0, 2 Null, 3 Str "toys",
        // 4 Sym "toys", 5 Int 0, 6 Bool true; previous: Int 9 everywhere
        let row = env_one(
            vec![
                Value::Int(10),
                Value::Float(10.0),
                Value::Null,
                Value::from("toys"),
                sym,
                Value::Int(0),
                Value::Bool(true),
            ],
            Some(vec![Value::Int(9); 7]),
        );
        let prev = |a| RExpr::Prev { var: 0, attr: a };
        let not = |e| RExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(e),
        };
        let neg = |e| RExpr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(e),
        };
        let div0 = || bin(BinOp::Div, attr(0), attr(5));
        let cmps = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        let operands = || {
            vec![
                attr(0),
                attr(1),
                attr(2),
                attr(3),
                attr(4),
                lit(10i64),
                lit(9.5),
                lit(Value::Null),
                lit("toys"),
                lit("zoo"),
                prev(0),
                bin(BinOp::Add, attr(0), lit(1.5)),
                bin(BinOp::Mul, attr(2), lit(3i64)),
                neg(attr(0)),
                div0(),
                bin(BinOp::Div, attr(1), attr(5)),
                bin(BinOp::Sub, attr(3), lit(1i64)),
            ]
        };
        let mut table = Vec::new();
        for op in cmps {
            for l in operands() {
                for r in operands() {
                    table.push(bin(op, l.clone(), r));
                }
            }
        }
        for e in operands() {
            table.push(e.clone());
            table.push(not(e));
        }
        let t = || bin(BinOp::Eq, attr(3), attr(4));
        let f = || bin(BinOp::Lt, attr(0), prev(0));
        let err = || bin(BinOp::Gt, div0(), lit(1i64));
        for (a, b) in [(t(), f()), (f(), err()), (t(), err()), (err(), t())] {
            for op in [BinOp::And, BinOp::Or] {
                table.push(bin(op, a.clone(), b.clone()));
                table.push(not(bin(op, b.clone(), a.clone())));
                table.push(bin(
                    op,
                    bin(BinOp::Or, a.clone(), f()),
                    bin(op, t(), b.clone()),
                ));
            }
        }
        table.push(attr(6));
        table.push(not(attr(6)));
        table.push(RExpr::AlwaysTrue);
        table.push(bin(BinOp::And, attr(6), lit(1i64)));
        assert!(table.len() > 1_000);
        for e in &table {
            let want = eval(e, &row).map(|v| truthy(&v));
            assert_eq!(eval_pred(e, &row), want, "{e:?}");
        }
    }

    #[test]
    fn always_true() {
        let row = Row::unbound(0);
        assert!(eval_pred(&RExpr::AlwaysTrue, &row).unwrap());
    }
}
