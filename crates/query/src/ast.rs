//! Abstract syntax for the POSTQUEL subset and the Ariel Rule Language.

use ariel_storage::{AttrType, IndexKind};
use std::fmt;

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal (`true` / `false`).
    Bool(bool),
}

/// Binary operators, in the paper's query syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

impl BinOp {
    /// True for the six comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Binding strength, loosest first: `or` 1, `and` 2, comparisons 3,
    /// `+ -` 4, `* /` 5. The parser and the printer share it; a prefix
    /// `not` takes a comparison-level operand, and unary `-` binds tighter
    /// than any binary operator.
    pub(crate) const fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div => 5,
        }
    }

    /// Mirror of a comparison: `a op b` == `b op.flip() a`.
    pub fn flip(&self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => *other,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation (`not`).
    Not,
    /// Arithmetic negation (`-`).
    Neg,
}

/// An (unresolved) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant.
    Literal(Literal),
    /// `var.attr`, or `previous var.attr` when `previous` is set (§2.3).
    Attr {
        /// Tuple-variable name.
        var: String,
        /// Attribute name.
        attr: String,
        /// True for `previous var.attr` (start-of-transition value).
        previous: bool,
    },
    /// `new(var)` — a selection condition that is always true (§2.1).
    New {
        /// Tuple-variable name.
        var: String,
    },
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
}

impl Expr {
    /// Conjoin two optional predicates.
    pub fn and(a: Option<Expr>, b: Option<Expr>) -> Option<Expr> {
        match (a, b) {
            (Some(a), Some(b)) => Some(Expr::Binary {
                op: BinOp::And,
                left: Box::new(a),
                right: Box::new(b),
            }),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Names of all tuple variables referenced (including `previous` and
    /// `new()` references), in first-appearance order.
    pub fn var_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Literal(_) => {}
            Expr::Attr { var, .. } | Expr::New { var } => {
                if !out.iter().any(|v| v == var) {
                    out.push(var.clone());
                }
            }
            Expr::Unary { expr, .. } => expr.collect_vars(out),
            Expr::Binary { left, right, .. } => {
                left.collect_vars(out);
                right.collect_vars(out);
            }
        }
    }

    /// Whether any sub-expression is a `previous` reference to `var`.
    pub fn has_previous_ref(&self, var: &str) -> bool {
        match self {
            Expr::Attr {
                var: v, previous, ..
            } => *previous && v == var,
            Expr::Unary { expr, .. } => expr.has_previous_ref(var),
            Expr::Binary { left, right, .. } => {
                left.has_previous_ref(var) || right.has_previous_ref(var)
            }
            _ => false,
        }
    }
}

/// `var in relation` entry of a from-list. Relation names double as default
/// tuple variables, so `emp.sal > 10` needs no from-list (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromItem {
    /// Tuple-variable name.
    pub var: String,
    /// Relation the variable ranges over.
    pub rel: String,
}

/// Result column of a `retrieve`.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// `name = expr` (name optional in the surface syntax; filled in).
    Expr {
        /// Result column name.
        name: String,
        /// Value expression.
        expr: Expr,
    },
    /// `var.all` — every attribute of the variable.
    All {
        /// Tuple-variable name.
        var: String,
    },
}

/// Event kinds for ON clauses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// `on append [to] rel`.
    Append,
    /// `on delete [from] rel`.
    Delete,
    /// `replace [to] rel [(attrs)]`: an optional target-list restricts the
    /// trigger to updates touching those attributes.
    Replace(Option<Vec<String>>),
}

/// An ON-clause event specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSpec {
    /// The event kind.
    pub kind: EventKind,
    /// The relation the event watches.
    pub relation: String,
}

/// An ARL rule definition (§2.1):
///
/// ```text
/// define rule rule-name [in ruleset-name] [priority priority-val]
///     [on event] [if condition] then action
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDef {
    /// Unique rule name.
    pub name: String,
    /// Optional ruleset (defaults to `default_rules`).
    pub ruleset: Option<String>,
    /// Optional priority (defaults to 0).
    pub priority: Option<f64>,
    /// Optional ON-clause event.
    pub on: Option<EventSpec>,
    /// The if-clause qualification.
    pub condition: Option<Expr>,
    /// Extra bindings from the condition's from-clause.
    pub cond_from: Vec<FromItem>,
    /// One or more commands (a `do … end` block is flattened here).
    pub action: Vec<Command>,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `create rel (attr = type, …)`
    CreateRelation {
        /// New relation name.
        name: String,
        /// Attribute definitions.
        attrs: Vec<(String, AttrType)>,
    },
    /// `destroy rel`
    DestroyRelation {
        /// Relation to destroy.
        name: String,
    },
    /// `define index on rel (attr) [using btree|hash]`
    CreateIndex {
        /// Indexed relation.
        rel: String,
        /// Indexed attribute.
        attr: String,
        /// Index structure.
        kind: IndexKind,
    },
    /// `append [to] rel (attr = expr, …) [from …] [where qual]`
    Append {
        /// Target relation.
        target: String,
        /// Attribute assignments; unassigned attributes become null.
        assignments: Vec<(String, Expr)>,
        /// Extra tuple-variable bindings.
        from: Vec<FromItem>,
        /// Qualification.
        qual: Option<Expr>,
    },
    /// `delete var [from …] [where qual]`
    Delete {
        /// Target tuple variable.
        var: String,
        /// Extra tuple-variable bindings.
        from: Vec<FromItem>,
        /// Qualification.
        qual: Option<Expr>,
    },
    /// `replace var (attr = expr, …) [from …] [where qual]`
    Replace {
        /// Target tuple variable.
        var: String,
        /// Attribute assignments.
        assignments: Vec<(String, Expr)>,
        /// Extra tuple-variable bindings.
        from: Vec<FromItem>,
        /// Qualification.
        qual: Option<Expr>,
    },
    /// `retrieve [into rel] (targets) [from …] [where qual]`
    Retrieve {
        /// Destination relation for `retrieve into`.
        into: Option<String>,
        /// Result columns.
        targets: Vec<Target>,
        /// Extra tuple-variable bindings.
        from: Vec<FromItem>,
        /// Qualification.
        qual: Option<Expr>,
    },
    /// `do cmd; cmd; … end` — one transition (§2.2.1).
    Block(Vec<Command>),
    /// `define rule …`
    DefineRule(RuleDef),
    /// `destroy rule name`
    DropRule {
        /// Rule to remove.
        name: String,
    },
    /// `activate rule name`.
    ActivateRule {
        /// Rule to activate.
        name: String,
    },
    /// `deactivate rule name`.
    DeactivateRule {
        /// Rule to deactivate.
        name: String,
    },
    /// `halt` — stop the recognize-act cycle (Fig. 1).
    Halt,
    /// `notify channel (name = expr, …) [from …] [where qual]` — emit an
    /// asynchronous notification instead of writing a relation. This
    /// implements §8's future-work item: "applications that can receive
    /// data from database triggers asynchronously (e.g. safety and
    /// integrity alert monitors, stock tickers)".
    Notify {
        /// Channel name the notification is delivered on.
        channel: String,
        /// Notification columns.
        targets: Vec<Target>,
        /// Extra tuple-variable bindings.
        from: Vec<FromItem>,
        /// Qualification.
        qual: Option<Expr>,
    },
    /// `replace'`: post-query-modification replace whose target tuples are
    /// located through TIDs stored in the P-node (§5.1). `pvar` names the
    /// shared tuple variable (a P-node column).
    ReplacePrimed {
        /// Shared tuple variable (a P-node column).
        pvar: String,
        /// Attribute assignments.
        assignments: Vec<(String, Expr)>,
        /// Extra tuple-variable bindings.
        from: Vec<FromItem>,
        /// Qualification.
        qual: Option<Expr>,
    },
    /// `delete'`: TID-directed delete through the P-node (§5.1).
    DeletePrimed {
        /// Shared tuple variable (a P-node column).
        pvar: String,
        /// Extra tuple-variable bindings.
        from: Vec<FromItem>,
        /// Qualification.
        qual: Option<Expr>,
    },
}

impl Command {
    /// Short command name for error messages and logs.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Command::CreateRelation { .. } => "create",
            Command::DestroyRelation { .. } => "destroy",
            Command::CreateIndex { .. } => "define index",
            Command::Append { .. } => "append",
            Command::Delete { .. } => "delete",
            Command::Replace { .. } => "replace",
            Command::Retrieve { .. } => "retrieve",
            Command::Block(_) => "do-block",
            Command::DefineRule(_) => "define rule",
            Command::DropRule { .. } => "destroy rule",
            Command::ActivateRule { .. } => "activate rule",
            Command::DeactivateRule { .. } => "deactivate rule",
            Command::Halt => "halt",
            Command::Notify { .. } => "notify",
            Command::ReplacePrimed { .. } => "replace'",
            Command::DeletePrimed { .. } => "delete'",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(var: &str, attr: &str) -> Expr {
        Expr::Attr {
            var: var.into(),
            attr: attr.into(),
            previous: false,
        }
    }

    #[test]
    fn and_combinator() {
        assert_eq!(Expr::and(None, None), None);
        let a = attr("e", "x");
        assert_eq!(Expr::and(Some(a.clone()), None), Some(a.clone()));
        let combined = Expr::and(Some(a.clone()), Some(a.clone())).unwrap();
        assert!(matches!(combined, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn var_names_deduped_in_order() {
        let e = Expr::Binary {
            op: BinOp::And,
            left: Box::new(Expr::Binary {
                op: BinOp::Eq,
                left: Box::new(attr("emp", "dno")),
                right: Box::new(attr("dept", "dno")),
            }),
            right: Box::new(attr("emp", "sal")),
        };
        assert_eq!(e.var_names(), vec!["emp".to_string(), "dept".to_string()]);
    }

    #[test]
    fn previous_ref_detection() {
        let e = Expr::Binary {
            op: BinOp::Gt,
            left: Box::new(attr("emp", "sal")),
            right: Box::new(Expr::Attr {
                var: "emp".into(),
                attr: "sal".into(),
                previous: true,
            }),
        };
        assert!(e.has_previous_ref("emp"));
        assert!(!e.has_previous_ref("dept"));
    }

    #[test]
    fn comparison_flip() {
        assert_eq!(BinOp::Lt.flip(), BinOp::Gt);
        assert_eq!(BinOp::Ge.flip(), BinOp::Le);
        assert_eq!(BinOp::Eq.flip(), BinOp::Eq);
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}
