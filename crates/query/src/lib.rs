//! # ariel-query
//!
//! The POSTQUEL-subset query language of the Ariel reproduction: lexer,
//! parser, semantic analysis, a cost-based optimizer, a materializing
//! executor, and the rule-action machinery the paper builds on top of it —
//! the `PnodeScan` operator, the primed `replace'`/`delete'` TID-directed
//! update commands, and query modification (§5.1–5.2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod binding;
pub mod display;
pub mod error;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod modify;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod semantic;

pub use ast::{
    BinOp, Command, EventKind, EventSpec, Expr, FromItem, Literal, RuleDef, Target, UnaryOp,
};
pub use binding::{BoundVar, Pnode, PnodeCol, Row};
pub use error::{QueryError, QueryResult};
pub use exec::{
    execute, execute_with_plan, plan_command, qualifying_rows, run_plan, Change, CmdOutput,
    ExecCtx, Notification,
};
pub use expr::{eval, eval_pred, Env, PatchedEnv, SingleEnv};
pub use modify::modify_action;
pub use optimizer::Optimizer;
pub use parser::{parse_command, parse_expr, parse_script};
pub use plan::{IndexKey, Plan};
pub use semantic::{
    infer_type, QuerySpec, RCommand, RExpr, ResolvedCondition, Resolver, VarBinding, VarSource,
};
