//! Semantic analysis: resolve tuple variables and attribute references,
//! light type checking, and production of resolved command forms for the
//! planner.

use crate::ast::{BinOp, Command, EventKind, EventSpec, Expr, FromItem, Literal, Target, UnaryOp};
use crate::binding::Pnode;
use crate::error::{QueryError, QueryResult};
use ariel_storage::{AttrType, Catalog, SchemaRef, Value};

/// A resolved (index-based) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// Constant value.
    Const(Value),
    /// Current value of `vars[var].attr`.
    Attr {
        /// Variable index.
        var: usize,
        /// Attribute position.
        attr: usize,
    },
    /// Previous (start-of-transition) value of `vars[var].attr`.
    Prev {
        /// Variable index.
        var: usize,
        /// Attribute position.
        attr: usize,
    },
    /// `new(var)` — always true.
    AlwaysTrue,
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<RExpr>,
    },
    /// Binary operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<RExpr>,
        /// Right operand.
        right: Box<RExpr>,
    },
}

impl RExpr {
    /// Indices of all variables referenced, ascending and deduplicated.
    pub fn vars_used(&self) -> Vec<usize> {
        let mut v = Vec::new();
        self.collect_vars(&mut v);
        v.sort_unstable();
        v.dedup();
        v
    }

    fn collect_vars(&self, out: &mut Vec<usize>) {
        match self {
            RExpr::Const(_) | RExpr::AlwaysTrue => {}
            RExpr::Attr { var, .. } | RExpr::Prev { var, .. } => out.push(*var),
            RExpr::Unary { expr, .. } => expr.collect_vars(out),
            RExpr::Binary { left, right, .. } => {
                left.collect_vars(out);
                right.collect_vars(out);
            }
        }
    }

    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(self) -> Vec<RExpr> {
        match self {
            RExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuild a conjunction from conjuncts; `None` if empty.
    pub fn conjoin(parts: Vec<RExpr>) -> Option<RExpr> {
        parts.into_iter().reduce(|a, b| RExpr::Binary {
            op: BinOp::And,
            left: Box::new(a),
            right: Box::new(b),
        })
    }

    /// Whether any sub-expression is a `Prev` reference to `var`.
    pub fn has_prev_ref(&self, var: usize) -> bool {
        match self {
            RExpr::Prev { var: v, .. } => *v == var,
            RExpr::Unary { expr, .. } => expr.has_prev_ref(var),
            RExpr::Binary { left, right, .. } => left.has_prev_ref(var) || right.has_prev_ref(var),
            _ => false,
        }
    }

    /// Rewrite variable indices through a mapping (used when extracting
    /// single-variable predicates for α-memory nodes).
    pub fn remap_vars(&self, map: &dyn Fn(usize) -> usize) -> RExpr {
        match self {
            RExpr::Const(v) => RExpr::Const(v.clone()),
            RExpr::AlwaysTrue => RExpr::AlwaysTrue,
            RExpr::Attr { var, attr } => RExpr::Attr {
                var: map(*var),
                attr: *attr,
            },
            RExpr::Prev { var, attr } => RExpr::Prev {
                var: map(*var),
                attr: *attr,
            },
            RExpr::Unary { op, expr } => RExpr::Unary {
                op: *op,
                expr: Box::new(expr.remap_vars(map)),
            },
            RExpr::Binary { op, left, right } => RExpr::Binary {
                op: *op,
                left: Box::new(left.remap_vars(map)),
                right: Box::new(right.remap_vars(map)),
            },
        }
    }
}

/// Static type of a resolved expression over the given variables, where
/// inferable (`None` for `Null` constants and mixed-unknown arithmetic).
pub fn infer_type(e: &RExpr, vars: &[VarBinding]) -> Option<AttrType> {
    match e {
        RExpr::Const(Value::Int(_)) => Some(AttrType::Int),
        RExpr::Const(Value::Float(_)) => Some(AttrType::Float),
        RExpr::Const(Value::Str(_) | Value::Sym(_)) => Some(AttrType::Str),
        RExpr::Const(Value::Bool(_)) => Some(AttrType::Bool),
        RExpr::Const(Value::Null) => None,
        RExpr::AlwaysTrue => Some(AttrType::Bool),
        RExpr::Attr { var, attr } | RExpr::Prev { var, attr } => {
            Some(vars[*var].schema.attr(*attr).ty)
        }
        RExpr::Unary {
            op: UnaryOp::Not, ..
        } => Some(AttrType::Bool),
        RExpr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => infer_type(expr, vars),
        RExpr::Binary { op, left, right } => {
            if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                Some(AttrType::Bool)
            } else {
                // arithmetic: float if either side is float
                match (infer_type(left, vars), infer_type(right, vars)) {
                    (Some(AttrType::Float), _) | (_, Some(AttrType::Float)) => {
                        Some(AttrType::Float)
                    }
                    (Some(AttrType::Int), Some(AttrType::Int)) => Some(AttrType::Int),
                    _ => None,
                }
            }
        }
    }
}

/// Where a resolved tuple variable gets its bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarSource {
    /// A scan of the base relation.
    Relation,
    /// Column `col` of the rule's P-node (shared variable in a rule action).
    Pnode {
        /// P-node column index.
        col: usize,
    },
}

/// A resolved tuple variable.
#[derive(Debug, Clone)]
pub struct VarBinding {
    /// Variable name as written.
    pub name: String,
    /// Base relation name (for P-node variables: the relation the bound
    /// tuples live in, used by `replace'`/`delete'`).
    pub rel: String,
    /// Schema of the bound tuples.
    pub schema: SchemaRef,
    /// Binding source.
    pub source: VarSource,
}

/// Variables + qualification of a resolved query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Tuple variables in scope, in binding order.
    pub vars: Vec<VarBinding>,
    /// The resolved qualification.
    pub qual: Option<RExpr>,
}

impl QuerySpec {
    /// Index of a variable by name.
    pub fn var_of(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.name == name)
    }
}

/// A resolved data-manipulation command, ready for planning.
#[derive(Debug, Clone)]
pub enum RCommand {
    /// Resolved `append`.
    Append {
        /// Target relation name.
        target: String,
        /// Target relation schema.
        target_schema: SchemaRef,
        /// (attribute position in target, value expression)
        assignments: Vec<(usize, RExpr)>,
        /// Qualification variables and predicate.
        spec: QuerySpec,
    },
    /// Resolved `delete`.
    Delete {
        /// Index of the target variable in `spec.vars`.
        var: usize,
        /// Qualification variables and predicate.
        spec: QuerySpec,
    },
    /// Resolved `replace`.
    Replace {
        /// Index of the target variable in `spec.vars`.
        var: usize,
        /// (attribute position, value expression) pairs.
        assignments: Vec<(usize, RExpr)>,
        /// Qualification variables and predicate.
        spec: QuerySpec,
    },
    /// Resolved `retrieve`.
    Retrieve {
        /// Destination relation for `retrieve into`.
        into: Option<String>,
        /// (column name, value expression) pairs.
        targets: Vec<(String, RExpr)>,
        /// Qualification variables and predicate.
        spec: QuerySpec,
    },
    /// Resolved `notify`: like a retrieve, but rows become an asynchronous
    /// notification instead of a result set.
    Notify {
        /// Channel name.
        channel: String,
        /// (column name, value expression) pairs.
        targets: Vec<(String, RExpr)>,
        /// Qualification variables and predicate.
        spec: QuerySpec,
    },
    /// TID-directed delete through a P-node column (§5.1).
    DeletePrimed {
        /// Index of the P-node target variable in `spec.vars`.
        pvar: usize,
        /// Qualification variables and predicate.
        spec: QuerySpec,
    },
    /// TID-directed replace through a P-node column (§5.1).
    ReplacePrimed {
        /// Index of the P-node target variable in `spec.vars`.
        pvar: usize,
        /// (attribute position, value expression) pairs.
        assignments: Vec<(usize, RExpr)>,
        /// Qualification variables and predicate.
        spec: QuerySpec,
    },
}

impl RCommand {
    /// The query spec of this command.
    pub fn spec(&self) -> &QuerySpec {
        match self {
            RCommand::Append { spec, .. }
            | RCommand::Delete { spec, .. }
            | RCommand::Replace { spec, .. }
            | RCommand::Retrieve { spec, .. }
            | RCommand::Notify { spec, .. }
            | RCommand::DeletePrimed { spec, .. }
            | RCommand::ReplacePrimed { spec, .. } => spec,
        }
    }
}

/// A resolved rule condition: the query spec plus the event / transition
/// classification of each variable (§4.3.2).
#[derive(Debug, Clone)]
pub struct ResolvedCondition {
    /// The condition's variables and qualification.
    pub spec: QuerySpec,
    /// Variable bound by the ON clause, if any.
    pub on_var: Option<usize>,
    /// The ON event kind, if any.
    pub event: Option<EventKind>,
    /// Variables with `previous` references (transition conditions).
    pub trans_vars: Vec<usize>,
}

/// Name resolver over a catalog, optionally inside a rule-action P-node
/// context.
pub struct Resolver<'a> {
    catalog: &'a Catalog,
    pnode: Option<&'a Pnode>,
}

struct Scope {
    vars: Vec<VarBinding>,
}

impl Scope {
    fn lookup(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.name == name)
    }
}

impl<'a> Resolver<'a> {
    /// Resolver for top-level commands.
    pub fn new(catalog: &'a Catalog) -> Self {
        Resolver {
            catalog,
            pnode: None,
        }
    }

    /// Resolver for rule-action commands: shared variables resolve to
    /// columns of `pnode`.
    pub fn with_pnode(catalog: &'a Catalog, pnode: &'a Pnode) -> Self {
        Resolver {
            catalog,
            pnode: Some(pnode),
        }
    }

    fn bind_var(&self, scope: &mut Scope, name: &str, rel: Option<&str>) -> QueryResult<usize> {
        if let Some(i) = scope.lookup(name) {
            return Ok(i);
        }
        // P-node columns shadow relations of the same name inside actions.
        if let Some(p) = self.pnode {
            if let Some(col) = p.col_of(name) {
                let c = &p.cols()[col];
                scope.vars.push(VarBinding {
                    name: name.to_string(),
                    rel: c.rel.clone(),
                    schema: c.schema.clone(),
                    source: VarSource::Pnode { col },
                });
                return Ok(scope.vars.len() - 1);
            }
        }
        let rel_name = rel.unwrap_or(name);
        let rel_ref = self.catalog.get(rel_name).ok_or_else(|| {
            QueryError::Semantic(format!(
                "unknown tuple variable `{name}` (no relation of that name)"
            ))
        })?;
        let schema = rel_ref.schema().clone();
        scope.vars.push(VarBinding {
            name: name.to_string(),
            rel: rel_name.to_string(),
            schema,
            source: VarSource::Relation,
        });
        Ok(scope.vars.len() - 1)
    }

    fn bind_from(&self, scope: &mut Scope, from: &[FromItem]) -> QueryResult<()> {
        for item in from {
            if scope.lookup(&item.var).is_some() {
                return Err(QueryError::Semantic(format!(
                    "duplicate tuple variable `{}` in from-list",
                    item.var
                )));
            }
            self.bind_var(scope, &item.var, Some(&item.rel))?;
        }
        Ok(())
    }

    fn resolve_expr(&self, scope: &mut Scope, e: &Expr) -> QueryResult<RExpr> {
        match e {
            Expr::Literal(l) => Ok(RExpr::Const(match l {
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(x) => Value::Float(*x),
                Literal::Str(s) => Value::Str(s.clone()),
                Literal::Bool(b) => Value::Bool(*b),
            })),
            Expr::Attr {
                var,
                attr,
                previous,
            } => {
                let v = self.bind_var(scope, var, None)?;
                let schema = scope.vars[v].schema.clone();
                let a = schema.require(attr).map_err(|_| {
                    QueryError::Semantic(format!(
                        "relation `{}` has no attribute `{attr}`",
                        scope.vars[v].rel
                    ))
                })?;
                Ok(if *previous {
                    RExpr::Prev { var: v, attr: a }
                } else {
                    RExpr::Attr { var: v, attr: a }
                })
            }
            Expr::New { var } => {
                self.bind_var(scope, var, None)?;
                Ok(RExpr::AlwaysTrue)
            }
            Expr::Unary { op, expr } => Ok(RExpr::Unary {
                op: *op,
                expr: Box::new(self.resolve_expr(scope, expr)?),
            }),
            Expr::Binary { op, left, right } => {
                let l = self.resolve_expr(scope, left)?;
                let r = self.resolve_expr(scope, right)?;
                self.check_types(*op, &l, &r, scope)?;
                Ok(RExpr::Binary {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                })
            }
        }
    }

    fn check_types(&self, op: BinOp, l: &RExpr, r: &RExpr, scope: &Scope) -> QueryResult<()> {
        let lt = infer_type(l, &scope.vars);
        let rt = infer_type(r, &scope.vars);
        let numeric =
            |t: &Option<AttrType>| matches!(t, None | Some(AttrType::Int) | Some(AttrType::Float));
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div
                if (!numeric(&lt) || !numeric(&rt)) =>
            {
                return Err(QueryError::Semantic(format!(
                    "arithmetic `{op}` requires numeric operands"
                )));
            }
            BinOp::And | BinOp::Or => {
                for t in [&lt, &rt] {
                    if !matches!(t, None | Some(AttrType::Bool)) {
                        return Err(QueryError::Semantic(format!(
                            "`{op}` requires boolean operands"
                        )));
                    }
                }
            }
            _ if op.is_comparison() => {
                let compatible = match (&lt, &rt) {
                    (None, _) | (_, None) => true,
                    (Some(a), Some(b)) => a == b || (numeric(&Some(*a)) && numeric(&Some(*b))),
                };
                if !compatible {
                    return Err(QueryError::Semantic(format!(
                        "cannot compare {} with {}",
                        lt.map_or("?".into(), |t| t.to_string()),
                        rt.map_or("?".into(), |t| t.to_string()),
                    )));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Resolve a DML command ([`Command::Append`], `Delete`, `Replace`,
    /// `Retrieve`, and the primed forms).
    pub fn resolve_command(&self, cmd: &Command) -> QueryResult<RCommand> {
        match cmd {
            Command::Append {
                target,
                assignments,
                from,
                qual,
            } => {
                let rel = self.catalog.require(target)?;
                let target_schema = rel.schema().clone();
                let mut scope = Scope { vars: Vec::new() };
                self.bind_from(&mut scope, from)?;
                let qual = qual
                    .as_ref()
                    .map(|q| self.resolve_expr(&mut scope, q))
                    .transpose()?;
                let mut resolved_assign = Vec::new();
                for (attr, e) in assignments {
                    let pos = target_schema.require(attr).map_err(|_| {
                        QueryError::Semantic(format!(
                            "relation `{target}` has no attribute `{attr}`"
                        ))
                    })?;
                    let re = self.resolve_expr(&mut scope, e)?;
                    resolved_assign.push((pos, re));
                }
                Ok(RCommand::Append {
                    target: target.clone(),
                    target_schema,
                    assignments: resolved_assign,
                    spec: QuerySpec {
                        vars: scope.vars,
                        qual,
                    },
                })
            }
            Command::Delete { var, from, qual } => {
                let mut scope = Scope { vars: Vec::new() };
                self.bind_from(&mut scope, from)?;
                let v = self.bind_var(&mut scope, var, None)?;
                if scope.vars[v].source != VarSource::Relation {
                    return Err(QueryError::Semantic(format!(
                        "`delete {var}`: target must be a base relation variable \
                         (use delete' for P-node variables)"
                    )));
                }
                let qual = qual
                    .as_ref()
                    .map(|q| self.resolve_expr(&mut scope, q))
                    .transpose()?;
                Ok(RCommand::Delete {
                    var: v,
                    spec: QuerySpec {
                        vars: scope.vars,
                        qual,
                    },
                })
            }
            Command::Replace {
                var,
                assignments,
                from,
                qual,
            } => {
                let mut scope = Scope { vars: Vec::new() };
                self.bind_from(&mut scope, from)?;
                let v = self.bind_var(&mut scope, var, None)?;
                if scope.vars[v].source != VarSource::Relation {
                    return Err(QueryError::Semantic(format!(
                        "`replace {var}`: target must be a base relation variable \
                         (use replace' for P-node variables)"
                    )));
                }
                let schema = scope.vars[v].schema.clone();
                let qual = qual
                    .as_ref()
                    .map(|q| self.resolve_expr(&mut scope, q))
                    .transpose()?;
                let mut resolved_assign = Vec::new();
                for (attr, e) in assignments {
                    let pos = schema.require(attr).map_err(|_| {
                        QueryError::Semantic(format!(
                            "relation `{}` has no attribute `{attr}`",
                            scope.vars[v].rel
                        ))
                    })?;
                    resolved_assign.push((pos, self.resolve_expr(&mut scope, e)?));
                }
                Ok(RCommand::Replace {
                    var: v,
                    assignments: resolved_assign,
                    spec: QuerySpec {
                        vars: scope.vars,
                        qual,
                    },
                })
            }
            Command::Retrieve {
                into,
                targets,
                from,
                qual,
            } => {
                let mut scope = Scope { vars: Vec::new() };
                self.bind_from(&mut scope, from)?;
                let qual = qual
                    .as_ref()
                    .map(|q| self.resolve_expr(&mut scope, q))
                    .transpose()?;
                let mut resolved_targets = Vec::new();
                for t in targets {
                    match t {
                        Target::Expr { name, expr } => {
                            resolved_targets
                                .push((name.clone(), self.resolve_expr(&mut scope, expr)?));
                        }
                        Target::All { var } => {
                            let v = self.bind_var(&mut scope, var, None)?;
                            let schema = scope.vars[v].schema.clone();
                            for (a, def) in schema.attrs().iter().enumerate() {
                                resolved_targets
                                    .push((def.name.clone(), RExpr::Attr { var: v, attr: a }));
                            }
                        }
                    }
                }
                Ok(RCommand::Retrieve {
                    into: into.clone(),
                    targets: resolved_targets,
                    spec: QuerySpec {
                        vars: scope.vars,
                        qual,
                    },
                })
            }
            Command::Notify {
                channel,
                targets,
                from,
                qual,
            } => {
                let mut scope = Scope { vars: Vec::new() };
                self.bind_from(&mut scope, from)?;
                let qual = qual
                    .as_ref()
                    .map(|q| self.resolve_expr(&mut scope, q))
                    .transpose()?;
                let mut resolved_targets = Vec::new();
                for t in targets {
                    match t {
                        Target::Expr { name, expr } => {
                            resolved_targets
                                .push((name.clone(), self.resolve_expr(&mut scope, expr)?));
                        }
                        Target::All { var } => {
                            let v = self.bind_var(&mut scope, var, None)?;
                            let schema = scope.vars[v].schema.clone();
                            for (a, def) in schema.attrs().iter().enumerate() {
                                resolved_targets
                                    .push((def.name.clone(), RExpr::Attr { var: v, attr: a }));
                            }
                        }
                    }
                }
                Ok(RCommand::Notify {
                    channel: channel.clone(),
                    targets: resolved_targets,
                    spec: QuerySpec {
                        vars: scope.vars,
                        qual,
                    },
                })
            }
            Command::DeletePrimed { pvar, from, qual } => {
                let mut scope = Scope { vars: Vec::new() };
                self.bind_from(&mut scope, from)?;
                let v = self.bind_var(&mut scope, pvar, None)?;
                if !matches!(scope.vars[v].source, VarSource::Pnode { .. }) {
                    return Err(QueryError::Semantic(format!(
                        "delete' target `{pvar}` is not a P-node variable"
                    )));
                }
                let qual = qual
                    .as_ref()
                    .map(|q| self.resolve_expr(&mut scope, q))
                    .transpose()?;
                Ok(RCommand::DeletePrimed {
                    pvar: v,
                    spec: QuerySpec {
                        vars: scope.vars,
                        qual,
                    },
                })
            }
            Command::ReplacePrimed {
                pvar,
                assignments,
                from,
                qual,
            } => {
                let mut scope = Scope { vars: Vec::new() };
                self.bind_from(&mut scope, from)?;
                let v = self.bind_var(&mut scope, pvar, None)?;
                if !matches!(scope.vars[v].source, VarSource::Pnode { .. }) {
                    return Err(QueryError::Semantic(format!(
                        "replace' target `{pvar}` is not a P-node variable"
                    )));
                }
                let schema = scope.vars[v].schema.clone();
                let qual = qual
                    .as_ref()
                    .map(|q| self.resolve_expr(&mut scope, q))
                    .transpose()?;
                let mut resolved_assign = Vec::new();
                for (attr, e) in assignments {
                    let pos = schema.require(attr).map_err(|_| {
                        QueryError::Semantic(format!(
                            "relation `{}` has no attribute `{attr}`",
                            scope.vars[v].rel
                        ))
                    })?;
                    resolved_assign.push((pos, self.resolve_expr(&mut scope, e)?));
                }
                Ok(RCommand::ReplacePrimed {
                    pvar: v,
                    assignments: resolved_assign,
                    spec: QuerySpec {
                        vars: scope.vars,
                        qual,
                    },
                })
            }
            other => Err(QueryError::Semantic(format!(
                "`{}` is not a data-manipulation command",
                other.kind_name()
            ))),
        }
    }

    /// Resolve a rule condition (ON clause + IF qualification + from-list).
    pub fn resolve_condition(
        &self,
        on: Option<&EventSpec>,
        condition: Option<&Expr>,
        from: &[FromItem],
    ) -> QueryResult<ResolvedCondition> {
        let mut scope = Scope { vars: Vec::new() };
        self.bind_from(&mut scope, from)?;
        // The ON relation is always a variable, even without an IF clause.
        let on_var = on
            .map(|spec| self.bind_var(&mut scope, &spec.relation, None))
            .transpose()?;
        let qual = condition
            .as_ref()
            .map(|q| self.resolve_expr(&mut scope, q))
            .transpose()?;
        // Classify transition variables.
        let mut trans_vars = Vec::new();
        if let Some(q) = &qual {
            for v in 0..scope.vars.len() {
                if q.has_prev_ref(v) {
                    trans_vars.push(v);
                }
            }
        }
        // `previous` is meaningless for freshly-appended or deleted tuples.
        if let (Some(ov), Some(spec)) = (on_var, on) {
            if trans_vars.contains(&ov)
                && matches!(spec.kind, EventKind::Append | EventKind::Delete)
            {
                return Err(QueryError::Semantic(format!(
                    "`previous {}…` cannot be combined with `on {}`",
                    spec.relation,
                    match spec.kind {
                        EventKind::Append => "append",
                        EventKind::Delete => "delete",
                        EventKind::Replace(_) => unreachable!(),
                    }
                )));
            }
            // validate replace target-list attributes
            if let EventKind::Replace(Some(attrs)) = &spec.kind {
                let schema = &scope.vars[ov].schema;
                for a in attrs {
                    schema.require(a).map_err(|_| {
                        QueryError::Semantic(format!(
                            "relation `{}` has no attribute `{a}` (on replace target-list)",
                            spec.relation
                        ))
                    })?;
                }
            }
        }
        // Rule conditions range over base relations only.
        if let Some(v) = scope
            .vars
            .iter()
            .find(|v| !matches!(v.source, VarSource::Relation))
        {
            return Err(QueryError::Semantic(format!(
                "rule condition variable `{}` must range over a base relation",
                v.name
            )));
        }
        Ok(ResolvedCondition {
            spec: QuerySpec {
                vars: scope.vars,
                qual,
            },
            on_var,
            event: on.map(|s| s.kind.clone()),
            trans_vars,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_command, parse_expr};
    use ariel_storage::Schema;

    fn test_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(
            "emp",
            Schema::of(&[
                ("name", AttrType::Str),
                ("age", AttrType::Int),
                ("sal", AttrType::Float),
                ("dno", AttrType::Int),
                ("jno", AttrType::Int),
            ]),
        )
        .unwrap();
        c.create(
            "dept",
            Schema::of(&[("dno", AttrType::Int), ("name", AttrType::Str)]),
        )
        .unwrap();
        c.create(
            "job",
            Schema::of(&[("jno", AttrType::Int), ("paygrade", AttrType::Int)]),
        )
        .unwrap();
        c
    }

    #[test]
    fn implicit_default_variables() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cmd = parse_command("delete emp where emp.sal > 100 and emp.dno = dept.dno").unwrap();
        let rc = r.resolve_command(&cmd).unwrap();
        let spec = rc.spec();
        assert_eq!(spec.vars.len(), 2);
        assert_eq!(spec.vars[0].name, "emp");
        assert_eq!(spec.vars[1].name, "dept");
    }

    #[test]
    fn from_list_binds_aliases() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cmd = parse_command(
            "retrieve (a = oldjob.paygrade) from oldjob in job, newjob in job \
             where newjob.paygrade < oldjob.paygrade",
        )
        .unwrap();
        let rc = r.resolve_command(&cmd).unwrap();
        assert_eq!(rc.spec().vars.len(), 2);
        assert!(rc.spec().vars.iter().all(|v| v.rel == "job"));
    }

    #[test]
    fn unknown_variable_errors() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cmd = parse_command("delete emp where nothere.x = 1").unwrap();
        assert!(matches!(
            r.resolve_command(&cmd),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn unknown_attribute_errors() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cmd = parse_command("delete emp where emp.bogus = 1").unwrap();
        assert!(r.resolve_command(&cmd).is_err());
    }

    #[test]
    fn type_mismatch_comparison_errors() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cmd = parse_command("delete emp where emp.name > 5").unwrap();
        assert!(r.resolve_command(&cmd).is_err());
    }

    #[test]
    fn arithmetic_on_strings_errors() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cmd = parse_command("delete emp where emp.name + 1 = 2").unwrap();
        assert!(r.resolve_command(&cmd).is_err());
    }

    #[test]
    fn retrieve_all_expands() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cmd = parse_command("retrieve (dept.all)").unwrap();
        let RCommand::Retrieve { targets, .. } = r.resolve_command(&cmd).unwrap() else {
            panic!()
        };
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0].0, "dno");
    }

    #[test]
    fn append_assignments_resolved() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cmd =
            parse_command("append dept (dno = emp.dno, name = \"x\") where emp.sal > 10").unwrap();
        let RCommand::Append {
            target,
            assignments,
            spec,
            ..
        } = r.resolve_command(&cmd).unwrap()
        else {
            panic!()
        };
        assert_eq!(target, "dept");
        assert_eq!(assignments.len(), 2);
        assert_eq!(assignments[0].0, 0);
        assert_eq!(spec.vars.len(), 1); // emp bound implicitly
    }

    #[test]
    fn condition_classifies_on_and_transition_vars() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        // finddemotions (§2.3)
        let cond = parse_expr(
            "newjob.jno = emp.jno and oldjob.jno = previous emp.jno \
             and newjob.paygrade < oldjob.paygrade",
        )
        .unwrap();
        let rc = r
            .resolve_condition(
                Some(&EventSpec {
                    kind: EventKind::Replace(Some(vec!["jno".into()])),
                    relation: "emp".into(),
                }),
                Some(&cond),
                &[
                    FromItem {
                        var: "oldjob".into(),
                        rel: "job".into(),
                    },
                    FromItem {
                        var: "newjob".into(),
                        rel: "job".into(),
                    },
                ],
            )
            .unwrap();
        assert_eq!(rc.spec.vars.len(), 3);
        let emp = rc.spec.var_of("emp").unwrap();
        assert_eq!(rc.on_var, Some(emp));
        assert_eq!(rc.trans_vars, vec![emp]);
    }

    #[test]
    fn previous_with_on_append_rejected() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cond = parse_expr("emp.sal > previous emp.sal").unwrap();
        let err = r.resolve_condition(
            Some(&EventSpec {
                kind: EventKind::Append,
                relation: "emp".into(),
            }),
            Some(&cond),
            &[],
        );
        assert!(err.is_err());
    }

    #[test]
    fn on_without_if_still_binds_var() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let rc = r
            .resolve_condition(
                Some(&EventSpec {
                    kind: EventKind::Delete,
                    relation: "emp".into(),
                }),
                None,
                &[],
            )
            .unwrap();
        assert_eq!(rc.spec.vars.len(), 1);
        assert_eq!(rc.on_var, Some(0));
    }

    #[test]
    fn bad_replace_target_list_attr_rejected() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let err = r.resolve_condition(
            Some(&EventSpec {
                kind: EventKind::Replace(Some(vec!["nope".into()])),
                relation: "emp".into(),
            }),
            None,
            &[],
        );
        assert!(err.is_err());
    }

    #[test]
    fn conjunct_roundtrip() {
        let cat = test_catalog();
        let r = Resolver::new(&cat);
        let cmd =
            parse_command("delete emp where emp.sal > 1 and emp.age < 2 and emp.dno = 3").unwrap();
        let rc = r.resolve_command(&cmd).unwrap();
        let q = rc.spec().qual.clone().unwrap();
        let parts = q.clone().conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(RExpr::conjoin(parts), Some(q));
    }

    #[test]
    fn pnode_variables_resolve_in_action_context() {
        use crate::binding::{Pnode, PnodeCol};
        let cat = test_catalog();
        let emp_schema = cat.get("emp").unwrap().schema().clone();
        let pnode = Pnode::new(vec![PnodeCol {
            var: "emp".into(),
            rel: "emp".into(),
            schema: emp_schema,
            has_prev: false,
        }]);
        let r = Resolver::with_pnode(&cat, &pnode);
        // replace' binds its target through the P-node
        let cmd = Command::ReplacePrimed {
            pvar: "emp".into(),
            assignments: vec![("sal".into(), Expr::Literal(Literal::Int(30000)))],
            from: vec![],
            qual: None,
        };
        let RCommand::ReplacePrimed { pvar, spec, .. } = r.resolve_command(&cmd).unwrap() else {
            panic!()
        };
        assert!(matches!(
            spec.vars[pvar].source,
            VarSource::Pnode { col: 0 }
        ));
    }

    #[test]
    fn plain_replace_of_pnode_var_rejected() {
        use crate::binding::{Pnode, PnodeCol};
        let cat = test_catalog();
        let emp_schema = cat.get("emp").unwrap().schema().clone();
        let pnode = Pnode::new(vec![PnodeCol {
            var: "emp".into(),
            rel: "emp".into(),
            schema: emp_schema,
            has_prev: false,
        }]);
        let r = Resolver::with_pnode(&cat, &pnode);
        let cmd = parse_command("replace emp (sal = 1)").unwrap();
        assert!(r.resolve_command(&cmd).is_err());
    }

    #[test]
    fn remap_vars() {
        let e = RExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(RExpr::Attr { var: 2, attr: 0 }),
            right: Box::new(RExpr::Prev { var: 2, attr: 1 }),
        };
        let m = e.remap_vars(&|_| 0);
        assert_eq!(m.vars_used(), vec![0]);
    }
}
