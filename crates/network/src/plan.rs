//! Compile-time join planning, shared by the A-TREAT network
//! ([`crate::treat`]) and the Rete network ([`crate::rete`]).
//!
//! Both networks face the same question at rule-compile time: which join
//! conjuncts can an index answer, and what key does the probe need? The
//! answer is independent of how the network stores its memories — TREAT
//! probes α-memories from a dynamically-ordered partial row, Rete probes
//! α-memories and β-memories along its fixed variable order — so the
//! decomposition lives here: the split of a condition into per-variable
//! selections and join conjuncts ([`RuleShape`]), per-conjunct variable
//! bitmasks, the equi-probe extraction of §4.2, and the composite/band
//! access-path specs built from them.
//!
//! Which access paths exist at all is the network's [`JoinAccess`], read
//! here and nowhere else: a plan without specs leaves every join on the
//! enumeration path, so the match code has no switch of its own.

use crate::alpha::BandShape;
use crate::pred::SelectionPredicate;
use crate::selnet::SelectionNetwork;
use ariel_query::{QueryError, QueryResult, RExpr, ResolvedCondition};
use ariel_storage::{Catalog, RelId, StorageError};

/// The access paths a network's joins may take, fixed when the network is
/// built. Every choice produces the same matches; only the work per token
/// differs (the JOINS and NET tables compare them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAccess {
    /// The paper's plain nested-loop join (§4.2): no access path, so
    /// every join enumerates its memory (or scans its base relation).
    Nested,
    /// One single-attribute hash path per equi-conjunct — probe, then
    /// retest the other conjuncts — plus band stabs.
    Single,
    /// Equi-conjuncts sharing a bound-variable set fuse into one
    /// composite key, plus band stabs. The default.
    #[default]
    Composite,
}

/// Join bitmasks give a rule at most this many tuple variables.
pub(crate) const MAX_RULE_VARS: usize = 64;

/// A rule condition split for a network, the step both networks' `add_rule`
/// begin with: each variable's relation and selection predicate, the
/// multi-variable conjuncts, and the join plan over them.
#[derive(Debug)]
pub(crate) struct RuleShape {
    /// Each variable's relation.
    pub(crate) rels: Vec<RelId>,
    /// Each variable's single-variable conjuncts, remapped to variable 0.
    pub(crate) preds: Vec<SelectionPredicate>,
    /// The multi-variable conjuncts, in condition order; `plan` indexes
    /// into this list.
    pub(crate) join_conjuncts: Vec<RExpr>,
    /// The join plan over `join_conjuncts`.
    pub(crate) plan: JoinPlan,
}

impl RuleShape {
    /// Split `cond` and plan its joins under `access`. Errors on a
    /// condition of more than [`MAX_RULE_VARS`] variables and on a
    /// relation that is gone or re-created (see [`compile_rels`]).
    pub(crate) fn compile(
        cond: &ResolvedCondition,
        catalog: &Catalog,
        selnet: &SelectionNetwork,
        access: JoinAccess,
    ) -> QueryResult<RuleShape> {
        let nvars = cond.spec.vars.len();
        if nvars > MAX_RULE_VARS {
            return Err(QueryError::Semantic(format!(
                "a rule condition has at most {MAX_RULE_VARS} tuple variables"
            )));
        }
        let rels = compile_rels(cond, catalog, selnet)?;
        let mut selections: Vec<Vec<RExpr>> = vec![Vec::new(); nvars];
        let mut join_conjuncts = Vec::new();
        let conjuncts = cond.spec.qual.clone().map(|q| q.conjuncts());
        for c in conjuncts.unwrap_or_default() {
            let used = c.vars_used();
            if used.len() == 1 {
                // remap to variable 0 for single-tuple evaluation
                selections[used[0]].push(c.remap_vars(&|_| 0));
            } else {
                join_conjuncts.push(c);
            }
        }
        let plan = JoinPlan::compile(&join_conjuncts, nvars, access);
        Ok(RuleShape {
            rels,
            preds: selections
                .into_iter()
                .map(SelectionPredicate::decompose)
                .collect(),
            join_conjuncts,
            plan,
        })
    }
}

/// The id of every variable's relation, once per rule at compile time —
/// the only name lookups a rule costs the network. Errors if a relation
/// is gone, or its slot is still subscribed under an earlier generation.
fn compile_rels(
    cond: &ResolvedCondition,
    catalog: &Catalog,
    selnet: &SelectionNetwork,
) -> QueryResult<Vec<RelId>> {
    cond.spec
        .vars
        .iter()
        .map(|binding| {
            let rel = catalog.id(&binding.rel).ok_or_else(|| {
                QueryError::from(StorageError::NoSuchRelation(binding.rel.clone()))
            })?;
            if !selnet.accepts(rel) {
                return Err(QueryError::Semantic(format!(
                    "relation `{}` was re-created while rules compiled against it \
                     are still in the network",
                    binding.rel
                )));
            }
            Ok(rel)
        })
        .collect()
}

/// One composite equi-probe access path for a variable: once every
/// variable in `others_mask` is bound, the equi-conjuncts listed in
/// `conjuncts` pin the variable's `attrs` tuple to the values of
/// `key_exprs` over the partial row, so a composite hash index answers all
/// of them with a single probe.
#[derive(Debug)]
pub(crate) struct CompositeSpec {
    /// Variables the key expressions read (the probed variable excluded).
    pub(crate) others_mask: u64,
    /// Indexed attribute positions, ascending — must equal a registered
    /// index's attribute tuple exactly.
    pub(crate) attrs: Vec<usize>,
    /// Key expression per attribute, parallel to `attrs`.
    pub(crate) key_exprs: Vec<RExpr>,
    /// Conjunct indices the probe guarantees (skipped on the retest path).
    pub(crate) conjuncts: Vec<usize>,
}

/// One band-probe access path for a variable: the `(lower, upper)`
/// conjunct pair constrains `key_expr`'s value to each entry's
/// `(shape.lo_attr .. shape.hi_attr)` span, so an interval index answers
/// both with one stabbing query.
#[derive(Debug)]
pub(crate) struct BandSpec {
    /// Variables `key_expr` reads (the probed variable excluded).
    pub(crate) others_mask: u64,
    /// Which attributes bound the span, and how strictly.
    pub(crate) shape: BandShape,
    /// The stabbed expression over the other variables.
    pub(crate) key_expr: RExpr,
    /// The two conjunct indices the stab guarantees (lower, upper).
    pub(crate) conjuncts: [usize; 2],
}

/// Compile-time join metadata, hoisted out of the per-token join path (the
/// seed recomputed the bound-variable sets and applicable-conjunct lists
/// for every probing token).
#[derive(Debug)]
pub(crate) struct JoinPlan {
    /// Bitmask of the variables each join conjunct references, parallel to
    /// the rule's join-conjunct list. Rules are capped at
    /// [`MAX_RULE_VARS`] tuple variables.
    pub(crate) conjunct_vars: Vec<u64>,
    /// `equi[var][i]` is `Some((attr, key_expr))` when join conjunct `i` is
    /// an equi-conjunct `var.attr = <expr over other variables>` — the key
    /// extraction behind §4.2's base-relation index probes on virtual
    /// nodes (which only have single-attribute indexes to work with).
    pub(crate) equi: Vec<Vec<Option<(usize, RExpr)>>>,
    /// Composite equi access paths per variable, widest key first — the
    /// probe picks the first spec whose `others_mask` is fully bound and
    /// whose attribute tuple the memory indexes.
    pub(crate) composite: Vec<Vec<CompositeSpec>>,
    /// Band access paths per variable.
    pub(crate) bands: Vec<Vec<BandSpec>>,
}

impl JoinPlan {
    /// Compile the plan for a rule's multi-variable conjuncts under
    /// `access`: [`JoinAccess::Nested`] plans no access path at all (no
    /// equi probe, no composite or band spec), [`JoinAccess::Single`] gives
    /// every equi-conjunct its own single-attribute path.
    pub(crate) fn compile(join_conjuncts: &[RExpr], nvars: usize, access: JoinAccess) -> JoinPlan {
        debug_assert!(
            nvars <= MAX_RULE_VARS,
            "join-plan bitmasks cap rule variables"
        );
        let indexed = access != JoinAccess::Nested;
        let conjunct_vars: Vec<u64> = join_conjuncts
            .iter()
            .map(|c| c.vars_used().iter().fold(0u64, |m, v| m | (1 << v)))
            .collect();
        let equi: Vec<Vec<Option<(usize, RExpr)>>> = (0..nvars)
            .map(|v| {
                join_conjuncts
                    .iter()
                    .map(|c| if indexed { equi_probe(c, v) } else { None })
                    .collect()
            })
            .collect();
        let composite = access == JoinAccess::Composite;
        JoinPlan {
            composite: (0..nvars)
                .map(|v| compile_composite_specs(&equi[v], &conjunct_vars, v, composite))
                .collect(),
            bands: (0..nvars)
                .map(|v| {
                    if indexed {
                        compile_band_specs(join_conjuncts, &conjunct_vars, v)
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
            conjunct_vars,
            equi,
        }
    }
}

/// If `c` is `vars[var].attr = <expr over other variables>` (either side),
/// return the attribute position and the key expression — the "substituting
/// constants from a token in place of variables" optimization of §4.2.
pub(crate) fn equi_probe(c: &RExpr, var: usize) -> Option<(usize, RExpr)> {
    let RExpr::Binary {
        op: ariel_query::BinOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    if let RExpr::Attr { var: v, attr } = **left {
        if v == var && !right.vars_used().contains(&var) {
            return Some((attr, (**right).clone()));
        }
    }
    if let RExpr::Attr { var: v, attr } = **right {
        if v == var && !left.vars_used().contains(&var) {
            return Some((attr, (**left).clone()));
        }
    }
    None
}

/// Compile a variable's composite equi access paths. Conjuncts are grouped
/// by the variable set their key expressions read; each group fuses into
/// one composite key answerable by a single probe once those variables are
/// bound. With more than one group, the *prefix-closed unions* of the
/// groups are added too: groups are ordered by how early a join order can
/// bind them (fewest key variables first), and each cumulative union
/// becomes a wider spec — so an intermediate binding order that has bound
/// several groups probes one wide key instead of falling back to the
/// widest single group. The final union covers every group: once
/// everything is bound, one probe answers every equi-conjunct at once.
/// Enumeration stays linear in the number of groups (prefix-closed, not
/// the exponential power set). With `composite` off ([`JoinAccess::Single`]),
/// every conjunct compiles to its own single-attribute spec — the
/// probe-then-retest behaviour the joins bench ablates against.
pub(crate) fn compile_composite_specs(
    equi_v: &[Option<(usize, RExpr)>],
    conjunct_vars: &[u64],
    var: usize,
    composite: bool,
) -> Vec<CompositeSpec> {
    let vbit = 1u64 << var;
    let parts: Vec<(usize, usize, &RExpr, u64)> = equi_v
        .iter()
        .enumerate()
        .filter_map(|(i, spec)| {
            let (attr, key) = spec.as_ref()?;
            Some((i, *attr, key, conjunct_vars[i] & !vbit))
        })
        .collect();
    if !composite {
        return parts
            .into_iter()
            .map(|(i, attr, key, others)| CompositeSpec {
                others_mask: others,
                attrs: vec![attr],
                key_exprs: vec![key.clone()],
                conjuncts: vec![i],
            })
            .collect();
    }
    type Group<'a> = (u64, Vec<(usize, usize, &'a RExpr)>);
    let mut groups: Vec<Group<'_>> = Vec::new();
    for (i, attr, key, others) in parts {
        match groups.iter_mut().find(|(m, _)| *m == others) {
            Some((_, g)) => g.push((i, attr, key)),
            None => groups.push((others, vec![(i, attr, key)])),
        }
    }
    let mut specs: Vec<CompositeSpec> = groups
        .iter()
        .map(|(mask, g)| build_composite_spec(*mask, g))
        .collect();
    if groups.len() > 1 {
        // prefix-closed unions along the binding order: cheapest-to-bind
        // groups first (fewest key variables, then lowest mask), one spec
        // per cumulative union
        let mut ordered: Vec<&Group<'_>> = groups.iter().collect();
        ordered.sort_by_key(|(m, _)| (m.count_ones(), *m));
        let mut mask = ordered[0].0;
        let mut acc = ordered[0].1.clone();
        for (m, g) in ordered.into_iter().skip(1) {
            mask |= m;
            acc.extend(g.iter().copied());
            specs.push(build_composite_spec(mask, &acc));
        }
    }
    // widest key first, so the probe prefers the narrowest buckets
    specs.sort_by_key(|s| std::cmp::Reverse(s.attrs.len()));
    specs
}

/// Fuse one group of equi-conjuncts into a composite spec. Attributes are
/// sorted ascending to make the key tuple canonical; a second conjunct on
/// an already-keyed attribute is left to the retest path (it stays out of
/// `conjuncts`, so the conjunct-test loop still checks it).
pub(crate) fn build_composite_spec(
    others_mask: u64,
    parts: &[(usize, usize, &RExpr)],
) -> CompositeSpec {
    let mut parts = parts.to_vec();
    parts.sort_by_key(|&(_, attr, _)| attr);
    let mut spec = CompositeSpec {
        others_mask,
        attrs: Vec::new(),
        key_exprs: Vec::new(),
        conjuncts: Vec::new(),
    };
    for (i, attr, key) in parts {
        if spec.attrs.last() == Some(&attr) {
            continue;
        }
        spec.attrs.push(attr);
        spec.key_exprs.push(key.clone());
        spec.conjuncts.push(i);
    }
    spec
}

/// If `c` is an inequality between `vars[var].attr` and an expression over
/// other variables, classify it as a band half: `(attr, key_expr,
/// is_lower, strict)`, where `is_lower` means the entry's attribute bounds
/// the key from below (`var.attr < key` / `var.attr <= key`, either
/// writing order).
pub(crate) fn band_half(c: &RExpr, var: usize) -> Option<(usize, &RExpr, bool, bool)> {
    use ariel_query::BinOp;
    let RExpr::Binary { op, left, right } = c else {
        return None;
    };
    let (strict, lower_when_var_left) = match op {
        BinOp::Lt => (true, true),
        BinOp::Le => (false, true),
        BinOp::Gt => (true, false),
        BinOp::Ge => (false, false),
        _ => return None,
    };
    if let RExpr::Attr { var: v, attr } = **left {
        if v == var && !right.vars_used().contains(&var) {
            return Some((attr, &**right, lower_when_var_left, strict));
        }
    }
    if let RExpr::Attr { var: v, attr } = **right {
        if v == var && !left.vars_used().contains(&var) {
            return Some((attr, &**left, !lower_when_var_left, strict));
        }
    }
    None
}

/// Compile a variable's band access paths: every (lower, upper) pair of
/// inequality conjuncts bracketing the *same* key expression — structural
/// `RExpr` equality — becomes one interval-index stab. The classic shape
/// is the paper's `a.lo < x and x <= a.hi` band join.
pub(crate) fn compile_band_specs(
    join_conjuncts: &[RExpr],
    conjunct_vars: &[u64],
    var: usize,
) -> Vec<BandSpec> {
    let vbit = 1u64 << var;
    let halves: Vec<(usize, usize, &RExpr, bool, bool)> = join_conjuncts
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            band_half(c, var).map(|(attr, key, lower, strict)| (i, attr, key, lower, strict))
        })
        .collect();
    let mut specs = Vec::new();
    for &(i_lo, lo_attr, lo_key, is_lower, lo_strict) in &halves {
        if !is_lower {
            continue;
        }
        let upper = halves
            .iter()
            .copied()
            .find(|&(i_hi, _, hi_key, hi_is_lower, _)| {
                !hi_is_lower && i_hi != i_lo && hi_key == lo_key
            });
        let Some((i_hi, hi_attr, _, _, hi_strict)) = upper else {
            continue;
        };
        specs.push(BandSpec {
            others_mask: conjunct_vars[i_lo] & !vbit,
            shape: BandShape {
                lo_attr,
                lo_strict,
                hi_attr,
                hi_strict,
            },
            key_expr: lo_key.clone(),
            conjuncts: [i_lo, i_hi],
        });
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariel_query::RExpr;

    /// `probe.a<attr> = key.x` over resolved variable indices: build via the
    /// raw RExpr shape (no catalog needed at this layer).
    fn eq_conjunct(probe_var: usize, attr: usize, key_var: usize) -> RExpr {
        RExpr::Binary {
            op: ariel_query::BinOp::Eq,
            left: Box::new(RExpr::Attr {
                var: probe_var,
                attr,
            }),
            right: Box::new(RExpr::Attr {
                var: key_var,
                attr: 0,
            }),
        }
    }

    /// The probe-selection rule of `find_composite_probe`: first spec (in
    /// widest-first order) whose key variables are all bound.
    fn select(specs: &[CompositeSpec], bound: u64) -> Option<&CompositeSpec> {
        specs.iter().find(|s| s.others_mask & !bound == 0)
    }

    #[test]
    fn prefix_unions_cover_intermediate_binding_orders() {
        // var 3 is probed; three equi-conjuncts key it on vars 0, 1, 2:
        //   v3.a0 = v0.x,  v3.a1 = v1.x,  v3.a2 = v2.x
        let conjuncts = [
            eq_conjunct(3, 0, 0),
            eq_conjunct(3, 1, 1),
            eq_conjunct(3, 2, 2),
        ];
        let plan = JoinPlan::compile(&conjuncts, 4, JoinAccess::Composite);
        let specs = &plan.composite[3];
        // 3 per-group specs + 2 cumulative unions ({v0,v1}, {v0,v1,v2})
        assert_eq!(specs.len(), 5);
        assert!(specs
            .iter()
            .any(|s| s.others_mask == 0b011 && s.attrs == [0, 1]));

        // regression: with vars 0 and 1 bound (but not 2), the probe used
        // to fall back to a single-attribute group spec; the prefix union
        // now serves the wider two-attribute key
        let chosen = select(specs, 0b011).expect("an applicable spec");
        assert_eq!(chosen.attrs, [0, 1], "the wider partial-union spec wins");
        assert_eq!(chosen.conjuncts, [0, 1]);

        // everything bound → the full union (all three attributes)
        let full = select(specs, 0b111).unwrap();
        assert_eq!(full.attrs, [0, 1, 2]);
        // nothing but var 2 bound → its single-group spec
        let single = select(specs, 0b100).unwrap();
        assert_eq!(single.attrs, [2]);
    }

    #[test]
    fn single_group_stays_minimal() {
        // both conjuncts read var 0 only → one group, no unions
        let conjuncts = [eq_conjunct(1, 0, 0), eq_conjunct(1, 1, 0)];
        let plan = JoinPlan::compile(&conjuncts, 2, JoinAccess::Composite);
        assert_eq!(plan.composite[1].len(), 1);
        assert_eq!(plan.composite[1][0].attrs, [0, 1]);
    }

    #[test]
    fn band_pair_compiles_to_one_spec() {
        // `a.lo < b.sal and b.sal <= a.hi` resolved by hand:
        // a = var 0 (attrs lo=0, hi=1), b = var 1 (sal=0)
        let lower = RExpr::Binary {
            op: ariel_query::BinOp::Lt,
            left: Box::new(RExpr::Attr { var: 0, attr: 0 }),
            right: Box::new(RExpr::Attr { var: 1, attr: 0 }),
        };
        let upper = RExpr::Binary {
            op: ariel_query::BinOp::Le,
            left: Box::new(RExpr::Attr { var: 1, attr: 0 }),
            right: Box::new(RExpr::Attr { var: 0, attr: 1 }),
        };
        let plan = JoinPlan::compile(&[lower, upper], 2, JoinAccess::Composite);
        let bands = &plan.bands[0];
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].others_mask, 0b10);
        let s = &bands[0].shape;
        assert!((s.lo_attr, s.lo_strict, s.hi_attr, s.hi_strict) == (0, true, 1, false));
    }

    #[test]
    fn access_decides_which_paths_the_plan_holds() {
        // var 2 keyed on vars 0 and 1, plus a band of var 0 around var 1:
        //   v2.a0 = v0.x,  v2.a1 = v1.x,  v0.a0 < v1.a0 <= v0.a1
        let band = |op, left, right| RExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        };
        let conjuncts = [
            eq_conjunct(2, 0, 0),
            eq_conjunct(2, 1, 1),
            band(
                ariel_query::BinOp::Lt,
                RExpr::Attr { var: 0, attr: 0 },
                RExpr::Attr { var: 1, attr: 0 },
            ),
            band(
                ariel_query::BinOp::Le,
                RExpr::Attr { var: 1, attr: 0 },
                RExpr::Attr { var: 0, attr: 1 },
            ),
        ];
        let nested = JoinPlan::compile(&conjuncts, 3, JoinAccess::Nested);
        assert!(nested.equi.iter().flatten().all(Option::is_none));
        assert!(nested.composite.iter().all(Vec::is_empty));
        assert!(nested.bands.iter().all(Vec::is_empty));
        assert_eq!(nested.conjunct_vars, [0b101, 0b110, 0b011, 0b011]);

        let single = JoinPlan::compile(&conjuncts, 3, JoinAccess::Single);
        assert_eq!(single.composite[2].len(), 2);
        assert!(single
            .composite
            .iter()
            .flatten()
            .all(|s| s.attrs.len() == 1));
        assert_eq!(single.bands[0].len(), 1, "Single still stabs bands");

        let composite = JoinPlan::compile(&conjuncts, 3, JoinAccess::Composite);
        assert!(composite.composite[2].iter().any(|s| s.attrs == [0, 1]));
        assert_eq!(composite.bands[0].len(), 1);
    }
}
