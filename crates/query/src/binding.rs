//! Runtime variable bindings and the P-node.
//!
//! A **P-node** is "a temporary relation storing the data matching the rule
//! condition" (§2.2.3). Each row binds every tuple variable of the rule
//! condition to a concrete tuple, keeping the tuple's TID (so `replace'` and
//! `delete'` can update through it) and, for transition variables, the
//! previous value of the tuple.

use ariel_storage::{SchemaRef, Tid, Tuple};
use std::fmt;
use std::sync::Arc;

/// One tuple variable bound to a concrete tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundVar {
    /// TID of the bound tuple in its base relation. `None` for tuples that
    /// no longer exist (e.g. data bound by an ON DELETE condition) or for
    /// computed rows.
    pub tid: Option<Tid>,
    /// Current value of the tuple.
    pub tuple: Tuple,
    /// Value at the start of the transition, for transition variables
    /// (referenced via `previous var.attr`).
    pub prev: Option<Tuple>,
}

impl BoundVar {
    /// Plain binding: a live tuple with no transition history.
    pub fn plain(tid: Tid, tuple: Tuple) -> Self {
        BoundVar {
            tid: Some(tid),
            tuple,
            prev: None,
        }
    }

    /// Binding with a previous value (transition variable).
    pub fn with_prev(tid: Option<Tid>, tuple: Tuple, prev: Tuple) -> Self {
        BoundVar {
            tid,
            tuple,
            prev: Some(prev),
        }
    }

    /// Approximate heap size in bytes.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.tuple.heap_size()
            + self.prev.as_ref().map_or(0, Tuple::heap_size)
    }
}

/// A row during query execution: one optional binding per tuple variable of
/// the query (slot index == variable index from semantic analysis).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    /// One optional binding per tuple variable, indexed by variable slot.
    pub slots: Vec<Option<BoundVar>>,
}

impl Row {
    /// Empty row with `n` unbound slots.
    pub fn unbound(n: usize) -> Self {
        Row {
            slots: vec![None; n],
        }
    }

    /// The binding for variable `var`, or an unbound-variable panic in debug.
    pub fn bound(&self, var: usize) -> Option<&BoundVar> {
        self.slots.get(var).and_then(|s| s.as_ref())
    }

    /// Merge another row into this one; slots bound in both must agree is
    /// not checked (the planner never produces overlapping binds).
    pub fn merge(&self, other: &Row) -> Row {
        let mut slots = self.slots.clone();
        for (i, s) in other.slots.iter().enumerate() {
            if s.is_some() {
                slots[i] = s.clone();
            }
        }
        Row { slots }
    }
}

/// Column descriptor of a P-node.
#[derive(Debug, Clone)]
pub struct PnodeCol {
    /// Tuple-variable name from the rule condition.
    pub var: String,
    /// Base relation the bound tuples live in (`replace'`/`delete'` update
    /// this relation through the stored TIDs).
    pub rel: String,
    /// Schema of the bound tuples.
    pub schema: SchemaRef,
    /// Whether rows carry a previous value for this column (transition or
    /// ON REPLACE variables).
    pub has_prev: bool,
}

/// The P-node: matched variable bindings awaiting rule execution.
///
/// The column descriptors are shared: a firing [`Pnode::take`]s the rows
/// into a P-node of the same shape without rebuilding names or schemas.
#[derive(Debug, Clone, Default)]
pub struct Pnode {
    cols: Arc<[PnodeCol]>,
    rows: Vec<Vec<BoundVar>>,
}

impl Pnode {
    /// New empty P-node with the given columns.
    pub fn new(cols: Vec<PnodeCol>) -> Self {
        Pnode {
            cols: cols.into(),
            rows: Vec::new(),
        }
    }

    /// Column descriptors.
    pub fn cols(&self) -> &[PnodeCol] {
        &self.cols
    }

    /// Index of the column bound to variable `var`.
    pub fn col_of(&self, var: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.var == var)
    }

    /// Current rows.
    pub fn rows(&self) -> &[Vec<BoundVar>] {
        &self.rows
    }

    /// Number of matched instantiations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no instantiations are pending.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Add an instantiation. The row must have one binding per column.
    pub fn push(&mut self, row: Vec<BoundVar>) {
        debug_assert_eq!(row.len(), self.cols.len());
        self.rows.push(row);
    }

    /// Remove every instantiation in which column `col` binds the tuple
    /// with TID `tid`. This is how TREAT handles ⁻ tokens: no join work,
    /// just P-node deletion (§4.2). Returns the number removed.
    pub fn retract(&mut self, col: usize, tid: Tid) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| r[col].tid != Some(tid));
        before - self.rows.len()
    }

    /// Move all instantiations (consumed by a rule firing) into a new
    /// P-node over the same shared columns, leaving this one empty — what
    /// the firing hands to its action.
    pub fn take(&mut self) -> Pnode {
        Pnode {
            cols: Arc::clone(&self.cols),
            rows: std::mem::take(&mut self.rows),
        }
    }

    /// Remove all instantiations without returning them.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Approximate heap size of the stored instantiations, in bytes.
    pub fn heap_size(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(BoundVar::heap_size).sum::<usize>())
            .sum()
    }
}

impl fmt::Display for Pnode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "P-node[{}] ({} rows)",
            self.cols
                .iter()
                .map(|c| c.var.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            self.rows.len()
        )?;
        for r in &self.rows {
            for (c, b) in self.cols.iter().zip(r) {
                write!(f, "  {}={}", c.var, b.tuple)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariel_storage::{AttrType, Schema, Value};

    fn schema() -> SchemaRef {
        Schema::of(&[("x", AttrType::Int)])
    }

    fn bv(tid: u64, x: i64) -> BoundVar {
        BoundVar::plain(Tid(tid), Tuple::new(vec![Value::Int(x)]))
    }

    #[test]
    fn push_and_retract() {
        let mut p = Pnode::new(vec![
            PnodeCol {
                var: "a".into(),
                rel: "ra".into(),
                schema: schema(),
                has_prev: false,
            },
            PnodeCol {
                var: "b".into(),
                rel: "rb".into(),
                schema: schema(),
                has_prev: false,
            },
        ]);
        p.push(vec![bv(1, 10), bv(2, 20)]);
        p.push(vec![bv(1, 10), bv(3, 30)]);
        p.push(vec![bv(4, 40), bv(2, 20)]);
        assert_eq!(p.len(), 3);
        // retract tuple 1 from column a: removes two rows
        assert_eq!(p.retract(0, Tid(1)), 2);
        assert_eq!(p.len(), 1);
        // retracting from the wrong column removes nothing
        assert_eq!(p.retract(0, Tid(2)), 0);
        assert_eq!(p.retract(1, Tid(2)), 1);
        assert!(p.is_empty());
    }

    #[test]
    fn take_consumes() {
        let mut p = Pnode::new(vec![PnodeCol {
            var: "a".into(),
            rel: "ra".into(),
            schema: schema(),
            has_prev: false,
        }]);
        p.push(vec![bv(1, 1)]);
        let taken = p.take();
        assert_eq!(taken.rows(), &[vec![bv(1, 1)]]);
        assert_eq!(taken.col_of("a"), Some(0), "same columns");
        assert!(p.is_empty());
    }

    #[test]
    fn col_lookup() {
        let p = Pnode::new(vec![
            PnodeCol {
                var: "emp".into(),
                rel: "emp".into(),
                schema: schema(),
                has_prev: true,
            },
            PnodeCol {
                var: "dept".into(),
                rel: "dept".into(),
                schema: schema(),
                has_prev: false,
            },
        ]);
        assert_eq!(p.col_of("dept"), Some(1));
        assert_eq!(p.col_of("nope"), None);
    }

    #[test]
    fn row_merge() {
        let mut a = Row::unbound(3);
        a.slots[0] = Some(bv(1, 1));
        let mut b = Row::unbound(3);
        b.slots[2] = Some(bv(2, 2));
        let m = a.merge(&b);
        assert!(m.bound(0).is_some());
        assert!(m.bound(1).is_none());
        assert!(m.bound(2).is_some());
    }

    #[test]
    fn heap_size_nonzero() {
        let b = BoundVar::with_prev(
            Some(Tid(1)),
            Tuple::new(vec![Value::from("abc")]),
            Tuple::new(vec![Value::from("ab")]),
        );
        assert!(b.heap_size() > 0);
    }
}
