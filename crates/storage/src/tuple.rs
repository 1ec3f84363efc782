//! Tuples and tuple identifiers.
//!
//! Tuple identifiers (TIDs) are stable for the lifetime of a tuple and are
//! the handle by which the paper's `replace'`/`delete'` commands locate data
//! to update: the P-node stores TIDs alongside values, and the rule-action
//! executor updates through them without re-scanning the relation (§5.1).

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Stable identifier of a tuple within one relation: the tuple's heap
/// slot and the slot's generation, packed as `gen << 32 | slot`.
///
/// A relation reuses a freed slot under the next generation, so a
/// (slot, generation) never repeats for the lifetime of the
/// [`crate::Relation`]: a TID held past its tuple's delete resolves to
/// nothing, never to the tuple that took the slot. Reading a tuple by TID
/// is an index into the slot vector plus a generation check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u64);

impl Tid {
    /// The TID of generation `gen` of slot `slot`.
    pub const fn new(slot: u32, gen: u32) -> Tid {
        Tid((gen as u64) << 32 | slot as u64)
    }

    /// The heap slot.
    #[inline]
    pub const fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    /// The slot's generation when the tuple was inserted.
    #[inline]
    pub const fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.gen() {
            0 => write!(f, "t{}", self.slot()),
            gen => write!(f, "t{}.{gen}", self.slot()),
        }
    }
}

/// An immutable row of values, cheaply cloneable (shared storage).
///
/// Tuples are shared between the base relation, in-flight tokens, α-memory
/// nodes and P-nodes, so sharing rather than copying matters: the
/// discrimination network holds many references to the same row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from a row of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at an attribute position.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// New tuple with one value replaced (used by `replace`).
    pub fn with(&self, idx: usize, v: Value) -> Tuple {
        let mut vals: Vec<Value> = self.values.to_vec();
        vals[idx] = v;
        Tuple::new(vals)
    }

    /// Concatenate two tuples (join output; Δ-token new/old pairs).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut vals = Vec::with_capacity(self.arity() + other.arity());
        vals.extend_from_slice(&self.values);
        vals.extend_from_slice(&other.values);
        Tuple::new(vals)
    }

    /// Project a subset of attribute positions into a new tuple.
    pub fn project(&self, idxs: &[usize]) -> Tuple {
        Tuple::new(idxs.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Approximate heap size in bytes (for α-memory storage accounting).
    pub fn heap_size(&self) -> usize {
        std::mem::size_of::<Tuple>() + self.values.iter().map(Value::heap_size).sum::<usize>()
    }

    /// Whether two tuples share the same underlying value storage. A clone
    /// always shares; the zero-copy regression tests use this to assert
    /// that a tuple is never deep-copied between the base relation, the
    /// α-memories and the P-node.
    pub fn shares_storage(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn clone_shares_storage() {
        let a = t(&[1, 2, 3]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.values, &b.values));
        assert!(a.shares_storage(&b));
        assert!(!a.shares_storage(&t(&[1, 2, 3])), "separate allocations");
    }

    #[test]
    fn with_replaces_single_value() {
        let a = t(&[1, 2, 3]);
        let b = a.with(1, Value::Int(9));
        assert_eq!(b.values(), &[Value::Int(1), Value::Int(9), Value::Int(3)]);
        // original unchanged
        assert_eq!(a.get(1), &Value::Int(2));
    }

    #[test]
    fn concat_appends() {
        let c = t(&[1]).concat(&t(&[2, 3]));
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(2), &Value::Int(3));
    }

    #[test]
    fn project_picks_positions() {
        let p = t(&[10, 20, 30]).project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(30), Value::Int(10)]);
    }

    #[test]
    fn display() {
        assert_eq!(t(&[1, 2]).to_string(), "(1, 2)");
        assert_eq!(Tid(5).to_string(), "t5");
    }
}
