//! Model-based property test: a [`Relation`] with indexes must behave like
//! a plain `HashMap<Tid, row>` under any operation sequence, and its
//! indexes must always agree with a full scan.

use ariel_storage::{AttrType, IndexKind, Relation, Schema, Tid, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Delete(usize),
    Update(usize, i64, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0i64..50, 0i64..10).prop_map(|(a, b)| Op::Insert(a, b)),
        1 => (0usize..64).prop_map(Op::Delete),
        2 => (0usize..64, 0i64..50, 0i64..10).prop_map(|(p, a, b)| Op::Update(p, a, b)),
    ]
}

proptest! {
    #[test]
    fn relation_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut rel = Relation::new(
            "t",
            Schema::of(&[("a", AttrType::Int), ("b", AttrType::Int)]),
        );
        rel.create_index("a", IndexKind::BTree).unwrap();
        rel.create_index("b", IndexKind::Hash).unwrap();
        let mut model: HashMap<u64, (i64, i64)> = HashMap::new();
        let mut live: Vec<Tid> = Vec::new();

        for op in &ops {
            match op {
                Op::Insert(a, b) => {
                    let tid = rel.insert(vec![Value::Int(*a), Value::Int(*b)]).unwrap();
                    prop_assert!(model.insert(tid.0, (*a, *b)).is_none(), "tid reuse!");
                    live.push(tid);
                }
                Op::Delete(p) => {
                    if live.is_empty() { continue; }
                    let tid = live.swap_remove(p % live.len());
                    let old = rel.delete(tid).unwrap();
                    let m = model.remove(&tid.0).unwrap();
                    prop_assert_eq!(old.get(0).as_i64().unwrap(), m.0);
                    // deleting again must fail
                    prop_assert!(rel.delete(tid).is_err());
                }
                Op::Update(p, a, b) => {
                    if live.is_empty() { continue; }
                    let tid = live[p % live.len()];
                    rel.update(tid, vec![Value::Int(*a), Value::Int(*b)]).unwrap();
                    model.insert(tid.0, (*a, *b));
                }
            }
            // full-state agreement
            prop_assert_eq!(rel.len(), model.len());
            for (tid, (a, b)) in &model {
                let t = rel.get(Tid(*tid)).expect("model tuple live");
                prop_assert_eq!(t.get(0).as_i64().unwrap(), *a);
                prop_assert_eq!(t.get(1).as_i64().unwrap(), *b);
            }
            // index agreement on a few probe keys
            for key in [0i64, 3, 7] {
                let via_index: Vec<u64> = rel
                    .probe_eq(1, &Value::Int(key))
                    .unwrap()
                    .map(|(t, _)| t.0)
                    .collect();
                let mut via_model: Vec<u64> = model
                    .iter()
                    .filter(|(_, (_, b))| *b == key)
                    .map(|(t, _)| *t)
                    .collect();
                let mut via_index = via_index;
                via_index.sort();
                via_model.sort();
                prop_assert_eq!(via_index, via_model, "hash index diverged on b={}", key);
            }
            // range index agreement
            let lo = Value::Int(10);
            let hi = Value::Int(30);
            let mut via_index: Vec<u64> = rel
                .probe_range(0, Bound::Included(&lo), Bound::Excluded(&hi))
                .unwrap()
                .map(|(t, _)| t.0)
                .collect();
            let mut via_model: Vec<u64> = model
                .iter()
                .filter(|(_, (a, _))| (10..30).contains(a))
                .map(|(t, _)| *t)
                .collect();
            via_index.sort();
            via_model.sort();
            prop_assert_eq!(via_index, via_model, "btree index diverged");
        }
    }
}
