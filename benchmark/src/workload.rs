//! Set-up of a workload's engine and the check of what a run left in it.

use crate::gen::{
    emp_bands, kv_bands, kv_rules, kv_schema, EmpGen, EmpShape, Expected, Generator, KvGen,
    RelDigest,
};
use crate::spec::{Shape, Workload};
use ariel::islist::Interval;
use ariel::network::VirtualPolicy;
use ariel::storage::Value;
use ariel::{Ariel, Durability, EngineOptions};
use std::path::Path;
use std::sync::Arc;

/// Client threads and connections: `nproc` here is 2, and a closed loop
/// with more callers than cores measures the scheduler.
pub const CLIENTS: usize = 2;

pub type Res<T> = Result<T, String>;

/// A workload ready to serve: the engine, one generator per client, and
/// what the rows no client owns contribute to the expected state.
pub struct Built {
    pub db: Ariel,
    pub gens: Vec<Box<dyn Generator>>,
    pub shared: Expected,
    /// Intervals the workload's rules register in the selection network.
    pub bands: Vec<Interval<Value>>,
}

pub fn engine_options(w: &Workload, durable: bool) -> EngineOptions {
    EngineOptions {
        virtual_policy: if w.all_virtual {
            VirtualPolicy::AllVirtual
        } else {
            VirtualPolicy::AllStored
        },
        durability: if durable {
            Durability::Commit
        } else {
            Durability::Off
        },
        ..Default::default()
    }
}

/// Create schema and indexes, load rows, install and activate every rule
/// (priming its memories over the loaded rows), fire the instantiations
/// priming found so that traffic starts from quiescence, and — with a
/// `wal_dir` — checkpoint there, which attaches the commit-mode log.
/// The engine receives generated text only.
pub fn build(w: &Workload, seed: u64, wal_dir: Option<&Path>) -> Res<Built> {
    let mut db = Ariel::with_options(engine_options(w, wal_dir.is_some()));
    let mut gens: Vec<Box<dyn Generator>> = Vec::with_capacity(CLIENTS);
    let mut shared = Expected::new();
    let (schema, mut preload, rules, bands);
    match w.shape {
        Shape::Kv => {
            (schema, preload, rules, bands) = (kv_schema(), Vec::new(), kv_rules(), kv_bands());
            for client in 0..CLIENTS as u64 {
                let (g, rows) = KvGen::new(seed, client);
                gens.push(Box::new(g));
                preload.extend(rows);
            }
        }
        Shape::Fanout | Shape::Join => {
            let shape = Arc::new(match w.shape {
                Shape::Join => EmpShape::join_churn(seed),
                _ => EmpShape::fanout(),
            });
            (schema, preload, rules, bands) =
                (shape.schema(), shape.preload(), shape.rules(), emp_bands());
            shape.expected(&mut shared);
            for client in 0..CLIENTS as u64 {
                let (g, rows) = EmpGen::new(seed, client, shape.clone());
                gens.push(Box::new(g));
                preload.extend(rows);
            }
        }
    }
    for cmd in schema.iter().chain(&preload).chain(&rules) {
        db.execute(cmd)
            .map_err(|e| format!("set-up `{cmd}`: {e}"))?;
    }
    db.run_rules()
        .map_err(|e| format!("firing primed rules: {e}"))?;
    if let Some(dir) = wal_dir {
        db.checkpoint(dir).map_err(|e| format!("checkpoint: {e}"))?;
    }
    Ok(Built {
        db,
        gens,
        shared,
        bands,
    })
}

/// Digest of every relation in the engine, by `retrieve`.
pub fn fingerprint(db: &mut Ariel) -> Res<Fingerprint> {
    let mut out = Fingerprint::new();
    for rel in db.catalog().names() {
        let rows = db
            .query(&format!("retrieve ({rel}.all)"))
            .map_err(|e| format!("retrieve {rel}: {e}"))?
            .rows;
        let mut d = RelDigest::default();
        let mut cells = Vec::new();
        for row in rows {
            cells.clear();
            for v in &row {
                match v {
                    Value::Int(i) => cells.push(*i),
                    other => return Err(format!("{rel} holds non-int {other}")),
                }
            }
            d.add(&cells);
        }
        out.insert(rel, d);
    }
    Ok(out)
}

/// [`fingerprint`]'s result: digests keyed by the engine's relation names.
pub type Fingerprint = std::collections::BTreeMap<String, RelDigest>;

/// Compare the engine's relations with what the generators' model expects:
/// live rows of every relation, and every row a rule action wrote.
/// Returns one line per mismatch.
pub fn verify(db: &mut Ariel, gens: &[Box<dyn Generator>], shared: &Expected) -> Res<Vec<String>> {
    let mut want = shared.clone();
    for g in gens {
        g.expected(&mut want);
    }
    let got = fingerprint(db)?;
    let mut bad = Vec::new();
    for (rel, w) in &want {
        match got.get(*rel) {
            Some(g) if g == w => {}
            Some(g) => bad.push(format!(
                "{rel}: {} rows (digest {:016x}), expected {} rows (digest {:016x})",
                g.rows, g.sum, w.rows, w.sum
            )),
            None => bad.push(format!("{rel}: relation missing")),
        }
    }
    for rel in got.keys().filter(|r| !want.contains_key(r.as_str())) {
        bad.push(format!("{rel}: relation not in the model"));
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// Each workload at 1/100 size, in process: set-up plus a few hundred
    /// requests must leave exactly what the model expects.
    #[test]
    fn model_matches_engine_on_every_workload() {
        for w in WORKLOADS.iter().filter(|w| !w.durable) {
            let mut b = build(w, 11, None).unwrap();
            assert_eq!(
                verify(&mut b.db, &b.gens, &b.shared).unwrap(),
                Vec::<String>::new()
            );
            let mut reqs = Vec::new();
            for _ in 0..40 {
                for g in &mut b.gens {
                    g.next_cycle(&mut reqs);
                }
            }
            for r in &reqs {
                let out = if r.is_query() {
                    b.db.query(&r.text).unwrap()
                } else {
                    let outs = b.db.execute(&r.text).unwrap();
                    assert_eq!(outs.len(), 1);
                    outs.into_iter().next().unwrap()
                };
                assert_eq!(out.changes.len() as u32, r.changes, "{}", r.text);
                if let Some(v) = r.cell {
                    assert_eq!(out.rows, vec![vec![Value::Int(v)]], "{}", r.text);
                }
            }
            assert_eq!(
                verify(&mut b.db, &b.gens, &b.shared).unwrap(),
                Vec::<String>::new(),
                "{}",
                w.name
            );
        }
    }
}
