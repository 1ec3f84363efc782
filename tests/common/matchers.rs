//! The matchers the oracle suites drive side by side — the A-TREAT
//! network under a virtual policy and the Rete comparison network in a
//! join mode — plus the canonical form of a P-node and the from-scratch
//! evaluation it is compared with.

use ariel::network::{Network, NetworkStats, ReteMode, ReteNetwork, RuleId, Token, VirtualPolicy};
use ariel::query::{run_plan, ExecCtx, Optimizer, Pnode, ResolvedCondition};
use ariel::storage::Catalog;

/// Which matcher a stream runs against.
#[derive(Debug, Clone)]
pub enum Config {
    Treat(VirtualPolicy),
    /// TREAT with its join access paths ablated: `indexing` off joins by
    /// nested loops, `composite` off probes one attribute of a
    /// multi-conjunct equi-join and re-tests the rest. Only
    /// `network_equivalence.rs` ablates them.
    #[allow(dead_code)]
    TreatJoins {
        policy: VirtualPolicy,
        indexing: bool,
        composite: bool,
    },
    Rete(VirtualPolicy, ReteMode),
}

pub enum Net {
    Treat(Box<Network>),
    Rete(Box<ReteNetwork>),
}

impl Net {
    /// Compile and prime `conds` as rules `0..` on the configured matcher.
    pub fn build(config: &Config, conds: &[ResolvedCondition], cat: &Catalog) -> Net {
        let id = |i: usize| RuleId(i as u64);
        let treat = |policy: &VirtualPolicy, indexing: bool, composite: bool| {
            let mut n = Network::new();
            n.set_join_indexing(indexing);
            n.set_composite_keys(composite);
            for (i, c) in conds.iter().enumerate() {
                n.add_rule(id(i), c, policy, cat).unwrap();
                n.prime(id(i), cat).unwrap();
            }
            Net::Treat(Box::new(n))
        };
        match config {
            Config::Treat(policy) => treat(policy, true, true),
            Config::TreatJoins {
                policy,
                indexing,
                composite,
            } => treat(policy, *indexing, *composite),
            Config::Rete(policy, mode) => {
                let mut n = ReteNetwork::with_policy(policy.clone());
                n.set_mode(*mode);
                for (i, c) in conds.iter().enumerate() {
                    n.add_rule(id(i), c, cat).unwrap();
                    n.prime(id(i), cat).unwrap();
                }
                Net::Rete(Box::new(n))
            }
        }
    }

    pub fn process_batch(&mut self, tokens: &[Token], cat: &Catalog) {
        match self {
            Net::Treat(n) => n.process_batch(tokens, cat).unwrap(),
            Net::Rete(n) => n.process_batch(tokens, cat).unwrap(),
        }
    }

    pub fn pnode(&self, rule: usize) -> &Pnode {
        let id = RuleId(rule as u64);
        match self {
            Net::Treat(n) => n.pnode(id).unwrap(),
            Net::Rete(n) => n.pnode(id).unwrap(),
        }
    }

    pub fn rules_with_matches(&self) -> Vec<RuleId> {
        match self {
            Net::Treat(n) => n.rules_with_matches(),
            Net::Rete(n) => n.rules_with_matches(),
        }
    }

    pub fn stats(&self) -> NetworkStats {
        match self {
            Net::Treat(n) => n.stats(),
            Net::Rete(n) => n.stats(),
        }
    }
}

/// Sorted TID combinations: the canonical form of a set of instantiations.
pub type TidRows = Vec<Vec<Option<u64>>>;

pub fn pnode_tids(p: &Pnode) -> TidRows {
    let mut rows: TidRows = p
        .rows()
        .iter()
        .map(|r| r.iter().map(|b| b.tid.map(|t| t.0)).collect())
        .collect();
    rows.sort();
    rows
}

/// From-scratch evaluation of a condition through the query optimizer.
pub fn recompute(cat: &Catalog, cond: &ResolvedCondition) -> TidRows {
    let plan = Optimizer::new(cat).plan(&cond.spec).unwrap();
    let ctx = ExecCtx {
        catalog: cat,
        pnode: None,
        nvars: cond.spec.vars.len(),
    };
    let mut rows: TidRows = run_plan(&plan, &ctx)
        .unwrap()
        .iter()
        .map(|r| {
            r.slots
                .iter()
                .map(|s| s.as_ref().and_then(|b| b.tid).map(|t| t.0))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}
