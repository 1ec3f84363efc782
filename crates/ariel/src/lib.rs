//! # ariel
//!
//! A from-scratch reproduction of the **Ariel active DBMS** rule system
//! (Eric N. Hanson, *Rule Condition Testing and Action Execution in Ariel*,
//! SIGMOD 1992): a relational DBMS with a tightly-coupled production-rule
//! system.
//!
//! * **ARL rules** with pattern, event (`on append/delete/replace`) and
//!   transition (`previous`) conditions, rulesets and priorities;
//! * **logical events**: Δ-sets collapse each transition's physical updates
//!   into net-effect tokens (§2.2.2, §4.3.1);
//! * the **A-TREAT discrimination network**: an interval-skip-list
//!   selection-predicate index plus a TREAT join layer with **virtual
//!   α-memories** (§4);
//! * **set-oriented rule execution**: matched data (the P-node) is bound to
//!   the action by query modification and executed through the query
//!   optimizer, with `replace'`/`delete'` updating through TIDs (§5).
//!
//! ```
//! use ariel::Ariel;
//!
//! let mut db = Ariel::new();
//! db.execute("create emp (name = string, sal = float, dno = int)").unwrap();
//! db.execute("create salaryerror (name = string, oldsal = float, newsal = float)").unwrap();
//! // the paper's raiselimit rule (§2.3)
//! db.execute(
//!     "define rule raiselimit if emp.sal > 1.1 * previous emp.sal \
//!      then append to salaryerror(name = emp.name, oldsal = previous emp.sal, newsal = emp.sal)",
//! ).unwrap();
//! db.execute("append emp (name = \"sam\", sal = 100000, dno = 1)").unwrap();
//! db.execute("replace emp (sal = 150000) where emp.name = \"sam\"").unwrap();
//! let log = db.query("retrieve (salaryerror.all)").unwrap();
//! assert_eq!(log.rows.len(), 1, "a 50% raise trips the limit");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod action;
pub mod agenda;
pub mod catalog;
pub mod delta;
pub mod engine;
pub mod error;
pub mod obs;
pub mod persist;
pub mod rule;
mod trace;

pub use action::ActionOutcome;
pub use catalog::RuleCatalog;
pub use delta::DeltaTracker;
pub use engine::{Ariel, EngineOptions, EngineStats, MemoryStats};
pub use error::{ArielError, ArielResult};
pub use network::{
    TraceEventKind, TraceRecord, TraceRecorder, TraceSource, DEFAULT_TRACE_CAPACITY,
};
pub use obs::WalMetrics;
pub use persist::RecoveryReport;
pub use query::{CmdOutput, Notification};
pub use rule::{Rule, RuleState, DEFAULT_RULESET};
pub use storage::wal::Durability;

// Re-export the layer crates so downstream users need only one dependency.
pub use ariel_islist as islist;
pub use ariel_network as network;
pub use ariel_query as query;
pub use ariel_storage as storage;
