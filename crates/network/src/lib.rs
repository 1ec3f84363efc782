//! # ariel-network
//!
//! Discrimination networks for rule-condition testing in the Ariel
//! reproduction: the paper's **A-TREAT** network (selection-predicate
//! index + TREAT join layer + virtual α-memories), plus a **Rete**
//! network as the comparison baseline. Classic TREAT is A-TREAT under
//! [`VirtualPolicy::AllStored`]. Both networks plan their joins the same
//! way, under a [`JoinAccess`] fixed when the network is built:
//! [`JoinAccess::Nested`] is the paper's plain nested-loop join (classic
//! TREAT, classic Rete), the default [`JoinAccess::Composite`] probes hash
//! and interval indexes instead.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alpha;
mod conflict;
pub mod key;
mod plan;
pub mod pred;
pub mod rete;
pub mod selnet;
mod store;
pub mod token;
pub mod trace;
pub mod treat;

pub use alpha::{
    AlphaCounters, AlphaEntry, AlphaId, AlphaKind, AlphaNode, AlphaTiming, EventReq, RuleId,
};
pub use key::{KeyBuilder, SmallKey};
pub use plan::JoinAccess;
pub use pred::SelectionPredicate;
pub use rete::ReteNetwork;
pub use selnet::SelectionNetwork;
pub use token::{EventSpecifier, Token, TokenKind};
pub use trace::{TraceEventKind, TraceRecord, TraceRecorder, TraceSource, DEFAULT_TRACE_CAPACITY};
pub use treat::{Network, NetworkStats, RuleStats, RuleTiming, RuleTopology, VirtualPolicy};
