//! Flight-recorder tracing: a bounded ring buffer of structured causal
//! trace events (the third observability tier, next to the always-on
//! counters and the opt-in timing histograms of [`crate::AlphaTiming`]
//! and [`crate::RuleTiming`]).
//!
//! The recorder answers *why* questions the aggregate tiers cannot: which
//! command emitted which token, which tokens matched which α-memories,
//! which TIDs joined into which P-node instantiation, which instantiation
//! a firing consumed, and which firing's action cascaded into the next
//! transition — each event stamped with a global sequence number, the
//! transition id it occurred in, and its cascade depth.
//!
//! Design mirrors the timing tier's gating discipline: the recorder lives
//! in the network as an `Option<TraceRecorder>` (absent by default, so
//! tracing off costs one pointer-width branch per hook), uses interior
//! mutability (one `RefCell` around all recorder state) because the join
//! paths only hold `&self`, and appends in `O(1)` to a fixed-capacity
//! [`VecDeque`] ring — when full, the oldest record is evicted and counted
//! in [`TraceRecorder::dropped`], so memory stays bounded no matter how
//! long tracing runs. The network is the recorder's one owner (the engine
//! reaches it only through `Network::trace`), and the engine runs one
//! transition at a time, so no lock is needed: the recorder is `Send`, and
//! moves between threads with the engine.
//!
//! The engine stamps transition context (id, cascade depth, causing
//! firing) onto the recorder via [`TraceRecorder::begin_transition`];
//! network instrumentation then records match-path events without any
//! knowledge of the recognize-act cycle. Provenance links are sequence
//! numbers: a [`TraceEventKind::Instantiation`] points at the token event
//! that produced it, a [`TraceEventKind::Firing`] at the firing that
//! caused its transition, and a cascaded
//! [`TraceEventKind::TransitionBegin`] back at the firing whose action
//! emitted its tokens.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Default ring capacity when tracing is enabled without an explicit
/// `\trace limit`.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// What started a transition: a top-level user command block, or the
/// action of a rule firing (a cascade).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSource {
    /// A user command block (rendered ARL text, `;`-joined).
    Command(String),
    /// The action of a rule firing.
    RuleAction {
        /// Rule id whose action ran.
        rule: u64,
        /// Sequence number of the [`TraceEventKind::Firing`] record.
        firing: u64,
    },
}

/// One structured trace event. Rules are identified by raw id (the
/// engine layer maps ids back to names when rendering); relations by
/// name; tuples by TID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A transition started (tick advanced, a token batch follows).
    TransitionBegin {
        /// What caused the transition.
        source: TraceSource,
    },
    /// The transition's token batch finished propagating.
    TransitionEnd {
        /// Net-effect tokens processed in the transition.
        tokens: u64,
    },
    /// A net-effect token entered the network.
    TokenEmitted {
        /// Token sign (`+`, `-`, `Δ+`, `Δ-`).
        kind: String,
        /// Relation the token belongs to.
        rel: String,
        /// Tuple id the token refers to.
        tid: u64,
        /// Rendered token (sign, relation, tid, tuple, event).
        desc: String,
    },
    /// The selection network was probed for a token.
    SelnetProbe {
        /// Relation probed.
        rel: String,
        /// α-node candidates returned by the interval skip list.
        candidates: u64,
    },
    /// A token passed an α-node's full selection predicate.
    AlphaPass {
        /// Rule owning the α-node.
        rule: u64,
        /// Variable (condition slot) of the α-node.
        var: usize,
    },
    /// A virtual α-memory materialized its contents from the base
    /// relation during a join.
    VirtualScan {
        /// Rule owning the virtual node.
        rule: u64,
        /// Variable scanned.
        var: usize,
        /// Base-relation tuples scanned.
        scanned: u64,
        /// Tuples that passed the selection predicate.
        served: u64,
    },
    /// A stored α-memory was probed during a join.
    BetaProbe {
        /// Rule owning the probed memory.
        rule: u64,
        /// Variable probed.
        var: usize,
        /// Join candidates the probe produced.
        candidates: u64,
        /// Whether a hash/range index served the probe (vs enumeration).
        indexed: bool,
    },
    /// A complete variable binding reached the rule's P-node.
    Instantiation {
        /// Rule whose P-node grew.
        rule: u64,
        /// TID per variable, in rule variable order (`None` for deleted
        /// tuples and `previous` bindings that no longer exist).
        tids: Vec<Option<u64>>,
        /// Sequence number of the [`TraceEventKind::TokenEmitted`] that
        /// triggered the join (`None` when primed outside a transition).
        token: Option<u64>,
    },
    /// The agenda selected a rule among the eligible set.
    AgendaSchedule {
        /// Rule selected to fire.
        rule: u64,
        /// Number of rules that had non-empty P-nodes.
        eligible: u64,
    },
    /// A rule fired: its P-node was drained and its action executed.
    Firing {
        /// Rule that fired.
        rule: u64,
        /// Instantiations consumed (P-node rows drained).
        instantiations: u64,
        /// Sequence number of the [`TraceEventKind::Firing`] whose
        /// cascade produced this firing's instantiations (`None` when
        /// triggered directly by a user command).
        cause: Option<u64>,
    },
    /// A firing's action produced net-effect tokens (a cascade).
    CascadeDelta {
        /// Sequence number of the causing [`TraceEventKind::Firing`].
        firing: u64,
        /// Tokens the action's transition emitted.
        tokens: u64,
    },
}

impl TraceEventKind {
    /// Stable short name of the event kind, used by `\trace show`, the
    /// Chrome export and the bench event-count table.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEventKind::TransitionBegin { .. } => "transition-begin",
            TraceEventKind::TransitionEnd { .. } => "transition-end",
            TraceEventKind::TokenEmitted { .. } => "token",
            TraceEventKind::SelnetProbe { .. } => "selnet-probe",
            TraceEventKind::AlphaPass { .. } => "alpha-pass",
            TraceEventKind::VirtualScan { .. } => "virtual-scan",
            TraceEventKind::BetaProbe { .. } => "beta-probe",
            TraceEventKind::Instantiation { .. } => "instantiation",
            TraceEventKind::AgendaSchedule { .. } => "agenda-schedule",
            TraceEventKind::Firing { .. } => "firing",
            TraceEventKind::CascadeDelta { .. } => "cascade-delta",
        }
    }
}

/// A recorded trace event with its stamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global sequence number (monotone across the whole engine run,
    /// never reset by eviction — gaps reveal wrapped history).
    pub seq: u64,
    /// Transition id (the engine tick) the event occurred in.
    pub transition: u64,
    /// Cascade depth of that transition (0 = user command).
    pub depth: u32,
    /// Nanoseconds since the recorder was created (monotone).
    pub ts_ns: u64,
    /// Measured duration, when the timing tier supplied one (rule-action
    /// execution time on [`TraceEventKind::Firing`]).
    pub dur_ns: Option<u64>,
    /// The event itself.
    pub kind: TraceEventKind,
}

/// Per-rule provenance carried from the most recent instantiation to the
/// firing that consumes it.
#[derive(Debug, Clone, Copy)]
struct RuleCtx {
    depth: u32,
    transition: u64,
    cause: Option<u64>,
}

/// All mutable recorder state, behind the recorder's one `RefCell`.
#[derive(Debug)]
struct TraceState {
    events: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    transition: u64,
    depth: u32,
    cause: Option<u64>,
    current_token: Option<u64>,
    rule_ctx: HashMap<u64, RuleCtx>,
}

impl TraceState {
    /// Append with eviction; assumes `seq` was already assigned.
    fn push(&mut self, record: TraceRecord) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(record);
    }
}

/// Bounded ring-buffer flight recorder. See the module docs for the
/// design; all methods take `&self` (interior mutability) because the
/// network's join paths record through shared references.
#[derive(Debug)]
pub struct TraceRecorder {
    state: RefCell<TraceState>,
    epoch: Instant,
}

impl TraceRecorder {
    /// Create a recorder holding at most `capacity` events (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            state: RefCell::new(TraceState {
                events: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                next_seq: 0,
                dropped: 0,
                transition: 0,
                depth: 0,
                cause: None,
                current_token: None,
                rule_ctx: HashMap::new(),
            }),
            epoch: Instant::now(),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.state.borrow().capacity
    }

    /// Resize the ring, evicting oldest events if shrinking.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        let mut st = self.state.borrow_mut();
        st.capacity = capacity;
        while st.events.len() > capacity {
            st.events.pop_front();
            st.dropped += 1;
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.state.borrow().events.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.state.borrow().events.is_empty()
    }

    /// Events evicted so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.state.borrow().dropped
    }

    /// Discard all retained events (sequence numbers keep running so
    /// ordering stays global across clears).
    pub fn clear(&self) {
        let mut st = self.state.borrow_mut();
        st.events.clear();
        st.dropped = 0;
    }

    /// Stamp the context every subsequent event inherits: transition id,
    /// cascade depth, and the firing (by sequence number) whose action
    /// started the transition (`None` for user commands). Also resets the
    /// current-token link.
    pub fn begin_transition(&self, transition: u64, depth: u32, cause: Option<u64>) {
        let mut st = self.state.borrow_mut();
        st.transition = transition;
        st.depth = depth;
        st.cause = cause;
        st.current_token = None;
    }

    /// Current transition id (as stamped by [`Self::begin_transition`]).
    pub fn transition(&self) -> u64 {
        self.state.borrow().transition
    }

    /// Current cascade depth.
    pub fn depth(&self) -> u32 {
        self.state.borrow().depth
    }

    /// Record an event with the current context. Returns its sequence
    /// number. `O(1)`: one ring append, plus bookkeeping for the
    /// provenance links (token events set the current-token link;
    /// instantiations remember their context per rule so the eventual
    /// firing inherits the right depth and cascade parent).
    pub fn record(&self, kind: TraceEventKind) -> u64 {
        self.record_with_dur(kind, None)
    }

    /// [`Self::record`] with a measured duration attached (used for rule
    /// firings when the timing tier is on).
    pub fn record_with_dur(&self, kind: TraceEventKind, dur_ns: Option<u64>) -> u64 {
        let mut st = self.state.borrow_mut();
        let seq = st.next_seq;
        st.next_seq += 1;
        match &kind {
            TraceEventKind::TokenEmitted { .. } => st.current_token = Some(seq),
            TraceEventKind::Instantiation { rule, .. } => {
                let ctx = RuleCtx {
                    depth: st.depth,
                    transition: st.transition,
                    cause: st.cause,
                };
                st.rule_ctx.insert(*rule, ctx);
            }
            _ => {}
        }
        let record = TraceRecord {
            seq,
            transition: st.transition,
            depth: st.depth,
            ts_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns,
            kind,
        };
        st.push(record);
        seq
    }

    /// Record a P-node instantiation, linking it to the token event that
    /// triggered the join (the most recent [`TraceEventKind::TokenEmitted`]
    /// in this transition, if any).
    pub fn record_instantiation(&self, rule: u64, tids: Vec<Option<u64>>) -> u64 {
        let token = self.state.borrow().current_token;
        self.record(TraceEventKind::Instantiation { rule, tids, token })
    }

    /// Record a rule firing. The firing's depth, transition, and cascade
    /// parent come from the rule's most recent instantiation (which may
    /// predate the current transition when several rules were eligible),
    /// falling back to the current context. Returns `(seq, depth)` so the
    /// engine can stamp the cascade transition it starts next.
    pub fn record_firing(&self, rule: u64, instantiations: u64, dur_ns: Option<u64>) -> (u64, u32) {
        let mut st = self.state.borrow_mut();
        let ctx = st.rule_ctx.get(&rule).copied();
        let (depth, transition, cause) = match ctx {
            Some(c) => (c.depth, c.transition, c.cause),
            None => (st.depth, st.transition, st.cause),
        };
        let seq = st.next_seq;
        st.next_seq += 1;
        let record = TraceRecord {
            seq,
            transition,
            depth,
            ts_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns,
            kind: TraceEventKind::Firing {
                rule,
                instantiations,
                cause,
            },
        };
        st.push(record);
        (seq, depth)
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.state.borrow().events.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token(i: u64) -> TraceEventKind {
        TraceEventKind::TokenEmitted {
            kind: "+".into(),
            rel: "emp".into(),
            tid: i,
            desc: format!("+emp t{i}"),
        }
    }

    #[test]
    fn ring_wraps_and_stays_bounded() {
        let tr = TraceRecorder::new(4);
        for i in 0..10 {
            tr.record(token(i));
        }
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.dropped(), 6);
        let snap = tr.snapshot();
        // Oldest evicted, newest retained, sequence numbers global.
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        // Timestamps are monotone.
        assert!(snap.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn shrinking_capacity_trims_oldest() {
        let tr = TraceRecorder::new(8);
        for i in 0..8 {
            tr.record(token(i));
        }
        tr.set_capacity(3);
        assert_eq!(tr.capacity(), 3);
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.snapshot()[0].seq, 5);
        assert_eq!(tr.dropped(), 5);
    }

    #[test]
    fn context_stamps_events() {
        let tr = TraceRecorder::new(16);
        tr.begin_transition(7, 2, Some(3));
        let seq = tr.record(token(1));
        let rec = &tr.snapshot()[0];
        assert_eq!((rec.seq, rec.transition, rec.depth), (seq, 7, 2));
    }

    #[test]
    fn instantiation_links_token_and_firing_inherits_context() {
        let tr = TraceRecorder::new(16);
        tr.begin_transition(3, 1, Some(11));
        let tok = tr.record(token(5));
        tr.record_instantiation(42, vec![Some(5), None]);
        // A later transition must not disturb the firing's provenance.
        tr.begin_transition(4, 2, Some(99));
        let (seq, depth) = tr.record_firing(42, 1, None);
        let snap = tr.snapshot();
        let inst = &snap[1];
        assert_eq!(
            inst.kind,
            TraceEventKind::Instantiation {
                rule: 42,
                tids: vec![Some(5), None],
                token: Some(tok),
            }
        );
        let firing = snap.iter().find(|r| r.seq == seq).unwrap();
        assert_eq!(depth, 1, "firing depth follows the instantiation");
        assert_eq!((firing.transition, firing.depth), (3, 1));
        assert_eq!(
            firing.kind,
            TraceEventKind::Firing {
                rule: 42,
                instantiations: 1,
                cause: Some(11),
            }
        );
    }

    #[test]
    fn clear_keeps_sequence_running() {
        let tr = TraceRecorder::new(4);
        tr.record(token(0));
        tr.record(token(1));
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
        let seq = tr.record(token(2));
        assert_eq!(seq, 2, "sequence numbers stay global across clears");
    }
}
