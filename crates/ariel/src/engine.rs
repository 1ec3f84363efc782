//! The Ariel engine: command dispatch, transitions, and the recognize-act
//! cycle (Fig. 1).

use crate::action::{self, PrepareCounts, Prepared};
use crate::agenda::{self, Eligible};
use crate::catalog::RuleCatalog;
use crate::delta::DeltaTracker;
use crate::error::{ArielError, ArielResult};
use crate::obs;
use crate::rule::RuleState;
use ariel_islist::{Histogram, Metrics};
use ariel_network::{
    Network, NetworkStats, RuleId, RuleStats, Token, TraceEventKind, TraceRecord, TraceRecorder,
    TraceSource, VirtualPolicy, DEFAULT_TRACE_CAPACITY,
};
use ariel_query::{
    execute as execute_query, modify_action, parse_command, parse_script, CmdOutput, Command,
    Notification, Resolver, RuleDef,
};
use ariel_storage::wal::{Durability, WalStats, WalWriter};
use ariel_storage::{AttrDef, Catalog, FxHashMap, Schema};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Which eligible α-memories become virtual (§4.2).
    pub virtual_policy: VirtualPolicy,
    /// Upper bound on rule firings per recognize-act cycle (runaway guard).
    pub max_firings: usize,
    /// Enable the gated timing tier (per-phase histograms) from the start.
    /// The always-on counters are collected regardless; this flag only
    /// controls wall-clock timing capture. See `docs/OBSERVABILITY.md`.
    pub observability: bool,
    /// Enable the flight-recorder trace tier (bounded ring of causal
    /// trace events; the third observability tier) from the start. Off by
    /// default — when off, the recorder is never allocated and every
    /// trace hook is a single `Option` check. See `docs/OBSERVABILITY.md`.
    pub tracing: bool,
    /// Write-ahead-log fsync policy used once durability is switched on by
    /// [`Ariel::checkpoint`] (or the CLI's `--durability` / `\checkpoint`).
    /// [`Durability::Off`] (the default) attaches no log writer at all, so
    /// transitions cost nothing extra. See `docs/DURABILITY.md`.
    pub durability: Durability,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            virtual_policy: VirtualPolicy::AllStored,
            max_firings: 10_000,
            observability: false,
            tracing: false,
            durability: Durability::Off,
        }
    }
}

/// Cumulative engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transitions processed (commands, blocks, and rule actions).
    pub transitions: u64,
    /// Tokens pushed through the discrimination network.
    pub tokens: u64,
    /// Rule firings.
    pub firings: u64,
    /// Rule-action commands resolved and planned with nothing prepared to
    /// reuse (a rule's first firing, or after a failed derivation). Like
    /// the next field, not snapshotted: it counts since engine start or
    /// recovery.
    pub action_prepares: u64,
    /// Prepared rule-action commands re-resolved and re-planned because
    /// something they were derived from changed (see [`crate::action`]).
    pub action_replans: u64,
}

/// Per-memory byte breakdown of the live match state (see
/// [`Ariel::memory_stats`]). All byte figures are the same approximations
/// the network's `heap_size` accounting produces. The symbol-table figures
/// are process-global (every engine in the process shares the table); the
/// scratch figure is this engine's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Entries across stored/dynamic α-memories.
    pub alpha_entries: usize,
    /// Bytes held by α-memory entries and their join/range indexes.
    pub alpha_bytes: usize,
    /// Bytes held in β-memories: always 0 in the engine, whose A-TREAT
    /// network keeps none. The Rete comparison's β bytes are in the NET
    /// table (`paper_tables -- net`).
    pub beta_bytes: usize,
    /// Matched instantiations across all P-nodes.
    pub pnode_rows: usize,
    /// Bytes held by P-nodes.
    pub pnode_bytes: usize,
    /// Bytes in the selection network's interval indexes.
    pub selnet_bytes: usize,
    /// Distinct strings in the global symbol table.
    pub symbols: usize,
    /// Bytes held by the symbol table (payload + per-entry bookkeeping).
    pub symbol_bytes: usize,
    /// Bytes this engine's match path retains in scratch buffers between
    /// tokens (see [`Network::scratch_bytes`]). Not match state: no other
    /// byte figure here includes it.
    pub scratch_bytes: usize,
}

impl MemoryStats {
    /// Average α-memory bytes per stored entry (0.0 when empty) — the
    /// headline figure the interning/flat-key work reduces.
    pub fn alpha_bytes_per_entry(&self) -> f64 {
        if self.alpha_entries == 0 {
            0.0
        } else {
            self.alpha_bytes as f64 / self.alpha_entries as f64
        }
    }
}

/// What the recognize-act cycle needs of an active rule, filled at
/// activation so a firing looks nothing up in the rule catalog and clones
/// no syntax tree.
#[derive(Debug)]
pub(crate) struct ActiveRule {
    pub(crate) name: Arc<str>,
    priority: f64,
    /// The query-modified action.
    action: Box<[Command]>,
    /// One slot per action command: resolved and planned at the first
    /// firing, reused while its stamp holds (see [`crate::action`]).
    prepared: Box<[Option<Prepared>]>,
    /// How often this rule's action commands were derived since its
    /// activation.
    pub(crate) prepare_counts: PrepareCounts,
    /// Recency for conflict resolution: tick of the last transition that
    /// added an instantiation to the rule's P-node (0 = never).
    pub(crate) last_matched: u64,
    /// Wall-clock ns per action execution, while the timing tier is on.
    pub(crate) action_exec: Option<Box<Histogram>>,
}

/// The Ariel active DBMS.
///
/// ```
/// use ariel::Ariel;
///
/// let mut db = Ariel::new();
/// db.execute("create emp (name = string, sal = float)").unwrap();
/// db.execute(
///     "define rule NoBobs on append emp if emp.name = \"Bob\" then delete emp",
/// )
/// .unwrap();
/// db.execute("append emp (name = \"Bob\", sal = 10000)").unwrap();
/// let out = db.query("retrieve (emp.name)").unwrap();
/// assert!(out.rows.is_empty(), "the rule deleted Bob");
/// ```
#[derive(Debug)]
pub struct Ariel {
    pub(crate) catalog: Catalog,
    pub(crate) rules: RuleCatalog,
    pub(crate) network: Network,
    pub(crate) options: EngineOptions,
    /// One record per active rule, keyed by rule id.
    pub(crate) active: FxHashMap<u64, ActiveRule>,
    /// Relations referenced by each active rule's condition.
    cond_rels: HashMap<u64, HashSet<String>>,
    pub(crate) tick: u64,
    pub(crate) stats: EngineStats,
    /// Action executions per rule id (the `ariel_rule_firings_total`
    /// Prometheus family). Unlike [`EngineStats::firings`] this is not
    /// snapshotted: it counts since engine start or recovery.
    pub(crate) firings_by_rule: FxHashMap<u64, u64>,
    /// Pending asynchronous notifications (§8 future work: alert monitors,
    /// stock tickers). Consumers drain with [`Ariel::drain_notifications`].
    notifications: std::collections::VecDeque<Notification>,
    /// Wall-clock ns per token batch pushed through the network; `Some`
    /// exactly while the timing tier is on.
    pub(crate) match_batch: Option<Histogram>,
    /// Ring capacity used when tracing is (re-)enabled; `\trace limit`.
    trace_limit: usize,
    /// Attached write-ahead-log writer (None until [`Ariel::checkpoint`]
    /// enables durability, and always None under [`Durability::Off`]).
    pub(crate) wal: Option<WalWriter>,
    /// Durability directory of the last checkpoint/recovery, if any.
    pub(crate) wal_dir: Option<PathBuf>,
    /// What the writers detached at checkpoints, durability-mode changes
    /// and recovery did (see [`Ariel::wal_metrics`]).
    pub(crate) wal_detached: WalStats,
    /// Records that failed to replay during the last [`Ariel::recover`].
    pub(crate) replay_errors: u64,
}

impl Default for Ariel {
    fn default() -> Self {
        Self::new()
    }
}

impl Ariel {
    /// New engine with default options.
    pub fn new() -> Self {
        Self::with_options(EngineOptions::default())
    }

    /// New engine with explicit options.
    pub fn with_options(options: EngineOptions) -> Self {
        let mut engine = Ariel {
            catalog: Catalog::new(),
            rules: RuleCatalog::new(),
            network: Network::new(),
            options,
            active: FxHashMap::default(),
            cond_rels: HashMap::new(),
            tick: 0,
            stats: EngineStats::default(),
            firings_by_rule: FxHashMap::default(),
            notifications: std::collections::VecDeque::new(),
            match_batch: None,
            trace_limit: DEFAULT_TRACE_CAPACITY,
            wal: None,
            wal_dir: None,
            wal_detached: WalStats::default(),
            replay_errors: 0,
        };
        if engine.options.observability {
            engine.set_observability(true);
        }
        if engine.options.tracing {
            engine.set_tracing(true);
        }
        engine
    }

    /// Execute a script of one or more commands; returns one output per
    /// top-level command.
    pub fn execute(&mut self, src: &str) -> ArielResult<Vec<CmdOutput>> {
        let cmds = parse_script(src)?;
        let mut outputs = Vec::with_capacity(cmds.len());
        for cmd in &cmds {
            outputs.push(self.execute_command(cmd)?);
        }
        Ok(outputs)
    }

    /// Execute a single command given as source text and return its output
    /// (convenience for `retrieve`).
    pub fn query(&mut self, src: &str) -> ArielResult<CmdOutput> {
        let cmd = parse_command(src)?;
        self.execute_command(&cmd)
    }

    /// Execute one parsed command.
    pub fn execute_command(&mut self, cmd: &Command) -> ArielResult<CmdOutput> {
        match cmd {
            Command::Halt => Ok(CmdOutput::default()), // meaningful inside actions only
            Command::Block(cmds) => self.run_transition(cmds),
            Command::Append { .. }
            | Command::Delete { .. }
            | Command::Replace { .. }
            | Command::Retrieve { .. }
            | Command::Notify { .. } => self.run_transition(std::slice::from_ref(cmd)),
            // schema / rule-lifecycle commands: logged to the WAL whether
            // they succeeded or failed — a failure can still leave effects
            // behind (a `define rule` whose activation fails stays
            // installed), and replaying the command reproduces the same
            // outcome deterministically.
            ddl => {
                let result = self.execute_ddl(ddl);
                self.wal_log_command(ddl)?;
                result
            }
        }
    }

    /// Schema and rule-lifecycle commands (everything but DML, blocks and
    /// `halt`, which [`Ariel::execute_command`] routes elsewhere).
    fn execute_ddl(&mut self, cmd: &Command) -> ArielResult<CmdOutput> {
        match cmd {
            Command::CreateRelation { name, attrs } => {
                let schema = Schema::new(
                    attrs
                        .iter()
                        .map(|(n, t)| AttrDef::new(n.clone(), *t))
                        .collect(),
                )?;
                self.catalog.create(name, Arc::new(schema))?;
                Ok(CmdOutput::default())
            }
            Command::DestroyRelation { name } => {
                // an active rule watching the relation blocks destruction
                for (rule_key, rels) in &self.cond_rels {
                    if rels.contains(name) {
                        let rule = self
                            .rules
                            .by_id(RuleId(*rule_key))
                            .map(|r| r.name.clone())
                            .unwrap_or_default();
                        return Err(ArielError::RelationInUse {
                            relation: name.clone(),
                            rule,
                        });
                    }
                }
                self.catalog.destroy(name)?;
                Ok(CmdOutput::default())
            }
            Command::CreateIndex { rel, attr, kind } => {
                self.catalog.require_mut(rel)?.create_index(attr, *kind)?;
                Ok(CmdOutput::default())
            }
            Command::DefineRule(def) => {
                // `define rule` installs and activates in one step; the
                // lower-level API keeps the phases separate (as the paper's
                // measurements do).
                let name = self.install_rule(def.clone())?;
                self.activate_rule(&name)?;
                Ok(CmdOutput::default())
            }
            Command::DropRule { name } => {
                if self.rules.require(name)?.is_active() {
                    self.deactivate_rule(name)?;
                }
                self.rules.remove(name)?;
                Ok(CmdOutput::default())
            }
            Command::ActivateRule { name } => {
                self.activate_rule(name)?;
                Ok(CmdOutput::default())
            }
            Command::DeactivateRule { name } => {
                self.deactivate_rule(name)?;
                Ok(CmdOutput::default())
            }
            other => unreachable!("execute_ddl called with `{}`", other.kind_name()),
        }
    }

    // ----- rule lifecycle ----------------------------------------------------

    /// Install a rule: store its syntax tree in the rule catalog (§6's
    /// *installation* phase). Returns the rule name.
    pub fn install_rule(&mut self, def: RuleDef) -> ArielResult<String> {
        let name = def.name.clone();
        self.rules.install(def)?;
        Ok(name)
    }

    /// Install a rule given as `define rule …` source text.
    pub fn install_rule_src(&mut self, src: &str) -> ArielResult<String> {
        match parse_command(src)? {
            Command::DefineRule(def) => self.install_rule(def),
            other => Err(ArielError::Query(ariel_query::QueryError::Semantic(
                format!("expected `define rule`, found `{}`", other.kind_name()),
            ))),
        }
    }

    /// Activate an installed rule (§6's *activation* phase): resolve the
    /// condition, build and prime the discrimination network, and store the
    /// query-modified action. Pre-existing matching data is loaded into the
    /// P-node; it is acted on at the next transition's recognize-act cycle
    /// (activation itself does not fire rules — matching the paper's
    /// measurement methodology). Call [`Ariel::run_rules`] to fire
    /// immediately.
    pub fn activate_rule(&mut self, name: &str) -> ArielResult<()> {
        let rule = self.rules.require(name)?;
        if rule.is_active() {
            return Err(ArielError::AlreadyActive(name.to_string()));
        }
        let id = rule.id;
        let priority = rule.priority;
        let def = rule.def.clone();
        let resolved = Resolver::new(&self.catalog).resolve_condition(
            def.on.as_ref(),
            def.condition.as_ref(),
            &def.cond_from,
        )?;
        let shared: HashSet<String> = resolved.spec.vars.iter().map(|v| v.name.clone()).collect();
        let rels: HashSet<String> = resolved.spec.vars.iter().map(|v| v.rel.clone()).collect();
        let modified: Box<[Command]> = modify_action(&def.action, &shared).into();
        self.network
            .add_rule(id, &resolved, &self.options.virtual_policy, &self.catalog)?;
        if let Err(e) = self.network.prime(id, &self.catalog) {
            self.network.remove_rule(id);
            return Err(e.into());
        }
        self.active.insert(
            id.0,
            ActiveRule {
                name: name.into(),
                priority,
                prepared: modified.iter().map(|_| None).collect(),
                action: modified,
                prepare_counts: PrepareCounts::default(),
                last_matched: 0,
                action_exec: self.observing().then(Box::default),
            },
        );
        self.cond_rels.insert(id.0, rels);
        self.rules.get_mut(name).expect("installed").state = RuleState::Active;
        // priming may have loaded the P-node
        self.stamp_gained();
        Ok(())
    }

    /// Deactivate an active rule: tear down its network structures and
    /// drop its prepared action. The definition stays installed.
    pub fn deactivate_rule(&mut self, name: &str) -> ArielResult<()> {
        let rule = self.rules.require(name)?;
        if !rule.is_active() {
            return Err(ArielError::NotActive(name.to_string()));
        }
        let id = rule.id;
        self.network.remove_rule(id);
        self.active.remove(&id.0);
        self.cond_rels.remove(&id.0);
        self.rules.get_mut(name).expect("installed").state = RuleState::Installed;
        Ok(())
    }

    // ----- transitions & the recognize-act cycle ------------------------------

    /// Run a transition: execute the commands (a single command, or the
    /// body of a `do…end` block), push the resulting tokens through the
    /// discrimination network, then run the recognize-act cycle to
    /// quiescence. Returns the commands' outputs merged into one.
    fn run_transition(&mut self, cmds: &[Command]) -> ArielResult<CmdOutput> {
        let mut delta = DeltaTracker::new();
        let mut merged = CmdOutput::default();
        self.tick += 1;
        self.stats.transitions += 1;
        if let Some(tr) = self.network.trace() {
            tr.begin_transition(self.tick, 0, None);
            let text = cmds
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            tr.record(TraceEventKind::TransitionBegin {
                source: TraceSource::Command(text),
            });
        }
        let mut transition_tokens = 0u64;
        let mut failed: Option<ArielError> = None;
        for cmd in cmds {
            let out = match self.apply_dml(cmd) {
                Ok(out) => out,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            };
            let tokens = delta.tokens_for_all(&out.changes);
            self.stats.tokens += tokens.len() as u64;
            transition_tokens += tokens.len() as u64;
            let batch_start = self.observing().then(std::time::Instant::now);
            let batch = self.network.process_batch(&tokens, &self.catalog);
            if let (Some(h), Some(t0)) = (&self.match_batch, batch_start) {
                h.record(t0.elapsed().as_nanos() as u64);
            }
            self.notifications.extend(out.notifications.iter().cloned());
            merged.changes.extend(out.changes);
            merged.notifications.extend(out.notifications);
            if !out.columns.is_empty() {
                if merged.columns == out.columns {
                    // several retrieves with the same shape (e.g. the same
                    // `retrieve` repeated in a do…end block) accumulate
                    merged.rows.extend(out.rows);
                } else {
                    merged.columns = out.columns;
                    merged.rows = out.rows;
                }
            }
            if let Err(e) = batch {
                failed = Some(e.into());
                break;
            }
        }
        // a mid-transition error must not leave a dangling TransitionBegin
        // in the flight recorder: close the span either way
        if let Some(tr) = self.network.trace() {
            tr.record(TraceEventKind::TransitionEnd {
                tokens: transition_tokens,
            });
        }
        // the commands' effects (even partial, on error) are already in the
        // relations and there is no rollback: log the transition before
        // acking or firing rules, so replay reproduces exactly this state —
        // a failing command fails identically on replay
        self.wal_log_transition(cmds)?;
        if let Some(e) = failed {
            return Err(e);
        }
        self.recognize_act()?;
        Ok(merged)
    }

    /// Resolve and execute one DML command (no rule processing).
    fn apply_dml(&mut self, cmd: &Command) -> ArielResult<CmdOutput> {
        match cmd {
            Command::Append { .. }
            | Command::Delete { .. }
            | Command::Replace { .. }
            | Command::Retrieve { .. }
            | Command::Notify { .. } => {
                let rcmd = Resolver::new(&self.catalog).resolve_command(cmd)?;
                Ok(execute_query(&rcmd, &mut self.catalog, None)?)
            }
            Command::Halt => Ok(CmdOutput::default()),
            other => Err(ArielError::Query(ariel_query::QueryError::Semantic(
                format!(
                    "`{}` is not allowed inside a do…end block",
                    other.kind_name()
                ),
            ))),
        }
    }

    /// Run the recognize-act cycle until no rules are eligible, a rule
    /// executes `halt`, or the firing limit is hit (Fig. 1).
    pub fn run_rules(&mut self) -> ArielResult<()> {
        let result = self.recognize_act();
        // firings mutate relations; a marker record replays the cycle
        self.wal_log_run_rules()?;
        result
    }

    fn recognize_act(&mut self) -> ArielResult<()> {
        let result = self.recognize_act_inner();
        // a cycle cut short (halt, error) still owns its last gains
        self.stamp_gained();
        // per-transition bindings are broken at quiescence (§4.3.2),
        // including on the error path
        self.network.flush_transition_state();
        result
    }

    fn recognize_act_inner(&mut self) -> ArielResult<()> {
        let mut firings = 0usize;
        // one Δ-set tracker for the cycle, reset per firing: each action is
        // its own transition
        let mut delta = DeltaTracker::new();
        loop {
            // match: the discrimination network maintained the P-nodes and
            // the conflict set; the transition that just ran (or the
            // `match_tokens` calls since the last cycle) stamps recency
            self.stamp_gained();
            // conflict resolution, straight off the conflict set
            let mut eligible = 0u64;
            let active = &self.active;
            let candidates = self
                .network
                .conflict_set()
                .filter_map(|id| {
                    let rule = active.get(&id.0)?;
                    Some(Eligible {
                        id,
                        name: &rule.name,
                        priority: rule.priority,
                        last_matched: rule.last_matched,
                    })
                })
                .inspect(|_| eligible += 1);
            let Some(chosen) = agenda::select(candidates) else {
                return Ok(());
            };
            let (id, name) = (chosen.id, Arc::clone(chosen.name));
            if let Some(tr) = self.network.trace() {
                tr.record(TraceEventKind::AgendaSchedule {
                    rule: id.0,
                    eligible,
                });
            }
            // act
            if firings >= self.options.max_firings {
                return Err(ArielError::RunawayRules {
                    limit: self.options.max_firings,
                });
            }
            firings += 1;
            self.stats.firings += 1;
            *self.firings_by_rule.entry(id.0).or_insert(0) += 1;
            let pnode = self.network.drain_pnode(id).expect("active rule");
            let drained = pnode.len() as u64;
            let rule = self.active.get_mut(&id.0).expect("active rule");
            let before = rule.prepare_counts;
            let action_start = rule.action_exec.is_some().then(std::time::Instant::now);
            let outcome = action::execute_action(
                &rule.action,
                &mut rule.prepared,
                &pnode,
                &mut self.catalog,
                &mut rule.prepare_counts,
            );
            let action_ns = action_start.map(|t0| t0.elapsed().as_nanos() as u64);
            if let (Some(h), Some(ns)) = (rule.action_exec.as_deref(), action_ns) {
                h.record(ns);
            }
            let counts = rule.prepare_counts;
            self.stats.action_prepares += counts.prepares - before.prepares;
            self.stats.action_replans += counts.replans - before.replans;
            let outcome = outcome.map_err(|e| ArielError::RuleAction {
                rule: name.to_string(),
                source: Box::new(e.into()),
            })?;
            // the firing's provenance (depth, cascade parent) comes from
            // the rule's most recent instantiation, recorded in the network
            let firing_ctx = self
                .network
                .trace()
                .map(|tr| tr.record_firing(id.0, drained, action_ns));
            self.notifications
                .extend(outcome.notifications.iter().cloned());
            // the action is itself a transition
            self.tick += 1;
            self.stats.transitions += 1;
            if let (Some(tr), Some((fseq, fdepth))) = (self.network.trace(), firing_ctx) {
                tr.begin_transition(self.tick, fdepth + 1, Some(fseq));
                tr.record(TraceEventKind::TransitionBegin {
                    source: TraceSource::RuleAction {
                        rule: id.0,
                        firing: fseq,
                    },
                });
            }
            delta.reset();
            let tokens = delta.tokens_for_all(&outcome.changes);
            self.stats.tokens += tokens.len() as u64;
            let batch_start = self.observing().then(std::time::Instant::now);
            self.network.process_batch(&tokens, &self.catalog)?;
            if let (Some(h), Some(t0)) = (&self.match_batch, batch_start) {
                h.record(t0.elapsed().as_nanos() as u64);
            }
            if let (Some(tr), Some((fseq, _))) = (self.network.trace(), firing_ctx) {
                tr.record(TraceEventKind::CascadeDelta {
                    firing: fseq,
                    tokens: tokens.len() as u64,
                });
                tr.record(TraceEventKind::TransitionEnd {
                    tokens: tokens.len() as u64,
                });
            }
            if outcome.halted {
                return Ok(());
            }
        }
    }

    /// Stamp recency: every rule that received an instantiation since the
    /// last call was last matched at the current tick.
    fn stamp_gained(&mut self) {
        let (active, tick) = (&mut self.active, self.tick);
        self.network.drain_gained(|id| {
            if let Some(rule) = active.get_mut(&id.0) {
                rule.last_matched = tick;
            }
        });
    }

    // ----- token-level access (benchmarks) -------------------------------------

    /// Push tokens through the discrimination network without running the
    /// recognize-act cycle — the paper's *token test* measurement in §6.
    ///
    /// The caller applies the tokens' changes to the relations first, all
    /// of them and nothing more: a `+` carries the tuple its relation
    /// holds, and a delete `−` follows the delete
    /// ([`Network::process_batch`] states the contract; debug builds
    /// check it).
    pub fn match_tokens(&mut self, tokens: &[Token]) -> ArielResult<()> {
        self.network.process_batch(tokens, &self.catalog)?;
        Ok(())
    }

    // ----- inspection -----------------------------------------------------------

    /// The relation catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable relation catalog (data loading in tests/benches).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The rule catalog.
    pub fn rules(&self) -> &RuleCatalog {
        &self.rules
    }

    /// The A-TREAT discrimination network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Aggregate network statistics.
    pub fn network_stats(&self) -> NetworkStats {
        self.network.stats()
    }

    /// Memory statistics of one active rule.
    pub fn rule_stats(&self, name: &str) -> ArielResult<RuleStats> {
        let rule = self.rules.require(name)?;
        self.network
            .rule_stats(rule.id)
            .ok_or_else(|| ArielError::NotActive(name.to_string()))
    }

    /// Cumulative engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Pending match count of a rule (P-node size).
    pub fn pending_matches(&self, name: &str) -> ArielResult<usize> {
        let rule = self.rules.require(name)?;
        Ok(self.network.pnode(rule.id).map(|p| p.len()).unwrap_or(0))
    }

    /// Activate every installed-but-inactive rule in a ruleset. Returns
    /// the names activated (rulesets are a grouping convenience, §2.1).
    pub fn activate_ruleset(&mut self, ruleset: &str) -> ArielResult<Vec<String>> {
        let names: Vec<String> = self
            .rules
            .iter()
            .filter(|r| r.ruleset == ruleset && !r.is_active())
            .map(|r| r.name.clone())
            .collect();
        for n in &names {
            self.activate_rule(n)?;
        }
        Ok(names)
    }

    /// Deactivate every active rule in a ruleset. Returns the names
    /// deactivated.
    pub fn deactivate_ruleset(&mut self, ruleset: &str) -> ArielResult<Vec<String>> {
        let names: Vec<String> = self
            .rules
            .iter()
            .filter(|r| r.ruleset == ruleset && r.is_active())
            .map(|r| r.name.clone())
            .collect();
        for n in &names {
            self.deactivate_rule(n)?;
        }
        Ok(names)
    }

    /// Drain all pending asynchronous notifications, oldest first.
    pub fn drain_notifications(&mut self) -> Vec<Notification> {
        self.notifications.drain(..).collect()
    }

    /// Number of pending notifications.
    pub fn pending_notifications(&self) -> usize {
        self.notifications.len()
    }

    /// Render an installed rule's stored definition back to ARL source
    /// (the rule catalog keeps the syntax tree; this pretty-prints it).
    pub fn show_rule(&self, name: &str) -> ArielResult<String> {
        let rule = self.rules.require(name)?;
        Ok(rule.def.to_string())
    }

    /// Produce the optimizer's plan for a DML command without executing it
    /// (an `EXPLAIN`; Fig. 8 of the paper shows such a plan for a rule
    /// action). Returns the rendered plan tree.
    pub fn explain(&self, src: &str) -> ArielResult<String> {
        let cmd = parse_command(src)?;
        let rcmd = Resolver::new(&self.catalog).resolve_command(&cmd)?;
        match ariel_query::plan_command(&rcmd, &self.catalog, None)? {
            Some(plan) => Ok(plan.to_string()),
            None => Ok("(no plan: command binds no tuple variables)\n".to_string()),
        }
    }

    /// Produce the plans for every command of an active rule's
    /// (query-modified) action, bound against its current P-node: what the
    /// next firing runs (Fig. 8). While a command's prepared plan holds,
    /// that plan is shown, marked `prepared`; otherwise the plan is derived
    /// fresh, marked `fresh`, as the next firing would derive it.
    pub fn explain_rule_action(&self, name: &str) -> ArielResult<String> {
        let rule = self.rules.require(name)?;
        if !rule.is_active() {
            return Err(ArielError::NotActive(name.to_string()));
        }
        let active = &self.active[&rule.id.0];
        let pnode = self.network.pnode(rule.id).expect("active rule");
        let mut out = String::new();
        for (i, (cmd, prepared)) in active.action.iter().zip(&active.prepared[..]).enumerate() {
            if let Command::Halt = cmd {
                out.push_str(&format!("-- action command {}: {}\n(halt)\n", i + 1, cmd));
                continue;
            }
            let current = prepared
                .as_ref()
                .and_then(|p| p.current(&self.catalog, pnode));
            let (how, plan) = match current {
                Some(plan) => ("prepared", plan.map(ToString::to_string)),
                None => (
                    "fresh",
                    action::fresh_plan(cmd, pnode, &self.catalog)?.map(|p| p.to_string()),
                ),
            };
            out.push_str(&format!("-- action command {} ({how}): {}\n", i + 1, cmd));
            out.push_str(plan.as_deref().unwrap_or("(no tuple variables)\n"));
        }
        Ok(out)
    }

    // ----- observability --------------------------------------------------------

    /// Enable or disable the gated timing tier: per-phase wall-clock
    /// histograms in the network plus batch and action-execution timing
    /// in the engine. Enabling starts fresh histograms; disabling drops
    /// them. The always-on counters (see [`NetworkStats`]) are unaffected.
    pub fn set_observability(&mut self, on: bool) {
        self.network.set_observing(on);
        self.match_batch = on.then(Histogram::new);
        for rule in self.active.values_mut() {
            rule.action_exec = on.then(Box::default);
        }
    }

    /// Whether the gated timing tier is active.
    pub fn observing(&self) -> bool {
        self.match_batch.is_some()
    }

    // ----- tracing (flight recorder) --------------------------------------------

    /// Enable or disable the flight-recorder trace tier: a bounded ring
    /// of structured causal trace events (see `docs/OBSERVABILITY.md`).
    /// Enabling installs a fresh recorder with the configured
    /// [`Ariel::trace_limit`]; disabling discards the recorder (and its
    /// events). Independent of the timing tier — but when both are on,
    /// firing events carry measured action durations.
    pub fn set_tracing(&mut self, on: bool) {
        let trace = on.then(|| TraceRecorder::new(self.trace_limit));
        self.network.set_trace(trace);
    }

    /// Whether the flight recorder is active.
    pub fn tracing(&self) -> bool {
        self.network.trace().is_some()
    }

    /// Set the ring capacity (`\trace limit N`). Applies immediately to a
    /// live recorder (evicting oldest events when shrinking) and to any
    /// recorder installed later.
    pub fn set_trace_limit(&mut self, limit: usize) {
        self.trace_limit = limit.max(1);
        if let Some(tr) = self.network.trace() {
            tr.set_capacity(self.trace_limit);
        }
    }

    /// The configured ring capacity.
    pub fn trace_limit(&self) -> usize {
        self.trace_limit
    }

    /// Copy of the recorded trace events, oldest first (empty when
    /// tracing is off).
    pub fn trace_events(&self) -> Vec<TraceRecord> {
        self.network
            .trace()
            .map(|tr| tr.snapshot())
            .unwrap_or_default()
    }

    /// Events evicted from the ring so far (0 when tracing is off).
    pub fn trace_dropped(&self) -> u64 {
        self.network.trace().map(|tr| tr.dropped()).unwrap_or(0)
    }

    /// Discard recorded events, keeping tracing on and sequence numbers
    /// running.
    pub fn clear_trace(&self) {
        if let Some(tr) = self.network.trace() {
            tr.clear();
        }
    }

    /// Render the causal chain of a rule's recorded firings: originating
    /// command → tokens → matched TIDs → firing → cascaded updates, with
    /// cascade depths (`\why <rule>`). The rendering is identical under
    /// every [`VirtualPolicy`]. Errors if the rule is unknown;
    /// reports when tracing is off or no firing is in the ring.
    pub fn why(&self, name: &str) -> ArielResult<String> {
        let rule = self.rules.require(name)?;
        let Some(tr) = self.network.trace() else {
            return Ok("tracing is off — nothing recorded (enable with \\trace on)\n".to_string());
        };
        Ok(crate::trace::render_why(
            &tr.snapshot(),
            rule.id.0,
            name,
            &self.rule_names(),
        ))
    }

    /// Export the recorded trace as a Chrome `trace_event` JSON document
    /// (loadable in Perfetto / `chrome://tracing`). Transitions become
    /// complete (`ph:"X"`) spans on one track per cascade depth; firings
    /// with measured durations (timing tier on) become spans too; all
    /// other events are instants. Hand-rolled, with the metrics
    /// registry's string escaper; see `docs/OBSERVABILITY.md` for the
    /// schema.
    pub fn chrome_trace_json(&self) -> String {
        crate::trace::chrome_trace_json(&self.trace_events(), &self.rule_names())
    }

    /// Render the newest `limit` recorded events (all when `None`) as a
    /// human-readable listing (`\trace show`).
    pub fn render_trace(&self, limit: Option<usize>) -> String {
        crate::trace::render_show(
            &self.trace_events(),
            &self.rule_names(),
            limit,
            self.trace_dropped(),
        )
    }

    fn rule_names(&self) -> HashMap<u64, String> {
        self.rules
            .iter()
            .map(|r| (r.id.0, r.name.clone()))
            .collect()
    }

    /// Per-memory byte breakdown of the live match state (`\stats bytes`
    /// and the `BENCH_mem.json` ingredients): discrimination-network
    /// memories, the global symbol table, and the match path's scratch.
    pub fn memory_stats(&self) -> MemoryStats {
        let n = self.network.stats();
        let interner = ariel_storage::intern::stats();
        MemoryStats {
            alpha_entries: n.alpha_entries,
            alpha_bytes: n.alpha_bytes,
            beta_bytes: n.beta_bytes,
            pnode_rows: n.pnode_rows,
            pnode_bytes: n.pnode_bytes,
            selnet_bytes: n.selnet_bytes,
            symbols: interner.symbols,
            symbol_bytes: interner.bytes,
            scratch_bytes: self.network.scratch_bytes(),
        }
    }

    /// Full metrics snapshot as a JSON document (see [`Ariel::export`]):
    /// engine counters, network counters, per-rule statistics, the WAL,
    /// and — when observability is on — every timing histogram
    /// (`"timing": null` otherwise). The schema is documented in
    /// `docs/OBSERVABILITY.md`.
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// The engine half of the Prometheus text exposition: the
    /// `ariel_engine_*`, `ariel_network_*`, `ariel_rule_*` and
    /// `ariel_wal_*` families, plus the timing histograms when
    /// observability is on. Served by `\metrics prom` in the REPL; the TCP
    /// server adds its own `ariel_server_*` families. The families are
    /// documented in `docs/OBSERVABILITY.md`.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics().to_prometheus()
    }

    fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        self.export(&mut m);
        m
    }

    /// Execute a command (or script) and render an annotated tree of the
    /// match work it caused, from the counters and histograms before and
    /// after it: per α-node token counts, selectivities and test times,
    /// virtual-node scan costs, β-join fan-out and time, P-node inserts,
    /// and rule-action executions. With the observability flag off the
    /// timing tier is on for the run only; with it on, the run stays in
    /// the cumulative histograms.
    pub fn explain_analyze(&mut self, src: &str) -> ArielResult<String> {
        let was_on = self.observing();
        if !was_on {
            self.set_observability(true);
        }
        let before = self.reading();
        let start = std::time::Instant::now();
        let result = self.execute(src);
        let total_ns = start.elapsed().as_nanos() as u64;
        let after = self.reading();
        if !was_on {
            self.set_observability(false);
        }
        result?;
        Ok(obs::render_explain_analyze(src, total_ns, &before, &after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let opts = EngineOptions::default();
        assert!(matches!(opts.virtual_policy, VirtualPolicy::AllStored));
        assert_eq!(opts.max_firings, 10_000);
        assert!(!opts.tracing, "tracing is off by default");
        assert_eq!(opts.durability, Durability::Off, "no logging by default");
        let db = Ariel::new();
        assert!(db.wal_dir().is_none(), "no durability dir until checkpoint");
        assert_eq!(db.wal_records(), 0);
        assert!(db.catalog().intern_strings());
        assert_eq!(
            db.stats().action_prepares,
            0,
            "nothing prepared before a firing"
        );
        assert!(!db.tracing(), "no recorder allocated by default");
        assert_eq!(db.trace_limit(), DEFAULT_TRACE_CAPACITY);
    }

    #[test]
    fn memory_stats_reports_live_state() {
        let mut db = Ariel::new();
        db.execute("create emp (name = str, dno = int); create dept (dno = int, floor = int)")
            .unwrap();
        db.execute("define rule r1 if emp.dno = dept.dno then delete dept")
            .unwrap();
        db.execute("append to emp (name = \"alice\", dno = 1)")
            .unwrap();
        let m = db.memory_stats();
        assert!(m.alpha_entries >= 1, "stored α-memory holds the tuple");
        assert!(m.alpha_bytes > 0);
        assert!(m.symbols >= 1, "interned \"alice\" registers in the table");
        assert!(m.symbol_bytes > 0);
        assert!(m.scratch_bytes > 0, "match path drew scratch buffers");
        assert!(m.alpha_bytes_per_entry() > 0.0);
        assert_eq!(MemoryStats::default().alpha_bytes_per_entry(), 0.0);
        // scratch is per engine: a second engine on this thread starts
        // with none, and its matching leaves the first engine's figure be
        let mut other = Ariel::new();
        assert_eq!(other.memory_stats().scratch_bytes, 0);
        other
            .execute("create a (k = int); create b (k = int); create c (k = int)")
            .unwrap();
        other
            .execute("define rule r2 if a.k = b.k and b.k = c.k then delete a")
            .unwrap();
        for k in 0..20 {
            other
                .execute(&format!("append b (k = {k}); append c (k = {k})"))
                .unwrap();
        }
        other.execute("append a (k = 3)").unwrap();
        let theirs = other.memory_stats().scratch_bytes;
        assert!(theirs > 0);
        assert_eq!(db.memory_stats().scratch_bytes, m.scratch_bytes);
        db.execute("append to emp (name = \"bob\", dno = 2)")
            .unwrap();
        assert_eq!(other.memory_stats().scratch_bytes, theirs);
    }

    #[test]
    fn empty_engine_surface() {
        let mut db = Ariel::new();
        assert!(db.catalog().is_empty());
        assert!(db.rules().is_empty());
        assert_eq!(db.stats(), EngineStats::default());
        assert_eq!(db.network_stats().rules, 0);
        assert_eq!(db.pending_notifications(), 0);
        assert!(db.drain_notifications().is_empty());
        // quiescent cycle on an empty engine is a no-op
        db.run_rules().unwrap();
        // top-level halt is a no-op
        db.execute("halt").unwrap();
    }

    #[test]
    fn install_without_activate_is_passive() {
        let mut db = Ariel::new();
        db.execute("create t (x = int); create log (x = int)")
            .unwrap();
        db.install_rule_src("define rule r on append t then append to log(x = t.x)")
            .unwrap();
        assert_eq!(
            db.rules().require("r").unwrap().state,
            crate::rule::RuleState::Installed
        );
        db.execute("append t (x = 1)").unwrap();
        assert!(db.query("retrieve (log.all)").unwrap().rows.is_empty());
        // activation starts matching future transitions
        db.activate_rule("r").unwrap();
        db.execute("append t (x = 2)").unwrap();
        assert_eq!(db.query("retrieve (log.all)").unwrap().rows.len(), 1);
    }

    #[test]
    fn install_rule_src_rejects_non_rules() {
        let mut db = Ariel::new();
        assert!(db.install_rule_src("create t (x = int)").is_err());
        assert!(db.install_rule_src("not even a command").is_err());
    }

    #[test]
    fn activation_error_rolls_back_network() {
        let mut db = Ariel::new();
        db.execute("create t (x = int)").unwrap();
        // condition references a relation that doesn't exist: activation fails
        db.install_rule_src("define rule r if nothere.x > 0 then delete nothere")
            .unwrap();
        assert!(db.activate_rule("r").is_err());
        assert_eq!(db.network_stats().rules, 0, "no half-built network state");
        // the rule stays installed and can be repaired by creating the relation
        db.execute("create nothere (x = int)").unwrap();
        db.activate_rule("r").unwrap();
        assert_eq!(db.network_stats().rules, 1);
    }

    /// Activation primes over the existing tuples: a condition that
    /// cannot be evaluated on one of them fails the activation with the
    /// error evaluating it as a query gives, under either memory policy —
    /// whether the α residual of a one-variable rule, of a join rule's
    /// variable or a join conjunct fails — and leaves no network state.
    #[test]
    fn activation_over_a_tuple_the_condition_cannot_evaluate_fails_with_its_error() {
        let conditions = [
            "t.x > 0 and 10 / t.y > 1",
            "t.x > 0 and 10 / t.y > 1 and t.x = u.x",
            "t.x = u.x and 10 / (t.y + u.y) > 1",
            "u.x = t.x and t.x >= 1 and 10 / t.y > 1",
        ];
        for policy in [VirtualPolicy::AllStored, VirtualPolicy::AllVirtual] {
            for cond in conditions {
                let mut db = Ariel::with_options(EngineOptions {
                    virtual_policy: policy.clone(),
                    ..Default::default()
                });
                db.execute(
                    "create t (x = int, y = int); create u (x = int, y = int); \
                     create log (x = int); \
                     append t (x = 1, y = 2); append t (x = 1, y = 0); \
                     append u (x = 1, y = 0)",
                )
                .unwrap();
                let want = db
                    .query(&format!("retrieve (t.x) where {cond}"))
                    .unwrap_err()
                    .to_string();
                assert!(want.contains("division by zero"), "{want}");
                db.install_rule_src(&format!(
                    "define rule r if {cond} then append to log (x = t.x)"
                ))
                .unwrap();
                let got = db.activate_rule("r").unwrap_err().to_string();
                assert_eq!(got, want, "{cond} under {policy:?}");
                assert_eq!(db.network_stats().rules, 0, "{cond}: rolled back");
                // without the tuple it cannot evaluate, the rule activates
                db.execute("delete t where t.y = 0").unwrap();
                db.activate_rule("r").unwrap();
                assert_eq!(db.pending_matches("r").unwrap(), 1, "{cond}");
            }
        }
    }

    #[test]
    fn pending_matches_reports_pnode_size() {
        let mut db = Ariel::new();
        db.execute("create t (x = int)").unwrap();
        db.execute("append t (x = 5)").unwrap();
        // rule with an impossible action target would error when fired; we
        // only check pending counts, so give it a fine action
        db.execute("create log (x = int)").unwrap();
        db.install_rule_src("define rule r if t.x > 0 then append to log(x = t.x)")
            .unwrap();
        db.activate_rule("r").unwrap();
        assert_eq!(db.pending_matches("r").unwrap(), 1);
        db.run_rules().unwrap();
        assert_eq!(db.pending_matches("r").unwrap(), 0, "consumed by firing");
        assert!(db.pending_matches("nope").is_err());
    }
}
