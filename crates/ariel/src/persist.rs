//! Checkpoints, write-ahead logging, and crash recovery.
//!
//! The 1992 Ariel inherited durability from EXODUS persistent objects;
//! this module gives the reproduction the same property on top of the
//! [`ariel_storage::wal`] substrate. A *durability directory* holds two
//! files:
//!
//! * `snapshot.bin` — a full engine image written by
//!   [`Ariel::checkpoint`]: every relation's physical state, the rule
//!   catalog (definitions re-rendered to ARL source), the P-node rows of
//!   every active rule, and the conflict-resolution bookkeeping
//!   (tick, per-rule recency). Written to a temp file and
//!   renamed, so a crash mid-checkpoint leaves the old snapshot intact.
//! * `wal.log` — one record per event after the snapshot: top-level
//!   commands, transitions (the resolved DML command texts — the `[I, M]`
//!   Δ-set source), and explicit `run_rules` markers.
//!
//! [`Ariel::recover`] loads the snapshot, re-activates rules through the
//! normal activation path (rebuilding and priming the α/β network from
//! the restored relations), overwrites each P-node with the snapshotted
//! rows — a P-node carries *history* (matches consumed by earlier
//! firings are gone), which priming alone would resurrect — and then
//! replays the WAL tail through the ordinary execute path, so firings
//! and cascades regenerate exactly as they first happened. A torn final
//! record (crash mid-append) is detected by checksum and truncated away.
//!
//! What is *not* recovered: pending notifications
//! ([`ariel_query::Notification`]s not yet drained) are a volatile
//! delivery queue; replay regenerates the
//! notifications of replayed transitions, giving at-least-once delivery
//! across a crash. Command texts round-trip through the ARL
//! parser; string literals are re-rendered with escape sequences
//! (`\"`, `\\`, `\n`, `\t`), so values containing quotes, backslashes
//! or control characters survive replay intact.

use crate::engine::{Ariel, EngineOptions, EngineStats};
use crate::error::{ArielError, ArielResult};
use ariel_network::RuleId;
use ariel_query::{parse_command, BoundVar, Command};
use ariel_storage::wal::{
    self, crc32, put_str, put_u32, put_u64, put_u8, read_log, truncate_log, Dec, Durability,
    WalWriter,
};
use ariel_storage::{Tid, Tuple};
use std::io;
use std::path::Path;

/// Snapshot file name inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Write-ahead-log file name inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

const SNAPSHOT_MAGIC: &[u8; 4] = b"ARSN";
/// v2 dropped the per-rule "previous P-node size" map: recency is stamped
/// from the network's gained list, so no size survives a transition. v3
/// keeps each heap slot's generation instead of a relation's TID counter
/// (a TID is a slot and a generation); v2 is still read.
const SNAPSHOT_VERSION: u32 = 3;
/// The previous layout, read with its TIDs carried over to (slot, 0).
const SNAPSHOT_V2: u32 = 2;

/// What a v2 P-node TID whose tuple was gone becomes: the last
/// generation of the last slot, which no relation reaches.
const DANGLING: Tid = Tid::new(u32::MAX, u32::MAX);

// WAL record kinds (first payload byte).
const REC_CMD: u8 = 1;
const REC_TRANSITION: u8 = 2;
const REC_RUN_RULES: u8 = 3;

/// What [`Ariel::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Relations restored from the snapshot.
    pub relations: usize,
    /// Rules restored from the snapshot (installed + active).
    pub rules: usize,
    /// WAL records replayed after the snapshot.
    pub replayed: usize,
    /// Whether a torn/corrupt tail was found (and truncated away).
    pub torn_tail: bool,
    /// Errors raised by individual replayed records. A record that failed
    /// when first executed fails identically on replay, so entries here
    /// do not necessarily mean divergence; genuinely unexpected failures
    /// (e.g. unparseable record text) also land here rather than aborting
    /// recovery.
    pub replay_errors: Vec<String>,
}

fn io_err(ctx: &str, e: io::Error) -> ArielError {
    ArielError::Persist(format!("{ctx}: {e}"))
}

fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.values().len() as u32);
    for v in t.values() {
        wal::put_value(buf, v);
    }
}

fn get_tuple(dec: &mut Dec<'_>) -> ArielResult<Tuple> {
    let n = dec.u32()? as usize;
    let mut values = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        values.push(wal::get_value(dec)?);
    }
    Ok(Tuple::new(values))
}

fn put_bound_var(buf: &mut Vec<u8>, b: &BoundVar) {
    match b.tid {
        None => put_u8(buf, 0),
        Some(tid) => {
            put_u8(buf, 1);
            put_u64(buf, tid.0);
        }
    }
    put_tuple(buf, &b.tuple);
    match &b.prev {
        None => put_u8(buf, 0),
        Some(prev) => {
            put_u8(buf, 1);
            put_tuple(buf, prev);
        }
    }
}

fn get_bound_var(dec: &mut Dec<'_>) -> ArielResult<BoundVar> {
    let tid = if dec.u8()? != 0 {
        Some(Tid(dec.u64()?))
    } else {
        None
    };
    let tuple = get_tuple(dec)?;
    let prev = if dec.u8()? != 0 {
        Some(get_tuple(dec)?)
    } else {
        None
    };
    Ok(BoundVar { tid, tuple, prev })
}

fn put_u64_map(buf: &mut Vec<u8>, map: &std::collections::HashMap<u64, u64>) {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort();
    put_u32(buf, entries.len() as u32);
    for (k, v) in entries {
        put_u64(buf, *k);
        put_u64(buf, *v);
    }
}

fn get_u64_map(dec: &mut Dec<'_>) -> ArielResult<std::collections::HashMap<u64, u64>> {
    let n = dec.u32()? as usize;
    let mut map = std::collections::HashMap::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let k = dec.u64()?;
        map.insert(k, dec.u64()?);
    }
    Ok(map)
}

/// Serialize the full engine state into a snapshot body.
fn encode_snapshot(db: &Ariel) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, db.tick);
    put_u64(&mut buf, db.stats.transitions);
    put_u64(&mut buf, db.stats.tokens);
    put_u64(&mut buf, db.stats.firings);
    wal::encode_catalog(&db.catalog, &mut buf);
    // rules ordered by id, so restore re-installs them deterministically
    let mut rules: Vec<_> = db.rules.iter().collect();
    rules.sort_by_key(|r| r.id.0);
    put_u32(&mut buf, rules.len() as u32);
    for rule in &rules {
        put_u64(&mut buf, rule.id.0);
        put_u8(&mut buf, rule.is_active() as u8);
        put_str(&mut buf, &rule.def.to_string());
    }
    put_u64(&mut buf, db.rules.next_id());
    // P-node rows of active rules: match *history* priming can't rebuild
    let active: Vec<_> = rules.iter().filter(|r| r.is_active()).collect();
    put_u32(&mut buf, active.len() as u32);
    for rule in active {
        put_u64(&mut buf, rule.id.0);
        let rows = db
            .network
            .pnode(rule.id)
            .map(|p| p.rows())
            .unwrap_or_default();
        put_u32(&mut buf, rows.len() as u32);
        for row in rows {
            put_u32(&mut buf, row.len() as u32);
            for b in row {
                put_bound_var(&mut buf, b);
            }
        }
    }
    let recency = db
        .active
        .iter()
        .map(|(id, rule)| (*id, rule.last_matched))
        .collect();
    put_u64_map(&mut buf, &recency);
    buf
}

impl Ariel {
    /// Write a checkpoint into `dir` (created if needed) and (re)start the
    /// write-ahead log there: the full engine state goes to
    /// `snapshot.bin` (via a temp file + rename, so the previous snapshot
    /// survives a crash mid-write), `wal.log` is reset to empty, and — if
    /// [`EngineOptions::durability`] is not [`Durability::Off`] — a log
    /// writer is attached so every subsequent command and transition is
    /// logged. Returns the snapshot size in bytes.
    ///
    /// This is also the *enable durability* verb: an engine logs nothing
    /// until its first checkpoint establishes the directory.
    pub fn checkpoint(&mut self, dir: impl AsRef<Path>) -> ArielResult<u64> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating durability dir", e))?;
        // detach the writer first (folding its telemetry into the
        // cumulative totals): its Drop syncs any unsynced batch
        self.wal_detach();
        let body = encode_snapshot(self);
        let mut image = Vec::with_capacity(16 + body.len());
        image.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut image, SNAPSHOT_VERSION);
        put_u32(&mut image, body.len() as u32);
        put_u32(&mut image, crc32(&body));
        image.extend_from_slice(&body);
        let tmp = dir.join("snapshot.tmp");
        let snap = dir.join(SNAPSHOT_FILE);
        {
            use std::io::Write as _;
            let mut f =
                std::fs::File::create(&tmp).map_err(|e| io_err("creating snapshot temp", e))?;
            f.write_all(&image)
                .map_err(|e| io_err("writing snapshot", e))?;
            f.sync_all().map_err(|e| io_err("syncing snapshot", e))?;
        }
        std::fs::rename(&tmp, &snap).map_err(|e| io_err("publishing snapshot", e))?;
        // the log restarts empty: everything it held is in the snapshot now
        let wal_path = dir.join(WAL_FILE);
        let f = std::fs::File::create(&wal_path).map_err(|e| io_err("resetting wal", e))?;
        f.sync_all().map_err(|e| io_err("syncing wal", e))?;
        drop(f);
        if self.options.durability != Durability::Off {
            self.wal = Some(
                WalWriter::open(&wal_path, self.options.durability)
                    .map_err(|e| io_err("opening wal", e))?,
            );
        }
        self.wal_dir = Some(dir.to_path_buf());
        Ok(image.len() as u64)
    }

    /// Rebuild an engine from a durability directory: load `snapshot.bin`,
    /// re-activate rules (rebuilding and priming the discrimination
    /// network from the restored relations), restore P-node match history,
    /// replay the `wal.log` tail through the normal execute path, truncate
    /// any torn final record, and re-attach the log writer per
    /// `options.durability`. The virtual policy and all other knobs come
    /// from `options`, so a snapshot taken with stored memories can be
    /// recovered onto virtual ones (`tests/durability.rs` checks this).
    pub fn recover(
        dir: impl AsRef<Path>,
        options: EngineOptions,
    ) -> ArielResult<(Ariel, RecoveryReport)> {
        let dir = dir.as_ref();
        let snap_path = dir.join(SNAPSHOT_FILE);
        let image = std::fs::read(&snap_path)
            .map_err(|e| io_err(&format!("reading {}", snap_path.display()), e))?;
        let mut dec = Dec::new(&image);
        let magic = [dec.u8()?, dec.u8()?, dec.u8()?, dec.u8()?];
        if &magic != SNAPSHOT_MAGIC {
            return Err(ArielError::Persist("not an Ariel snapshot".into()));
        }
        let version = dec.u32()?;
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_V2 {
            return Err(ArielError::Persist(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let body_len = dec.u32()? as usize;
        let crc = dec.u32()?;
        if dec.remaining() != body_len {
            return Err(ArielError::Persist(format!(
                "snapshot body is {} bytes, header says {body_len}",
                dec.remaining()
            )));
        }
        if crc32(&image[16..]) != crc {
            return Err(ArielError::Persist("snapshot checksum mismatch".into()));
        }
        let mut report = RecoveryReport::default();
        let mut db = Ariel::with_options(options);
        let tick = dec.u64()?;
        // prepared actions are not snapshotted, nor are their counters
        let stats = EngineStats {
            transitions: dec.u64()?,
            tokens: dec.u64()?,
            firings: dec.u64()?,
            ..EngineStats::default()
        };
        // a v2 image named tuples by a counter: its relations restore each
        // slot at generation 0, and `v2_tids` carries the P-node rows'
        // TIDs over the same way
        let v2_tids = if version == SNAPSHOT_V2 {
            let tids = wal::decode_v2_into_catalog(&mut dec, &mut db.catalog)?;
            report.relations = tids.len();
            Some(tids)
        } else {
            report.relations = wal::decode_into_catalog(&mut dec, &mut db.catalog)?;
            None
        };
        let n_rules = dec.u32()? as usize;
        let mut active_names = Vec::new();
        for _ in 0..n_rules {
            let id = RuleId(dec.u64()?);
            let active = dec.u8()? != 0;
            let src = dec.str()?;
            let def = match parse_command(&src) {
                Ok(Command::DefineRule(def)) => def,
                Ok(_) | Err(_) => {
                    return Err(ArielError::Persist(format!(
                        "snapshot rule {} does not re-parse as a rule definition: {src}",
                        id.0
                    )));
                }
            };
            let name = def.name.clone();
            db.rules.restore(def, id)?;
            if active {
                active_names.push(name);
            }
        }
        let next_rule_id = dec.u64()?;
        report.rules = n_rules;
        // activation rebuilds and primes the network from the restored
        // relations — the same path a live engine takes
        for name in &active_names {
            db.activate_rule(name)?;
        }
        db.rules.set_next_id(next_rule_id);
        // …then the primed P-nodes are overwritten with the snapshotted
        // rows: consumed matches must stay consumed
        let n_pnodes = dec.u32()? as usize;
        for _ in 0..n_pnodes {
            let id = RuleId(dec.u64()?);
            let n_rows = dec.u32()? as usize;
            let mut rows = Vec::with_capacity(n_rows.min(1 << 16));
            for _ in 0..n_rows {
                let n_vars = dec.u32()? as usize;
                let mut row = Vec::with_capacity(n_vars.min(1 << 8));
                for _ in 0..n_vars {
                    row.push(get_bound_var(&mut dec)?);
                }
                rows.push(row);
            }
            if let Some(v2_tids) = &v2_tids {
                let rels: Vec<String> = db
                    .network
                    .pnode(id)
                    .map(|p| p.cols().iter().map(|c| c.rel.clone()).collect())
                    .unwrap_or_default();
                for row in &mut rows {
                    for (b, rel) in row.iter_mut().zip(&rels) {
                        // a TID whose tuple was gone at the checkpoint
                        // stays dangling: it resolves to no tuple
                        b.tid = b.tid.map(|old| {
                            v2_tids
                                .get(rel)
                                .and_then(|tids| tids.get(&old.0).copied())
                                .unwrap_or(DANGLING)
                        });
                    }
                }
            }
            db.network.set_pnode_rows(id, rows);
        }
        for (id, last_matched) in get_u64_map(&mut dec)? {
            if let Some(rule) = db.active.get_mut(&id) {
                rule.last_matched = last_matched;
            }
        }
        db.tick = tick;
        db.stats = stats;
        // replay the log tail through the ordinary execute path, with no
        // writer attached (nothing is re-logged); firings and cascades
        // regenerate exactly as they first happened
        let wal_path = dir.join(WAL_FILE);
        let scan = read_log(&wal_path).map_err(|e| io_err("reading wal", e))?;
        report.torn_tail = scan.torn;
        for (i, record) in scan.records.iter().enumerate() {
            report.replayed += 1;
            if let Err(e) = db.replay_record(record) {
                report.replay_errors.push(format!("record {i}: {e}"));
            }
        }
        if scan.torn {
            truncate_log(&wal_path, scan.valid_len).map_err(|e| io_err("truncating wal", e))?;
        }
        db.replay_errors = report.replay_errors.len() as u64;
        if db.options.durability != Durability::Off {
            db.wal = Some(
                WalWriter::open(&wal_path, db.options.durability)
                    .map_err(|e| io_err("opening wal", e))?,
            );
        }
        db.wal_dir = Some(dir.to_path_buf());
        Ok((db, report))
    }

    /// Apply one WAL record during recovery.
    fn replay_record(&mut self, record: &[u8]) -> ArielResult<()> {
        let mut dec = Dec::new(record);
        match dec.u8()? {
            REC_CMD => {
                let cmd = parse_command(&dec.str()?)?;
                self.execute_command(&cmd)?;
            }
            REC_TRANSITION => {
                let n = dec.u32()? as usize;
                let mut cmds = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    cmds.push(parse_command(&dec.str()?)?);
                }
                // a block reproduces the original transition boundary:
                // one Δ-set per command, one recognize-act cycle
                self.execute_command(&Command::Block(cmds))?;
            }
            REC_RUN_RULES => {
                self.run_rules()?;
            }
            t => {
                return Err(ArielError::Persist(format!("unknown WAL record kind {t}")));
            }
        }
        Ok(())
    }

    /// Change the fsync policy. With a durability directory established
    /// (after [`Ariel::checkpoint`] or [`Ariel::recover`]) the log writer
    /// is re-opened in the new mode immediately — including detaching it
    /// entirely for [`Durability::Off`]; otherwise this only sets the
    /// policy the next checkpoint will adopt.
    pub fn set_durability(&mut self, durability: Durability) -> ArielResult<()> {
        self.options.durability = durability;
        if let Some(dir) = self.wal_dir.clone() {
            self.wal_detach(); // Drop syncs pending records
            if durability != Durability::Off {
                self.wal = Some(
                    WalWriter::open(dir.join(WAL_FILE), durability)
                        .map_err(|e| io_err("opening wal", e))?,
                );
            }
        }
        Ok(())
    }

    /// The durability directory, once established by a checkpoint or
    /// recovery.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.wal_dir.as_deref()
    }

    /// WAL records appended since the writer was (re-)attached. 0 when no
    /// writer is attached (durability off).
    pub fn wal_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.stats().records)
    }

    /// WAL bytes appended since the writer was (re-)attached (framing
    /// included). 0 when no writer is attached.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.stats().bytes)
    }

    /// Detach the live WAL writer, folding its [`wal::WalStats`] into those of
    /// the writers detached before it, so [`Ariel::wal_metrics`] keeps
    /// engine-lifetime figures across checkpoints and durability-mode
    /// changes. The writer's Drop syncs any unsynced batch.
    pub(crate) fn wal_detach(&mut self) {
        if let Some(w) = self.wal.take() {
            self.wal_detached.merge(w.stats());
        }
    }

    /// Merged WAL telemetry snapshot: the cumulative totals of every
    /// writer this engine has detached, plus the live writer's figures.
    /// Unlike [`Ariel::wal_records`]/[`Ariel::wal_bytes`] (which report
    /// the live writer only, resetting at each checkpoint), this view
    /// spans the engine's lifetime; it feeds the `"wal"` section of
    /// [`Ariel::metrics_json`] and the `ariel_wal_*` Prometheus families.
    pub fn wal_metrics(&self) -> crate::obs::WalMetrics {
        let mut s = self.wal_detached.clone();
        if let Some(w) = &self.wal {
            s.merge(w.stats());
        }
        crate::obs::WalMetrics {
            attached: self.wal.is_some(),
            records: s.records,
            bytes: s.bytes,
            fsyncs: s.fsyncs,
            fsync_ns: s.fsync_ns,
            replay_errors: self.replay_errors,
        }
    }

    /// Force an fsync of the attached log writer, if any.
    pub fn wal_sync(&mut self) -> ArielResult<()> {
        if let Some(w) = self.wal.as_mut() {
            w.sync().map_err(|e| io_err("syncing wal", e))?;
        }
        Ok(())
    }

    /// Group commit: run `f` with per-record fsyncs of
    /// [`Durability::Commit`] deferred, then issue exactly one if `f`
    /// logged anything. An `Err` means that fsync failed: nothing `f` did
    /// may be acked. Without an attached commit-mode writer this is just
    /// `Ok(f(self))`. The server runs each drain of its pending list in
    /// one such scope (`docs/SERVER.md`).
    pub fn group_commit<R>(&mut self, f: impl FnOnce(&mut Ariel) -> R) -> ArielResult<R> {
        /// Closes the scope on unwind too, so a panic in `f` cannot leave
        /// the writer deferring fsyncs for the engine's remaining life.
        struct Scope<'a>(&'a mut Ariel);
        impl Scope<'_> {
            fn end(&mut self) -> ArielResult<()> {
                match self.0.wal.as_mut() {
                    Some(w) => w.end_group().map_err(|e| io_err("syncing wal", e)),
                    None => Ok(()),
                }
            }
        }
        impl Drop for Scope<'_> {
            fn drop(&mut self) {
                let _ = self.end();
            }
        }
        if let Some(w) = self.wal.as_mut() {
            w.begin_group();
        }
        let mut scope = Scope(self);
        let out = f(&mut *scope.0);
        scope.end()?;
        Ok(out)
    }

    fn wal_append(&mut self, payload: &[u8]) -> ArielResult<()> {
        if let Some(w) = self.wal.as_mut() {
            w.append(payload)
                .map_err(|e| io_err("appending to wal", e))?;
        }
        Ok(())
    }

    /// Log a top-level schema/rule command (success or failure: a failed
    /// command can still leave effects, and replay reproduces the same
    /// outcome). No-op without an attached writer.
    pub(crate) fn wal_log_command(&mut self, cmd: &Command) -> ArielResult<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        let mut buf = Vec::new();
        put_u8(&mut buf, REC_CMD);
        put_str(&mut buf, &cmd.to_string());
        self.wal_append(&buf)
    }

    /// Log one committed transition (its resolved DML command texts).
    /// No-op without an attached writer, and for transitions made solely
    /// of `retrieve`s — pure reads leave no state behind, so logging them
    /// would only grow the log and slow replay (an interactive session is
    /// mostly queries).
    pub(crate) fn wal_log_transition(&mut self, cmds: &[Command]) -> ArielResult<()> {
        if self.wal.is_none() || cmds.iter().all(|c| matches!(c, Command::Retrieve { .. })) {
            return Ok(());
        }
        let mut buf = Vec::new();
        put_u8(&mut buf, REC_TRANSITION);
        put_u32(&mut buf, cmds.len() as u32);
        for cmd in cmds {
            put_str(&mut buf, &cmd.to_string());
        }
        self.wal_append(&buf)
    }

    /// Log an explicit recognize-act cycle ([`Ariel::run_rules`]). No-op
    /// without an attached writer.
    pub(crate) fn wal_log_run_rules(&mut self) -> ArielResult<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        self.wal_append(&[REC_RUN_RULES])
    }
}
