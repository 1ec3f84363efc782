//! Write-ahead log and snapshot codec (crash recovery).
//!
//! The 1992 Ariel sat on EXODUS persistent objects; this module is the
//! reproduction's durability substrate. It provides two things:
//!
//! * **A write-ahead log** ([`WalWriter`] / [`read_log`]): an append-only
//!   file of length-prefixed, CRC32-checksummed binary records. The engine
//!   appends one record per committed transition (the resolved DML
//!   commands — the `[I, M]` Δ-set source), fsync-gated by a
//!   [`Durability`] policy. Reading tolerates a **torn tail**: scanning
//!   stops at the first truncated or checksum-failing record and reports
//!   the valid prefix length, so a crash mid-append loses at most the
//!   record being written — never earlier ones.
//! * **A snapshot codec** ([`encode_relation`] / [`decode_relation`] and
//!   the catalog pair): a binary image of a relation's *physical* state —
//!   the slot vector with holes and each slot's generation, the free
//!   list, index definitions — so a restored relation continues scan
//!   order, slot reuse and TID allocation exactly where the snapshotted
//!   one left off. Derived state (the live count, index contents) is
//!   rebuilt on decode. The v2 layout, which kept a TID counter instead
//!   of generations, is still read ([`decode_relation_v2`]).
//!
//! The record framing mirrors the server wire protocol
//! (`crates/server/src/protocol.rs`): big-endian `u32` length prefix, a
//! hard length cap, bounds-checked cursor decoding. The checksum is added
//! here because a log outlives the process that wrote it.
//!
//! Higher layers own record *payloads*: the engine's record schema and
//! the full engine snapshot format live in `ariel::persist`; this module
//! is payload-agnostic. See `docs/DURABILITY.md`.

use crate::catalog::Catalog;
use crate::error::{StorageError, StorageResult};
use crate::fx::FxHashMap;
use crate::index::IndexKind;
use crate::relation::{Relation, Slot};
use crate::schema::{AttrDef, AttrType, Schema, SchemaRef};
use crate::tuple::{Tid, Tuple};
use crate::value::Value;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// When (if ever) the log fsyncs. The knob the engine exposes as
/// `EngineOptions::durability`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No logging at all: checkpoints still write snapshots, but no
    /// writer is attached, so transitions cost nothing extra. A crash
    /// loses everything since the last checkpoint. The default.
    #[default]
    Off,
    /// fsync after every appended record: an acked transition survives a
    /// crash. The strongest (and slowest) mode.
    Commit,
    /// fsync every [`BATCH_SYNC_EVERY`] records (and on writer drop): a
    /// crash loses at most the unsynced batch. The middle ground for
    /// churn-heavy workloads.
    Batch,
}

impl Durability {
    /// Parse `"off" | "commit" | "batch"` (the CLI's `--durability` and
    /// `\checkpoint` spellings).
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "off" => Some(Durability::Off),
            "commit" => Some(Durability::Commit),
            "batch" => Some(Durability::Batch),
            _ => None,
        }
    }

    /// The CLI spelling ([`Durability::parse`]'s inverse).
    pub fn as_str(&self) -> &'static str {
        match self {
            Durability::Off => "off",
            Durability::Commit => "commit",
            Durability::Batch => "batch",
        }
    }
}

/// Records between fsyncs in [`Durability::Batch`] mode.
pub const BATCH_SYNC_EVERY: u32 = 32;

/// Hard cap on one record's payload. Far above any real transition
/// record; a length prefix beyond it means the log is corrupt, and the
/// scan stops there instead of allocating garbage.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 checksum of a byte slice (IEEE polynomial, init/xorout
/// `0xFFFFFFFF` — `crc32(b"123456789") == 0xCBF43926`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only log writer. One record per [`WalWriter::append`]:
///
/// ```text
/// | len: u32 BE | crc32(payload): u32 BE | payload (len bytes) |
/// ```
///
/// fsync cadence follows the [`Durability`] policy; dropping the writer
/// syncs any unsynced batch best-effort.
///
/// What the writer has done is kept in one [`WalStats`]
/// ([`WalWriter::stats`]) — the durability telemetry the engine exports.
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    path: PathBuf,
    durability: Durability,
    stats: WalStats,
    unsynced: u32,
    /// Inside a [`WalWriter::begin_group`] scope: commit-mode appends
    /// count as unsynced instead of fsyncing one by one.
    in_group: bool,
}

/// What log writers have done: records and bytes appended, fsyncs issued
/// and their latency. One writer keeps its own; the engine folds the
/// writers it detaches into one.
#[derive(Debug, Clone, Default)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Bytes appended, framing included.
    pub bytes: u64,
    /// Fsyncs issued (commit-mode appends, batch boundaries and explicit
    /// [`WalWriter::sync`] calls).
    pub fsyncs: u64,
    /// Wall-clock latency of those fsyncs, in nanoseconds.
    pub fsync_ns: ariel_islist::Histogram,
}

impl WalStats {
    /// Add `other`'s figures to these.
    pub fn merge(&mut self, other: &WalStats) {
        self.records += other.records;
        self.bytes += other.bytes;
        self.fsyncs += other.fsyncs;
        self.fsync_ns.merge(&other.fsync_ns);
    }
}

impl WalWriter {
    /// Open a log for appending, creating it if absent. Existing records
    /// are preserved (recovery re-attaches after replaying them);
    /// [`WalWriter::stats`] counts what *this* writer does only.
    pub fn open(path: impl Into<PathBuf>, durability: Durability) -> io::Result<WalWriter> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(WalWriter {
            file,
            path,
            durability,
            stats: WalStats::default(),
            unsynced: 0,
            in_group: false,
        })
    }

    /// Open a group-commit scope: until [`WalWriter::end_group`], a
    /// [`Durability::Commit`] append defers its fsync to the end of the
    /// scope. The caller must not ack any record of the group before
    /// `end_group` has returned `Ok`. Other modes are unaffected.
    pub fn begin_group(&mut self) {
        self.in_group = true;
    }

    /// Close a group-commit scope with exactly one fsync if commit-mode
    /// appends were deferred inside it, none otherwise. Idempotent.
    pub fn end_group(&mut self) -> io::Result<()> {
        self.in_group = false;
        if self.durability == Durability::Commit && self.unsynced > 0 {
            self.sync()
        } else {
            Ok(())
        }
    }

    /// `sync_data` with the fsync counter and latency histogram updated.
    fn timed_sync(&mut self) -> io::Result<()> {
        let t0 = std::time::Instant::now();
        let out = self.file.sync_data();
        self.stats.fsyncs += 1;
        self.stats.fsync_ns.record(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Append one record and apply the fsync policy. Errors on an
    /// oversized payload (>[`MAX_RECORD_LEN`]) without writing anything.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_RECORD_LEN as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "WAL record of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
                    payload.len()
                ),
            ));
        }
        let mut buf = Vec::with_capacity(8 + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&crc32(payload).to_be_bytes());
        buf.extend_from_slice(payload);
        self.file.write_all(&buf)?;
        self.stats.records += 1;
        self.stats.bytes += buf.len() as u64;
        match self.durability {
            Durability::Off => {}
            Durability::Commit if self.in_group => self.unsynced += 1,
            Durability::Commit => self.timed_sync()?,
            Durability::Batch => {
                self.unsynced += 1;
                if self.unsynced >= BATCH_SYNC_EVERY {
                    self.sync()?;
                }
            }
        }
        Ok(())
    }

    /// Force an fsync now (checkpoint boundaries, clean shutdown).
    pub fn sync(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.timed_sync()
    }

    /// What this writer has appended and synced.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fsync policy.
    pub fn durability(&self) -> Durability {
        self.durability
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.file.sync_data();
        }
    }
}

/// Result of scanning a log file ([`read_log`]).
#[derive(Debug, Default)]
pub struct WalScan {
    /// Decoded record payloads, in append order, up to the first invalid
    /// record.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix. Truncating the file here
    /// ([`truncate_log`]) drops a torn tail without touching good
    /// records.
    pub valid_len: u64,
    /// Whether trailing bytes after the valid prefix were ignored (a torn
    /// final record, or corruption).
    pub torn: bool,
}

/// Scan a log, tolerating a torn tail: reading stops at the first
/// truncated, oversized or checksum-failing record and everything before
/// it is returned. A missing file is an empty log, not an error.
pub fn read_log(path: &Path) -> io::Result<WalScan> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(e),
    };
    let mut scan = WalScan::default();
    let mut pos = 0usize;
    while pos < data.len() {
        if data.len() - pos < 8 {
            scan.torn = true;
            break;
        }
        let len = u32::from_be_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        if len > MAX_RECORD_LEN as usize || data.len() - pos - 8 < len {
            scan.torn = true;
            break;
        }
        let crc = u32::from_be_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        let payload = &data[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            scan.torn = true;
            break;
        }
        scan.records.push(payload.to_vec());
        pos += 8 + len;
    }
    scan.valid_len = pos as u64;
    Ok(scan)
}

/// Truncate a log to its valid prefix (drop a torn tail found by
/// [`read_log`]) and fsync.
pub fn truncate_log(path: &Path, valid_len: u64) -> io::Result<()> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_data()
}

// ----- encode/decode primitives ---------------------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a big-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked decode cursor over a snapshot or record payload. Every
/// read fails with [`StorageError::Persist`] instead of panicking, so a
/// corrupt byte is an error the recovery path can report, never a crash.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// New cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Persist(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> StorageResult<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> StorageResult<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> StorageResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::Persist(format!("invalid UTF-8 at offset {}", self.pos)))
    }
}

// ----- value / schema / relation codec ---------------------------------------

/// Append one [`Value`] (tag byte + payload; symbols serialize as their
/// string content and re-intern on decode).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Bool(b) => {
            put_u8(buf, 1);
            put_u8(buf, *b as u8);
        }
        Value::Int(i) => {
            put_u8(buf, 2);
            put_u64(buf, *i as u64);
        }
        Value::Float(x) => {
            put_u8(buf, 3);
            put_u64(buf, x.to_bits());
        }
        Value::Str(s) => {
            put_u8(buf, 4);
            put_str(buf, s);
        }
        // symbols are process-local handles: serialize the string content
        // and re-intern on decode
        Value::Sym(s) => {
            put_u8(buf, 5);
            put_str(buf, s.as_str());
        }
    }
}

/// Read one [`Value`] written by [`put_value`].
pub fn get_value(dec: &mut Dec<'_>) -> StorageResult<Value> {
    Ok(match dec.u8()? {
        0 => Value::Null,
        1 => Value::Bool(dec.u8()? != 0),
        2 => Value::Int(dec.u64()? as i64),
        3 => Value::Float(f64::from_bits(dec.u64()?)),
        4 => Value::Str(dec.str()?),
        5 => Value::interned(&dec.str()?),
        t => return Err(StorageError::Persist(format!("unknown value tag {t}"))),
    })
}

fn attr_type_tag(t: AttrType) -> u8 {
    match t {
        AttrType::Bool => 0,
        AttrType::Int => 1,
        AttrType::Float => 2,
        AttrType::Str => 3,
    }
}

fn attr_type_from(tag: u8) -> StorageResult<AttrType> {
    Ok(match tag {
        0 => AttrType::Bool,
        1 => AttrType::Int,
        2 => AttrType::Float,
        3 => AttrType::Str,
        t => return Err(StorageError::Persist(format!("unknown attr-type tag {t}"))),
    })
}

/// Encode one relation's physical state in the v3 layout (schema,
/// interning flag, index definitions, slots with holes and each slot's
/// generation, free list) into `buf`.
pub fn encode_relation(rel: &Relation, buf: &mut Vec<u8>) {
    put_str(buf, rel.name());
    let attrs = rel.schema().attrs();
    put_u32(buf, attrs.len() as u32);
    for a in attrs {
        put_str(buf, &a.name);
        put_u8(buf, attr_type_tag(a.ty));
    }
    put_u8(buf, rel.intern_strings() as u8);
    let defs = rel.index_defs();
    put_u32(buf, defs.len() as u32);
    for (pos, kind) in defs {
        put_u32(buf, pos as u32);
        put_u8(buf, matches!(kind, IndexKind::BTree) as u8);
    }
    let slots = rel.snapshot_slots();
    put_u32(buf, slots.len() as u32);
    for slot in slots {
        put_u32(buf, slot.gen);
        match &slot.tuple {
            None => put_u8(buf, 0),
            Some(tuple) => {
                put_u8(buf, 1);
                for v in tuple.values() {
                    put_value(buf, v);
                }
            }
        }
    }
    let free = rel.free_slots();
    put_u32(buf, free.len() as u32);
    for &s in free {
        put_u32(buf, s as u32);
    }
}

/// Decode one relation written by [`encode_relation`], rebuilding derived
/// state (live count, index contents) via [`Relation::restore`].
pub fn decode_relation(dec: &mut Dec<'_>) -> StorageResult<Relation> {
    decode_relation_parts(dec, None)
}

/// Decode one relation in the v2 layout, which named tuples by a TID
/// counter: slot `i` restores at generation 0, so its tuple's TID becomes
/// `Tid::new(i, 0)`. Returns the relation and, for each live tuple, its
/// v2 TID → its restored TID.
pub fn decode_relation_v2(dec: &mut Dec<'_>) -> StorageResult<(Relation, FxHashMap<u64, Tid>)> {
    let mut tids = FxHashMap::default();
    let rel = decode_relation_parts(dec, Some(&mut tids))?;
    Ok((rel, tids))
}

/// The two relation layouts: v3 when `v2_tids` is `None`, else v2, whose
/// TIDs are recorded in `v2_tids`.
fn decode_relation_parts(
    dec: &mut Dec<'_>,
    mut v2_tids: Option<&mut FxHashMap<u64, Tid>>,
) -> StorageResult<Relation> {
    let name = dec.str()?;
    let n_attrs = dec.u32()? as usize;
    let mut attrs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let attr_name = dec.str()?;
        let ty = attr_type_from(dec.u8()?)?;
        attrs.push(AttrDef::new(attr_name, ty));
    }
    let schema: SchemaRef = Arc::new(Schema::new(attrs)?);
    let next_tid = match v2_tids {
        Some(_) => dec.u64()?,
        None => 0,
    };
    let intern_strings = dec.u8()? != 0;
    let n_indexes = dec.u32()? as usize;
    let mut index_defs = Vec::with_capacity(n_indexes);
    for _ in 0..n_indexes {
        let pos = dec.u32()? as usize;
        let kind = if dec.u8()? != 0 {
            IndexKind::BTree
        } else {
            IndexKind::Hash
        };
        index_defs.push((pos, kind));
    }
    let corrupt = |msg: String| StorageError::Persist(format!("relation `{name}`: {msg}"));
    let n_slots = dec.u32()? as usize;
    let arity = schema.attrs().len();
    let mut slots = Vec::with_capacity(n_slots.min(1 << 20));
    for i in 0..n_slots {
        let gen = match v2_tids {
            Some(_) => 0,
            None => dec.u32()?,
        };
        if dec.u8()? == 0 {
            slots.push(Slot { gen, tuple: None });
            continue;
        }
        if let Some(tids) = v2_tids.as_deref_mut() {
            let old = dec.u64()?;
            if old >= next_tid {
                return Err(corrupt(format!(
                    "live tid {old} not below next_tid {next_tid}"
                )));
            }
            if tids.insert(old, Tid::new(i as u32, 0)).is_some() {
                return Err(corrupt(format!("duplicate tid {old}")));
            }
        }
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(get_value(dec)?);
        }
        slots.push(Slot {
            gen,
            tuple: Some(Tuple::new(values)),
        });
    }
    let n_free = dec.u32()? as usize;
    let mut free = Vec::with_capacity(n_free.min(1 << 20));
    for _ in 0..n_free {
        free.push(dec.u32()? as usize);
    }
    Relation::restore(name, schema, slots, free, &index_defs, intern_strings)
}

/// Encode every relation of a catalog (name-sorted, the catalog's own
/// iteration order) into `buf`.
pub fn encode_catalog(catalog: &Catalog, buf: &mut Vec<u8>) {
    let names = catalog.names();
    put_u32(buf, names.len() as u32);
    for name in names {
        let rel = catalog.get(&name).expect("listed relation");
        encode_relation(rel, buf);
    }
}

/// Decode relations written by [`encode_catalog`] into an existing
/// catalog (errors if any name is already taken).
pub fn decode_into_catalog(dec: &mut Dec<'_>, catalog: &mut Catalog) -> StorageResult<usize> {
    let n = dec.u32()? as usize;
    for _ in 0..n {
        let rel = decode_relation(dec)?;
        catalog.insert_restored(rel)?;
    }
    Ok(n)
}

/// [`decode_into_catalog`] for relations in the v2 layout (see
/// [`decode_relation_v2`]). Returns, per relation name, each live tuple's
/// v2 TID → its restored TID, so a caller can carry TIDs it kept (P-node
/// rows) over to the restored relations.
pub fn decode_v2_into_catalog(
    dec: &mut Dec<'_>,
    catalog: &mut Catalog,
) -> StorageResult<FxHashMap<String, FxHashMap<u64, Tid>>> {
    let n = dec.u32()? as usize;
    let mut renamed = FxHashMap::default();
    for _ in 0..n {
        let (rel, tids) = decode_relation_v2(dec)?;
        let name = rel.name().to_string();
        catalog.insert_restored(rel)?;
        renamed.insert(name, tids);
    }
    Ok(renamed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ariel-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_read_roundtrip() {
        let dir = tmp("roundtrip");
        let path = dir.join("wal.log");
        let payloads: Vec<Vec<u8>> = vec![b"first".to_vec(), vec![], vec![0xAB; 1000]];
        {
            let mut w = WalWriter::open(&path, Durability::Batch).unwrap();
            for p in &payloads {
                w.append(p).unwrap();
            }
            assert_eq!(w.stats().records, 3);
            assert_eq!(w.stats().bytes, (8 * 3 + 5 + 1000) as u64);
        }
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.records, payloads);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
        // re-open appends after the existing records
        let mut w = WalWriter::open(&path, Durability::Commit).unwrap();
        w.append(b"later").unwrap();
        drop(w);
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.records[3], b"later");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_log_is_empty() {
        let scan = read_log(Path::new("/nonexistent/ariel-wal-test.log")).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn torn_tail_at_every_prefix_keeps_whole_records() {
        let dir = tmp("torn");
        let path = dir.join("wal.log");
        {
            let mut w = WalWriter::open(&path, Durability::Off).unwrap();
            w.append(b"alpha").unwrap();
            w.append(b"beta-record").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let first_len = 8 + 5; // record one: framing + "alpha"
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = read_log(&path).unwrap();
            let expect = if cut >= full.len() {
                2
            } else if cut >= first_len {
                1
            } else {
                0
            };
            assert_eq!(scan.records.len(), expect, "cut at {cut}");
            assert_eq!(scan.torn, cut != 0 && cut != first_len, "cut at {cut}");
            // truncating to the valid prefix then re-reading is clean
            truncate_log(&path, scan.valid_len).unwrap();
            let again = read_log(&path).unwrap();
            assert_eq!(again.records.len(), expect);
            assert!(!again.torn);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_checksum_stops_the_scan() {
        let dir = tmp("crc");
        let path = dir.join("wal.log");
        {
            let mut w = WalWriter::open(&path, Durability::Off).unwrap();
            w.append(b"good").unwrap();
            w.append(b"flipped").unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1; // flip a payload byte of record two
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.records, vec![b"good".to_vec()]);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, (8 + 4) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absurd_length_prefix_is_treated_as_corruption() {
        let dir = tmp("len");
        let path = dir.join("wal.log");
        let mut data = Vec::new();
        put_u32(&mut data, MAX_RECORD_LEN + 1);
        put_u32(&mut data, 0);
        data.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &data).unwrap();
        let scan = read_log(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_append_is_rejected_without_writing() {
        let dir = tmp("big");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path, Durability::Off).unwrap();
        let huge = vec![0u8; MAX_RECORD_LEN as usize + 1];
        assert!(w.append(&huge).is_err());
        assert_eq!(w.stats().records, 0);
        drop(w);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_scope_syncs_once_and_only_if_something_was_logged() {
        let dir = tmp("group");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path, Durability::Commit).unwrap();
        w.append(b"alone").unwrap();
        assert_eq!(w.stats().fsyncs, 1, "outside a group: one fsync per record");

        w.begin_group();
        for p in [b"a", b"b", b"c"] {
            w.append(p).unwrap();
        }
        assert_eq!(w.stats().fsyncs, 1, "deferred inside the group");
        w.end_group().unwrap();
        assert_eq!(
            (w.stats().records, w.stats().fsyncs),
            (4, 2),
            "one fsync for three"
        );
        w.end_group().unwrap();
        assert_eq!(w.stats().fsyncs, 2, "idempotent");

        w.begin_group();
        w.end_group().unwrap();
        assert_eq!(w.stats().fsyncs, 2, "an empty group issues no fsync");
        w.append(b"after").unwrap();
        assert_eq!(w.stats().fsyncs, 3, "per-record again after the group");
        drop(w);
        assert_eq!(read_log(&path).unwrap().records.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_relation() -> Relation {
        let schema = Schema::of(&[
            ("name", AttrType::Str),
            ("sal", AttrType::Float),
            ("dno", AttrType::Int),
        ]);
        let mut rel = Relation::new("emp", schema);
        rel.create_index("dno", IndexKind::Hash).unwrap();
        rel.create_index("sal", IndexKind::BTree).unwrap();
        let t0 = rel
            .insert(vec!["ada".into(), 100.0.into(), 1i64.into()])
            .unwrap();
        let _t1 = rel
            .insert(vec!["bob".into(), 200.0.into(), 2i64.into()])
            .unwrap();
        let t2 = rel
            .insert(vec!["cyd".into(), 300.0.into(), 1i64.into()])
            .unwrap();
        // punch two holes so the free list and slot layout are non-trivial
        rel.delete(t0).unwrap();
        rel.delete(t2).unwrap();
        rel
    }

    #[test]
    fn relation_snapshot_preserves_physical_layout() {
        let mut rel = sample_relation();
        // reuse one hole, so a slot carries a later generation
        let reused = rel
            .insert(vec!["dee".into(), 400.0.into(), 3i64.into()])
            .unwrap();
        assert_eq!(reused.gen(), 1);
        let mut buf = Vec::new();
        encode_relation(&rel, &mut buf);
        let back = decode_relation(&mut Dec::new(&buf)).unwrap();
        assert_eq!(back.name(), rel.name());
        assert_eq!(back.len(), rel.len());
        assert_eq!(back.free_slots(), rel.free_slots());
        assert_eq!(back.snapshot_slots(), rel.snapshot_slots());
        let rows: Vec<_> = back.scan().map(|(tid, t)| (tid, t.clone())).collect();
        let orig: Vec<_> = rel.scan().map(|(tid, t)| (tid, t.clone())).collect();
        assert_eq!(rows, orig, "scan order, TIDs and contents survive");
        assert_eq!(back.index_defs(), rel.index_defs());
        // index contents were rebuilt: probe the hash index
        assert_eq!(back.probe_eq(2, &Value::Int(2)).unwrap().count(), 1);
        assert_eq!(
            back.probe_eq(2, &Value::Int(3)).unwrap().next().unwrap().0,
            reused
        );
        // interned strings survive as symbols
        assert!(matches!(
            back.scan().next().unwrap().1.get(0),
            Value::Sym(_)
        ));
        // the next inserts reuse the same holes under the same TIDs,
        // exactly like the original would, and then grow the slot vector
        let mut back = back;
        for name in ["new", "newer"] {
            let row = || vec![name.into(), 1.0.into(), 9i64.into()];
            assert_eq!(rel.insert(row()).unwrap(), back.insert(row()).unwrap());
        }
        assert_eq!(back.snapshot_slots(), rel.snapshot_slots());
    }

    /// `rel` in the v2 layout: a TID counter `next_tid` and each live
    /// slot's TID, `tid_of(slot)`.
    fn encode_v2(rel: &Relation, next_tid: u64, tid_of: impl Fn(usize) -> u64, buf: &mut Vec<u8>) {
        put_str(buf, rel.name());
        let attrs = rel.schema().attrs();
        put_u32(buf, attrs.len() as u32);
        for a in attrs {
            put_str(buf, &a.name);
            put_u8(buf, attr_type_tag(a.ty));
        }
        put_u64(buf, next_tid);
        put_u8(buf, rel.intern_strings() as u8);
        let defs = rel.index_defs();
        put_u32(buf, defs.len() as u32);
        for (pos, kind) in defs {
            put_u32(buf, pos as u32);
            put_u8(buf, matches!(kind, IndexKind::BTree) as u8);
        }
        put_u32(buf, rel.snapshot_slots().len() as u32);
        for (i, slot) in rel.snapshot_slots().iter().enumerate() {
            match &slot.tuple {
                None => put_u8(buf, 0),
                Some(tuple) => {
                    put_u8(buf, 1);
                    put_u64(buf, tid_of(i));
                    for v in tuple.values() {
                        put_value(buf, v);
                    }
                }
            }
        }
        put_u32(buf, rel.free_slots().len() as u32);
        for &s in rel.free_slots() {
            put_u32(buf, s as u32);
        }
    }

    #[test]
    fn a_v2_relation_restores_each_slot_at_generation_zero() {
        let rel = sample_relation();
        let n_slots = rel.snapshot_slots().len() as u64;
        // v2 TIDs `100 + slot`, so the two numberings differ
        let mut buf = Vec::new();
        encode_v2(&rel, 100 + n_slots, |i| 100 + i as u64, &mut buf);
        let (back, tids) = decode_relation_v2(&mut Dec::new(&buf)).unwrap();
        assert_eq!(back.free_slots(), rel.free_slots());
        let rows: Vec<_> = back.scan().map(|(tid, t)| (tid, t.clone())).collect();
        let orig: Vec<_> = rel.scan().map(|(tid, t)| (tid, t.clone())).collect();
        assert_eq!(rows, orig);
        assert_eq!(tids.len(), 1);
        assert_eq!(tids[&101], Tid::new(1, 0), "v2 TID → (slot, 0)");
        assert_eq!(back.probe_eq(2, &Value::Int(2)).unwrap().count(), 1);
        // the v2 reader and the v3 reader do not read each other's bytes
        assert!(decode_relation(&mut Dec::new(&buf)).is_err());
        for cut in 0..buf.len() {
            assert!(decode_relation_v2(&mut Dec::new(&buf[..cut])).is_err());
        }
        // a TID at or above the counter is corrupt
        let mut bad = Vec::new();
        encode_v2(&rel, 101, |i| 100 + i as u64, &mut bad);
        let err = decode_relation_v2(&mut Dec::new(&bad)).unwrap_err();
        assert!(err.to_string().contains("not below next_tid"), "{err}");
        // and so is one TID naming two live slots
        let mut rel = rel;
        rel.insert(vec!["dee".into(), 400.0.into(), 3i64.into()])
            .unwrap();
        assert_eq!(rel.len(), 2, "two live slots");
        let mut bad = Vec::new();
        encode_v2(&rel, 100, |_| 7, &mut bad);
        let err = decode_relation_v2(&mut Dec::new(&bad)).unwrap_err();
        assert!(err.to_string().contains("duplicate tid 7"), "{err}");
    }

    #[test]
    fn relation_snapshot_rejects_corruption() {
        let rel = sample_relation();
        let mut buf = Vec::new();
        encode_relation(&rel, &mut buf);
        // truncation at any prefix errors instead of panicking
        for cut in 0..buf.len() {
            assert!(
                decode_relation(&mut Dec::new(&buf[..cut])).is_err(),
                "cut at {cut}"
            );
        }
        // an unknown value tag errors
        let mut bad = buf.clone();
        let last_tag = bad
            .iter()
            .rposition(|&b| b == 4 || b == 5)
            .expect("a string value tag");
        bad[last_tag] = 99;
        assert!(decode_relation(&mut Dec::new(&bad)).is_err());
    }

    #[test]
    fn restore_rejects_inconsistent_parts() {
        let schema = Schema::of(&[("x", AttrType::Int)]);
        let live = |x: i64| Slot {
            gen: 0,
            tuple: Some(Tuple::new(vec![Value::Int(x)])),
        };
        let hole = |gen: u32| Slot { gen, tuple: None };
        let restore = |slots: Vec<Slot>, free: Vec<usize>, defs: &[(usize, IndexKind)]| {
            Relation::restore("r", schema.clone(), slots, free, defs, true)
        };
        // a tuple of the wrong arity
        let wide = Slot {
            gen: 0,
            tuple: Some(Tuple::new(vec![Value::Int(1), Value::Int(2)])),
        };
        assert!(restore(vec![wide], vec![], &[]).is_err());
        // free entry pointing at a live slot, past the end, twice, or at
        // a retired slot
        assert!(restore(vec![live(1)], vec![0], &[]).is_err());
        assert!(restore(vec![hole(0)], vec![1], &[]).is_err());
        assert!(restore(vec![hole(0)], vec![0, 0], &[]).is_err());
        assert!(restore(vec![hole(u32::MAX)], vec![0], &[]).is_err());
        // index position outside the schema
        assert!(restore(vec![], vec![], &[(3, IndexKind::Hash)]).is_err());
        // and a consistent set restores fine
        let r = restore(vec![hole(4), live(1)], vec![0], &[(0, IndexKind::Hash)]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.scan().next().unwrap().0, Tid::new(1, 0));
    }

    #[test]
    fn catalog_roundtrip_and_duplicate_rejection() {
        let mut catalog = Catalog::new();
        catalog
            .create("emp", Schema::of(&[("x", AttrType::Int)]))
            .unwrap();
        catalog
            .create("dept", Schema::of(&[("y", AttrType::Str)]))
            .unwrap();
        catalog
            .require_mut("emp")
            .unwrap()
            .insert(vec![7i64.into()])
            .unwrap();
        let mut buf = Vec::new();
        encode_catalog(&catalog, &mut buf);
        let mut fresh = Catalog::new();
        assert_eq!(
            decode_into_catalog(&mut Dec::new(&buf), &mut fresh).unwrap(),
            2
        );
        assert_eq!(fresh.names(), catalog.names());
        assert_eq!(fresh.require("emp").unwrap().len(), 1);
        // decoding into a catalog that already has the name errors
        assert!(decode_into_catalog(&mut Dec::new(&buf), &mut fresh).is_err());
    }
}
