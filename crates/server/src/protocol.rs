//! The Ariel wire protocol: hand-rolled, length-prefixed, binary, and
//! blocking — no async runtime is available offline, and none is needed
//! for a protocol this small.
//!
//! ## Frame layout
//!
//! ```text
//! +-----------------+------------+----------------------+
//! | length: u32 BE  | opcode: u8 | payload (length - 1) |
//! +-----------------+------------+----------------------+
//! ```
//!
//! `length` counts the opcode byte plus the payload, so a valid frame has
//! `1 <= length <= MAX_FRAME_LEN`. A frame whose length field exceeds
//! [`MAX_FRAME_LEN`] is rejected *before* any payload is read — a garbage
//! length must not make the server allocate gigabytes or desync the
//! stream — and the connection is closed, because nothing after an
//! oversized header can be trusted.
//!
//! ## Opcodes
//!
//! | opcode | name     | direction | payload |
//! |-------:|----------|-----------|---------|
//! | `0x01` | hello    | both      | client: `version:u16`; server: `version:u16 session:u32` |
//! | `0x02` | command  | c → s     | UTF-8 ARL/POSTQUEL script |
//! | `0x03` | query    | c → s     | UTF-8 `retrieve …` source |
//! | `0x04` | result   | s → c     | [`ResultBody`] encoding below |
//! | `0x05` | error    | s → c     | `code:u8` + UTF-8 message |
//! | `0x06` | metrics  | both      | client: empty; server: UTF-8 JSON |
//! | `0x07` | shutdown | c → s     | empty |
//! | `0x08` | metrics-prom | both  | client: empty; server: UTF-8 Prometheus text exposition |
//!
//! `command` and `query` differ only in intent (the server counts them
//! separately and rejects a `query` that is not a `retrieve`); both are
//! answered with exactly one `result` or `error` frame. All multi-byte
//! integers are big-endian.
//!
//! ## Result body
//!
//! ```text
//! ResultBody := changes:u32 table notes
//! table      := ncols:u16 (col:str16)*  nrows:u32 (cell:str32 × ncols)*
//! notes      := n:u16 (channel:str16 table)*
//! str16      := len:u16 bytes   str32 := len:u32 bytes
//! ```
//!
//! Cells are the textual rendering of values (strings unquoted), so the
//! body round-trips through [`ResultBody::encode`]/[`ResultBody::decode`]
//! byte-identically — the unit tests below prove it, and the truncation
//! tests prove every early-EOF prefix is rejected rather than misread.

use std::io::{Read, Write};

/// Protocol version spoken by this build. The server rejects a `hello`
/// with a different major version.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on `length` (opcode + payload). 4 MiB comfortably holds any
/// result the bench or tests produce while bounding a hostile header.
pub const MAX_FRAME_LEN: u32 = 4 << 20;

/// Frame opcodes (the `u8` after the length prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Session handshake (first frame in each direction).
    Hello = 0x01,
    /// Execute an ARL/POSTQUEL script.
    Command = 0x02,
    /// Execute a single `retrieve`.
    Query = 0x03,
    /// Successful reply to `command`/`query`/`shutdown`.
    Result = 0x04,
    /// Failed reply; payload is `code:u8` + message.
    Error = 0x05,
    /// Metrics request (client, empty) / snapshot (server, JSON).
    Metrics = 0x06,
    /// Ask the server to stop accepting and drain.
    Shutdown = 0x07,
    /// Metrics request (client, empty) / snapshot in Prometheus text
    /// exposition format (server, UTF-8).
    MetricsProm = 0x08,
}

impl Opcode {
    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            0x01 => Some(Opcode::Hello),
            0x02 => Some(Opcode::Command),
            0x03 => Some(Opcode::Query),
            0x04 => Some(Opcode::Result),
            0x05 => Some(Opcode::Error),
            0x06 => Some(Opcode::Metrics),
            0x07 => Some(Opcode::Shutdown),
            0x08 => Some(Opcode::MetricsProm),
            _ => None,
        }
    }
}

/// Error codes carried in `error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The engine rejected the command (parse/semantic/execution error).
    /// The session stays usable.
    Engine = 1,
    /// The client violated the protocol (bad opcode, bad handshake,
    /// malformed payload). The server closes the connection after sending.
    Protocol = 2,
    /// The server is shutting down and will not take further commands.
    ShuttingDown = 3,
}

impl ErrorCode {
    /// Decode an error-code byte (unknown codes map to `Protocol`).
    pub fn from_u8(b: u8) -> ErrorCode {
        match b {
            1 => ErrorCode::Engine,
            3 => ErrorCode::ShuttingDown,
            _ => ErrorCode::Protocol,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is.
    pub opcode: Opcode,
    /// Opcode-specific body (may be empty).
    pub payload: Vec<u8>,
}

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket/file error (includes timeouts).
    Io(std::io::Error),
    /// EOF in the middle of a frame (header or payload).
    Truncated,
    /// `length` was zero (a frame must at least carry an opcode).
    Empty,
    /// `length` exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The opcode byte is not one of the defined opcodes.
    BadOpcode(u8),
    /// The payload did not decode as the opcode's body.
    BadPayload(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds maximum {MAX_FRAME_LEN}")
            }
            FrameError::BadOpcode(b) => write!(f, "unknown opcode 0x{b:02x}"),
            FrameError::BadPayload(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Write one frame: `u32` length, opcode byte, payload. A payload that
/// would exceed [`MAX_FRAME_LEN`] is rejected with `InvalidData` and
/// *nothing* is written: the peer rejects oversized lengths before
/// reading the body and closes, so emitting such a frame would desync
/// the stream. Callers producing unbounded payloads (result tables)
/// should downgrade via [`encode_result_frame`] instead of failing.
pub fn write_frame(w: &mut impl Write, opcode: Opcode, payload: &[u8]) -> std::io::Result<()> {
    let len = 1 + payload.len() as u64;
    if len > MAX_FRAME_LEN as u64 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    // one buffered write per frame so a frame is never interleaved with
    // another writer's bytes at the syscall level
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    buf.push(opcode as u8);
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Frame a result body, downgrading one too large for a single frame to
/// an `error` frame that names the overflow. The error carries
/// [`ErrorCode::Engine`] — the request failed, but the stream stays in
/// sync and the session stays usable.
pub fn encode_result_frame(body: &ResultBody) -> (Opcode, Vec<u8>) {
    let payload = body.encode();
    if 1 + payload.len() as u64 > MAX_FRAME_LEN as u64 {
        let msg = format!(
            "result of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap; narrow the query",
            payload.len()
        );
        (Opcode::Error, encode_error(ErrorCode::Engine, &msg))
    } else {
        (Opcode::Result, payload)
    }
}

/// Read one frame. Validates the length bound *before* reading the body
/// and the opcode byte after, so garbage input fails fast and explicitly.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut op = [0u8; 1];
    r.read_exact(&mut op)?;
    let opcode = Opcode::from_u8(op[0]).ok_or(FrameError::BadOpcode(op[0]))?;
    let mut payload = vec![0u8; len as usize - 1];
    r.read_exact(&mut payload)?;
    Ok(Frame { opcode, payload })
}

// ----- body encodings ------------------------------------------------------

fn put_str16(buf: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(&s.as_bytes()[..len as usize]);
}

fn put_str32(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Cursor over a payload being decoded; every read is bounds-checked so a
/// truncated or lying body yields `BadPayload`, never a panic or misread.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| FrameError::BadPayload(format!("{n} bytes past end of payload")))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str16(&mut self) -> Result<String, FrameError> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| FrameError::BadPayload(e.to_string()))
    }

    fn str32(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| FrameError::BadPayload(e.to_string()))
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(FrameError::BadPayload(format!(
                "{} trailing bytes",
                self.b.len() - self.pos
            )))
        }
    }
}

/// A rendered result table: column names plus rows of cell text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    /// Column names (empty for DML results).
    pub columns: Vec<String>,
    /// One rendered cell per column per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.columns.len() as u16).to_be_bytes());
        for c in &self.columns {
            put_str16(buf, c);
        }
        buf.extend_from_slice(&(self.rows.len() as u32).to_be_bytes());
        for row in &self.rows {
            debug_assert_eq!(row.len(), self.columns.len());
            for cell in row {
                put_str32(buf, cell);
            }
        }
    }

    fn decode_from(cur: &mut Cur<'_>) -> Result<Table, FrameError> {
        let ncols = cur.u16()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1024));
        for _ in 0..ncols {
            columns.push(cur.str16()?);
        }
        let nrows = cur.u32()? as usize;
        let mut rows = Vec::new();
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(cur.str32()?);
            }
            rows.push(row);
        }
        Ok(Table { columns, rows })
    }
}

/// Body of a `result` frame: how many physical changes the request made,
/// the result table (for `retrieve`), and any rule notifications raised
/// while the request's transition ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResultBody {
    /// Number of physical changes (inserted/deleted/replaced tuples).
    pub changes: u32,
    /// Result rows (`retrieve` only; empty otherwise).
    pub table: Table,
    /// `(channel, table)` per notification delivered to this session.
    pub notes: Vec<(String, Table)>,
}

impl ResultBody {
    /// Encode to a `result` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&self.changes.to_be_bytes());
        self.table.encode_into(&mut buf);
        buf.extend_from_slice(&(self.notes.len() as u16).to_be_bytes());
        for (channel, table) in &self.notes {
            put_str16(&mut buf, channel);
            table.encode_into(&mut buf);
        }
        buf
    }

    /// Decode a `result` payload; rejects truncated or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<ResultBody, FrameError> {
        let mut cur = Cur { b: payload, pos: 0 };
        let changes = cur.u32()?;
        let table = Table::decode_from(&mut cur)?;
        let n_notes = cur.u16()? as usize;
        let mut notes = Vec::with_capacity(n_notes.min(1024));
        for _ in 0..n_notes {
            let channel = cur.str16()?;
            notes.push((channel, Table::decode_from(&mut cur)?));
        }
        cur.done()?;
        Ok(ResultBody {
            changes,
            table,
            notes,
        })
    }
}

/// Encode an `error` payload.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + message.len());
    buf.push(code as u8);
    buf.extend_from_slice(message.as_bytes());
    buf
}

/// Decode an `error` payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Result<(ErrorCode, String), FrameError> {
    let mut cur = Cur { b: payload, pos: 0 };
    let code = ErrorCode::from_u8(cur.u8()?);
    let msg = String::from_utf8(payload[1..].to_vec())
        .map_err(|e| FrameError::BadPayload(e.to_string()))?;
    Ok((code, msg))
}

/// Encode the client half of a `hello` payload.
pub fn encode_hello_client() -> Vec<u8> {
    PROTOCOL_VERSION.to_be_bytes().to_vec()
}

/// Decode the client half of a `hello` payload.
pub fn decode_hello_client(payload: &[u8]) -> Result<u16, FrameError> {
    let mut cur = Cur { b: payload, pos: 0 };
    let v = cur.u16()?;
    cur.done()?;
    Ok(v)
}

/// Encode the server half of a `hello` payload.
pub fn encode_hello_server(session: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(6);
    buf.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    buf.extend_from_slice(&session.to_be_bytes());
    buf
}

/// Decode the server half of a `hello` payload into `(version, session)`.
pub fn decode_hello_server(payload: &[u8]) -> Result<(u16, u32), FrameError> {
    let mut cur = Cur { b: payload, pos: 0 };
    let v = cur.u16()?;
    let s = cur.u32()?;
    cur.done()?;
    Ok((v, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_frame(opcode: Opcode, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode, payload).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn frame_roundtrip_every_opcode() {
        for op in [
            Opcode::Hello,
            Opcode::Command,
            Opcode::Query,
            Opcode::Result,
            Opcode::Error,
            Opcode::Metrics,
            Opcode::Shutdown,
            Opcode::MetricsProm,
        ] {
            let f = roundtrip_frame(op, b"payload bytes");
            assert_eq!(f.opcode, op);
            assert_eq!(f.payload, b"payload bytes");
        }
        let f = roundtrip_frame(Opcode::Shutdown, b"");
        assert!(f.payload.is_empty());
    }

    #[test]
    fn truncated_frames_rejected_at_every_prefix() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Opcode::Command, b"append t (x = 1)").unwrap();
        // every strict prefix must fail with Truncated, never misread
        for cut in 0..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated),
                "prefix {cut}: {err:?}"
            );
        }
        // and the full buffer still parses
        assert!(read_frame(&mut Cursor::new(&buf)).is_ok());
    }

    #[test]
    fn oversized_length_rejected_before_payload_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        // no payload present at all: the length check must fire first
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(n) if n == MAX_FRAME_LEN + 1));
    }

    #[test]
    fn oversized_write_is_an_error_and_writes_nothing() {
        let payload = vec![0u8; MAX_FRAME_LEN as usize]; // +1 opcode byte tips it over
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, Opcode::Result, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            buf.is_empty(),
            "a rejected frame must not desync the stream"
        );
        // one byte under the cap still goes through
        let ok = vec![0u8; MAX_FRAME_LEN as usize - 1];
        write_frame(&mut buf, Opcode::Result, &ok).unwrap();
        let f = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(f.payload.len(), ok.len());
    }

    #[test]
    fn oversized_result_body_downgrades_to_error_frame() {
        let body = ResultBody {
            changes: 0,
            table: Table {
                columns: vec!["x".into()],
                rows: (0..5).map(|_| vec!["y".repeat(1 << 20)]).collect(),
            },
            notes: vec![],
        };
        let (op, payload) = encode_result_frame(&body);
        assert_eq!(op, Opcode::Error);
        let (code, msg) = decode_error(&payload).unwrap();
        assert_eq!(code, ErrorCode::Engine);
        assert!(msg.contains("exceeds"), "{msg}");
        // the downgraded frame itself fits on the wire
        let mut buf = Vec::new();
        write_frame(&mut buf, op, &payload).unwrap();
        assert!(read_frame(&mut Cursor::new(&buf)).is_ok());
        // a small body passes through untouched
        let small = ResultBody::default();
        let (op, payload) = encode_result_frame(&small);
        assert_eq!(op, Opcode::Result);
        assert_eq!(ResultBody::decode(&payload).unwrap(), small);
    }

    #[test]
    fn zero_length_and_garbage_opcode_rejected() {
        let err = read_frame(&mut Cursor::new(0u32.to_be_bytes())).unwrap_err();
        assert!(matches!(err, FrameError::Empty));

        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.push(0xEE); // not an opcode
        buf.push(0x00);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::BadOpcode(0xEE)));
    }

    #[test]
    fn result_body_roundtrip() {
        let body = ResultBody {
            changes: 3,
            table: Table {
                columns: vec!["name".into(), "sal".into()],
                rows: vec![
                    vec!["alice".into(), "42000".into()],
                    vec!["bob".into(), "".into()],
                ],
            },
            notes: vec![(
                "chan".into(),
                Table {
                    columns: vec!["x".into()],
                    rows: vec![vec!["5".into()]],
                },
            )],
        };
        let enc = body.encode();
        assert_eq!(ResultBody::decode(&enc).unwrap(), body);

        // the empty body also round-trips
        let empty = ResultBody::default();
        assert_eq!(ResultBody::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn result_body_rejects_truncation_and_trailing_garbage() {
        let body = ResultBody {
            changes: 1,
            table: Table {
                columns: vec!["x".into()],
                rows: vec![vec!["1".into()]],
            },
            notes: vec![],
        };
        let enc = body.encode();
        for cut in 0..enc.len() {
            assert!(
                ResultBody::decode(&enc[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(matches!(
            ResultBody::decode(&trailing),
            Err(FrameError::BadPayload(_))
        ));
    }

    #[test]
    fn error_and_hello_bodies_roundtrip() {
        let enc = encode_error(ErrorCode::Engine, "no such relation `emp`");
        let (code, msg) = decode_error(&enc).unwrap();
        assert_eq!(code, ErrorCode::Engine);
        assert_eq!(msg, "no such relation `emp`");

        assert_eq!(
            decode_hello_client(&encode_hello_client()).unwrap(),
            PROTOCOL_VERSION
        );
        let (v, s) = decode_hello_server(&encode_hello_server(7)).unwrap();
        assert_eq!((v, s), (PROTOCOL_VERSION, 7));
        // hello bodies reject trailing bytes
        let mut bad = encode_hello_client();
        bad.push(0);
        assert!(decode_hello_client(&bad).is_err());
    }

    #[test]
    fn non_utf8_payload_is_bad_payload() {
        let mut buf = Vec::new();
        buf.push(1); // ErrorCode::Engine
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(decode_error(&buf), Err(FrameError::BadPayload(_))));
    }
}
