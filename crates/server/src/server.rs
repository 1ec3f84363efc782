//! The server: an accept loop and one thread per connection that runs
//! each of its requests to completion — read, parse, execute, reply —
//! with one fsync per drain.
//!
//! ## Threading model
//!
//! ```text
//! accept loop (the thread in `Server::run`) ──spawns──> session thread
//!                                                       (1 per connection)
//! session thread, per frame:
//!     read + parse ─> push Entry on the pending list ─> lock the engine
//!         reply slot already filled (another session drained it)?
//!             yes ─> unlock
//!             no  ─> take the WHOLE pending list, execute it entry by
//!                    entry in arrival order inside one
//!                    `Ariel::group_commit` scope (one fsync), fill every
//!                    entry's reply slot, unlock
//!     encode own reply ─> write it ─> read the next frame
//! ```
//!
//! Uncontended, a request never leaves its session thread. Contended,
//! whoever holds the engine executes everything that queued up behind it
//! — for that turn it is the single owner that drains, executes and acks
//! — and the sessions it served wake to a filled slot. Entries deposited
//! during a drain wait for the next holder, which is one of their own
//! depositors, so no wake-up can be lost. There are no executor threads,
//! no condition variable and no reply channel.
//!
//! A session owns its socket for both directions, so no frame is ever
//! interleaved at the byte level and a session's replies are in request
//! order (a session does not read the next frame until the previous reply
//! is on the wire — clients may still pipeline; extra frames just wait in
//! the kernel buffer). The engine lock is released before the reply is
//! encoded, so it is never held across a blocking network write.
//!
//! Nothing polls. The accept loop blocks in `accept()` and session threads
//! block in `read()`. The first shutdown request wakes the accept loop
//! with one connection to the server's own address; on its way out the
//! loop shuts down the read half of every live session's socket, through a
//! clone it keeps beside the session's thread handle, which ends each
//! blocked read. A session that is mid-request still writes its reply.
//!
//! ## One request, its own transitions
//!
//! A drain executes its entries one at a time, each through
//! [`Ariel::execute_command`] exactly as the REPL would run the same
//! script: no two sessions' requests ever share a transition. A frame made
//! only of plain `append`s is parsed into one `do … end` block, so it runs
//! as one transition (one Δ-set per command, one recognize-act cycle) and
//! logs one WAL record; any other frame runs command by command and stops
//! at the first error. Each entry's notifications are drained when it
//! finishes: a successful reply carries them, and a failed request's are
//! dropped with it, never delivered to the next session.
//!
//! ## Group commit and fail-stop
//!
//! The drain runs inside [`Ariel::group_commit`]: under
//! `Durability::Commit` the log is fsynced once per drain, not once per
//! record, and no reply slot is filled before that fsync has returned. If
//! it fails, or if a thread panicked while holding the engine (a poisoned
//! lock: a transition may be half applied), the server requests shutdown,
//! answers every pending and later request with
//! [`ErrorCode::ShuttingDown`] and never executes again; [`Server::run`]
//! still hands the engine back.

use crate::protocol::{
    decode_hello_client, encode_error, encode_hello_server, encode_result_frame, write_frame,
    ErrorCode, Opcode, ResultBody, Table, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::telemetry::{opcode_label, LogLevel, Logger, Telemetry};
use ariel::islist::{metric_rows, Kind, Metrics, Place};
use ariel::query::{parse_command, parse_script, Command};
use ariel::storage::Value;
use ariel::{Ariel, Durability};
use std::io::{Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Bound on the self-connect that wakes the accept loop at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Bound on reading an HTTP scrape's request head; a stalled scraper is
/// closed past it.
const HTTP_HEAD_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on a reply write to a stalled client; past it the session is
/// dropped so a dead peer cannot wedge its session thread forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Live sessions (threads) past which the accept loop stops accepting, so
/// overload waits in the listen backlog instead of spawning threads.
const MAX_LIVE_SESSIONS: usize = 1024;

/// Server configuration (the engine's own knobs live in
/// [`ariel::EngineOptions`]).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Record per-opcode/per-session latency telemetry and the slow log
    /// (default `true`; off means no clock reads on the request path).
    pub telemetry: bool,
    /// Slow-command log capacity (the N slowest commands kept).
    pub slow_capacity: usize,
    /// Slow-command threshold in nanoseconds (0 = every command
    /// competes for a slow-log slot, but nothing is *logged* as slow).
    pub slow_threshold_ns: u64,
    /// Structured-logging verbosity (`--log-level`); default off.
    pub log_level: LogLevel,
    /// Structured-logging destination (`--log-file`); `None` = stderr.
    pub log_file: Option<std::path::PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            telemetry: true,
            slow_capacity: 32,
            slow_threshold_ns: 0,
            log_level: LogLevel::Off,
            log_file: None,
        }
    }
}

/// Buckets of the drain-size histogram: drains of 1, 2, 3–4, 5–8, 9–16
/// and 17+ requests.
pub const BATCH_BUCKETS: usize = 6;

/// Counters the server accumulates while running; snapshot via
/// [`Server::run`]'s return value or the `metrics` frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions accepted over the server's lifetime.
    pub sessions: u64,
    /// `command` frames answered (with `result` or engine `error`).
    pub commands: u64,
    /// `query` frames answered.
    pub queries: u64,
    /// Engine-level errors returned (session kept).
    pub engine_errors: u64,
    /// Protocol violations (connection closed).
    pub protocol_errors: u64,
    /// Drains executed: engine holds that found requests pending, each
    /// one group-commit scope.
    pub batches: u64,
    /// Requests that shared a drain, and so its fsync, with another
    /// session's request.
    pub batched_requests: u64,
    /// Largest drain, in requests.
    pub max_batch: u64,
    /// Histogram over drain sizes; see [`BATCH_BUCKETS`].
    pub batch_hist: [u64; BATCH_BUCKETS],
}

impl ServerStats {
    /// Declare the JSON `"server"` object and its `ariel_server_*`
    /// families; `batch_hist` is an array in JSON and the
    /// `ariel_server_batch_groups_total{size=…}` family in Prometheus.
    pub fn export(&self, m: &mut Metrics) {
        let at = Place::root().key("server");
        let totals = metric_rows!(self;
            sessions: "Sessions accepted over the server's lifetime.",
            commands: "Command frames answered.",
            queries: "Query frames answered.",
            engine_errors: "Engine-level errors returned (session kept).",
            protocol_errors: "Protocol violations (connection closed).",
            batches: "Drains executed (one group-commit scope each).",
            batched_requests: "Requests that shared a drain with another session's request.",
        );
        m.table(&at, "ariel_server", Kind::Counter, &totals);
        m.gauge(
            &at.key("max_batch"),
            "ariel_server_max_batch_entries",
            "Largest drain, in requests.",
            self.max_batch,
        );
        let f = m.family(
            "ariel_server_batch_groups_total",
            Kind::Counter,
            "Drains by size bucket (requests per drain).",
        );
        m.put(&at.key("batch_hist"), None, ariel::islist::Value::Array);
        let sizes = ["1", "2", "3-4", "5-8", "9-16", "17+"];
        for (i, (size, n)) in sizes.iter().zip(self.batch_hist).enumerate() {
            m.put(
                &at.key("batch_hist").index(i).label("size", *size),
                Some(f),
                n,
            );
        }
    }
}

/// Histogram bucket for a drain of `n` requests.
fn bucket(n: usize) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// What a drain leaves for the session that deposited an entry: the
/// result body, or the error frame's code and message.
type Reply = Result<ResultBody, (ErrorCode, String)>;

/// A session's reply slot. One request is in flight per session, so one
/// slot per session, filled only by a thread that holds the engine.
type Slot = Arc<Mutex<Option<Reply>>>;

/// One parsed request on the pending list.
struct Entry {
    cmds: Vec<Command>,
    slot: Slot,
}

struct Shared {
    /// `None` only after [`Server::run`] has taken the engine back out,
    /// which happens strictly after every thread that could lock it joined.
    /// Lock it through [`Shared::lock_engine`] only.
    engine: Mutex<Option<Ariel>>,
    /// Requests deposited and not yet drained, in arrival order. Entries
    /// leave it only all at once, taken by a thread holding the engine.
    pending: Mutex<Vec<Entry>>,
    shutdown: AtomicBool,
    /// Where the shutdown request connects to wake the accept loop: the
    /// bound address, on loopback when bound to a wildcard address.
    wake_addr: SocketAddr,
    next_session: AtomicU32,
    sessions: AtomicU64,
    commands: AtomicU64,
    queries: AtomicU64,
    engine_errors: AtomicU64,
    protocol_errors: AtomicU64,
    drains: Mutex<DrainStats>,
    telemetry: Telemetry,
    logger: Logger,
}

/// The drain counters of [`ServerStats`], updated once per drain.
#[derive(Default)]
struct DrainStats {
    drains: u64,
    shared_requests: u64,
    max: u64,
    hist: [u64; BATCH_BUCKETS],
}

impl DrainStats {
    fn record(&mut self, n: usize) {
        self.drains += 1;
        self.hist[bucket(n)] += 1;
        self.max = self.max.max(n as u64);
        if n > 1 {
            self.shared_requests += n as u64;
        }
    }
}

/// Lock one of the small bookkeeping mutexes (pending list, reply slot,
/// drain counters). Their updates are single pushes, takes and stores,
/// valid at every step, so a poisoned one is safe to keep using. Never
/// the engine: see [`Shared::lock_engine`].
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn refused() -> (ErrorCode, String) {
    (ErrorCode::ShuttingDown, "server is shutting down".into())
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let d = lock(&self.drains);
        ServerStats {
            sessions: self.sessions.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            engine_errors: self.engine_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            batches: d.drains,
            batched_requests: d.shared_requests,
            max_batch: d.max,
            batch_hist: d.hist,
        }
    }

    /// Set the shutdown flag; the first request also wakes the accept
    /// loop, which is blocked in `accept()`, by connecting to it.
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
    }

    /// The engine, or `None` once a thread has panicked while holding it:
    /// a transition may be half applied, so the server stops (fail-stop)
    /// instead of serving from it. The caller answers `ShuttingDown`.
    fn lock_engine(&self) -> Option<MutexGuard<'_, Option<Ariel>>> {
        match self.engine.lock() {
            Ok(guard) => Some(guard),
            Err(_) => {
                if !self.shutting_down() {
                    self.logger.log(
                        LogLevel::Error,
                        "engine_poisoned",
                        format_args!("a thread panicked mid-transition; shutting down"),
                    );
                }
                self.request_shutdown();
                None
            }
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread until shutdown; [`Server::spawn`] runs it on a background
/// thread and returns a [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A failed [`Server::bind`]. Carries the engine back out so a bind
/// failure (port in use, bad address) never costs the caller its
/// database — the REPL's `\serve` relies on this to keep its state.
pub struct BindError {
    /// The underlying socket error.
    pub source: std::io::Error,
    /// The engine handed to [`Server::bind`], returned unharmed
    /// (boxed: the engine is large and this is the cold path).
    pub engine: Box<Ariel>,
}

impl std::fmt::Debug for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BindError")
            .field("source", &self.source)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot bind: {}", self.source)
    }
}

impl std::error::Error for BindError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and wrap `engine`.
    /// On failure the engine rides back in the error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Ariel,
        options: ServerOptions,
    ) -> Result<Server, BindError> {
        let listener = match TcpListener::bind(addr).and_then(|l| {
            let addr = l.local_addr()?;
            Ok((l, addr))
        }) {
            Ok(pair) => pair,
            Err(source) => {
                return Err(BindError {
                    source,
                    engine: Box::new(engine),
                })
            }
        };
        let (listener, addr) = listener;
        let wake_ip = match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let logger = match (&options.log_file, options.log_level) {
            (_, LogLevel::Off) => Logger::off(),
            (Some(path), level) => match Logger::file(level, path) {
                Ok(l) => l,
                Err(source) => {
                    return Err(BindError {
                        source,
                        engine: Box::new(engine),
                    })
                }
            },
            (None, level) => Logger::stderr(level),
        };
        let telemetry = Telemetry::new(
            options.telemetry,
            options.slow_capacity,
            options.slow_threshold_ns,
        );
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                engine: Mutex::new(Some(engine)),
                pending: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                wake_addr: SocketAddr::new(wake_ip, addr.port()),
                next_session: AtomicU32::new(1),
                sessions: AtomicU64::new(0),
                commands: AtomicU64::new(0),
                queries: AtomicU64::new(0),
                engine_errors: AtomicU64::new(0),
                protocol_errors: AtomicU64::new(0),
                drains: Mutex::new(DrainStats::default()),
                telemetry,
                logger,
            }),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until a client sends `shutdown` (or a handle requests it).
    /// Returns the accumulated stats and the engine, whose state survives
    /// the server — `\serve` hands the REPL database to a server and gets
    /// it back when the server stops.
    pub fn run(self) -> (ServerStats, Ariel) {
        for session in accept_loop(&self.listener, &self.shared) {
            // a session that panicked poisoned the engine; handled there
            let _ = session.join();
        }
        let stats = self.shared.stats();
        // past the last join nothing can execute, so a poisoned lock is
        // opened here only to hand the engine back
        let engine = self
            .shared
            .engine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("engine is taken back exactly once, at the end of run()");
        (stats, engine)
    }

    /// Run on a background thread; the handle can stop the server and
    /// collect its stats (and engine) without a client connection.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let join = std::thread::Builder::new()
            .name("ariel-server".into())
            .spawn(move || self.run())
            .expect("spawn server thread");
        ServerHandle { addr, shared, join }
    }
}

/// Handle to a [`Server::spawn`]ed server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: std::thread::JoinHandle<(ServerStats, Ariel)>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and join every server thread. Returns the final
    /// stats and the engine.
    pub fn shutdown(self) -> (ServerStats, Ariel) {
        self.shared.request_shutdown();
        self.join.join().expect("server thread panicked")
    }

    /// Wait for a client-initiated shutdown.
    pub fn join(self) -> (ServerStats, Ariel) {
        self.join.join().expect("server thread panicked")
    }
}

// ----- accept --------------------------------------------------------------

/// Accept until shutdown, one thread per connection. Finished sessions
/// are joined as the loop goes round, so the live set — returned for
/// [`Server::run`] to join — is bounded by the connections open now, not
/// by the connections ever made. Each live session's thread is kept with a
/// clone of its socket, whose read half is shut down at shutdown to end
/// the session's blocking read.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<std::thread::JoinHandle<()>> {
    let mut live: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    while !shared.shutting_down() {
        reap_finished(&mut live);
        if live.len() >= MAX_LIVE_SESSIONS {
            // overload: leave new connections in the listen backlog until
            // a session ends
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        let accepted = listener.accept();
        if shared.shutting_down() {
            // the wake-up connection, or a client that raced it
            break;
        }
        let (stream, socket) = match accepted.and_then(|(stream, _peer)| {
            let socket = stream.try_clone()?;
            Ok((stream, socket))
        }) {
            Ok(pair) => pair,
            Err(_) => {
                // out of descriptors or the like: back off, then retry
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        shared.sessions.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        let thread = std::thread::Builder::new()
            .name(format!("ariel-session-{id}"))
            .spawn(move || session_loop(stream, id, &shared))
            .expect("spawn session thread");
        live.push((thread, socket));
    }
    for (_, socket) in &live {
        let _ = socket.shutdown(Shutdown::Read);
    }
    live.into_iter().map(|(thread, _)| thread).collect()
}

/// Join and drop the threads (with whatever is kept beside each) that have
/// already returned.
fn reap_finished<T>(live: &mut Vec<(std::thread::JoinHandle<()>, T)>) {
    let mut i = 0;
    while i < live.len() {
        if live[i].0.is_finished() {
            // a session that panicked poisoned the engine; handled there
            let _ = live.swap_remove(i).0.join();
        } else {
            i += 1;
        }
    }
}

// ----- session (one thread per connection) ---------------------------------

/// Outcome of reading one frame off a session socket.
enum ReadOutcome {
    Frame(Opcode, Vec<u8>),
    /// Peer closed at a frame boundary.
    Closed,
    /// Server is shutting down (the accept loop shut the read half).
    Shutdown,
    /// Protocol violation; the message is sent back before closing.
    Violation(String),
    /// Unrecoverable socket error.
    Io,
}

/// Read exactly `buf.len()` bytes. Unlike `read_exact`, an end of stream
/// says whether it fell on a frame boundary, and whether shutdown caused it.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shared: &Shared) -> Result<(), ReadOutcome> {
    let mut off = 0;
    while off < buf.len() {
        match stream.read(&mut buf[off..]) {
            Ok(0) if shared.shutting_down() => return Err(ReadOutcome::Shutdown),
            Ok(0) if off == 0 => return Err(ReadOutcome::Closed),
            Ok(0) => return Err(ReadOutcome::Violation("truncated frame".into())),
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(ReadOutcome::Io),
        }
    }
    Ok(())
}

fn read_session_frame(stream: &mut TcpStream, shared: &Shared) -> ReadOutcome {
    let mut len_buf = [0u8; 4];
    if let Err(out) = read_full(stream, &mut len_buf, shared) {
        return out;
    }
    read_frame_body(stream, u32::from_be_bytes(len_buf), shared)
}

/// Read the rest of a frame whose 4-byte length prefix is already in hand
/// (the handshake reads the prefix itself so it can sniff `GET ` first).
fn read_frame_body(stream: &mut TcpStream, len: u32, shared: &Shared) -> ReadOutcome {
    if len == 0 {
        return ReadOutcome::Violation("zero-length frame".into());
    }
    if len > MAX_FRAME_LEN {
        return ReadOutcome::Violation(format!(
            "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
        ));
    }
    let mut body = vec![0u8; len as usize];
    if let Err(out) = read_full(stream, &mut body, shared) {
        return out;
    }
    let Some(opcode) = Opcode::from_u8(body[0]) else {
        return ReadOutcome::Violation(format!("unknown opcode 0x{:02x}", body[0]));
    };
    body.remove(0);
    ReadOutcome::Frame(opcode, body)
}

fn send(stream: &mut TcpStream, opcode: Opcode, payload: &[u8]) -> bool {
    write_frame(stream, opcode, payload).is_ok()
}

fn send_error(stream: &mut TcpStream, (code, msg): &(ErrorCode, String)) -> bool {
    send(stream, Opcode::Error, &encode_error(*code, msg))
}

fn protocol_error(stream: &mut TcpStream, shared: &Shared, msg: &str) {
    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let _ = send_error(stream, &(ErrorCode::Protocol, msg.into()));
    // connection closes when the session returns
}

fn session_loop(mut stream: TcpStream, session: u32, shared: &Arc<Shared>) {
    let hello_done = serve_session(&mut stream, session, shared);
    // the accept loop holds a clone of this socket until it reaps the
    // thread, so dropping `stream` alone would not close the connection
    let _ = stream.shutdown(Shutdown::Both);
    if hello_done {
        shared.logger.log(
            LogLevel::Info,
            "disconnect",
            format_args!("session={session}"),
        );
    }
}

/// Drive one session to completion. Returns whether the handshake
/// completed (so the wrapper logs `disconnect` only for real sessions).
fn serve_session(stream: &mut TcpStream, session: u32, shared: &Arc<Shared>) -> bool {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));

    // handshake: the first frame must be a hello with our version — but
    // sniff the first 4 bytes first: an HTTP `GET ` (0x47455420, far past
    // MAX_FRAME_LEN as a length prefix) is the Prometheus scrape shim
    let mut len_buf = [0u8; 4];
    if let Err(out) = read_full(stream, &mut len_buf, shared) {
        if let ReadOutcome::Violation(msg) = out {
            protocol_error(stream, shared, &msg);
        }
        return false;
    }
    if &len_buf == b"GET " {
        serve_http_metrics(stream, session, shared);
        return false;
    }
    match read_frame_body(stream, u32::from_be_bytes(len_buf), shared) {
        ReadOutcome::Frame(Opcode::Hello, payload) => match decode_hello_client(&payload) {
            Ok(v) if v == PROTOCOL_VERSION => {
                if !send(stream, Opcode::Hello, &encode_hello_server(session)) {
                    return false;
                }
            }
            Ok(v) => {
                protocol_error(
                    stream,
                    shared,
                    &format!(
                        "protocol version {v} not supported (server speaks {PROTOCOL_VERSION})"
                    ),
                );
                return false;
            }
            Err(e) => {
                protocol_error(stream, shared, &e.to_string());
                return false;
            }
        },
        ReadOutcome::Frame(_, _) => {
            protocol_error(stream, shared, "expected hello as first frame");
            return false;
        }
        ReadOutcome::Violation(msg) => {
            protocol_error(stream, shared, &msg);
            return false;
        }
        ReadOutcome::Closed | ReadOutcome::Shutdown | ReadOutcome::Io => return false,
    }
    if shared.logger.enabled(LogLevel::Info) {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        shared.logger.log(
            LogLevel::Info,
            "connect",
            format_args!("session={session} peer={peer}"),
        );
    }

    let slot = Slot::default();
    loop {
        match read_session_frame(stream, shared) {
            ReadOutcome::Frame(opcode, payload) => {
                if shared.shutting_down() {
                    let _ = send_error(stream, &refused());
                    return true;
                }
                match opcode {
                    Opcode::Command | Opcode::Query => {
                        let src = match String::from_utf8(payload) {
                            Ok(s) => s,
                            Err(_) => {
                                protocol_error(stream, shared, "non-UTF-8 source");
                                return true;
                            }
                        };
                        // latency bracket: frame read → reply on the wire
                        let t0 = shared.telemetry.start();
                        let counter = if opcode == Opcode::Command {
                            &shared.commands
                        } else {
                            &shared.queries
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        let reply = parse_request(opcode, &src)
                            .map_err(|msg| (ErrorCode::Engine, msg))
                            .and_then(|cmds| run_request(shared, &slot, cmds));
                        // the engine is released: encode and write
                        let sent = match reply {
                            Ok(body) => {
                                // downgrades to an `error` frame when the
                                // body exceeds the frame cap, so the session
                                // survives an oversized retrieve
                                let (op, body) = encode_result_frame(&body);
                                send(stream, op, &body)
                            }
                            Err(err) => {
                                if err.0 == ErrorCode::Engine {
                                    shared.engine_errors.fetch_add(1, Ordering::Relaxed);
                                }
                                send_error(stream, &err)
                            }
                        };
                        if !sent {
                            return true;
                        }
                        finish_request(shared, opcode, session, t0, &src);
                    }
                    Opcode::Metrics => {
                        shared.telemetry.count(Opcode::Metrics, session);
                        let mut m = Metrics::new();
                        if !scrape(shared, &mut m) {
                            let _ = send_error(stream, &refused());
                            return true;
                        }
                        if !send(stream, Opcode::Metrics, m.to_json().as_bytes()) {
                            return true;
                        }
                    }
                    Opcode::MetricsProm => {
                        shared.telemetry.count(Opcode::MetricsProm, session);
                        let text = scrape_prometheus(shared);
                        if !send(stream, Opcode::MetricsProm, text.as_bytes()) {
                            return true;
                        }
                    }
                    Opcode::Shutdown => {
                        shared.telemetry.count(Opcode::Shutdown, session);
                        shared.logger.log(
                            LogLevel::Info,
                            "shutdown",
                            format_args!("session={session}"),
                        );
                        let _ = send(stream, Opcode::Result, &ResultBody::default().encode());
                        shared.request_shutdown();
                        return true;
                    }
                    Opcode::Hello => {
                        protocol_error(stream, shared, "duplicate hello");
                        return true;
                    }
                    Opcode::Result | Opcode::Error => {
                        protocol_error(
                            stream,
                            shared,
                            "result/error frames are server-to-client only",
                        );
                        return true;
                    }
                }
            }
            ReadOutcome::Violation(msg) => {
                protocol_error(stream, shared, &msg);
                return true;
            }
            ReadOutcome::Closed | ReadOutcome::Shutdown | ReadOutcome::Io => return true,
        }
    }
}

/// Record an answered request's latency and, when past the slow-log
/// threshold, log it.
fn finish_request(shared: &Shared, opcode: Opcode, session: u32, t0: Option<Instant>, src: &str) {
    let dur_ns = shared.telemetry.observe(opcode, session, t0, src);
    let threshold = shared.telemetry.slow.threshold_ns();
    if threshold > 0 && dur_ns >= threshold && shared.logger.enabled(LogLevel::Info) {
        let head: String = src.chars().take(crate::telemetry::SLOW_TEXT_CAP).collect();
        shared.logger.log(
            LogLevel::Info,
            "slow_command",
            format_args!(
                "session={session} opcode={} dur_ns={dur_ns} src={head:?}",
                opcode_label(opcode)
            ),
        );
    }
}

/// The `GET /metrics` shim: a fresh connection that starts with `GET `
/// instead of a frame length gets one Prometheus text-exposition response
/// and is closed — enough for `curl` or a Prometheus scrape job, with no
/// HTTP stack. The request head is drained (bounded) and ignored: every
/// path serves the metrics document.
fn serve_http_metrics(stream: &mut TcpStream, session: u32, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(HTTP_HEAD_TIMEOUT));
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 8192 {
            return; // oversized request head: just close
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return, // stalled past the timeout, or gone
        }
    }
    if shared.shutting_down() {
        return;
    }
    shared.logger.log(
        LogLevel::Info,
        "http_metrics",
        format_args!("session={session}"),
    );
    let body = scrape_prometheus(shared);
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Scrape the server, its telemetry and, under `"engine"`, the engine
/// into `m`. Returns whether the engine was read: a poisoned one is not.
fn scrape(shared: &Shared, m: &mut Metrics) -> bool {
    shared.stats().export(m);
    shared.telemetry.export(m);
    let Some(guard) = shared.lock_engine() else {
        return false;
    };
    let engine = guard.as_ref().expect("engine present while sessions run");
    m.nest("engine", |m| engine.export(m));
    true
}

/// The Prometheus exposition of [`scrape`]; a poisoned engine's families
/// are simply absent.
fn scrape_prometheus(shared: &Shared) -> String {
    let mut m = Metrics::new();
    scrape(shared, &mut m);
    m.to_prometheus()
}

/// Parse a frame into the commands its entry runs. A `command` frame of
/// several plain `append`s becomes one `do … end` block: one transition.
fn parse_request(opcode: Opcode, src: &str) -> Result<Vec<Command>, String> {
    if opcode == Opcode::Command {
        let cmds = parse_script(src).map_err(|e| e.to_string())?;
        if cmds.len() > 1 && cmds.iter().all(|c| matches!(c, Command::Append { .. })) {
            return Ok(vec![Command::Block(cmds)]);
        }
        return Ok(cmds);
    }
    match parse_command(src) {
        Ok(cmd @ Command::Retrieve { .. }) => Ok(vec![cmd]),
        Ok(other) => Err(format!(
            "a query frame must be a `retrieve`, found `{}`",
            other.kind_name()
        )),
        Err(e) => Err(e.to_string()),
    }
}

// ----- execution (on the session thread that holds the engine) -------------

/// Run one parsed request to completion: deposit it, take the engine, and
/// — unless a session that held the engine in between already executed
/// it — drain the whole pending list. Returns this session's reply with
/// the engine released.
fn run_request(shared: &Shared, slot: &Slot, cmds: Vec<Command>) -> Reply {
    lock(&shared.pending).push(Entry {
        cmds,
        slot: Arc::clone(slot),
    });
    let mut guard = shared.lock_engine().ok_or_else(refused)?;
    if let Some(reply) = lock(slot).take() {
        return reply;
    }
    // slot empty under the engine lock: entries leave the pending list
    // only in a drain, and a drain fills their slots before it unlocks,
    // so this session's entry is still on the list
    let entries = std::mem::take(&mut *lock(&shared.pending));
    shared.telemetry.queue_drained(entries.len() as u64);
    lock(&shared.drains).record(entries.len());
    shared.logger.log(
        LogLevel::Debug,
        "drain",
        format_args!("entries={}", entries.len()),
    );
    let engine = guard.as_mut().expect("engine present while sessions run");
    drain(shared, engine, &entries);
    let fsyncs = engine.options().durability == Durability::Commit && engine.wal_dir().is_some();
    drop(guard);
    if fsyncs && !lock(&shared.pending).is_empty() {
        // sessions that deposited during this drain's fsync are parked on
        // the engine: let one start its drain, and its fsync, before this
        // thread's socket write. On one core the scheduler otherwise picks
        // either order from one request to the next, ~14 µs apart on a
        // ~100 µs cycle; with a core to spare this returns at once.
        std::thread::yield_now();
    }
    lock(slot)
        .take()
        .expect("the drain filled the slot of every entry it took")
}

/// Execute `entries` in arrival order inside one group-commit scope and
/// fill every entry's reply slot — after the scope's fsync, never before.
fn drain(shared: &Shared, engine: &mut Ariel, entries: &[Entry]) {
    let refuse_all = || {
        for entry in entries {
            *lock(&entry.slot) = Some(Err(refused()));
        }
    };
    if shared.shutting_down() {
        // answer rather than mutate an engine that is being torn down
        return refuse_all();
    }
    let synced = engine.group_commit(|engine| {
        entries
            .iter()
            .map(|entry| execute_entry(engine, entry))
            .collect::<Vec<_>>()
    });
    match synced {
        Ok(replies) => {
            for (entry, reply) in entries.iter().zip(replies) {
                *lock(&entry.slot) = Some(reply);
            }
        }
        Err(e) => {
            // what this drain logged may not be on disk: ack none of it
            shared
                .logger
                .log(LogLevel::Error, "group_commit", format_args!("error={e}"));
            shared.request_shutdown();
            refuse_all();
        }
    }
}

/// Execute one entry's commands in order, like the REPL, up to the first
/// error; the last result table wins.
fn execute_entry(engine: &mut Ariel, entry: &Entry) -> Reply {
    let mut body = ResultBody::default();
    let outcome: ariel::ArielResult<()> = entry.cmds.iter().try_for_each(|cmd| {
        let out = engine.execute_command(cmd)?;
        body.changes += out.changes.len() as u32;
        if !out.columns.is_empty() {
            body.table = render_table(&out.columns, &out.rows);
        }
        Ok(())
    });
    // drained whatever the outcome: an error frame has no notes, and a
    // failed request's must not ride on the next session's reply
    let notes = engine.drain_notifications();
    match outcome {
        Ok(()) => {
            body.notes = render_notes(notes);
            Ok(body)
        }
        Err(e) => Err((ErrorCode::Engine, e.to_string())),
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Sym(sym) => sym.as_str().to_string(),
        other => other.to_string(),
    }
}

fn render_table(columns: &[String], rows: &[Vec<Value>]) -> Table {
    Table {
        columns: columns.to_vec(),
        rows: rows
            .iter()
            .map(|r| r.iter().map(render_value).collect())
            .collect(),
    }
}

fn render_notes(notes: Vec<ariel::Notification>) -> Vec<(String, Table)> {
    notes
        .into_iter()
        .map(|n| (n.channel, render_table(&n.columns, &n.rows)))
        .collect()
}

// `Ariel` must cross into the server's threads; this fails to compile if
// a non-`Send` type sneaks back into the engine (see docs/SERVER.md).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Ariel>();
    assert_send::<Server>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use ariel::EngineOptions;

    fn kv_engine(options: EngineOptions) -> Ariel {
        let mut db = Ariel::with_options(options);
        db.execute("create kv (k = int, v = int)").unwrap();
        db
    }

    fn entry(src: &str) -> (Entry, Slot) {
        let slot = Slot::default();
        let cmds = parse_request(Opcode::Command, src).unwrap();
        let entry = Entry {
            cmds,
            slot: Arc::clone(&slot),
        };
        (entry, slot)
    }

    /// Queue `pending` as other sessions' entries, then run `own` as the
    /// session that takes the engine. Returns every reply, in order.
    fn drain_with(server: &Server, pending: &[&str], own: &str) -> Vec<Reply> {
        let shared = &server.shared;
        let mut slots = Vec::new();
        for src in pending {
            let (entry, slot) = entry(src);
            lock(&shared.pending).push(entry);
            slots.push(slot);
        }
        let own = run_request(
            shared,
            &Slot::default(),
            parse_request(Opcode::Command, own).unwrap(),
        );
        assert!(lock(&shared.pending).is_empty());
        let mut replies: Vec<Reply> = slots
            .iter()
            .map(|slot| lock(slot).take().expect("filled by the drain"))
            .collect();
        replies.push(own);
        replies
    }

    /// The contended case without a race: three sessions' entries are on
    /// the pending list when a fourth takes the engine.
    #[test]
    fn one_drain_serves_every_pending_entry_with_one_fsync() {
        let dir = std::env::temp_dir().join(format!("ariel-server-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = kv_engine(EngineOptions {
            durability: Durability::Commit,
            ..Default::default()
        });
        db.execute("append kv (k = 1, v = 1)").unwrap();
        db.checkpoint(&dir).unwrap();
        let before = (db.wal_metrics(), db.stats().transitions);
        let server = Server::bind("127.0.0.1:0", db, ServerOptions::default()).unwrap();

        let replies = drain_with(
            &server,
            &[
                "append kv (k = 2, v = 2)",
                "replace kv (v = 10) where kv.k = 1",
                "append kv (k = 3, v = 3)\nappend kv (k = 4, v = 4)",
            ],
            "append kv (k = 5, v = 5)",
        );
        let changes: Vec<u32> = replies.into_iter().map(|r| r.unwrap().changes).collect();
        assert_eq!(changes, [1, 1, 2, 1], "each session acked its own changes");

        let stats = server.shared.stats();
        assert_eq!((stats.batches, stats.batched_requests), (1, 4));
        assert_eq!((stats.max_batch, stats.batch_hist[bucket(4)]), (4, 1));
        let engine = lock(&server.shared.engine).take().unwrap();
        assert_eq!(engine.stats().transitions - before.1, 4, "one per request");
        let after = engine.wal_metrics();
        assert_eq!(
            after.records - before.0.records,
            4,
            "one record per request"
        );
        assert_eq!(after.fsyncs - before.0.fsyncs, 1, "one fsync per drain");
        // each record is a transition (kind 2) and holds its commands: the
        // two-append frame is one record of two
        let scan = ariel::storage::wal::read_log(&dir.join(ariel::persist::WAL_FILE)).unwrap();
        let shape: Vec<(u8, u32)> = scan.records[scan.records.len() - 4..]
            .iter()
            .map(|rec| {
                let mut dec = ariel::storage::wal::Dec::new(rec);
                (dec.u8().unwrap(), dec.u32().unwrap())
            })
            .collect();
        assert_eq!(shape, [(2, 1), (2, 1), (2, 2), (2, 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bad request in a drain fails alone, and the good one before it is
    /// applied once.
    #[test]
    fn a_failed_request_leaves_the_drain_applied_once() {
        let server = Server::bind(
            "127.0.0.1:0",
            kv_engine(EngineOptions::default()),
            ServerOptions::default(),
        )
        .unwrap();
        let replies = drain_with(
            &server,
            &["append kv (k = 1, v = 1)"],
            "append kv (k = 2, nosuch = 2)",
        );
        assert_eq!(replies[0].as_ref().unwrap().changes, 1);
        assert_eq!(replies[1].as_ref().unwrap_err().0, ErrorCode::Engine);
        let mut engine = lock(&server.shared.engine).take().unwrap();
        let rows = engine.query("retrieve (kv.all)").unwrap().rows;
        assert_eq!(rows.len(), 1, "the good append applied once: {rows:?}");
    }

    /// Notifications raised by a request that then fails are dropped with
    /// its error, not delivered on another session's reply.
    #[test]
    fn failed_request_notifications_reach_no_other_session() {
        let mut db = kv_engine(EngineOptions::default());
        db.execute("define rule watch if kv.v >= 100 then notify bigkv (kv.k, kv.v)")
            .unwrap();
        let server = Server::bind("127.0.0.1:0", db, ServerOptions::default()).unwrap();
        let replies = drain_with(
            &server,
            &["append kv (k = 1, v = 500)\nreplace kv (nosuch = 1) where kv.k = 1"],
            "append kv (k = 2, v = 1)",
        );
        assert_eq!(replies[0].as_ref().unwrap_err().0, ErrorCode::Engine);
        let quiet = replies[1].as_ref().unwrap();
        assert_eq!(quiet.changes, 1);
        assert!(quiet.notes.is_empty(), "leaked: {:?}", quiet.notes);
        let engine = lock(&server.shared.engine).take().unwrap();
        assert_eq!(engine.pending_notifications(), 0);
    }

    #[test]
    fn poisoned_engine_fails_stop_and_is_handed_back() {
        let server = Server::bind(
            "127.0.0.1:0",
            kv_engine(EngineOptions::default()),
            ServerOptions::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();
        let mut c = Client::connect(addr).unwrap();
        c.command("append kv (k = 1, v = 1)").unwrap();

        // what a panicking rule action does to a session thread mid-drain
        let shared = Arc::clone(&handle.shared);
        let (stranded, stranded_slot) = entry("append kv (k = 2, v = 2)");
        let panicked = std::thread::spawn(move || {
            let _guard = shared.engine.lock().unwrap();
            lock(&shared.pending).push(stranded);
            panic!("action panicked mid-transition");
        })
        .join();
        assert!(panicked.is_err());

        match c.command("append kv (k = 3, v = 3)").unwrap_err() {
            crate::ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("expected shutting-down, got {other}"),
        }
        // the poison itself requested shutdown: no handle.shutdown() needed
        let (stats, mut engine) = handle.join();
        assert_eq!(stats.engine_errors, 0, "a refusal is not an engine error");
        assert!(lock(&stranded_slot).is_none(), "never executed");
        let rows = engine.query("retrieve (kv.k)").unwrap().rows;
        assert_eq!(rows.len(), 1, "nothing ran after the poison: {rows:?}");
    }

    #[test]
    fn reap_finished_joins_only_threads_that_returned() {
        let gate = Arc::new(std::sync::Barrier::new(2));
        let blocked = Arc::clone(&gate);
        let mut live = vec![
            (std::thread::spawn(|| {}), 1),
            (
                std::thread::spawn(move || {
                    blocked.wait();
                }),
                2,
            ),
            (std::thread::spawn(|| {}), 3),
        ];
        while live.iter().filter(|(h, _)| h.is_finished()).count() < 2 {
            std::thread::yield_now();
        }
        reap_finished(&mut live);
        assert_eq!(live.len(), 1, "the blocked thread stays");
        assert_eq!(live[0].1, 2, "with what was kept beside it");
        gate.wait();
        live.pop().unwrap().0.join().unwrap();
    }

    /// Nothing polls: an idle session is blocked in `read()` and the accept
    /// loop in `accept()`, and shutdown must wake both at once.
    #[test]
    fn shutdown_returns_promptly_with_an_idle_session_connected() {
        let server = Server::bind(
            "127.0.0.1:0",
            kv_engine(EngineOptions::default()),
            ServerOptions::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();
        let mut idle = Client::connect(addr).unwrap();
        idle.command("append kv (k = 1, v = 1)").unwrap();

        let (done, stopped) = std::sync::mpsc::channel();
        let t0 = Instant::now();
        std::thread::spawn(move || done.send(handle.shutdown()).unwrap());
        let (stats, mut engine) = stopped
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown blocked on an idle session");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            t0.elapsed()
        );
        assert_eq!(stats.sessions, 1, "the wake-up connection is no session");
        assert_eq!(engine.query("retrieve (kv.k)").unwrap().rows.len(), 1);
        assert!(
            idle.command("append kv (k = 2, v = 2)").is_err(),
            "the idle session was closed"
        );
    }
}
