//! # ariel-server
//!
//! A TCP front-end for the Ariel active DBMS: a hand-rolled
//! length-prefixed binary protocol (blocking I/O, no async runtime), one
//! thread per connection that runs each of its requests to completion on
//! the one engine, and **drain-on-acquire group commit** — the session
//! that takes the engine executes everything pending behind it, each
//! request as its own transition(s), and fsyncs the log once per drain
//! (see `docs/SERVER.md`).
//!
//! ```
//! use ariel::Ariel;
//! use ariel_server::{Client, Server, ServerOptions};
//!
//! let server = Server::bind("127.0.0.1:0", Ariel::new(), ServerOptions::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let mut client = Client::connect(addr).unwrap();
//! client.command("create kv (k = int, v = int)").unwrap();
//! client.command("append kv (k = 1, v = 10)").unwrap();
//! let reply = client.query("retrieve (kv.all)").unwrap();
//! assert_eq!(reply.table.rows.len(), 1);
//!
//! let (stats, _engine) = handle.shutdown();
//! assert_eq!(stats.sessions, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use client::{Client, ClientError};
pub use protocol::{
    ErrorCode, Frame, FrameError, Opcode, ResultBody, Table, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{BindError, Server, ServerHandle, ServerOptions, ServerStats, BATCH_BUCKETS};
pub use telemetry::{LogLevel, Logger, SlowEntry, SlowLog, Telemetry};
