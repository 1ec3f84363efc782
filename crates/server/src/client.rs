//! A small blocking client for the Ariel wire protocol — used by the
//! REPL-side tests and the `paper_tables -- serve` load generator, and a
//! reference implementation for anyone speaking the protocol from
//! another language (the frame layout is documented in `docs/SERVER.md`).

use crate::protocol::{
    decode_error, decode_hello_server, encode_hello_client, read_frame, write_frame, ErrorCode,
    FrameError, Opcode, ResultBody,
};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes that do not decode as a frame we expect.
    Frame(FrameError),
    /// The server answered with an `error` frame.
    Server {
        /// Error class (engine errors leave the session usable).
        code: ErrorCode,
        /// Human-readable message from the server.
        message: String,
    },
    /// The server broke the protocol (e.g. an unexpected opcode).
    Protocol(String),
    /// A frame that must carry UTF-8 text (metrics) did not.
    Utf8 {
        /// The opcode of the offending frame.
        opcode: Opcode,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Utf8 { opcode } => {
                write!(f, "non-UTF-8 payload in {opcode:?} frame")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Frame(other),
        }
    }
}

/// A connected session. One request is in flight at a time: each method
/// writes a frame and blocks for the server's answer.
pub struct Client {
    stream: TcpStream,
    session: u32,
}

impl Client {
    /// Connect and run the `hello` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, Opcode::Hello, &encode_hello_client())?;
        let frame = read_frame(&mut stream)?;
        match frame.opcode {
            Opcode::Hello => {
                let (_version, session) = decode_hello_server(&frame.payload)?;
                Ok(Client { stream, session })
            }
            Opcode::Error => Err(decode_error(&frame.payload).map_or_else(
                ClientError::from,
                |(code, message)| ClientError::Server { code, message },
            )),
            other => Err(ClientError::Protocol(format!(
                "expected hello reply, got {other:?}"
            ))),
        }
    }

    /// The session id the server assigned at handshake.
    pub fn session_id(&self) -> u32 {
        self.session
    }

    fn round_trip(&mut self, opcode: Opcode, payload: &[u8]) -> Result<ResultBody, ClientError> {
        write_frame(&mut self.stream, opcode, payload)?;
        let frame = read_frame(&mut self.stream)?;
        match frame.opcode {
            Opcode::Result => Ok(ResultBody::decode(&frame.payload)?),
            Opcode::Error => Err(decode_error(&frame.payload).map_or_else(
                ClientError::from,
                |(code, message)| ClientError::Server { code, message },
            )),
            other => Err(ClientError::Protocol(format!(
                "expected result or error, got {other:?}"
            ))),
        }
    }

    /// Run an ARL script (any commands; an all-append script executes as
    /// one transition, like a `do … end` block).
    pub fn command(&mut self, src: &str) -> Result<ResultBody, ClientError> {
        self.round_trip(Opcode::Command, src.as_bytes())
    }

    /// Run a single `retrieve` and return its table.
    pub fn query(&mut self, src: &str) -> Result<ResultBody, ClientError> {
        self.round_trip(Opcode::Query, src.as_bytes())
    }

    /// Fetch combined server + engine metrics as a JSON string.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.metrics_round_trip(Opcode::Metrics)
    }

    /// Fetch the metrics snapshot in Prometheus text-exposition format.
    pub fn metrics_prom(&mut self) -> Result<String, ClientError> {
        self.metrics_round_trip(Opcode::MetricsProm)
    }

    /// Send a metrics request and decode the textual reply. Either
    /// metrics opcode is accepted back — a server may answer a JSON
    /// metrics request from an older client with the opcode it knows.
    fn metrics_round_trip(&mut self, request: Opcode) -> Result<String, ClientError> {
        write_frame(&mut self.stream, request, &[])?;
        let frame = read_frame(&mut self.stream)?;
        match frame.opcode {
            op @ (Opcode::Metrics | Opcode::MetricsProm) => {
                String::from_utf8(frame.payload).map_err(|_| ClientError::Utf8 { opcode: op })
            }
            Opcode::Error => Err(decode_error(&frame.payload).map_or_else(
                ClientError::from,
                |(code, message)| ClientError::Server { code, message },
            )),
            other => Err(ClientError::Protocol(format!(
                "expected metrics, got {other:?}"
            ))),
        }
    }

    /// Ask the server to shut down (acknowledged, then the connection is
    /// closed server-side).
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        write_frame(&mut self.stream, Opcode::Shutdown, &[])?;
        let frame = read_frame(&mut self.stream)?;
        match frame.opcode {
            Opcode::Result => Ok(()),
            Opcode::Error => Err(decode_error(&frame.payload).map_or_else(
                ClientError::from,
                |(code, message)| ClientError::Server { code, message },
            )),
            other => Err(ClientError::Protocol(format!(
                "expected shutdown ack, got {other:?}"
            ))),
        }
    }

    /// The underlying stream, for tests that need to misbehave at the
    /// byte level (truncated frames, garbage opcodes, hard disconnects).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
