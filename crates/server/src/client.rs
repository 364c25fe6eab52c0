//! Blocking TCP client for the serving protocol.
//!
//! One [`Client`] wraps one connection and issues one request at a time
//! (the protocol is strictly request/response per connection; open more
//! clients for concurrency).  Responses come back typed: a shed request is
//! [`QueryOutcome::Overloaded`], a typed server failure is
//! [`QueryOutcome::Denied`], and transport/protocol breakage is a
//! [`ClientError`].

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use tadoc::apps::{Task, TaskConfig};
use tadoc::results::AnalyticsOutput;

use crate::framing::{write_frame, FrameReadError, FrameReader, ReadOutcome};
use crate::protocol::{
    encode_request, parse_response, ProtocolError, QueryRequest, Request, Response, StatsSnapshot,
    WireError,
};

/// Client-side failures (transport or protocol; *typed server answers* are
/// [`QueryOutcome`]s, not errors).
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent bytes that violate the protocol.
    Protocol(ProtocolError),
    /// The server closed the connection instead of answering.
    ServerClosed,
    /// The server answered with a frame that makes no sense for the
    /// request (e.g. a stats reply to a query).
    UnexpectedFrame,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection mid-request"),
            ClientError::UnexpectedFrame => write!(f, "server answered with an unexpected frame"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Io(e) => ClientError::Io(e),
            FrameReadError::Protocol(e) => ClientError::Protocol(e),
        }
    }
}

/// The server's typed answer to one query.
#[derive(Debug)]
pub enum QueryOutcome {
    /// The query ran; here is its result.
    Ok(Arc<AnalyticsOutput>),
    /// The query was shed at admission: the queue was full.
    Overloaded {
        /// Queue depth the server observed at shed time.
        queue_depth: u32,
        /// The server's configured queue capacity.
        capacity: u32,
    },
    /// The server answered with a typed error (deadline exceeded, shutting
    /// down, …).
    Denied(WireError),
}

/// One connection to a `tadoc-server`.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    /// Connects (blocking, no read timeout: a queued query legitimately
    /// waits for its turn on the engine).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
        })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        loop {
            match self.reader.read_frame(&mut self.stream)? {
                ReadOutcome::Frame { kind, payload } => {
                    return parse_response(kind, &payload).map_err(ClientError::Protocol);
                }
                ReadOutcome::Closed => return Err(ClientError::ServerClosed),
                // No read timeout is set, but a signal-interrupted read
                // surfaces as Idle; just keep waiting.
                ReadOutcome::Idle => continue,
            }
        }
    }

    /// Runs `task` with no deadline.
    pub fn query(&mut self, task: Task, cfg: TaskConfig) -> Result<QueryOutcome, ClientError> {
        self.query_opt(task, cfg, None)
    }

    /// Runs `task` under a server-enforced deadline in milliseconds
    /// (measured from admission; queue wait counts against it).
    pub fn query_with_deadline(
        &mut self,
        task: Task,
        cfg: TaskConfig,
        deadline_ms: u64,
    ) -> Result<QueryOutcome, ClientError> {
        self.query_opt(task, cfg, Some(deadline_ms))
    }

    fn query_opt(
        &mut self,
        task: Task,
        cfg: TaskConfig,
        deadline_ms: Option<u64>,
    ) -> Result<QueryOutcome, ClientError> {
        let req = Request::Query(QueryRequest {
            task,
            cfg,
            deadline_ms,
        });
        match self.round_trip(&req)? {
            Response::Result(out) => Ok(QueryOutcome::Ok(out)),
            Response::Error(e) => Ok(QueryOutcome::Denied(e)),
            Response::Overloaded {
                queue_depth,
                capacity,
            } => Ok(QueryOutcome::Overloaded {
                queue_depth,
                capacity,
            }),
            Response::Stats(_) | Response::ShutdownAck => Err(ClientError::UnexpectedFrame),
        }
    }

    /// Fetches the server's counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error(e) => Err(ClientError::Protocol(ProtocolError::Malformed(format!(
                "stats refused: {} ({:?})",
                e.message, e.code
            )))),
            _ => Err(ClientError::UnexpectedFrame),
        }
    }

    /// Asks the server to shut down gracefully; returns once acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            _ => Err(ClientError::UnexpectedFrame),
        }
    }
}
