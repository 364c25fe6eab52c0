//! # server
//!
//! Network serving front end for the shared query [`Engine`]: the paper's
//! "millions of users" story made concrete over a wire.
//!
//! * [`protocol`] — the length-prefixed binary wire protocol: a pure,
//!   separately-testable codec (versioned header; request = task + config +
//!   optional deadline; response = ordered columnar result bytes, typed
//!   error, or an `Overloaded` shed notice).
//! * [`framing`] — incremental frame I/O over a byte stream, surviving
//!   short reads and poll timeouts without losing partial frames.
//! * [`queue`] — the bounded admission queue with shed-on-full semantics.
//! * [`server`] — the std-TCP server: acceptor, fixed connection handler
//!   pool, bounded admission in front of one shared engine session,
//!   deadline/cancellation plumbed through `run_with` for every query,
//!   each answered as soon as it is done, graceful drain-then-refuse
//!   shutdown.
//! * [`client`] — a blocking client library (the `tadoc-client` CLI and the
//!   bench harness's TCP transport both build on it).
//!
//! [`Engine`]: tadoc::fine_grained::Engine

#![forbid(unsafe_code)]

pub mod client;
pub mod framing;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, ClientError, QueryOutcome};
pub use protocol::{ProtocolError, Request, Response, StatsSnapshot, WireError, WireErrorCode};
pub use server::{Server, ServerConfig, ServerError, ServerHandle};
