//! # hpc-serve
//!
//! A concurrent telemetry query service over a live [`hpc_tsdb`] store:
//! the serving tier that turns the embedded TSDB into something many
//! operators can query *while the facility campaign is still ingesting*.
//!
//! Three layers:
//!
//! - [`protocol`] — length-prefixed JSON frames over TCP, a
//!   version-checked handshake, the request/response catalogue and typed
//!   error frames. `f64` results travel as IEEE-754 bit patterns so
//!   served answers are comparable bit-for-bit with in-process queries.
//! - [`session`] — admission control: global and per-tenant session caps,
//!   in-flight query caps and per-query scan budgets. Overload is met
//!   with a typed `Overloaded` rejection, never an unbounded queue.
//! - [`server`] / [`client`] — the thread-per-connection serving loop
//!   over a shared [`hpc_tsdb::TsdbStore`] handle (clones share shards,
//!   so reads run against live ingest), and a thin blocking client.
//!
//! Observability is first-class: every tenant accumulates served/rejected
//! counters, latency percentiles from [`sim_core::stats::Histogram`], and
//! store-work attribution ([`hpc_tsdb::QueryStats`] deltas folded with
//! saturating arithmetic), all served back over the wire by `Introspect`.
//!
//! Resilience is layered on top (protocol v2):
//!
//! - [`session::TimeoutConfig`] — server-side handshake/idle deadlines with
//!   slow-client eviction (slow-loris defence) and polling reads, plus a
//!   graceful [`server::Server::drain`] that lets in-flight work finish
//!   before force-closing stragglers.
//! - [`resilient`] — a deadline-aware retrying client: bounded attempts,
//!   exponential backoff with deterministic seeded jitter, automatic
//!   reconnect, and a retry-safety matrix that refuses to retry what
//!   retrying cannot fix.
//! - [`chaos`] — a deterministic TCP man-in-the-middle injecting latency,
//!   stalls, partial frames and disconnects from a seeded fault plan, so
//!   the resilience claims above are *tested*, not asserted.
//!
//! Read-path scale-out (protocol v3):
//!
//! - **Epoch-published snapshots** — query evaluation goes through the
//!   store's immutable [`hpc_tsdb::ReadView`] whenever it is current, so
//!   a query storm takes no shard locks against the live writer.
//! - **Generation-keyed result cache with single-flight** — per-tenant
//!   reply caching invalidated by every store mutation, with identical
//!   concurrent queries coalescing behind one execution (see
//!   `server`-internal machinery; counters surface per tenant in
//!   [`TenantSnapshot`] and in aggregate in [`Introspection`]).
//! - **Pipelined batches** — [`Request::Batch`] runs many data queries
//!   under one admission slot and one round trip;
//!   [`Client::request_pipelined`] overlaps whole frames on one session.
//!
//! Every cached, coalesced or batched reply is byte-identical to what the
//! uncached sequential path would have produced — caches store the exact
//! serialized frame payload, and the proptests in `tests/serve_cache.rs`
//! hold that equivalence as the oracle.

#![warn(missing_docs)]

mod cache;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod resilient;
pub mod server;
pub mod session;

pub use chaos::{ChaosPlan, ChaosProxy, ChaosStats};
pub use client::{Client, ClientConfig, ConnectError};
pub use protocol::{
    DeadlineRead, ErrorKind, FrameError, Introspection, Request, Response, TenantSnapshot,
    WireGap, WireGroup, WireOp, WireSeries, WireWindow, MAX_BATCH_LEN, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use resilient::{ResilientClient, ResilientError, RetryPolicy, RetryStats};
pub use server::{DrainStats, IngestProbe, Server, ServerConfig};
pub use session::{AdmissionConfig, Reject, TenantBudget, TimeoutConfig};
