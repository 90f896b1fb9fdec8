//! The wire protocol: length-prefixed JSON frames, the request/response
//! catalogue, typed error frames and the version handshake.
//!
//! ## Frame layout
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! ┌────────────────┬──────────────────────────────┐
//! │ length: u32 BE │ payload: `length` bytes JSON │
//! └────────────────┴──────────────────────────────┘
//! ```
//!
//! The length counts payload bytes only and must not exceed
//! [`MAX_FRAME_LEN`]; a larger prefix is refused *before* any payload is
//! read, so a hostile length cannot make the server allocate. The payload
//! is the externally-tagged JSON encoding of [`Request`] or [`Response`].
//!
//! ## Handshake
//!
//! The first client frame must be [`Request::Hello`] carrying
//! [`PROTOCOL_VERSION`] and a tenant name; the server answers
//! [`Response::HelloAck`] or a typed [`Response::Error`] and closes. Any
//! other first frame is a [`ErrorKind::BadRequest`].
//!
//! ## Value encoding
//!
//! Query results carry `f64` values as their IEEE-754 bit patterns in
//! `u64` fields (`*_bits`). JSON has no NaN/Inf and decimal round trips
//! invite drift; bit patterns make every served answer comparable
//! bit-for-bit against an in-process evaluation — the identity the
//! concurrency suite asserts.

use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Protocol version spoken by this build; bumped on any wire change.
/// v2 added `retry_after_ms` to error frames and the `Timeout` /
/// `Draining` error kinds. v3 added the [`Request::Batch`] /
/// [`Response::Batch`] pipelined frames and the per-tenant result-cache
/// counters in [`TenantSnapshot`] / [`Introspection`].
pub const PROTOCOL_VERSION: u32 = 3;

/// Hard ceiling on a frame's payload length, in bytes. A length prefix
/// above this is a protocol error and the frame is never read.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Hard ceiling on sub-queries in one [`Request::Batch`] frame. Keeps a
/// single frame from monopolising its in-flight admission slot and bounds
/// the reply frame against [`MAX_FRAME_LEN`].
pub const MAX_BATCH_LEN: usize = 256;

/// Why a frame could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// EOF arrived inside a frame (torn length prefix or short payload).
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge {
        /// The declared payload length.
        len: u32,
    },
    /// The payload was not valid JSON, or not a valid message shape.
    Malformed(String),
    /// An underlying socket error.
    Io(String),
    /// An i/o deadline expired: connect, whole-frame read, or write.
    /// `waited_ms` is how long the caller waited before giving up (0 when
    /// a socket-level timeout fired and the exact wait is unknown).
    Timeout {
        /// Milliseconds waited before the deadline fired.
        waited_ms: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { expected, got } => {
                write!(f, "frame truncated: wanted {expected} more bytes, got {got}")
            }
            FrameError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::Io(m) => write!(f, "i/o error: {m}"),
            FrameError::Timeout { waited_ms: 0 } => write!(f, "i/o deadline expired"),
            FrameError::Timeout { waited_ms } => {
                write!(f, "i/o deadline expired after {waited_ms} ms")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Map an [`std::io::Error`] to the frame-error taxonomy: a socket-level
/// timeout (`TimedOut` on Unix, `WouldBlock` where `SO_RCVTIMEO` reports
/// it that way) becomes [`FrameError::Timeout`], everything else
/// [`FrameError::Io`].
fn io_error(e: std::io::Error) -> FrameError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            FrameError::Timeout { waited_ms: 0 }
        }
        _ => FrameError::Io(e.to_string()),
    }
}

/// Read exactly `buf.len()` bytes, distinguishing a clean EOF at a frame
/// boundary (`Closed` when `at_boundary`) from a torn frame (`Truncated`).
fn read_full(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if at_boundary && got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated { expected: buf.len() - got, got }
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    Ok(())
}

/// Read one raw frame payload.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    read_full(r, &mut prefix, true)?;
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { len });
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, false)?;
    Ok(payload)
}

/// Write one raw frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() as u64 > u64::from(MAX_FRAME_LEN) {
        return Err(FrameError::TooLarge { len: payload.len() as u32 });
    }
    let len = (payload.len() as u32).to_be_bytes();
    w.write_all(&len).map_err(io_error)?;
    w.write_all(payload).map_err(io_error)?;
    w.flush().map_err(io_error)?;
    Ok(())
}

/// Serialise a message into a frame and write it.
pub fn send_message<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), FrameError> {
    let json = serde_json::to_string(msg).map_err(|e| FrameError::Malformed(e.to_string()))?;
    write_frame(w, json.as_bytes())
}

/// Deserialise one frame payload as `T`.
pub fn decode_message<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let text = std::str::from_utf8(payload).map_err(|e| FrameError::Malformed(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Read a frame and deserialise it as `T`.
pub fn recv_message<T: Deserialize>(r: &mut impl Read) -> Result<T, FrameError> {
    let payload = read_frame(r)?;
    decode_message(&payload)
}

/// Outcome of a deadline-bounded frame read.
#[derive(Debug)]
pub enum DeadlineRead {
    /// A complete frame arrived within the deadline.
    Frame(Vec<u8>),
    /// The abort flag was observed while waiting *between* frames (no byte
    /// of the next frame had arrived), so the caller can end the session
    /// gracefully without tearing a request in half.
    Aborted,
}

/// Read one frame with a hard total deadline, polling the socket at `tick`
/// granularity.
///
/// The clock starts at call time: the wait for the frame to begin and the
/// frame's completion (prefix and payload) share the one deadline. A peer
/// that dribbles one byte per interval therefore cannot hold the session
/// open indefinitely: partial progress never resets the deadline (the
/// slow-loris defense).
///
/// `abort`, when set, is sampled once per tick. Observing it between
/// frames yields [`DeadlineRead::Aborted`]; observing it mid-frame lets
/// the frame finish under the remaining deadline, so an in-flight request
/// is either served whole or timed out — never half-read.
///
/// The socket's read timeout is set to `tick` and left that way.
pub fn read_frame_deadline(
    stream: &mut TcpStream,
    deadline: Duration,
    tick: Duration,
    abort: Option<&AtomicBool>,
) -> Result<DeadlineRead, FrameError> {
    stream
        .set_read_timeout(Some(tick.max(Duration::from_millis(1))))
        .map_err(io_error)?;
    let start = Instant::now();
    let mut prefix = [0u8; 4];
    let mut payload: Option<Vec<u8>> = None;
    let mut got = 0usize;
    loop {
        let (buf, at_boundary): (&mut [u8], bool) = match payload {
            None => (&mut prefix, true),
            Some(ref mut p) => (p.as_mut_slice(), false),
        };
        while got < buf.len() {
            // Checked only while bytes are still owed, so a frame whose
            // last byte lands exactly at the deadline is still returned.
            if start.elapsed() >= deadline {
                return Err(FrameError::Timeout {
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            match stream.read(&mut buf[got..]) {
                Ok(0) => {
                    return Err(if at_boundary && got == 0 {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated { expected: buf.len() - got, got }
                    });
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    if let Some(flag) = abort {
                        if flag.load(Ordering::Acquire) && at_boundary && got == 0 {
                            return Ok(DeadlineRead::Aborted);
                        }
                    }
                }
                Err(e) => return Err(io_error(e)),
            }
        }
        match payload {
            None => {
                let len = u32::from_be_bytes(prefix);
                if len > MAX_FRAME_LEN {
                    return Err(FrameError::TooLarge { len });
                }
                payload = Some(vec![0u8; len as usize]);
                got = 0;
            }
            Some(p) => return Ok(DeadlineRead::Frame(p)),
        }
    }
}

/// Aggregation operator on the wire, mirroring [`hpc_tsdb::AggOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireOp {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Sample count.
    Count,
    /// 95th percentile (forces a raw scan server-side).
    P95,
}

impl From<WireOp> for hpc_tsdb::AggOp {
    fn from(op: WireOp) -> Self {
        match op {
            WireOp::Mean => hpc_tsdb::AggOp::Mean,
            WireOp::Min => hpc_tsdb::AggOp::Min,
            WireOp::Max => hpc_tsdb::AggOp::Max,
            WireOp::Sum => hpc_tsdb::AggOp::Sum,
            WireOp::Count => hpc_tsdb::AggOp::Count,
            WireOp::P95 => hpc_tsdb::AggOp::P95,
        }
    }
}

/// A client request. The first request on a session must be `Hello`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Version handshake; `tenant` names the budget bucket this session
    /// draws from.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Tenant the session belongs to.
        tenant: String,
    },
    /// Liveness probe.
    Ping,
    /// One aggregate of one series over `[from, to)`.
    Aggregate {
        /// Series name (e.g. `"facility"`, `"cabinet.3"`).
        series: String,
        /// Window start (inclusive), unix seconds.
        from: i64,
        /// Window end (exclusive), unix seconds.
        to: i64,
        /// Operator.
        op: WireOp,
    },
    /// Aligned `step`-second windows over `[from, to)`.
    Windows {
        /// Series name.
        series: String,
        /// Range start (inclusive).
        from: i64,
        /// Range end (exclusive).
        to: i64,
        /// Window width, seconds (must be positive).
        step: i64,
        /// Operator.
        op: WireOp,
    },
    /// Grouped reduction across many series over one window (the
    /// "all cabinets → facility" shape).
    Group {
        /// Series names to reduce.
        series: Vec<String>,
        /// Window start (inclusive).
        from: i64,
        /// Window end (exclusive).
        to: i64,
    },
    /// Gap-aware aggregate: moments over present samples plus the
    /// coverage fraction against the series' cadence hint.
    Gap {
        /// Series name.
        series: String,
        /// Window start (inclusive).
        from: i64,
        /// Window end (exclusive).
        to: i64,
    },
    /// Enumerate registered series.
    ListSeries,
    /// Server-side observability: per-tenant counters, latency
    /// percentiles, store query stats, live ingest rejection count.
    Introspect,
    /// v3: several data queries in one frame. Entries must be data-query
    /// shapes (`Aggregate`, `Windows`, `Group`, `Gap`) — control frames
    /// and nested batches are refused per entry with a typed error, never
    /// by killing the whole frame. The batch occupies **one** in-flight
    /// admission slot (it executes sequentially server-side) while every
    /// entry is billed individually: per-entry scan-budget checks,
    /// per-entry served/latency accounting, per-entry typed errors in the
    /// matching [`Response::Batch`] slot. At most [`MAX_BATCH_LEN`]
    /// entries; an empty batch is a `BadRequest`.
    Batch {
        /// Sub-queries, answered in order.
        entries: Vec<Request>,
    },
}

/// One aligned window on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireWindow {
    /// Window start (inclusive).
    pub start: i64,
    /// Aggregated value as IEEE-754 bits (NaN-safe).
    pub value_bits: u64,
    /// Samples inside the window.
    pub count: u64,
}

/// Grouped-reduction result on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireGroup {
    /// Series that resolved and contributed.
    pub series: u64,
    /// Names that did not resolve.
    pub missing: u64,
    /// Sum of per-series window means, as bits.
    pub sum_of_means_bits: u64,
    /// Mean of per-series means, as bits (NaN when nothing resolved).
    pub mean_of_means_bits: u64,
    /// Total samples across every resolved series.
    pub total_count: u64,
}

/// Gap-aware aggregate on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireGap {
    /// Present samples in the window.
    pub count: u64,
    /// Mean over present samples, as bits (NaN when all gap).
    pub mean_bits: u64,
    /// Samples the cadence hint expected.
    pub expected: u64,
    /// `count / expected` clamped to `[0, 1]`, as bits.
    pub coverage_bits: u64,
    /// Quarantined samples in the window.
    pub quarantined: u64,
}

/// One catalog entry from `ListSeries`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireSeries {
    /// Store-assigned series id.
    pub id: u64,
    /// Series name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Expected cadence, seconds (0 = unknown).
    pub interval_hint: i64,
    /// Stored samples at catalog time.
    pub samples: u64,
}

/// Per-tenant counters in an [`Introspection`] reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// Sessions currently open.
    pub sessions: u64,
    /// Queries currently executing.
    pub in_flight: u64,
    /// Queries answered successfully.
    pub served: u64,
    /// Queries refused because an in-flight limit was hit.
    pub rejected_overloaded: u64,
    /// Queries refused by the per-query scan budget.
    pub rejected_budget: u64,
    /// Frames from this tenant that failed to parse.
    pub protocol_errors: u64,
    /// Median served-query latency, microseconds (0 when none served).
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Queries answered from this tenant's generation-keyed result cache
    /// (no execution, no scan-budget estimate).
    pub result_cache_hits: u64,
    /// Queries that executed and (where cacheable) populated the cache.
    pub result_cache_misses: u64,
    /// Queries that joined an identical in-flight execution and shared
    /// its reply (single-flight coalescing).
    pub coalesced: u64,
    /// Store work attributed to this tenant (chunks decoded vs cache
    /// hits, samples scanned), folded total-order-safely from per-query
    /// deltas.
    pub query: hpc_tsdb::QueryStats,
}

/// The `Introspect` reply: a self-describing snapshot of the server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Introspection {
    /// Server name from its config.
    pub server: String,
    /// Protocol version the server speaks.
    pub protocol_version: u32,
    /// Sessions currently open, across all tenants.
    pub sessions_active: u64,
    /// Connections refused at admission (session caps).
    pub sessions_rejected: u64,
    /// Sessions evicted for blowing an i/o deadline: handshake or idle
    /// frame deadlines (slow-loris) and reply-write timeouts.
    pub sessions_evicted: u64,
    /// Whether the server is draining for shutdown.
    pub draining: bool,
    /// Live rejected-ingest count from the attached probe (0 without one).
    pub ingest_rejected: u64,
    /// Result-cache hits summed across every tenant.
    pub result_cache_hits: u64,
    /// Result-cache misses summed across every tenant.
    pub result_cache_misses: u64,
    /// Single-flight coalesced queries summed across every tenant.
    pub coalesced_queries: u64,
    /// Store-wide query counters since server start.
    pub store: hpc_tsdb::QueryStats,
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantSnapshot>,
}

/// Machine-readable error category carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Handshake version is not [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The request was well-framed but invalid (bad params, missing
    /// handshake, repeated handshake).
    BadRequest,
    /// The named series is not registered.
    UnknownSeries,
    /// Admission control refused the work: a session/in-flight cap or the
    /// per-query scan budget. When the refusal is transient the error
    /// frame carries a `retry_after_ms` hint; without one, retrying the
    /// same request cannot succeed (e.g. a scan-budget breach).
    Overloaded,
    /// The frame could not be parsed (bad length, bad JSON, bad shape).
    Protocol,
    /// The server evicted this session for blowing an i/o deadline: the
    /// handshake or a request frame did not complete within the idle
    /// deadline (slow-loris defense), or the session stopped draining its
    /// replies. Reconnect to continue.
    Timeout,
    /// The server is draining for shutdown and refuses new sessions and
    /// new requests; in-flight requests were allowed to finish. Retry
    /// against the replacement instance after `retry_after_ms`.
    Draining,
}

/// A server reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Successful handshake.
    HelloAck {
        /// Server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Server name from its config.
        server: String,
    },
    /// Reply to `Ping`.
    Pong,
    /// Reply to `Aggregate`.
    Aggregate {
        /// The value as IEEE-754 bits.
        value_bits: u64,
        /// Which plan served it (`"HourRollup"`, `"MinuteRollup"`,
        /// `"RawScan"`).
        plan: String,
    },
    /// Reply to `Windows`.
    Windows {
        /// One entry per aligned window, in time order.
        windows: Vec<WireWindow>,
    },
    /// Reply to `Group`.
    Group(WireGroup),
    /// Reply to `Gap`.
    Gap(WireGap),
    /// Reply to `ListSeries`.
    Series {
        /// Catalog entries sorted by id.
        entries: Vec<WireSeries>,
    },
    /// Reply to `Introspect`.
    Stats(Introspection),
    /// Reply to `Batch`: one entry per sub-query, in request order. A
    /// failed entry is a [`Response::Error`] in its slot; the other
    /// entries still carry their answers.
    Batch {
        /// Per-entry replies, aligned with the request's entries.
        entries: Vec<Response>,
    },
    /// Typed failure; the session stays open except for handshake,
    /// protocol, timeout-eviction and draining errors.
    Error {
        /// Category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// For transient refusals (`Overloaded`, `Draining`): how long a
        /// well-behaved client should back off before retrying. `None`
        /// means a retry of the identical request cannot succeed.
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// Build an error reply with no retry hint.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Error { kind, message: message.into(), retry_after_ms: None }
    }

    /// Build a transient error reply carrying a retry hint.
    pub fn retryable_error(
        kind: ErrorKind,
        message: impl Into<String>,
        retry_after_ms: u64,
    ) -> Response {
        Response::Error { kind, message: message.into(), retry_after_ms: Some(retry_after_ms) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"x\":1}").unwrap();
        assert_eq!(&buf[..4], &7u32.to_be_bytes());
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, b"{\"x\":1}");
    }

    #[test]
    fn eof_between_frames_is_closed_inside_is_truncated() {
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }), Err(FrameError::Closed));
        // Torn length prefix.
        let torn: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut { torn }), Err(FrameError::Truncated { .. })));
        // Full prefix, short payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(7);
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn oversized_prefix_is_refused_before_payload() {
        let mut buf = Vec::from((MAX_FRAME_LEN + 1).to_be_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::TooLarge { len: MAX_FRAME_LEN + 1 })
        );
    }

    #[test]
    fn messages_round_trip_including_nan_bits() {
        let mut buf = Vec::new();
        let req = Request::Windows {
            series: "cabinet.7".into(),
            from: -60,
            to: 86_400,
            step: 900,
            op: WireOp::P95,
        };
        send_message(&mut buf, &req).unwrap();
        let back: Request = recv_message(&mut buf.as_slice()).unwrap();
        match back {
            Request::Windows { series, from, to, step, op } => {
                assert_eq!(series, "cabinet.7");
                assert_eq!((from, to, step), (-60, 86_400, 900));
                assert_eq!(op, WireOp::P95);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        // NaN survives as bits where JSON floats could not.
        let resp = Response::Aggregate {
            value_bits: f64::NAN.to_bits(),
            plan: "RawScan".into(),
        };
        let mut buf = Vec::new();
        send_message(&mut buf, &resp).unwrap();
        let back: Response = recv_message(&mut buf.as_slice()).unwrap();
        match back {
            Response::Aggregate { value_bits, .. } => {
                assert!(f64::from_bits(value_bits).is_nan());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn batch_frames_round_trip() {
        let req = Request::Batch {
            entries: vec![
                Request::Aggregate { series: "facility".into(), from: 0, to: 3600, op: WireOp::Mean },
                Request::Gap { series: "cabinet.3".into(), from: 0, to: 900 },
            ],
        };
        let mut buf = Vec::new();
        send_message(&mut buf, &req).unwrap();
        match recv_message::<Request>(&mut buf.as_slice()).unwrap() {
            Request::Batch { entries } => {
                assert_eq!(entries.len(), 2);
                assert!(matches!(entries[0], Request::Aggregate { .. }));
                assert!(matches!(entries[1], Request::Gap { .. }));
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let resp = Response::Batch {
            entries: vec![
                Response::Aggregate { value_bits: 42u64, plan: "HourRollup".into() },
                Response::error(ErrorKind::UnknownSeries, "unknown series \"nope\""),
            ],
        };
        let mut buf = Vec::new();
        send_message(&mut buf, &resp).unwrap();
        match recv_message::<Response>(&mut buf.as_slice()).unwrap() {
            Response::Batch { entries } => {
                assert!(matches!(entries[0], Response::Aggregate { value_bits: 42, .. }));
                assert!(matches!(
                    entries[1],
                    Response::Error { kind: ErrorKind::UnknownSeries, .. }
                ));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// `hpc_tsdb::QueryStats` is sent as is, so its field names and order
    /// are wire format: pin the exact `store` text of a `Stats` reply.
    #[test]
    fn stats_reply_pins_the_query_stats_wire_text() {
        let store = hpc_tsdb::QueryStats {
            queries: 101,
            plans_hour: 102,
            plans_minute: 103,
            plans_raw: 104,
            chunks_decoded: 105,
            chunk_cache_hits: 106,
            samples_scanned: 107,
            blocks_pruned: 108,
            chunks_compacted: 109,
            wall_nanos: 110,
        };
        let resp = Response::Stats(Introspection {
            server: "pin".into(),
            protocol_version: PROTOCOL_VERSION,
            sessions_active: 1,
            sessions_rejected: 2,
            sessions_evicted: 3,
            draining: false,
            ingest_rejected: 4,
            result_cache_hits: 5,
            result_cache_misses: 6,
            coalesced_queries: 7,
            store,
            tenants: Vec::new(),
        });
        let mut buf = Vec::new();
        send_message(&mut buf, &resp).unwrap();
        let text = std::str::from_utf8(&buf[4..]).unwrap();
        let pinned = "\"store\":{\"queries\":101,\"plans_hour\":102,\"plans_minute\":103,\
                      \"plans_raw\":104,\"chunks_decoded\":105,\"chunk_cache_hits\":106,\
                      \"samples_scanned\":107,\"blocks_pruned\":108,\"chunks_compacted\":109,\
                      \"wall_nanos\":110}";
        assert!(text.contains(pinned), "wire text moved: {text}");
        match recv_message::<Response>(&mut buf.as_slice()).unwrap() {
            Response::Stats(back) => assert_eq!(back.store, store),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn garbage_json_is_malformed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"not json at all").unwrap();
        assert!(matches!(
            recv_message::<Request>(&mut buf.as_slice()),
            Err(FrameError::Malformed(_))
        ));
        // Valid JSON, wrong shape.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"NoSuchVariant\":{}}").unwrap();
        assert!(matches!(
            recv_message::<Request>(&mut buf.as_slice()),
            Err(FrameError::Malformed(_))
        ));
    }
}
