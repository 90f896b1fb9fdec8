//! The serving loop: a TCP listener, one handler thread per connection,
//! handshake-first dispatch and admission-checked query execution against
//! a shared [`TsdbStore`] handle.
//!
//! The server owns a *clone* of the store handle, not the store — clones
//! share the underlying shards, so a campaign keeps ingesting through its
//! own handle while every session reads through this one. Store-level
//! queries are snapshot-isolated (shard locks are never held across chunk
//! decode), which is what makes many readers against a live writer safe.
//!
//! Dispatch order per request: frame decode → (handshake state) →
//! in-flight admission → parameter validation → series resolution →
//! result-cache lookup → scan-budget check → execution. Everything before
//! execution is O(1), so a rejected request costs the server almost
//! nothing — that is the point of admission control.
//!
//! ## Read-path scale-out
//!
//! Three mechanisms keep a query storm off the ingest path:
//!
//! * **Epoch-published snapshots** — store reads go through
//!   [`TsdbStore::with_series_read`], which evaluates against the last
//!   published immutable [`hpc_tsdb::ReadView`] whenever it is still at
//!   the current store generation, taking no shard lock at all. The
//!   serving campaign republishes the view after each ingest step, and
//!   the first telemetry tick of the next step retires it; from then until
//!   the next publication every read takes a short shard read lock to
//!   snapshot, with the decode outside the lock. Under live ingest the
//!   view serves the minority of reads that land between a publication
//!   and that tick; a store that is not ingesting serves every read from
//!   it.
//! * **Generation-keyed result cache with single-flight** — each tenant
//!   caches finished data-query replies keyed by the request's canonical
//!   serialisation and stamped with the store generation; any mutation
//!   bumps the generation and the next lookup drops the lot. Identical
//!   concurrent queries coalesce behind one execution. A cache hit is
//!   answered from the *stored reply bytes*, so it is byte-identical to a
//!   fresh execution, skips the scan-budget estimate entirely (the same
//!   tenant already paid that check for the same bytes at the same
//!   generation), and costs the tenant no scan budget.
//! * **Pipelined batches** — a v3 [`Request::Batch`] carries up to
//!   [`MAX_BATCH_LEN`] data queries in one frame under a *single*
//!   in-flight admission slot; every entry is still billed (budget,
//!   served/rejected counters, cache) individually, and a failed entry is
//!   a typed [`Response::Error`] in its slot without poisoning the rest.
//!
//! ## Time-based defenses
//!
//! Every session read runs under [`TimeoutConfig`] deadlines via
//! [`read_frame_deadline`]: the handshake must complete within
//! `handshake_deadline`, each request frame within `idle_deadline`, and
//! partial progress never resets the clock — a slow-loris client
//! dribbling one byte per tick is evicted exactly like a silent one, with
//! a best-effort typed `Timeout` frame and a `sessions_evicted` count.
//! Reply writes carry a socket write timeout, so a session that stops
//! draining its replies is evicted too. Shutdown is a *drain*
//! ([`Server::drain`]): stop accepting, notify idle sessions with a typed
//! `Draining` frame, let in-flight requests finish up to a deadline, then
//! force-close the stragglers.

use crate::cache::{CachedReply, Lookup, FLIGHT_WAIT};
use crate::protocol::{
    decode_message, read_frame_deadline, send_message, write_frame, DeadlineRead, ErrorKind,
    FrameError, Introspection, Request, Response, WireGap, WireGroup, WireSeries, WireWindow,
    MAX_BATCH_LEN, PROTOCOL_VERSION,
};
use crate::session::{AdmissionConfig, GlobalAdmission, Reject, TenantState, TimeoutConfig};
use hpc_tsdb::{
    fanout_group, store_aggregate, store_gap_aggregate, store_windows, QueryStats, SeriesId,
    TsdbStore,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live ingest-rejection probe: the server calls this on `Introspect` to
/// report the campaign-side rejected count without owning the writer.
pub type IngestProbe = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Name echoed in `HelloAck` and `Introspect` replies.
    pub name: String,
    /// Admission caps and tenant budgets.
    pub admission: AdmissionConfig,
    /// Idle/handshake/write deadlines and drain behaviour.
    pub timeouts: TimeoutConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            name: "hpc-serve".into(),
            admission: AdmissionConfig::default(),
            timeouts: TimeoutConfig::default(),
        }
    }
}

/// What [`Server::drain`] accomplished before returning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Sessions open when the drain began.
    pub sessions_at_drain: u64,
    /// Sessions that finished (or noticed the drain and left) within the
    /// deadline.
    pub drained: u64,
    /// Sessions force-closed at the deadline.
    pub force_closed: u64,
}

/// Shared server state, referenced by the accept loop and every handler.
struct Inner {
    store: TsdbStore,
    name: String,
    admission: AdmissionConfig,
    timeouts: TimeoutConfig,
    global: GlobalAdmission,
    tenants: Mutex<BTreeMap<String, Arc<TenantState>>>,
    ingest_probe: Mutex<Option<IngestProbe>>,
    /// Drain flag: stops the accept loop and is observed once per poll
    /// tick by every session waiting between frames.
    draining: AtomicBool,
    sessions_evicted: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<HashMap<u64, JoinHandle<()>>>,
    /// Conn ids whose handler thread has finished and can be joined
    /// without blocking — the reap queue.
    finished: Mutex<Vec<u64>>,
}

impl Inner {
    fn tenant(&self, name: &str) -> Arc<TenantState> {
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants.get(name) {
            return Arc::clone(t);
        }
        let budget = self
            .admission
            .tenant_budgets
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, b)| b)
            .unwrap_or(self.admission.default_budget);
        let t = Arc::new(TenantState::new(
            name.to_string(),
            budget,
            self.admission.result_cache_capacity,
        ));
        tenants.insert(name.to_string(), Arc::clone(&t));
        t
    }

    fn introspection(&self) -> Introspection {
        let ingest_rejected = self.ingest_probe.lock().as_ref().map_or(0, |p| p());
        let tenants: Vec<_> = self.tenants.lock().values().map(|t| t.snapshot()).collect();
        Introspection {
            server: self.name.clone(),
            protocol_version: PROTOCOL_VERSION,
            sessions_active: self.global.sessions_active(),
            sessions_rejected: self.global.sessions_rejected.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Acquire),
            ingest_rejected,
            result_cache_hits: tenants.iter().map(|t| t.result_cache_hits).sum(),
            result_cache_misses: tenants.iter().map(|t| t.result_cache_misses).sum(),
            coalesced_queries: tenants.iter().map(|t| t.coalesced).sum(),
            store: self.store.query_stats(),
            tenants,
        }
    }

    fn evict(&self, stream: &mut TcpStream, why: String) {
        self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
        // Best-effort: a slow-loris peer may not even drain this frame.
        let _ = send_message(stream, &Response::error(ErrorKind::Timeout, why));
    }

    fn drain_notice(&self, stream: &mut TcpStream) {
        let _ = send_message(
            stream,
            &Response::retryable_error(
                ErrorKind::Draining,
                "server draining; reconnect to a live instance",
                self.timeouts.drain_deadline.as_millis() as u64,
            ),
        );
    }

    /// Join every handler thread whose session has already ended. Joining
    /// a finished thread is O(1); ids whose handle has not been registered
    /// yet (the spawn/finish race) are requeued for the next pass.
    fn reap_finished(&self) {
        let ids = std::mem::take(&mut *self.finished.lock());
        if ids.is_empty() {
            return;
        }
        let mut requeue = Vec::new();
        for id in ids {
            let handle = self.handlers.lock().remove(&id);
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => requeue.push(id),
            }
        }
        if !requeue.is_empty() {
            self.finished.lock().extend(requeue);
        }
    }
}

/// Held by a connection's handler thread. Dropping it, on return or while
/// a panicking request unwinds, closes the accept loop's clone of the
/// socket, so the client sees EOF, and queues the thread to be joined.
struct ConnClosing<'a> {
    inner: &'a Inner,
    conn_id: u64,
}

impl Drop for ConnClosing<'_> {
    fn drop(&mut self) {
        self.inner.conns.lock().remove(&self.conn_id);
        self.inner.finished.lock().push(self.conn_id);
    }
}

/// A running query service bound to a local TCP port.
///
/// Dropping the server shuts it down immediately (a zero-deadline
/// [`Server::drain`]): the listener stops accepting, every open connection
/// is closed, and all handler threads are joined. Handler threads do not
/// otherwise accumulate: each session pushes itself onto a reap queue as
/// it closes and the accept loop joins finished handles on every
/// iteration, so a long-running service holds O(live sessions) handles,
/// not O(all sessions ever).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    stopped: bool,
}

impl Server {
    /// Bind `127.0.0.1:0` and start accepting sessions against `store`.
    ///
    /// `store` should be a [`TsdbStore::clone`] of the handle the ingest
    /// side keeps — the clone shares the shards, so queries see live data.
    pub fn start(store: TsdbStore, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            store,
            name: config.name,
            global: GlobalAdmission::new(&config.admission),
            admission: config.admission,
            timeouts: config.timeouts,
            tenants: Mutex::new(BTreeMap::new()),
            ingest_probe: Mutex::new(None),
            draining: AtomicBool::new(false),
            sessions_evicted: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(HashMap::new()),
            finished: Mutex::new(Vec::new()),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                let mut next_conn = 0u64;
                for stream in listener.incoming() {
                    if inner.draining.load(Ordering::Acquire) {
                        break;
                    }
                    inner.reap_finished();
                    let stream = match stream {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    // Replies are single small frames; without this, Nagle
                    // vs. delayed-ACK adds ~40 ms to every round trip.
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(inner.timeouts.write_timeout));
                    let conn_id = next_conn;
                    next_conn += 1;
                    if let Ok(clone) = stream.try_clone() {
                        inner.conns.lock().insert(conn_id, clone);
                    }
                    let inner2 = Arc::clone(&inner);
                    let handle = std::thread::spawn(move || {
                        let _closing = ConnClosing { inner: &inner2, conn_id };
                        handle_conn(&inner2, stream);
                    });
                    inner.handlers.lock().insert(conn_id, handle);
                }
            })
        };
        Ok(Server { inner, addr, accept: Some(accept), stopped: false })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Attach the live ingest-rejection probe reported by `Introspect`.
    pub fn set_ingest_probe(&self, probe: IngestProbe) {
        *self.inner.ingest_probe.lock() = Some(probe);
    }

    /// In-process observability snapshot (same data `Introspect` serves).
    pub fn introspect(&self) -> Introspection {
        self.inner.introspection()
    }

    /// Gracefully drain the server: stop accepting, tell idle sessions to
    /// reconnect elsewhere (a typed `Draining` frame with a retry hint),
    /// let in-flight requests finish for up to `deadline`, then
    /// force-close whatever remains and join every handler thread.
    /// Idempotent; [`Server::shutdown`] is a zero-deadline drain.
    pub fn drain(&mut self, deadline: Duration) -> DrainStats {
        if self.stopped {
            return DrainStats::default();
        }
        self.stopped = true;
        self.inner.draining.store(true, Ordering::Release);
        // Wake the blocking `accept` so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let sessions_at_drain = self.inner.conns.lock().len() as u64;
        let started = Instant::now();
        let tick = self.inner.timeouts.poll_tick.max(Duration::from_millis(1));
        while started.elapsed() < deadline {
            if self.inner.conns.lock().is_empty() {
                break;
            }
            std::thread::sleep(tick.min(deadline - started.elapsed()));
        }
        let mut force_closed = 0u64;
        for (_, conn) in self.inner.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
            force_closed += 1;
        }
        let handlers = std::mem::take(&mut *self.inner.handlers.lock());
        for (_, h) in handlers {
            let _ = h.join();
        }
        self.inner.finished.lock().clear();
        DrainStats {
            sessions_at_drain,
            drained: sessions_at_drain - force_closed,
            force_closed,
        }
    }

    /// Stop accepting, close every open session and join all threads —
    /// a [`Server::drain`] with no grace period. Idempotent; runs on drop.
    pub fn shutdown(&mut self) {
        self.drain(Duration::ZERO);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::error(kind, message)
}

/// A reply ready to go back to the peer. `Raw` carries the exact frame
/// payload a previous execution serialized — cache hits and coalesced
/// joins send it verbatim, which is what makes a cached reply
/// byte-identical to a fresh one *by construction* rather than by
/// re-serialisation luck. `Frame` is an already-assembled payload (a
/// batch reply spliced together from its entries' serialized bytes).
enum Reply {
    Msg(Response),
    Raw(Arc<CachedReply>),
    Frame(Vec<u8>),
}

impl Reply {
    fn write(&self, stream: &mut TcpStream) -> Result<(), FrameError> {
        match self {
            Reply::Msg(response) => send_message(stream, response),
            Reply::Raw(cached) => write_frame(stream, &cached.bytes),
            Reply::Frame(payload) => write_frame(stream, payload),
        }
    }
}

/// Receive one request frame under `deadline`, or decide the session's
/// fate: `Ok(None)` means the session should end (the peer closed, was
/// evicted, was told to drain, or poisoned the framing — any owed error
/// frame has already been sent).
fn recv_request(
    inner: &Inner,
    tenant: Option<&TenantState>,
    stream: &mut TcpStream,
    deadline: Duration,
) -> Option<Request> {
    let read = read_frame_deadline(stream, deadline, inner.timeouts.poll_tick, Some(&inner.draining));
    match read {
        Ok(DeadlineRead::Frame(payload)) => match decode_message::<Request>(&payload) {
            Ok(request) => Some(request),
            Err(e) => {
                // After a framing error the byte stream can no longer be
                // trusted to be frame-aligned: answer typed, then close.
                if let Some(t) = tenant {
                    t.record_protocol_error();
                }
                let _ = send_message(stream, &error(ErrorKind::Protocol, e.to_string()));
                None
            }
        },
        Ok(DeadlineRead::Aborted) => {
            inner.drain_notice(stream);
            None
        }
        Err(FrameError::Closed) => None,
        Err(FrameError::Timeout { waited_ms }) => {
            inner.evict(
                stream,
                format!(
                    "no complete frame within the {waited_ms} ms idle deadline; session evicted"
                ),
            );
            None
        }
        Err(e) => {
            if let Some(t) = tenant {
                t.record_protocol_error();
            }
            let _ = send_message(stream, &error(ErrorKind::Protocol, e.to_string()));
            None
        }
    }
}

/// One connection, handshake to close. Runs on its own thread.
fn handle_conn(inner: &Inner, mut stream: TcpStream) {
    // Handshake first: nothing else is admitted on a virgin session, and
    // a virgin session gets only `handshake_deadline` to speak.
    let tenant_name =
        match recv_request(inner, None, &mut stream, inner.timeouts.handshake_deadline) {
            Some(Request::Hello { version, tenant }) => {
                if version != PROTOCOL_VERSION {
                    let _ = send_message(
                        &mut stream,
                        &error(
                            ErrorKind::UnsupportedVersion,
                            format!("server speaks v{PROTOCOL_VERSION}, client sent v{version}"),
                        ),
                    );
                    return;
                }
                tenant
            }
            Some(_) => {
                let _ = send_message(
                    &mut stream,
                    &error(ErrorKind::BadRequest, "first frame must be Hello"),
                );
                return;
            }
            None => return,
        };

    let tenant = inner.tenant(&tenant_name);
    // Both session slots are guards: a session thread that unwinds returns
    // them as surely as one that returns.
    let Some(_global_session) = inner.global.try_open_session() else {
        inner.global.sessions_rejected.fetch_add(1, Ordering::Relaxed);
        let _ = send_message(
            &mut stream,
            &Response::retryable_error(
                ErrorKind::Overloaded,
                "server session limit reached",
                inner.admission.retry_after_ms,
            ),
        );
        return;
    };
    let Some(_tenant_session) = tenant.try_open_session() else {
        inner.global.sessions_rejected.fetch_add(1, Ordering::Relaxed);
        let _ = send_message(
            &mut stream,
            &Response::retryable_error(
                ErrorKind::Overloaded,
                format!("tenant {tenant_name:?} session limit reached"),
                inner.admission.retry_after_ms,
            ),
        );
        return;
    };

    serve_session(inner, &tenant, &mut stream);
}

/// The post-handshake request loop. Returns when the peer closes, a
/// deadline evicts it, a drain ends it, a protocol error poisons the
/// framing, or a write fails.
fn serve_session(inner: &Inner, tenant: &TenantState, stream: &mut TcpStream) {
    let ack =
        Response::HelloAck { version: PROTOCOL_VERSION, server: inner.name.clone() };
    if send_message(stream, &ack).is_err() {
        return;
    }
    loop {
        let Some(request) =
            recv_request(inner, Some(tenant), stream, inner.timeouts.idle_deadline)
        else {
            return;
        };
        let reply = dispatch(inner, tenant, request);
        match reply.write(stream) {
            Ok(()) => {}
            Err(FrameError::Timeout { .. }) => {
                // The peer stopped draining replies — a write-side
                // slow-loris. Count the eviction; nothing more can be sent.
                inner.sessions_evicted.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Route one post-handshake request. `Ping`, `ListSeries` and `Introspect`
/// bypass query admission — observability must keep answering precisely
/// when the server is saturated enough to reject real queries.
fn dispatch(inner: &Inner, tenant: &TenantState, request: Request) -> Reply {
    match request {
        Request::Hello { .. } => {
            Reply::Msg(error(ErrorKind::BadRequest, "session already completed its handshake"))
        }
        Request::Ping => Reply::Msg(Response::Pong),
        Request::ListSeries => {
            let entries = inner
                .store
                .series_catalog()
                .into_iter()
                .map(|(id, meta, samples)| WireSeries {
                    id: id.0,
                    name: meta.name,
                    unit: meta.unit,
                    interval_hint: meta.interval_hint,
                    samples,
                })
                .collect();
            Reply::Msg(Response::Series { entries })
        }
        Request::Introspect => Reply::Msg(Response::Stats(inner.introspection())),
        query => admit_and_run(inner, tenant, query),
    }
}

/// Take both in-flight slots, run the query (or the whole batch — a batch
/// frame occupies exactly one slot), release in reverse order as the
/// guards drop, on return or on unwind.
fn admit_and_run(inner: &Inner, tenant: &TenantState, query: Request) -> Reply {
    let Some(_global_query) = inner.global.try_begin_query() else {
        tenant.record_rejected(Reject::InFlight);
        return Reply::Msg(Response::retryable_error(
            ErrorKind::Overloaded,
            "server in-flight query limit reached",
            inner.admission.retry_after_ms,
        ));
    };
    let Some(_tenant_query) = tenant.try_begin_query() else {
        tenant.record_rejected(Reject::InFlight);
        return Reply::Msg(Response::retryable_error(
            ErrorKind::Overloaded,
            "tenant in-flight query limit reached",
            inner.admission.retry_after_ms,
        ));
    };
    match query {
        Request::Batch { entries } => run_batch(inner, tenant, entries),
        query => run_query(inner, tenant, query),
    }
}

/// Run one admitted batch. The frame as a whole was admitted under one
/// in-flight slot; each entry is still billed individually — its own
/// scan-budget check, its own cache lookup, its own served/rejected
/// counters. Per-entry failures are typed errors in their slot; the
/// other entries still answer.
fn run_batch(inner: &Inner, tenant: &TenantState, entries: Vec<Request>) -> Reply {
    if entries.is_empty() {
        return Reply::Msg(error(ErrorKind::BadRequest, "batch must carry at least one query"));
    }
    if entries.len() > MAX_BATCH_LEN {
        return Reply::Msg(error(
            ErrorKind::BadRequest,
            format!("batch of {} entries exceeds the {MAX_BATCH_LEN}-entry limit", entries.len()),
        ));
    }
    let replies: Vec<Reply> = entries
        .into_iter()
        .map(|entry| match entry {
            Request::Aggregate { .. }
            | Request::Windows { .. }
            | Request::Group { .. }
            | Request::Gap { .. } => run_query(inner, tenant, entry),
            _ => Reply::Msg(error(
                ErrorKind::BadRequest,
                "batch entries must be data queries (Aggregate, Windows, Group or Gap)",
            )),
        })
        .collect();

    // Splice the reply frame straight from the entries' serialized bytes
    // (`serde_json::to_string` is compact and externally tagged, so
    // `{"Batch":{"entries":[a,b,…]}}` around entry payloads is exactly
    // what serialising `Response::Batch` would emit — asserted by the
    // batch-vs-singles byte-identity tests). A warm batch therefore never
    // re-serialises its cached entries.
    let mut payload = String::from("{\"Batch\":{\"entries\":[");
    for (i, reply) in replies.iter().enumerate() {
        if i > 0 {
            payload.push(',');
        }
        let entry_json = match reply {
            Reply::Raw(cached) => std::str::from_utf8(&cached.bytes).ok().map(String::from),
            Reply::Msg(response) => serde_json::to_string(response).ok(),
            Reply::Frame(_) => None, // nested batches are rejected above
        };
        match entry_json {
            Some(json) => payload.push_str(&json),
            // Unspliceable entries cannot occur (every payload came from
            // the serializer); if one does, surface it typed in its slot.
            None => payload.push_str(
                "{\"Error\":{\"kind\":\"Protocol\",\"message\":\
                 \"entry reply could not be serialised\",\"retry_after_ms\":null}}",
            ),
        }
    }
    payload.push_str("]}}");
    Reply::Frame(payload.into_bytes())
}

/// Estimated samples a `[from, to)` scan of `id` will touch, mirroring
/// the query planner ([`hpc_tsdb::estimate_scan`]): a rollup-served
/// window is costed in buckets, and a zone-map-covered raw aggregate is
/// costed at the chunks it will actually decode — not the full span. The
/// old cadence-hint heuristic billed a fully zone-pruned query as a raw
/// scan of every sample in the window, rejecting queries that would have
/// decoded nothing.
fn estimate_scan(
    store: &TsdbStore,
    id: SeriesId,
    from: i64,
    to: i64,
    op: hpc_tsdb::AggOp,
    allow_rollup: bool,
) -> u64 {
    store
        .with_series_read(id, |s| hpc_tsdb::estimate_scan(s, from, to, op, allow_rollup))
        .unwrap_or(0)
}

/// Validate one data query's shape and resolve its series names, with the
/// exact error replies the pre-cache dispatch produced. No cost is
/// estimated here — estimation belongs to execution, which a cache hit
/// skips entirely.
fn validate_resolve(store: &TsdbStore, query: &Request) -> Result<Vec<SeriesId>, Box<Response>> {
    // Validation first: `store_windows` panics on a bad step/range by
    // contract, so the server must refuse those shapes as `BadRequest`
    // before they reach the store.
    match query {
        Request::Aggregate { series, from, to, .. } | Request::Gap { series, from, to } => {
            if from > to {
                return Err(Box::new(error(ErrorKind::BadRequest, "window range reversed (from > to)")));
            }
            match store.lookup(series) {
                Some(id) => Ok(vec![id]),
                None => Err(Box::new(error(ErrorKind::UnknownSeries, format!("no series {series:?}")))),
            }
        }
        Request::Windows { series, from, to, step, .. } => {
            if *step <= 0 {
                return Err(Box::new(error(ErrorKind::BadRequest, "window step must be positive")));
            }
            if from > to {
                return Err(Box::new(error(ErrorKind::BadRequest, "window range reversed (from > to)")));
            }
            match store.lookup(series) {
                Some(id) => Ok(vec![id]),
                None => Err(Box::new(error(ErrorKind::UnknownSeries, format!("no series {series:?}")))),
            }
        }
        Request::Group { series, from, to } => {
            if from > to {
                return Err(Box::new(error(ErrorKind::BadRequest, "window range reversed (from > to)")));
            }
            // Unresolved names keep a sentinel id so the reply's `missing`
            // count matches an in-process evaluation of the same names.
            Ok(series.iter().map(|n| store.lookup(n).unwrap_or(SeriesId(u64::MAX))).collect())
        }
        _ => unreachable!("non-query requests are dispatched before admission"),
    }
}

/// Estimated samples an already-validated query will touch, mirroring the
/// query planner ([`hpc_tsdb::estimate_scan`]).
fn estimate_request(store: &TsdbStore, query: &Request, ids: &[SeriesId]) -> u64 {
    match query {
        Request::Aggregate { from, to, op, .. } => {
            estimate_scan(store, ids[0], *from, *to, (*op).into(), true)
        }
        // Gap queries always plan a raw fold, so no rollup plan is
        // costed; zone maps still prune it.
        Request::Gap { from, to, .. } => {
            estimate_scan(store, ids[0], *from, *to, hpc_tsdb::AggOp::Mean, false)
        }
        Request::Windows { from, to, step, op, .. } => {
            let windows = to.abs_diff(*from).div_ceil(*step as u64);
            estimate_scan(store, ids[0], *from, *to, (*op).into(), true).saturating_add(windows)
        }
        Request::Group { from, to, .. } => ids.iter().fold(0u64, |acc, &id| {
            acc.saturating_add(estimate_scan(store, id, *from, *to, hpc_tsdb::AggOp::Mean, true))
        }),
        _ => unreachable!("non-query requests are dispatched before admission"),
    }
}

/// Run one admitted query end to end: validate, resolve, consult the
/// tenant's result cache, and — on a miss — budget-check, execute under
/// latency + `QueryStats` delta measurement, and fold the delta into the
/// tenant (saturating — see `QueryStats::delta_since`).
///
/// The cache lookup sits *after* validation and resolution (so malformed
/// requests keep their exact error replies and are never cached) and
/// *before* the scan-budget estimate (a hit executes nothing, so it
/// should cost nothing — the tenant already paid the budget check for
/// these bytes at this generation). Per-tenant caches make that sound:
/// a tenant can only ever hit entries its own budget admitted.
fn run_query(inner: &Inner, tenant: &TenantState, query: Request) -> Reply {
    let store = &inner.store;
    let started = Instant::now();
    let resolved = match validate_resolve(store, &query) {
        Ok(ids) => ids,
        Err(response) => return Reply::Msg(*response),
    };

    // The cache key is the request's canonical serialisation — the same
    // struct-shaped JSON the wire uses, so two requests share a key iff
    // they are the same query. The generation is sampled *before* the
    // lookup: if the store mutates after this point the bump makes the
    // entry we are about to read or write unreachable, never wrong.
    let generation = store.generation();
    let Ok(key) = serde_json::to_string(&query) else {
        // Unserialisable requests cannot exist (they just arrived as
        // JSON); if one does, serve it uncached.
        return execute_measured(inner, tenant, &resolved, query, started).0;
    };
    let lookup = tenant.cache.begin(generation, &key);
    match lookup {
        Lookup::Hit(reply) => {
            tenant.record_cache_hit();
            tenant.record_served(elapsed_us(started), &QueryStats::default());
            Reply::Raw(reply)
        }
        Lookup::Join(flight) => match flight.wait(FLIGHT_WAIT) {
            Some(reply) => {
                tenant.record_coalesced();
                tenant.record_served(elapsed_us(started), &QueryStats::default());
                Reply::Raw(reply)
            }
            // The leader timed out or had nothing shareable: execute for
            // ourselves, uncached. Coalescing is an optimisation, never a
            // correctness dependency.
            None => {
                tenant.record_cache_miss();
                execute_measured(inner, tenant, &resolved, query, started).0
            }
        },
        // If the execution unwinds, dropping the leader completes the
        // flight with nothing to share.
        Lookup::Lead(leader) => {
            tenant.record_cache_miss();
            let (reply, shareable) = execute_measured(inner, tenant, &resolved, query, started);
            leader.complete(shareable);
            reply
        }
        Lookup::Bypass => {
            tenant.record_cache_miss();
            execute_measured(inner, tenant, &resolved, query, started).0
        }
    }
}

fn elapsed_us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// The uncached tail of `run_query`: scan-budget check, execution,
/// latency + stats accounting. Also returns the reply in shareable form
/// (`None` for budget rejections and error replies — those are never
/// cached and never handed to coalesced followers).
fn execute_measured(
    inner: &Inner,
    tenant: &TenantState,
    resolved: &[SeriesId],
    query: Request,
    started: Instant,
) -> (Reply, Option<Arc<CachedReply>>) {
    let store = &inner.store;
    let estimate = estimate_request(store, &query, resolved);
    if let Err(reject) = tenant.check_scan_budget(estimate) {
        tenant.record_rejected(reject);
        let Reject::ScanBudget { estimated, limit } = reject else { unreachable!() };
        // Deliberately no retry hint: the same query will cost the same
        // scan tomorrow — retrying cannot help.
        let response = error(
            ErrorKind::Overloaded,
            format!("estimated scan of {estimated} samples exceeds per-query budget {limit}"),
        );
        return (Reply::Msg(response), None);
    }

    let before = store.query_stats();
    let response = execute(store, resolved, query);
    let delta = store.query_stats().delta_since(&before);
    tenant.record_served(elapsed_us(started), &delta);
    if matches!(response, Response::Error { .. }) {
        return (Reply::Msg(response), None);
    }
    // Serialize once: these bytes are both this reply's frame payload and
    // the cached payload every later hit sends verbatim.
    match serde_json::to_string(&response) {
        Ok(json) => {
            let cached = Arc::new(CachedReply { bytes: Arc::new(json.into_bytes()) });
            (Reply::Raw(Arc::clone(&cached)), Some(cached))
        }
        Err(_) => (Reply::Msg(response), None),
    }
}

/// The store calls themselves. `ids` came from `run_query`'s resolution.
fn execute(store: &TsdbStore, ids: &[SeriesId], query: Request) -> Response {
    match query {
        Request::Aggregate { from, to, op, series } => {
            match store_aggregate(store, ids[0], from, to, op.into()) {
                Some((value, plan)) => Response::Aggregate {
                    value_bits: value.to_bits(),
                    plan: format!("{plan:?}"),
                },
                None => error(ErrorKind::UnknownSeries, format!("no series {series:?}")),
            }
        }
        Request::Windows { from, to, step, op, series } => {
            match store_windows(store, ids[0], from, to, step, op.into()) {
                Some(windows) => Response::Windows {
                    windows: windows
                        .into_iter()
                        .map(|w| WireWindow {
                            start: w.start,
                            value_bits: w.value.to_bits(),
                            count: w.count,
                        })
                        .collect(),
                },
                None => error(ErrorKind::UnknownSeries, format!("no series {series:?}")),
            }
        }
        Request::Group { from, to, .. } => {
            let g = fanout_group(store, ids, from, to);
            Response::Group(WireGroup {
                series: g.series as u64,
                missing: g.missing as u64,
                sum_of_means_bits: g.sum_of_means.to_bits(),
                mean_of_means_bits: g.mean_of_means().to_bits(),
                total_count: g.total.count,
            })
        }
        Request::Gap { from, to, series } => {
            match store_gap_aggregate(store, ids[0], from, to) {
                Some(v) => Response::Gap(WireGap {
                    count: v.agg.count,
                    mean_bits: v.agg.mean().to_bits(),
                    expected: v.expected,
                    coverage_bits: v.coverage.to_bits(),
                    quarantined: v.quarantined,
                }),
                None => error(ErrorKind::UnknownSeries, format!("no series {series:?}")),
            }
        }
        _ => unreachable!("non-query requests are dispatched before admission"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_handler_that_unwinds_closes_its_connection() {
        let server = Server::start(TsdbStore::default(), ServerConfig::default()).unwrap();
        let inner = &*server.inner;
        // A connected pair standing in for an accepted session, with the
        // accept loop's clone of the socket registered as it registers one.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conn_id = 7;
        inner.conns.lock().insert(conn_id, stream.try_clone().unwrap());
        // The handler thread's body: the guard, then a request that panics
        // while the handler owns its end of the socket.
        let unwound = catch_unwind(AssertUnwindSafe(move || {
            let _closing = ConnClosing { inner, conn_id };
            let _handler_stream = stream;
            panic!("the request panicked");
        }));
        assert!(unwound.is_err());
        assert!(!inner.conns.lock().contains_key(&conn_id), "the clone is closed");
        assert_eq!(inner.finished.lock().as_slice(), [conn_id], "queued to be joined");
        client.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0, "the client reads EOF");
    }
}
