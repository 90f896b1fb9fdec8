//! Session admission and per-tenant budgets.
//!
//! Admission happens at two points. **Session admission** runs once per
//! connection after the handshake: the global and per-tenant session caps
//! are checked, and a refused connection gets one typed
//! [`ErrorKind::Overloaded`](crate::protocol::ErrorKind::Overloaded) frame
//! and a close. **Query admission** runs per request: the global and
//! per-tenant in-flight caps bound concurrency (backpressure by rejection,
//! never by unbounded queueing — a client that wants to queue holds its own
//! queue), and the per-query scan budget rejects requests whose estimated
//! sample cost exceeds the tenant's ceiling *before* any chunk is decoded.
//!
//! Every rejection is graceful: a typed `Overloaded` response on an
//! otherwise healthy session, which stays open for cheaper queries.

use crate::cache::ResultCache;
use crate::protocol::TenantSnapshot;
use hpc_tsdb::QueryStats;
use parking_lot::Mutex;
use sim_core::stats::Histogram;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Time-based defenses for one server: how long a session may sit idle,
/// how long a frame may take to arrive, and how shutdown drains.
///
/// All deadlines are enforced with a polling read whose granularity is
/// [`TimeoutConfig::poll_tick`] — a deadline is therefore honoured to
/// within one tick, and partial frame progress never resets it (the
/// slow-loris defense: a client dribbling one byte per interval is
/// evicted just like a silent one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutConfig {
    /// A virgin connection must complete its `Hello` within this.
    pub handshake_deadline: Duration,
    /// A handshaken session must deliver each complete request frame
    /// within this, measured from when the server starts waiting for it.
    /// Sessions over the deadline are evicted with a typed `Timeout`
    /// error frame (best-effort) and counted in `sessions_evicted`.
    pub idle_deadline: Duration,
    /// Socket write deadline for reply frames; a session that stops
    /// draining its replies is evicted when a write blocks this long.
    pub write_timeout: Duration,
    /// Granularity of the deadline polling read (and of drain checks).
    pub poll_tick: Duration,
    /// Grace period [`Server::drain`](crate::server::Server::drain) waits
    /// for in-flight sessions before force-closing them; also the
    /// `retry_after_ms` hint carried by `Draining` error frames.
    pub drain_deadline: Duration,
}

impl Default for TimeoutConfig {
    fn default() -> Self {
        TimeoutConfig {
            handshake_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            poll_tick: Duration::from_millis(25),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// Per-tenant resource ceilings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantBudget {
    /// Concurrent sessions (connections) the tenant may hold.
    pub max_sessions: u32,
    /// Concurrent queries the tenant may have executing.
    pub max_in_flight: u32,
    /// Estimated samples one query may scan; a request estimated above
    /// this is rejected `Overloaded` before any decode happens.
    pub max_samples_per_query: u64,
}

impl Default for TenantBudget {
    fn default() -> Self {
        TenantBudget { max_sessions: 64, max_in_flight: 16, max_samples_per_query: 50_000_000 }
    }
}

/// Server-wide admission configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Concurrent sessions across every tenant.
    pub max_sessions: u32,
    /// Concurrent queries across every tenant.
    pub max_in_flight: u32,
    /// Budget for tenants without an explicit entry.
    pub default_budget: TenantBudget,
    /// Per-tenant overrides as `(tenant, budget)` pairs.
    pub tenant_budgets: Vec<(String, TenantBudget)>,
    /// Back-off hint (`retry_after_ms`) carried by *transient*
    /// `Overloaded` rejections — session and in-flight caps, which free up
    /// as other work completes. Scan-budget rejections carry no hint:
    /// retrying the identical query can never succeed.
    pub retry_after_ms: u64,
    /// Distinct data-query results each tenant's result cache may hold at
    /// one generation. `0` disables result caching (and with it
    /// single-flight coalescing) entirely.
    pub result_cache_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_sessions: 256,
            max_in_flight: 64,
            default_budget: TenantBudget::default(),
            tenant_budgets: Vec::new(),
            retry_after_ms: 25,
            result_cache_capacity: 256,
        }
    }
}

/// Latency histogram shape: 5 µs bins to 100 ms, overflow clamped above.
/// Percentiles come from [`Histogram::quantile`], so a tenant's replies
/// cost O(1) memory no matter how many queries it issues.
const LATENCY_HI_US: f64 = 100_000.0;
const LATENCY_BINS: usize = 20_000;

/// Why query admission refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The global or tenant in-flight cap is saturated.
    InFlight,
    /// The estimated scan cost exceeds the tenant's per-query budget.
    ScanBudget {
        /// The estimate that tripped the ceiling.
        estimated: u64,
        /// The tenant's ceiling.
        limit: u64,
    },
}

/// Mutable per-tenant state: admission counters, served/rejected totals,
/// the latency histogram and the folded per-tenant [`QueryStats`].
pub(crate) struct TenantState {
    name: String,
    budget: TenantBudget,
    sessions: AtomicU32,
    in_flight: AtomicU32,
    served: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_budget: AtomicU64,
    protocol_errors: AtomicU64,
    result_cache_hits: AtomicU64,
    result_cache_misses: AtomicU64,
    coalesced: AtomicU64,
    latency_us: Mutex<Histogram>,
    query: Mutex<QueryStats>,
    /// Generation-keyed result cache; per-tenant, so cached replies can
    /// never cross tenant (and therefore budget) boundaries.
    pub(crate) cache: ResultCache,
}

impl TenantState {
    pub(crate) fn new(name: String, budget: TenantBudget, cache_capacity: usize) -> Self {
        TenantState {
            name,
            budget,
            sessions: AtomicU32::new(0),
            in_flight: AtomicU32::new(0),
            served: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            rejected_budget: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            result_cache_hits: AtomicU64::new(0),
            result_cache_misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            latency_us: Mutex::new(Histogram::new(0.0, LATENCY_HI_US, LATENCY_BINS)),
            query: Mutex::new(QueryStats::default()),
            cache: ResultCache::new(cache_capacity),
        }
    }

    /// Try to open a session under the tenant's session cap; the session
    /// holds its slot until the returned guard drops. `None` leaves no
    /// state to undo.
    pub(crate) fn try_open_session(&self) -> Option<AdmissionSlot<'_>> {
        bounded_increment(&self.sessions, self.budget.max_sessions)
    }

    /// Try to start a query under the tenant's in-flight cap; the query
    /// holds its slot until the returned guard drops.
    pub(crate) fn try_begin_query(&self) -> Option<AdmissionSlot<'_>> {
        bounded_increment(&self.in_flight, self.budget.max_in_flight)
    }

    /// Check an estimated scan cost against the per-query budget.
    pub(crate) fn check_scan_budget(&self, estimated: u64) -> Result<(), Reject> {
        let limit = self.budget.max_samples_per_query;
        if estimated > limit {
            Err(Reject::ScanBudget { estimated, limit })
        } else {
            Ok(())
        }
    }

    pub(crate) fn record_served(&self, latency_us: f64, delta: &QueryStats) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.latency_us.lock().push(latency_us);
        // Saturating merge: deltas computed from relaxed store counters are
        // not a consistent cut under concurrency (see
        // `QueryStats::delta_since`), so the fold must never wrap.
        self.query.lock().merge(delta);
    }

    pub(crate) fn record_rejected(&self, reject: Reject) {
        match reject {
            Reject::InFlight => self.rejected_overloaded.fetch_add(1, Ordering::Relaxed),
            Reject::ScanBudget { .. } => self.rejected_budget.fetch_add(1, Ordering::Relaxed),
        };
    }

    pub(crate) fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A data query answered from the result cache (no execution, no
    /// scan-budget charge).
    pub(crate) fn record_cache_hit(&self) {
        self.result_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A data query that had to execute (cache miss, bypass, or a join
    /// whose leader had nothing to share).
    pub(crate) fn record_cache_miss(&self) {
        self.result_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A data query that joined an in-flight identical execution and was
    /// served the leader's reply.
    pub(crate) fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> TenantSnapshot {
        let (p50, p95, p99) = {
            let h = self.latency_us.lock();
            (
                h.quantile(0.50).unwrap_or(0.0) as u64,
                h.quantile(0.95).unwrap_or(0.0) as u64,
                h.quantile(0.99).unwrap_or(0.0) as u64,
            )
        };
        TenantSnapshot {
            tenant: self.name.clone(),
            sessions: u64::from(self.sessions.load(Ordering::Acquire)),
            in_flight: u64::from(self.in_flight.load(Ordering::Acquire)),
            served: self.served.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_budget: self.rejected_budget.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            result_cache_hits: self.result_cache_hits.load(Ordering::Relaxed),
            result_cache_misses: self.result_cache_misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            p50_us: p50,
            p95_us: p95,
            p99_us: p99,
            query: *self.query.lock(),
        }
    }
}

/// One held admission slot: a session or an in-flight query counted
/// against a cap. Dropping it returns the slot, so a session thread that
/// unwinds out of a panicking request releases what it held exactly as
/// one that returns normally.
pub(crate) struct AdmissionSlot<'a>(&'a AtomicU32);

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// CAS-increment `counter` only while it is below `cap`; `None` when
/// saturated. This is the lock-free "try-acquire" both admission layers
/// use — there is deliberately no blocking acquire, because backpressure
/// here means *reject*, not *queue*.
fn bounded_increment(counter: &AtomicU32, cap: u32) -> Option<AdmissionSlot<'_>> {
    let mut current = counter.load(Ordering::Acquire);
    loop {
        if current >= cap {
            return None;
        }
        match counter.compare_exchange_weak(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some(AdmissionSlot(counter)),
            Err(seen) => current = seen,
        }
    }
}

/// Global (cross-tenant) admission counters.
pub(crate) struct GlobalAdmission {
    max_sessions: u32,
    max_in_flight: u32,
    sessions: AtomicU32,
    in_flight: AtomicU32,
    pub(crate) sessions_rejected: AtomicU64,
}

impl GlobalAdmission {
    pub(crate) fn new(config: &AdmissionConfig) -> Self {
        GlobalAdmission {
            max_sessions: config.max_sessions,
            max_in_flight: config.max_in_flight,
            sessions: AtomicU32::new(0),
            in_flight: AtomicU32::new(0),
            sessions_rejected: AtomicU64::new(0),
        }
    }

    pub(crate) fn try_open_session(&self) -> Option<AdmissionSlot<'_>> {
        bounded_increment(&self.sessions, self.max_sessions)
    }

    pub(crate) fn try_begin_query(&self) -> Option<AdmissionSlot<'_>> {
        bounded_increment(&self.in_flight, self.max_in_flight)
    }

    pub(crate) fn sessions_active(&self) -> u64 {
        u64::from(self.sessions.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_increment_stops_at_cap() {
        let c = AtomicU32::new(0);
        let first = bounded_increment(&c, 2);
        let second = bounded_increment(&c, 2);
        assert!(first.is_some() && second.is_some());
        assert!(bounded_increment(&c, 2).is_none());
        drop(first);
        assert_eq!(c.load(Ordering::Acquire), 1, "a dropped slot is returned");
        assert!(bounded_increment(&c, 2).is_some());
    }

    #[test]
    fn unwinding_returns_every_held_slot() {
        let global = GlobalAdmission::new(&AdmissionConfig::default());
        let t = TenantState::new("acme".into(), TenantBudget::default(), 8);
        // A session that panics in the middle of a query, as a session
        // thread would: both session slots and both in-flight slots held.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _global_session = global.try_open_session().unwrap();
            let _tenant_session = t.try_open_session().unwrap();
            let _global_query = global.try_begin_query().unwrap();
            let _tenant_query = t.try_begin_query().unwrap();
            assert_eq!(global.sessions_active(), 1);
            assert_eq!((t.snapshot().sessions, t.snapshot().in_flight), (1, 1));
            panic!("the query panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(global.sessions_active(), 0);
        assert_eq!(global.in_flight.load(Ordering::Acquire), 0);
        let snap = t.snapshot();
        assert_eq!((snap.sessions, snap.in_flight), (0, 0));
    }

    #[test]
    fn tenant_admission_and_counters() {
        let t = TenantState::new(
            "acme".into(),
            TenantBudget { max_sessions: 1, max_in_flight: 2, max_samples_per_query: 100 },
            8,
        );
        let session = t.try_open_session();
        assert!(session.is_some());
        assert!(t.try_open_session().is_none(), "session cap is 1");
        let first = t.try_begin_query();
        let second = t.try_begin_query();
        assert!(first.is_some() && second.is_some());
        assert!(t.try_begin_query().is_none(), "in-flight cap is 2");
        drop(first);
        let third = t.try_begin_query();
        assert!(third.is_some());

        assert_eq!(t.check_scan_budget(100), Ok(()));
        let rej = t.check_scan_budget(101).unwrap_err();
        assert_eq!(rej, Reject::ScanBudget { estimated: 101, limit: 100 });
        t.record_rejected(rej);
        t.record_rejected(Reject::InFlight);
        t.record_served(250.0, &QueryStats { queries: 1, samples_scanned: 40, ..QueryStats::default() });
        t.record_served(750.0, &QueryStats { queries: 1, samples_scanned: 60, ..QueryStats::default() });

        let snap = t.snapshot();
        assert_eq!(snap.served, 2);
        assert_eq!(snap.rejected_budget, 1);
        assert_eq!(snap.rejected_overloaded, 1);
        assert_eq!(snap.query.queries, 2);
        assert_eq!(snap.query.samples_scanned, 100);
        assert!(snap.p50_us >= 250 && snap.p50_us <= 255, "p50 {}", snap.p50_us);
        assert!(snap.p95_us >= 750, "p95 {}", snap.p95_us);
        drop(session);
        assert!(t.try_open_session().is_some());
    }
}
