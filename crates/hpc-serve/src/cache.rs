//! Generation-keyed query result cache with single-flight coalescing.
//!
//! One cache per tenant (see [`crate::session::TenantState`]): the key is
//! the canonical serialisation of a validated data-query request, the
//! value the finished reply, and the whole cache is stamped with the store
//! generation it was filled at. Any store mutation bumps the generation
//! ([`hpc_tsdb::TsdbStore::generation`]), so the first lookup after a bump
//! clears the map — cached replies can never outlive the data they were
//! computed from. A reply is stored as its exact serialized frame payload:
//! a single-query hit writes those bytes to the socket verbatim and a
//! batch entry splices them into the batch frame, so a cached reply is
//! byte-identical to a fresh one *by construction*, and a warm hit never
//! pays serialisation again.
//!
//! **Single-flight**: the first session to miss on a key becomes the
//! *leader* and executes; identical concurrent requests *join* the
//! leader's [`Flight`] and wait (bounded) for its reply instead of
//! re-executing — the dashboard thundering herd costs one execution. A
//! follower whose wait expires, or whose leader declined to share (error
//! replies are never cached), simply executes for itself: coalescing is an
//! optimisation, never a correctness dependency. A leader that unwinds
//! instead of finishing releases its flight the same way (see [`Leader`]),
//! so a panicking query never leaves its key pending. Caches are per-tenant by
//! construction, so a reply can never cross tenants — a tenant only ever
//! sees entries its own (identically-budgeted) queries created.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Duration;

/// How long a follower waits on a leader before executing for itself.
/// Generous against real query latencies (milliseconds); tight enough
/// that a stalled leader cannot wedge followers.
pub(crate) const FLIGHT_WAIT: Duration = Duration::from_secs(2);

/// A finished reply: the serialized `Response` frame payload, written
/// verbatim on a hit (and spliced verbatim into batch reply frames).
pub(crate) struct CachedReply {
    pub(crate) bytes: Arc<Vec<u8>>,
}

enum FlightState {
    Pending,
    /// Leader finished. `None` means it has nothing to share (the reply
    /// was an error, or the leader bailed) — followers execute themselves.
    Done(Option<Arc<CachedReply>>),
}

/// A single-flight slot: the leader executes and publishes, followers
/// wait here.
pub(crate) struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight { state: Mutex::new(FlightState::Pending), cv: Condvar::new() }
    }

    fn publish(&self, reply: Option<Arc<CachedReply>>) {
        *self.state.lock() = FlightState::Done(reply);
        self.cv.notify_all();
    }

    /// Wait for the leader's reply up to `timeout`; `None` on timeout or
    /// when the leader had nothing to share.
    pub(crate) fn wait(&self, timeout: Duration) -> Option<Arc<CachedReply>> {
        let guard = self.state.lock();
        // Every update of the state is one assignment, so a guard poisoned
        // by a panicking holder still sees a valid state.
        let (guard, _) = self
            .cv
            .wait_timeout_while(guard, timeout, |s| matches!(s, FlightState::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        match &*guard {
            FlightState::Pending => None,
            FlightState::Done(reply) => reply.clone(),
        }
    }
}

enum Slot {
    Done(Arc<CachedReply>),
    Pending(Arc<Flight>),
}

struct CacheInner {
    generation: u64,
    entries: HashMap<String, Slot>,
}

/// What a cache lookup decided for this request.
pub(crate) enum Lookup<'a> {
    /// A finished reply at the current generation: serve it, execute
    /// nothing, estimate nothing.
    Hit(Arc<CachedReply>),
    /// An identical query is executing right now: wait on its flight.
    Join(Arc<Flight>),
    /// This caller leads: execute, then [`Leader::complete`].
    Lead(Leader<'a>),
    /// Cache disabled or full: execute without caching.
    Bypass,
}

/// The leader's hold on a pending flight. [`Leader::complete`] hands its
/// reply over; dropping the leader uncompleted — its execution unwound —
/// completes it with `None`, so waiting followers execute for themselves
/// at once instead of sitting out [`FLIGHT_WAIT`], and the next lookup of
/// the key leads instead of joining a flight nobody will finish.
pub(crate) struct Leader<'a> {
    cache: &'a ResultCache,
    generation: u64,
    key: &'a str,
    flight: Arc<Flight>,
    reply: Option<Arc<CachedReply>>,
}

impl Leader<'_> {
    /// Hand `reply` to waiting followers, and cache it only while the
    /// generation it was computed at is still current (otherwise the entry
    /// was already cleared — let it go). `None` un-publishes the pending
    /// slot: error replies are shared with nobody and cached nowhere.
    pub(crate) fn complete(mut self, reply: Option<Arc<CachedReply>>) {
        self.reply = reply;
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        let reply = self.reply.take();
        self.flight.publish(reply.clone());
        let mut inner = self.cache.inner.lock();
        if inner.generation == self.generation {
            match reply {
                Some(r) => inner.entries.insert(self.key.to_string(), Slot::Done(r)),
                None => inner.entries.remove(self.key),
            };
        }
    }
}

/// The per-tenant cache. All state behind one mutex held only for map
/// operations — never across an execution.
pub(crate) struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(CacheInner { generation: 0, entries: HashMap::new() }),
        }
    }

    /// Look `key` up at `generation`. The first lookup after a generation
    /// bump clears every entry (they were computed against retired data).
    pub(crate) fn begin<'a>(&'a self, generation: u64, key: &'a str) -> Lookup<'a> {
        if self.capacity == 0 {
            return Lookup::Bypass;
        }
        let mut inner = self.inner.lock();
        if inner.generation != generation {
            inner.entries.clear();
            inner.generation = generation;
        }
        match inner.entries.get(key) {
            Some(Slot::Done(reply)) => Lookup::Hit(Arc::clone(reply)),
            Some(Slot::Pending(flight)) => Lookup::Join(Arc::clone(flight)),
            None => {
                if inner.entries.len() >= self.capacity {
                    return Lookup::Bypass;
                }
                let flight = Arc::new(Flight::new());
                inner.entries.insert(key.to_string(), Slot::Pending(Arc::clone(&flight)));
                Lookup::Lead(Leader { cache: self, generation, key, flight, reply: None })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    fn reply(tag: u64) -> Arc<CachedReply> {
        Arc::new(CachedReply { bytes: Arc::new(vec![tag as u8]) })
    }

    fn lead<'a>(cache: &'a ResultCache, generation: u64, key: &'a str) -> Leader<'a> {
        match cache.begin(generation, key) {
            Lookup::Lead(leader) => leader,
            _ => panic!("{key:?} at generation {generation} must lead"),
        }
    }

    fn join(cache: &ResultCache, generation: u64, key: &str) -> Arc<Flight> {
        match cache.begin(generation, key) {
            Lookup::Join(flight) => flight,
            _ => panic!("{key:?} at generation {generation} must join a pending flight"),
        }
    }

    #[test]
    fn hit_after_lead_and_complete() {
        let cache = ResultCache::new(8);
        let leader = lead(&cache, 1, "q");
        // A concurrent identical request joins the pending flight.
        let follower = join(&cache, 1, "q");
        leader.complete(Some(reply(7)));
        match cache.begin(1, "q") {
            Lookup::Hit(r) => assert_eq!(*r.bytes, vec![7u8]),
            _ => panic!("completed entry must hit"),
        }
        // The flight now answers followers instantly.
        assert!(follower.wait(Duration::from_millis(1)).is_some());
    }

    #[test]
    fn generation_bump_clears_everything() {
        let cache = ResultCache::new(8);
        lead(&cache, 1, "q").complete(Some(reply(1)));
        assert!(matches!(cache.begin(1, "q"), Lookup::Hit(_)));
        // New generation: the entry is gone, the caller leads again.
        assert!(matches!(cache.begin(2, "q"), Lookup::Lead(_)));
    }

    #[test]
    fn stale_completion_is_not_persisted() {
        let cache = ResultCache::new(8);
        let leader = lead(&cache, 1, "q");
        let follower = join(&cache, 1, "q");
        // The store moved on while the leader executed…
        assert!(matches!(cache.begin(2, "other"), Lookup::Lead(_)));
        leader.complete(Some(reply(1)));
        // …followers still got the reply, but nothing was cached under
        // the retired generation.
        assert!(follower.wait(Duration::from_millis(1)).is_some());
        assert!(matches!(cache.begin(2, "q"), Lookup::Lead(_)));
    }

    #[test]
    fn error_replies_are_shared_with_nobody() {
        let cache = ResultCache::new(8);
        let leader = lead(&cache, 1, "q");
        let follower = join(&cache, 1, "q");
        leader.complete(None);
        assert!(follower.wait(Duration::from_millis(1)).is_none());
        assert!(matches!(cache.begin(1, "q"), Lookup::Lead(_)));
    }

    #[test]
    fn an_unwinding_leader_releases_its_flight() {
        let cache = ResultCache::new(8);
        std::thread::scope(|scope| {
            let leader = lead(&cache, 1, "q");
            let follower = join(&cache, 1, "q");
            let waiter = scope.spawn(move || {
                let started = Instant::now();
                (follower.wait(FLIGHT_WAIT), started.elapsed())
            });
            let unwound = catch_unwind(AssertUnwindSafe(move || {
                let _leader = leader;
                panic!("the leader's query panicked");
            }));
            assert!(unwound.is_err());
            // The follower is released at once, with nothing to share, and
            // executes for itself instead of sitting out FLIGHT_WAIT.
            let (shared, waited) = waiter.join().unwrap();
            assert!(shared.is_none(), "an unwound leader has no reply");
            assert!(waited < FLIGHT_WAIT / 2, "the follower waited {waited:?}");
        });
        // Nothing is left pending: the next identical request leads.
        assert!(matches!(cache.begin(1, "q"), Lookup::Lead(_)));
    }

    #[test]
    fn capacity_zero_disables_and_full_bypasses() {
        let cache = ResultCache::new(0);
        assert!(matches!(cache.begin(1, "q"), Lookup::Bypass));

        let cache = ResultCache::new(1);
        let leader = lead(&cache, 1, "a");
        assert!(matches!(cache.begin(1, "b"), Lookup::Bypass));
        leader.complete(Some(reply(1)));
        assert!(matches!(cache.begin(1, "a"), Lookup::Hit(_)));
    }
}
