//! Query generation, the closed and open load loops over the wire, the
//! in-process read-back loop, the re-issue check, and the in-process replay
//! of every request.
//!
//! All load comes from this process: one connection per wire loop, and at
//! most two threads (the campaign and one open-loop generator), because the
//! benchmark host has two cores. Every loop runs on the load generator's
//! CPU (see `cpu.rs`).

use crate::cpu::{self, Role};
use crate::stats::{self, Fnv};
use crate::trace::Tracer;
use archer2_repro::serve::{Client, Request, Response, WireGap, WireGroup, WireOp, WireWindow};
use archer2_repro::sim::rng::{Rng, Xoshiro256StarStar};
use archer2_repro::tsdb::{self, AggOp, QueryStats, SeriesId, TsdbStore};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::{Duration, Instant};

const HOUR: i64 = 3_600;
const DAY: i64 = 86_400;

/// Every `REISSUE_EVERY`-th request is re-issued after the timed loop.
pub const REISSUE_EVERY: usize = 10;

/// A request, late by more than this, counts towards `loadgen.late_frac`.
const LATE_MS: f64 = 1.0;

/// The series a store holds, by name, and the time range they cover.
#[derive(Debug, Clone)]
pub struct Shape {
    pub cabinets: Vec<String>,
    pub nodes: u32,
    /// First sample (inclusive), unix seconds, midnight-aligned.
    pub lo: i64,
    /// End of the ingested range (exclusive), unix seconds.
    pub hi: i64,
}

impl Shape {
    fn cabinet(&self, rng: &mut Xoshiro256StarStar) -> String {
        self.cabinets[rng.next_below(self.cabinets.len() as u64) as usize].clone()
    }

    fn node(&self, rng: &mut Xoshiro256StarStar) -> String {
        format!("node.{}", rng.next_below(u64::from(self.nodes)))
    }
}

fn facility() -> String {
    "facility".into()
}

/// An hour-aligned window of 1 h to `max_len` inside `[lo, hi)`.
fn hour_window(rng: &mut Xoshiro256StarStar, lo: i64, hi: i64, max_len: i64) -> (i64, i64) {
    let hours = ((hi - lo) / HOUR).max(1);
    let len = 1 + rng.next_below((max_len / HOUR).clamp(1, hours) as u64) as i64;
    let from = lo + rng.next_below((hours - len + 1).max(1) as u64) as i64 * HOUR;
    (from, from + len * HOUR)
}

/// A window with arbitrary (unaligned) bounds, up to `max_len` long.
fn raw_window(rng: &mut Xoshiro256StarStar, lo: i64, hi: i64, max_len: i64) -> (i64, i64) {
    let len = 1 + rng.next_below(max_len.min(hi - lo).max(1) as u64) as i64;
    let from = lo + rng.next_below((hi - lo - len + 1).max(1) as u64) as i64;
    (from, from + len)
}

/// One of `1..=max_days` whole days inside `[lo, hi)`, day-aligned to `lo`.
fn day_range(rng: &mut Xoshiro256StarStar, lo: i64, hi: i64, max_days: i64) -> (i64, i64) {
    let days = ((hi - lo) / DAY).max(1);
    let len = 1 + rng.next_below(max_days.clamp(1, days) as u64) as i64;
    let from = lo + rng.next_below((days - len + 1) as u64) as i64 * DAY;
    (from, from + len * DAY)
}

fn raw_op(rng: &mut Xoshiro256StarStar) -> WireOp {
    [WireOp::Mean, WireOp::Max, WireOp::P95][rng.next_below(3) as usize]
}

/// The canonical dashboard pool of `examples/tsdb_serve.rs`: twenty
/// interval-aligned panels (facility mean, facility daily maxima, cabinet
/// fan-out and a cabinet's gap-aware read over five nested windows) that
/// every viewer asks for, so after the first pass they are result-cache
/// hits. The store must hold more than four days.
pub fn canonical_pool(s: &Shape) -> Vec<Request> {
    let (lo, hi) = (s.lo, s.hi);
    let mut pool = Vec::new();
    for k in 0..5 {
        let from = lo + k * DAY;
        let to = hi - k * HOUR;
        assert!(from < to, "the pool needs more than four days of data");
        pool.push(Request::Aggregate {
            series: facility(),
            from,
            to,
            op: WireOp::Mean,
        });
        pool.push(Request::Windows {
            series: facility(),
            from,
            to,
            step: DAY,
            op: WireOp::Max,
        });
        pool.push(Request::Group {
            series: s.cabinets.clone(),
            from,
            to,
        });
        pool.push(Request::Gap {
            series: s.cabinets[k as usize % s.cabinets.len()].clone(),
            from,
            to,
        });
    }
    pool
}

/// Telemetry cadence of every series (the campaign's default 15 minutes).
const INTERVAL_S: i64 = 900;

/// One dashboard refresh of the read-back after a campaign: every panel of
/// the pool, and on every fourth refresh one single over unaligned bounds,
/// the facility mean on every eighth and a random cabinet's gap-aware read
/// otherwise (the singles of the client session of `examples/tsdb_serve.rs`).
/// Every refresh asks for the same panels, so refreshes differ only by
/// their singles and the median refresh is steady. A median over single
/// queries is not: on the paper-scale store half the panels (`Aggregate`,
/// `Gap`) took under 0.2 ms and half (`Group`, `Windows`) over 4 ms, and
/// such a median sits on the edge between the two halves.
fn refresh(
    rng: &mut Xoshiro256StarStar,
    s: &Shape,
    pool: &[Request],
    iteration: usize,
) -> Vec<Request> {
    let mut out = pool.to_vec();
    if iteration.is_multiple_of(4) {
        let span = (s.hi - s.lo) / INTERVAL_S * INTERVAL_S;
        let a = s.lo + rng.next_below(span as u64 + 1) as i64;
        let b = s.lo + rng.next_below(span as u64 + 1) as i64;
        let (from, to) = (a.min(b), a.max(b));
        let cabinet = s.cabinet(rng);
        out.push(if iteration.is_multiple_of(8) {
            Request::Aggregate {
                series: facility(),
                from,
                to,
                op: WireOp::Mean,
            }
        } else {
            Request::Gap {
                series: cabinet,
                from,
                to,
            }
        });
    }
    out
}

/// The `query_history` mix: raw node decodes that outgrow the decoded-
/// chunk cache, cabinet fan-out over hour rollups, facility daily maxima,
/// gap-aware cabinet reads, and dashboard panels.
fn history(rng: &mut Xoshiro256StarStar, s: &Shape, pool: &[Request]) -> Request {
    let (lo, hi) = (s.lo, s.hi);
    match rng.next_below(10) {
        0..=3 => {
            let (from, to) = raw_window(rng, lo, hi, 7 * DAY);
            Request::Aggregate {
                series: s.node(rng),
                from,
                to,
                op: raw_op(rng),
            }
        }
        4..=5 => {
            let (from, to) = hour_window(rng, lo, hi, hi - lo);
            Request::Group {
                series: s.cabinets.clone(),
                from,
                to,
            }
        }
        6..=7 => {
            let (from, to) = day_range(rng, lo, hi, (hi - lo) / DAY);
            Request::Windows {
                series: facility(),
                from,
                to,
                step: DAY,
                op: WireOp::Max,
            }
        }
        8 => {
            let (from, to) = raw_window(rng, lo, hi, 7 * DAY);
            Request::Gap {
                series: s.cabinet(rng),
                from,
                to,
            }
        }
        _ => pool[rng.next_below(pool.len() as u64) as usize].clone(),
    }
}

/// The `serve_live` mix over settled data only: every window ends by
/// `settled`, at least one serve step behind the ingest horizon, so its
/// rollup hours are sealed and a later re-issue must answer the same bytes.
/// The last-24-hours windows end at a random second of the last settled
/// hour, so no two requests are alike and the result cache never answers:
/// a mix of cache hits and misses would put the median between the two.
fn live(rng: &mut Xoshiro256StarStar, s: &Shape, settled: i64) -> Request {
    let to = settled - rng.next_below(HOUR as u64) as i64;
    let from = (to - DAY).max(s.lo);
    match rng.next_below(3) {
        0 => Request::Aggregate {
            series: facility(),
            from,
            to,
            op: WireOp::Mean,
        },
        1 => Request::Group {
            series: s.cabinets.clone(),
            from,
            to,
        },
        _ => {
            let (from, to) = day_range(rng, s.lo, settled, 1);
            Request::Aggregate {
                series: s.node(rng),
                from,
                to,
                op: WireOp::Max,
            }
        }
    }
}

/// Which request mix a generator draws from, with the dashboard pool the
/// mix draws on.
#[derive(Clone, Copy)]
pub enum Mix<'a> {
    Readback(&'a Shape, &'a [Request]),
    History(&'a Shape, &'a [Request]),
    Live(&'a Shape),
}

impl<'a> Mix<'a> {
    /// The requests the server answers from its result cache once warm.
    pub fn pool(&self) -> &'a [Request] {
        match *self {
            Mix::Readback(_, pool) | Mix::History(_, pool) => pool,
            Mix::Live(_) => &[],
        }
    }
}

fn seeded(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seeded(seed ^ 0x5EED_10AD)
}

/// The read-back's dashboard refreshes, fresh from the workload's seed.
pub fn refreshes<'a>(
    seed: u64,
    s: &'a Shape,
    pool: &'a [Request],
) -> impl FnMut() -> Vec<Request> + 'a {
    let mut rng = seeded(seed);
    let mut iteration = 0;
    move || {
        iteration += 1;
        refresh(&mut rng, s, pool, iteration - 1)
    }
}

/// A request generator for `mix`, fresh from the workload's seed. The
/// timed loop, the re-issue and the replay each build one, and all three
/// see the same requests. It is given the loop's `ctx` for each request.
/// The read-back's requests are its refreshes, one after the other.
pub fn generator(seed: u64, mix: Mix<'_>) -> impl FnMut(i64) -> Request + '_ {
    let mut rng = seeded(seed);
    let mut next_refresh = match mix {
        Mix::Readback(s, pool) => Some(refreshes(seed, s, pool)),
        _ => None,
    };
    let mut queued = std::collections::VecDeque::new();
    move |ctx| match mix {
        Mix::Readback(..) => {
            if queued.is_empty() {
                let next = next_refresh.as_mut().expect("a read-back has refreshes");
                queued.extend(next());
            }
            queued.pop_front().expect("a refresh asks for every panel")
        }
        Mix::History(s, pool) => history(&mut rng, s, pool),
        Mix::Live(s) => live(&mut rng, s, ctx),
    }
}

/// What a load loop brings home. Requests are not kept: they are a pure
/// function of the generator's seed and of `ctx`, so re-issue and replay
/// regenerate them, and the loop's memory does not grow with its speed.
#[derive(Default)]
pub struct Loop {
    /// Per request, what the generator was given: the settled horizon in
    /// the open loop, 0 in a closed one.
    pub ctx: Vec<i64>,
    /// Per request, the round trip from send to reply, microseconds (in the
    /// read-back, the query's own time in process).
    pub rtt_us: Vec<f64>,
    /// Read-back only: per dashboard refresh, the mean time of its queries.
    pub refresh_us: Vec<f64>,
    /// Open loop only: per request, the latency a user saw: from its due
    /// time when it went out late, from its send time when on time.
    pub due_us: Vec<f64>,
    /// Open loop only: how late each request was sent, milliseconds.
    pub late_ms: Vec<f64>,
    /// Digest of each reply's bytes, kept for re-issued requests (for all
    /// of them when traced); `None` for error replies and the rest.
    pub replies: Vec<Option<u64>>,
    /// Per request, whether it failed (an error reply or a broken
    /// connection); a failed request misses every latency limit.
    pub failed: Vec<bool>,
    pub errors: u64,
    pub wall_s: f64,
    /// Digest over the first [`DIGEST_REPLIES`] replies, in order.
    pub reply_digest: Fnv,
}

/// Replies folded into [`Loop::reply_digest`]: a fixed count, so two runs
/// of one seed digest the same replies however long each loop ran.
pub const DIGEST_REPLIES: usize = 2_000;

fn reply_bytes(response: &Response) -> String {
    serde_json::to_string(response).expect("replies serialise")
}

fn digest_of(json: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(json.as_bytes());
    h.0
}

impl Loop {
    fn push(&mut self, ctx: i64, reply: Result<Response, String>, keep_all: bool) {
        let i = self.ctx.len();
        let errors_before = self.errors;
        let digest = match reply {
            Ok(Response::Error { kind, message, .. }) => {
                eprintln!("error reply {kind:?} to request {i}: {message}");
                self.errors += 1;
                None
            }
            Ok(response) => {
                let keep = keep_all || i.is_multiple_of(REISSUE_EVERY);
                if keep || i < DIGEST_REPLIES {
                    let json = reply_bytes(&response);
                    if i < DIGEST_REPLIES {
                        self.reply_digest.bytes(json.as_bytes());
                    }
                    keep.then(|| digest_of(&json))
                } else {
                    None
                }
            }
            Err(e) => {
                eprintln!("transport failure on request {i}: {e}");
                self.errors += 1;
                None
            }
        };
        self.failed.push(self.errors > errors_before);
        self.replies.push(digest);
        self.ctx.push(ctx);
    }

    pub fn len(&self) -> usize {
        self.ctx.len()
    }

    /// The requests of this loop again, from a generator built like the
    /// one that made them.
    pub fn requests<'a>(
        &'a self,
        mut generate: impl FnMut(i64) -> Request + 'a,
    ) -> impl Iterator<Item = Request> + 'a {
        self.ctx.iter().map(move |&ctx| generate(ctx))
    }

    /// The latency a user saw: [`Loop::due_us`] in an open loop, the round
    /// trip in a closed one.
    pub fn latencies_us(&self) -> &[f64] {
        if self.due_us.is_empty() {
            &self.rtt_us
        } else {
            &self.due_us
        }
    }

    /// Replies that came back without error within [`LIMIT_US`] of when
    /// they were due (when they were sent, in a closed loop).
    pub fn within_limit(&self) -> usize {
        self.latencies_us()
            .iter()
            .zip(&self.failed)
            .filter(|&(&us, &failed)| us <= LIMIT_US && !failed)
            .count()
    }
}

/// The latency limit of a reply that counts towards `queries_per_s` and
/// `within_10ms_frac`.
pub const LIMIT_US: f64 = 10_000.0;

/// How long a closed loop measures: `min` requests and at least `secs`
/// seconds, never past `max` requests. Before it measures, it sends
/// requests of its own for `warmup_secs`, so the decoded-chunk cache and
/// the session are warm.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub warmup_secs: f64,
    pub min: usize,
    pub max: usize,
    pub secs: f64,
}

/// Closed loop: one connection, the next request goes out when the
/// previous reply is back. The warm-up draws from `warm`, a generator of
/// its own, so the measured requests are the same however it went.
pub fn closed_loop(
    client: &mut Client,
    mut warm: impl FnMut(i64) -> Request,
    mut generate: impl FnMut(i64) -> Request,
    stop: Stop,
    tracer: &mut Tracer,
) -> Loop {
    cpu::pinned(Role::LoadGenerator, || {
        tracer.span("loadgen.warmup", 0, |_| {
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < stop.warmup_secs {
                let _ = client.request(&warm(0));
            }
        });
        let keep_all = tracer.on();
        let mut out = Loop::default();
        let started = Instant::now();
        while out.len() < stop.max
            && (out.len() < stop.min || started.elapsed().as_secs_f64() < stop.secs)
        {
            let req_id = out.len() as u64;
            let request = tracer.span("loadgen.next", req_id, |_| generate(0));
            let t0 = Instant::now();
            let reply = client.request(&request);
            let t1 = Instant::now();
            tracer.record("serve.request", req_id, t0, t1);
            out.rtt_us.push((t1 - t0).as_secs_f64() * 1e6);
            let broken = reply.is_err();
            tracer.span("loadgen.record", req_id, |_| {
                out.push(0, reply.map_err(|e| e.to_string()), keep_all)
            });
            if broken {
                break;
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out
    })
}

/// The read-back after a campaign: a closed loop of dashboard refreshes in
/// this process, each query through the store calls the server makes for
/// it (see [`exec`]), the way the repository's examples read a campaign's
/// telemetry. Warm-up, stop rule and CPU are those of [`closed_loop`]; the
/// rule is checked between refreshes.
///
/// Over the wire, 80 of every 82 read-back requests were result-cache hits
/// of about 70 µs, so the loop timed loopback wake-ups between the two
/// vCPUs, and its throughput spread by 11–40 % over ten runs of one commit
/// on the two-vCPU host; in process its metrics spread by 3–18 %, about as
/// much as the campaign's own simulation speed in the same runs.
pub fn readback_loop(
    store: &TsdbStore,
    mut warm: impl FnMut() -> Vec<Request>,
    mut refresh: impl FnMut() -> Vec<Request>,
    stop: Stop,
    tracer: &mut Tracer,
) -> Loop {
    let run = |request: &Request| exec(store, request, &resolve(store, request));
    cpu::pinned(Role::LoadGenerator, || {
        tracer.span("loadgen.warmup", 0, |_| {
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < stop.warmup_secs {
                for request in warm() {
                    std::hint::black_box(run(&request));
                }
            }
        });
        let keep_all = tracer.on();
        let mut out = Loop::default();
        let started = Instant::now();
        while out.len() < stop.max
            && (out.len() < stop.min || started.elapsed().as_secs_f64() < stop.secs)
        {
            let requests = tracer.span("loadgen.next", out.len() as u64, |_| refresh());
            let mut total_us = 0.0;
            for request in &requests {
                let req_id = out.len() as u64;
                let t0 = Instant::now();
                let reply = run(request);
                let t1 = Instant::now();
                tracer.record("query.readback", req_id, t0, t1);
                let us = (t1 - t0).as_secs_f64() * 1e6;
                out.rtt_us.push(us);
                total_us += us;
                tracer.span("loadgen.record", req_id, |_| {
                    out.push(0, Ok(reply), keep_all)
                });
            }
            out.refresh_us.push(total_us / requests.len() as f64);
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out
    })
}

/// Open loop at `rate` requests per second on one connection. A request
/// that could not go out on time, because an earlier reply came back
/// late, is timed from when it was due, so a stall also counts against
/// every request queued behind it; one sent on time is timed from when it
/// was sent, so the generator's own sleep overshooting (the kernel's timer
/// slack) does not read as server latency. Runs until `done` is set and
/// at least `min` requests went out. Each request is generated from
/// `settled`, the end of the data the campaign has finished ingesting
/// when it is sent.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    min: usize,
    mut generate: impl FnMut(i64) -> Request,
    settled: &AtomicI64,
    done: &AtomicBool,
    tracer: &mut Tracer,
) -> Loop {
    cpu::pinned(Role::LoadGenerator, || {
        let keep_all = tracer.on();
        let mut client = Client::connect(addr, "live").expect("open-loop client connects");
        let mut out = Loop::default();
        let interval = Duration::from_secs_f64(1.0 / rate);
        let started = Instant::now();
        while !(done.load(Ordering::Acquire) && out.len() >= min) {
            let due = started + interval * out.len() as u32;
            let now = Instant::now();
            let on_time = now < due;
            if on_time {
                std::thread::sleep(due - now);
            }
            let req_id = out.len() as u64;
            let ctx = settled.load(Ordering::Acquire);
            let request = generate(ctx);
            let sent = Instant::now();
            let reply = client.request(&request);
            let back = Instant::now();
            tracer.record("serve.request", req_id, sent, back);
            out.late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            out.rtt_us.push((back - sent).as_secs_f64() * 1e6);
            let from = if on_time { sent } else { due };
            out.due_us.push((back - from).as_secs_f64() * 1e6);
            let broken = reply.is_err();
            out.push(ctx, reply.map_err(|e| e.to_string()), keep_all);
            if broken {
                break;
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out
    })
}

/// Re-issue every [`REISSUE_EVERY`]-th request of `l` (regenerated by
/// `generate`) on a fresh tenant, whose empty result cache makes each one
/// execute, and compare the reply bytes with the timed reply's. Returns
/// the number compared, or the mismatches.
pub fn reissue(
    addr: SocketAddr,
    l: &Loop,
    generate: impl FnMut(i64) -> Request,
) -> Result<usize, Vec<String>> {
    let mut client = Client::connect(addr, "verify").expect("verify client connects");
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for (i, (request, timed)) in l.requests(generate).zip(&l.replies).enumerate() {
        // Skips the requests not kept, and error replies (counted already).
        let (true, Some(timed)) = (i.is_multiple_of(REISSUE_EVERY), timed) else {
            continue;
        };
        let fresh = client.request(&request).map(|r| reply_bytes(&r));
        match fresh {
            Ok(json) if digest_of(&json) == *timed => {}
            other => mismatches.push(format!(
                "request {i} {request:?}: re-issued reply {other:?} differs"
            )),
        }
        checked += 1;
    }
    if mismatches.is_empty() {
        Ok(checked)
    } else {
        Err(mismatches)
    }
}

/// Per-request costs of the in-process replay.
#[derive(Default)]
pub struct QueryReplay {
    pub plan_us: Vec<f64>,
    pub exec_us: Vec<f64>,
    pub serialise_us: Vec<f64>,
    /// Wire round trip minus plan, exec and serialise, for requests the
    /// server executed (dashboard hits are served from its cache).
    pub overhead_us: Vec<f64>,
    pub stats: QueryStats,
    pub mismatches: u64,
}

fn resolve(store: &TsdbStore, request: &Request) -> Vec<SeriesId> {
    let one = |name: &String| vec![store.lookup(name).unwrap_or(SeriesId(u64::MAX))];
    match request {
        Request::Aggregate { series, .. }
        | Request::Gap { series, .. }
        | Request::Windows { series, .. } => one(series),
        Request::Group { series, .. } => series
            .iter()
            .map(|n| store.lookup(n).unwrap_or(SeriesId(u64::MAX)))
            .collect(),
        other => unreachable!("not a data query: {other:?}"),
    }
}

/// The server's admission estimate, made through the same public planner
/// entry point (`estimate_scan`) on the same read path.
fn plan(store: &TsdbStore, request: &Request, ids: &[SeriesId]) -> u64 {
    let est = |id: SeriesId, from: i64, to: i64, op: AggOp, rollup: bool| {
        store
            .with_series_read(id, |s| tsdb::estimate_scan(s, from, to, op, rollup))
            .unwrap_or(0)
    };
    match *request {
        Request::Aggregate { from, to, op, .. } => est(ids[0], from, to, op.into(), true),
        Request::Gap { from, to, .. } => est(ids[0], from, to, AggOp::Mean, false),
        Request::Windows {
            from, to, step, op, ..
        } => est(ids[0], from, to, op.into(), true) + ((to - from) as u64).div_ceil(step as u64),
        Request::Group { from, to, .. } => ids
            .iter()
            .map(|&id| est(id, from, to, AggOp::Mean, true))
            .sum(),
        _ => unreachable!("not a data query"),
    }
}

/// The store calls a served query makes, and the reply it builds.
fn exec(store: &TsdbStore, request: &Request, ids: &[SeriesId]) -> Response {
    let unknown = |series: &str| {
        Response::error(
            archer2_repro::serve::ErrorKind::UnknownSeries,
            format!("no series {series:?}"),
        )
    };
    match request {
        Request::Aggregate {
            series,
            from,
            to,
            op,
        } => match tsdb::store_aggregate(store, ids[0], *from, *to, (*op).into()) {
            Some((value, plan)) => Response::Aggregate {
                value_bits: value.to_bits(),
                plan: format!("{plan:?}"),
            },
            None => unknown(series),
        },
        Request::Windows {
            series,
            from,
            to,
            step,
            op,
        } => match tsdb::store_windows(store, ids[0], *from, *to, *step, (*op).into()) {
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
            None => unknown(series),
        },
        Request::Group { from, to, .. } => {
            let g = tsdb::fanout_group(store, ids, *from, *to);
            Response::Group(WireGroup {
                series: g.series as u64,
                missing: g.missing as u64,
                sum_of_means_bits: g.sum_of_means.to_bits(),
                mean_of_means_bits: g.mean_of_means().to_bits(),
                total_count: g.total.count,
            })
        }
        Request::Gap { series, from, to } => {
            match tsdb::store_gap_aggregate(store, ids[0], *from, *to) {
                Some(v) => Response::Gap(WireGap {
                    count: v.agg.count,
                    mean_bits: v.agg.mean().to_bits(),
                    expected: v.expected,
                    coverage_bits: v.coverage.to_bits(),
                    quarantined: v.quarantined,
                }),
                None => unknown(series),
            }
        }
        other => unreachable!("not a data query: {other:?}"),
    }
}

/// Replay every wire request of `l` (regenerated by `generate`) in
/// process against `store`, the store the server answered from, no longer
/// changing: time the planner estimate, the store call and the reply
/// serialisation, and check each reply against the digest the loop kept.
/// `cached` holds the serialised requests the server answered from its
/// result cache; they are left out of the serving-overhead estimate, and
/// so is every request of the read-back, which had no server.
pub fn replay(
    store: &TsdbStore,
    l: &Loop,
    generate: impl FnMut(i64) -> Request,
    cached: &HashSet<String>,
    tracer: &mut Tracer,
) -> QueryReplay {
    let mut out = QueryReplay::default();
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    for (i, (request, wire)) in l.requests(generate).zip(&l.replies).enumerate() {
        let req_id = i as u64;
        let outer = tracer.begin("query.replay", req_id);
        let ids = resolve(store, &request);
        let t0 = Instant::now();
        std::hint::black_box(plan(store, &request, &ids));
        let t1 = Instant::now();
        let before = store.query_stats();
        let response = exec(store, &request, &ids);
        out.stats.merge(&store.query_stats().delta_since(&before));
        let t2 = Instant::now();
        let json = reply_bytes(&response);
        let t3 = Instant::now();
        tracer.record("query.plan", req_id, t0, t1);
        tracer.record("query.exec", req_id, t1, t2);
        tracer.record("serve.serialise", req_id, t2, t3);
        tracer.end(outer);
        let (p, e, s) = (us(t0, t1), us(t1, t2), us(t2, t3));
        out.plan_us.push(p);
        out.exec_us.push(e);
        out.serialise_us.push(s);
        match wire {
            Some(wire) if *wire != digest_of(&json) => {
                if out.mismatches == 0 {
                    eprintln!(
                        "replay of request {i} {request:?} differs from its wire reply: {json}"
                    );
                }
                out.mismatches += 1;
            }
            Some(_)
                if l.refresh_us.is_empty()
                    && !cached.contains(
                        &serde_json::to_string(&request).expect("requests serialise"),
                    ) =>
            {
                out.overhead_us.push((l.rtt_us[i] - p - e - s).max(0.0));
            }
            _ => {}
        }
    }
    out
}

/// `(p50, tail)` of a latency population, with the tail at the highest
/// percentile that has ten samples beyond it (see [`stats::tail_percentile`]).
pub fn p50_tail(values: &[f64]) -> (f64, f64) {
    let sorted = stats::sorted(values);
    let tail = stats::tail_percentile(sorted.len()).unwrap_or(100.0);
    (
        stats::percentile(&sorted, 50.0),
        stats::percentile(&sorted, tail),
    )
}

/// Share of an open loop's requests sent more than 1 ms after their due
/// time, and the tail of the lateness, from each request's [`Loop::late_ms`].
pub fn lateness(late_ms: &[f64]) -> (f64, f64) {
    if late_ms.is_empty() {
        return (0.0, 0.0);
    }
    let late = late_ms.iter().filter(|&&ms| ms > LATE_MS).count();
    (late as f64 / late_ms.len() as f64, p50_tail(late_ms).1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_limit_applies_from_the_due_time_and_failures_miss_it() {
        let closed = Loop {
            rtt_us: vec![50.0, 12_000.0, 80.0],
            failed: vec![false, false, true],
            ..Loop::default()
        };
        assert_eq!(closed.within_limit(), 1);
        // Open loop: a fast round trip sent 20 ms late misses the limit.
        let open = Loop {
            rtt_us: vec![50.0, 60.0],
            due_us: vec![50.0, 20_060.0],
            failed: vec![false, false],
            ..Loop::default()
        };
        assert_eq!(open.within_limit(), 1);
    }

    #[test]
    fn readback_refreshes_the_whole_dashboard() {
        let s = Shape {
            cabinets: (0..4).map(|i| format!("cabinet.{i}")).collect(),
            nodes: 0,
            lo: 0,
            hi: 10 * DAY,
        };
        let key = |q: &Request| serde_json::to_string(q).unwrap();
        let pool = canonical_pool(&s);
        let panels: Vec<String> = pool.iter().map(key).collect();
        assert_eq!(panels.len(), 20);
        // Eight refreshes: every panel in pool order each time, a facility
        // single after the first and a gap single after the fifth.
        let mut next = refreshes(7, &s, &pool);
        let batches: Vec<Vec<String>> = (0..8).map(|_| next().iter().map(key).collect()).collect();
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b[..20], panels[..], "refresh {i}");
            assert_eq!(b.len(), if i % 4 == 0 { 21 } else { 20 }, "refresh {i}");
        }
        assert!(batches[0][20].contains("Aggregate") && batches[0][20].contains("facility"));
        assert!(batches[4][20].contains("Gap"));
        // The request generator walks the same refreshes one by one.
        let mut generate = generator(7, Mix::Readback(&s, &pool));
        assert!(batches.concat().iter().all(|q| *q == key(&generate(0))));
    }
}
