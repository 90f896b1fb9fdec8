//! The four workloads. Each one sets up, runs a timed phase, checks that
//! its outputs are correct, and reports what it measured.
//!
//! Why these four (see README.md for the full argument):
//! - `campaign_paper` is the paper-scale headline: scheduler- and
//!   event-loop-heavy, ingest-light, so simulation gains show here.
//! - `campaign_telemetry` runs the same simulation with per-node telemetry,
//!   faults, a checkpoint and a resume, so ingest and persistence dominate.
//! - `serve_live` serves reads while the campaign writes: the only
//!   workload where read-view publication and writer/reader contention
//!   run; no two of its requests are alike, so the result cache is bypassed.
//! - `query_history` serves reads only, from a compacted store whose
//!   chunks outnumber the decoded-chunk cache, with a dashboard that hits
//!   the result cache.

use crate::cpu::{self, Role};
use crate::load::{self, Loop, Mix, Shape, Stop};
use crate::replay;
use crate::stats;
use crate::trace::{self, Tracer};
use archer2_repro::core::campaign::{Campaign, CampaignConfig, FaultInjectionConfig};
use archer2_repro::core::experiment::scaled_facility;
use archer2_repro::core::facility::Archer2Facility;
use archer2_repro::faults::{DomainFaultConfig, DomainRate};
use archer2_repro::serve::{Client, Request, Server, ServerConfig};
use archer2_repro::sim::{SimDuration, SimTime};
use archer2_repro::tsdb::TsdbStore;
use archer2_repro::workload::{JobTrace, OperatingPoint};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "campaign_paper",
    "campaign_telemetry",
    "serve_live",
    "query_history",
];

const DAY: SimDuration = SimDuration::from_days(1);
/// The `run_until` step of every workload but `campaign_paper`, and the
/// serve step of `serve_live`: the telemetry workloads take a few tens of
/// days, and a quarter day gives the per-layer step statistics four times
/// the samples a day would.
const STEP: SimDuration = SimDuration::from_hours(6);

/// How one run was asked to go.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Where records, trace files and the checkpoint directory go.
    pub out: PathBuf,
}

/// Problem sizes: the full benchmark, or the smoke pass the tests run.
struct Size {
    scale: u32,
    /// Set up once (traced and smoke runs, which report no set-up time),
    /// or at least three times and, while set-up is cheap, up to nine.
    setup_once: bool,
    telemetry_days: u64,
    serve_warm_days: u64,
    serve_days: u64,
    /// How many times `serve_live` runs whole (once when `setup_once`).
    serve_rounds: usize,
    history_days: u64,
    /// Open-loop request rate of `serve_live`, per second.
    rate: f64,
    /// Closed loops: `warmup_secs` of requests first, then `min_requests`
    /// and at least `--seconds`, never past `max_requests`.
    warmup_secs: f64,
    min_requests: usize,
    max_requests: usize,
    /// The open loop keeps going after the campaign ends until this many.
    open_min: usize,
}

impl Size {
    fn of(o: &Opts) -> Size {
        if o.smoke {
            // Every store a closed loop reads holds more than the four
            // days the dashboard pool's nested windows need.
            Size {
                scale: 40,
                setup_once: true,
                telemetry_days: 6,
                serve_warm_days: 2,
                serve_days: 1,
                serve_rounds: 1,
                history_days: 5,
                rate: 2_000.0,
                warmup_secs: 0.05,
                min_requests: 2_000,
                max_requests: 2_000,
                open_min: 500,
            }
        } else {
            Size {
                scale: 1,
                setup_once: o.trace,
                telemetry_days: 20,
                serve_warm_days: 2,
                serve_days: 10,
                serve_rounds: if o.trace { 1 } else { 3 },
                history_days: 12,
                rate: 500.0,
                warmup_secs: 2.0,
                min_requests: 1_000,
                max_requests: usize::MAX,
                open_min: 0,
            }
        }
    }
}

/// Everything one run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness gate.
    pub errors: Vec<String>,
    pub digest: u64,
    pub reply_digest: Option<u64>,
    pub metrics: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
    /// `[start, end)` of the timed phase on the main thread, ns.
    pub timed_ns: (u64, u64),
}

impl Outcome {
    fn new(tracer: Tracer) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            digest: 0,
            reply_digest: None,
            metrics: Vec::new(),
            tracer,
            timed_ns: (0, 0),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.span(name, 0, |_| f())
    }
}

pub fn run(workload: &str, o: &Opts) -> Outcome {
    let tracer = Tracer::new(o.trace, Instant::now(), 0);
    let mut out = Outcome::new(tracer);
    match workload {
        "campaign_paper" => campaign_paper(o, &mut out),
        "campaign_telemetry" => campaign_telemetry(o, &mut out),
        "serve_live" => serve_live(o, &mut out),
        "query_history" => query_history(o, &mut out),
        other => panic!("unknown workload {other:?}"),
    }
    if o.trace {
        span_metrics(&mut out);
    }
    out
}

fn facility(o: &Opts, sz: &Size) -> Archer2Facility {
    scaled_facility(o.seed, sz.scale)
}

/// The campaign every workload runs: the paper's defaults with per-cabinet
/// telemetry and the job trace on, per-node telemetry where the workload
/// needs it, and the job shapes scaled down with the facility.
fn config(o: &Opts, sz: &Size, per_node: bool, faults: Option<SimDuration>) -> CampaignConfig {
    let mut cfg = CampaignConfig {
        seed: o.seed,
        per_cabinet_telemetry: true,
        per_node_telemetry: per_node,
        record_trace: true,
        faults: faults.map(|horizon| FaultInjectionConfig {
            domains: DomainFaultConfig {
                node: DomainRate {
                    mtbf_hours: 4_000.0,
                    ..DomainFaultConfig::default().node
                },
                cabinet: DomainRate {
                    mtbf_hours: 2_500.0,
                    ..DomainFaultConfig::default().cabinet
                },
                cdu: DomainRate {
                    mtbf_hours: 1_200.0,
                    ..DomainFaultConfig::default().cdu
                },
                switch: DomainRate {
                    mtbf_hours: 15_000.0,
                    ..DomainFaultConfig::default().switch
                },
                ..DomainFaultConfig::default()
            },
            horizon,
            // Meter faults stay off: with clock-skewed cabinet samples,
            // `Campaign::resume` refuses the checkpoint (see README.md).
            meters: None,
            ..FaultInjectionConfig::default()
        }),
        ..CampaignConfig::default()
    };
    cfg.generator.max_nodes = (cfg.generator.max_nodes / sz.scale).max(16);
    cfg.backlog_target = (cfg.backlog_target / sz.scale as usize).max(40);
    cfg
}

/// Nodes the campaign's scheduler manages (the rest are set aside).
fn schedulable(c: &Campaign, cfg: &CampaignConfig) -> u32 {
    let nodes = c.facility().nodes();
    nodes - (nodes as f64 * cfg.unavailable_fraction).round() as u32
}

fn unix(t: SimTime) -> i64 {
    t.as_unix() as i64
}

fn days(from: SimTime, to: SimTime) -> f64 {
    to.since(from).as_days_f64()
}

/// Drive `c` from `from` to `until` in `step` increments of `run_until`,
/// applying each operating-point change as the clock reaches it. Returns
/// the wall seconds of every step.
fn drive(
    c: &mut Campaign,
    from: SimTime,
    until: SimTime,
    step: SimDuration,
    changes: &[(SimTime, OperatingPoint)],
    tr: &mut Tracer,
) -> Vec<f64> {
    let mut now = from;
    let mut steps = Vec::new();
    while now < until {
        for &(at, op) in changes {
            if at == now {
                tr.span("campaign.set_operating_point", 0, |_| {
                    c.set_operating_point(op)
                });
            }
        }
        let next = (now + step).min(until);
        let id = tr.begin("campaign.run_until", 0);
        let t = Instant::now();
        c.run_until(next);
        steps.push(t.elapsed().as_secs_f64());
        tr.end(id);
        now = next;
    }
    steps
}

/// Simulated days per wall second: `days` simulated over steps that took
/// `wall` seconds in all.
fn days_per_s(days: f64, wall: &[f64]) -> f64 {
    days / wall.iter().sum::<f64>()
}

/// Set-up times of a workload whose timed phase runs once (`serve_live`
/// repeats itself whole instead). Only the first build serves the
/// workload; the others run after it, once its state is gone (see
/// [`SetUp::repeat`]), so they never raise its peak memory.
struct SetUp {
    times: Vec<f64>,
}

impl SetUp {
    fn first<T>(out: &mut Outcome, build: &mut impl FnMut(&mut Outcome) -> T) -> (SetUp, T) {
        let t = Instant::now();
        let kept = build(out);
        (
            SetUp {
                times: vec![t.elapsed().as_secs_f64()],
            },
            kept,
        )
    }

    /// Record the run's peak memory, then build again, dropping each
    /// build: at least three builds in all and, while they take under a
    /// second together, up to nine. Reports their median as `setup_s`.
    /// Freed memory goes back to the kernel before each build, so every
    /// build starts from the memory state the first one had.
    fn repeat<T>(
        mut self,
        sz: &Size,
        out: &mut Outcome,
        build: &mut impl FnMut(&mut Outcome) -> T,
    ) {
        out.set("peak_rss_mb", crate::record::peak_rss_mb());
        let more = |t: &[f64]| {
            !sz.setup_once && (t.len() < 3 || (t.len() < 9 && t.iter().sum::<f64>() < 1.0))
        };
        while more(&self.times) {
            cpu::release_freed_memory();
            let t = Instant::now();
            let built = build(out);
            self.times.push(t.elapsed().as_secs_f64());
            drop(built);
        }
        out.set("setup_s", stats::median(&self.times));
    }
}

fn shape(c: &Campaign, lo: SimTime, hi: SimTime) -> Shape {
    Shape {
        cabinets: (0..c.cabinet_series_ids().len())
            .map(|i| format!("cabinet.{i}"))
            .collect(),
        nodes: c.node_series_ids().len() as u32,
        lo: unix(lo),
        hi: unix(hi),
    }
}

fn start_server(c: &Campaign, tr: &mut Tracer) -> Server {
    tr.span("serve.start", 0, |_| {
        cpu::pinned(Role::Server, || {
            Server::start(c.serve_store(), ServerConfig::default())
        })
    })
    .expect("the query server binds a local port")
}

fn stop(o: &Opts, sz: &Size) -> Stop {
    Stop {
        warmup_secs: sz.warmup_secs,
        min: sz.min_requests,
        max: sz.max_requests,
        secs: o.seconds as f64,
    }
}

/// A closed loop of `mix` on `client`; the warm-up draws from the next seed.
fn closed(client: &mut Client, o: &Opts, sz: &Size, mix: Mix<'_>, tr: &mut Tracer) -> Loop {
    load::closed_loop(
        client,
        load::generator(o.seed.wrapping_add(1), mix),
        load::generator(o.seed, mix),
        stop(o, sz),
        tr,
    )
}

/// The in-process read-back that ends both campaign workloads; the
/// warm-up draws from the next seed.
fn readback(
    c: &Campaign,
    s: &Shape,
    pool: &[Request],
    o: &Opts,
    sz: &Size,
    tr: &mut Tracer,
) -> Loop {
    load::readback_loop(
        &c.serve_store(),
        load::refreshes(o.seed.wrapping_add(1), s, pool),
        load::refreshes(o.seed, s, pool),
        stop(o, sz),
        tr,
    )
}

/// Gates every query loop shares: no error replies, and every re-issued
/// request answers the timed reply's bytes. The read-back's replies came
/// from the store in process, so there the gate checks that the server
/// answers what the store does.
fn served_gates(out: &mut Outcome, server: &Server, l: &Loop, seed: u64, mix: Mix<'_>) {
    out.attempted += l.len() as u64;
    out.failed += l.errors;
    out.gate(l.errors == 0, || {
        format!("{} of {} requests failed", l.errors, l.len())
    });
    let checked = out.span("bench.reissue", || {
        load::reissue(server.local_addr(), l, load::generator(seed, mix))
    });
    match checked {
        Ok(n) => println!("  re-issued {n} requests on a fresh tenant: byte-identical"),
        Err(mismatches) => {
            out.failed += mismatches.len() as u64;
            let first = mismatches[0].clone();
            out.gate(false, || {
                format!(
                    "{} re-issued replies differ; first: {first}",
                    mismatches.len()
                )
            });
        }
    }
}

/// Query metrics over every request of the workload's request loops.
///
/// The wait a user sees counts through the 10 ms limit: a reply counts
/// towards `within_10ms_frac` and `queries_per_s` only when it came back
/// without error within 10 ms of when it was due (in a closed loop, of
/// when it was sent), so a writer stall that holds requests back lowers
/// both. `query_p50_us` is the median round trip from the send; in the
/// read-back, which has no server, the median over refreshes of a
/// refresh's mean query time (see `load::refresh`). In the
/// open loop, the median from the due time, which adds the wait behind
/// earlier replies, is the per-layer `serve.request_p50_us`: on the
/// two-vCPU host it moved by 18–50 % between runs of one commit, too much
/// for any bound, where the round trip moved by 15–20 % and the share
/// within the limit by 1–5 % (see README.md).
fn query_metrics(out: &mut Outcome, loops: &[Loop]) {
    let pooled = |f: fn(&Loop) -> &[f64]| {
        stats::sorted(&loops.iter().flat_map(f).copied().collect::<Vec<_>>())
    };
    let lat = pooled(Loop::latencies_us);
    let refreshes = pooled(|l| &l.refresh_us);
    let p50 = if refreshes.is_empty() {
        out.set("serve.request_p50_us", stats::percentile(&lat, 50.0));
        out.set("serve.request_p99_us", stats::percentile(&lat, 99.0));
        stats::percentile(&pooled(|l| &l.rtt_us), 50.0)
    } else {
        stats::percentile(&refreshes, 50.0)
    };
    let within: usize = loops.iter().map(Loop::within_limit).sum();
    let wall_s: f64 = loops.iter().map(|l| l.wall_s).sum();
    let qps = within as f64 / wall_s.max(1e-9);
    let frac = within as f64 / lat.len().max(1) as f64;
    out.set("query_p50_us", p50);
    out.set("queries_per_s", qps);
    out.set("within_10ms_frac", frac);
    let (late_frac, late_tail) = load::lateness(&pooled(|l| &l.late_ms));
    out.set("loadgen.late_frac", late_frac);
    out.set("loadgen.late_ms_tail", late_tail);
    println!(
        "  {} requests in {wall_s:.2} s: {:.1} % within {} ms ({qps:.0}/s); query_p50_us {p50:.1}; per request (from the due time in an open loop) median {:.1} us, p99 {:.1} us",
        lat.len(),
        100.0 * frac,
        load::LIMIT_US / 1e3,
        stats::percentile(&lat, 50.0),
        stats::percentile(&lat, 99.0)
    );
}

/// Server-side counters for `tenant`, from the server's own introspection.
fn server_metrics(out: &mut Outcome, server: &Server, tenant: &str) {
    let intro = server.introspect();
    if let Some(t) = intro.tenants.iter().find(|t| t.tenant == tenant) {
        let lookups = t.result_cache_hits + t.result_cache_misses + t.coalesced;
        out.set(
            "serve.result_cache_hit_ratio",
            t.result_cache_hits as f64 / lookups.max(1) as f64,
        );
        out.set("serve.coalesced", t.coalesced as f64);
        out.set("serve.server_p99_us", t.p99_us as f64);
    }
}

/// Traced runs only: replay the scheduler and the ingest path, and every
/// wire request in process.
struct Replays<'a> {
    traces: Vec<&'a JobTrace>,
    nodes: u32,
    store: Option<&'a TsdbStore>,
    queries: Option<(&'a TsdbStore, &'a Loop, Mix<'a>)>,
    seed: u64,
}

fn layer_replays(out: &mut Outcome, r: Replays<'_>) {
    let mut sched = replay::Sched::default();
    out.tracer.span("sched.replay", 0, |_| {
        for t in &r.traces {
            replay::sched(t, r.nodes, &mut sched);
        }
    });
    let sched_ns = stats::sorted(
        &sched
            .schedule_ns
            .iter()
            .map(|&n| n as f64)
            .collect::<Vec<_>>(),
    );
    let tail = stats::tail_percentile(sched_ns.len()).unwrap_or(100.0);
    out.set("sched.schedule_calls", sched_ns.len() as f64);
    out.set(
        "sched.schedule_us_p50",
        stats::percentile(&sched_ns, 50.0) / 1e3,
    );
    out.set(
        "sched.schedule_us_tail",
        stats::percentile(&sched_ns, tail) / 1e3,
    );
    out.set("sched.busy_s", sched.busy_ns as f64 / 1e9);
    out.set("sched.pending_mean", sched.pending_mean());
    out.set("sched.start_match_frac", sched.start_match_frac());
    let mut ingest_busy_s = 0.0;
    if let Some(store) = r.store {
        let (ingest, same) = out
            .tracer
            .span("tsdb.ingest_replay", 0, |_| replay::ingest(store));
        out.gate(same, || {
            "the ingest replay's store digests differently from its source".into()
        });
        let ticks = stats::sorted(&ingest.tick_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
        let tail = stats::tail_percentile(ticks.len()).unwrap_or(100.0);
        out.set(
            "tsdb.append_tick_us_p50",
            stats::percentile(&ticks, 50.0) / 1e3,
        );
        out.set(
            "tsdb.append_tick_us_tail",
            stats::percentile(&ticks, tail) / 1e3,
        );
        out.set(
            "tsdb.ingest_ns_per_sample",
            ingest.busy_ns as f64 / ingest.samples.max(1) as f64,
        );
        ingest_busy_s = ingest.busy_ns as f64 / 1e9;
        out.set("tsdb.ingest_busy_s", ingest_busy_s);
    }
    let steps: f64 = durations_ms(out.tracer.spans(), "campaign.run_until")
        .iter()
        .sum::<f64>()
        / 1e3;
    out.set(
        "campaign.residual_s",
        steps - sched.busy_ns as f64 / 1e9 - ingest_busy_s,
    );
    if let Some((store, l, mix)) = r.queries {
        replay_queries(out, store, l, r.seed, mix);
    }
}

/// Replay every request in process and report the query and
/// serialisation layers.
fn replay_queries(out: &mut Outcome, store: &TsdbStore, l: &Loop, seed: u64, mix: Mix<'_>) {
    let cached: HashSet<String> = mix
        .pool()
        .iter()
        .map(|q| serde_json::to_string(q).expect("requests serialise"))
        .collect();
    let q = load::replay(
        store,
        l,
        load::generator(seed, mix),
        &cached,
        &mut out.tracer,
    );
    out.gate(q.mismatches == 0, || {
        format!(
            "{} in-process replays differ from the replies the loop got",
            q.mismatches
        )
    });
    let n = l.len().max(1) as f64;
    let (exec_p50, exec_tail) = load::p50_tail(&q.exec_us);
    out.set("query.plan_us_p50", load::p50_tail(&q.plan_us).0);
    out.set("query.exec_us_p50", exec_p50);
    out.set("query.exec_us_tail", exec_tail);
    out.set(
        "query.chunks_decoded_per_query",
        q.stats.chunks_decoded as f64 / n,
    );
    out.set("query.chunk_cache_hit_ratio", q.stats.cache_hit_rate());
    out.set(
        "query.samples_scanned_per_query",
        q.stats.samples_scanned as f64 / n,
    );
    out.set(
        "query.blocks_pruned_per_query",
        q.stats.blocks_pruned as f64 / n,
    );
    let plans = q.stats.plans_raw + q.stats.plans_hour + q.stats.plans_minute;
    out.set(
        "query.raw_plan_frac",
        q.stats.plans_raw as f64 / plans.max(1) as f64,
    );
    out.set("serve.serialise_us_p50", load::p50_tail(&q.serialise_us).0);
    out.set("serve.overhead_us_p50", load::p50_tail(&q.overhead_us).0);
}

fn durations_ms(spans: &[trace::Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Per-layer metrics read straight off the spans, and the tracer's own.
fn span_metrics(out: &mut Outcome) {
    let spans = out.tracer.spans();
    let steps = stats::sorted(&durations_ms(spans, "campaign.run_until"));
    let publish = stats::sorted(&durations_ms(spans, "tsdb.publish"));
    let tail = |v: &[f64]| stats::percentile(v, stats::tail_percentile(v.len()).unwrap_or(100.0));
    let metrics = [
        ("campaign.step_ms_p50", stats::percentile(&steps, 50.0)),
        ("campaign.step_ms_tail", tail(&steps)),
        ("tsdb.publish_calls", publish.len() as f64),
        ("tsdb.publish_ms_p50", stats::percentile(&publish, 50.0)),
        ("tsdb.publish_ms_tail", tail(&publish)),
        // A fold from +0.0: `sum` of nothing is -0.0.
        (
            "tsdb.publish_busy_s",
            publish.iter().fold(0.0, |a, x| a + x) / 1e3,
        ),
    ];
    for (name, value) in metrics {
        out.set(name, value);
    }
    let (from, to) = out.timed_ns;
    let spans = out.tracer.spans();
    let layers = trace::layer_self_s(spans, 0, from, to);
    let covered: f64 = layers.iter().map(|l| l.1).sum();
    let wall = (to - from) as f64 / 1e9;
    let in_timed = spans
        .iter()
        .filter(|s| s.start_ns >= from && s.end_ns <= to)
        .count();
    let cost = trace::span_cost_ns();
    out.set("trace.span_cost_ns", cost);
    out.set(
        "trace.overhead_pct",
        100.0 * in_timed as f64 * cost / 1e9 / wall.max(1e-9),
    );
    out.set("trace.coverage", covered / wall.max(1e-9));
    let shares: Vec<String> = layers
        .iter()
        .map(|(l, s)| format!("{l} {:.1}%", 100.0 * s / wall))
        .collect();
    println!(
        "  layer self time over the {wall:.2} s timed phase: {}",
        shares.join(", ")
    );
}

/// `campaign_paper`: the full facility over the paper's 14-month window,
/// through both operating-point changes, one simulated day per
/// `run_until`; then a read-back of the recorded telemetry.
fn campaign_paper(o: &Opts, out: &mut Outcome) {
    let sz = Size::of(o);
    let (start, end, changes) = if o.smoke {
        let change = SimTime::from_ymd(2022, 5, 1);
        let half = SimDuration::from_days(3);
        (
            change - half,
            change + half,
            vec![(change, OperatingPoint::AFTER_BIOS)],
        )
    } else {
        (
            SimTime::from_ymd(2021, 12, 1),
            SimTime::from_ymd(2023, 2, 1),
            vec![
                (SimTime::from_ymd(2022, 5, 1), OperatingPoint::AFTER_BIOS),
                (SimTime::from_ymd(2022, 12, 1), OperatingPoint::AFTER_FREQ),
            ],
        )
    };
    let cfg = config(o, &sz, false, None);
    let mut build = |_: &mut Outcome| {
        Campaign::new(
            facility(o, &sz),
            cfg.clone(),
            start,
            OperatingPoint::ORIGINAL,
        )
    };
    let (setup, mut c) = SetUp::first(out, &mut build);

    let t0 = out.tracer.now_ns();
    let steps = drive(&mut c, start, end, DAY, &changes, &mut out.tracer);
    let s = shape(&c, start, end);
    let pool = load::canonical_pool(&s);
    let mix = Mix::Readback(&s, &pool);
    let l = readback(&c, &s, &pool, o, &sz, &mut out.tracer);
    out.timed_ns = (t0, out.tracer.now_ns());
    let server = start_server(&c, &mut out.tracer);

    let sim_days = days_per_s(days(start, end), &steps);
    out.set("sim_days_per_s", sim_days);
    out.attempted += steps.len() as u64;
    println!(
        "  {} simulated days in {:.2} s ({sim_days:.1} days/s), {} events, {} jobs",
        steps.len(),
        steps.iter().sum::<f64>(),
        c.events_processed(),
        c.job_counts().0
    );
    query_metrics(out, std::slice::from_ref(&l));
    served_gates(out, &server, &l, o.seed, mix);
    if !o.smoke {
        // Settled means: each period after a 2-day transition (jobs started
        // before a change finish under the old settings).
        let settle = SimDuration::from_days(2);
        let periods = [
            (start, changes[0].0, 3_220.0),
            (changes[0].0 + settle, changes[1].0, 3_010.0),
            (changes[1].0 + settle, end, 2_530.0),
        ];
        for (from, to, paper_kw) in periods {
            let kw = c.power_series().window_mean(from, to);
            println!("  settled mean {kw:.0} kW (paper {paper_kw:.0} kW)");
            out.gate((kw / paper_kw - 1.0).abs() <= 0.05, || {
                format!("settled mean {kw:.0} kW is more than 5% from the paper's {paper_kw:.0} kW")
            });
        }
    }
    let violations = c.verify_invariants();
    out.gate(violations.is_empty(), || {
        format!("invariant violations: {violations:?}")
    });
    out.digest = replay::digest(c.telemetry_store(), i64::MAX);
    out.reply_digest = Some(l.reply_digest.0);
    out.set("campaign.events", c.events_processed() as f64);
    out.set("campaign.jobs_started", c.job_counts().0 as f64);
    if o.trace {
        let store = c.serve_store();
        let r = Replays {
            traces: vec![c.trace()],
            nodes: schedulable(&c, &cfg),
            store: Some(&store),
            queries: Some((&store, &l, mix)),
            seed: o.seed,
        };
        layer_replays(out, r);
    }
    drop((c, server));
    setup.repeat(&sz, out, &mut build);
}

/// `campaign_telemetry`: per-node telemetry with correlated faults,
/// checkpointed half way, dropped, resumed, and run to the end; then a
/// read-back of the resumed store.
fn campaign_telemetry(o: &Opts, out: &mut Outcome) {
    let sz = Size::of(o);
    let start = SimTime::from_ymd(2022, 6, 1);
    let half = start + SimDuration::from_days(sz.telemetry_days / 2);
    let end = start + SimDuration::from_days(sz.telemetry_days);
    let cfg = config(
        o,
        &sz,
        true,
        Some(SimDuration::from_days(sz.telemetry_days)),
    );
    let mut build = |_: &mut Outcome| {
        Campaign::new(
            facility(o, &sz),
            cfg.clone(),
            start,
            OperatingPoint::AFTER_BIOS,
        )
    };
    let (setup, mut c) = SetUp::first(out, &mut build);
    let dir = o.out.join(format!("checkpoint-{}", std::process::id()));

    let t0 = out.tracer.now_ns();
    let mut steps = drive(&mut c, start, half, STEP, &[], &mut out.tracer);
    let before = out.span("bench.digest", || {
        replay::digest(c.telemetry_store(), unix(half))
    });
    let t = Instant::now();
    let snap = out
        .span("persist.checkpoint", || c.checkpoint(&dir))
        .expect("checkpoint writes");
    out.set("persist.checkpoint_s", t.elapsed().as_secs_f64());
    let first = (
        c.verify_invariants(),
        o.trace.then(|| c.trace().clone()),
        c.events_processed(),
        c.job_counts().0,
    );
    drop(c);
    out.span("bench.release_memory", cpu::release_freed_memory);
    let fac = facility(o, &sz);
    let t = Instant::now();
    let resumed = out.span("persist.resume", || {
        Campaign::resume(fac, cfg.clone(), OperatingPoint::AFTER_BIOS, &dir)
    });
    out.set("persist.resume_s", t.elapsed().as_secs_f64());
    out.span("bench.cleanup", || std::fs::remove_dir_all(&dir))
        .expect("checkpoint directory removes");
    let mut c = resumed.expect("the checkpoint resumes");
    steps.extend(drive(&mut c, half, end, STEP, &[], &mut out.tracer));
    let s = shape(&c, start, end);
    let pool = load::canonical_pool(&s);
    let mix = Mix::Readback(&s, &pool);
    let l = readback(&c, &s, &pool, o, &sz, &mut out.tracer);
    out.timed_ns = (t0, out.tracer.now_ns());
    let server = start_server(&c, &mut out.tracer);

    // The steps only: checkpoint and resume are timed on their own.
    let sim_days = days_per_s(days(start, end), &steps);
    out.set("sim_days_per_s", sim_days);
    out.attempted += steps.len() as u64;
    out.set("persist.snapshot_bytes", snap.bytes as f64);
    out.set("persist.snapshot_samples", snap.samples as f64);
    out.set(
        "persist.bytes_per_sample",
        snap.bytes as f64 / snap.samples.max(1) as f64,
    );
    println!(
        "  {} simulated days in {:.2} s ({sim_days:.2} days/s); checkpoint of {} samples, {:.1} B/sample",
        sz.telemetry_days,
        steps.iter().sum::<f64>(),
        snap.samples,
        snap.bytes as f64 / snap.samples.max(1) as f64
    );
    query_metrics(out, std::slice::from_ref(&l));
    served_gates(out, &server, &l, o.seed, mix);
    let after = replay::digest(c.telemetry_store(), unix(half));
    out.gate(before == after, || {
        format!("pre-checkpoint telemetry digest {before:016x} became {after:016x} after resume")
    });
    out.gate(!dir.exists(), || {
        format!("checkpoint directory {} was left behind", dir.display())
    });
    let violations: Vec<String> = first.0.into_iter().chain(c.verify_invariants()).collect();
    out.gate(violations.is_empty(), || {
        format!("invariant violations: {violations:?}")
    });
    out.digest = replay::digest(c.telemetry_store(), i64::MAX);
    out.reply_digest = Some(l.reply_digest.0);
    out.set("campaign.events", (first.2 + c.events_processed()) as f64);
    out.set("campaign.jobs_started", (first.3 + c.job_counts().0) as f64);
    if o.trace {
        let store = c.serve_store();
        let r = Replays {
            traces: first.1.iter().chain([c.trace()]).collect(),
            nodes: schedulable(&c, &cfg),
            store: Some(&store),
            queries: Some((&store, &l, mix)),
            seed: o.seed,
        };
        layer_replays(out, r);
    }
    drop((c, server));
    setup.repeat(&sz, out, &mut build);
}

/// `serve_live`: the `campaign_telemetry` facility without faults, served
/// while it runs, in 6-hour `run_serve` steps, under an open loop. The
/// whole workload, set-up included, runs `serve_rounds` times, each from a
/// fresh build, and the metrics cover every round: over ten seeds,
/// `sim_days_per_s` of one round spread by 5–13 %, of three by 3–9 %.
fn serve_live(o: &Opts, out: &mut Outcome) {
    let sz = Size::of(o);
    let start = SimTime::from_ymd(2022, 6, 1);
    let warm = start + SimDuration::from_days(sz.serve_warm_days);
    let end = warm + SimDuration::from_days(sz.serve_days);
    let cfg = config(o, &sz, true, None);
    let (mut setups, mut loops, mut steps, mut digests) =
        (Vec::new(), Vec::new(), Vec::new(), HashSet::new());
    for _ in 0..sz.serve_rounds {
        cpu::release_freed_memory();
        let t = Instant::now();
        let (c, server) = serve_build(o, &sz, &cfg, start, warm, out);
        setups.push(t.elapsed().as_secs_f64());
        let (l, round_steps) = serve_round(o, &sz, &cfg, c, server, (start, warm, end), out);
        loops.push(l);
        steps.extend(round_steps);
        digests.insert(out.digest);
    }
    out.set("setup_s", stats::median(&setups));
    out.set("peak_rss_mb", crate::record::peak_rss_mb());
    out.gate(digests.len() == 1, || {
        format!(
            "the {} rounds stored {} different telemetry digests",
            sz.serve_rounds,
            digests.len()
        )
    });
    let served = sz.serve_rounds as f64 * days(warm, end);
    let sim_days = days_per_s(served, &steps);
    out.set("sim_days_per_s", sim_days);
    println!(
        "  {served} simulated days served in {:.2} s ({sim_days:.2} days/s)",
        steps.iter().sum::<f64>()
    );
    query_metrics(out, &loops);
}

/// `serve_live`'s set-up: two days of history first, so the first requests
/// have settled data, then a read view and the server.
fn serve_build(
    o: &Opts,
    sz: &Size,
    cfg: &CampaignConfig,
    start: SimTime,
    warm: SimTime,
    out: &mut Outcome,
) -> (Campaign, Server) {
    let mut c = Campaign::new(
        facility(o, sz),
        cfg.clone(),
        start,
        OperatingPoint::AFTER_BIOS,
    );
    drive(&mut c, start, warm, DAY, &[], &mut out.tracer);
    out.tracer
        .span("tsdb.publish", 0, |_| c.telemetry_store().publish_view());
    let server = start_server(&c, &mut out.tracer);
    (c, server)
}

/// One round of `serve_live`'s timed phase, from `warm` to `end`, and its
/// gates. Returns the open loop and the wall time of every step.
fn serve_round(
    o: &Opts,
    sz: &Size,
    cfg: &CampaignConfig,
    mut c: Campaign,
    server: Server,
    (start, warm, end): (SimTime, SimTime, SimTime),
    out: &mut Outcome,
) -> (Loop, Vec<f64>) {
    let s = shape(&c, start, end);
    let settled = AtomicI64::new(unix(warm - STEP));
    let done = AtomicBool::new(false);
    let addr = server.local_addr();
    let mut gen_tracer = out.tracer.fork(1);
    let t0 = out.tracer.now_ns();
    let (l, steps) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let generate = load::generator(o.seed, Mix::Live(&s));
            load::open_loop(
                addr,
                sz.rate,
                sz.open_min,
                generate,
                &settled,
                &done,
                &mut gen_tracer,
            )
        });
        // Each step's wall time: `run_until` plus the read-view publication.
        let mut steps = Vec::new();
        let mut now = warm;
        let mut last = Instant::now();
        let mut advance = |now: &mut SimTime| {
            *now = (*now + STEP).min(end);
            settled.store(unix(*now - STEP), Ordering::Release);
            steps.push(last.elapsed().as_secs_f64());
            last = Instant::now();
        };
        if out.tracer.on() {
            // The two public calls `run_serve` makes, each under its own span.
            while now < end {
                let next = (now + STEP).min(end);
                out.tracer
                    .span("campaign.run_until", 0, |_| c.run_until(next));
                out.tracer
                    .span("tsdb.publish", 0, |_| c.telemetry_store().publish_view());
                advance(&mut now);
            }
        } else {
            c.run_serve(end, STEP, |_| advance(&mut now));
        }
        done.store(true, Ordering::Release);
        (
            generator.join().expect("the open-loop generator finishes"),
            steps,
        )
    });
    out.timed_ns = (t0, out.tracer.now_ns());
    out.tracer.absorb(gen_tracer);

    out.attempted += steps.len() as u64;
    served_gates(out, &server, &l, o.seed, Mix::Live(&s));
    server_metrics(out, &server, "live");
    let violations = c.verify_invariants();
    out.gate(violations.is_empty(), || {
        format!("invariant violations: {violations:?}")
    });
    out.digest = replay::digest(c.telemetry_store(), i64::MAX);
    out.set("campaign.events", c.events_processed() as f64);
    out.set("campaign.jobs_started", c.job_counts().0 as f64);
    if o.trace {
        let store = c.serve_store();
        let r = Replays {
            traces: vec![c.trace()],
            nodes: schedulable(&c, cfg),
            store: Some(&store),
            queries: Some((&store, &l, Mix::Live(&s))),
            seed: o.seed,
        };
        layer_replays(out, r);
    }
    (l, steps)
}

/// `query_history`: build a per-node history, compact it, publish a read
/// view and serve it; then a closed loop of reads.
fn query_history(o: &Opts, out: &mut Outcome) {
    let sz = Size::of(o);
    let start = SimTime::from_ymd(2022, 6, 1);
    let end = start + SimDuration::from_days(sz.history_days);
    let cfg = config(o, &sz, true, None);
    // The history is built in set-up, so the steps of every build make
    // this workload's `sim_days_per_s`.
    let (mut steps, mut built_days) = (Vec::new(), 0.0);
    let mut build = |out: &mut Outcome| {
        let mut c = Campaign::new(
            facility(o, &sz),
            cfg.clone(),
            start,
            OperatingPoint::AFTER_BIOS,
        );
        steps.extend(drive(&mut c, start, end, STEP, &[], &mut out.tracer));
        built_days += days(start, end);
        if o.trace {
            // Before compaction and the read view, while the store is at
            // its smallest: the replay holds a second copy of it.
            let store = c.serve_store();
            let r = Replays {
                traces: vec![c.trace()],
                nodes: schedulable(&c, &cfg),
                store: Some(&store),
                queries: None,
                seed: o.seed,
            };
            layer_replays(out, r);
        }
        let t = Instant::now();
        let compaction = out
            .tracer
            .span("tsdb.compact", 0, |_| c.telemetry_store().compact());
        out.set("tsdb.compact_s", t.elapsed().as_secs_f64());
        out.tracer
            .span("tsdb.publish", 0, |_| c.telemetry_store().publish_view());
        let server = start_server(&c, &mut out.tracer);
        let s = shape(&c, start, end);
        let pool = load::canonical_pool(&s);
        let mut client =
            Client::connect(server.local_addr(), "bench").expect("history client connects");
        // Fill the result cache with the dashboard before timing: users
        // open the dashboard once and then keep it open.
        for q in &pool {
            client.request(q).expect("dashboard warm-up");
        }
        (c, server, client, s, pool, compaction)
    };
    let (setup, (c, server, mut client, s, pool, compaction)) = SetUp::first(out, &mut build);
    out.set("tsdb.chunks_compacted", compaction.chunks_compacted as f64);
    println!(
        "  history of {} days built; compaction rewrote {} chunks into {}",
        sz.history_days, compaction.chunks_compacted, compaction.chunks_after
    );

    let t0 = out.tracer.now_ns();
    let mix = Mix::History(&s, &pool);
    let l = closed(&mut client, o, &sz, mix, &mut out.tracer);
    out.timed_ns = (t0, out.tracer.now_ns());
    query_metrics(out, std::slice::from_ref(&l));
    served_gates(out, &server, &l, o.seed, mix);
    server_metrics(out, &server, "bench");
    let violations = c.verify_invariants();
    out.gate(violations.is_empty(), || {
        format!("invariant violations: {violations:?}")
    });
    out.digest = replay::digest(c.telemetry_store(), i64::MAX);
    out.reply_digest = Some(l.reply_digest.0);
    out.set("campaign.events", c.events_processed() as f64);
    out.set("campaign.jobs_started", c.job_counts().0 as f64);
    if o.trace {
        replay_queries(out, &c.serve_store(), &l, o.seed, mix);
    }
    drop((c, server, client));
    setup.repeat(&sz, out, &mut build);
    let sim_days = days_per_s(built_days, &steps);
    out.set("sim_days_per_s", sim_days);
    println!("  {built_days} days simulated over every build: {sim_days:.2} days/s");
}
