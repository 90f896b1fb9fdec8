//! `hpc-serve` under a fault storm: a campaign ingests telemetry while
//! resilient client sessions query it through a deterministic chaos proxy
//! injecting latency, stalls, partial frames and disconnects.
//!
//! Four claims, measured:
//!
//! 1. **No request hangs.** Every chaos-path request resolves — success
//!    or typed error — within its deadline (`hung_requests` must be 0).
//! 2. **The storm is survivable.** Under the default plan the retry layer
//!    absorbs every fault (`success_rate` must be exactly 1.0).
//! 3. **Chaos cannot corrupt.** After the campaign freezes, the same
//!    query mix is run clean and through a fresh storm; surviving replies
//!    must be byte-identical (`replies_bit_identical`).
//! 4. **Slow clients die, drains are graceful.** Deliberate slow-loris
//!    sessions are evicted (`evictions`), and the campaign-owned drain
//!    lets the idle tail leave with a typed frame (`drained_sessions`,
//!    `force_closed`).
//!
//! Fault schedules and retry jitter are seeded (`DetRng`); thread
//! scheduling still varies which connection draws which fault, so the
//! aggregate counters are reported, not asserted to exact values.
//!
//! Results land in `BENCH_serve_chaos.json`.
//!
//! ```text
//! cargo run --release --example serve_chaos [-- --smoke]
//! ```

use archer2_repro::core::campaign::{Campaign, CampaignConfig};
use archer2_repro::core::experiment;
use archer2_repro::prelude::*;
use archer2_repro::workload::OperatingPoint;
use archer2_repro::serve::{
    ChaosPlan, ChaosProxy, Client, ClientConfig, Request, ResilientClient, RetryPolicy,
    RetryStats, Server, ServerConfig, TimeoutConfig, WireOp, PROTOCOL_VERSION,
};
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

mod common;
use common::write_bench;

/// Client sessions hammering through the chaos proxy.
const CHAOS_SESSIONS: usize = 4;
/// Client sessions on the clean path (the latency control arm).
const CLEAN_SESSIONS: usize = 2;
/// Deliberate slow-loris sessions the server must evict.
const LORIS_SESSIONS: usize = 3;

/// Exact nearest-rank percentile over sorted microsecond latencies.
fn pct(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// The deterministic query mix: request `n` of a session, bounded to
/// `window`. Four data-query shapes, no introspection (its counters vary,
/// which would break the bit-identity comparison).
fn mix_request(n: usize, window: (i64, i64)) -> Request {
    let (lo, hi) = window;
    let from = lo + ((n as i64 * 37) % 96) * 900;
    let to = (from + 6 * 3_600).min(hi);
    match n % 4 {
        0 => Request::Aggregate { series: "facility".into(), from, to, op: WireOp::Mean },
        1 => Request::Windows { series: "facility".into(), from, to, step: 3_600, op: WireOp::Max },
        2 => Request::Group {
            series: vec!["cabinet.0".into(), "cabinet.1".into()],
            from,
            to,
        },
        _ => Request::Gap { series: "cabinet.1".into(), from, to },
    }
}

/// Socket deadlines for the chaos arm: patient enough to sit out any
/// injected stall, impatient enough that truncation silence fails fast.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(Duration::from_secs(1)),
        write_timeout: Some(Duration::from_secs(2)),
    }
}

fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        request_deadline: Duration::from_secs(20),
        seed,
    }
}

/// What one load session brings home.
struct SessionReport {
    latencies_us: Vec<f64>,
    stats: RetryStats,
    hung: u64,
    errors: u64,
}

/// One resilient session: `n_queries` of the mix, timing every call and
/// flagging any that outlived its deadline (plus scheduling slack) as a
/// hang — the thing this whole PR exists to make impossible.
fn run_session(
    addr: SocketAddr,
    tenant: &str,
    seed: u64,
    window: (i64, i64),
    n_queries: usize,
) -> SessionReport {
    let policy = retry_policy(seed);
    let hang_bar = policy.request_deadline + Duration::from_secs(2);
    let mut client = ResilientClient::with_policy(addr, tenant, chaos_client_config(), policy);
    let mut latencies_us = Vec::with_capacity(n_queries);
    let mut hung = 0u64;
    let mut errors = 0u64;
    for n in 0..n_queries {
        // Cycle the connection periodically: the chaos plan draws one
        // fault per connection, so a session that never reconnects would
        // sample the storm a handful of times instead of continuously.
        if n > 0 && n % 8 == 0 {
            client.disconnect();
        }
        let t = Instant::now();
        let result = client.request(&mix_request(n, window));
        let elapsed = t.elapsed();
        latencies_us.push(elapsed.as_secs_f64() * 1e6);
        if elapsed > hang_bar {
            hung += 1;
        }
        if let Err(e) = result {
            eprintln!("[{tenant}] request {n}: {e}");
            errors += 1;
        }
    }
    SessionReport { latencies_us, stats: client.stats(), hung, errors }
}

/// A slow-loris attacker: handshake, then dribble one byte of a valid
/// frame every 400 ms. The server's total-frame deadline must evict it.
fn slow_loris(addr: SocketAddr) {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).expect("loris connect");
    archer2_repro::serve::protocol::send_message(
        &mut stream,
        &Request::Hello { version: PROTOCOL_VERSION, tenant: "loris".into() },
    )
    .expect("loris handshake");
    let _ = archer2_repro::serve::protocol::read_frame(&mut stream).expect("loris ack");
    let payload = serde_json::to_string(&Request::Ping).unwrap().into_bytes();
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    for byte in frame {
        if stream.write_all(&[byte]).is_err() {
            return; // evicted and closed — mission accomplished
        }
        std::thread::sleep(Duration::from_millis(400));
    }
    // Frame completed without eviction: the idle deadline is misconfigured
    // for this bench; surface it loudly.
    panic!("slow-loris dribbler was never evicted");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let days = if smoke { 3 } else { 8 };
    let n_queries = if smoke { 25 } else { 100 };
    let start = SimTime::from_ymd(2022, 6, 1);
    let end = start + SimDuration::from_days(days);
    let step = SimDuration::from_hours(6);
    println!("=== serve-chaos: {days}-day campaign under a seeded fault storm ===");

    let cfg = CampaignConfig { per_cabinet_telemetry: true, ..CampaignConfig::default() };
    let mut serving = Campaign::new(
        experiment::scaled_facility(2022, 10),
        cfg,
        start,
        OperatingPoint::AFTER_BIOS,
    );
    let config = ServerConfig {
        timeouts: TimeoutConfig {
            handshake_deadline: Duration::from_millis(1_500),
            idle_deadline: Duration::from_millis(1_500),
            write_timeout: Duration::from_secs(2),
            poll_tick: Duration::from_millis(10),
            drain_deadline: Duration::from_secs(2),
        },
        ..ServerConfig::default()
    };
    let server = Server::start(serving.serve_store(), config).expect("bind server");
    let addr = server.local_addr();
    let proxy = ChaosProxy::start(addr, ChaosPlan::storm(0xA2C4_E057)).expect("bind proxy");
    let proxy_addr = proxy.local_addr();
    println!("server {addr}  ⇢ chaos proxy {proxy_addr}");

    // --- Phase 1: load through the storm while the campaign ingests ------
    let window = (start.as_unix() as i64, (start + SimDuration::from_days(1)).as_unix() as i64);
    let mut threads = Vec::new();
    for i in 0..CHAOS_SESSIONS {
        let tenant = if i % 2 == 0 { "ops" } else { "science" };
        threads.push((
            true,
            std::thread::spawn(move || {
                run_session(proxy_addr, tenant, 0xC4A05 ^ i as u64, window, n_queries)
            }),
        ));
    }
    for i in 0..CLEAN_SESSIONS {
        threads.push((
            false,
            std::thread::spawn(move || {
                run_session(addr, "control", 0xC1EA4 ^ i as u64, window, n_queries)
            }),
        ));
    }
    let lorises: Vec<_> =
        (0..LORIS_SESSIONS).map(|_| std::thread::spawn(move || slow_loris(addr))).collect();

    serving.run_serve(end, step, |_| {});
    let mut chaos_lat = Vec::new();
    let mut clean_lat = Vec::new();
    let mut stats = RetryStats::default();
    let mut hung = 0u64;
    let mut errors = 0u64;
    for (through_proxy, t) in threads {
        let report = t.join().expect("session thread");
        hung += report.hung;
        if through_proxy {
            chaos_lat.extend(report.latencies_us);
            errors += report.errors;
            let s = report.stats;
            stats.requests += s.requests;
            stats.succeeded += s.succeeded;
            stats.retries += s.retries;
            stats.reconnects += s.reconnects;
            stats.backoff_ms += s.backoff_ms;
            stats.honoured_retry_after += s.honoured_retry_after;
            stats.deadline_exceeded += s.deadline_exceeded;
            stats.exhausted += s.exhausted;
            stats.refused += s.refused;
        } else {
            clean_lat.extend(report.latencies_us);
            assert_eq!(report.errors, 0, "the clean control arm must never error");
        }
    }
    for l in lorises {
        l.join().expect("loris thread");
    }
    chaos_lat.sort_by(f64::total_cmp);
    clean_lat.sort_by(f64::total_cmp);
    let success_rate = stats.succeeded as f64 / stats.requests as f64;
    let fault_stats = proxy.stats();
    let evictions = server.introspect().sessions_evicted;
    println!(
        "chaos arm:                {} requests, success rate {:.4}, {} retries, {} reconnects",
        stats.requests, success_rate, stats.retries, stats.reconnects,
    );
    println!(
        "faults injected:          {} ({} delay / {} stall / {} truncate / {} disconnect)",
        fault_stats.faults_injected(),
        fault_stats.delayed,
        fault_stats.stalled,
        fault_stats.truncated,
        fault_stats.disconnected,
    );
    println!("slow-loris evictions:     {evictions}");
    assert!(evictions >= LORIS_SESSIONS as u64, "every dribbler must be evicted");
    assert_eq!(hung, 0, "no request may outlive its deadline");
    assert_eq!(errors, 0, "the default storm must be fully absorbed by retries");

    // --- Phase 2: bit-identity on the now-frozen store -------------------
    // The campaign is done, so the store is immutable: the same mix must
    // produce byte-identical replies clean and through a fresh storm.
    let id_window = (start.as_unix() as i64, (start + SimDuration::from_days(2)).as_unix() as i64);
    let id_queries = if smoke { 16 } else { 48 };
    let mut clean_client = Client::connect(addr, "identity").expect("clean connect");
    let clean_replies: Vec<String> = (0..id_queries)
        .map(|n| {
            let reply = clean_client.request(&mix_request(n, id_window)).expect("clean reply");
            serde_json::to_string(&reply).expect("reply serialises")
        })
        .collect();
    let id_proxy = ChaosProxy::start(addr, ChaosPlan::storm(0xB17_1D37)).expect("bind proxy");
    let mut id_client = ResilientClient::with_policy(
        id_proxy.local_addr(),
        "identity",
        chaos_client_config(),
        retry_policy(0xB17_5EED),
    );
    let mut replies_bit_identical = true;
    for (n, want) in clean_replies.iter().enumerate() {
        let reply = id_client
            .request(&mix_request(n, id_window))
            .expect("identity request must survive the storm");
        let got = serde_json::to_string(&reply).expect("reply serialises");
        if &got != want {
            eprintln!("reply {n} diverged under chaos:\n  clean: {want}\n  chaos: {got}");
            replies_bit_identical = false;
        }
    }
    println!(
        "bit-identity:             {id_queries} replies via storm, identical: {replies_bit_identical} \
         ({} retries)",
        id_client.stats().retries,
    );
    assert!(replies_bit_identical, "chaos must never corrupt a reply");
    drop(id_proxy);
    drop(proxy);

    // --- Phase 3: campaign-owned graceful drain --------------------------
    // One idle session sits between frames; the campaign runs one more
    // step and then winds the serving tier down. The idle session must be
    // told with a typed Draining frame, not force-closed.
    let mut idler = std::net::TcpStream::connect(addr).expect("idler connect");
    archer2_repro::serve::protocol::send_message(
        &mut idler,
        &Request::Hello { version: PROTOCOL_VERSION, tenant: "idler".into() },
    )
    .expect("idler handshake");
    let _ = archer2_repro::serve::protocol::read_frame(&mut idler).expect("idler ack");
    let drain = serving.run_serve_drained(
        end + step,
        step,
        server,
        Duration::from_secs(2),
        |_| {},
    );
    idler.set_read_timeout(Some(Duration::from_secs(2))).expect("idler timeout");
    let notice = archer2_repro::serve::protocol::read_frame(&mut idler).expect("drain notice");
    let notice = String::from_utf8(notice).expect("drain notice utf8");
    assert!(notice.contains("Draining"), "idle session must get a typed Draining frame");
    println!(
        "drain:                    {} sessions at drain, {} drained, {} force-closed",
        drain.sessions_at_drain, drain.drained, drain.force_closed,
    );
    assert!(drain.sessions_at_drain >= 1, "the idler must be counted at drain");
    assert_eq!(drain.force_closed, 0, "nothing should need force-closing");

    write_bench(
        "BENCH_serve_chaos.json",
        Value::Map(vec![
            ("bench".into(), "serve_chaos".to_string().to_value()),
            ("smoke".into(), smoke.to_value()),
            ("days".into(), (days as u64).to_value()),
            ("chaos_sessions".into(), (CHAOS_SESSIONS as u64).to_value()),
            ("clean_sessions".into(), (CLEAN_SESSIONS as u64).to_value()),
            ("requests".into(), stats.requests.to_value()),
            ("success_rate".into(), success_rate.to_value()),
            ("retries".into(), stats.retries.to_value()),
            ("reconnects".into(), stats.reconnects.to_value()),
            ("backoff_ms".into(), stats.backoff_ms.to_value()),
            ("honoured_retry_after".into(), stats.honoured_retry_after.to_value()),
            ("faults_injected".into(), fault_stats.faults_injected().to_value()),
            ("faults_delayed".into(), fault_stats.delayed.to_value()),
            ("faults_stalled".into(), fault_stats.stalled.to_value()),
            ("faults_truncated".into(), fault_stats.truncated.to_value()),
            ("faults_disconnected".into(), fault_stats.disconnected.to_value()),
            ("evictions".into(), evictions.to_value()),
            ("hung_requests".into(), hung.to_value()),
            ("p50_us_clean".into(), pct(&clean_lat, 50.0).to_value()),
            ("p99_us_clean".into(), pct(&clean_lat, 99.0).to_value()),
            ("p50_us_chaos".into(), pct(&chaos_lat, 50.0).to_value()),
            ("p99_us_chaos".into(), pct(&chaos_lat, 99.0).to_value()),
            ("replies_bit_identical".into(), replies_bit_identical.to_value()),
            ("drained_sessions".into(), drain.drained.to_value()),
            ("force_closed".into(), drain.force_closed.to_value()),
        ]),
        &[
            "success_rate",
            "retries",
            "evictions",
            "hung_requests",
            "p99_us_clean",
            "p99_us_chaos",
            "replies_bit_identical",
            "drained_sessions",
            "force_closed",
        ],
    );
    println!(
        "latency:                  clean p50 {:.0} µs p99 {:.0} µs   chaos p50 {:.0} µs p99 {:.0} µs",
        pct(&clean_lat, 50.0),
        pct(&clean_lat, 99.0),
        pct(&chaos_lat, 50.0),
        pct(&chaos_lat, 99.0),
    );
}
