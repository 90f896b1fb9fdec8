//! Protocol fault injection: hostile and broken clients must get typed
//! error frames or a clean close — never a panic, never a wedged server.
//!
//! Each scenario drives raw bytes at a live server, then proves the
//! server survived by opening a *fresh, well-behaved* session and
//! round-tripping a `Ping`. The random-bytes fuzz reuses the
//! deterministic generator from `hpc_tsdb::faults`, so a failing seed
//! reproduces exactly.

use hpc_serve::{
    Client, ErrorKind, Request, Response, Server, ServerConfig, TimeoutConfig, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use hpc_tsdb::faults::DetRng;
use hpc_tsdb::{SeriesMeta, TsdbStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn server() -> (Server, SocketAddr) {
    let store = TsdbStore::default();
    let id = store.register(SeriesMeta {
        name: "facility".into(),
        unit: "kW".into(),
        interval_hint: 60,
    });
    for i in 0..300i64 {
        store.append(id, i * 60, 1500.0 + (i % 7) as f64);
    }
    let server = Server::start(store, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    (server, addr)
}

/// The liveness probe every scenario ends with: a fresh session must
/// handshake and ping normally.
fn assert_alive(addr: SocketAddr) {
    let mut client = Client::connect(addr, "probe").expect("server must accept new sessions");
    match client.request(&Request::Ping).expect("ping after fault") {
        Response::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }
}

/// Read one reply frame by hand and decode it as a `Response`.
fn read_response(stream: &mut TcpStream) -> Response {
    let payload = hpc_serve::protocol::read_frame(stream).expect("response frame");
    serde_json::from_str(std::str::from_utf8(&payload).unwrap()).expect("response JSON")
}

fn handshake_raw(addr: SocketAddr, tenant: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    hpc_serve::protocol::send_message(
        &mut stream,
        &Request::Hello { version: PROTOCOL_VERSION, tenant: tenant.into() },
    )
    .unwrap();
    match read_response(&mut stream) {
        Response::HelloAck { .. } => stream,
        other => panic!("handshake failed: {other:?}"),
    }
}

#[test]
fn truncated_frame_gets_typed_error_then_close() {
    let (server, addr) = server();
    let mut stream = handshake_raw(addr, "fuzz");
    // Declare 100 payload bytes, send 3, then disconnect the write half.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"abc").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind: ErrorKind::Protocol, .. } => {}
        other => panic!("expected Protocol error, got {other:?}"),
    }
    assert_alive(addr);
    drop(server);
}

#[test]
fn oversized_length_prefix_is_refused_without_allocation() {
    let (server, addr) = server();
    let mut stream = handshake_raw(addr, "fuzz");
    // A hostile length prefix (4 GiB-ish). The server must refuse from the
    // prefix alone — it never has the bytes to read anyway.
    stream.write_all(&(MAX_FRAME_LEN + 1).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    match read_response(&mut stream) {
        Response::Error { kind: ErrorKind::Protocol, message, .. } => {
            assert!(message.contains("exceeds"), "unexpected message: {message}");
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }
    assert_alive(addr);
    drop(server);
}

#[test]
fn garbage_json_and_wrong_shapes_get_typed_errors() {
    let (server, addr) = server();
    for payload in [
        b"}{ not json".as_slice(),
        b"\xff\xfe\x00invalid utf8".as_slice(),
        b"{\"NoSuchRequest\":{}}".as_slice(),
        b"[1,2,3]".as_slice(),
        b"42".as_slice(),
    ] {
        let mut stream = handshake_raw(addr, "fuzz");
        hpc_serve::protocol::write_frame(&mut stream, payload).unwrap();
        match read_response(&mut stream) {
            Response::Error { kind: ErrorKind::Protocol, .. } => {}
            other => panic!("payload {payload:?}: expected Protocol error, got {other:?}"),
        }
        assert_alive(addr);
    }
    drop(server);
}

#[test]
fn mid_request_disconnect_leaves_server_serving() {
    let (server, addr) = server();
    for _ in 0..8 {
        let mut stream = handshake_raw(addr, "fuzz");
        // Half a length prefix, then vanish.
        stream.write_all(&[0u8, 0]).unwrap();
        drop(stream);
    }
    // Sessions that disconnect before even the handshake.
    for _ in 0..8 {
        let stream = TcpStream::connect(addr).unwrap();
        drop(stream);
    }
    assert_alive(addr);
    drop(server);
}

#[test]
fn wrong_version_and_missing_handshake_are_typed() {
    let (server, addr) = server();

    let mut stream = TcpStream::connect(addr).unwrap();
    hpc_serve::protocol::send_message(
        &mut stream,
        &Request::Hello { version: PROTOCOL_VERSION + 1, tenant: "fuzz".into() },
    )
    .unwrap();
    match read_response(&mut stream) {
        Response::Error { kind: ErrorKind::UnsupportedVersion, .. } => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    let mut stream = TcpStream::connect(addr).unwrap();
    hpc_serve::protocol::send_message(&mut stream, &Request::Ping).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind: ErrorKind::BadRequest, .. } => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }

    assert_alive(addr);
    drop(server);
}

#[test]
fn bad_query_shapes_are_rejected_and_session_survives() {
    let (server, addr) = server();
    let mut client = Client::connect(addr, "fuzz").unwrap();
    // Reversed range.
    match client
        .request(&Request::Aggregate {
            series: "facility".into(),
            from: 600,
            to: 0,
            op: hpc_serve::WireOp::Mean,
        })
        .unwrap()
    {
        Response::Error { kind: ErrorKind::BadRequest, .. } => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // Non-positive step (would panic `store_windows` if it got through).
    match client
        .request(&Request::Windows {
            series: "facility".into(),
            from: 0,
            to: 600,
            step: 0,
            op: hpc_serve::WireOp::Mean,
        })
        .unwrap()
    {
        Response::Error { kind: ErrorKind::BadRequest, .. } => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // Unknown series.
    match client
        .request(&Request::Gap { series: "nope".into(), from: 0, to: 600 })
        .unwrap()
    {
        Response::Error { kind: ErrorKind::UnknownSeries, .. } => {}
        other => panic!("expected UnknownSeries, got {other:?}"),
    }
    // The session survived all three rejections.
    match client.request(&Request::Ping).unwrap() {
        Response::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }
    drop(server);
}

#[test]
fn windows_and_gaps_at_the_ends_of_the_i64_range_answer_on_one_session() {
    // Regression: the server admits these requests, and a window end or a
    // range width computed from them overflowed. The panic ended the
    // session thread, so the tenant's slots were never returned.
    let (server, addr) = server();
    let mut client = Client::connect(addr, "edges").unwrap();
    let windows = |from, to, step| Request::Windows {
        series: "facility".into(),
        from,
        to,
        step,
        op: hpc_serve::WireOp::Count,
    };
    let counts = |reply| match reply {
        Response::Windows { windows } => windows.iter().map(|w| (w.start, w.count)).collect(),
        other => panic!("expected Windows, got {other:?}"),
    };
    let near_max: Vec<(i64, u64)> =
        counts(client.request(&windows(i64::MAX - 10, i64::MAX, 100)).unwrap());
    assert_eq!(near_max, [(i64::MAX - 10, 0)]);
    let full: Vec<(i64, u64)> =
        counts(client.request(&windows(i64::MIN, i64::MAX, i64::MAX)).unwrap());
    assert_eq!(full, [(i64::MIN, 0), (-1, 300), (i64::MAX - 1, 0)]);
    let gap = Request::Gap { series: "facility".into(), from: i64::MIN, to: i64::MAX };
    match client.request(&gap) {
        Ok(Response::Gap(g)) => assert_eq!((g.count, g.expected), (300, u64::MAX.div_ceil(60))),
        other => panic!("expected Gap, got {other:?}"),
    }
    match client.request(&Request::Ping).unwrap() {
        Response::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }
    drop(server);
}

#[test]
fn served_gap_shows_its_store_work_in_introspect() {
    // Regression: Gap queries bypassed the counted store read path, so
    // Introspect attributed zero store work to every served Gap.
    let (server, addr) = server();
    let mut client = Client::connect(addr, "gaps").unwrap();
    match client.request(&Request::Gap { series: "facility".into(), from: 0, to: 600 * 60 }) {
        Ok(Response::Gap(g)) => assert_eq!((g.count, g.expected), (300, 600)),
        other => panic!("expected Gap, got {other:?}"),
    }
    match client.request(&Request::Introspect).unwrap() {
        Response::Stats(intro) => {
            let t = intro.tenants.iter().find(|t| t.tenant == "gaps").expect("tenant");
            assert_eq!(t.query.queries, 1, "{:?}", t.query);
            assert!(t.query.samples_scanned > 0, "{:?}", t.query);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(server);
}

/// A server whose deadlines are short enough to test eviction quickly.
fn impatient_server() -> (Server, SocketAddr) {
    let store = TsdbStore::default();
    let id = store.register(SeriesMeta {
        name: "facility".into(),
        unit: "kW".into(),
        interval_hint: 60,
    });
    for i in 0..300i64 {
        store.append(id, i * 60, 1500.0 + (i % 7) as f64);
    }
    let config = ServerConfig {
        timeouts: TimeoutConfig {
            handshake_deadline: Duration::from_millis(400),
            idle_deadline: Duration::from_millis(400),
            write_timeout: Duration::from_secs(2),
            poll_tick: Duration::from_millis(10),
            drain_deadline: Duration::from_secs(1),
        },
        ..ServerConfig::default()
    };
    let server = Server::start(store, config).unwrap();
    let addr = server.local_addr();
    (server, addr)
}

/// Evictions counted by the server, read over the wire.
fn evicted(addr: SocketAddr) -> u64 {
    let mut client = Client::connect(addr, "probe").unwrap();
    match client.request(&Request::Introspect).unwrap() {
        Response::Stats(intro) => intro.sessions_evicted,
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn half_open_silent_clients_are_evicted_within_the_idle_deadline() {
    let (server, addr) = impatient_server();

    // Handshake, then go completely silent: the classic half-open session.
    let mut stream = handshake_raw(addr, "silent");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind: ErrorKind::Timeout, message, .. } => {
            assert!(message.contains("evicted"), "unexpected message: {message}");
        }
        other => panic!("expected Timeout eviction, got {other:?}"),
    }

    // Connect and never even say Hello: the handshake deadline case.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind: ErrorKind::Timeout, .. } => {}
        other => panic!("expected handshake Timeout eviction, got {other:?}"),
    }

    assert_eq!(evicted(addr), 2, "both half-open sessions must be counted");
    assert_alive(addr);
    drop(server);
}

#[test]
fn one_byte_dribbler_cannot_hold_a_session_open() {
    let (server, addr) = impatient_server();
    let mut stream = handshake_raw(addr, "dribble");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // A valid Ping frame fed one byte per 100 ms: partial progress must
    // not reset the total-frame deadline (the slow-loris defence), so the
    // server evicts long before the frame completes.
    let payload = serde_json::to_string(&Request::Ping).unwrap().into_bytes();
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    let mut evicted_frame = None;
    for byte in frame {
        if stream.write_all(&[byte]).is_err() {
            break; // already evicted and closed
        }
        std::thread::sleep(Duration::from_millis(100));
        // Peek for the eviction frame without blocking the dribble.
        stream.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
        let mut prefix = [0u8; 1];
        match stream.peek(&mut prefix) {
            Ok(0) => break,
            Ok(_) => {
                stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                evicted_frame = Some(read_response(&mut stream));
                break;
            }
            Err(_) => {}
        }
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    }
    match evicted_frame {
        Some(Response::Error { kind: ErrorKind::Timeout, .. }) => {}
        // A closed socket (write error / EOF before the frame arrived) is
        // also a valid eviction outcome — the frame is best-effort.
        None => {}
        Some(other) => panic!("expected Timeout eviction, got {other:?}"),
    }

    assert_eq!(evicted(addr), 1, "the dribbler must be counted as evicted");
    assert_alive(addr);
    drop(server);
}

#[test]
fn random_byte_fuzz_never_wedges_the_server() {
    let (server, addr) = server();
    let mut rng = DetRng::new(0xF022_5EED);
    for round in 0..64 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Random length (sometimes valid, sometimes hostile) and random
        // payload bytes, straight onto the socket.
        let len = rng.below(1 << 12) as usize;
        let declared = if rng.below(4) == 0 {
            rng.next_u64() as u32 // usually hostile
        } else {
            len as u32
        };
        let mut payload = vec![0u8; len];
        for b in payload.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        let _ = stream.write_all(&declared.to_be_bytes());
        let _ = stream.write_all(&payload);
        if rng.below(2) == 0 {
            let _ = stream.shutdown(std::net::Shutdown::Write);
            // The server must answer (typed error) or close cleanly; it
            // must never leave this read hanging past the timeout.
            let mut sink = Vec::new();
            let _ = stream.read_to_end(&mut sink);
        }
        drop(stream);
        if round % 16 == 15 {
            assert_alive(addr);
        }
    }
    assert_alive(addr);
    drop(server);
}
