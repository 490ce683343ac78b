//! Socket-boundary hardening: duplicate-open ownership containment,
//! query filter validation, the request-line length cap, the
//! manifest-frame surface (acks, oversized declarations, unknown
//! function names), sessions left open by a vanished client, the
//! round trip of a fresh connection, and prompt shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use jinn_replay::format::fnv1a;
use jinn_replay::{
    encode_frame, program_by_name, record_program, stream_preamble, Frame, Trace,
    MAX_MANIFEST_FUNCTIONS,
};
use jinn_serve::{
    Daemon, DaemonHandle, ServeConfig, ServeError, SessionState, SessionStats, SocketServer,
};

fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    line
}

/// A duplicate `Open` on one connection must not hand that connection
/// ownership of a session opened elsewhere: when the duplicate's stream
/// later corrupts, the original session stays healthy.
#[test]
fn duplicate_open_does_not_transfer_session_ownership() {
    let daemon = Daemon::start(ServeConfig::default());
    let server = SocketServer::bind(daemon.handle(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let handle = daemon.handle();
    let bytes = record_program(&program_by_name("LocalRefDangling").expect("corpus program"));

    // Connection A opens session 1 and streams its trace, unsealed.
    let mut a = TcpStream::connect(addr).expect("connect A");
    a.write_all(&stream_preamble()).expect("preamble");
    a.write_all(&encode_frame(&Frame::Open {
        session: 1,
        tenant: "owner".to_string(),
        config: "jinn".to_string(),
    }))
    .expect("open");
    a.write_all(&encode_frame(&Frame::Append {
        session: 1,
        chunk: bytes.clone(),
    }))
    .expect("append");
    a.flush().expect("flush A");

    // The two connections are served on separate threads, so B connects
    // only once A's `Open` was admitted: otherwise B's could win the race
    // and the test would pin nothing.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle
        .session_stats(1)
        .is_none_or(|stats| stats.tenant != "owner")
    {
        assert!(Instant::now() < deadline, "A's Open was never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Connection B claims the same id (rejected) and then corrupts.
    let mut b = TcpStream::connect(addr).expect("connect B");
    b.write_all(&stream_preamble()).expect("preamble");
    b.write_all(&encode_frame(&Frame::Open {
        session: 1,
        tenant: "thief".to_string(),
        config: "jinn".to_string(),
    }))
    .expect("duplicate open");
    b.write_all(&[0xFF; 16]).expect("garbage");
    b.flush().expect("flush B");
    let mut b_reader = BufReader::new(b.try_clone().expect("clone B"));
    let dup = read_line(&mut b_reader);
    assert!(dup.contains("already open"), "duplicate rejected: {dup}");
    let corrupt = read_line(&mut b_reader);
    assert!(
        corrupt.contains("corrupt frame stream"),
        "stream poisoned: {corrupt}"
    );

    // B's corruption quarantined nothing of A's.
    let stats = handle.session_stats(1).expect("session 1");
    assert_eq!(
        stats.state,
        SessionState::Open,
        "connection B must not poison connection A's session: {:?}",
        stats.reason
    );

    // A finishes normally.
    a.write_all(&encode_frame(&Frame::Seal {
        session: 1,
        total_len: bytes.len() as u64,
        checksum: fnv1a(&bytes),
    }))
    .expect("seal");
    a.flush().expect("flush seal");
    let mut a_reader = BufReader::new(a.try_clone().expect("clone A"));
    let ack = read_line(&mut a_reader);
    assert!(ack.contains("judged"), "healthy session judged: {ack}");

    server.shutdown();
    daemon.shutdown();
}

#[test]
fn query_thread_filter_rejects_out_of_range_values() {
    let daemon = Daemon::start(ServeConfig::default());
    let server = SocketServer::bind(daemon.handle(), "127.0.0.1:0").expect("bind");
    let mut c = TcpStream::connect(server.addr()).expect("connect");
    // 65537 would alias thread 1 under a silent `as u16` truncation.
    c.write_all(b"{\"op\": \"query\", \"kind\": \"events\", \"thread\": 65537}\n")
        .expect("write");
    c.flush().expect("flush");
    let mut reader = BufReader::new(c);
    let line = read_line(&mut reader);
    assert!(
        line.contains("out of range"),
        "oversized thread filter rejected: {line}"
    );
    server.shutdown();
    daemon.shutdown();
}

/// The full manifest round trip over one ingest connection: a
/// declaration with a misspelled function is acked (not failed) with
/// the unknown name surfaced, a re-declaration reports `replaced`, and
/// a session inside the manifest is judged unflagged while one outside
/// it is flagged `outside_manifest`.
#[test]
fn manifest_frames_ack_with_discharge_summaries() {
    let daemon = Daemon::start(ServeConfig::default());
    let server = SocketServer::bind(daemon.handle(), "127.0.0.1:0").expect("bind");
    let bytes = record_program(&program_by_name("LocalRefDangling").expect("corpus program"));
    let called: Vec<String> = Trace::parse(&bytes)
        .expect("parse trace")
        .called_functions()
        .into_iter()
        .collect();

    let mut c = TcpStream::connect(server.addr()).expect("connect");
    c.write_all(&stream_preamble()).expect("preamble");
    let mut with_typo = called.clone();
    with_typo.push("NotARealJniFn".to_string());
    c.write_all(&encode_frame(&Frame::Manifest {
        tenant: "acme".to_string(),
        functions: with_typo,
    }))
    .expect("manifest");
    c.flush().expect("flush");
    let mut reader = BufReader::new(c.try_clone().expect("clone"));
    let ack = read_line(&mut reader);
    assert!(ack.contains("\"ok\":true"), "declaration acked: {ack}");
    assert!(
        ack.contains("\"unknown_functions\":[\"NotARealJniFn\"]"),
        "misspelled name surfaced, not fatal: {ack}"
    );
    assert!(
        ack.contains("\"replaced\":false"),
        "first declaration: {ack}"
    );

    // Re-declaring (now without the typo) replaces, on the same stream.
    c.write_all(&encode_frame(&Frame::Manifest {
        tenant: "acme".to_string(),
        functions: called,
    }))
    .expect("re-declare");
    c.flush().expect("flush");
    let ack2 = read_line(&mut reader);
    assert!(
        ack2.contains("\"replaced\":true"),
        "replacement flagged: {ack2}"
    );
    assert!(ack2.contains("\"unknown_functions\":[]"), "{ack2}");

    // A session inside the declared manifest is judged unflagged; once
    // the manifest is narrowed below the trace's call sites, the same
    // trace is judged again and flagged — visible in the seal acks.
    let mut seal_session = |session: u64| {
        for frame in [
            Frame::Open {
                session,
                tenant: "acme".to_string(),
                config: "jinn".to_string(),
            },
            Frame::Append {
                session,
                chunk: bytes.clone(),
            },
            Frame::Seal {
                session,
                total_len: bytes.len() as u64,
                checksum: fnv1a(&bytes),
            },
        ] {
            c.write_all(&encode_frame(&frame)).expect("frame");
        }
        c.flush().expect("flush");
        read_line(&mut reader)
    };
    let sealed = seal_session(3);
    assert!(sealed.contains("\"state\":\"judged\""), "{sealed}");
    assert!(sealed.contains("\"outside_manifest\":false"), "{sealed}");

    let narrowed = daemon
        .handle()
        .declare_manifest("acme", &["GetVersion".to_string()])
        .expect("narrow manifest");
    assert!(narrowed.replaced);
    let flagged = seal_session(4);
    assert!(flagged.contains("\"state\":\"judged\""), "{flagged}");
    assert!(flagged.contains("\"outside_manifest\":true"), "{flagged}");

    server.shutdown();
    daemon.shutdown();
}

/// A forged manifest declaring more functions than the wire cap is
/// stream-level corruption: the connection gets one error line and its
/// open sessions are quarantined — but only its own.
#[test]
fn oversized_manifest_poisons_only_its_connection() {
    let daemon = Daemon::start(ServeConfig::default());
    let server = SocketServer::bind(daemon.handle(), "127.0.0.1:0").expect("bind");
    let handle = daemon.handle();

    // The in-process API rejects it with the typed error first.
    let huge: Vec<String> = (0..=MAX_MANIFEST_FUNCTIONS)
        .map(|i| format!("Fn{i}"))
        .collect();
    assert_eq!(
        handle.declare_manifest("big", &huge).unwrap_err(),
        ServeError::ManifestTooLarge {
            count: MAX_MANIFEST_FUNCTIONS + 1,
            cap: MAX_MANIFEST_FUNCTIONS,
        }
    );

    // On the wire, the decoder refuses the frame outright.
    let mut c = TcpStream::connect(server.addr()).expect("connect");
    c.write_all(&stream_preamble()).expect("preamble");
    c.write_all(&encode_frame(&Frame::Open {
        session: 11,
        tenant: "big".to_string(),
        config: "jinn".to_string(),
    }))
    .expect("open");
    c.write_all(&encode_frame(&Frame::Manifest {
        tenant: "big".to_string(),
        functions: huge,
    }))
    .expect("oversized manifest");
    c.flush().expect("flush");
    let mut reader = BufReader::new(c.try_clone().expect("clone"));
    let line = read_line(&mut reader);
    assert!(
        line.contains("corrupt frame stream") && line.contains("exceeds cap"),
        "oversized manifest rejected at the decoder: {line}"
    );
    let stats = handle.session_stats(11).expect("session 11");
    assert_eq!(stats.state, SessionState::Quarantined);

    server.shutdown();
    daemon.shutdown();
}

#[test]
fn query_request_line_length_is_capped() {
    let daemon = Daemon::start(ServeConfig::default());
    let server = SocketServer::bind(daemon.handle(), "127.0.0.1:0").expect("bind");
    let mut c = TcpStream::connect(server.addr()).expect("connect");
    // Just over the 1 MiB cap, never a newline: the server must answer
    // an error instead of buffering forever.
    let junk = vec![b'x'; 1024 * 1024 + 2];
    c.write_all(&junk).expect("write junk");
    c.flush().expect("flush");
    let mut reader = BufReader::new(c);
    let line = read_line(&mut reader);
    assert!(
        line.contains("request line too long"),
        "endless line rejected: {line}"
    );
    server.shutdown();
    daemon.shutdown();
}

/// Opens `session` over a fresh connection, appends half of `bytes`,
/// hangs up, and waits for the daemon to abort the session.
fn vanish(
    server: &SocketServer,
    handle: &DaemonHandle,
    session: u64,
    config: &str,
    bytes: &[u8],
) -> SessionStats {
    let mut gone = TcpStream::connect(server.addr()).expect("connect");
    gone.write_all(&stream_preamble()).expect("preamble");
    gone.write_all(&encode_frame(&Frame::Open {
        session,
        tenant: "gone".to_string(),
        config: config.to_string(),
    }))
    .expect("open");
    gone.write_all(&encode_frame(&Frame::Append {
        session,
        chunk: bytes[..bytes.len() / 2].to_vec(),
    }))
    .expect("append");
    gone.flush().expect("flush");
    drop(gone);

    // `wait_session` would block forever on a leaked session: poll.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let state = handle.session_stats(session).map(|s| s.state);
        if state == Some(SessionState::Aborted) && handle.fleet().live == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "vanished client's session {session} leaked: {state:?}, live {}",
            handle.fleet().live
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = handle.session_stats(session).expect("session");
    assert_eq!(
        stats.reason.as_deref(),
        Some("client disconnected before seal")
    );
    stats
}

/// A client that vanishes before sealing must not leak its session: the
/// daemon aborts it, which frees its `live` slot, its buffered bytes and
/// (for a live session) its streaming slot, so the next single-config
/// session streams again.
#[test]
fn vanished_client_aborts_its_open_session() {
    let bytes = record_program(&program_by_name("LocalRefDangling").expect("corpus program"));
    let daemon = Daemon::start(ServeConfig {
        streaming_sessions: 1,
        // Room for one whole trace and a little more: bytes a vanished
        // session leaked would backpressure the sessions below.
        max_total_buffered_bytes: bytes.len() as u64 * 5 / 4,
        ..ServeConfig::default()
    });
    let server = SocketServer::bind(daemon.handle(), "127.0.0.1:0").expect("bind");
    let handle = daemon.handle();

    // A retained (two-config) session holding half its trace, then a
    // live one holding the one streaming slot.
    let retained = vanish(&server, &handle, 20, "jinn,xcheck", &bytes);
    assert!(!retained.streamed, "a two-config session is retained");
    let live = vanish(&server, &handle, 21, "jinn", &bytes);
    assert!(live.streamed, "the session held the one streaming slot");

    // The streaming slot and the buffered bytes came back: the next
    // sessions stream again. (`streamed_sessions` counts judged
    // sessions, so the aborted one is not in it.)
    let mut c = TcpStream::connect(server.addr()).expect("connect");
    c.write_all(&stream_preamble()).expect("preamble");
    let mut reader = BufReader::new(c.try_clone().expect("clone"));
    for session in [22, 23] {
        for frame in [
            Frame::Open {
                session,
                tenant: "next".to_string(),
                config: "jinn".to_string(),
            },
            Frame::Append {
                session,
                chunk: bytes.clone(),
            },
            Frame::Seal {
                session,
                total_len: bytes.len() as u64,
                checksum: fnv1a(&bytes),
            },
        ] {
            c.write_all(&encode_frame(&frame)).expect("frame");
        }
        c.flush().expect("flush");
        let ack = read_line(&mut reader);
        assert!(ack.contains("\"state\":\"judged\""), "{ack}");
        assert!(ack.contains("\"streamed\":true"), "{ack}");
    }
    assert_eq!(handle.fleet().streamed_sessions, 2);

    server.shutdown();
    daemon.shutdown();
}

/// One `ping` on a fresh connection; returns the reply line.
fn ping(server: &SocketServer) -> String {
    let mut c = TcpStream::connect(server.addr()).expect("connect");
    c.write_all(b"{\"op\": \"ping\"}\n").expect("write ping");
    c.flush().expect("flush");
    read_line(&mut BufReader::new(c))
}

/// A fresh connection is served as soon as it connects: the accept
/// thread blocks in `accept` rather than polling, so a round trip costs
/// no poll interval.
#[test]
fn fresh_connection_pings_are_answered_promptly() {
    let daemon = Daemon::start(ServeConfig::default());
    let server = SocketServer::bind(daemon.handle(), "127.0.0.1:0").expect("bind");
    assert!(ping(&server).contains("pong"), "warm-up ping answered");
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|_| {
            let start = Instant::now();
            let reply = ping(&server);
            assert!(reply.contains("pong"), "ping answered: {reply}");
            start.elapsed()
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median fresh-connection round trip {median:?} is not under 2 ms"
    );
    server.shutdown();
    daemon.shutdown();
}

/// Shutdown wakes the blocked accept thread and joins it within a
/// second, for a loopback bind and for an unspecified one (whose
/// wake-up goes through loopback). Shutdown runs on a helper thread so
/// a hang fails the test instead of wedging it. Once shutdown returns,
/// the listener is closed.
#[test]
fn idle_shutdown_returns_promptly() {
    let daemon = Daemon::start(ServeConfig::default());
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = SocketServer::bind(daemon.handle(), bind).expect("bind");
        let port = server.addr().port();
        let (done, returned) = mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        returned
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("shutdown of a server bound to {bind} took over 1 s"));
        assert!(
            TcpStream::connect(("127.0.0.1", port)).is_err(),
            "the listener bound to {bind} still accepts after shutdown"
        );
    }
    daemon.shutdown();
}
