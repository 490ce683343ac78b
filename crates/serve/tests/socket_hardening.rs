//! Socket-boundary hardening: duplicate-open ownership containment,
//! query filter validation, the request-line length cap, and the
//! manifest-frame surface (acks, oversized declarations, unknown
//! function names).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use jinn_replay::format::fnv1a;
use jinn_replay::{
    encode_frame, program_by_name, record_program, stream_preamble, Frame, Trace,
    MAX_MANIFEST_FUNCTIONS,
};
use jinn_serve::{Daemon, ServeConfig, ServeError, SessionState, SocketServer};

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
/// a manifest-covered session's seal ack carries `specialized`.
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

    // A covered session for the tenant is judged on the specialized
    // pool — visible in the seal ack's stats.
    c.write_all(&encode_frame(&Frame::Open {
        session: 3,
        tenant: "acme".to_string(),
        config: "jinn".to_string(),
    }))
    .expect("open");
    c.write_all(&encode_frame(&Frame::Append {
        session: 3,
        chunk: bytes.clone(),
    }))
    .expect("append");
    c.write_all(&encode_frame(&Frame::Seal {
        session: 3,
        total_len: bytes.len() as u64,
        checksum: fnv1a(&bytes),
    }))
    .expect("seal");
    c.flush().expect("flush");
    let sealed = read_line(&mut reader);
    assert!(sealed.contains("\"state\":\"judged\""), "{sealed}");
    assert!(sealed.contains("\"specialized\":true"), "{sealed}");
    assert!(sealed.contains("\"discharge_fallback\":false"), "{sealed}");

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
