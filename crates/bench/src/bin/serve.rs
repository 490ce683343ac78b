//! The jinn-serve CLI: run the daemon, stream traces to it, query it,
//! smoke-test it, and benchmark a fleet of short-lived clients.
//!
//! ```text
//! serve daemon [--listen ADDR] [--workers N]      run until stdin closes
//! serve ingest ADDR [--tenant T] [--config C] FILE...
//!                                                 stream traces, print acks
//! serve query ADDR JSON...                        one request line each
//! serve smoke [--listen ADDR]                     3-trace socket round trip,
//!                                                 verdicts vs local replay
//! serve bench                                     BENCH_serve.json on stdout
//! serve bench-streaming                           BENCH_serve_streaming.json
//! ```
//!
//! `bench` knobs (environment): `JINN_SERVE_SESSIONS` (default 1000),
//! `JINN_SERVE_CLIENTS` (default 8), `JINN_SERVE_WORKERS` (default 4),
//! `JINN_SERVE_MIN_SESSIONS_PER_SEC` (throughput gate, release only,
//! default 25).
//!
//! `bench-streaming` knobs: `JINN_SERVE_STREAM_SESSIONS` (default 64),
//! `JINN_SERVE_STREAM_CHUNK` (append chunk bytes, default 2048),
//! `JINN_SERVE_STREAM_GAP_MICROS` (pacing gap between appends, default
//! 200), `JINN_SERVE_STREAM_CALLS` / `JINN_SERVE_STREAM_STRINGS`
//! (recorded drip-workload size: native calls × string round-trips per
//! call, defaults 8 × 200), `JINN_SERVE_STREAMING_MIN_SPEEDUP`
//! (seal-to-verdict p50 ratio floor, release only, default 5).
//!
//! Exit status: 0 clean, 1 on mismatch or gate failure, 2 on usage.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jinn_bench::env_u64;
use jinn_replay::{
    case_studies, encode_ingest, microbench_programs, replay_trace, ReplayConfig, Trace,
};
use jinn_serve::{Daemon, ServeConfig, SocketServer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("daemon") => cmd_daemon(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("smoke") => cmd_smoke(),
        Some("bench") => cmd_bench(),
        Some("bench-streaming") => cmd_bench_streaming(),
        _ => {
            eprintln!("usage: serve <daemon|ingest|query|smoke|bench|bench-streaming> [args...]");
            2
        }
    };
    std::process::exit(code);
}

// ---- shared client plumbing --------------------------------------------

/// Streams one trace as one session over a fresh connection; returns the
/// seal-ack JSON line (the daemon answers once the session is terminal).
fn ingest_session(
    addr: &str,
    session: u64,
    tenant: &str,
    config: &str,
    bytes: &[u8],
) -> std::io::Result<String> {
    let stream_bytes = encode_ingest(session, tenant, config, bytes, 64 * 1024);
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(&stream_bytes)?;
    conn.flush()?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(line.trim().to_string())
}

/// One query round trip on a fresh connection.
fn query_line(addr: &str, request: &str) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(request.as_bytes())?;
    conn.write_all(b"\n")?;
    conn.flush()?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(line.trim().to_string())
}

/// Scans a JSON line for `"key": <integer>` without a full parser — the
/// smoke/bench client only needs scalar counters out of known-shape
/// responses.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_true(line: &str, key: &str) -> bool {
    let needle = format!("\"{key}\":");
    line.find(&needle)
        .map(|at| line[at + needle.len()..].trim_start().starts_with("true"))
        .unwrap_or(false)
}

// ---- daemon ------------------------------------------------------------

fn cmd_daemon(args: &[String]) -> i32 {
    let mut listen = "127.0.0.1:7077".to_string();
    let mut workers = 4usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => match it.next() {
                Some(v) => listen = v.clone(),
                None => {
                    eprintln!("--listen needs an address");
                    return 2;
                }
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => workers = v,
                None => {
                    eprintln!("--workers needs a number");
                    return 2;
                }
            },
            other => {
                eprintln!("serve daemon: unknown argument `{other}`");
                return 2;
            }
        }
    }
    let daemon = Daemon::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    });
    let server = match SocketServer::bind(daemon.handle(), &listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve daemon: bind {listen}: {e}");
            return 1;
        }
    };
    println!("jinn-serve listening on {}", server.addr());
    println!("(close stdin to stop)");
    // Park until stdin closes — the natural lifetime for a foreground
    // daemon under a test harness or a shell.
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).is_ok_and(|n| n > 0) {
        sink.clear();
    }
    server.shutdown();
    daemon.shutdown();
    0
}

// ---- ingest ------------------------------------------------------------

fn cmd_ingest(args: &[String]) -> i32 {
    let mut tenant = "cli".to_string();
    let mut config = String::new();
    let mut addr = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tenant" => match it.next() {
                Some(v) => tenant = v.clone(),
                None => {
                    eprintln!("--tenant needs a value");
                    return 2;
                }
            },
            "--config" => match it.next() {
                Some(v) => config = v.clone(),
                None => {
                    eprintln!("--config needs a value");
                    return 2;
                }
            },
            other if addr.is_none() => addr = Some(other.to_string()),
            other => files.push(other.to_string()),
        }
    }
    let (Some(addr), false) = (addr, files.is_empty()) else {
        eprintln!("usage: serve ingest ADDR [--tenant T] [--config C] FILE...");
        return 2;
    };
    // Each invocation claims its own id range: repeated `serve ingest`
    // runs against one daemon must not collide on session ids.
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
        ^ u64::from(std::process::id());
    let base = jinn_serve::AUTO_SESSION_BASE + (nonce % (1 << 47));
    let mut failures = 0;
    for (i, file) in files.iter().enumerate() {
        let session = base + i as u64;
        let ack = std::fs::read(file)
            .and_then(|bytes| ingest_session(&addr, session, &tenant, &config, &bytes));
        match ack {
            Ok(line) => {
                println!("{file} -> session {session}: {line}");
                if !field_true(&line, "ok") || line.contains("\"state\":\"quarantined\"") {
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("FAIL {file}: {e}");
                failures += 1;
            }
        }
    }
    i32::from(failures > 0)
}

// ---- query -------------------------------------------------------------

fn cmd_query(args: &[String]) -> i32 {
    let Some((addr, requests)) = args.split_first() else {
        eprintln!("usage: serve query ADDR JSON...");
        return 2;
    };
    if requests.is_empty() {
        eprintln!("usage: serve query ADDR JSON...");
        return 2;
    }
    for request in requests {
        match query_line(addr, request) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("FAIL: {e}");
                return 1;
            }
        }
    }
    0
}

// ---- smoke -------------------------------------------------------------

const SMOKE_TRACES: &[&str] = &["LocalRefDangling", "GlobalLeak", "ExceptionState"];

fn corpus_bytes(name: &str) -> Vec<u8> {
    let path = format!("tests/corpus/{name}.jtrace");
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e} (run from the repo root)"))
}

/// The verdict multiset of a local replay under `jinn`:
/// (machine, function) → count.
fn local_verdicts(bytes: &[u8]) -> BTreeMap<(String, String), u64> {
    let trace = Trace::parse(bytes).expect("corpus trace parses");
    let outcome =
        replay_trace(&trace, &ReplayConfig::parse("jinn").expect("jinn config")).expect("replays");
    let mut set = BTreeMap::new();
    for v in &outcome.violations {
        *set.entry((v.machine.to_string(), v.function.clone()))
            .or_insert(0) += 1;
    }
    set
}

fn cmd_smoke() -> i32 {
    let daemon = Daemon::start(ServeConfig::default());
    let server = match SocketServer::bind(daemon.handle(), "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve smoke: bind: {e}");
            return 1;
        }
    };
    let addr = server.addr().to_string();
    let mut failures = 0;

    for (i, name) in SMOKE_TRACES.iter().enumerate() {
        let session = 1000 + i as u64;
        let bytes = corpus_bytes(name);
        let ack = match ingest_session(&addr, session, "smoke", "jinn", &bytes) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("FAIL {name}: ingest: {e}");
                failures += 1;
                continue;
            }
        };
        if !field_true(&ack, "ok") {
            eprintln!("FAIL {name}: seal ack: {ack}");
            failures += 1;
            continue;
        }

        // Compare the daemon's verdicts to a single-process replay:
        // total count, then one filtered count per (machine, function).
        let local = local_verdicts(&bytes);
        let total: u64 = local.values().sum();
        let line = match query_line(
            &addr,
            &format!("{{\"op\": \"query\", \"kind\": \"verdicts\", \"session\": {session}}}"),
        ) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("FAIL {name}: query: {e}");
                failures += 1;
                continue;
            }
        };
        let served_total = field_u64(&line, "count").unwrap_or(u64::MAX);
        if served_total != total {
            eprintln!("FAIL {name}: daemon has {served_total} verdicts, replay check has {total}");
            failures += 1;
            continue;
        }
        let mut ok = true;
        for ((machine, function), count) in &local {
            let request = format!(
                "{{\"op\": \"query\", \"kind\": \"verdicts\", \"session\": {session}, \
                 \"machine\": \"{machine}\", \"function\": \"{function}\"}}"
            );
            let line = query_line(&addr, &request).unwrap_or_default();
            let served = field_u64(&line, "count").unwrap_or(u64::MAX);
            if served != *count {
                eprintln!(
                    "FAIL {name}: {machine}/{function}: daemon {served}, replay check {count}"
                );
                ok = false;
            }
        }
        if ok {
            println!("ok {name}: session {session}, {total} verdicts match replay check");
        } else {
            failures += 1;
        }
    }

    // Fleet sanity over the socket.
    match query_line(&addr, "{\"op\": \"fleet\"}") {
        Ok(line) => {
            let judged = field_u64(&line, "judged").unwrap_or(0);
            let quarantined = field_u64(&line, "quarantined").unwrap_or(99);
            if judged == SMOKE_TRACES.len() as u64 && quarantined == 0 {
                println!("ok fleet: {line}");
            } else {
                eprintln!("FAIL fleet: {line}");
                failures += 1;
            }
        }
        Err(e) => {
            eprintln!("FAIL fleet: {e}");
            failures += 1;
        }
    }

    server.shutdown();
    daemon.shutdown();
    i32::from(failures > 0)
}

// ---- bench -------------------------------------------------------------

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[allow(clippy::too_many_lines)]
fn cmd_bench() -> i32 {
    let sessions = env_u64("JINN_SERVE_SESSIONS", 1000).max(1);
    let clients = env_u64("JINN_SERVE_CLIENTS", 8).max(1) as usize;
    let workers = env_u64("JINN_SERVE_WORKERS", 4).max(1) as usize;
    let min_sessions_per_sec = env_u64("JINN_SERVE_MIN_SESSIONS_PER_SEC", 25);

    // The whole golden corpus, round-robin across the fleet.
    let traces: Arc<Vec<Vec<u8>>> = Arc::new(
        microbench_programs()
            .iter()
            .chain(case_studies().iter())
            .map(|p| corpus_bytes(&p.name))
            .collect(),
    );

    let daemon = Daemon::start(ServeConfig {
        workers,
        retention_bytes: 8 * 1024 * 1024,
        max_events_per_session: 64,
        ..ServeConfig::default()
    });
    let server = match SocketServer::bind(daemon.handle(), "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve bench: bind: {e}");
            return 1;
        }
    };
    let addr = server.addr().to_string();

    // Warm-up: one session end to end (synthesis cache).
    let _ = ingest_session(&addr, 1, "warmup", "jinn", &traces[0]);

    let next = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for client in 0..clients {
        let addr = addr.clone();
        let traces = Arc::clone(&traces);
        let next = Arc::clone(&next);
        handles.push(std::thread::spawn(move || {
            // Each loop iteration is one short-lived client: fresh
            // connection, one session, one ack read, disconnect.
            let mut seal_micros = Vec::new();
            let mut first_micros = Vec::new();
            let mut events = 0u64;
            let mut errors = 0u64;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= sessions {
                    break;
                }
                let session = 1_000_000 + i;
                let tenant = format!("tenant-{client}");
                let bytes = &traces[i as usize % traces.len()];
                match ingest_session(&addr, session, &tenant, "jinn", bytes) {
                    Ok(ack) if field_true(&ack, "ok") => {
                        if let Some(us) = field_u64(&ack, "seal_to_verdict_micros") {
                            seal_micros.push(us);
                        }
                        if let Some(us) = field_u64(&ack, "first_frame_micros") {
                            first_micros.push(us);
                        }
                        events += field_u64(&ack, "events_replayed").unwrap_or(0);
                    }
                    _ => errors += 1,
                }
            }
            (seal_micros, first_micros, events, errors)
        }));
    }

    let mut seal_micros = Vec::new();
    let mut first_micros = Vec::new();
    let mut events = 0u64;
    let mut errors = 0u64;
    for h in handles {
        let (s, f, e, x) = h.join().expect("client thread");
        seal_micros.extend(s);
        first_micros.extend(f);
        events += e;
        errors += x;
    }
    let wall = start.elapsed();

    let fleet = daemon.handle().fleet();
    server.shutdown();
    daemon.shutdown();

    seal_micros.sort_unstable();
    first_micros.sort_unstable();
    let sessions_per_sec = sessions as f64 / wall.as_secs_f64().max(1e-9);
    let events_per_sec = events as f64 / wall.as_secs_f64().max(1e-9);
    let p50 = percentile(&seal_micros, 0.50);
    let p99 = percentile(&seal_micros, 0.99);
    let first_p50 = percentile(&first_micros, 0.50);
    let first_p99 = percentile(&first_micros, 0.99);
    let gate_on = cfg!(not(debug_assertions));
    let pass = errors == 0 && (!gate_on || sessions_per_sec >= min_sessions_per_sec as f64);

    println!("{{");
    println!("  \"benchmark\": \"jinn-serve fleet ingest (golden corpus round-robin)\",");
    println!("  \"sessions\": {sessions},");
    println!("  \"clients\": {clients},");
    println!("  \"workers\": {workers},");
    println!("  \"wall_secs\": {:.3},", wall.as_secs_f64());
    println!("  \"sessions_per_sec\": {sessions_per_sec:.1},");
    println!("  \"events_rejudged\": {events},");
    println!("  \"events_rejudged_per_sec\": {events_per_sec:.0},");
    println!("  \"seal_to_verdict_p50_micros\": {p50},");
    println!("  \"seal_to_verdict_p99_micros\": {p99},");
    println!("  \"first_frame_to_verdict_p50_micros\": {first_p50},");
    println!("  \"first_frame_to_verdict_p99_micros\": {first_p99},");
    println!("  \"ingest_errors\": {errors},");
    println!("  \"fleet_judged\": {},", fleet.judged);
    println!("  \"fleet_quarantined\": {},", fleet.quarantined);
    println!("  \"fleet_purged_sessions\": {},", fleet.purged_sessions);
    println!("  \"history_bytes\": {},", fleet.history_bytes);
    println!("  \"min_sessions_per_sec\": {min_sessions_per_sec},");
    println!("  \"gate_enforced\": {gate_on},");
    println!("  \"pass\": {pass},");
    println!(
        "  \"note\": \"each session is a short-lived TCP client streaming one corpus trace \
         through the frame envelope; seal-to-verdict is measured inside the daemon from Seal \
         acceptance to verdict publication, first-frame-to-verdict from the first Append\""
    );
    println!("}}");
    i32::from(!pass)
}

// ---- bench-streaming ---------------------------------------------------

/// Per-mode outcome of the live-vs-retained comparison.
struct StreamModeOut {
    seal_micros: Vec<u64>,
    first_micros: Vec<u64>,
    peak_buffered: u64,
    streamed: u64,
    errors: u64,
    wall_secs: f64,
    multisets: Vec<BTreeMap<(String, String, String), u64>>,
}

/// Drains one session's verdict multiset through the query API.
fn query_multiset(
    handle: &jinn_serve::DaemonHandle,
    session: u64,
) -> BTreeMap<(String, String, String), u64> {
    use jinn_serve::{Query, QueryItem, QueryKind};
    let mut set = BTreeMap::new();
    let mut cursor = None;
    loop {
        let page = handle.query(&Query {
            kind: QueryKind::Verdicts,
            session: Some(session),
            cursor,
            limit: 500,
            ..Query::default()
        });
        for item in &page.items {
            if let QueryItem::Verdict(v) = item {
                *set.entry((v.machine.clone(), v.error_state.clone(), v.function.clone()))
                    .or_insert(0u64) += 1;
            }
        }
        match page.next_cursor {
            Some(c) => cursor = Some(c),
            None => return set,
        }
    }
}

/// Records the drip-feed workload: a bug-free churn program (the
/// observability benches' JNI workload, sized by two knobs) whose trace
/// is large enough that O(trace) judging cost is visible. Each native
/// call performs `strings` string round-trips (allocate, measure,
/// delete) across the JNI seam, so the trace grows linearly in
/// `calls × strings` while staying a faithful recorded program — the
/// daemon replays it through the full checker stack like any corpus
/// trace.
fn stream_churn_trace(calls: u32, strings: u32) -> Vec<u8> {
    use std::rc::Rc;

    use jinn_microbench::Setup;
    use minijni::typed;
    use minijvm::JValue;

    let program = jinn_replay::Program {
        name: "StreamChurn".into(),
        pitfall: None,
        // Metadata only: the workload is bug-free by construction, so
        // these name the machine its events exercise, not a seeded bug.
        machine: "local-reference",
        error_state: "Ok",
        leaks: false,
        gc_period: Some(64),
        build: Box::new(move |vm| {
            let (_c, entry) = vm.define_native_class(
                "bench/StreamChurn",
                "churn",
                "()I",
                true,
                Rc::new(move |env, _| {
                    let mut survived = 0;
                    for i in 0..strings {
                        let s = typed::new_string_utf(env, &format!("churn-{i}"))?;
                        let len = typed::get_string_utf_length(env, s)?;
                        if len > 0 {
                            survived += 1;
                        }
                        typed::delete_local_ref(env, s)?;
                    }
                    Ok(JValue::Int(survived))
                }),
            );
            Setup {
                entries: vec![entry; calls as usize],
                first_args: Vec::new(),
            }
        }),
    };
    jinn_replay::record_program(&program)
}

/// Benchmarks the streaming-incremental-judging tentpole in two phases
/// per mode. Phase one (timed): identical paced ingest of the recorded
/// churn workload — chunked appends with a client-side gap, as a live
/// recorder would produce — against a streaming daemon, which replays
/// every session live, and a retaining one (`streaming_sessions = 0`),
/// which retains every session until `Seal`. The streaming daemon
/// decodes and replays each chunk as it
/// arrives, so at `Seal` the verdict is one rollup away — seal-to-verdict
/// collapses from O(trace) to O(1) — and the undecoded tail is all it
/// ever holds resident. Phase two (unpaced): the whole golden corpus
/// through the same daemon, pinning live-vs-retained
/// verdict-multiset equality in the same run that claims the speedup.
fn cmd_bench_streaming() -> i32 {
    use jinn_replay::{decode_stream, Frame};

    let sessions = env_u64("JINN_SERVE_STREAM_SESSIONS", 64).max(1);
    let chunk = env_u64("JINN_SERVE_STREAM_CHUNK", 2048).max(1) as usize;
    let gap_micros = env_u64("JINN_SERVE_STREAM_GAP_MICROS", 200);
    let calls = env_u64("JINN_SERVE_STREAM_CALLS", 8).max(1) as u32;
    let strings = env_u64("JINN_SERVE_STREAM_STRINGS", 200).max(1) as u32;
    let min_speedup = env_u64("JINN_SERVE_STREAMING_MIN_SPEEDUP", 5);

    let churn = stream_churn_trace(calls, strings);
    let traces: Vec<Vec<u8>> = microbench_programs()
        .iter()
        .chain(case_studies().iter())
        .map(|p| corpus_bytes(&p.name))
        .collect();

    let run_mode = |streaming: bool| -> StreamModeOut {
        let daemon = Daemon::start(ServeConfig {
            workers: 4,
            streaming_sessions: if streaming { 4096 } else { 0 },
            ..ServeConfig::default()
        });
        let handle = daemon.handle();
        // Warm-up outside the measurement: synthesis cache.
        for frame in decode_stream(&encode_ingest(1, "warmup", "jinn", &churn, chunk)).unwrap() {
            let _ = handle.apply_frame(&frame);
        }
        let _ = handle.wait_session(1);

        let mut out = StreamModeOut {
            seal_micros: Vec::new(),
            first_micros: Vec::new(),
            peak_buffered: 0,
            streamed: 0,
            errors: 0,
            wall_secs: 0.0,
            multisets: Vec::new(),
        };
        let start = Instant::now();
        for i in 0..sessions {
            let id = 1000 + i;
            let frames = decode_stream(&encode_ingest(id, "bench", "jinn", &churn, chunk))
                .expect("self-encoded stream decodes");
            for frame in &frames {
                if handle.apply_frame(frame).is_err() {
                    out.errors += 1;
                    break;
                }
                // Pace the appends as a live recorder would: the gap is
                // the window the streaming daemon overlaps with checking.
                if gap_micros > 0 && matches!(frame, Frame::Append { .. }) {
                    std::thread::sleep(std::time::Duration::from_micros(gap_micros));
                }
            }
            match handle.wait_session(id) {
                Some(s) if s.state.to_string() == "judged" => {
                    out.seal_micros.extend(s.seal_to_verdict_micros);
                    out.first_micros.extend(s.first_frame_micros);
                    out.streamed += u64::from(s.streamed);
                    out.multisets.push(query_multiset(&handle, id));
                }
                _ => out.errors += 1,
            }
        }
        out.wall_secs = start.elapsed().as_secs_f64();
        // Equality sweep: every corpus trace through the same daemon,
        // unpaced — the multisets must match the other mode's exactly.
        for (j, bytes) in traces.iter().enumerate() {
            let id = 500_000 + j as u64;
            let frames = decode_stream(&encode_ingest(id, "bench", "jinn", bytes, chunk))
                .expect("self-encoded stream decodes");
            for frame in &frames {
                if handle.apply_frame(frame).is_err() {
                    out.errors += 1;
                    break;
                }
            }
            match handle.wait_session(id) {
                Some(s) if s.state.to_string() == "judged" => {
                    out.multisets.push(query_multiset(&handle, id));
                }
                _ => out.errors += 1,
            }
        }
        out.peak_buffered = handle.fleet().buffered_bytes_high_water;
        daemon.shutdown();
        out.seal_micros.sort_unstable();
        out.first_micros.sort_unstable();
        out
    };

    let retained = run_mode(false);
    let streamed = run_mode(true);

    let verdicts_match = retained.multisets == streamed.multisets;
    let s_p50 = percentile(&streamed.seal_micros, 0.50);
    let s_p99 = percentile(&streamed.seal_micros, 0.99);
    let r_p50 = percentile(&retained.seal_micros, 0.50);
    let r_p99 = percentile(&retained.seal_micros, 0.99);
    let speedup = r_p50 as f64 / (s_p50 as f64).max(1e-9);
    let peak_reduction = retained.peak_buffered as f64 / (streamed.peak_buffered as f64).max(1.0);
    let gate_on = cfg!(not(debug_assertions));
    let pass = retained.errors == 0
        && streamed.errors == 0
        && verdicts_match
        && streamed.streamed == sessions
        && retained.streamed == 0
        && (!gate_on || speedup >= min_speedup as f64);

    println!("{{");
    println!(
        "  \"benchmark\": \"jinn-serve streaming vs retained seal-to-verdict (paced churn \
         ingest + corpus equality sweep)\","
    );
    println!("  \"sessions_per_mode\": {sessions},");
    println!("  \"chunk_bytes\": {chunk},");
    println!("  \"append_gap_micros\": {gap_micros},");
    println!("  \"workload_native_calls\": {calls},");
    println!("  \"workload_strings_per_call\": {strings},");
    println!("  \"workload_trace_bytes\": {},", churn.len());
    println!("  \"streaming_seal_to_verdict_p50_micros\": {s_p50},");
    println!("  \"streaming_seal_to_verdict_p99_micros\": {s_p99},");
    println!("  \"retained_seal_to_verdict_p50_micros\": {r_p50},");
    println!("  \"retained_seal_to_verdict_p99_micros\": {r_p99},");
    println!("  \"seal_to_verdict_p50_speedup\": {speedup:.2},");
    println!(
        "  \"streaming_first_frame_to_verdict_p50_micros\": {},",
        percentile(&streamed.first_micros, 0.50)
    );
    println!(
        "  \"retained_first_frame_to_verdict_p50_micros\": {},",
        percentile(&retained.first_micros, 0.50)
    );
    println!(
        "  \"streaming_peak_buffered_bytes\": {},",
        streamed.peak_buffered
    );
    println!(
        "  \"retained_peak_buffered_bytes\": {},",
        retained.peak_buffered
    );
    println!("  \"peak_buffered_reduction\": {peak_reduction:.1},");
    println!(
        "  \"streaming_sessions_per_sec\": {:.1},",
        sessions as f64 / streamed.wall_secs.max(1e-9)
    );
    println!(
        "  \"retained_sessions_per_sec\": {:.1},",
        sessions as f64 / retained.wall_secs.max(1e-9)
    );
    println!("  \"streamed_sessions\": {},", streamed.streamed);
    println!("  \"verdicts_match\": {verdicts_match},");
    println!("  \"errors\": {},", retained.errors + streamed.errors);
    println!("  \"min_seal_to_verdict_speedup\": {min_speedup},");
    println!("  \"gate_enforced\": {gate_on},");
    println!("  \"pass\": {pass},");
    println!(
        "  \"note\": \"identical paced frame sequences of a recorded bug-free churn workload \
         against a streaming daemon and a retaining one, then the whole golden corpus through \
         both for verdict-multiset equality; seal-to-verdict is the window the client blocks \
         on after Seal, peak buffered bytes is the fleet-wide high-water of resident \
         undecoded input\""
    );
    println!("}}");
    i32::from(!pass)
}
