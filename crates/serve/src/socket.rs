//! The TCP front end: binary frame streams in, line-delimited JSON out.
//!
//! A connection picks its protocol with its first byte:
//!
//! * `J` (the first byte of the `JFRM` stream preamble) — **ingest
//!   mode**. The connection carries a frame stream; every `Seal` is
//!   answered with one JSON line once the session reaches a terminal
//!   state (judged or quarantined), so the client's read is its
//!   end-to-end ingest barrier. A frame-stream error (bad checksum,
//!   oversized length, truncation) answers one JSON error line,
//!   quarantines every still-open session this connection opened, and
//!   closes — the poison stays on this connection's sessions, never the
//!   fleet.
//! * anything else — **query mode**. Each line is one JSON request
//!   (`op`: `query`, `stats`, `rollups`, `fleet`, `wait`, `ping`),
//!   answered with one JSON line. Request lines are capped at
//!   `MAX_QUERY_LINE` bytes — past it the connection gets one error
//!   line and closes, mirroring the ingest side's frame-size cap.
//!
//! One accept thread blocks in `accept` and hands each connection to a
//! thread of its own, so a client is served the moment it connects.
//! Shutdown sets a stop flag and then connects once to the server's own
//! address to wake the blocked `accept`; the loop checks the flag after
//! every accept and closes whatever it accepted after the flag was set
//! unserved. An accept error (descriptors exhausted, an aborted
//! handshake) never ends the loop: it backs off for
//! `ACCEPT_ERROR_BACKOFF` and accepts again, so a listener that is still
//! bound is still served.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jinn_replay::{Frame, FrameDecoder};

use crate::daemon::DaemonHandle;
use crate::json::{self, JsonObj, JsonVal};
use crate::store::{Query, QueryKind};

/// How long the accept loop waits after an accept error before it
/// accepts again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// How long shutdown's wake-up connection may take before shutdown gives
/// up on joining the accept thread.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// A listening socket server bound to a [`DaemonHandle`].
pub struct SocketServer {
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl SocketServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept thread, which blocks in `accept` until a client connects
    /// or [`SocketServer::shutdown`] wakes it.
    ///
    /// # Errors
    ///
    /// Any bind error.
    pub fn bind(handle: DaemonHandle, addr: &str) -> std::io::Result<SocketServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("jinn-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &handle, &accept_stop))
            .expect("spawn accept loop");
        Ok(SocketServer {
            addr,
            accept_thread: Some(accept_thread),
            stop,
        })
    }

    /// The bound address (for clients when port 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections. In-flight connections finish on
    /// their own threads.
    ///
    /// Sets the stop flag, then wakes the blocked accept thread with one
    /// connection to the bound address (an unspecified bind address,
    /// `0.0.0.0` or `::`, is reached through the loopback address of its
    /// family) and joins it, which closes the listener. If that
    /// connection cannot be made, shutdown returns without the join; the
    /// accept thread then exits at its next accept.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            // Held open until the join, so the accept thread sees a
            // live connection rather than one already torn down.
            if let Ok(_wake) =
                TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_CONNECT_TIMEOUT)
            {
                let _ = t.join();
            }
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// The address shutdown's wake-up connection dials: the bound address,
/// with an unspecified IP replaced by the loopback address of its family.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn accept_loop(listener: &TcpListener, handle: &DaemonHandle, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            // The wake-up connection, or a client that raced it: closed
            // unserved.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let handle = handle.clone();
                let _ = std::thread::Builder::new()
                    .name("jinn-serve-conn".to_string())
                    .spawn(move || {
                        let _ = serve_connection(stream, &handle);
                    });
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

fn error_line(msg: &str) -> String {
    let mut line = JsonObj::new().bool("ok", false).str("error", msg).build();
    line.push('\n');
    line
}

fn serve_connection(stream: TcpStream, handle: &DaemonHandle) -> std::io::Result<()> {
    let mut first = [0u8; 1];
    // Block until the client commits to a protocol.
    let n = stream.peek(&mut first)?;
    if n == 0 {
        return Ok(());
    }
    if first[0] == b'J' {
        serve_ingest(stream, handle)
    } else {
        serve_queries(stream, handle)
    }
}

/// Serves one ingest connection. When it ends on EOF or a read or write
/// error, the sessions it opened and never sealed are aborted, so a
/// vanished client keeps no `live` slot, streaming slot or executor
/// thread. (A corrupt frame stream quarantines them instead.)
fn serve_ingest(stream: TcpStream, handle: &DaemonHandle) -> std::io::Result<()> {
    let mut owned = HashSet::new();
    let result = ingest_frames(stream, handle, &mut owned);
    for id in owned {
        // A session some frame already ended (an `Abort`, a rejected
        // `Seal`) is terminal; abort refuses it and leaves it as it is.
        let _ = handle.abort(id, "client disconnected before seal");
    }
    result
}

/// The frame loop of [`serve_ingest`]. `owned` holds the sessions this
/// connection opened and has not yet seen reach a terminal state.
fn ingest_frames(
    mut stream: TcpStream,
    handle: &DaemonHandle,
    owned: &mut HashSet<u64>,
) -> std::io::Result<()> {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        decoder.feed(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    // Manifest frames are tenant-scoped (no session) and
                    // always answered with one JSON line: the discharge
                    // summary on success, the typed error otherwise.
                    if let Frame::Manifest { tenant, functions } = &frame {
                        let line = match handle.declare_manifest(tenant, functions) {
                            Ok(summary) => {
                                let mut l = JsonObj::new()
                                    .bool("ok", true)
                                    .raw("manifest", summary.to_json())
                                    .build();
                                l.push('\n');
                                l
                            }
                            Err(e) => error_line(&e.to_string()),
                        };
                        stream.write_all(line.as_bytes())?;
                        continue;
                    }
                    let is_open = matches!(frame, Frame::Open { .. });
                    let is_seal = matches!(frame, Frame::Seal { .. });
                    let session = frame.session().expect("non-manifest frames have a session");
                    match handle.apply_frame(&frame) {
                        // Own a session only once the daemon admitted
                        // its Open: a rejected duplicate id belongs to
                        // another connection, and this connection's
                        // corruption must never poison it.
                        Ok(()) if is_open => {
                            owned.insert(session);
                        }
                        Ok(()) if is_seal => {
                            let stats = handle.wait_session(session);
                            owned.remove(&session);
                            let line = match stats {
                                Some(s) => {
                                    let mut l = JsonObj::new()
                                        .bool("ok", true)
                                        .raw("stats", s.to_json())
                                        .build();
                                    l.push('\n');
                                    l
                                }
                                None => error_line("session vanished"),
                            };
                            stream.write_all(line.as_bytes())?;
                        }
                        Ok(()) => {}
                        Err(e) => {
                            stream.write_all(error_line(&e.to_string()).as_bytes())?;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Stream-level corruption: poison this connection's
                    // still-open sessions and drop the connection.
                    let reason = format!("corrupt frame stream: {e}");
                    for id in owned.drain() {
                        handle.quarantine(id, &reason);
                    }
                    stream.write_all(error_line(&reason).as_bytes())?;
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

fn get_u64(req: &std::collections::BTreeMap<String, JsonVal>, key: &str) -> Option<u64> {
    req.get(key).and_then(JsonVal::as_u64)
}

fn get_str(req: &std::collections::BTreeMap<String, JsonVal>, key: &str) -> Option<String> {
    req.get(key).and_then(|v| v.as_str().map(str::to_string))
}

fn handle_request(line: &str, handle: &DaemonHandle) -> String {
    let req = match json::parse_object(line) {
        Ok(r) => r,
        Err(e) => return JsonObj::new().bool("ok", false).str("error", &e).build(),
    };
    let op = get_str(&req, "op").unwrap_or_default();
    match op.as_str() {
        "ping" => JsonObj::new()
            .bool("ok", true)
            .str("pong", "jinn-serve")
            .build(),
        "fleet" => {
            let f = handle.fleet();
            JsonObj::new()
                .bool("ok", true)
                .num("opened", f.opened)
                .num("judged", f.judged)
                .num("quarantined", f.quarantined)
                .num("aborted", f.aborted)
                .num("live", f.live)
                .num("history_bytes", f.history_bytes)
                .num("retention_bytes", f.retention_bytes)
                .num("purged_sessions", f.purged_sessions)
                .num("total_verdicts", f.total_verdicts)
                .num("total_events_replayed", f.total_events_replayed)
                .num("outside_manifest_sessions", f.outside_manifest_sessions)
                .num("streamed_sessions", f.streamed_sessions)
                .num("buffered_bytes_high_water", f.buffered_bytes_high_water)
                .num("contained_panics", f.contained_panics)
                .num("pool_leases", handle.pool_stats().leases)
                .build()
        }
        "stats" => match get_u64(&req, "session").and_then(|id| handle.session_stats(id)) {
            Some(s) => JsonObj::new()
                .bool("ok", true)
                .raw("stats", s.to_json())
                .build(),
            None => JsonObj::new()
                .bool("ok", false)
                .str("error", "unknown session")
                .build(),
        },
        "rollups" => match get_u64(&req, "session") {
            Some(id) => JsonObj::new()
                .bool("ok", true)
                .raw(
                    "rollups",
                    json::list(handle.rollups(id).iter().map(|r| r.to_json())),
                )
                .build(),
            None => JsonObj::new()
                .bool("ok", false)
                .str("error", "missing session")
                .build(),
        },
        "wait" => match get_u64(&req, "session").and_then(|id| handle.wait_session(id)) {
            Some(s) => JsonObj::new()
                .bool("ok", true)
                .raw("stats", s.to_json())
                .build(),
            None => JsonObj::new()
                .bool("ok", false)
                .str("error", "unknown session")
                .build(),
        },
        "query" => {
            let kind = match get_str(&req, "kind").as_deref() {
                None | Some("verdicts") => QueryKind::Verdicts,
                Some("events") => QueryKind::Events,
                Some("outcomes") => QueryKind::Outcomes,
                Some(other) => {
                    return JsonObj::new()
                        .bool("ok", false)
                        .str("error", &format!("unknown query kind `{other}`"))
                        .build()
                }
            };
            // Threads are u16 on the wire; a larger filter value must
            // not silently truncate onto some other thread's rows.
            let thread = match get_u64(&req, "thread").map(u16::try_from) {
                None => None,
                Some(Ok(t)) => Some(t),
                Some(Err(_)) => {
                    return JsonObj::new()
                        .bool("ok", false)
                        .str(
                            "error",
                            &format!("thread filter out of range (max {})", u16::MAX),
                        )
                        .build()
                }
            };
            let query = Query {
                kind,
                session: get_u64(&req, "session"),
                tenant: get_str(&req, "tenant"),
                config: get_str(&req, "config"),
                function: get_str(&req, "function"),
                machine: get_str(&req, "machine"),
                entity: get_str(&req, "entity"),
                thread,
                min_index: get_u64(&req, "min_index"),
                max_index: get_u64(&req, "max_index"),
                cursor: get_u64(&req, "cursor"),
                limit: get_u64(&req, "limit").unwrap_or(0) as usize,
            };
            let page = handle.query(&query);
            JsonObj::new()
                .bool("ok", true)
                .num("count", page.items.len() as u64)
                .raw("items", json::list(page.items.iter().map(|i| i.to_json())))
                .opt_num("next_cursor", page.next_cursor)
                .build()
        }
        other => JsonObj::new()
            .bool("ok", false)
            .str("error", &format!("unknown op `{other}`"))
            .build(),
    }
}

/// Cap on one query-mode request line. The ingest side caps frames at
/// `MAX_FRAME_PAYLOAD` so a hostile length can't allocate unboundedly;
/// an endless JSON line without a newline gets the same treatment.
const MAX_QUERY_LINE: u64 = 1024 * 1024;

fn serve_queries(stream: TcpStream, handle: &DaemonHandle) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = reader
            .by_ref()
            .take(MAX_QUERY_LINE + 1)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        if buf.last() != Some(&b'\n') && n as u64 > MAX_QUERY_LINE {
            writer.write_all(error_line("request line too long").as_bytes())?;
            break;
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut response = handle_request(line, handle);
        response.push('\n');
        writer.write_all(response.as_bytes())?;
    }
    Ok(())
}
