//! The four `jinn-serve` workloads. Each drives a daemon started with
//! `ServeConfig::default()` (what `serve daemon` runs) from at most two
//! load-generator threads, and times only calls into public functions.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use jinn_replay::{encode_ingest, fnv1a, Frame};
use jinn_serve::{
    Daemon, DaemonHandle, Query, QueryItem, QueryKind, ServeConfig, SessionState, SessionStats,
    SocketServer,
};

use crate::inputs::{
    churn_schedule, query_shape, record_churn, Corpus, Expected, Plan, Planned, Shape, CHURN_CALLS,
    JINN, MULTI,
};
use crate::json::{self, Json};
use crate::spans::{self, Span, SpanLog};
use crate::stats::{percentile, sorted};
use crate::{Bench, Fault, Measured, Tally};

/// Load-generator threads: of the closed loops, and of the churn-stream
/// open loop (at most `nproc` = 2).
const CLIENTS: usize = 2;
const GENERATORS: usize = 2;
/// Append chunk for corpus sessions: the `serve ingest` client's.
const CORPUS_CHUNK: usize = 64 * 1024;
/// Warm-up batch of in-process corpus sessions (ten corpus cycles).
const WARMUP_SESSIONS: u64 = 200;
/// Socket sessions after the in-process warm-up, before the timed window.
const SOCKET_WARMUP_SESSIONS: u64 = 40;
/// One in this many in-process corpus sessions selects the Table 1
/// differential, which takes the buffered judge.
const MULTI_ONE_IN: u64 = 4;
/// Churn uploads: chunk size and the gap between appends.
const CHURN_CHUNK: usize = 2048;
const CHURN_GAP: Duration = Duration::from_micros(200);
/// Churn sessions per second: about a quarter of the closed-loop
/// capacity of the churn mix (`benchmark calibrate`, see the README).
/// At half, the host's CPU steal doubled the latency of whole runs.
pub const CHURN_RATE: f64 = 70.0;
/// Pages one by-tenant query follows.
const TENANT_PAGES: usize = 5;
/// Bound on warm-up sessions while waiting for the first retention purge.
const MAX_PURGE_WARMUP: u64 = 50_000;

/// Splits a trace into the frames of one session.
fn frames(id: u64, tenant: &str, selection: &str, bytes: &[u8], chunk: usize) -> Vec<Frame> {
    let mut out = vec![Frame::Open {
        session: id,
        tenant: tenant.to_string(),
        config: selection.to_string(),
    }];
    out.extend(bytes.chunks(chunk).map(|c| Frame::Append {
        session: id,
        chunk: c.to_vec(),
    }));
    out.push(Frame::Seal {
        session: id,
        total_len: bytes.len() as u64,
        checksum: fnv1a(bytes),
    });
    out
}

/// Verdict rows as a multiset keyed like [`Expected::multiset`].
type Multiset = BTreeMap<(String, String, String, String), u64>;

/// A session's verdict multiset through `DaemonHandle::query`.
fn handle_multiset(handle: &DaemonHandle, session: u64) -> Multiset {
    let mut set = Multiset::new();
    let mut cursor = None;
    loop {
        let page = handle.query(&Query {
            kind: QueryKind::Verdicts,
            session: Some(session),
            cursor,
            limit: 1000,
            ..Query::default()
        });
        for item in &page.items {
            if let QueryItem::Verdict(v) = item {
                let key = (
                    v.config.clone(),
                    v.machine.clone(),
                    v.error_state.clone(),
                    v.function.clone(),
                );
                *set.entry(key).or_insert(0) += 1;
            }
        }
        match page.next_cursor {
            Some(c) => cursor = Some(c),
            None => return set,
        }
    }
}

/// A session's verdict multiset through the socket `query` op.
fn socket_multiset(addr: SocketAddr, session: u64) -> Result<Multiset, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("query connect: {e}"))?;
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(conn);
    let mut set = Multiset::new();
    let mut cursor = String::new();
    loop {
        let request = format!(
            "{{\"op\":\"query\",\"kind\":\"verdicts\",\"session\":{session},\"limit\":1000{cursor}}}\n"
        );
        writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("query write: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("query read: {e}"))?;
        let reply = json::parse(line.trim())?;
        if reply.get("ok").and_then(Json::bool) != Some(true) {
            return Err(format!("query refused: {}", line.trim()));
        }
        for item in reply.get("items").map_or(&[][..], Json::arr) {
            let field = |k: &str| item.get(k).and_then(Json::str).unwrap_or("").to_string();
            let key = (
                field("config"),
                field("machine"),
                field("error_state"),
                field("function"),
            );
            *set.entry(key).or_insert(0) += 1;
        }
        match reply.get("next_cursor").and_then(Json::num) {
            Some(c) => cursor = format!(",\"cursor\":{c}"),
            None => return Ok(set),
        }
    }
}

/// Checks a terminal session against its expected verdict count.
fn check_stats(stats: Option<&SessionStats>, expected: &Expected) -> Result<(), Fault> {
    let s = stats.ok_or_else(|| Fault::Error("session vanished".to_string()))?;
    if s.state != SessionState::Judged {
        return Err(Fault::Error(format!(
            "session {} ended {}: {:?}",
            s.session, s.state, s.reason
        )));
    }
    if s.verdicts != expected.count {
        return Err(Fault::Wrong(format!(
            "session {} ({:?}) has {} verdicts, local replay has {}",
            s.session, s.program, s.verdicts, expected.count
        )));
    }
    Ok(())
}

/// Verdict multisets are checked in full through the query API on the
/// first occurrence of each (trace, config selection) pair.
type Seen = Mutex<HashSet<(usize, bool)>>;

fn first_occurrence(seen: &Seen, p: Planned) -> bool {
    seen.lock()
        .expect("seen set poisoned")
        .insert((p.trace, p.multi))
}

fn check_multiset(got: &Multiset, expected: &Expected, trace: &str) -> Result<(), Fault> {
    if got == &expected.multiset {
        Ok(())
    } else {
        Err(Fault::Wrong(format!(
            "{trace}: daemon verdicts {got:?} differ from local replay {:?}",
            expected.multiset
        )))
    }
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), 0.5)
    }
}

fn p99(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), 0.99)
    }
}

/// Durations of the spans called `name`, in microseconds.
fn span_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans::durations(spans, name)
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect()
}

/// Per-session public outputs some layer metrics read.
#[derive(Default)]
struct Acks {
    /// `first_frame_micros` of each ack.
    first_frame_us: Vec<f64>,
    /// Client session latency minus the ack's `first_frame_micros`, in µs.
    outside_us: Vec<f64>,
    /// `seal_to_verdict_micros` of each `SessionStats`.
    seal_to_verdict_us: Vec<f64>,
    streamed: u64,
    judged: u64,
}

impl Acks {
    fn absorb(&mut self, o: Acks) {
        self.first_frame_us.extend(o.first_frame_us);
        self.outside_us.extend(o.outside_us);
        self.seal_to_verdict_us.extend(o.seal_to_verdict_us);
        self.streamed += o.streamed;
        self.judged += o.judged;
    }

    fn record(&mut self, s: &SessionStats) {
        self.judged += 1;
        self.streamed += u64::from(s.streamed);
        self.seal_to_verdict_us
            .extend(s.seal_to_verdict_micros.map(|u| u as f64));
    }
}

/// What a closed loop of client threads returns.
struct LoopOut {
    tally: Tally,
    acks: Acks,
    spans: Vec<Span>,
    /// When the loop started and when its last client finished.
    window: (Instant, Instant),
}

/// Runs `op` on `CLIENTS` threads, each claiming plan entries from
/// `next` until `deadline` or until entry `limit`.
fn closed_loop<F>(next: &AtomicU64, limit: u64, deadline: Instant, traced: bool, op: F) -> LoopOut
where
    F: Fn(u64, &mut SpanLog, &mut Tally, &mut Acks) + Sync,
{
    let start = Instant::now();
    let results: Vec<(Tally, Acks, SpanLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|tid| {
                let op = &op;
                s.spawn(move || {
                    let mut log = SpanLog::new(traced, tid as u32);
                    let mut tally = Tally::default();
                    let mut acks = Acks::default();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= limit {
                            break;
                        }
                        op(i, &mut log, &mut tally, &mut acks);
                    }
                    (tally, acks, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = (start, Instant::now());
    let mut tally = Tally::default();
    let mut acks = Acks::default();
    let mut logs = Vec::new();
    for (t, a, l) in results {
        tally.absorb(t);
        acks.absorb(a);
        logs.push(l);
    }
    LoopOut {
        tally,
        acks,
        spans: spans::merge(logs),
        window,
    }
}

/// Runs `sessions` closed-loop sessions, untimed, and fails on any fault.
fn warm_up(
    next: &AtomicU64,
    sessions: u64,
    op: impl Fn(u64, &mut SpanLog, &mut Tally, &mut Acks) + Sync,
) -> Result<(), String> {
    let limit = next.load(Ordering::Relaxed) + sessions;
    let far = Instant::now() + Duration::from_secs(3600);
    closed_loop(next, limit, far, false, op).tally.into_result()
}

/// Brings a fresh daemon to the state of a long-running one before the
/// timed window. The store scans every session record whenever it purges
/// history or evicts a record, so its per-session cost depends on how
/// full the table is: the table is first filled to its record cap with
/// opened-then-aborted sessions (cheap, and like purged records they hold
/// no history), then `warm` runs batches of real sessions until the
/// retention budget has purged at least once.
fn settle(
    handle: &DaemonHandle,
    mut warm: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    for _ in 0..ServeConfig::default().max_session_records {
        let id = handle
            .open_auto("ballast", MULTI)
            .map_err(|e| format!("ballast open: {e}"))?;
        handle
            .abort(id, "ballast")
            .map_err(|e| format!("ballast abort: {e}"))?;
    }
    let opened = handle.fleet().opened;
    while handle.fleet().purged_sessions == 0 {
        if handle.fleet().opened - opened > MAX_PURGE_WARMUP {
            return Err("retention never purged during warm-up".to_string());
        }
        warm()?;
    }
    Ok(())
}

/// Packs a measurement; `layer` runs only for traced windows.
fn measured(
    out: LoopOut,
    traced: bool,
    layer: impl FnOnce(&[Span], &Acks) -> Vec<(&'static str, f64)>,
) -> Measured {
    let layer = if traced {
        layer(&out.spans, &out.acks)
    } else {
        Vec::new()
    };
    Measured {
        tally: out.tally,
        window: out.window,
        layer,
        spans: out.spans,
    }
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

// ---- corpus-socket ------------------------------------------------------

/// Closed loop over TCP: every session is a fresh connection streaming
/// one corpus trace and blocking on the seal ack, as `serve ingest` does.
pub struct CorpusSocket {
    // Declared first so it drops first: stop accepting connections
    // before the daemon stops.
    server: SocketServer,
    ingest: Ingest,
    /// First occurrences over the socket, checked with the socket
    /// `query` op (the in-process warm-up checked its own).
    seen: Seen,
}

impl CorpusSocket {
    pub fn setup(root: &Path, seed: u64) -> Result<CorpusSocket, String> {
        let ingest = Ingest::start(root, seed, 0)?;
        let server = SocketServer::bind(ingest.daemon.handle(), "127.0.0.1:0")
            .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
        let w = CorpusSocket {
            server,
            ingest,
            seen: Mutex::new(HashSet::new()),
        };
        warm_up(
            &w.ingest.next_entry,
            SOCKET_WARMUP_SESSIONS,
            |i, log, t, a| {
                w.session(i, log, t, a);
            },
        )?;
        Ok(w)
    }

    fn session(&self, i: u64, log: &mut SpanLog, t: &mut Tally, acks: &mut Acks) {
        let addr = self.server.addr();
        let ingest = &self.ingest;
        let p = ingest.plan.session(i);
        let trace = &ingest.corpus.traces[p.trace];
        let expected = &trace.expected[0];
        let id = i + 1;
        let tenant = &ingest.corpus.tenants[p.tenant];
        let wire = encode_ingest(id, tenant, JINN, &trace.bytes, CORPUS_CHUNK);
        t.attempted += 1;
        let root = log.begin("loadgen.session", id);
        let ack = (|| -> std::io::Result<String> {
            let (conn, _) = log.time("serve.socket.connect", id, || TcpStream::connect(addr));
            let mut conn = conn?;
            log.time("serve.socket.write", id, || conn.write_all(&wire))
                .0?;
            let mut reader = BufReader::new(conn);
            let mut line = String::new();
            log.time("serve.socket.ack", id, || reader.read_line(&mut line))
                .0?;
            Ok(line)
        })();
        let latency = log.end(root);
        let done = Instant::now();
        let checked = ack
            .map_err(|e| Fault::Error(format!("session {id}: {e}")))
            .and_then(|line| json::parse(line.trim()).map_err(Fault::Error))
            .and_then(|reply| {
                let stats = reply
                    .get("stats")
                    .filter(|_| reply.get("ok").and_then(Json::bool) == Some(true))
                    .ok_or_else(|| Fault::Error(format!("session {id}: refused: {reply:?}")))?;
                let num = |k: &str| stats.get(k).and_then(Json::num);
                if stats.get("state").and_then(Json::str) != Some("judged") {
                    return Err(Fault::Error(format!("session {id} not judged: {stats:?}")));
                }
                if num("verdicts") != Some(expected.count as f64) {
                    return Err(Fault::Wrong(format!(
                        "{}: ack has {:?} verdicts, local replay has {}",
                        trace.name,
                        num("verdicts"),
                        expected.count
                    )));
                }
                Ok(num("first_frame_micros").unwrap_or(0.0))
            })
            .and_then(|first_frame_us| {
                if first_occurrence(&self.seen, p) {
                    let got = socket_multiset(addr, id).map_err(Fault::Error)?;
                    check_multiset(&got, expected, &trace.name)?;
                }
                Ok(first_frame_us)
            });
        match checked {
            Ok(first_frame_us) => {
                t.record(done, latency);
                acks.first_frame_us.push(first_frame_us);
                acks.outside_us
                    .push(latency.as_secs_f64() * 1e6 - first_frame_us);
            }
            Err(f) => t.fault(f),
        }
    }
}

impl Bench for CorpusSocket {
    fn measure(&mut self, seconds: f64, traced: bool) -> Measured {
        let next = &self.ingest.next_entry;
        let out = closed_loop(next, u64::MAX, deadline(seconds), traced, |i, log, t, a| {
            self.session(i, log, t, a);
        });
        measured(out, traced, |spans, acks| {
            let ms = |v: &[f64]| v.iter().map(|u| u / 1e3).collect::<Vec<_>>();
            let outside = ms(&acks.outside_us);
            vec![
                (
                    "serve.socket.connect_ms_p50",
                    p50(&ms(&span_us(spans, "serve.socket.connect"))),
                ),
                ("serve.socket.outside_daemon_ms_p50", p50(&outside)),
                ("serve.socket.outside_daemon_ms_p99", p99(&outside)),
                (
                    "serve.daemon.first_frame_to_verdict_ms_p50",
                    p50(&ms(&acks.first_frame_us)),
                ),
            ]
        })
    }
}

// ---- in-process corpus ingest (corpus-inproc, corpus-query) -------------

/// The in-process ingest client shared by corpus-inproc and the writer
/// thread of corpus-query.
struct Ingest {
    corpus: Arc<Corpus>,
    plan: Plan,
    daemon: Daemon,
    next_entry: AtomicU64,
    seen: Seen,
    /// The most recently judged session (the by-session query target).
    last_judged: AtomicU64,
}

impl Ingest {
    /// Loads the corpus, starts a daemon and settles it (see [`settle`])
    /// with in-process sessions of the plan.
    fn start(root: &Path, seed: u64, multi_one_in: u64) -> Result<Ingest, String> {
        let corpus = Corpus::load(root, seed)?;
        let ingest = Ingest {
            plan: Plan {
                seed,
                n: corpus.traces.len(),
                multi_one_in,
            },
            corpus,
            daemon: Daemon::start(ServeConfig::default()),
            next_entry: AtomicU64::new(0),
            seen: Mutex::new(HashSet::new()),
            last_judged: AtomicU64::new(0),
        };
        settle(&ingest.daemon.handle(), || {
            warm_up(&ingest.next_entry, WARMUP_SESSIONS, |i, log, t, a| {
                ingest.session(i, log, t, a);
            })
        })?;
        Ok(ingest)
    }

    /// One session through `apply_frame`, timed from `Open` to
    /// `wait_session` returning.
    fn session(&self, i: u64, log: &mut SpanLog, t: &mut Tally, acks: &mut Acks) {
        let handle = self.daemon.handle();
        let p = self.plan.session(i);
        let trace = &self.corpus.traces[p.trace];
        let (selection, expected) = if p.multi {
            (MULTI, &trace.expected[1])
        } else {
            (JINN, &trace.expected[0])
        };
        let id = i + 1;
        let tenant = &self.corpus.tenants[p.tenant];
        let frames = frames(id, tenant, selection, &trace.bytes, CORPUS_CHUNK);
        t.attempted += 1;
        let root = log.begin("loadgen.session", id);
        let mut applied = Ok(());
        for f in &frames {
            let name = match f {
                Frame::Open { .. } => "serve.daemon.open",
                Frame::Append { .. } => "serve.daemon.append",
                _ => "serve.daemon.seal",
            };
            applied = log.time(name, id, || handle.apply_frame(f)).0;
            if applied.is_err() {
                break;
            }
        }
        let stats = match applied {
            Ok(()) => {
                log.time("serve.daemon.wait", id, || handle.wait_session(id))
                    .0
            }
            Err(_) => None,
        };
        let latency = log.end(root);
        let done = Instant::now();
        if let Err(e) = applied {
            let _ = handle.abort(id, "benchmark client error");
            t.fault(Fault::Error(format!("session {id}: {e}")));
            return;
        }
        let checked = check_stats(stats.as_ref(), expected).and_then(|()| {
            if first_occurrence(&self.seen, p) {
                check_multiset(&handle_multiset(&handle, id), expected, &trace.name)?;
            }
            Ok(())
        });
        match checked {
            Ok(()) => {
                t.record(done, latency);
                acks.record(stats.as_ref().expect("checked above"));
                self.last_judged.store(id, Ordering::Relaxed);
            }
            Err(f) => t.fault(f),
        }
    }
}

/// Closed loop in process through `DaemonHandle`, no socket: two client
/// threads ingest the corpus, one in four sessions with three configs.
pub struct CorpusInproc {
    ingest: Ingest,
}

impl CorpusInproc {
    pub fn setup(root: &Path, seed: u64) -> Result<CorpusInproc, String> {
        Ok(CorpusInproc {
            ingest: Ingest::start(root, seed, MULTI_ONE_IN)?,
        })
    }
}

impl Bench for CorpusInproc {
    fn measure(&mut self, seconds: f64, traced: bool) -> Measured {
        let ingest = &self.ingest;
        let handle = ingest.daemon.handle();
        let before = handle.pool_stats();
        let out = closed_loop(
            &ingest.next_entry,
            u64::MAX,
            deadline(seconds),
            traced,
            |i, log, t, a| {
                ingest.session(i, log, t, a);
            },
        );
        let after = handle.pool_stats();
        let built = after.built - before.built;
        let leases = (after.leases - before.leases).max(1);
        measured(out, traced, |spans, acks| {
            let wait = span_us(spans, "serve.daemon.wait");
            vec![
                (
                    "serve.daemon.open_us_p50",
                    p50(&span_us(spans, "serve.daemon.open")),
                ),
                (
                    "serve.daemon.append_us_p50",
                    p50(&span_us(spans, "serve.daemon.append")),
                ),
                (
                    "serve.daemon.seal_us_p50",
                    p50(&span_us(spans, "serve.daemon.seal")),
                ),
                ("serve.daemon.wait_us_p50", p50(&wait)),
                ("serve.daemon.wait_us_p99", p99(&wait)),
                (
                    "serve.daemon.seal_to_verdict_us_p50",
                    p50(&acks.seal_to_verdict_us),
                ),
                (
                    "serve.daemon.streamed_share",
                    acks.streamed as f64 / acks.judged.max(1) as f64,
                ),
                ("fsm.pool.hit_ratio", 1.0 - built as f64 / leases as f64),
                ("fsm.pool.built", built as f64),
            ]
        })
    }
}

// ---- corpus-query -------------------------------------------------------

/// Span names of the four query shapes.
const QUERY_SPANS: [&str; 4] = [
    "serve.store.query.by_machine",
    "serve.store.query.by_tenant",
    "serve.store.query.by_session",
    "serve.store.query.by_config",
];

/// Reads beside writes on the store's single table mutex: one thread
/// ingests the corpus in a closed loop while the other issues
/// closed-loop queries rotating through four shapes. The timed
/// operation is one `query` call.
pub struct CorpusQuery {
    ingest: Ingest,
    seed: u64,
    next_query: u64,
}

impl CorpusQuery {
    pub fn setup(root: &Path, seed: u64) -> Result<CorpusQuery, String> {
        let w = CorpusQuery {
            ingest: Ingest::start(root, seed, MULTI_ONE_IN)?,
            seed,
            next_query: 100,
        };
        let mut log = SpanLog::new(false, 0);
        let mut t = Tally::default();
        for j in 0..w.next_query {
            w.query(j, &mut log, &mut t);
        }
        t.into_result()?;
        Ok(w)
    }

    /// Runs query `j` of the rotation, checking that every row matches
    /// its filter. A by-tenant query follows up to five pages, each a
    /// timed call. Returns the rows read.
    fn query(&self, j: u64, log: &mut SpanLog, t: &mut Tally) -> u64 {
        let corpus = &self.ingest.corpus;
        let shape = query_shape(
            self.seed,
            j,
            corpus.machines.len(),
            corpus.config_labels.len(),
        );
        let (span, mut query, pages) = match shape {
            Shape::Machine(m) => (
                QUERY_SPANS[0],
                Query {
                    machine: Some(corpus.machines[m].clone()),
                    ..Query::default()
                },
                1,
            ),
            Shape::Tenant(k) => (
                QUERY_SPANS[1],
                Query {
                    tenant: Some(corpus.tenants[k].clone()),
                    ..Query::default()
                },
                TENANT_PAGES,
            ),
            Shape::Session => (
                QUERY_SPANS[2],
                Query {
                    kind: QueryKind::Events,
                    session: Some(self.ingest.last_judged.load(Ordering::Relaxed)),
                    ..Query::default()
                },
                1,
            ),
            Shape::Config(c) => (
                QUERY_SPANS[3],
                Query {
                    kind: QueryKind::Outcomes,
                    config: Some(corpus.config_labels[c].clone()),
                    ..Query::default()
                },
                1,
            ),
        };
        let handle = self.ingest.daemon.handle();
        let mut rows = 0;
        for _ in 0..pages {
            t.attempted += 1;
            let (page, took) = log.time(span, j, || handle.query(&query));
            let in_filter = page.items.iter().all(|item| match item {
                QueryItem::Verdict(v) => {
                    query.kind == QueryKind::Verdicts
                        && query.machine.as_ref().is_none_or(|m| &v.machine == m)
                        && query.tenant.as_ref().is_none_or(|x| &v.tenant == x)
                }
                QueryItem::Event(e) => Some(e.session) == query.session,
                QueryItem::Outcome(o) => Some(&o.config) == query.config.as_ref(),
            });
            if in_filter {
                t.record(Instant::now(), took);
            } else {
                t.fault(Fault::Wrong(format!("{shape:?}: a row outside the filter")));
            }
            rows += page.items.len() as u64;
            match page.next_cursor {
                Some(c) => query.cursor = Some(c),
                None => break,
            }
        }
        rows
    }
}

impl Bench for CorpusQuery {
    fn measure(&mut self, seconds: f64, traced: bool) -> Measured {
        let end = deadline(seconds);
        let start = Instant::now();
        let mut j = self.next_query;
        let ((writes, wlog), (mut tally, qlog, rows)) = std::thread::scope(|s| {
            let ingest = &self.ingest;
            let writer = s.spawn(move || {
                let mut log = SpanLog::new(traced, 0);
                let mut t = Tally::default();
                let mut acks = Acks::default();
                while Instant::now() < end {
                    let i = ingest.next_entry.fetch_add(1, Ordering::Relaxed);
                    ingest.session(i, &mut log, &mut t, &mut acks);
                }
                (t, log)
            });
            let mut log = SpanLog::new(traced, 1);
            let mut t = Tally::default();
            let mut rows = 0u64;
            while Instant::now() < end {
                rows += self.query(j, &mut log, &mut t);
                j += 1;
            }
            (
                writer.join().expect("writer thread panicked"),
                (t, log, rows),
            )
        });
        let window = (start, Instant::now());
        self.next_query = j;
        let queries = tally.latencies.len().max(1) as f64;
        // The timed operation is the query: the writer's sessions count
        // toward attempted and failed, not toward the latencies.
        tally.absorb(Tally {
            latencies: Vec::new(),
            ..writes
        });
        let fleet = self.ingest.daemon.handle().fleet();
        let out = LoopOut {
            tally,
            acks: Acks::default(),
            spans: spans::merge([qlog, wlog]),
            window,
        };
        measured(out, traced, |spans, _| {
            let by = |k: usize| p50(&span_us(spans, QUERY_SPANS[k]));
            let all: Vec<f64> = QUERY_SPANS.iter().flat_map(|n| span_us(spans, n)).collect();
            vec![
                ("serve.store.query_by_machine_us_p50", by(0)),
                ("serve.store.query_by_tenant_us_p50", by(1)),
                ("serve.store.query_by_session_us_p50", by(2)),
                ("serve.store.query_by_config_us_p50", by(3)),
                ("serve.store.query_us_p99", p99(&all)),
                ("serve.store.rows_per_query", rows as f64 / queries),
                ("serve.store.history_bytes", fleet.history_bytes as f64),
                ("serve.store.purged_sessions", fleet.purged_sessions as f64),
            ]
        })
    }
}

// ---- churn-stream -------------------------------------------------------

/// Open loop in process: sessions arrive on a seeded schedule and upload
/// a recorded bug-free churn trace in paced 2 KB appends, so the
/// streaming decoder, live replay, checker and recorder do most of the
/// work. The timed operation is one session, from when its `Open` was
/// due to its verdict, so a stall also counts against the sessions it
/// delays. How late the generators issued frames (timer slack plus the
/// decode the daemon runs on the caller's thread) is the
/// `loadgen.lag_ms_p99` layer metric.
pub struct ChurnStream {
    traces: Vec<Vec<u8>>,
    daemon: Daemon,
    seed: u64,
    phase: u64,
    next_id: AtomicU64,
}

/// One scheduled frame of the churn timeline.
struct Due {
    at_ns: u64,
    session: usize,
    frame: usize,
}

impl ChurnStream {
    pub fn setup(seed: u64) -> Result<ChurnStream, String> {
        let w = ChurnStream {
            traces: CHURN_CALLS.iter().map(|&c| record_churn(c)).collect(),
            daemon: Daemon::start(ServeConfig::default()),
            seed,
            phase: 0,
            next_id: AtomicU64::new(1),
        };
        // Warm-up sessions run unpaced, back to back, every size.
        let handle = w.daemon.handle();
        settle(&handle, || {
            for bytes in &w.traces {
                let id = w.take_ids(1);
                for f in frames(id, "warmup", JINN, bytes, CHURN_CHUNK) {
                    handle
                        .apply_frame(&f)
                        .map_err(|e| format!("warm-up session {id}: {e}"))?;
                }
                check_stats(handle.wait_session(id).as_ref(), &Expected::default())
                    .map_err(|f| format!("warm-up: {f:?}"))?;
            }
            Ok(())
        })?;
        Ok(w)
    }

    /// Reserves `n` session ids and returns the first.
    fn take_ids(&self, n: u64) -> u64 {
        self.next_id.fetch_add(n, Ordering::Relaxed)
    }

    /// Sessions per second that closed-loop clients, one per generator
    /// thread, sustain on the same paced uploads: the capacity the
    /// open-loop rate is frozen from.
    pub fn capacity(&self, seconds: f64) -> f64 {
        let base = self.take_ids(1 << 32);
        let next = AtomicU64::new(0);
        let traces = &self.traces;
        let handle = self.daemon.handle();
        let out = closed_loop(&next, u64::MAX, deadline(seconds), false, |i, _, t, _| {
            let id = base + i;
            let start = Instant::now();
            for f in frames(
                id,
                "calibrate",
                JINN,
                &traces[i as usize % traces.len()],
                CHURN_CHUNK,
            ) {
                if matches!(f, Frame::Append { .. }) {
                    std::thread::sleep(CHURN_GAP);
                }
                let _ = handle.apply_frame(&f);
            }
            let _ = handle.wait_session(id);
            t.record(Instant::now(), start.elapsed());
        });
        let (begin, end) = out.window;
        out.tally.latencies.len() as f64 / (end - begin).as_secs_f64()
    }
}

impl Bench for ChurnStream {
    fn measure(&mut self, seconds: f64, traced: bool) -> Measured {
        let arrivals = churn_schedule(self.seed, self.phase, CHURN_RATE, seconds);
        self.phase += 1;
        let first_id = self.take_ids(arrivals.len() as u64);
        let session_frames: Vec<Vec<Frame>> = arrivals
            .iter()
            .enumerate()
            .map(|(k, a)| {
                frames(
                    first_id + k as u64,
                    "churn",
                    JINN,
                    &self.traces[a.size],
                    CHURN_CHUNK,
                )
            })
            .collect();
        // Sessions alternate between the generator threads, as separate
        // connections would (the daemon decodes an append on the caller's
        // thread). Each generator runs its share of the frame timeline,
        // precomputed: a session's Open and first Append at its arrival,
        // one Append every CHURN_GAP after, and Seal one gap after the
        // last Append.
        let gap = CHURN_GAP.as_nanos() as u64;
        let mut timelines: Vec<Vec<Due>> = (0..GENERATORS).map(|_| Vec::new()).collect();
        for (k, (a, fs)) in arrivals.iter().zip(&session_frames).enumerate() {
            timelines[k % GENERATORS].extend((0..fs.len()).map(|f| Due {
                at_ns: a.due_ns + (f as u64).saturating_sub(1) * gap,
                session: k,
                frame: f,
            }));
        }
        for timeline in &mut timelines {
            timeline.sort_by_key(|d| d.at_ns);
        }

        let handle = self.daemon.handle();
        let start = Instant::now();
        let drive = |g: usize, timeline: &[Due]| {
            let (tx, rx) = mpsc::channel::<(u64, u64)>();
            std::thread::scope(|s| {
                // Each generator's collector waits for its verdicts in
                // seal order, so one slow verdict never delays another
                // generator's.
                let collector = s.spawn(|| {
                    let mut log = SpanLog::new(traced, 2 * g as u32 + 1);
                    let mut t = Tally::default();
                    let mut acks = Acks::default();
                    let mut last = start;
                    for (id, due_ns) in rx {
                        let (stats, _) =
                            log.time("serve.daemon.wait", id, || handle.wait_session(id));
                        last = Instant::now();
                        match check_stats(stats.as_ref(), &Expected::default()) {
                            Ok(()) => {
                                let due = start + Duration::from_nanos(due_ns);
                                t.record(last, last.saturating_duration_since(due));
                                acks.record(stats.as_ref().expect("checked above"));
                            }
                            Err(f) => t.fault(f),
                        }
                    }
                    (t, acks, log, last)
                });
                // The generator runs its timeline, late or not: arrivals
                // never wait for replies.
                let mut log = SpanLog::new(traced, 2 * g as u32);
                let mut lag_ms = Vec::with_capacity(timeline.len());
                let mut abandoned: HashSet<usize> = HashSet::new();
                let mut t = Tally::default();
                for d in timeline {
                    let due = start + Duration::from_nanos(d.at_ns);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    if abandoned.contains(&d.session) {
                        continue;
                    }
                    let f = &session_frames[d.session][d.frame];
                    let id = first_id + d.session as u64;
                    let name = match f {
                        Frame::Open { .. } => {
                            t.attempted += 1;
                            "serve.daemon.stream_open"
                        }
                        Frame::Append { .. } => "serve.daemon.stream_append",
                        _ => "serve.daemon.stream_seal",
                    };
                    match log.time(name, id, || handle.apply_frame(f)).0 {
                        Ok(()) if matches!(f, Frame::Seal { .. }) => {
                            let due_ns = arrivals[d.session].due_ns;
                            tx.send((id, due_ns)).expect("collector alive");
                        }
                        Ok(()) => {}
                        Err(e) => {
                            abandoned.insert(d.session);
                            let _ = handle.abort(id, "benchmark client error");
                            t.fault(Fault::Error(format!("churn session {id}: {e}")));
                        }
                    }
                }
                drop(tx);
                let (verdicts, acks, clog, last) = collector.join().expect("collector panicked");
                t.absorb(verdicts);
                (t, acks, [log, clog], lag_ms, last)
            })
        };
        let runs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = timelines
                .iter()
                .enumerate()
                .map(|(g, timeline)| {
                    let drive = &drive;
                    s.spawn(move || drive(g, timeline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator panicked"))
                .collect()
        });
        let mut tally = Tally::default();
        let mut acks = Acks::default();
        let mut logs = Vec::new();
        let mut lag_ms = Vec::new();
        let mut last = start;
        for (t, a, l, lag, end) in runs {
            tally.absorb(t);
            acks.absorb(a);
            logs.extend(l);
            lag_ms.extend(lag);
            last = last.max(end);
        }
        let fleet = handle.fleet();
        let out = LoopOut {
            tally,
            acks,
            spans: spans::merge(logs),
            window: (start, last),
        };
        measured(out, traced, |spans, acks| {
            vec![
                (
                    "serve.store.buffered_bytes_high_water",
                    fleet.buffered_bytes_high_water as f64,
                ),
                (
                    "serve.daemon.stream_append_us_p50",
                    p50(&span_us(spans, "serve.daemon.stream_append")),
                ),
                (
                    "serve.daemon.stream_seal_to_verdict_us_p50",
                    p50(&acks.seal_to_verdict_us),
                ),
                ("loadgen.lag_ms_p99", p99(&lag_ms)),
            ]
        })
    }
}
