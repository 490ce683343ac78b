//! The daemon: N ingest workers around a bounded queue, fronted by a
//! cloneable in-process handle.
//!
//! Lifecycle of one session: `open` (creates its stream decoder) →
//! `append`* (feeds it) → `seal` (checks the declaration against the
//! decoder's running totals, enqueues) → a worker takes it (`Judging`),
//! collects its verdicts (`streaming` module), and stores the history
//! (`Judged`) — or poisons it (`Quarantined`). The queue is the
//! admission-control point: when all workers are busy and the queue is
//! full, `seal` blocks the *sealing* client (global backpressure), while
//! oversized appends fail fast with a per-session backpressure error.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use jinn_fsm::{EnginePool, PoolStats};
use jinn_replay::{Frame, ReplayConfig, MAX_MANIFEST_FUNCTIONS};

use crate::error::ServeError;
use crate::manifest::ManifestSummary;
use crate::session::{MachineRollup, SessionId, SessionStats};
use crate::store::{FleetStats, Query, QueryPage, SessionTable, StoreLimits};
use crate::streaming::StreamingSession;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingest worker threads.
    pub workers: usize,
    /// Sealed sessions the queue holds before `seal` blocks.
    pub queue_capacity: usize,
    /// Per-session upload cap: an `Append` that would take a session's
    /// uploaded bytes past it fails with [`ServeError::Backpressure`].
    /// It reads uploads, not resident bytes, because a live session
    /// keeps what it decodes (setup records, interned strings).
    pub max_buffered_bytes: u64,
    /// Live sessions admitted at once; `open` past it fails with
    /// [`ServeError::FleetSaturated`].
    pub max_live_sessions: usize,
    /// Session records kept (live + terminal); terminal records beyond
    /// it are evicted oldest-first.
    pub max_session_records: usize,
    /// Total buffered ingest bytes across all sessions; `append` past it
    /// fails with [`ServeError::FleetBackpressure`].
    pub max_total_buffered_bytes: u64,
    /// Global byte budget for judged history.
    pub retention_bytes: usize,
    /// Event summaries kept per session (newest win).
    pub max_events_per_session: usize,
    /// Checker stack for sessions that don't pick one, in
    /// [`ReplayConfig::parse`] syntax, comma-separated.
    pub default_configs: String,
    /// Ring capacity of the per-session replay recorder.
    pub recorder_ring: usize,
    /// Caps live sessions, and so executor threads. A single-config
    /// session opened while a slot is free is live: it decodes as it
    /// uploads, and an executor thread replays it only while its upload
    /// is still arriving (a trace that arrives whole in one `Append` is
    /// replayed by the worker, with no thread). Every other session (all
    /// of them at `0`) keeps its bytes until a worker judges it. Every
    /// session decodes through the same scanner either way.
    pub streaming_sessions: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            max_buffered_bytes: 8 * 1024 * 1024,
            max_live_sessions: 4096,
            max_session_records: 16384,
            max_total_buffered_bytes: 256 * 1024 * 1024,
            retention_bytes: 4 * 1024 * 1024,
            max_events_per_session: 512,
            default_configs: "jinn".to_string(),
            recorder_ring: 1024,
            streaming_sessions: 8,
        }
    }
}

struct QueueInner {
    items: VecDeque<SessionId>,
    closed: bool,
}

struct IngestQueue {
    inner: Mutex<QueueInner>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl IngestQueue {
    fn new(capacity: usize) -> IngestQueue {
        IngestQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks while full; `Err` once the queue is closed.
    fn push(&self, id: SessionId) -> Result<(), ServeError> {
        let mut q = self.inner.lock().expect("ingest queue poisoned");
        while q.items.len() >= self.capacity && !q.closed {
            q = self.not_full.wait(q).expect("ingest queue poisoned");
        }
        if q.closed {
            return Err(ServeError::ShuttingDown);
        }
        q.items.push_back(id);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks while empty; `None` once closed *and* drained.
    fn pop(&self) -> Option<SessionId> {
        let mut q = self.inner.lock().expect("ingest queue poisoned");
        loop {
            if let Some(id) = q.items.pop_front() {
                self.not_full.notify_one();
                return Some(id);
            }
            if q.closed {
                return None;
            }
            q = self.not_empty.wait(q).expect("ingest queue poisoned");
        }
    }

    fn close(&self) {
        let mut q = self.inner.lock().expect("ingest queue poisoned");
        q.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Every session's stream, by id, from `open` until a worker takes the
/// session or it is quarantined or aborted. `open` registers a session
/// under this lock together with its table record, and every path that
/// unregisters one does so after the table left `Open`.
#[derive(Default)]
struct Streams {
    sessions: HashMap<SessionId, Arc<StreamingSession>>,
    /// Registered live sessions: the `streaming_sessions` slots taken.
    live: usize,
}

pub(crate) struct Shared {
    config: ServeConfig,
    pub(crate) table: SessionTable,
    queue: IngestQueue,
    pool: Arc<EnginePool<u64>>,
    /// Each tenant's declared call-site set (the manifest audit).
    manifests: Mutex<HashMap<String, Arc<BTreeSet<String>>>>,
    streams: Mutex<Streams>,
    /// Replay and judge panics contained so far (`FleetStats`).
    contained_panics: AtomicU64,
    next_auto: AtomicU64,
    shutting_down: AtomicBool,
}

impl Shared {
    fn streams(&self) -> std::sync::MutexGuard<'_, Streams> {
        self.streams.lock().expect("stream registry poisoned")
    }

    fn stream(&self, id: SessionId) -> Option<Arc<StreamingSession>> {
        self.streams().sessions.get(&id).cloned()
    }

    fn remove_stream(&self, id: SessionId) -> Option<Arc<StreamingSession>> {
        let mut streams = self.streams();
        let stream = streams.sessions.remove(&id)?;
        streams.live -= usize::from(stream.is_live());
        Some(stream)
    }

    /// Unregisters a session that will not be judged and tears its
    /// stream down.
    fn discard_stream(&self, id: SessionId) {
        if let Some(s) = self.remove_stream(id) {
            s.discard();
        }
    }

    fn manifest(&self, tenant: &str) -> Option<Arc<BTreeSet<String>>> {
        self.manifests
            .lock()
            .expect("manifest map poisoned")
            .get(tenant)
            .cloned()
    }
}

/// The running daemon: owns the worker threads. Get a [`DaemonHandle`]
/// with [`Daemon::handle`]; call [`Daemon::shutdown`] (or drop) to stop.
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Daemon-assigned session ids start here, far above anything a client
/// fleet plausibly chooses, so `open_auto` and client-chosen ids coexist.
pub const AUTO_SESSION_BASE: u64 = 1 << 48;

impl Daemon {
    /// Starts the workers and returns the daemon.
    pub fn start(config: ServeConfig) -> Daemon {
        let shared = Arc::new(Shared {
            table: SessionTable::new(StoreLimits {
                retention_bytes: config.retention_bytes,
                max_buffered: config.max_buffered_bytes,
                max_live_sessions: config.max_live_sessions,
                max_session_records: config.max_session_records,
                max_total_buffered: config.max_total_buffered_bytes,
            }),
            queue: IngestQueue::new(config.queue_capacity),
            pool: EnginePool::new(jinn_spec::machines()),
            manifests: Mutex::new(HashMap::new()),
            streams: Mutex::new(Streams::default()),
            contained_panics: AtomicU64::new(0),
            next_auto: AtomicU64::new(AUTO_SESSION_BASE),
            shutting_down: AtomicBool::new(false),
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("jinn-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn ingest worker")
            })
            .collect();
        Daemon { shared, workers }
    }

    /// A cloneable front end to this daemon.
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers drained every sealed session (removing it from the
        // registry); whatever is left never sealed — discard it and join
        // the executors so shutdown leaves no threads behind.
        let leftover = std::mem::take(&mut *self.shared.streams());
        for s in leftover.sessions.into_values() {
            s.discard();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.queue.pop() {
        // Held until after publishing, so tearing the session down stays
        // off the seal-to-verdict path. A session quarantined while
        // queued is already unregistered.
        let Some(stream) = shared.remove_stream(id) else {
            continue;
        };
        let Some(tenant) = shared.table.begin_judging(id) else {
            stream.discard(); // quarantined while queued
            continue;
        };
        let manifest = shared.manifest(&tenant);
        let max_events = shared.config.max_events_per_session;
        let judged = stream.collect(
            &tenant,
            manifest.as_deref(),
            &shared.pool,
            max_events,
            &shared.contained_panics,
        );
        match judged {
            Ok(out) => shared.table.finish(id, out),
            Err(reason) => shared.table.fail(id, &reason),
        }
    }
}

/// A cloneable, thread-safe front end to a running [`Daemon`]: the
/// in-process query/ingest API. The socket server and the CLI are thin
/// wrappers over this.
#[derive(Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
}

impl DaemonHandle {
    fn guard(&self) -> Result<(), ServeError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            Err(ServeError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    /// Parses a comma-separated checker-stack selection (empty string:
    /// the daemon default).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] naming the first unknown label, or the
    /// whole selection when it names no config (`","`, say).
    pub fn parse_configs(&self, selection: &str) -> Result<Vec<ReplayConfig>, ServeError> {
        let effective = if selection.trim().is_empty() {
            &self.shared.config.default_configs
        } else {
            selection
        };
        let configs: Vec<ReplayConfig> = effective
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|label| {
                ReplayConfig::parse(label).ok_or_else(|| ServeError::BadConfig(label.to_string()))
            })
            .collect::<Result<_, _>>()?;
        if configs.is_empty() {
            return Err(ServeError::BadConfig(effective.to_string()));
        }
        Ok(configs)
    }

    /// Opens a session with a client-chosen id.
    ///
    /// # Errors
    ///
    /// Duplicate id, bad config selection, or shutdown.
    pub fn open(&self, session: SessionId, tenant: &str, configs: &str) -> Result<(), ServeError> {
        self.guard()?;
        let configs = self.parse_configs(configs)?;
        // The one dispatch decision, made once here: a single-config
        // session is replayed live while a slot is free. The table
        // record opens under the registry lock, so no one sees an open
        // session without its stream.
        let mut streams = self.shared.streams();
        let live = configs.len() == 1 && streams.live < self.shared.config.streaming_sessions;
        self.shared
            .table
            .open(session, tenant, configs.clone(), live)?;
        let ring = self.shared.config.recorder_ring;
        let stream = StreamingSession::start(session, &configs, ring, live);
        streams.sessions.insert(session, Arc::new(stream));
        streams.live += usize::from(live);
        Ok(())
    }

    /// Opens a session with a daemon-assigned id (from
    /// [`AUTO_SESSION_BASE`] upward).
    ///
    /// # Errors
    ///
    /// As for [`DaemonHandle::open`].
    pub fn open_auto(&self, tenant: &str, configs: &str) -> Result<SessionId, ServeError> {
        let id = self.shared.next_auto.fetch_add(1, Ordering::Relaxed);
        self.open(id, tenant, configs)?;
        Ok(id)
    }

    /// Feeds trace bytes to an open session's stream decoder.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] past the per-session cap,
    /// [`ServeError::FleetBackpressure`] past the fleet one; lifecycle
    /// errors otherwise.
    pub fn append(&self, session: SessionId, chunk: &[u8]) -> Result<(), ServeError> {
        self.guard()?;
        // Admission (lifecycle + backpressure on the bytes the decoder
        // holds) happens before the decoder sees a byte, so a rejected
        // chunk leaves the stream exactly as it was.
        self.shared.table.admit(session, chunk.len() as u64)?;
        // An admitted session is open, so it is registered — unless a
        // quarantine or abort unregistered it since, which also released
        // this chunk's charge.
        if let Some(stream) = self.shared.stream(session) {
            let pending = stream.ingest(chunk);
            self.shared.table.settle(session, pending);
        }
        Ok(())
    }

    /// Seals a session and queues it for judging. Blocks while the
    /// ingest queue is full (global backpressure).
    ///
    /// # Errors
    ///
    /// [`ServeError::Quarantined`] when the uploaded bytes don't match
    /// the declaration; lifecycle or shutdown errors otherwise.
    pub fn seal(
        &self,
        session: SessionId,
        total_len: u64,
        checksum: u64,
    ) -> Result<(), ServeError> {
        self.guard()?;
        // Checked against the decoder's running totals, outside the
        // table lock. An unregistered session is not open, and the
        // table reports its lifecycle error.
        let stream = self.shared.stream(session);
        let declared = stream
            .as_ref()
            .map_or(Ok(()), |s| s.verify_declaration(total_len, checksum));
        if let Err(e) = self.shared.table.seal(session, declared) {
            if matches!(e, ServeError::Quarantined { .. }) {
                self.shared.discard_stream(session);
            }
            return Err(e);
        }
        if let Some(stream) = stream {
            stream.finalize();
        }
        self.shared.queue.push(session).inspect_err(|_| {
            self.shared
                .table
                .quarantine(session, "daemon shut down before judging");
            self.shared.discard_stream(session);
        })
    }

    /// Abandons an open session.
    ///
    /// # Errors
    ///
    /// Lifecycle errors.
    pub fn abort(&self, session: SessionId, reason: &str) -> Result<(), ServeError> {
        self.shared.table.abort(session, reason)?;
        self.shared.discard_stream(session);
        Ok(())
    }

    /// Poisons a session from the transport layer (its connection's
    /// frame stream went bad). No-op on terminal sessions.
    pub fn quarantine(&self, session: SessionId, reason: &str) {
        self.shared.table.quarantine(session, reason);
        self.shared.discard_stream(session);
    }

    /// Declares (or replaces) `tenant`'s workload manifest and acks it
    /// with the static-discharge summary for the declared call-site
    /// set. The manifest is an audit: the tenant's later sessions are
    /// judged and rolled up exactly as before, and those whose trace
    /// calls outside the declared set are flagged
    /// ([`SessionStats::outside_manifest`]). Function names unknown to
    /// the JNI registry are kept and reported in the summary — a
    /// misspelled manifest weakens discharge, it does not fail.
    ///
    /// # Errors
    ///
    /// [`ServeError::ManifestTooLarge`] past the wire cap
    /// ([`jinn_replay::MAX_MANIFEST_FUNCTIONS`]), or shutdown.
    pub fn declare_manifest(
        &self,
        tenant: &str,
        functions: &[String],
    ) -> Result<ManifestSummary, ServeError> {
        self.guard()?;
        if functions.len() as u64 > MAX_MANIFEST_FUNCTIONS {
            return Err(ServeError::ManifestTooLarge {
                count: functions.len() as u64,
                cap: MAX_MANIFEST_FUNCTIONS,
            });
        }
        let declared: Arc<BTreeSet<String>> = Arc::new(functions.iter().cloned().collect());
        let replaced = self
            .shared
            .manifests
            .lock()
            .expect("manifest map poisoned")
            .insert(tenant.to_string(), Arc::clone(&declared))
            .is_some();
        Ok(ManifestSummary::audit(tenant, &declared, replaced))
    }

    /// Applies one decoded ingest frame.
    ///
    /// # Errors
    ///
    /// As for the corresponding lifecycle method.
    pub fn apply_frame(&self, frame: &Frame) -> Result<(), ServeError> {
        match frame {
            Frame::Open {
                session,
                tenant,
                config,
            } => self.open(*session, tenant, config),
            Frame::Append { session, chunk } => self.append(*session, chunk),
            Frame::Seal {
                session,
                total_len,
                checksum,
            } => self.seal(*session, *total_len, *checksum),
            Frame::Abort { session, reason } => self.abort(*session, reason),
            Frame::Manifest { tenant, functions } => {
                self.declare_manifest(tenant, functions).map(|_| ())
            }
        }
    }

    /// Runs a history query.
    pub fn query(&self, query: &Query) -> QueryPage {
        self.shared.table.query(query)
    }

    /// A stats snapshot for one session.
    pub fn session_stats(&self, session: SessionId) -> Option<SessionStats> {
        self.shared.table.stats(session)
    }

    /// The per-machine rollups of a judged session.
    pub fn rollups(&self, session: SessionId) -> Vec<MachineRollup> {
        self.shared.table.rollups(session)
    }

    /// Fleet counters.
    pub fn fleet(&self) -> FleetStats {
        FleetStats {
            contained_panics: self.shared.contained_panics.load(Ordering::Relaxed),
            ..self.shared.table.fleet()
        }
    }

    /// Engine-pool counters: machines per set and leases taken.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Every known session id, in open order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.shared.table.session_ids()
    }

    /// Blocks until the session is judged, quarantined, or aborted;
    /// `None` for an unknown id.
    pub fn wait_session(&self, session: SessionId) -> Option<SessionStats> {
        self.shared.table.wait_terminal(session)
    }

    /// Blocks until no session is queued or judging.
    pub fn wait_idle(&self) {
        self.shared.table.wait_idle();
    }
}
