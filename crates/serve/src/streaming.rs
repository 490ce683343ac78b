//! The streaming judge: overlap ingest with checking.
//!
//! A buffered session pays for its trace twice — once to receive it,
//! once (after `Seal`) to parse and replay it — so its seal-to-verdict
//! latency is O(trace) and its buffered footprint is the whole trace.
//! A streaming session instead runs a [`StreamingSession`] from `Open`:
//! a resumable record-granularity scanner ([`StreamDecoder`]) consumes
//! each `Append` chunk as it arrives, releases the bytes as soon as
//! they decode (only the undecoded tail stays resident), and pipes the
//! decoded event records into a live replay executor thread
//! ([`run_live_replay`]) via an [`EventFeed`]. By the time `Seal`
//! arrives the replay has (usually) kept pace, so seal-to-verdict work
//! collapses to: verify the declared length/checksum against the
//! scanner's running totals, drain whatever tail is left, and roll up
//! the recorder's final ring on an engine lease taken at seal, as the
//! buffered judge does — O(1) in the trace length.
//!
//! ## Soundness
//!
//! Everything the executor computes before seal verification passes is
//! *speculative* and externally invisible: verdicts only become
//! observable through `SessionTable::finish`, which a worker calls
//! strictly after `Seal` succeeded. The executor runs the one replay
//! fold ([`jinn_replay::replay_trace`] runs the same fold on a finished
//! feed), so a streamed verdict is the buffered verdict. Two checks
//! discard speculation:
//!
//! - **Seal mismatch** — the declared length/checksum disagrees with
//!   the running totals: the session is poisoned with byte-identical
//!   reasons to the buffered path and nothing is published.
//! - **Decode error** — the scanner is sticky-poisoned mid-stream
//!   (exact error parity with batch decoding), or a setup record
//!   arrives after the first event ([`Trace::absorb_setup`], the split
//!   `Trace::parse` uses): the worker fails the session with the same
//!   `unreadable trace: …` reason the buffered judge would produce.
//!
//! A structurally invalid event stream (an unbalanced exit, say) stops
//! the feed and fails the session with the buffered judge's `replay
//! under … failed: …` reason.
//!
//! The manifest audit is decided at seal, like the buffered path: the
//! session is flagged `outside_manifest` when its (now complete)
//! call-site set leaves the tenant's declared manifest.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use jinn_fsm::AtomicEnginePool;
use jinn_obs::Recorder;
use jinn_replay::{
    run_live_replay, verify_seal_declaration, EventFeed, LiveFeeder, ReplayConfig, ReplayOutcome,
    StreamDecoder, Trace, TraceError, TraceRecord,
};

use crate::judge::{
    discharge_stats, obs_counters, outside_manifest, push_replay_rows, recorder_rows, JudgeOutput,
};
use crate::session::SessionId;

/// One live-judged session: the scanner fed by the ingest connection
/// and the executor thread replaying what it decodes.
pub(crate) struct StreamingSession {
    session: SessionId,
    config: ReplayConfig,
    feed: Arc<EventFeed>,
    recorder: Recorder,
    inner: Mutex<StreamInner>,
}

struct StreamInner {
    decoder: StreamDecoder,
    feeder: LiveFeeder,
    /// The trace's setup section, plus any trailing `obs.*` metadata.
    /// Event records go to the feed and are not retained.
    setup: Trace,
    saw_event: bool,
    /// The call-site set, accumulated record-by-record during ingest for
    /// the seal-time manifest and discharge audits.
    called: BTreeSet<String>,
    executor: Option<JoinHandle<Result<ReplayOutcome, TraceError>>>,
    decode_error: Option<TraceError>,
    /// A structurally invalid event; feeding stopped at it.
    replay_error: Option<TraceError>,
}

impl StreamingSession {
    /// Starts the scanner. The executor thread is spawned lazily at the
    /// first *event* record — only then is the setup section known
    /// complete (a later setup record is a decode error).
    pub(crate) fn start(
        session: SessionId,
        config: ReplayConfig,
        recorder_ring: usize,
    ) -> StreamingSession {
        let feed = Arc::new(EventFeed::new());
        StreamingSession {
            session,
            config,
            feed: Arc::clone(&feed),
            recorder: Recorder::enabled(recorder_ring),
            inner: Mutex::new(StreamInner {
                decoder: StreamDecoder::new(),
                feeder: LiveFeeder::new(feed),
                setup: Trace::empty(0),
                saw_event: false,
                called: BTreeSet::new(),
                executor: None,
                decode_error: None,
                replay_error: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StreamInner> {
        self.inner.lock().expect("streaming session poisoned")
    }

    /// Feeds one `Append` chunk: decodes whatever records it completes,
    /// routes them (setup section or live feed), and returns the
    /// undecoded tail — the only bytes still resident.
    pub(crate) fn ingest(&self, chunk: &[u8]) -> u64 {
        let mut g = self.lock();
        g.decoder.feed(chunk);
        self.drain(&mut g);
        g.setup.version = g.decoder.version();
        g.decoder.pending()
    }

    fn drain(&self, g: &mut StreamInner) {
        loop {
            match g.decoder.next_record() {
                // Past a decode error nothing is judged; later records
                // are decoded only to release their bytes.
                Ok(Some(rec)) if g.decode_error.is_none() => self.route(g, rec),
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    self.fail_decode(g, e);
                    break;
                }
            }
        }
    }

    fn fail_decode(&self, g: &mut StreamInner, e: TraceError) {
        if g.decode_error.is_none() {
            g.decode_error = Some(e);
            // Nothing past a decode error can be judged; unblock the
            // executor now.
            self.feed.finish();
        }
    }

    fn route(&self, g: &mut StreamInner, rec: TraceRecord) {
        let event = match g.setup.absorb_setup(rec, g.saw_event) {
            Ok(Some(event)) => event,
            Ok(None) => return,
            Err(e) => return self.fail_decode(g, e),
        };
        if !g.saw_event {
            g.saw_event = true;
            self.spawn_executor(g);
        }
        if let TraceRecord::JniEnter { func, .. } = &event {
            let name = minijni::FuncId(*func).name();
            if !g.called.contains(name) {
                g.called.insert(name.to_string());
            }
        }
        if g.replay_error.is_none() {
            if let Err(e) = g.feeder.push(&event) {
                g.replay_error = Some(e);
                self.feed.finish();
            }
        }
    }

    fn spawn_executor(&self, g: &mut StreamInner) {
        let setup = g.setup.clone();
        let config = self.config.clone();
        let recorder = self.recorder.clone();
        let feed = Arc::clone(&self.feed);
        let handle = std::thread::Builder::new()
            .name(format!("jinn-serve-stream-{}", self.session))
            .spawn(move || run_live_replay(&setup, &config, Some(&recorder), &feed))
            .expect("spawn streaming executor");
        g.executor = Some(handle);
    }

    /// Verifies the client's `Seal` declaration against the scanner's
    /// running byte/checksum totals — same check, precedence, and
    /// wording as the buffered path's reassembled-buffer verification.
    ///
    /// # Errors
    ///
    /// The quarantine reason on mismatch.
    pub(crate) fn verify_declaration(&self, total_len: u64, checksum: u64) -> Result<(), String> {
        let g = self.lock();
        verify_seal_declaration(
            total_len,
            checksum,
            g.decoder.stream_len(),
            g.decoder.stream_fnv(),
        )
        .map_err(|m| m.to_string())
    }

    /// Closes the stream after a successful seal: drains any residual
    /// tail, runs the scanner's end-of-stream verification (missing
    /// `End`, trailing bytes — batch error parity), and finishes the
    /// feed so the executor completes. The worker collects the result.
    pub(crate) fn finalize(&self) {
        let mut g = self.lock();
        self.drain(&mut g);
        if g.decode_error.is_none() {
            if let Err(e) = g.decoder.finish() {
                g.decode_error = Some(e);
            }
        }
        g.feeder.finish();
    }

    /// Worker entry after `Seal`: joins the executor and publishes its
    /// (no-longer-speculative) outcome through the buffered judge's row
    /// helpers. A trace that streamed no events has no executor; its
    /// replay runs here, on the finished feed.
    ///
    /// # Errors
    ///
    /// A quarantine reason, byte-compatible with the buffered judge's.
    pub(crate) fn collect(
        &self,
        tenant: &str,
        manifest: Option<&BTreeSet<String>>,
        pool: &Arc<AtomicEnginePool<u64>>,
        max_events: usize,
    ) -> Result<JudgeOutput, String> {
        let mut g = self.lock();
        if let Some(e) = &g.decode_error {
            return Err(format!("unreadable trace: {e}"));
        }
        let label = self.config.label();
        let joined = g.executor.take().map(JoinHandle::join);
        let replayed = match (g.replay_error.take(), joined) {
            (Some(e), _) => Err(e),
            (None, Some(Ok(result))) => result,
            (None, Some(Err(_))) => return Err(format!("replay under {label} panicked")),
            (None, None) => {
                run_live_replay(&g.setup, &self.config, Some(&self.recorder), &self.feed)
            }
        };
        let outcome = replayed.map_err(|e| format!("replay under {label} failed: {e}"))?;
        let (events, events_dropped, rollups) =
            recorder_rows(self.session, &self.recorder, pool, max_events);
        let mut out = JudgeOutput {
            program: g.setup.program().to_string(),
            outcomes: Vec::with_capacity(1),
            verdicts: Vec::new(),
            events,
            events_dropped,
            rollups,
            obs: obs_counters(&g.setup),
            discharge: discharge_stats(g.setup.program(), &g.called),
            events_replayed: 0,
            divergences: 0,
            outside_manifest: outside_manifest(manifest, &g.called),
        };
        push_replay_rows(self.session, tenant, &self.config, &outcome, &mut out);
        Ok(out)
    }

    /// Tears the session down without publishing anything: quarantine,
    /// abort, and shutdown all land here. Safe to call at any point —
    /// the feed is finished so a running executor drains and exits, and
    /// its result is dropped.
    pub(crate) fn discard(&self) {
        self.feed.finish();
        let mut g = self.lock();
        if let Some(h) = g.executor.take() {
            let _ = h.join();
        }
    }
}
