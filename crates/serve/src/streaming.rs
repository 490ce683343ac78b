//! The one ingest object: every session's bytes go through a
//! [`StreamingSession`] from `Open` to judging.
//!
//! Each session owns a resumable record-granularity scanner
//! ([`StreamDecoder`]) that every `Append` feeds, and whose running
//! length and checksum verify the `Seal` declaration in O(1). The one
//! decision left, made at `Open`, is whether the session is decoded and
//! replayed while it uploads:
//!
//! - **Live** (a single-config session opened while a
//!   `streaming_sessions` slot is free): each `Append` is decoded as it
//!   arrives, its bytes released as they decode (only the undecoded tail
//!   stays resident), and the event records folded into an
//!   [`EventFeed`]. An `Append` that routes events while the upload is
//!   still arriving (no `End` decoded yet) spawns a replay executor
//!   thread ([`run_live_replay`]) on the feed, so replay overlaps the
//!   rest of the upload; by `Seal` it has usually kept pace, and
//!   seal-to-verdict work is draining the tail and joining it. A session
//!   whose first event-bearing `Append` also carried `End` has nothing
//!   left to overlap: it spawns no thread, and the worker runs the same
//!   replay inline on the finished feed. Either way the recorder is
//!   rolled up through fresh engines leased at `Seal`.
//! - **Retained** (every other session): `Append`s go into the same
//!   decoder without being drained, so the wire bytes stay resident and
//!   are charged to the buffered-bytes budgets. The worker drains the
//!   decoder into a [`Trace`] ([`Trace::absorb_setup`], the split
//!   `Trace::parse` uses) and judges it under every config
//!   ([`judge_trace`]). Decoded records are larger than the wire bytes
//!   the budgets charge, so nothing decodes before the worker does.
//!
//! ## Soundness
//!
//! Everything a live executor computes before seal verification passes
//! is *speculative* and externally invisible: verdicts only become
//! observable through `SessionTable::finish`, which a worker calls
//! strictly after `Seal` succeeded. The executor runs the one replay
//! fold ([`jinn_replay::replay_trace`] runs the same fold on a finished
//! feed), so a live verdict is the retained verdict. Two checks discard
//! speculation:
//!
//! - **Seal mismatch** — the declared length/checksum disagrees with
//!   the running totals: the session is poisoned and nothing is
//!   published.
//! - **Decode error** — the scanner is sticky-poisoned mid-stream
//!   (exact error parity with batch decoding), or a setup record
//!   arrives after the first event: the worker fails the session with
//!   `unreadable trace: …`, the reason a retained session gets for the
//!   same bytes.
//!
//! A structurally invalid event stream (an unbalanced exit, say) stops
//! the feed and fails the session with `replay under … failed: …`.
//!
//! A panic in replay or judging, on the executor or on the worker, is
//! contained ([`contain`]): the session is quarantined with `replay
//! under {label} panicked` (a retained session's first config names
//! it), the daemon counts it in `FleetStats::contained_panics`, and the
//! worker lives on.
//!
//! The manifest audit is decided at seal: the session is flagged
//! `outside_manifest` when its (now complete) call-site set leaves the
//! tenant's declared manifest.

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use jinn_fsm::EnginePool;
use jinn_obs::Recorder;
use jinn_replay::{
    run_live_replay, verify_seal_declaration, EventFeed, LiveFeeder, ReplayConfig, ReplayOutcome,
    StreamDecoder, Trace, TraceError, TraceRecord,
};

use crate::judge::{
    discharge_stats, judge_trace, obs_counters, outside_manifest, push_replay_rows, recorder_rows,
    JudgeOutput,
};
use crate::session::SessionId;

/// One session's ingest: the scanner fed by its connection, and, for a
/// live session, the executor replaying what it decodes.
pub(crate) struct StreamingSession {
    session: SessionId,
    configs: Vec<ReplayConfig>,
    recorder_ring: usize,
    /// Whether the session decodes as it uploads, replayed by an
    /// executor while the upload is unfinished; fixed at `Open`. Kept
    /// outside the mutex so the stream registry can read it while a
    /// worker holds the lock through a join.
    live: bool,
    inner: Mutex<StreamInner>,
}

struct StreamInner {
    decoder: StreamDecoder,
    /// `None` for a retained session.
    live: Option<LiveState>,
}

/// A live session's replay side.
struct LiveState {
    config: ReplayConfig,
    feed: Arc<EventFeed>,
    feeder: LiveFeeder,
    recorder: Recorder,
    /// The trace's setup section, plus any trailing `obs.*` metadata.
    /// Event records go to the feed and are not retained.
    setup: Trace,
    saw_event: bool,
    /// The call-site set, accumulated record-by-record during ingest for
    /// the seal-time manifest and discharge audits.
    called: BTreeSet<String>,
    /// Spawned only while the upload is still arriving; `None` means
    /// the worker replays inline at collect.
    executor: Option<JoinHandle<Result<ReplayOutcome, TraceError>>>,
    decode_error: Option<TraceError>,
    /// A structurally invalid event; feeding stopped at it.
    replay_error: Option<TraceError>,
}

impl StreamingSession {
    /// Starts the scanner. A live session's executor thread is spawned
    /// later, if at all: at the end of an `ingest` that routed events
    /// while `End` is still to come. Only once an event has arrived is
    /// the setup section known complete (a later setup record is a
    /// decode error).
    pub(crate) fn start(
        session: SessionId,
        configs: Vec<ReplayConfig>,
        recorder_ring: usize,
        live: bool,
    ) -> StreamingSession {
        let live_state = live.then(|| {
            let feed = Arc::new(EventFeed::new());
            LiveState {
                config: configs[0],
                feeder: LiveFeeder::new(Arc::clone(&feed)),
                feed,
                recorder: Recorder::enabled(recorder_ring),
                setup: Trace::empty(0),
                saw_event: false,
                called: BTreeSet::new(),
                executor: None,
                decode_error: None,
                replay_error: None,
            }
        });
        StreamingSession {
            session,
            configs,
            recorder_ring,
            live,
            inner: Mutex::new(StreamInner {
                decoder: StreamDecoder::new(),
                live: live_state,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StreamInner> {
        self.inner.lock().expect("streaming session poisoned")
    }

    /// Whether this session decodes as it uploads (and takes a
    /// `streaming_sessions` slot).
    pub(crate) fn is_live(&self) -> bool {
        self.live
    }

    /// Feeds one `Append` chunk and returns the undecoded bytes — the
    /// ones still resident. A live session decodes and routes whatever
    /// records the chunk completes, and starts its executor if events
    /// are in while the upload is unfinished; a retained one keeps every
    /// byte.
    pub(crate) fn ingest(&self, chunk: &[u8]) -> u64 {
        let g = &mut *self.lock();
        g.decoder.feed(chunk);
        if let Some(live) = &mut g.live {
            live.drain(&mut g.decoder);
            if live.executor.is_none()
                && live.saw_event
                && live.decode_error.is_none()
                && live.replay_error.is_none()
                && !g.decoder.is_finished()
            {
                live.spawn_executor(self.session);
            }
        }
        g.decoder.pending()
    }

    /// Verifies the client's `Seal` declaration against the scanner's
    /// running byte/checksum totals.
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

    /// Closes a live stream after a successful seal: drains any residual
    /// tail, runs the scanner's end-of-stream verification (missing
    /// `End`, trailing bytes — batch error parity), and finishes the
    /// feed so the executor completes. A retained stream is left whole
    /// for the worker.
    pub(crate) fn finalize(&self) {
        let g = &mut *self.lock();
        if let Some(live) = &mut g.live {
            live.drain(&mut g.decoder);
            if live.decode_error.is_none() {
                if let Err(e) = g.decoder.finish() {
                    live.decode_error = Some(e);
                }
            }
            live.feeder.finish();
        }
    }

    /// Worker entry after `Seal`. A live session joins its executor, or
    /// replays inline when it has none, and publishes its
    /// (no-longer-speculative) outcome; a retained one is decoded into a
    /// [`Trace`] and judged under every config. A panic anywhere in here
    /// is contained and counted in `panics`.
    ///
    /// # Errors
    ///
    /// A quarantine reason: `unreadable trace: …` for a decode error,
    /// `replay under … failed: …` for a structurally impossible replay,
    /// `replay under … panicked` for a contained panic.
    pub(crate) fn collect(
        &self,
        tenant: &str,
        manifest: Option<&BTreeSet<String>>,
        pool: &EnginePool<u64>,
        max_events: usize,
        panics: &AtomicU64,
    ) -> Result<JudgeOutput, String> {
        let judged = panic::catch_unwind(AssertUnwindSafe(|| {
            let g = &mut *self.lock();
            if let Some(live) = &mut g.live {
                return live.collect(self.session, tenant, manifest, pool, max_events, panics);
            }
            let trace = decode(&mut g.decoder).map_err(|e| format!("unreadable trace: {e}"))?;
            judge_trace(
                &trace,
                self.session,
                tenant,
                &self.configs,
                pool,
                manifest,
                self.recorder_ring,
                max_events,
            )
        }));
        contain(judged, &self.configs[0].label(), panics)?
    }

    /// Tears the session down without publishing anything: quarantine,
    /// abort, and shutdown all land here. Safe to call at any point — a
    /// live feed is finished so a running executor drains and exits, and
    /// its result is dropped.
    pub(crate) fn discard(&self) {
        let mut g = self.lock();
        if let Some(live) = &mut g.live {
            live.feed.finish();
            if let Some(h) = live.executor.take() {
                let _ = h.join();
            }
        }
    }
}

/// The one containment of a replay panic, for the live executor's join
/// and the worker's collect alike: a caught panic becomes the quarantine
/// reason `replay under {label} panicked` and is counted in `panics`.
fn contain<R>(
    caught: std::thread::Result<R>,
    label: &str,
    panics: &AtomicU64,
) -> Result<R, String> {
    caught.map_err(|_| {
        panics.fetch_add(1, Ordering::Relaxed);
        format!("replay under {label} panicked")
    })
}

/// Drains a retained session's decoder into a [`Trace`], with
/// [`Trace::parse`]'s setup/event split and error order.
fn decode(decoder: &mut StreamDecoder) -> Result<Trace, TraceError> {
    let mut trace = Trace::empty(0);
    while let Some(record) = decoder.next_record()? {
        let events_began = !trace.events.is_empty();
        if let Some(event) = trace.absorb_setup(record, events_began)? {
            trace.events.push(event);
        }
    }
    decoder.finish()?;
    trace.version = decoder.version();
    Ok(trace)
}

impl LiveState {
    fn drain(&mut self, decoder: &mut StreamDecoder) {
        loop {
            match decoder.next_record() {
                // Past a decode error nothing is judged; later records
                // are decoded only to release their bytes.
                Ok(Some(rec)) if self.decode_error.is_none() => self.route(rec),
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    self.fail_decode(e);
                    break;
                }
            }
        }
        self.setup.version = decoder.version();
    }

    fn fail_decode(&mut self, e: TraceError) {
        if self.decode_error.is_none() {
            self.decode_error = Some(e);
            // Nothing past a decode error can be judged; unblock the
            // executor now.
            self.feed.finish();
        }
    }

    fn route(&mut self, rec: TraceRecord) {
        let event = match self.setup.absorb_setup(rec, self.saw_event) {
            Ok(Some(event)) => event,
            Ok(None) => return,
            Err(e) => return self.fail_decode(e),
        };
        self.saw_event = true;
        if let TraceRecord::JniEnter { func, .. } = &event {
            let name = minijni::FuncId(*func).name();
            if !self.called.contains(name) {
                self.called.insert(name.to_string());
            }
        }
        if self.replay_error.is_none() {
            if let Err(e) = self.feeder.push(&event) {
                self.replay_error = Some(e);
                self.feed.finish();
            }
        }
    }

    fn spawn_executor(&mut self, session: SessionId) {
        let setup = self.setup.clone();
        let config = self.config;
        let recorder = self.recorder.clone();
        let feed = Arc::clone(&self.feed);
        let handle = std::thread::Builder::new()
            .name(format!("jinn-serve-stream-{session}"))
            .spawn(move || run_live_replay(&setup, &config, Some(&recorder), &feed))
            .expect("spawn streaming executor");
        self.executor = Some(handle);
    }

    /// Joins the executor and builds the session's rows with the same
    /// helpers [`judge_trace`] uses. A session without an executor (its
    /// events all arrived with `End`, or it streamed none) replays here,
    /// on the finished feed.
    fn collect(
        &mut self,
        session: SessionId,
        tenant: &str,
        manifest: Option<&BTreeSet<String>>,
        pool: &EnginePool<u64>,
        max_events: usize,
        panics: &AtomicU64,
    ) -> Result<JudgeOutput, String> {
        if let Some(e) = &self.decode_error {
            return Err(format!("unreadable trace: {e}"));
        }
        let label = self.config.label();
        let joined = self
            .executor
            .take()
            .map(|h| contain(h.join(), &label, panics));
        let replayed = match (self.replay_error.take(), joined) {
            (Some(e), _) => Err(e),
            (None, Some(joined)) => joined?,
            (None, None) => {
                run_live_replay(&self.setup, &self.config, Some(&self.recorder), &self.feed)
            }
        };
        let outcome = replayed.map_err(|e| format!("replay under {label} failed: {e}"))?;
        let (events, events_dropped, rollups) =
            recorder_rows(session, &self.recorder, pool, max_events);
        let mut out = JudgeOutput {
            program: self.setup.program().to_string(),
            outcomes: Vec::with_capacity(1),
            verdicts: Vec::new(),
            events,
            events_dropped,
            rollups,
            obs: obs_counters(&self.setup),
            discharge: discharge_stats(self.setup.program(), &self.called),
            events_replayed: 0,
            divergences: 0,
            outside_manifest: outside_manifest(manifest, &self.called),
        };
        push_replay_rows(session, tenant, &self.config, &outcome, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest corpus trace: 1576 bytes, several native calls.
    const TRACE: &[u8] = include_bytes!("../../../tests/corpus/SvnInfoCallback.jtrace");

    fn jinn() -> ReplayConfig {
        ReplayConfig::parse("jinn").unwrap()
    }

    fn has_executor(stream: &StreamingSession) -> bool {
        let g = stream.lock();
        g.live.as_ref().expect("a live session").executor.is_some()
    }

    /// Seals and collects a live session the way a worker does.
    fn seal_and_collect(stream: &StreamingSession, pool: &EnginePool<u64>) -> String {
        stream.finalize();
        let panics = AtomicU64::new(0);
        let out = stream.collect("t", None, pool, 16, &panics).unwrap();
        assert_eq!(panics.load(Ordering::Relaxed), 0);
        format!("{out:?}")
    }

    fn retained_reason(bytes: &[u8]) -> String {
        let stream = StreamingSession::start(1, vec![jinn()], 64, false);
        assert_eq!(stream.ingest(bytes), bytes.len() as u64, "retained");
        let pool = EnginePool::new(jinn_spec::machines());
        let panics = AtomicU64::new(0);
        stream.collect("t", None, &pool, 16, &panics).unwrap_err()
    }

    #[test]
    fn unreadable_bytes_are_a_quarantine_reason() {
        for bytes in [&b"not a trace"[..], b"JTRC", b"JTRC\x01\x00\x7f"] {
            let batch = Trace::parse(bytes).unwrap_err();
            assert_eq!(retained_reason(bytes), format!("unreadable trace: {batch}"));
        }
    }

    /// A whole upload in one `Append` decodes `End` in the same ingest
    /// that routes its events, so it spawns no executor and replays
    /// inline at collect, with `judge_trace`'s output for the same
    /// bytes. Fed in 64-byte chunks, the same trace gets its executor
    /// at the first chunk that routes an event, and judges the same.
    #[test]
    fn only_an_unfinished_upload_spawns_an_executor() {
        let pool = EnginePool::new(jinn_spec::machines());
        let judged = judge_trace(
            &Trace::parse(TRACE).unwrap(),
            1,
            "t",
            &[jinn()],
            &pool,
            None,
            64,
            16,
        )
        .unwrap();
        let judged = format!("{judged:?}");

        let whole = StreamingSession::start(1, vec![jinn()], 64, true);
        assert_eq!(
            whole.ingest(TRACE),
            0,
            "a live session keeps no decoded bytes"
        );
        assert!(!has_executor(&whole), "a finished upload spawns no thread");
        assert_eq!(seal_and_collect(&whole, &pool), judged);

        let chunked = StreamingSession::start(1, vec![jinn()], 64, true);
        let mut chunks = TRACE.chunks(64);
        for chunk in chunks.by_ref() {
            chunked.ingest(chunk);
            if chunked.lock().live.as_ref().unwrap().saw_event {
                break;
            }
        }
        assert!(chunks.len() > 0, "events arrive before the last chunk");
        assert!(
            has_executor(&chunked),
            "an unfinished upload replays on its executor"
        );
        for chunk in chunks {
            chunked.ingest(chunk);
        }
        assert_eq!(seal_and_collect(&chunked, &pool), judged);
    }

    #[test]
    fn a_contained_panic_is_a_counted_quarantine_reason() {
        let panics = AtomicU64::new(0);
        let caught = panic::catch_unwind(|| -> u32 { panic!("replay blew up") });
        assert_eq!(
            contain(caught, "jinn", &panics),
            Err("replay under jinn panicked".to_string())
        );
        assert_eq!(panics.load(Ordering::Relaxed), 1);
        assert_eq!(contain(Ok(7), "jinn", &panics), Ok(7));
        assert_eq!(panics.load(Ordering::Relaxed), 1, "only panics count");
    }
}
