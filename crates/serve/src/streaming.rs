//! The one ingest object: every session's bytes go through a
//! [`StreamingSession`] from `Open` to judging.
//!
//! Each session owns a resumable record-granularity scanner
//! ([`StreamDecoder`]) that every `Append` feeds, and whose running
//! length and checksum verify the `Seal` declaration in O(1), and the
//! one [`Judge`] that its decoded records drain into. The one decision
//! left, made at `Open`, is *when* the decoder drains:
//!
//! - **Live** (a single-config session opened while a
//!   `streaming_sessions` slot is free): at each `Append`, so the bytes
//!   are released as they decode (only the undecoded tail stays
//!   resident). An `Append` that routes events while the upload is
//!   still arriving (no `End` decoded yet) spawns a replay executor
//!   thread ([`run_live_replay`]) on the first feed, so replay overlaps
//!   the rest of the upload; by `Seal` it has usually kept pace, and
//!   seal-to-verdict work is draining the tail and joining it. A session
//!   whose first event-bearing `Append` also carried `End` has nothing
//!   left to overlap: it spawns no thread, and the worker replays the
//!   finished feed inline.
//! - **Retained** (every other session): at collect, on the worker.
//!   Until then the wire bytes stay resident in the decoder and are
//!   charged to the buffered-bytes budgets; decoded records are larger
//!   than those bytes, so nothing decodes before the worker does.
//!
//! Either way the worker judges through the same [`Judge::judge`]: every
//! config replays on its finished feed, and the recorder is rolled up
//! through fresh engines leased at judging.
//!
//! ## Soundness
//!
//! Everything a live executor computes before seal verification passes
//! is *speculative* and externally invisible: verdicts only become
//! observable through `SessionTable::finish`, which a worker calls
//! strictly after `Seal` succeeded. The executor runs the one replay
//! fold on the same feed the worker would, so a live verdict is the
//! retained verdict. Two checks discard speculation:
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
//! the feeds and fails the session with `replay under … failed: …`.
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
//!
//! [`run_live_replay`]: jinn_replay::run_live_replay

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use jinn_fsm::EnginePool;
use jinn_replay::{verify_seal_declaration, ReplayConfig, StreamDecoder};

use crate::judge::{Judge, JudgeOutput};
use crate::session::SessionId;

/// One session's ingest: the scanner fed by its connection, and the
/// judge its records drain into.
pub(crate) struct StreamingSession {
    session: SessionId,
    /// Whether the session drains as it uploads, replayed by an
    /// executor while the upload is unfinished; fixed at `Open`. Kept
    /// outside the mutex so the stream registry can read it while a
    /// worker holds the lock through a join.
    live: bool,
    inner: Mutex<StreamInner>,
}

struct StreamInner {
    decoder: StreamDecoder,
    judge: Judge,
}

impl StreamingSession {
    /// Starts the scanner and the judge for `configs` (at least one).
    /// A live session's executor thread is spawned later, if at all: at
    /// the end of an `ingest` that routed events while `End` is still to
    /// come.
    pub(crate) fn start(
        session: SessionId,
        configs: &[ReplayConfig],
        recorder_ring: usize,
        live: bool,
    ) -> StreamingSession {
        StreamingSession {
            session,
            live,
            inner: Mutex::new(StreamInner {
                decoder: StreamDecoder::new(),
                judge: Judge::new(configs, recorder_ring),
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
    /// ones still resident. A live session drains whatever records the
    /// chunk completes into its judge, and starts its executor if events
    /// are in while the upload is unfinished; a retained one keeps every
    /// byte.
    pub(crate) fn ingest(&self, chunk: &[u8]) -> u64 {
        let g = &mut *self.lock();
        g.decoder.feed(chunk);
        if self.live {
            g.judge.drain(&mut g.decoder);
            g.judge.overlap(self.session, g.decoder.is_finished());
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

    /// Closes a live stream after a successful seal ([`Judge::close`]),
    /// so its executor completes. A retained stream is left whole for
    /// the worker.
    pub(crate) fn finalize(&self) {
        if self.live {
            let g = &mut *self.lock();
            g.judge.close(&mut g.decoder);
        }
    }

    /// Worker entry after `Seal`: a retained session's decoder drains
    /// into its judge and closes here, then the judge publishes the
    /// (no-longer-speculative) outcome ([`Judge::judge`]). A panic
    /// anywhere in here is contained and counted in `panics`.
    ///
    /// # Errors
    ///
    /// A quarantine reason, as for [`Judge::judge`].
    pub(crate) fn collect(
        &self,
        tenant: &str,
        manifest: Option<&BTreeSet<String>>,
        pool: &EnginePool<u64>,
        max_events: usize,
        panics: &AtomicU64,
    ) -> Result<JudgeOutput, String> {
        // Held outside the unwind boundary, so a contained panic does
        // not poison the session's lock.
        let g = &mut *self.lock();
        let label = g.judge.label();
        let judged = panic::catch_unwind(AssertUnwindSafe(|| {
            if !self.live {
                g.judge.close(&mut g.decoder);
            }
            g.judge
                .judge(self.session, tenant, manifest, pool, max_events, panics)
        }));
        contain(judged, &label, panics)?
    }

    /// Tears the session down without publishing anything: quarantine,
    /// abort, and shutdown all land here. Safe to call at any point — a
    /// running executor drains and exits, and its result is dropped.
    pub(crate) fn discard(&self) {
        self.lock().judge.discard();
    }
}

/// The one containment of a replay panic, for the live executor's join
/// and the worker's collect alike: a caught panic becomes the quarantine
/// reason `replay under {label} panicked` and is counted in `panics`.
pub(crate) fn contain<R>(
    caught: std::thread::Result<R>,
    label: &str,
    panics: &AtomicU64,
) -> Result<R, String> {
    caught.map_err(|_| {
        panics.fetch_add(1, Ordering::Relaxed);
        format!("replay under {label} panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use jinn_replay::{Trace, TraceRecord};

    fn configs(selection: &str) -> Vec<ReplayConfig> {
        selection
            .split(',')
            .map(|label| ReplayConfig::parse(label).unwrap())
            .collect()
    }

    fn has_executor(stream: &StreamingSession) -> bool {
        stream.lock().judge.has_executor()
    }

    /// Seals and collects a session the way a worker does, and renders
    /// the whole output.
    fn seal_and_collect(stream: &StreamingSession, pool: &EnginePool<u64>) -> String {
        stream.finalize();
        let panics = AtomicU64::new(0);
        let out = stream.collect("t", None, pool, 16, &panics).unwrap();
        assert_eq!(panics.load(Ordering::Relaxed), 0);
        format!("{out:?}")
    }

    fn retained_reason(bytes: &[u8]) -> String {
        let stream = StreamingSession::start(1, &configs("jinn"), 64, false);
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

    /// Over the whole corpus, every way a session reaches the judge
    /// gives `judge_trace`'s whole output for the same bytes. A whole
    /// upload in one `Append` decodes `End` in the same ingest that
    /// routes its events, so it spawns no executor and replays inline
    /// at collect. Fed in 64-byte chunks, the same trace gets its
    /// executor at the first chunk that routes an event, unless its
    /// events all arrive with `End`. A retained session drains at
    /// collect, under one config or three.
    #[test]
    fn only_an_unfinished_upload_spawns_an_executor() {
        let pool = EnginePool::new(jinn_spec::machines());
        let (jinn, three) = (configs("jinn"), configs("jinn,xcheck,hotspot"));
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let (mut traces, mut overlapped) = (0, 0);
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "jtrace") {
                continue;
            }
            traces += 1;
            let bytes = std::fs::read(&path).unwrap();
            let name = path.file_name().unwrap().to_string_lossy();
            let judged = |configs: &[ReplayConfig]| {
                let trace = Trace::parse(&bytes).unwrap();
                let out = crate::judge_trace(&trace, 1, "t", configs, &pool, None, 64, 16);
                format!("{:?}", out.unwrap())
            };

            let whole = StreamingSession::start(1, &jinn, 64, true);
            assert_eq!(
                whole.ingest(&bytes),
                0,
                "{name}: live keeps no decoded bytes"
            );
            assert!(
                !has_executor(&whole),
                "{name}: a whole upload spawns no thread"
            );
            assert_eq!(
                seal_and_collect(&whole, &pool),
                judged(&jinn),
                "{name}: whole"
            );

            let chunked = StreamingSession::start(1, &jinn, 64, true);
            let mut chunks = bytes.chunks(64);
            for chunk in chunks.by_ref() {
                chunked.ingest(chunk);
                if has_executor(&chunked) {
                    break;
                }
            }
            let early = event_before_last_chunk(&bytes, 64);
            assert_eq!(has_executor(&chunked), early, "{name}: executor");
            overlapped += usize::from(early);
            for chunk in chunks {
                chunked.ingest(chunk);
            }
            assert_eq!(
                seal_and_collect(&chunked, &pool),
                judged(&jinn),
                "{name}: chunked"
            );

            for configs in [&jinn, &three] {
                let retained = StreamingSession::start(1, configs, 64, false);
                assert_eq!(retained.ingest(&bytes), bytes.len() as u64, "{name}");
                let out = seal_and_collect(&retained, &pool);
                assert_eq!(out, judged(configs), "{name}: retained");
            }
        }
        assert_eq!(traces, 20);
        assert!(overlapped > 0, "some corpus uploads overlap replay");
    }

    /// Whether an event record decodes from the `chunk`-byte chunks
    /// before the last one.
    fn event_before_last_chunk(bytes: &[u8], chunk: usize) -> bool {
        let mut decoder = StreamDecoder::new();
        decoder.feed(&bytes[..(bytes.len() - 1) / chunk * chunk]);
        std::iter::from_fn(|| decoder.next_record().unwrap()).any(|rec| {
            !matches!(
                rec,
                TraceRecord::Meta { .. }
                    | TraceRecord::DefClass(_)
                    | TraceRecord::SpawnThread { .. }
                    | TraceRecord::Seed(_)
            )
        })
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
