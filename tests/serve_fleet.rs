//! Fleet-scale daemon integration test: ≥64 concurrent sessions stream
//! golden-corpus traces through the frame codec into `jinn-serve`, and
//! every session's verdict multiset must match a single-process
//! `replay check` of the same trace — with corrupt-frame sessions
//! quarantined and the rest of the fleet unharmed.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::thread;

use jinn::jni::typed;
use jinn::jvm::JValue;
use jinn::microbench::{Behavior, Setup};
use jinn::replay::format::fnv1a;
use jinn::replay::{
    decode_stream, encode_frame, encode_ingest, program_names, record_program, replay_bytes,
    replay_trace, Frame, Program, ReplayConfig, StreamDecoder, Trace, TraceRecord,
};
use jinn::serve::{Daemon, Query, QueryItem, QueryKind, ServeConfig, SessionState, SessionStats};

fn corpus_bytes(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/corpus/{name}.jtrace", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn corpus_names() -> Vec<String> {
    program_names()
}

/// The verdict multiset of one local replay: (machine, error_state,
/// function) → count.
fn local_multiset(bytes: &[u8], config: &ReplayConfig) -> BTreeMap<(String, String, String), u64> {
    let trace = Trace::parse(bytes).expect("corpus trace parses");
    let outcome = replay_trace(&trace, config).expect("local replay succeeds");
    let mut set = BTreeMap::new();
    for v in &outcome.violations {
        *set.entry((
            v.machine.to_string(),
            v.error_state.to_string(),
            v.function.clone(),
        ))
        .or_insert(0u64) += 1;
    }
    set
}

/// The daemon's verdict multiset for one session, via the query API
/// (paginated to exercise the cursor).
fn served_multiset(
    handle: &jinn::serve::DaemonHandle,
    session: u64,
) -> BTreeMap<(String, String, String), u64> {
    let mut set = BTreeMap::new();
    let mut cursor = None;
    loop {
        let page = handle.query(&Query {
            kind: QueryKind::Verdicts,
            session: Some(session),
            cursor,
            limit: 3, // tiny page size: force pagination
            ..Query::default()
        });
        for item in &page.items {
            let QueryItem::Verdict(v) = item else {
                panic!("verdict query returned a non-verdict row")
            };
            *set.entry((v.machine.clone(), v.error_state.clone(), v.function.clone()))
                .or_insert(0u64) += 1;
        }
        match page.next_cursor {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }
    set
}

/// Every surfaced record of a trace, with the byte offset where it ends
/// and the raw records (intern definitions included) decoded through
/// it. The bytes from one record's end to the next one's are the next
/// record plus the intern definitions it introduces.
fn records_of(bytes: &[u8]) -> Vec<(TraceRecord, usize, u64)> {
    let mut dec = StreamDecoder::new();
    let mut records = Vec::new();
    for (i, b) in bytes.iter().enumerate() {
        dec.feed(std::slice::from_ref(b));
        while let Some(rec) = dec.next_record().expect("corpus trace decodes") {
            records.push((rec, i + 1, dec.records_decoded()));
        }
    }
    records
}

/// Appends the `End` record to `body` (header plus records): tag, the
/// raw-record count, and the checksum of everything before the tag.
fn seal_records(mut body: Vec<u8>, raw_records: u64) -> Vec<u8> {
    let sum = fnv1a(&body);
    body.push(0xFF);
    let mut count = raw_records;
    loop {
        let byte = (count & 0x7F) as u8;
        count >>= 7;
        if count == 0 {
            body.push(byte);
            break;
        }
        body.push(byte | 0x80);
    }
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

fn is_setup(rec: &TraceRecord) -> bool {
    matches!(
        rec,
        TraceRecord::Meta { .. }
            | TraceRecord::DefClass(_)
            | TraceRecord::SpawnThread { .. }
            | TraceRecord::Seed(_)
    )
}

#[test]
fn fleet_of_64_sessions_matches_single_process_replay() {
    const SESSIONS: u64 = 64;
    const CORRUPT: &[u64] = &[11, 37]; // two poisoned sessions in the fleet

    let names = corpus_names();
    let traces: Arc<Vec<(String, Vec<u8>)>> =
        Arc::new(names.iter().map(|n| (n.clone(), corpus_bytes(n))).collect());

    let daemon = Daemon::start(ServeConfig {
        workers: 4,
        retention_bytes: 64 * 1024 * 1024, // plenty: no purge in this test
        max_events_per_session: 128,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();

    // 64 client threads, each streaming one corpus trace (round-robin)
    // through the real frame codec into the in-process handle.
    let mut clients = Vec::new();
    for session in 0..SESSIONS {
        let handle = handle.clone();
        let traces = Arc::clone(&traces);
        clients.push(thread::spawn(move || {
            let (_, bytes) = &traces[session as usize % traces.len()];
            let corrupt = CORRUPT.contains(&session);
            let tenant = format!("tenant-{}", session % 4);
            let stream = encode_ingest(session, &tenant, "jinn", bytes, 1024);
            let mut frames = decode_stream(&stream).expect("self-encoded stream decodes");
            if corrupt {
                // Flip a byte mid-trace: the Seal declaration no longer
                // matches the reassembled bytes, so seal must quarantine.
                let mid = frames.len() / 2;
                if let Frame::Append { session, chunk } = &frames[mid] {
                    let mut bad = chunk.clone();
                    let at = bad.len() / 2;
                    bad[at] ^= 0x40;
                    frames[mid] = Frame::Append {
                        session: *session,
                        chunk: bad,
                    };
                } else {
                    panic!("expected an Append frame mid-stream");
                }
            }
            let mut seal_err = None;
            for frame in &frames {
                if let Err(e) = handle.apply_frame(frame) {
                    seal_err = Some(e.to_string());
                    break;
                }
            }
            let stats = handle.wait_session(session).expect("session exists");
            (session, corrupt, seal_err, stats)
        }));
    }

    for client in clients {
        let (session, corrupt, seal_err, stats) = client.join().expect("client thread");
        if corrupt {
            assert_eq!(
                stats.state,
                SessionState::Quarantined,
                "session {session}: corrupt ingest must quarantine"
            );
            let err = seal_err.unwrap_or_else(|| panic!("session {session}: seal should fail"));
            assert!(
                err.contains("quarantined"),
                "session {session}: unexpected error `{err}`"
            );
        } else {
            assert_eq!(
                stats.state,
                SessionState::Judged,
                "session {session}: {:?}",
                stats.reason
            );
            assert!(
                seal_err.is_none(),
                "session {session}: clean ingest errored"
            );
        }
    }

    // Every healthy session's verdict multiset equals the single-process
    // replay of its trace under the same checker stack.
    let jinn = ReplayConfig::parse("jinn").unwrap();
    let mut local_cache: BTreeMap<usize, BTreeMap<(String, String, String), u64>> = BTreeMap::new();
    for session in 0..SESSIONS {
        if CORRUPT.contains(&session) {
            assert!(
                served_multiset(&handle, session).is_empty(),
                "session {session}: quarantined session must hold no verdicts"
            );
            continue;
        }
        let idx = session as usize % traces.len();
        let local = local_cache
            .entry(idx)
            .or_insert_with(|| local_multiset(&traces[idx].1, &jinn))
            .clone();
        let served = served_multiset(&handle, session);
        assert_eq!(
            served, local,
            "session {session} ({}): daemon verdicts diverge from replay check",
            traces[idx].0
        );
    }

    // Fleet accounting: the poison stayed contained.
    let fleet = handle.fleet();
    assert_eq!(fleet.opened, SESSIONS);
    assert_eq!(fleet.quarantined, CORRUPT.len() as u64);
    assert_eq!(fleet.judged, SESSIONS - CORRUPT.len() as u64);
    assert_eq!(fleet.live, 0);

    // Recorder coverage (the ring-drop count) surfaces in per-session
    // stats.
    for session in 0..SESSIONS {
        if CORRUPT.contains(&session) {
            continue;
        }
        let stats = handle.session_stats(session).expect("stats");
        let json = stats.to_json();
        assert!(
            json.contains("\"obs\":{\"dropped\":"),
            "session {session}: judged session must expose obs counters, got {json}"
        );
    }

    daemon.shutdown();
}

/// Manifest-audit pin: declaring a manifest changes no verdict and no
/// rollup. One daemon judges the whole corpus for a tenant that
/// declared nothing, one whose manifest covers every trace, and one
/// whose manifest covers almost nothing. All three get the local
/// replay's verdict multisets and identical rollups per trace, and only
/// the lying tenant's sessions are flagged `outside_manifest`.
#[test]
fn declared_manifests_flag_without_changing_verdicts_across_corpus() {
    const HONEST: u64 = 1000;
    const LIAR: u64 = 2000;
    let names = corpus_names();
    assert!(names.len() >= 20, "corpus spans at least 20 traces");
    let traces: Vec<(String, Vec<u8>)> =
        names.iter().map(|n| (n.clone(), corpus_bytes(n))).collect();

    let daemon = Daemon::start(ServeConfig::default());
    let handle = daemon.handle();

    // The honest manifest is the union of every corpus trace's own
    // call-site set; the lying one claims a workload that calls almost
    // nothing, so every real trace leaves it.
    let mut union = std::collections::BTreeSet::new();
    for (_, bytes) in &traces {
        union.extend(
            Trace::parse(bytes)
                .expect("corpus trace")
                .called_functions(),
        );
    }
    let honest: Vec<String> = union.into_iter().collect();
    let summary = handle
        .declare_manifest("honest", &honest)
        .expect("declare honest manifest");
    assert!(summary.discharged > 0, "discharge pass elides something");
    handle
        .declare_manifest("liar", &["IsSameObject".to_string()])
        .expect("declare lying manifest");

    for (i, (_, bytes)) in traces.iter().enumerate() {
        let i = i as u64;
        for (id, tenant) in [(i, "plain"), (HONEST + i, "honest"), (LIAR + i, "liar")] {
            for frame in decode_stream(&encode_ingest(id, tenant, "jinn", bytes, 4096)).unwrap() {
                handle.apply_frame(&frame).expect("ingest");
            }
        }
    }
    handle.wait_idle();

    let config = ReplayConfig::parse("jinn").unwrap();
    let mut rolled_up = 0;
    for (i, (name, bytes)) in traces.iter().enumerate() {
        let i = i as u64;
        let local = local_multiset(bytes, &config);
        let rollups = handle.rollups(i);
        rolled_up += usize::from(!rollups.is_empty());
        for (id, flagged) in [(i, false), (HONEST + i, false), (LIAR + i, true)] {
            let stats = handle.session_stats(id).expect("stats");
            assert_eq!(
                stats.state,
                SessionState::Judged,
                "{name}: {:?}",
                stats.reason
            );
            assert_eq!(
                served_multiset(&handle, id),
                local,
                "{name} session {id}: a manifest changed the verdicts"
            );
            assert_eq!(
                handle.rollups(id),
                rollups,
                "{name} session {id}: a manifest changed the rollups"
            );
            assert_eq!(
                stats.outside_manifest, flagged,
                "{name} session {id}: only the lying tenant is flagged"
            );
        }
    }
    assert!(rolled_up > traces.len() / 2, "most traces roll up");
    assert_eq!(
        handle.fleet().outside_manifest_sessions,
        traces.len() as u64
    );

    daemon.shutdown();
}

/// Live-judging pin: a daemon whose every session a live executor
/// replays while it uploads must be observationally identical to a
/// daemon whose every session is retained until a worker judges it, fed
/// the *same frame sequences* — same verdict multisets across the full
/// corpus, same quarantine reasons for seal-mismatch and unreadable-trace
/// input, same abort handling, and the same `outside_manifest` flag for a
/// lying manifest — while actually streaming (`stats.streamed`,
/// `fleet.streamed_sessions`) and holding far fewer bytes resident
/// (`buffered_bytes_high_water`). Every unreadable-trace reason is pinned
/// to the batch parser: `unreadable trace: ` and `Trace::parse`'s error
/// for the uploaded bytes.
///
/// The corpus runs twice: each trace uploaded whole in one `Append` (a
/// live session that spawns no executor thread and replays inline at
/// collect) and in 64-byte chunks (a live session whose executor
/// replays while the rest uploads).
#[test]
fn streaming_daemon_matches_buffered_daemon_across_corpus() {
    streaming_matches_buffered(usize::MAX);
    streaming_matches_buffered(64);
}

fn streaming_matches_buffered(chunk: usize) {
    const CORRUPT: u64 = 1000; // flipped byte, stale seal declaration
    const UNREADABLE: u64 = 2000; // flipped byte, *honest* seal declaration
    const ABORTED: u64 = 3000;
    const LIAR: u64 = 4000;
    const SETUP_ONLY: u64 = 5000; // the setup section alone, re-sealed
    const LATE_SETUP: u64 = 6000; // a DefClass after the first event
    const TRUNCATED: u64 = 7000; // the End record cut short, honest seal

    let names = corpus_names();
    let traces: Vec<(String, Vec<u8>)> =
        names.iter().map(|n| (n.clone(), corpus_bytes(n))).collect();

    let live = Daemon::start(ServeConfig {
        streaming_sessions: 4096, // every session is replayed live
        ..ServeConfig::default()
    });
    let retaining = Daemon::start(ServeConfig {
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    let sh = live.handle();
    let bh = retaining.handle();
    for h in [&sh, &bh] {
        h.declare_manifest("liar", &["IsSameObject".to_string()])
            .expect("declare lying manifest");
    }

    let uploaded = |frames: &[Frame]| -> Vec<u8> {
        frames
            .iter()
            .filter_map(|f| match f {
                Frame::Append { chunk, .. } => Some(chunk.as_slice()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .concat()
    };
    let drive = |h: &jinn::serve::DaemonHandle, id: u64, frames: &[Frame]| {
        let mut err = None;
        for frame in frames {
            if let Err(e) = h.apply_frame(frame) {
                err = Some(e.to_string());
                break;
            }
        }
        (err, h.wait_session(id).expect("session exists"))
    };
    let clean = |id: u64, tenant: &str, bytes: &[u8]| {
        decode_stream(&encode_ingest(id, tenant, "jinn", bytes, chunk)).unwrap()
    };
    let flip_mid_append = |frames: &mut [Frame]| {
        let mid = frames.len() / 2;
        let Frame::Append { chunk, .. } = &mut frames[mid] else {
            panic!("expected an Append frame mid-stream");
        };
        let at = chunk.len() / 2;
        chunk[at] ^= 0x40;
    };

    for (i, (name, bytes)) in traces.iter().enumerate() {
        let i = i as u64;

        let mut corrupt = clean(CORRUPT + i, "t", bytes);
        flip_mid_append(&mut corrupt);

        // Re-declare the seal over the corrupted bytes: the envelope is
        // now honest, so the damage only surfaces when the *trace* is
        // decoded — mid-stream in a live session, by the worker in a
        // retained one. Both must quarantine with the same reason.
        let mut unreadable = clean(UNREADABLE + i, "t", bytes);
        flip_mid_append(&mut unreadable);
        let rejoined = uploaded(&unreadable);
        let last = unreadable.len() - 1;
        unreadable[last] = Frame::Seal {
            session: UNREADABLE + i,
            total_len: rejoined.len() as u64,
            checksum: fnv1a(&rejoined),
        };

        // Mid-stream client cancellation: speculative live state
        // must be discarded, never judged.
        let mut aborted = clean(ABORTED + i, "t", bytes);
        aborted.pop(); // drop the Seal
        aborted.push(Frame::Abort {
            session: ABORTED + i,
            reason: "client gave up".into(),
        });

        // Wire-valid re-sealed variants, cut at record boundaries.
        let records = records_of(bytes);
        let first_event = records
            .iter()
            .position(|(r, _, _)| !is_setup(r))
            .expect("corpus trace has events");
        let (_, setup_end, setup_raw) = records[first_event - 1];
        let setup_only = seal_records(bytes[..setup_end].to_vec(), setup_raw);
        // Intern ids must stay in order, so rather than move a DefClass
        // (which brings intern definitions) behind the first event, move
        // a copy of the first event — a NativeEnter, one raw record with
        // no interns — in front of the first DefClass.
        let class_at = records
            .iter()
            .position(|(r, _, _)| matches!(r, TraceRecord::DefClass(_)))
            .expect("corpus trace defines a class");
        let (_, class_start, _) = records[class_at - 1];
        let (_, event_start, before_event) = records[first_event - 1];
        let (ref event, event_end, through_event) = records[first_event];
        assert!(matches!(event, TraceRecord::NativeEnter { .. }));
        assert_eq!(through_event - before_event, 1, "{name}: one raw record");
        let &(_, end_pos, raw) = records.last().expect("records decoded");
        let mut body = bytes[..class_start].to_vec();
        body.extend_from_slice(&bytes[event_start..event_end]);
        body.extend_from_slice(&bytes[class_start..end_pos]);
        let late_setup = seal_records(body, raw + 1);
        let truncated = &bytes[..bytes.len() - 3];

        for (base, frames) in [
            (0, clean(i, "t", bytes)),
            (CORRUPT, corrupt),
            (UNREADABLE, unreadable),
            (ABORTED, aborted),
            (LIAR, clean(LIAR + i, "liar", bytes)),
            (SETUP_ONLY, clean(SETUP_ONLY + i, "t", &setup_only)),
            (LATE_SETUP, clean(LATE_SETUP + i, "t", &late_setup)),
            (TRUNCATED, clean(TRUNCATED + i, "t", truncated)),
        ] {
            let id = base + i;
            let (serr, s) = drive(&sh, id, &frames);
            let (berr, b) = drive(&bh, id, &frames);
            let batch_reason = || {
                let err = Trace::parse(&uploaded(&frames)).expect_err("unreadable upload");
                Some(format!("unreadable trace: {err}"))
            };
            assert_eq!(
                s.state, b.state,
                "{name} session {id}: {:?} vs {:?}",
                s.reason, b.reason
            );
            assert_eq!(s.reason, b.reason, "{name} session {id}: reasons diverge");
            assert_eq!(serr, berr, "{name} session {id}: ingest errors diverge");
            assert_eq!(
                served_multiset(&sh, id),
                served_multiset(&bh, id),
                "{name} session {id}: live verdicts diverge from retained"
            );
            match base {
                0 | LIAR => {
                    assert_eq!(s.state, SessionState::Judged, "{name}: {:?}", s.reason);
                    assert!(s.streamed, "{name} session {id}: live replay did not run");
                    assert!(!b.streamed);
                    assert!(s.seal_to_verdict_micros.is_some());
                    assert!(s.first_frame_micros.is_some());
                    assert_eq!(
                        (s.outside_manifest, b.outside_manifest),
                        (base == LIAR, base == LIAR),
                        "{name} session {id}: only LIAR sessions are flagged, live or retained"
                    );
                }
                CORRUPT => {
                    assert_eq!(s.state, SessionState::Quarantined);
                    assert!(serr.expect("seal must fail").contains("quarantined"));
                    assert!(served_multiset(&sh, id).is_empty());
                }
                UNREADABLE | TRUNCATED => {
                    assert_eq!(s.state, SessionState::Quarantined);
                    assert!(serr.is_none(), "honest seal must be accepted");
                    assert_eq!(s.reason, batch_reason(), "{name} session {id}");
                }
                ABORTED => assert_eq!(s.state, SessionState::Aborted),
                SETUP_ONLY => {
                    assert_eq!(s.state, SessionState::Quarantined);
                    let reason = s.reason.expect("failure reason");
                    assert!(
                        reason.contains("no top-level entries"),
                        "{name}: unexpected reason `{reason}`"
                    );
                }
                LATE_SETUP => {
                    assert_eq!(s.state, SessionState::Quarantined);
                    assert!(serr.is_none(), "the seal is honest");
                    assert_eq!(s.reason, batch_reason(), "{name} session {id}");
                    let reason = s.reason.expect("quarantine reason");
                    assert!(
                        reason.ends_with("setup record in event stream"),
                        "{name}: unexpected reason `{reason}`"
                    );
                }
                _ => unreachable!(),
            }
        }
    }

    // Live replay really ran, and with chunked uploads it held less
    // resident than retaining: the retaining daemon's high-water is at
    // least one whole trace, the live daemon's only the undecoded tail
    // of an in-flight chunk. A whole-trace `Append` is charged in full
    // on both daemons before it decodes.
    let sf = sh.fleet();
    let bf = bh.fleet();
    assert_eq!(sf.judged, bf.judged);
    assert_eq!(sf.quarantined, bf.quarantined);
    assert_eq!(sf.streamed_sessions, 2 * traces.len() as u64);
    assert_eq!(bf.streamed_sessions, 0);
    assert_eq!((sf.contained_panics, bf.contained_panics), (0, 0));
    let max_len = traces.iter().map(|(_, b)| b.len() as u64).max().unwrap();
    assert!(
        bf.buffered_bytes_high_water >= max_len,
        "retaining daemon must hold a whole trace at seal"
    );
    assert!(
        chunk as u64 >= max_len || sf.buffered_bytes_high_water < bf.buffered_bytes_high_water,
        "live daemon held {} resident bytes, retaining {}",
        sf.buffered_bytes_high_water,
        bf.buffered_bytes_high_water
    );

    live.shutdown();
    retaining.shutdown();
}

/// An activation still open at end of trace re-issues its recorded
/// calls and returns `Void` (TRACE_FORMAT.md, "Replay semantics"). A
/// live session judges such a trace in the one pass it streams, with
/// exactly a retained session's result.
#[test]
fn open_activation_at_end_of_trace_judges_identically_on_both_paths() {
    // Build the open activation from a *real* corpus trace so every
    // method id resolves: duplicate one of its own NativeEnter records
    // (with any intern definitions before it) in front of the End
    // record, then re-seal with the new count and checksum.
    let bytes = corpus_bytes("LocalRefDangling");
    let records = records_of(&bytes);
    let enter_at = records
        .iter()
        .position(|(r, _, _)| matches!(r, TraceRecord::NativeEnter { .. }))
        .expect("corpus trace has a native activation");
    assert!(enter_at > 0, "a setup record precedes the first activation");
    let (_, prev_end, prev_raw) = records[enter_at - 1];
    let (_, enter_end, enter_raw) = records[enter_at];
    let &(_, end_pos, raw) = records.last().expect("records decoded");
    assert_eq!(bytes[end_pos], 0xFF, "End tag follows the last record");
    let mut body = bytes[..end_pos].to_vec();
    body.extend_from_slice(&bytes[prev_end..enter_end]);
    let spliced = seal_records(body, raw + enter_raw - prev_raw);
    let parsed = Trace::parse(&spliced).expect("splice is wire-valid");
    assert_eq!(
        parsed.events.len(),
        records.iter().filter(|(r, _, _)| !is_setup(r)).count() + 1,
        "splice adds exactly one event"
    );
    let config = ReplayConfig::parse("jinn").unwrap();
    let local = replay_trace(&parsed, &config).expect("open activation replays");

    let live = Daemon::start(ServeConfig {
        streaming_sessions: 4096,
        ..ServeConfig::default()
    });
    let retaining = Daemon::start(ServeConfig {
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    let mut outcomes = Vec::new();
    for daemon in [&live, &retaining] {
        let handle = daemon.handle();
        for frame in decode_stream(&encode_ingest(9, "t", "jinn", &spliced, 64)).unwrap() {
            handle.apply_frame(&frame).expect("ingest");
        }
        let stats = handle.wait_session(9).expect("session exists");
        assert_eq!(stats.state, SessionState::Judged, "{:?}", stats.reason);
        assert_eq!(stats.events_replayed, local.events_replayed);
        assert_eq!(stats.divergences, local.divergences);
        outcomes.push((
            stats.state,
            stats.reason.clone(),
            stats.events_replayed,
            stats.divergences,
            served_multiset(&handle, 9),
        ));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "open activation: live diverges from retained"
    );
    assert_eq!(outcomes[0].4, local_multiset(&spliced, &config));
    let sh = live.handle();
    assert!(
        sh.session_stats(9).expect("stats").streamed,
        "the session was replayed live"
    );
    // One engine lease, taken at seal, served the rollup: no second
    // judge ran beside the live one.
    assert_eq!(sh.pool_stats().leases, 1, "{:?}", sh.pool_stats());
    live.shutdown();
    retaining.shutdown();
}

/// `RecursiveNative.call(I)V`: a bug-free native that allocates and
/// frees one string, then — while `n > 0` — looks itself up and calls
/// itself on `n - 1` through `CallStaticVoidMethod`, starting at 3.
fn recursive_native_program() -> Program {
    Program {
        name: "RecursiveNative".into(),
        pitfall: None,
        // Metadata only: the program is bug-free by construction.
        machine: "local-reference",
        error_state: "Ok",
        leaks: false,
        gc_period: None,
        build: Box::new(|vm| {
            let (_, entry) = vm.define_native_class(
                "RecursiveNative",
                "call",
                "(I)V",
                true,
                Rc::new(|env, args| {
                    let s = typed::new_string_utf(env, "depth")?;
                    typed::delete_local_ref(env, s)?;
                    let n = match args {
                        [JValue::Int(n), ..] => *n,
                        _ => 0,
                    };
                    if n > 0 {
                        let class = typed::find_class(env, "RecursiveNative")?;
                        let call = typed::get_static_method_id(env, class, "call", "(I)V")?;
                        typed::call_static_void_method(env, class, call, &[JValue::Int(n - 1)])?;
                        typed::delete_local_ref(env, class)?;
                    }
                    Ok(JValue::Void)
                }),
            );
            Setup {
                entries: vec![entry],
                first_args: vec![JValue::Int(3)],
            }
        }),
    }
}

/// Activations of one method are consumed in enter order, the order a
/// re-executing VM asks for them: a recursive native replays every
/// recorded call, cleanly, under every configuration, replayed live or
/// retained.
#[test]
fn recursive_native_replays_every_recorded_call() {
    let bytes = record_program(&recursive_native_program());
    let trace = Trace::parse(&bytes).expect("recording parses");
    let recorded = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceRecord::JniEnter { .. }))
        .count() as u64;
    assert_eq!(recorded, 20, "three levels of six calls, then two");

    let labels = ["jinn", "hotspot", "j9", "xcheck", "xcheck:j9"];
    for label in labels {
        let config = ReplayConfig::parse(label).unwrap();
        let out = replay_trace(&trace, &config).expect("replays");
        assert_eq!(out.events_replayed, recorded, "{label}: {out:?}");
        assert_eq!(out.divergences, 0, "{label}: {out:?}");
        assert_eq!(out.behavior, Behavior::Running, "{label}: {out:?}");
        assert!(out.violations.is_empty(), "{label}: {out:?}");
    }

    let live = Daemon::start(ServeConfig {
        streaming_sessions: 4096,
        ..ServeConfig::default()
    });
    let retaining = Daemon::start(ServeConfig {
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    let (sh, bh) = (live.handle(), retaining.handle());
    for (id, label) in (1u64..).zip(labels) {
        let mut served = Vec::new();
        for handle in [&sh, &bh] {
            for frame in decode_stream(&encode_ingest(id, "t", label, &bytes, 64)).unwrap() {
                handle.apply_frame(&frame).expect("ingest");
            }
            let stats = handle.wait_session(id).expect("session exists");
            assert_eq!(
                stats.state,
                SessionState::Judged,
                "{label}: {:?}",
                stats.reason
            );
            assert_eq!(stats.events_replayed, recorded, "{label}");
            assert_eq!(stats.divergences, 0, "{label}");
            served.push(served_multiset(handle, id));
        }
        assert!(sh.session_stats(id).expect("stats").streamed, "{label}");
        assert_eq!(served[0], served[1], "{label}: live diverges from retained");
    }
    live.shutdown();
    retaining.shutdown();
}

/// A bug-free string churn per call, then one global reference leaked:
/// every call adds a few kilobytes of trace and one leak verdict.
fn leaky_churn_program(calls: usize) -> Program {
    Program {
        name: "LeakyChurn".into(),
        pitfall: None,
        machine: "global-reference",
        error_state: "Error:Leak",
        leaks: true,
        gc_period: Some(64),
        build: Box::new(move |vm| {
            let (_, entry) = vm.define_native_class(
                "LeakyChurn",
                "call",
                "()V",
                true,
                Rc::new(|env, _| {
                    for i in 0..200 {
                        let s = typed::new_string_utf(env, &format!("churn-{i}"))?;
                        typed::get_string_utf_length(env, s)?;
                        typed::delete_local_ref(env, s)?;
                    }
                    let s = typed::new_string_utf(env, "kept")?;
                    // Missing DeleteGlobalRef.
                    typed::new_global_ref(env, s)?;
                    typed::delete_local_ref(env, s)?;
                    Ok(JValue::Void)
                }),
            );
            Setup {
                entries: vec![entry; calls],
                first_args: Vec::new(),
            }
        }),
    }
}

/// One `Append` may carry a whole trace past 1 MiB. A live session and a
/// retained (three-config) one must judge it exactly as they judge the
/// same trace in 2 KiB appends.
#[test]
fn one_mebibyte_append_judges_like_small_appends() {
    let bytes = record_program(&leaky_churn_program(120));
    assert!(bytes.len() >= 1 << 20, "trace is {} bytes", bytes.len());
    let daemon = Daemon::start(ServeConfig::default());
    let handle = daemon.handle();
    let sessions = [
        (1, "jinn", bytes.len()),
        (2, "jinn", 2048),
        (3, "jinn,hotspot,j9", bytes.len()),
        (4, "jinn,hotspot,j9", 2048),
    ];
    for (id, configs, chunk) in sessions {
        for frame in decode_stream(&encode_ingest(id, "t", configs, &bytes, chunk)).unwrap() {
            handle.apply_frame(&frame).expect("ingest");
        }
    }
    let stats: Vec<_> = sessions
        .iter()
        .map(|&(id, ..)| handle.wait_session(id).expect("session exists"))
        .collect();
    for s in &stats {
        assert_eq!(
            s.state,
            SessionState::Judged,
            "{}: {:?}",
            s.session,
            s.reason
        );
        assert_eq!(s.streamed, s.configs.len() == 1, "session {}", s.session);
    }
    let served: Vec<_> = (1..=4).map(|id| served_multiset(&handle, id)).collect();
    let jinn = ReplayConfig::parse("jinn").unwrap();
    assert_eq!(served[0], local_multiset(&bytes, &jinn));
    assert!(!served[0].is_empty(), "every call leaks a global reference");
    assert_eq!(served[1], served[0], "live: one append vs 2 KiB appends");
    assert_eq!(
        served[3], served[2],
        "retained: one append vs 2 KiB appends"
    );
    for (a, b) in [(0, 1), (2, 3)] {
        assert_eq!(stats[a].events_replayed, stats[b].events_replayed);
        assert_eq!(
            handle.rollups(stats[a].session),
            handle.rollups(stats[b].session)
        );
    }
    daemon.shutdown();
}

#[test]
fn frame_stream_corruption_is_contained_to_its_connection() {
    // Stream-level corruption (bad frame checksum) — distinct from the
    // seal-declaration mismatch above — must poison only the sessions the
    // bad stream opened.
    let daemon = Daemon::start(ServeConfig::default());
    let handle = daemon.handle();
    let bytes = corpus_bytes("LocalRefDangling");

    // A healthy session first.
    let good = encode_ingest(1, "ok", "jinn", &bytes, 4096);
    for frame in decode_stream(&good).expect("decodes") {
        handle.apply_frame(&frame).expect("healthy ingest");
    }
    assert_eq!(handle.wait_session(1).unwrap().state, SessionState::Judged);

    // A corrupt frame stream: flip a byte inside a frame payload so the
    // frame checksum fails at decode time.
    let mut stream = encode_frame(&Frame::Open {
        session: 2,
        tenant: "bad".into(),
        config: "jinn".into(),
    });
    stream.extend_from_slice(&encode_frame(&Frame::Append {
        session: 2,
        chunk: bytes.clone(),
    }));
    let at = stream.len() - 64;
    stream[at] ^= 0x01;
    stream.extend_from_slice(&encode_frame(&Frame::Seal {
        session: 2,
        total_len: bytes.len() as u64,
        checksum: fnv1a(&bytes),
    }));

    // Drive it the way the socket does: open first, then hit the error.
    let mut decoder = jinn::replay::FrameDecoder::new();
    let preamble = jinn::replay::stream_preamble();
    let mut full = preamble.to_vec();
    full.extend_from_slice(&stream);
    decoder.feed(&full);
    let mut opened = Vec::new();
    let err = loop {
        match decoder.next_frame() {
            Ok(Some(frame)) => {
                if let Frame::Open { session, .. } = &frame {
                    opened.push(*session);
                }
                handle
                    .apply_frame(&frame)
                    .expect("pre-corruption frames apply");
            }
            Ok(None) => panic!("decoder should hit the corrupt frame"),
            Err(e) => break e,
        }
    };
    assert!(matches!(
        err,
        jinn::replay::FrameError::ChecksumMismatch { .. }
    ));
    for id in opened {
        handle.quarantine(id, "corrupt frame stream");
    }

    let s2 = handle.session_stats(2).expect("session 2");
    assert_eq!(s2.state, SessionState::Quarantined);
    // Session 1's history is untouched.
    let page = handle.query(&Query {
        session: Some(1),
        ..Query::default()
    });
    assert!(!page.items.is_empty(), "healthy session keeps its verdicts");
    daemon.shutdown();
}

/// The byte span `[start, end)` of the first record tagged `tag`
/// (`TRACE_FORMAT.md`) that introduces no intern definitions, with the
/// trace's decoded records.
fn raw_record_span(bytes: &[u8], tag: u8) -> (Vec<(TraceRecord, usize, u64)>, usize, usize) {
    let records = records_of(bytes);
    let at = (1..records.len())
        .find(|&i| records[i].2 - records[i - 1].2 == 1 && bytes[records[i - 1].1] == tag)
        .expect("an event record with this tag");
    let (start, end) = (records[at - 1].1, records[at].1);
    (records, start, end)
}

/// The end of the varint starting at `pos`.
fn varint_end(bytes: &[u8], pos: usize) -> usize {
    pos + bytes[pos..].iter().position(|b| b & 0x80 == 0).unwrap() + 1
}

/// Rewrites one field of a single-raw-record event in a corpus trace and
/// re-seals it: the record [`raw_record_span`] finds gets its `field`-th
/// varint after the tag replaced by `value`.
fn reseal_with_field(bytes: &[u8], tag: u8, field: usize, value: u64) -> Vec<u8> {
    let (records, start, _) = raw_record_span(bytes, tag);
    let mut pos = start + 1;
    for _ in 0..field {
        pos = varint_end(bytes, pos);
    }
    let mut body = bytes[..pos].to_vec();
    let mut v = value;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            body.push(byte);
            break;
        }
        body.push(byte | 0x80);
    }
    let &(_, end_pos, raw) = records.last().expect("records decoded");
    body.extend_from_slice(&bytes[varint_end(bytes, pos)..end_pos]);
    seal_records(body, raw)
}

const JNI_ENTER: u8 = 0x06;

/// Streams `trace` into `daemon` as session `id` under `configs` on a
/// client thread of its own and waits for the session's terminal state,
/// so a panic or a wedged worker fails the test instead of hanging it.
fn run_session(daemon: &Daemon, id: u64, configs: &str, trace: &[u8]) -> SessionStats {
    let handle = daemon.handle();
    let frames = decode_stream(&encode_ingest(id, "t", configs, trace, 64)).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let client = thread::spawn(move || {
        for frame in &frames {
            if handle.apply_frame(frame).is_err() {
                break;
            }
        }
        let _ = tx.send(handle.wait_session(id).expect("session exists"));
    });
    let stats = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .unwrap_or_else(|e| panic!("session {id} never finished: {e}"));
    client.join().expect("client thread");
    stats
}

#[test]
fn hostile_ids_quarantine_live_and_retained_sessions_alike() {
    const NATIVE_ENTER: u8 = 0x08;
    let bytes = corpus_bytes("LocalRefDangling");
    // JniEnter is (thread, presented env, func, ...); NativeEnter is
    // (thread, method, ...). Neither id below exists.
    let hostile = [
        (
            "JNI function 60000",
            reseal_with_field(&bytes, JNI_ENTER, 2, 60_000),
        ),
        (
            "thread 60000",
            reseal_with_field(&bytes, NATIVE_ENTER, 0, 60_000),
        ),
    ];
    let live = Daemon::start(ServeConfig {
        streaming_sessions: 4096,
        ..ServeConfig::default()
    });
    let retaining = Daemon::start(ServeConfig {
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    for (i, (what, trace)) in hostile.iter().enumerate() {
        let id = 10 + i as u64;
        let on_live = run_session(&live, id, "jinn", trace);
        let on_retained = run_session(&retaining, id, "jinn", trace);
        assert_eq!(on_live.state, SessionState::Quarantined, "{what}: live");
        assert_eq!(
            on_retained.state,
            SessionState::Quarantined,
            "{what}: retained"
        );
        assert_eq!(on_live.reason, on_retained.reason, "{what}");
        let reason = on_live.reason.unwrap_or_default();
        assert!(reason.contains("corrupt trace"), "{what}: {reason}");
    }
    for daemon in [&live, &retaining] {
        let stats = run_session(daemon, 99, "jinn", &bytes);
        assert_eq!(stats.state, SessionState::Judged, "{:?}", stats.reason);
    }
    live.shutdown();
    retaining.shutdown();
}

/// Every one-field mutation of each corpus trace's first intern-free
/// `JniEnter` (its first 8 varint fields, each set to a few small and
/// boundary values) replays under Jinn without a panic: arguments that
/// do not fit the function are a corrupt trace, not a panic in the raw
/// JNI semantics.
#[test]
fn mutated_jni_enter_fields_never_panic_replay() {
    const VALUES: [u64; 7] = [0, 1, 2, 3, 60_000, u32::MAX as u64, u64::MAX];
    let jinn = ReplayConfig::parse("jinn").unwrap();
    let mut cases = 0;
    let mut panics = Vec::new();
    for name in corpus_names() {
        let bytes = corpus_bytes(&name);
        let (_, start, end) = raw_record_span(&bytes, JNI_ENTER);
        let mut pos = start + 1;
        for field in 0..8 {
            if pos >= end {
                break;
            }
            pos = varint_end(&bytes, pos);
            for value in VALUES {
                let mutated = reseal_with_field(&bytes, JNI_ENTER, field, value);
                cases += 1;
                if std::panic::catch_unwind(|| replay_bytes(&mutated, &jinn)).is_err() {
                    panics.push(format!("{name}: field {field} = {value}"));
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {cases} mutations panicked: {panics:?}",
        panics.len()
    );
}

/// Hostile `JniEnter` arguments cannot wedge a default daemon. Multi-config
/// sessions are retained and judged on the workers; four hostile ones
/// (as many as `ServeConfig::default()` has workers) must each be
/// quarantined, and a clean session sent after them must be judged.
#[test]
fn hostile_arguments_do_not_wedge_a_default_daemon() {
    let daemon = Daemon::start(ServeConfig::default());
    // Field 2 is the function id; field 4 the first argument's tag.
    let hostile = [
        ("LocalRefDangling", 2, 1),
        ("CriticalCall", 2, 1),
        ("GlobalLeak", 2, 2),
        ("ExceptionState", 4, 1),
    ];
    for (i, &(name, field, value)) in hostile.iter().enumerate() {
        let trace = reseal_with_field(&corpus_bytes(name), JNI_ENTER, field, value);
        let stats = run_session(&daemon, 10 + i as u64, "jinn,xcheck", &trace);
        let what = format!("{name} field {field} = {value}");
        assert_eq!(stats.state, SessionState::Quarantined, "{what}");
        let reason = stats.reason.unwrap_or_default();
        assert!(
            reason.starts_with("unreadable trace: corrupt trace"),
            "{what}: {reason}"
        );
    }
    let clean = run_session(
        &daemon,
        99,
        "jinn,xcheck",
        &corpus_bytes("LocalRefDangling"),
    );
    assert_eq!(clean.state, SessionState::Judged, "{:?}", clean.reason);
    daemon.shutdown();
}
