//! Admission-control coverage: the late-finish/quarantine race, the
//! live-session cap, the per-session upload cap, the fleet-wide
//! buffered-bytes cap, and
//! oldest-first eviction of terminal session records.

use jinn_replay::format::fnv1a;
use jinn_replay::{program_by_name, record_program};
use jinn_serve::{
    Daemon, DischargeStats, JudgeOutput, ObsCounters, ServeConfig, ServeError, SessionState,
    SessionTable, StoreLimits,
};

fn roomy_limits() -> StoreLimits {
    StoreLimits {
        retention_bytes: usize::MAX >> 1,
        max_buffered: 1 << 30,
        max_live_sessions: 1024,
        max_session_records: 4096,
        max_total_buffered: 1 << 30,
    }
}

fn dummy_output() -> JudgeOutput {
    JudgeOutput {
        program: "p".to_string(),
        outcomes: Vec::new(),
        verdicts: Vec::new(),
        events: Vec::new(),
        events_dropped: 0,
        rollups: Vec::new(),
        obs: ObsCounters::default(),
        discharge: DischargeStats::default(),
        events_replayed: 1,
        divergences: 0,
        outside_manifest: false,
    }
}

/// The REVIEW.md high-severity race: a session quarantined *while* a
/// worker judges it must stay quarantined when the worker comes back —
/// no state resurrection, no double `active` decrement (which would
/// underflow and wedge `wait_idle` forever).
#[test]
fn late_finish_after_quarantine_is_discarded() {
    let table = SessionTable::new(roomy_limits());
    table.open(1, "t", Vec::new(), false).expect("open");
    table.admit(1, 13).expect("admit");
    table.settle(1, 13);
    table.seal(1, Ok(())).expect("seal");
    assert_eq!(table.begin_judging(1).as_deref(), Some("t"));

    // The session's connection goes bad mid-judging.
    table.quarantine(1, "corrupt frame stream");
    // The worker returns late; its output must be discarded.
    table.finish(1, dummy_output());

    let stats = table.stats(1).expect("stats");
    assert_eq!(stats.state, SessionState::Quarantined);
    let fleet = table.fleet();
    assert_eq!(fleet.judged, 0, "discarded output must not count");
    assert_eq!(fleet.quarantined, 1);
    assert_eq!(fleet.live, 0);
    assert_eq!(fleet.total_verdicts, 0);
    // An `active` underflow would make this block forever.
    table.wait_idle();
}

#[test]
fn live_session_cap_rejects_open() {
    let daemon = Daemon::start(ServeConfig {
        max_live_sessions: 2,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();
    handle.open(1, "t", "jinn").expect("first open");
    handle.open(2, "t", "jinn").expect("second open");
    let err = handle.open(3, "t", "jinn").expect_err("cap reached");
    assert_eq!(err, ServeError::FleetSaturated { live: 2, cap: 2 });
    // A terminal session frees its slot.
    handle.abort(1, "done").expect("abort");
    handle.open(3, "t", "jinn").expect("slot freed");
    daemon.shutdown();
}

#[test]
fn fleet_buffered_cap_backpressures_append() {
    // Retained sessions hold every byte they upload; a live one would
    // release decoded (or poisoned) bytes at once and never hold the cap.
    let daemon = Daemon::start(ServeConfig {
        max_total_buffered_bytes: 10,
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();
    handle.open(1, "t", "jinn").expect("open 1");
    handle.open(2, "t", "jinn").expect("open 2");
    handle.append(1, &[0u8; 6]).expect("within fleet cap");
    let err = handle.append(2, &[0u8; 6]).expect_err("fleet cap");
    assert_eq!(
        err,
        ServeError::FleetBackpressure {
            buffered: 6,
            cap: 10
        }
    );
    // Dropping session 1's buffer readmits the bytes.
    handle.abort(1, "drop").expect("abort");
    handle.append(2, &[0u8; 6]).expect("bytes freed");
    daemon.shutdown();
}

/// A session cannot upload past the per-session cap, live or retained.
/// A live session releases the bytes it decodes, but the records they
/// decode to stay resident: here a 64 KiB interned string per `Append`,
/// referenced by a setup `Meta` record that keeps key and value.
#[test]
fn per_session_cap_bounds_live_and_retained_uploads() {
    const CAP: u64 = 1 << 20;
    let mut header = b"JTRC".to_vec();
    header.extend_from_slice(&1u16.to_le_bytes());
    // One `Append`: intern record `i` (tag 0x01, id, length, bytes),
    // then a `Meta` record (tag 0x02) whose key and value are both `i`.
    let append = |i: u64| {
        let mut chunk = vec![0x01];
        for v in [i, 64 * 1024] {
            let mut v = v;
            while v >= 0x80 {
                chunk.push(v as u8 | 0x80);
                v >>= 7;
            }
            chunk.push(v as u8);
        }
        chunk.resize(chunk.len() + 64 * 1024, b'a' + (i % 26) as u8);
        chunk.extend([0x02, i as u8, i as u8]);
        chunk
    };
    for streaming_sessions in [1, 0] {
        let daemon = Daemon::start(ServeConfig {
            max_buffered_bytes: CAP,
            streaming_sessions,
            ..ServeConfig::default()
        });
        let handle = daemon.handle();
        handle.open(1, "t", "jinn").expect("open");
        handle.append(1, &header).expect("header");
        let mut sent = header.len() as u64;
        let refused = (0..2 * CAP / (64 * 1024)).find_map(|i| {
            let chunk = append(i);
            match handle.append(1, &chunk) {
                Ok(()) => {
                    sent += chunk.len() as u64;
                    None
                }
                Err(e) => Some(e),
            }
        });
        let what = if streaming_sessions == 1 {
            "live"
        } else {
            "retained"
        };
        assert_eq!(
            refused,
            Some(ServeError::Backpressure {
                session: 1,
                buffered: sent,
                cap: CAP
            }),
            "{what}"
        );
        assert!(sent <= CAP, "{what}: {sent} bytes accepted");
        daemon.shutdown();
    }
}

/// A selection that names no config is refused at `Open`: a session
/// with nothing to replay has no judge.
#[test]
fn a_selection_of_no_configs_is_refused_at_open() {
    let daemon = Daemon::start(ServeConfig::default());
    let handle = daemon.handle();
    let err = handle.open(1, "t", " , ").expect_err("no config named");
    assert_eq!(err, ServeError::BadConfig(" , ".to_string()));
    handle.open(1, "t", "jinn").expect("the id is still free");
    daemon.shutdown();
}

#[test]
fn terminal_records_evict_oldest_first() {
    let daemon = Daemon::start(ServeConfig {
        max_session_records: 4,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();
    for id in 0..8 {
        handle.open(id, "t", "jinn").expect("open");
        handle.abort(id, "done").expect("abort");
    }
    assert_eq!(handle.session_ids(), vec![4, 5, 6, 7]);
    assert!(
        handle.session_stats(0).is_none(),
        "evicted record answers nothing"
    );
    assert_eq!(handle.fleet().evicted_sessions, 4);
    // An evicted id may be reopened.
    handle.open(0, "t", "jinn").expect("reopen evicted id");
    daemon.shutdown();
}

#[test]
fn live_sessions_survive_the_record_cap() {
    let daemon = Daemon::start(ServeConfig {
        max_session_records: 2,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();
    for id in 0..3 {
        handle.open(id, "t", "jinn").expect("open");
    }
    // Three live sessions exceed the record cap, but eviction only ever
    // takes terminal records: all three survive.
    assert_eq!(handle.session_ids(), vec![0, 1, 2]);
    handle.abort(0, "done").expect("abort");
    // The one terminal record is now the only candidate, and the table
    // is over cap, so it goes; the live pair stays.
    assert_eq!(handle.session_ids(), vec![1, 2]);
    assert_eq!(handle.fleet().evicted_sessions, 1);
    daemon.shutdown();
}

/// Evicting a judged session must release its history bytes from the
/// retention ledger.
#[test]
fn evicting_judged_records_releases_history_bytes() {
    let bytes = record_program(&program_by_name("LocalRefDangling").expect("corpus program"));
    let ingest_n = |daemon: &Daemon, n: u64| {
        let handle = daemon.handle();
        for id in 0..n {
            handle.open(id, "t", "jinn").expect("open");
            handle.append(id, &bytes).expect("append");
            handle
                .seal(id, bytes.len() as u64, fnv1a(&bytes))
                .expect("seal");
            handle.wait_session(id).expect("judged");
        }
    };

    // Measure one judged session's history footprint, uncapped.
    let daemon = Daemon::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    ingest_n(&daemon, 1);
    let per_session = daemon.handle().fleet().history_bytes;
    assert!(per_session > 0, "a judged session holds history");
    daemon.shutdown();

    // Judge four identical sessions under a two-record cap: exactly two
    // sessions' bytes may remain charged.
    let daemon = Daemon::start(ServeConfig {
        workers: 1,
        max_session_records: 2,
        ..ServeConfig::default()
    });
    ingest_n(&daemon, 4);
    let handle = daemon.handle();
    let fleet = handle.fleet();
    assert_eq!(fleet.judged, 4);
    assert_eq!(fleet.evicted_sessions, 2);
    assert_eq!(handle.session_ids(), vec![2, 3]);
    assert_eq!(
        fleet.history_bytes,
        2 * per_session,
        "evicted sessions' history released"
    );
    daemon.shutdown();
}
