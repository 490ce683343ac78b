//! Retention coverage: the global history byte budget, oldest-first
//! purge, purge determinism, and the live-session invariant.

use jinn_replay::format::fnv1a;
use jinn_replay::{program_by_name, record_program};
use jinn_serve::{Daemon, Query, ServeConfig, SessionState};

fn trace_bytes() -> Vec<u8> {
    record_program(&program_by_name("LocalRefDangling").expect("corpus program"))
}

fn tiny_config(retention_bytes: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        retention_bytes,
        max_events_per_session: 16,
        ..ServeConfig::default()
    }
}

/// Ingests one whole trace as session `id` and waits for its verdict.
fn ingest(handle: &jinn_serve::DaemonHandle, id: u64, bytes: &[u8]) -> jinn_serve::SessionStats {
    handle.open(id, "tenant", "jinn").expect("open");
    handle.append(id, bytes).expect("append");
    handle
        .seal(id, bytes.len() as u64, fnv1a(bytes))
        .expect("seal");
    handle.wait_session(id).expect("known session")
}

/// The purged-session ids after sequentially judging `n` sessions under
/// `retention_bytes`.
fn purged_after(n: u64, retention_bytes: usize) -> Vec<u64> {
    let daemon = Daemon::start(tiny_config(retention_bytes));
    let handle = daemon.handle();
    let bytes = trace_bytes();
    for id in 0..n {
        let stats = ingest(&handle, id, &bytes);
        assert_eq!(stats.state, SessionState::Judged);
    }
    let purged: Vec<u64> = (0..n)
        .filter(|id| handle.session_stats(*id).expect("stats").history_purged)
        .collect();
    let fleet = handle.fleet();
    assert!(
        fleet.history_bytes <= retention_bytes as u64,
        "budget enforced: {} > {retention_bytes}",
        fleet.history_bytes
    );
    assert_eq!(fleet.purged_sessions, purged.len() as u64);
    daemon.shutdown();
    purged
}

#[test]
fn filling_past_the_budget_purges_oldest_first() {
    // Find a budget that holds roughly two sessions' history: judge one
    // session unbounded to measure it.
    let daemon = Daemon::start(tiny_config(usize::MAX >> 1));
    let handle = daemon.handle();
    let bytes = trace_bytes();
    ingest(&handle, 0, &bytes);
    let per_session = handle.fleet().history_bytes as usize;
    daemon.shutdown();
    assert!(per_session > 0, "a judged session holds history");

    let budget = per_session * 2 + per_session / 2; // fits 2, not 3
    let purged = purged_after(6, budget);
    // Six judged sessions, room for two: the four oldest are purged, in
    // open order, and the newest two survive.
    assert_eq!(purged, vec![0, 1, 2, 3], "oldest-first purge");

    // Purged sessions still answer stats, but their rows are gone.
    let daemon = Daemon::start(tiny_config(budget));
    let handle = daemon.handle();
    for id in 0..6 {
        ingest(&handle, id, &bytes);
    }
    let gone = handle.query(&Query {
        session: Some(0),
        ..Query::default()
    });
    assert!(gone.items.is_empty(), "purged history is not queryable");
    let kept = handle.query(&Query {
        session: Some(5),
        ..Query::default()
    });
    assert!(!kept.items.is_empty(), "retained history is queryable");
    let stats = handle.session_stats(0).expect("stats survive purge");
    assert!(stats.history_purged);
    assert_eq!(stats.state, SessionState::Judged);
    daemon.shutdown();
}

#[test]
fn purge_is_deterministic() {
    let bytes = trace_bytes();
    // Measure one session's history, then pick an awkward budget.
    let daemon = Daemon::start(tiny_config(usize::MAX >> 1));
    let handle = daemon.handle();
    ingest(&handle, 0, &bytes);
    let per_session = handle.fleet().history_bytes as usize;
    daemon.shutdown();

    let budget = per_session * 3 + 7;
    let first = purged_after(8, budget);
    let second = purged_after(8, budget);
    assert_eq!(first, second, "same ingest order, same purge set");
    assert!(!first.is_empty(), "the budget actually forced purges");
    // Purged ids are a prefix of the open order.
    let expect: Vec<u64> = (0..first.len() as u64).collect();
    assert_eq!(first, expect);
}

#[test]
fn live_sessions_are_never_evicted() {
    let bytes = trace_bytes();
    let daemon = Daemon::start(tiny_config(usize::MAX >> 1));
    let handle = daemon.handle();
    ingest(&handle, 0, &bytes);
    let per_session = handle.fleet().history_bytes as usize;
    daemon.shutdown();

    // One session replayed live while it uploads, one retained until
    // judged (two configs).
    for configs in ["jinn", "jinn,xcheck"] {
        let daemon = Daemon::start(tiny_config(per_session + per_session / 2));
        let handle = daemon.handle();

        // An unsealed session with uploaded bytes, opened FIRST (oldest).
        handle.open(100, "tenant", configs).expect("open");
        handle.append(100, &bytes).expect("append");

        // Now blow through the budget with judged sessions.
        for id in 0..5 {
            ingest(&handle, id, &bytes);
        }
        let live = handle.session_stats(100).expect("live session");
        assert_eq!(live.state, SessionState::Open, "{configs}: still open");
        assert!(!live.history_purged, "{configs}: untouched by retention");
        assert_eq!(live.bytes, bytes.len() as u64, "{configs}: upload intact");

        // It can still seal and judge normally afterwards.
        handle
            .seal(100, bytes.len() as u64, fnv1a(&bytes))
            .expect("seal");
        let judged = handle.wait_session(100).expect("session");
        assert_eq!(judged.state, SessionState::Judged, "{configs}");
        assert_eq!(judged.streamed, configs == "jinn");
        // Once judged it becomes evictable like anyone else (and as the
        // oldest session it may be purged at once), but the replay
        // itself completed: the counters survive retention.
        assert!(
            judged.events_replayed > 0,
            "{configs}: judged after the purge storm"
        );
        daemon.shutdown();
    }
}
