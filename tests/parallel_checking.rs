//! Concurrent checking semantics: checker state is per thread, as in
//! the paper (a `JNIEnv` belongs to one thread). Checkers running on
//! several worker threads must reach exactly the verdicts of a serial
//! run, whether each checker is built on its worker or built on the
//! driver thread and moved in.

use jinn_core::{install_prebuilt, Jinn};
use jinn_microbench::{run_scenario, scenarios, Behavior, Config};
use jinn_vendors::Vendor;
use minijni::{RunOutcome, Session};

/// Every Table 1 scenario under Jinn, spread over four worker threads
/// (each run builds its own checker on its worker), must reach the same
/// behavior and diagnosis as a serial run on the driver thread. The
/// scenarios include EnvMismatch, a `JNIEnv` used from a foreign
/// thread, so thread-locality is checked at the checker.
#[test]
fn table_1_on_four_workers_matches_serial_run() {
    const WORKERS: usize = 4;
    let all = scenarios();
    for vendor in Vendor::ALL {
        let config = Config::Jinn(vendor);
        let serial: Vec<(usize, Behavior, Option<String>)> = all
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let o = run_scenario(s, config);
                (i, o.behavior, o.message)
            })
            .collect();
        let mut parallel: Vec<(usize, Behavior, Option<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    // Programs own their (non-`Sync`) build closures, so
                    // each worker builds its own list.
                    scope.spawn(move || {
                        scenarios()
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(WORKERS)
                            .map(|(i, s)| {
                                let o = run_scenario(s, config);
                                (i, o.behavior, o.message)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("no worker panic"))
                .collect()
        });
        parallel.sort_by_key(|&(i, ..)| i);
        assert_eq!(parallel.len(), all.len(), "every scenario ran once");
        for (got, want) in parallel.iter().zip(&serial) {
            assert_eq!(got, want, "{} under {}", all[want.0].name, config.label());
        }
        assert!(
            serial
                .iter()
                .any(|(i, b, _)| all[*i].name == "EnvMismatch" && b.is_detection()),
            "Jinn detects EnvMismatch under {}",
            config.label()
        );
    }
}

/// End-to-end: two full `JniSession`s with their own `Jinn` checkers —
/// built on the driver thread, moved into the workers — run a real
/// workload concurrently with zero violations and live checking stats.
#[test]
fn two_sessions_on_two_threads_check_cleanly() {
    let checkers: Vec<Jinn> = (0..2).map(|_| Jinn::new()).collect();
    let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = checkers
            .into_iter()
            .enumerate()
            .map(|(t, jinn)| {
                scope.spawn(move || {
                    let mut vm = Vendor::HotSpot.vm();
                    let (entry, args) = jinn_workloads::build_workload(&mut vm, 7 + t as u64);
                    let thread = vm.jvm().main_thread();
                    let mut session = Session::new(vm);
                    let stats = install_prebuilt(&mut session, jinn);
                    for _ in 0..64 {
                        let outcome = session.run_native(thread, entry, &args);
                        assert!(matches!(outcome, RunOutcome::Completed(_)));
                    }
                    assert!(session.shutdown().is_empty(), "workload is leak-free");
                    (stats.checks_executed(), stats.violations())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no worker panic"))
            .collect()
    });
    for (checks, violations) in results {
        assert!(checks > 0, "checker actually ran");
        assert_eq!(violations, 0, "workload is bug-free");
    }
}
