//! Record mode: run a program on a maximally-permissive VM with a
//! [`TraceWriter`] tapped in, producing a trace that any checker
//! configuration can later re-judge.
//!
//! Recording deliberately uses [`RecordVendor`], which answers *Proceed*
//! to every undefined-behaviour situation: the VM never dies and never
//! raises vendor NPEs, so the trace captures the program's complete
//! boundary behaviour. Replay re-decides each situation under the
//! replayed configuration's own vendor model, which is what makes one
//! trace serve every column of Table 1.

use std::cell::RefCell;
use std::rc::Rc;

use jinn_microbench::{run_entries, scenarios, Program, Setup};
use minijni::{Session, UbOutcome, UbSituation, VendorModel, Vm};
use minijvm::JValue;

use crate::writer::TraceWriter;

/// A vendor model that proceeds through every undefined-behaviour
/// situation — record mode's substrate. (The in-tree `PermissiveVendor`
/// still crashes on unresolvable references; for recording, even those
/// proceed with garbage values so the trace extends past the bug.)
#[derive(Debug, Clone, Default)]
pub struct RecordVendor;

impl VendorModel for RecordVendor {
    fn name(&self) -> &str {
        "record"
    }

    fn on_violation(&self, _situation: &UbSituation<'_>) -> UbOutcome {
        UbOutcome::Proceed
    }
}

/// The case-study programs of Section 6.4, shaped for recording.
pub fn case_studies() -> Vec<Program> {
    vec![
        Program {
            name: "JavaGnomeSignal".into(),
            pitfall: None,
            machine: "local-reference",
            error_state: "Error:Dangling",
            leaks: false,
            gc_period: None,
            build: Box::new(|vm| {
                let (bind, dispatch, bind_args) =
                    jinn_workloads::javagnome::build_signal_machinery(vm);
                Setup {
                    entries: vec![bind, dispatch],
                    first_args: bind_args,
                }
            }),
        },
        Program {
            name: "SvnInfoCallback".into(),
            pitfall: None,
            machine: "local-reference",
            error_state: "Error:Overflow",
            leaks: true,
            gc_period: None,
            build: Box::new(|vm| {
                let samples = Rc::new(RefCell::new(Vec::new()));
                let entry = jinn_workloads::subversion::build_info_callback(vm, false, samples);
                Setup {
                    entries: vec![entry],
                    first_args: Vec::new(),
                }
            }),
        },
        Program {
            name: "SvnCopySources".into(),
            pitfall: None,
            machine: "local-reference",
            error_state: "Error:Dangling",
            leaks: false,
            gc_period: None,
            build: Box::new(|vm| {
                let (entry, args) = jinn_workloads::subversion::build_copy_sources(vm);
                Setup {
                    entries: vec![entry],
                    first_args: args,
                }
            }),
        },
        Program {
            name: "SwtCallback".into(),
            pitfall: None,
            machine: "entity-typing",
            error_state: "Error:EntityTypeMismatch",
            leaks: false,
            gc_period: None,
            build: Box::new(|vm| {
                let entry = jinn_workloads::eclipse::build_swt_callback(vm);
                Setup {
                    entries: vec![entry],
                    first_args: Vec::new(),
                }
            }),
        },
    ]
}

/// Looks up a recordable program by name: the sixteen microbenchmarks
/// plus the four case studies.
pub fn program_by_name(name: &str) -> Option<Program> {
    scenarios()
        .into_iter()
        .chain(case_studies())
        .find(|p| p.name == name)
}

/// Names of every recordable program, in corpus order.
pub fn program_names() -> Vec<String> {
    scenarios()
        .into_iter()
        .chain(case_studies())
        .map(|p| p.name)
        .collect()
}

/// Records one program: builds it on a [`RecordVendor`] VM, taps a
/// [`TraceWriter`] in, drives the entries with the microbenchmark
/// harness's [`run_entries`], and returns the sealed trace bytes.
pub fn record_program(program: &Program) -> Vec<u8> {
    let mut vm = Vm::new(Box::new(RecordVendor));
    let baseline = vm.jvm().registry().class_count();
    let setup = program.setup(&mut vm);

    let writer = Rc::new(RefCell::new(TraceWriter::new()));
    {
        let mut w = writer.borrow_mut();
        w.meta("program", &program.name);
        if let Some(p) = program.pitfall {
            w.meta("pitfall", &p.to_string());
        }
        w.meta("machine", program.machine);
        w.meta("error_state", program.error_state);
        w.meta("leaks", if program.leaks { "true" } else { "false" });
        if let Some(g) = program.gc_period {
            w.meta("gc_period", &g.to_string());
        }
        let entries = setup
            .entries
            .iter()
            .map(|m| m.index().to_string())
            .collect::<Vec<_>>()
            .join(",");
        w.meta("entries", &entries);
        w.def_classes(vm.jvm(), baseline);
        for t in vm.jvm().thread_ids().skip(1) {
            w.spawn_thread(t);
        }
        for v in &setup.first_args {
            if let JValue::Ref(r) = v {
                w.seed(vm.jvm(), *r);
            }
        }
    }

    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    session.set_tap(Some(writer.clone()));

    run_entries(&mut session, &program.name, setup.calls(thread));
    let _ = session.shutdown();
    session.set_tap(None);
    drop(session);

    let writer = Rc::try_unwrap(writer)
        .expect("tap detached; sole writer handle")
        .into_inner();
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::Trace;

    #[test]
    fn recording_is_deterministic_and_parses() {
        let p = program_by_name("LocalRefDangling").expect("figure 1 scenario");
        let a = record_program(&p);
        let b = record_program(&p);
        assert_eq!(a, b, "same program, byte-identical traces");
        let t = Trace::parse(&a).unwrap();
        assert_eq!(t.program(), "LocalRefDangling");
        assert!(!t.events.is_empty());
    }

    #[test]
    fn every_program_records_and_parses() {
        for p in scenarios().iter().chain(case_studies().iter()) {
            let bytes = record_program(p);
            let t = Trace::parse(&bytes)
                .unwrap_or_else(|e| panic!("{}: trace must parse: {e}", p.name));
            assert_eq!(t.program(), p.name, "{}", p.name);
            assert!(
                t.events
                    .iter()
                    .any(|e| matches!(e, crate::format::TraceRecord::NativeEnter { .. })),
                "{}: trace has at least one native entry",
                p.name
            );
        }
    }
}
