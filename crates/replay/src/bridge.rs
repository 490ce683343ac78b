//! Bridges to the other substrates: the observability layer
//! ([`jinn_obs::Recorder`]) and the Python/C boundary
//! ([`minipy::PySession`]).
//!
//! Both bridges feed the same [`TraceWriter`], so a single `.jtrace`
//! file can interleave JNI boundary records with observability events
//! and Python/C calls.

use std::cell::RefCell;
use std::rc::Rc;

use jinn_obs::Recorder;
use minipy::{PyCall, PyInterpose, PyViolation, Python};

use crate::writer::TraceWriter;

/// Appends every event currently held in the recorder's trace ring to
/// the writer as `ObsEvent` records, plus an `obs.dropped` meta counting
/// the events ring overflow evicted — what the trace does *not* hold.
pub fn append_obs_events(writer: &mut TraceWriter, recorder: &Recorder) {
    if !recorder.is_enabled() {
        return;
    }
    writer.meta("obs.dropped", &recorder.dropped_events().to_string());
    for event in recorder.events() {
        writer.obs_event(event.thread, &event.to_string());
    }
}

/// A passive [`PyInterpose`] that records every Python/C boundary
/// crossing as a `PyCall` record. It never raises violations — it is a
/// tap, not a checker — so it composes with any checker stack.
#[derive(Debug, Clone)]
pub struct PyTraceWriter {
    writer: Rc<RefCell<TraceWriter>>,
}

impl PyTraceWriter {
    /// Wraps a shared writer for attachment via
    /// [`minipy::PySession::attach`].
    pub fn new(writer: Rc<RefCell<TraceWriter>>) -> PyTraceWriter {
        PyTraceWriter { writer }
    }
}

impl PyInterpose for PyTraceWriter {
    fn name(&self) -> &str {
        "py-trace-writer"
    }

    fn pre(&mut self, _py: &Python, call: &PyCall<'_>) -> Option<PyViolation> {
        let ptrs: Vec<u64> = call.ptr_args.iter().map(|p| p.addr()).collect();
        self.writer
            .borrow_mut()
            .py_call(call.thread.0, call.spec.name, &ptrs);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceRecord;
    use crate::reader::Trace;
    use minipy::{build_string_list, PySession};

    #[test]
    fn obs_events_and_drop_count_land_in_the_trace() {
        let recorder = Recorder::enabled(4);
        for _ in 0..10 {
            recorder.event(
                0,
                jinn_obs::EventKind::JniEnter {
                    func: "GetVersion".into(),
                },
            );
        }
        let mut w = TraceWriter::new();
        w.meta("program", "obs-bridge");
        append_obs_events(&mut w, &recorder);
        let t = Trace::parse(&w.finish()).unwrap();
        assert_eq!(t.meta_value("obs.dropped"), Some("6"));
        let obs = t
            .events
            .iter()
            .filter(|e| matches!(e, TraceRecord::ObsEvent { .. }))
            .count();
        assert_eq!(obs, 4, "ring holds the newest four events");
    }

    #[test]
    fn py_boundary_crossings_are_recorded() {
        let writer = Rc::new(RefCell::new(TraceWriter::new()));
        writer.borrow_mut().meta("program", "py-bridge");
        let mut session = PySession::new();
        session.attach(Box::new(PyTraceWriter::new(writer.clone())));
        session.run(|env| build_string_list(env, &["a", "b", "c"]).map(|_| ()));
        let _ = session.shutdown();
        drop(session);
        let writer = Rc::try_unwrap(writer).expect("sole handle").into_inner();
        let t = Trace::parse(&writer.finish()).unwrap();
        let calls: Vec<&TraceRecord> = t
            .events
            .iter()
            .filter(|e| matches!(e, TraceRecord::PyCall { .. }))
            .collect();
        assert!(!calls.is_empty(), "boundary crossings recorded: {t:?}");
        assert!(t.events.iter().any(|e| matches!(
            e,
            TraceRecord::PyCall { func, .. } if func == "Py_BuildValue"
        )));
    }
}
