//! [`Trace`]: a fully-decoded `.jtrace` file, split into its setup
//! section (metadata, classes, threads, seeds) and its event stream.

use std::collections::BTreeMap;

use crate::format::{ClassRec, Decoder, SeedRec, TraceError, TraceRecord, FORMAT_VERSION};

/// A decoded trace, validated end to end (checksum and record count).
#[derive(Debug, Clone)]
pub struct Trace {
    /// `key = value` annotations, in record order.
    pub meta: Vec<(String, String)>,
    /// Class definitions past the core baseline, in definition order.
    pub classes: Vec<ClassRec>,
    /// Threads spawned during setup, in spawn order.
    pub threads: Vec<u16>,
    /// Entry-argument allocations, in allocation order.
    pub seeds: Vec<SeedRec>,
    /// The boundary-event stream (everything after setup).
    pub events: Vec<TraceRecord>,
    /// Format version the trace was written with.
    pub version: u16,
}

impl Trace {
    /// Parses and validates a complete trace.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] on malformed, truncated, or corrupted input.
    pub fn parse(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut dec = Decoder::new(bytes)?;
        let mut trace = Trace::empty(dec.version());
        while let Some(record) = dec.next_record()? {
            let events_began = !trace.events.is_empty();
            if let Some(event) = trace.absorb_setup(record, events_began)? {
                trace.events.push(event);
            }
        }
        Ok(trace)
    }

    /// A trace with no records yet.
    pub fn empty(version: u16) -> Trace {
        Trace {
            meta: Vec::new(),
            classes: Vec::new(),
            threads: Vec::new(),
            seeds: Vec::new(),
            events: Vec::new(),
            version,
        }
    }

    /// The setup-versus-event split, shared by [`Trace::parse`] and the
    /// streaming judge: files a setup record into the setup section and
    /// hands an event record back to the caller. `events_began` says
    /// whether an event record came before this one.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] for a `DefClass`, `SpawnThread` or `Seed`
    /// record after the first event, and for a late `Meta` record
    /// outside the `obs.*` namespace (TRACE_FORMAT.md, "Replay
    /// semantics").
    pub fn absorb_setup(
        &mut self,
        record: TraceRecord,
        events_began: bool,
    ) -> Result<Option<TraceRecord>, TraceError> {
        match record {
            TraceRecord::Meta { key, value } if !events_began || key.starts_with("obs.") => {
                self.meta.push((key, value));
            }
            TraceRecord::DefClass(c) if !events_began => self.classes.push(c),
            TraceRecord::SpawnThread { thread } if !events_began => self.threads.push(thread),
            TraceRecord::Seed(s) if !events_began => self.seeds.push(s),
            TraceRecord::Meta { .. }
            | TraceRecord::DefClass(_)
            | TraceRecord::SpawnThread { .. }
            | TraceRecord::Seed(_) => {
                return Err(TraceError::Corrupt("setup record in event stream".into()))
            }
            event => return Ok(Some(event)),
        }
        Ok(None)
    }

    /// Looks up a metadata value by key (first match).
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The recorded program name (`program` metadata), or `"?"`.
    pub fn program(&self) -> &str {
        self.meta_value("program").unwrap_or("?")
    }

    /// Counts of each event kind, for `replay stats`.
    pub fn event_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for e in &self.events {
            let key = match e {
                TraceRecord::JniEnter { .. } => "jni-enter",
                TraceRecord::JniExit { .. } => "jni-exit",
                TraceRecord::NativeEnter { .. } => "native-enter",
                TraceRecord::NativeExit { .. } => "native-exit",
                TraceRecord::ManagedEnter { .. } => "managed-enter",
                TraceRecord::ManagedExit { .. } => "managed-exit",
                TraceRecord::GcPoint { .. } => "gc-point",
                TraceRecord::VendorUb { .. } => "vendor-ub",
                TraceRecord::ObsEvent { .. } => "obs-event",
                TraceRecord::PyCall { .. } => "py-call",
                TraceRecord::Meta { .. }
                | TraceRecord::DefClass(_)
                | TraceRecord::SpawnThread { .. }
                | TraceRecord::Seed(_) => "setup",
            };
            *counts.entry(key).or_default() += 1;
        }
        counts
    }

    /// The set of JNI functions the recorded program actually called —
    /// the trace-derived call-site manifest.
    pub fn called_functions(&self) -> std::collections::BTreeSet<String> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceRecord::JniEnter { func, .. } => {
                    Some(minijni::FuncId(*func).name().to_string())
                }
                _ => None,
            })
            .collect()
    }

    /// A human-readable multi-line summary, for the `stats` subcommand.
    pub fn summary(&self, byte_len: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "program: {} (format v{}, {} bytes)\n",
            self.program(),
            self.version,
            byte_len
        ));
        for (k, v) in &self.meta {
            if k != "program" {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        out.push_str(&format!(
            "setup: {} classes, {} spawned threads, {} seeds\n",
            self.classes.len(),
            self.threads.len(),
            self.seeds.len()
        ));
        out.push_str(&format!("events: {}\n", self.events.len()));
        for (kind, n) in self.event_counts() {
            out.push_str(&format!("  {kind:>14}: {n}\n"));
        }
        out
    }
}

/// Runs the static discharge pass over the eleven machines with the
/// trace's own call-site manifest ([`Trace::called_functions`]) — the
/// post-hoc audit of which machine transitions could have been compiled
/// out for this exact recording. The serving daemon surfaces this per
/// session; `replay stats --json` prints it per file.
pub fn trace_discharge(trace: &Trace) -> jinn_core::DischargeReport {
    let manifest = jinn_core::WorkloadManifest::new(trace.program(), trace.called_functions());
    jinn_core::discharge(&jinn_spec::machines(), &manifest)
}

/// Asserts that the reader and a trace agree on the format version —
/// the CI drift check calls this against every corpus file.
///
/// # Errors
///
/// [`TraceError::UnsupportedVersion`] when the stored version differs
/// from [`FORMAT_VERSION`]; header errors as for parsing.
pub fn check_version(bytes: &[u8]) -> Result<u16, TraceError> {
    let dec = Decoder::new(bytes)?;
    let v = dec.version();
    if v != FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion(v));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use minijni::BoundaryTap;
    use minijvm::{JValue, MethodId, ThreadId};
    use std::rc::Rc;

    #[test]
    fn parse_splits_setup_from_events() {
        let mut w = TraceWriter::new();
        w.meta("program", "split");
        w.meta("leaks", "false");
        w.spawn_thread(ThreadId(1));
        BoundaryTap::native_enter(&mut w, ThreadId(0), MethodId::forged(0), &[]);
        BoundaryTap::native_exit(&mut w, ThreadId(0), MethodId::forged(0), &Ok(JValue::Void));
        let bytes = w.finish();
        let t = Trace::parse(&bytes).unwrap();
        assert_eq!(t.program(), "split");
        assert_eq!(t.meta_value("leaks"), Some("false"));
        assert_eq!(t.threads, vec![1]);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.event_counts()["native-enter"], 1);
        assert!(t.summary(bytes.len()).contains("program: split"));
        assert_eq!(check_version(&bytes).unwrap(), FORMAT_VERSION);
    }

    #[test]
    fn late_setup_records_are_rejected_except_obs_meta() {
        type Late<'a> = &'a dyn Fn(&mut TraceWriter);
        let mut vm = minijni::Vm::new(Box::new(crate::record::RecordVendor));
        let baseline = vm.jvm().registry().class_count();
        vm.define_native_class("t/Late", "f", "()V", true, Rc::new(|_, _| Ok(JValue::Void)));
        let main = vm.jvm().main_thread();
        let text = vm.jvm_mut().alloc_string("seed");
        let seed = vm.jvm_mut().new_local(main, text);
        let jvm = vm.jvm();

        // One activation with `late` written between its enter and exit.
        let trace_with = |late: Late<'_>| {
            let mut w = TraceWriter::new();
            w.meta("program", "late");
            BoundaryTap::native_enter(&mut w, main, MethodId::forged(0), &[]);
            late(&mut w);
            BoundaryTap::native_exit(&mut w, main, MethodId::forged(0), &Ok(JValue::Void));
            w.finish()
        };
        let late: [(&str, Late<'_>); 4] = [
            ("DefClass", &|w| w.def_classes(jvm, baseline)),
            ("SpawnThread", &|w| w.spawn_thread(ThreadId(1))),
            ("Seed", &|w| w.seed(jvm, seed)),
            ("Meta", &|w| w.meta("gc_period", "8")),
        ];
        for (what, write) in late {
            let err = Trace::parse(&trace_with(write)).expect_err(what);
            assert_eq!(
                err.to_string(),
                "corrupt trace: setup record in event stream",
                "late {what}"
            );
        }

        // `obs.*` metadata after the events is the one late record the
        // split accepts; it lands in the setup section.
        let t = Trace::parse(&trace_with(&|w| w.meta("obs.dropped", "3"))).unwrap();
        assert_eq!(t.meta_value("obs.dropped"), Some("3"));
        assert_eq!(t.events.len(), 2);
    }
}
