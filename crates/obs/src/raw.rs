//! The binary on-the-wire record written by the recorder fast path.
//!
//! Instrumentation sites encode events directly into a fixed-width
//! [`RawEvent`] — five `u64` words — instead of materialising an
//! [`EventKind`] enum with `Arc<str>` labels. Strings appear only as
//! [`LabelId`] indices into the recorder's intern table; the enum form
//! is reconstructed lazily at export time.

use std::sync::Arc;

use crate::event::{EntityTag, EventKind, FsmOutcome, TraceEvent, VerdictAction};

/// Number of `u64` words in one encoded record.
pub const RAW_WORDS: usize = 5;

/// A string interned by a [`Recorder`](crate::Recorder) backend.
///
/// Ids are dense, starting at zero, and are only meaningful for the
/// backend that produced them. They are cheap to copy and compare and
/// index the metrics store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub u32);

/// The label word of events that carry no name (GC and pin events).
pub(crate) const NO_LABEL: u32 = 0;

/// High bit of the entity payload word: set when the entity is an
/// opaque numeric key supplied by the instrumentation site (no intern
/// table round-trip on the hot path) rather than an interned label.
pub(crate) const ENTITY_KEY_BIT: u64 = 1 << 63;

/// Operation discriminants for [`RawEvent::op`].
pub(crate) mod op {
    pub const JNI_ENTER: u8 = 0;
    pub const JNI_EXIT: u8 = 1;
    pub const NATIVE_ENTER: u8 = 2;
    pub const NATIVE_EXIT: u8 = 3;
    pub const FSM_TRANSITION: u8 = 4;
    pub const GC_SAFEPOINT: u8 = 5;
    pub const GC: u8 = 6;
    pub const PIN_ACQUIRE: u8 = 7;
    pub const PIN_RELEASE: u8 = 8;
    pub const VERDICT: u8 = 9;
}

/// A decoded fixed-width trace record.
///
/// Word layout:
///
/// | word | contents |
/// |------|----------|
/// | 0    | sequence number |
/// | 1    | microseconds since recorder start (batched, coarse) |
/// | 2    | `thread:16 \| op:8 \| flags:8 \| label:32` |
/// | 3    | payload `x` (nanos, pin id, live count, transition label) |
/// | 4    | payload `y` (freed count, entity: 0 = none, high bit set = |
/// |      | opaque numeric key, else intern label + 1) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEvent {
    /// Globally unique (per backend) sequence number.
    pub seq: u64,
    /// Coarse batched timestamp, microseconds since recorder start.
    pub micros: u64,
    /// Logical thread tag.
    pub thread: u16,
    /// Operation discriminant (see the `op` constants).
    pub op: u8,
    /// Per-op flag bits (failure, outcome, verdict action, ...).
    pub flags: u8,
    /// Primary label (function or machine name), as an intern-table id.
    pub label: u32,
    /// First payload word.
    pub x: u64,
    /// Second payload word.
    pub y: u64,
}

impl RawEvent {
    /// Packs the record into its five-word wire form.
    #[inline]
    pub fn to_words(self) -> [u64; RAW_WORDS] {
        let meta = (u64::from(self.thread) << 48)
            | (u64::from(self.op) << 40)
            | (u64::from(self.flags) << 32)
            | u64::from(self.label);
        [self.seq, self.micros, meta, self.x, self.y]
    }

    /// Unpacks a five-word wire record.
    #[inline]
    pub fn from_words(words: [u64; RAW_WORDS]) -> RawEvent {
        let meta = words[2];
        RawEvent {
            seq: words[0],
            micros: words[1],
            thread: (meta >> 48) as u16,
            op: (meta >> 40) as u8,
            flags: (meta >> 32) as u8,
            label: meta as u32,
            x: words[3],
            y: words[4],
        }
    }

    /// Reconstructs the enum event form, resolving labels through
    /// `names` (the backend's intern table snapshot). Unknown ids —
    /// possible only if the caller passes a stale snapshot — render as
    /// `label#N` rather than panicking.
    pub fn decode(self, names: &[Arc<str>]) -> TraceEvent {
        let name = |id: u32| -> Arc<str> {
            names
                .get(id as usize)
                .cloned()
                .unwrap_or_else(|| Arc::from(format!("label#{id}")))
        };
        let kind = match self.op {
            op::JNI_ENTER => EventKind::JniEnter {
                func: name(self.label),
            },
            op::JNI_EXIT => EventKind::JniExit {
                func: name(self.label),
                nanos: self.x,
                failed: self.flags & 1 != 0,
            },
            op::NATIVE_ENTER => EventKind::NativeEnter {
                method: name(self.label),
            },
            op::NATIVE_EXIT => EventKind::NativeExit {
                method: name(self.label),
                nanos: self.x,
                failed: self.flags & 1 != 0,
            },
            op::FSM_TRANSITION => EventKind::FsmTransition {
                machine: name(self.label),
                transition: name(self.x as u32),
                outcome: match self.flags & 0b11 {
                    0 => FsmOutcome::Moved,
                    1 => FsmOutcome::Error,
                    _ => FsmOutcome::NotApplicable,
                },
                entity: match self.y {
                    0 => None,
                    key if key & ENTITY_KEY_BIT != 0 => Some(EntityTag(Arc::from(format!(
                        "entity#{:x}",
                        key & !ENTITY_KEY_BIT
                    )))),
                    id => Some(EntityTag(name((id - 1) as u32))),
                },
            },
            op::GC_SAFEPOINT => EventKind::GcSafepoint {
                collected: self.flags & 1 != 0,
            },
            op::GC => EventKind::Gc {
                live: self.x,
                freed: self.y,
            },
            op::PIN_ACQUIRE => EventKind::PinAcquire { pin: self.x as u32 },
            op::PIN_RELEASE => EventKind::PinRelease {
                pin: self.x as u32,
                ok: self.flags & 1 != 0,
            },
            _ => EventKind::Verdict {
                machine: name(self.label),
                function: name(self.x as u32),
                action: match self.flags & 0b11 {
                    0 => VerdictAction::Warn,
                    1 => VerdictAction::AbortVm,
                    _ => VerdictAction::ThrowException,
                },
            },
        };
        TraceEvent {
            seq: self.seq,
            micros: self.micros,
            thread: self.thread,
            kind,
        }
    }

    /// Encodes the enum event form. The `intern` callback maps label
    /// text to ids in the owning backend's table. This is the cold
    /// compatibility path for callers still constructing [`EventKind`].
    pub fn encode(
        seq: u64,
        micros: u64,
        thread: u16,
        kind: &EventKind,
        mut intern: impl FnMut(&str) -> u32,
    ) -> RawEvent {
        let mut raw = RawEvent {
            seq,
            micros,
            thread,
            op: 0,
            flags: 0,
            label: NO_LABEL,
            x: 0,
            y: 0,
        };
        match kind {
            EventKind::JniEnter { func } => {
                raw.op = op::JNI_ENTER;
                raw.label = intern(func);
            }
            EventKind::JniExit {
                func,
                nanos,
                failed,
            } => {
                raw.op = op::JNI_EXIT;
                raw.label = intern(func);
                raw.x = *nanos;
                raw.flags = u8::from(*failed);
            }
            EventKind::NativeEnter { method } => {
                raw.op = op::NATIVE_ENTER;
                raw.label = intern(method);
            }
            EventKind::NativeExit {
                method,
                nanos,
                failed,
            } => {
                raw.op = op::NATIVE_EXIT;
                raw.label = intern(method);
                raw.x = *nanos;
                raw.flags = u8::from(*failed);
            }
            EventKind::FsmTransition {
                machine,
                transition,
                outcome,
                entity,
            } => {
                raw.op = op::FSM_TRANSITION;
                raw.label = intern(machine);
                raw.x = u64::from(intern(transition));
                raw.flags = match outcome {
                    FsmOutcome::Moved => 0,
                    FsmOutcome::Error => 1,
                    FsmOutcome::NotApplicable => 2,
                };
                raw.y = match entity {
                    Some(tag) => u64::from(intern(&tag.0)) + 1,
                    None => 0,
                };
            }
            EventKind::GcSafepoint { collected } => {
                raw.op = op::GC_SAFEPOINT;
                raw.flags = u8::from(*collected);
            }
            EventKind::Gc { live, freed } => {
                raw.op = op::GC;
                raw.x = *live;
                raw.y = *freed;
            }
            EventKind::PinAcquire { pin } => {
                raw.op = op::PIN_ACQUIRE;
                raw.x = u64::from(*pin);
            }
            EventKind::PinRelease { pin, ok } => {
                raw.op = op::PIN_RELEASE;
                raw.x = u64::from(*pin);
                raw.flags = u8::from(*ok);
            }
            EventKind::Verdict {
                machine,
                function,
                action,
            } => {
                raw.op = op::VERDICT;
                raw.label = intern(machine);
                raw.x = u64::from(intern(function));
                raw.flags = match action {
                    VerdictAction::Warn => 0,
                    VerdictAction::AbortVm => 1,
                    VerdictAction::ThrowException => 2,
                };
            }
        }
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn roundtrip(kind: EventKind) {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut names: Vec<Arc<str>> = Vec::new();
        let raw = RawEvent::encode(7, 42, 3, &kind, |s| {
            if let Some(&id) = ids.get(s) {
                id
            } else {
                let id = names.len() as u32;
                ids.insert(s.to_string(), id);
                names.push(Arc::from(s));
                id
            }
        });
        let back = RawEvent::from_words(raw.to_words()).decode(&names);
        assert_eq!(back.seq, 7);
        assert_eq!(back.micros, 42);
        assert_eq!(back.thread, 3);
        assert_eq!(back.kind, kind);
    }

    #[test]
    fn every_event_kind_survives_the_wire_form() {
        roundtrip(EventKind::JniEnter {
            func: "GetVersion".into(),
        });
        roundtrip(EventKind::JniExit {
            func: "GetVersion".into(),
            nanos: 1234,
            failed: true,
        });
        roundtrip(EventKind::NativeEnter {
            method: "A.b".into(),
        });
        roundtrip(EventKind::NativeExit {
            method: "A.b".into(),
            nanos: 9,
            failed: true,
        });
        roundtrip(EventKind::FsmTransition {
            machine: "local-reference".into(),
            transition: "DeleteLocalRef".into(),
            outcome: FsmOutcome::Error,
            entity: Some(EntityTag("JRef { slot: 3 }".into())),
        });
        roundtrip(EventKind::FsmTransition {
            machine: "pin".into(),
            transition: "Release".into(),
            outcome: FsmOutcome::NotApplicable,
            entity: None,
        });
        roundtrip(EventKind::GcSafepoint { collected: true });
        roundtrip(EventKind::Gc { live: 10, freed: 3 });
        roundtrip(EventKind::PinAcquire { pin: 77 });
        roundtrip(EventKind::PinRelease { pin: 77, ok: false });
        roundtrip(EventKind::Verdict {
            machine: "local-reference".into(),
            function: "IsSameObject".into(),
            action: VerdictAction::ThrowException,
        });
    }

    #[test]
    fn unknown_labels_render_as_placeholders() {
        let raw = RawEvent {
            seq: 0,
            micros: 0,
            thread: 0,
            op: op::JNI_ENTER,
            flags: 0,
            label: 99,
            x: 0,
            y: 0,
        };
        let event = raw.decode(&[]);
        match event.kind {
            EventKind::JniEnter { func } => assert_eq!(&*func, "label#99"),
            other => panic!("{other:?}"),
        }
    }
}
