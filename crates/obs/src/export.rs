//! Exporters: Chrome `chrome://tracing` JSON and a plain-text dump.
//!
//! The Chrome format is the Trace Event Format's JSON-object flavour:
//! `{"traceEvents": [...]}` where paired `"ph":"B"`/`"ph":"E"` events
//! form duration slices and `"ph":"i"` events are instants. Load the
//! output in `chrome://tracing` or Perfetto. JSON is assembled by hand —
//! this crate has no dependencies — with full string escaping.

use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent, NO_THREAD};
use crate::metrics::Snapshot;

/// Escapes `s` as the body of a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `"name":"value",` with escaping.
fn push_str_field(out: &mut String, name: &str, value: &str) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":\"");
    escape_json(value, out);
    out.push_str("\",");
}

fn tid_of(event: &TraceEvent) -> u64 {
    if event.thread == NO_THREAD {
        // Park unattributed events on a high lane so they don't mix with
        // real threads in the timeline.
        9999
    } else {
        u64::from(event.thread)
    }
}

/// One event row. `ph` is the Chrome phase; `args` is pre-rendered JSON
/// (without braces) or empty.
fn push_event(out: &mut String, event: &TraceEvent, name: &str, cat: &str, ph: char, args: &str) {
    out.push('{');
    push_str_field(out, "name", name);
    push_str_field(out, "cat", cat);
    let _ = write!(
        out,
        "\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}",
        event.micros,
        tid_of(event)
    );
    if ph == 'i' {
        // Thread-scoped instant.
        out.push_str(",\"s\":\"t\"");
    }
    if !args.is_empty() {
        let _ = write!(out, ",\"args\":{{{args}}}");
    }
    out.push_str("},");
}

/// Renders events as Chrome Trace Event Format JSON, prefixed with a
/// `dropped-events` instant when the source ring evicted `dropped`
/// events — so a truncated trace is visibly truncated in the timeline.
pub fn chrome_trace(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    if dropped > 0 {
        let _ = write!(
            out,
            "{{\"name\":\"dropped-events\",\"cat\":\"meta\",\"ph\":\"i\",\"ts\":0,\
             \"pid\":1,\"tid\":9999,\"s\":\"t\",\"args\":{{\"dropped\":{dropped}}}}},"
        );
    }
    for event in events {
        match &event.kind {
            EventKind::JniEnter { func } => push_event(&mut out, event, func, "jni", 'B', ""),
            EventKind::JniExit {
                func,
                nanos,
                failed,
            } => {
                let args = format!("\"nanos\":{nanos},\"failed\":{failed}");
                push_event(&mut out, event, func, "jni", 'E', &args);
            }
            EventKind::NativeEnter { method } => {
                push_event(&mut out, event, method, "native", 'B', "");
            }
            EventKind::NativeExit {
                method,
                nanos,
                failed,
            } => {
                let args = format!("\"nanos\":{nanos},\"failed\":{failed}");
                push_event(&mut out, event, method, "native", 'E', &args);
            }
            EventKind::FsmTransition {
                machine,
                transition,
                outcome,
                entity,
            } => {
                let mut args = String::new();
                push_str_field(&mut args, "transition", transition);
                push_str_field(&mut args, "outcome", &outcome.to_string());
                if let Some(e) = entity {
                    push_str_field(&mut args, "entity", e.label());
                }
                args.pop(); // trailing comma
                push_event(&mut out, event, machine, "fsm", 'i', &args);
            }
            EventKind::GcSafepoint { collected } => {
                let args = format!("\"collected\":{collected}");
                push_event(&mut out, event, "safepoint", "gc", 'i', &args);
            }
            EventKind::Gc { live, freed } => {
                let args = format!("\"live\":{live},\"freed\":{freed}");
                push_event(&mut out, event, "collection", "gc", 'i', &args);
            }
            EventKind::PinAcquire { pin } => {
                let args = format!("\"pin\":{pin}");
                push_event(&mut out, event, "pin-acquire", "pin", 'i', &args);
            }
            EventKind::PinRelease { pin, ok } => {
                let args = format!("\"pin\":{pin},\"ok\":{ok}");
                push_event(&mut out, event, "pin-release", "pin", 'i', &args);
            }
            EventKind::Verdict {
                machine,
                function,
                action,
            } => {
                let mut args = String::new();
                push_str_field(&mut args, "function", function);
                push_str_field(&mut args, "action", &action.to_string());
                args.pop();
                push_event(&mut out, event, machine, "verdict", 'i', &args);
            }
        }
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("]}");
    out
}

/// Renders events and a metrics snapshot as plain text, annotating the
/// header with the snapshot's evicted (dropped) event count when
/// non-zero.
pub fn text_dump(events: &[TraceEvent], snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let _ = write!(out, "trace ({} events held", events.len());
    if snapshot.coverage.ring_dropped > 0 {
        let _ = write!(out, ", {} dropped", snapshot.coverage.ring_dropped);
    }
    let _ = writeln!(out, "):");
    for event in events {
        let _ = writeln!(out, "  {event}");
    }
    out.push('\n');
    out.push_str(&snapshot.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EntityTag, FsmOutcome, VerdictAction};
    use crate::metrics::{Coverage, MetricsRegistry};
    use std::sync::Arc;

    fn ev(seq: u64, thread: u16, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            micros: seq * 100,
            thread,
            kind,
        }
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn empty_trace_is_valid_json() {
        assert_eq!(
            chrome_trace(&[], 0),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn golden_chrome_trace() {
        let events = vec![
            ev(
                0,
                1,
                EventKind::JniEnter {
                    func: "GetObjectClass".into(),
                },
            ),
            ev(
                1,
                1,
                EventKind::FsmTransition {
                    machine: Arc::from("local-reference"),
                    transition: Arc::from("Use"),
                    outcome: FsmOutcome::Error,
                    entity: Some(EntityTag::new("r#2")),
                },
            ),
            ev(
                2,
                1,
                EventKind::Verdict {
                    machine: Arc::from("local-reference"),
                    function: Arc::from("GetObjectClass"),
                    action: VerdictAction::ThrowException,
                },
            ),
            ev(
                3,
                1,
                EventKind::JniExit {
                    func: "GetObjectClass".into(),
                    nanos: 4200,
                    failed: true,
                },
            ),
            ev(4, NO_THREAD, EventKind::Gc { live: 7, freed: 3 }),
        ];
        let expected = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
            "{\"name\":\"GetObjectClass\",\"cat\":\"jni\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1},",
            "{\"name\":\"local-reference\",\"cat\":\"fsm\",\"ph\":\"i\",\"ts\":100,\"pid\":1,\"tid\":1,\"s\":\"t\",",
            "\"args\":{\"transition\":\"Use\",\"outcome\":\"ERROR\",\"entity\":\"r#2\"}},",
            "{\"name\":\"local-reference\",\"cat\":\"verdict\",\"ph\":\"i\",\"ts\":200,\"pid\":1,\"tid\":1,\"s\":\"t\",",
            "\"args\":{\"function\":\"GetObjectClass\",\"action\":\"throw\"}},",
            "{\"name\":\"GetObjectClass\",\"cat\":\"jni\",\"ph\":\"E\",\"ts\":300,\"pid\":1,\"tid\":1,",
            "\"args\":{\"nanos\":4200,\"failed\":true}},",
            "{\"name\":\"collection\",\"cat\":\"gc\",\"ph\":\"i\",\"ts\":400,\"pid\":1,\"tid\":9999,\"s\":\"t\",",
            "\"args\":{\"live\":7,\"freed\":3}}",
            "]}"
        );
        assert_eq!(chrome_trace(&events, 0), expected);
    }

    #[test]
    fn text_dump_includes_events_and_metrics() {
        let events = vec![ev(
            0,
            2,
            EventKind::JniEnter {
                func: "NewStringUTF".into(),
            },
        )];
        let mut metrics = MetricsRegistry::new();
        metrics.jni_call("NewStringUTF", 77, false);
        let snapshot = Snapshot {
            taken_at_micros: 5,
            metrics,
            coverage: Coverage::default(),
        };
        let text = text_dump(&events, &snapshot);
        assert!(text.contains("trace (1 events held):"));
        assert!(text.contains("jni  > NewStringUTF"));
        assert!(text.contains("metrics snapshot at +5us"));
    }

    #[test]
    fn drops_are_surfaced_in_both_exporters() {
        let events = vec![ev(
            9,
            1,
            EventKind::JniEnter {
                func: "NewStringUTF".into(),
            },
        )];
        // The instant leads the timeline; the rest is the zero-drop
        // rendering, unchanged.
        let instant = concat!(
            "{\"name\":\"dropped-events\",\"cat\":\"meta\",\"ph\":\"i\",\"ts\":0,",
            "\"pid\":1,\"tid\":9999,\"s\":\"t\",\"args\":{\"dropped\":42}},"
        );
        let plain = chrome_trace(&events, 0);
        let (head, tail) = plain.split_at("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[".len());
        assert_eq!(chrome_trace(&events, 42), format!("{head}{instant}{tail}"));

        let snapshot = |ring_dropped| Snapshot {
            taken_at_micros: 5,
            metrics: MetricsRegistry::new(),
            coverage: Coverage {
                recorded: 43,
                ring_dropped,
            },
        };
        let text = text_dump(&events, &snapshot(42));
        assert!(
            text.contains("trace (1 events held, 42 dropped):"),
            "{text}"
        );
        let text = text_dump(&events, &snapshot(0));
        assert!(text.contains("trace (1 events held):"), "{text}");
    }
}
