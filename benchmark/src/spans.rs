//! Client-side spans around every call the benchmark makes into a
//! layer. Spans stay in memory (one log per thread, merged at the end)
//! and are written out as Chrome-trace JSON when the run finishes.
//!
//! A [`SpanLog`] always times its spans, so the untraced and traced runs
//! execute the same code; only a traced log keeps the records. The
//! difference between the two runs is the tracing overhead the report
//! prints as `trace.overhead.*`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// No enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

/// One finished span. `parent` indexes the same merged span list.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.daemon.open`.
    pub name: &'static str,
    /// Start, in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the process epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The session (or round) every span of one request shares.
    pub session: u64,
    /// The thread that recorded it.
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The process-wide time origin every log measures from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// An open span; hand it back to [`SpanLog::end`].
#[must_use]
pub struct Open {
    start: Instant,
    index: u32,
}

/// One thread's span log.
pub struct SpanLog {
    keep: bool,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl SpanLog {
    /// A log for thread `tid`; `keep` records spans, otherwise it only
    /// times them.
    pub fn new(keep: bool, tid: u32) -> SpanLog {
        SpanLog {
            keep,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, session: u64) -> Open {
        let start = Instant::now();
        if !self.keep {
            return Open {
                start,
                index: NO_PARENT,
            };
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: nanos_since_epoch(start),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            session,
            tid: self.tid,
        });
        self.stack.push(index);
        Open { start, index }
    }

    /// Closes a span and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if open.index != NO_PARENT {
            self.spans[open.index as usize].end_ns = nanos_since_epoch(now);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(open.index), "spans close innermost first");
        }
        now - open.start
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        session: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.begin(name, session);
        let r = f();
        (r, self.end(open))
    }
}

fn nanos_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Merges per-thread logs into one list, re-indexing parents.
pub fn merge(logs: impl IntoIterator<Item = SpanLog>) -> Vec<Span> {
    let mut out = Vec::new();
    for log in logs {
        extend(&mut out, log.spans);
    }
    out
}

/// Appends `more` to `spans`, re-indexing its parents.
pub fn extend(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len() as u32;
    spans.extend(more.into_iter().map(|mut s| {
        if s.parent != NO_PARENT {
            s.parent += base;
        }
        s
    }));
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Per span name: (count, total time, self time) in nanoseconds. Self
/// time is a span's duration minus the time its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(*child);
    }
    out
}

/// Writes at most `cap` spans as Chrome-trace JSON (complete `X`
/// events), with the count left out under `otherData`.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_chrome(path: &Path, spans: &[Span], cap: usize, label: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len().min(cap) * 128 + 256);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().take(cap).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = s.name.rsplit_once('.').map_or(s.name, |(l, _)| l);
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"session\":{},\"span\":{i},\"parent\":{parent}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.session,
        );
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"run\":{},\"spans\":{},\"omitted\":{}}}}}",
        jinn_serve::json::escape(label),
        spans.len(),
        spans.len().saturating_sub(cap)
    );
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(out.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "loadgen.session",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                session: 1,
                tid: 0,
            },
            Span {
                name: "serve.daemon.open",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                session: 1,
                tid: 0,
            },
            Span {
                name: "serve.daemon.wait",
                start_ns: 50,
                end_ns: 90,
                parent: 0,
                session: 1,
                tid: 0,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["loadgen.session"], (1, 100, 30));
        assert_eq!(t["serve.daemon.open"], (1, 30, 30));
        assert_eq!(durations(&spans, "serve.daemon.wait"), vec![40]);
    }

    #[test]
    fn logs_nest_and_merge() {
        let mut a = SpanLog::new(true, 0);
        let outer = a.begin("loadgen.session", 7);
        let inner = a.begin("serve.daemon.open", 7);
        a.end(inner);
        a.end(outer);
        let mut b = SpanLog::new(true, 1);
        let ((), _) = b.time("serve.store.query.by_machine", 0, || ());
        let merged = merge([b, a]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[2].parent, 1, "parent re-indexed past the first log");
        let mut off = SpanLog::new(false, 2);
        let o = off.begin("x.y", 0);
        off.end(o);
        assert!(merge([off]).is_empty(), "an untraced log keeps nothing");
    }
}
