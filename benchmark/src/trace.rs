//! Benchmark-side span recording.
//!
//! Spans are recorded from the benchmark's own files, around the
//! calls into each layer: name, start, end, the span that caused it
//! and the request both belong to. Each measuring thread appends to a
//! thread-local log (no synchronisation while measuring); the logs are
//! collected when a cell ends and written out when the run ends.
//!
//! Timestamps are supplied by the caller, which reads
//! `asl_runtime::clock::now_ns()` (or [`stamp`]) — the virtual clock on a simulated
//! thread (where every read is *charged* 8 virtual ns, so tracing has a
//! measurable virtual price), the host clock otherwise.
//!
//! Tracing is a process-wide switch that is off for every end-to-end
//! number; checking it is one relaxed load and touches no substrate
//! hook, so an untraced simulated run is not perturbed by it.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::metrics::Clock;

/// "No parent" / "tracing was off" marker.
pub const NONE: u32 = u32::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Switch span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[inline]
pub fn on() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A timestamp for a span boundary: the clock while tracing is on, 0
/// (without touching the clock) while it is off. Lets a measured path
/// carry its span boundaries unconditionally: on a simulated thread
/// every clock read is charged virtual time, so an untraced run must
/// not make the reads that only tracing needs.
#[inline]
pub fn stamp() -> u64 {
    if on() {
        asl_runtime::clock::now_ns()
    } else {
        0
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this span brackets ("request", "wait", "hold"…).
    pub name: &'static str,
    /// The object the boundary belongs to ("kyoto.slot", a ladder
    /// rung…); empty when the name says it all.
    pub target: &'static str,
    /// Start timestamp (ns on the log's clock).
    pub start: u64,
    /// End timestamp; equals `start` while the span is still open.
    pub end: u64,
    /// Index of the causing span in the same log, or [`NONE`].
    pub parent: u32,
    /// Request identifier shared by every span of one request.
    pub req: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    /// Indices of spans begun and not yet ended, outermost first.
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Open a span at `now`; its parent is the innermost span still open
/// on this thread. Returns [`NONE`] (and records nothing) while
/// tracing is off.
pub fn begin(name: &'static str, req: u64, now: u64) -> u32 {
    begin_on(name, "", req, now)
}

/// [`begin`] for a boundary that belongs to the named `target`.
pub fn begin_on(name: &'static str, target: &'static str, req: u64, now: u64) -> u32 {
    if !on() {
        return NONE;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NONE);
        r.spans.push(Span {
            name,
            target,
            start: now,
            end: now,
            parent,
            req,
        });
        r.open.push(id);
        id
    })
}

/// Record an already-finished interval under an explicit `parent`
/// (for boundaries whose timestamps were taken on another thread, like
/// a request's scheduled arrival). Returns its id, or [`NONE`] while
/// tracing is off.
pub fn record(name: &'static str, req: u64, start: u64, end: u64, parent: u32) -> u32 {
    if !on() {
        return NONE;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.spans.push(Span {
            name,
            target: "",
            start,
            end,
            parent,
            req,
        });
        r.spans.len() as u32 - 1
    })
}

/// Close span `id` at `now`. Spans normally close innermost-first;
/// closing out of order (hand-over-hand locking) is tolerated.
pub fn end(id: u32, now: u64) {
    if id == NONE {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[id as usize].end = now;
        if let Some(pos) = r.open.iter().rposition(|&o| o == id) {
            r.open.remove(pos);
        }
    });
}

/// Request id of the innermost open span (0 when none): lets a layer
/// wrapper tag its spans with the request that is calling it.
pub fn current_req() -> u64 {
    RECORDER.with(|r| {
        let r = r.borrow();
        r.open.last().map_or(0, |&i| r.spans[i as usize].req)
    })
}

/// Take this thread's spans, leaving its recorder empty.
pub fn take_thread() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// The spans one thread recorded during one cell of a workload.
#[derive(Debug, Clone)]
pub struct ThreadLog {
    /// Workload cell ("amp-lock/libasl-60us", "host-kv/burst.slo"…).
    pub cell: String,
    /// Measuring thread within the cell.
    pub thread: usize,
    /// Clock the timestamps were read from.
    pub clock: Clock,
    /// The spans, parents indexing into this vector.
    pub spans: Vec<Span>,
}

/// Self time of every span in `spans`: its duration minus the part of
/// it that its direct children cover (children are clipped to the
/// parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let lo = s.start.max(p.start);
            let hi = s.end.min(p.end);
            covered[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Count the root spans whose descendants' self times do *not* add up
/// to the root's duration — the check that attribution loses nothing.
/// Returns `(roots, mismatches)`.
pub fn check_attribution(spans: &[Span]) -> (u64, u64) {
    let selfs = self_times(spans);
    // Sum self time up to each span's root (parents precede children).
    let mut root_of = vec![0u32; spans.len()];
    let mut sum = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = if s.parent == NONE {
            i as u32
        } else {
            root_of[s.parent as usize]
        };
        sum[root_of[i] as usize] += selfs[i];
    }
    let mut roots = 0;
    let mut bad = 0;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NONE {
            roots += 1;
            if sum[i] != s.duration() {
                bad += 1;
            }
        }
    }
    (roots, bad)
}

/// [`check_attribution`] summed over `logs`.
pub fn check_logs(logs: &[ThreadLog]) -> (u64, u64) {
    logs.iter()
        .map(|l| check_attribution(&l.spans))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Most spans written to the span file; statistics always use all of
/// them. Keeps a host-kv trace (millions of spans) to a readable size.
pub const MAX_SPANS_WRITTEN: usize = 200_000;

/// Write `logs` as JSON Lines: one header object, then one object per
/// span (see the README's "Reading the span file").
pub fn write_jsonl(
    path: &std::path::Path,
    header: &str,
    logs: &[ThreadLog],
) -> std::io::Result<()> {
    let total: usize = logs.iter().map(|l| l.spans.len()).sum();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{{header}, \"spans_total\": {total}, \"spans_written\": {}}}",
        total.min(MAX_SPANS_WRITTEN)
    )?;
    let mut written = 0usize;
    'logs: for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            if written == MAX_SPANS_WRITTEN {
                break 'logs;
            }
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"cell\": \"{}\", \"thread\": {}, \"clock\": \"{}\", \"id\": {i}, \"parent\": {parent}, \"req\": {}, \"name\": \"{}\", \"target\": \"{}\", \"start\": {}, \"end\": {}}}",
                log.cell,
                log.thread,
                log.clock.label(),
                s.req,
                s.name,
                s.target,
                s.start,
                s.end
            )?;
            written += 1;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_request_and_off_records_nothing() {
        set_enabled(true);
        let req = begin("request", 7, 100);
        let wait = begin("wait", current_req(), 110);
        end(wait, 150);
        let hold = begin("hold", 7, 150);
        let inner = begin("wait", 7, 160);
        end(inner, 170);
        end(hold, 200);
        end(req, 230);
        set_enabled(false);
        let spans = take_thread();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[1].req, 7);
        // request 130 - (40 + 50); hold 50 - 10.
        assert_eq!(self_times(&spans), vec![40, 40, 40, 10]);
        assert_eq!(check_attribution(&spans), (1, 0));

        // Same test, because the switch is process-wide: while off,
        // nothing is recorded.
        let id = begin("request", 1, 5);
        assert_eq!(id, NONE);
        end(id, 9);
        assert!(take_thread().is_empty());
    }
}
