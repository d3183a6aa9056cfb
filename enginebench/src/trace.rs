//! The benchmark's own span recorder and the small numeric helpers the
//! reports share. Spans are taken around the benchmark's calls into the
//! engine (not inside it), kept in memory, and written out as Chrome
//! `trace_event` JSON when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Spans kept per run; later spans are counted as dropped.
const SPAN_CAP: usize = 100_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    id: u32,
    parent: u32,
}

/// In-memory span recorder. When off, [`Tracer::enter`] and
/// [`Tracer::exit`] cost one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans: (id, name, start).
    stack: Vec<(u32, &'static str, Instant)>,
    next_id: u32,
    dropped: u64,
}

/// An open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Token(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push((id, name, Instant::now()));
        Token(Some(self.stack.len()))
    }

    /// Close the span `token` opened.
    pub fn exit(&mut self, token: Token) {
        let Some(depth) = token.0 else { return };
        let end = Instant::now();
        debug_assert_eq!(depth, self.stack.len(), "spans close innermost first");
        let (id, name, start) = self.stack.pop().expect("an open span");
        let parent = self.stack.last().map_or(0, |s| s.0);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: end.duration_since(start).as_nanos() as u64,
                id,
                parent,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = self.enter(name);
        let out = f();
        self.exit(t);
        out
    }

    /// Chrome `trace_event` JSON: one complete (`"X"`) event per span,
    /// with its id and parent id as args, plus `extra` lines (already
    /// JSON objects) under `"benchmark"`.
    pub fn chrome_json(&self, extra: &[String]) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"dropped_spans\":{},\"benchmark\":[{}]}}",
            self.dropped,
            extra.join(",")
        );
        out
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nanoseconds per item.
pub fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// Milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Total bytes of the regular files under `dir` (recursively).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Copy the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux clock ids (`<time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) to a
    // valid, exclusively borrowed pointer and touches nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process, every thread (exited ones included),
/// in nanoseconds. Time a thread is runnable but not running — host
/// steal, waiting for a core — is not counted, nor is time blocked.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}
