//! Outside-in span recorder for the traced run.
//!
//! Spans wrap calls into the library's public entry points; nothing
//! inside the program is instrumented. Each span records its name
//! (`layer.op`), start, end, parent and optional job id. Spans stay in
//! memory and are written out once at the end of the run. A layer's
//! *self* time is the time inside its spans minus the time inside their
//! child spans; the root span's self time is the `unattributed` row.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn recording on or off; spans opened while off are not recorded.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

pub fn recording() -> bool {
    REC.with(|r| r.borrow().on)
}

/// An open span; closes (records its end) when dropped.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(i) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[i].end = r.origin.elapsed().as_secs_f64();
                let top = r.open.pop();
                debug_assert_eq!(top, Some(i), "spans close in LIFO order");
            });
        }
    }
}

pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

pub fn job_span(name: &'static str, job: u64) -> Guard {
    open(name, Some(job))
}

fn open(name: &'static str, job: Option<u64>) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let start = r.origin.elapsed().as_secs_f64();
        let parent = r.open.last().copied();
        let i = r.spans.len();
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job,
        });
        r.open.push(i);
        Guard(Some(i))
    })
}

/// Every recorded span, in open order.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Durations of every span named `name`, in seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Self time per layer (the part of the name before the first `.`),
/// with the root span's self time under `unattributed`.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let layer = if s.parent.is_none() {
            "unattributed"
        } else {
            s.name.split('.').next().unwrap_or(s.name)
        };
        *out.entry(layer.to_string()).or_insert(0.0) += s.secs() - child[i];
    }
    out
}

/// Spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"job\": {}}}\n",
            s.name,
            s.start,
            s.end,
            opt(s.parent.map(|p| p as u64)),
            opt(s.job)
        ));
    }
    out
}

/// Run `f` with recording paused, charging its whole time to one
/// `bench.untraced` span so it is not counted as unattributed.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let _s = span("bench.untraced");
    let was = recording();
    set_recording(false);
    let v = f();
    set_recording(was);
    v
}
