//! In-memory span recording and the arithmetic on top of it.
//!
//! A span is one call across a layer boundary, recorded by the benchmark
//! around the call (nothing inside the program is instrumented): name,
//! start, end, the span that was open when it started, a request id, and
//! the allocation count over its lifetime. Spans are kept in memory and
//! written out as JSONL when the run ends.
//!
//! The tracer does not read a clock itself: it is handed two functions,
//! "nanoseconds now" and "allocations so far". The binary passes
//! `Instant` and its counting allocator; the tests pass counters, so span
//! arithmetic is pinned exactly.
//!
//! *Self time* of a span is its duration minus the time its direct
//! children cover; children never overlap, because spans open and close in
//! stack order on one thread.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Ties the spans of one unit of work together: tenant index in the
    /// high 32 bits, control tick in the low 32.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made while the span was open, children included.
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Request id for (tenant, tick).
pub fn request_id(tenant: usize, tick: u64) -> u64 {
    ((tenant as u64) << 32) | (tick & 0xFFFF_FFFF)
}

type Counter = Box<dyn Fn() -> u64 + Send>;

pub struct Tracer {
    now_ns: Counter,
    allocs: Counter,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The handle the driver and the store decorator share. Traced drives run
/// on one thread, so the lock is never contended; it exists because a
/// [`keebo::StateStore`] must be `Send`.
pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Tracer {
    pub fn new(now_ns: Counter, allocs: Counter) -> Self {
        Self {
            now_ns,
            allocs,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn shared(self) -> SharedTracer {
        Arc::new(Mutex::new(self))
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            request,
            start_ns: (self.now_ns)(),
            end_ns: 0,
            allocs: (self.allocs)(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span: spans nest.
    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close in stack order");
        let end = (self.now_ns)();
        let allocs = (self.allocs)();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.allocs = allocs - span.allocs;
    }

    /// Every closed span so far, in opening order.
    ///
    /// # Panics
    /// Panics if a span is still open.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "span still open");
        &self.spans
    }
}

/// Runs `f` inside a span on a shared tracer. The lock is released while
/// `f` runs, so `f` may record child spans through the same handle.
pub fn in_span<T>(
    tracer: &SharedTracer,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    let lock = || tracer.lock().unwrap_or_else(PoisonError::into_inner);
    let id = lock().enter(name, request);
    let out = f();
    lock().exit(id);
    out
}

/// Totals for all spans of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Allocations made by the spans themselves, children excluded.
    pub self_allocs: u64,
    /// Each span's duration, in opening order.
    pub durations_ns: Vec<u64>,
}

/// Per-name totals over `spans`: a whole trace, or any subset that holds
/// the children of every span in it (such as [`under`] returns).
pub fn layers(spans: &[&Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    let mut child_allocs: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
            *child_allocs.entry(p).or_default() += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += s.duration_ns();
        layer.self_ns += s.duration_ns() - child_ns.get(&s.id).copied().unwrap_or(0);
        layer.self_allocs += s.allocs - child_allocs.get(&s.id).copied().unwrap_or(0);
        layer.durations_ns.push(s.duration_ns());
    }
    out
}

/// The spans at or below any root span called `root`, parents before
/// children.
pub fn under<'a>(spans: &'a [Span], root: &str) -> Vec<&'a Span> {
    let mut inside = vec![false; spans.len()];
    let mut out = Vec::new();
    for s in spans {
        let keep = match s.parent {
            None => s.name == root,
            Some(p) => inside[p as usize],
        };
        inside[s.id as usize] = keep;
        if keep {
            out.push(s);
        }
    }
    out
}

/// One span per line, as JSON.
pub fn to_jsonl(spans: &[Span]) -> String {
    spans
        .iter()
        .map(|s| serde_json::to_string(s).expect("in-memory serialisation cannot fail") + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A tracer whose clock advances 10 ns per reading and whose allocation
    /// counter advances 1 per reading.
    fn fake() -> Tracer {
        let clock = Arc::new(AtomicU64::new(0));
        let allocs = Arc::new(AtomicU64::new(0));
        Tracer::new(
            Box::new(move || clock.fetch_add(10, Ordering::SeqCst)),
            Box::new(move || allocs.fetch_add(1, Ordering::SeqCst)),
        )
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = fake();
        let round = t.enter("round", 0); //            start 0
        let tick = t.enter("tick", 7); //              start 10
        let append = t.enter("append", 7); //          start 20
        t.exit(append); //                             end 30
        let snap = t.enter("snapshot", 7); //          start 40
        t.exit(snap); //                               end 50
        t.exit(tick); //                               end 60
        let sim = t.enter("sim", 8); //                start 70
        t.exit(sim); //                                end 80
        t.exit(round); //                              end 90

        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].request, 7);

        let l = layers(&spans.iter().collect::<Vec<_>>());
        assert_eq!(l["round"].total_ns, 90);
        assert_eq!(l["tick"].total_ns, 50);
        assert_eq!(
            l["tick"].self_ns, 30,
            "50 minus append 10 minus snapshot 10"
        );
        assert_eq!(l["round"].self_ns, 30, "90 minus tick 50 minus sim 10");
        assert_eq!(l["append"].self_ns, 10);
        let self_sum: u64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, 90, "self times partition the root span");

        // The counter ticks once per enter and once per exit.
        assert_eq!(l["append"].self_allocs, 1);
        assert_eq!(
            spans[1].allocs, 5,
            "tick: its own exit plus two children's enter+exit"
        );
        assert_eq!(l["tick"].self_allocs, 3);
    }

    #[test]
    fn under_selects_whole_subtrees_by_root_name() {
        let mut t = fake();
        let a = t.enter("round", 0);
        let b = t.enter("tick", 0);
        t.exit(b);
        t.exit(a);
        let c = t.enter("probe", 0);
        let d = t.enter("tick", 0);
        t.exit(d);
        t.exit(c);
        let spans = t.spans();
        let names = |root: &str| -> Vec<u32> { under(spans, root).iter().map(|s| s.id).collect() };
        assert_eq!(names("round"), [0, 1]);
        assert_eq!(names("probe"), [2, 3]);
        assert!(names("tick").is_empty(), "only roots are matched by name");
        let l = layers(&under(spans, "round"));
        assert_eq!(l["tick"].count, 1);
    }

    #[test]
    fn in_span_allows_nested_recording_through_the_same_handle() {
        let shared = fake().shared();
        let inner = Arc::clone(&shared);
        let got = in_span(&shared, "outer", 1, || in_span(&inner, "inner", 1, || 42));
        assert_eq!(got, 42);
        let guard = shared.lock().unwrap();
        assert_eq!(guard.spans()[1].parent, Some(0));
        assert!(to_jsonl(guard.spans()).lines().count() == 2);
    }

    #[test]
    #[should_panic(expected = "stack order")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = fake();
        let a = t.enter("a", 0);
        let _b = t.enter("b", 0);
        t.exit(a);
    }
}
