//! Span tracing: RAII guards, mutex-sharded ring-buffer sink, and two
//! renderers (text flamegraph, Chrome `trace_event` JSON).
//!
//! Design constraints, in order:
//! 1. *Disabled must be free.* [`Tracer::span`] starts with one relaxed
//!    atomic load; when tracing is off it returns an inert guard whose
//!    `Drop` does nothing.
//! 2. *No allocation on the hot path.* Span names are `&'static str`;
//!    a finished span is one fixed-size record pushed into a bounded
//!    ring (oldest records overwritten, never a reallocation storm).
//! 3. *Implicit parentage.* Parent ids come from a thread-local
//!    current-span cell, so nesting follows scope: a span opened inside
//!    another on the same thread is its child.
//!
//! Records land in the ring when the span *ends*, so children precede
//! their parents in the buffer; renderers sort by start time and treat
//! records whose parent was evicted from the ring as roots.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Timestamps are nanoseconds since the tracer's
/// epoch (construction time), monotonic by construction ([`Instant`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id, > 0 (0 is "no span" / "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Static phase name (`"query"`, `"refine"`, `"ch_p2p"`, ...).
    pub name: &'static str,
    /// Small dense thread label (1, 2, ...) assigned per thread on first
    /// use — *not* the OS thread id.
    pub tid: u64,
    /// Start offset from the tracer epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<SpanRecord>,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

const SHARDS: usize = 8;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Dense per-thread label for trace rendering.
    static TRACE_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Innermost live span on this thread (0 = none).
    static CURRENT_SPAN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Active per-query capture buffer on this thread, if any. While
    /// set, finished spans land here instead of the tracer's rings —
    /// the tail sampler later commits or discards the whole buffer.
    static CAPTURE: RefCell<Option<CaptureBuf>> = const { RefCell::new(None) };
}

/// Buffer behind one in-flight query's capture, shared by the
/// [`TraceCapture`] and the thread's `CAPTURE` cell.
type CaptureBuf = Rc<RefCell<Vec<SpanRecord>>>;

/// An in-flight per-query span buffer started by
/// [`Tracer::begin_capture`]. While alive, every span finished on this
/// thread collects here instead of the tracer's rings. Consume with
/// [`TraceCapture::commit`] to publish the buffered spans to the sink,
/// or just drop it to discard them — the tail-sampling primitive.
#[must_use = "an unbound capture buffers nothing; commit or drop it explicitly"]
pub struct TraceCapture {
    inner: CaptureBuf,
    prev: Option<CaptureBuf>,
}

impl std::fmt::Debug for TraceCapture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCapture").finish()
    }
}

impl TraceCapture {
    /// Snapshot of the spans buffered so far, sorted by `(start_ns,
    /// id)`. Used to derive per-phase breakdowns for flight records
    /// without committing the trace.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut out = self.inner.borrow().clone();
        out.sort_by_key(|r| (r.start_ns, r.id));
        out
    }

    /// Publishes the buffered spans to `tracer`'s rings and ends the
    /// capture. Returns how many spans were committed.
    pub fn commit(self, tracer: &Tracer) -> usize {
        let spans = std::mem::take(&mut *self.inner.borrow_mut());
        let n = spans.len();
        tracer.push_records(spans);
        n
    }

    /// Ends the capture, dropping the buffered spans. Equivalent to
    /// letting it fall out of scope; named for call-site clarity.
    pub fn discard(self) {}
}

impl Drop for TraceCapture {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CAPTURE.with(|c| *c.borrow_mut() = prev);
    }
}

/// The span sink. Cheap to share behind `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    shards: Vec<Mutex<Ring>>,
}

impl Tracer {
    /// A tracer holding at most `capacity` finished spans (rounded up to
    /// a multiple of the shard count); older spans are evicted FIFO.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Ring {
                        buf: VecDeque::with_capacity(per_shard),
                        cap: per_shard,
                        dropped: 0,
                    })
                })
                .collect(),
        }
    }

    /// Whether spans are currently recorded. One relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span whose parent is the innermost live span on this
    /// thread. Returns an inert guard when tracing is disabled.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.is_enabled() {
            return Span::inert();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SPAN.with(|c| c.replace(id));
        Span {
            tracer: Some(self),
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Starts buffering this thread's spans into a fresh capture (see
    /// [`TraceCapture`]). Returns `None` when tracing is disabled — no
    /// spans would be produced, so there is nothing to buffer.
    pub fn begin_capture(&self) -> Option<TraceCapture> {
        if !self.is_enabled() {
            return None;
        }
        let inner = CaptureBuf::default();
        let prev = CAPTURE.with(|c| c.borrow_mut().replace(Rc::clone(&inner)));
        Some(TraceCapture { inner, prev })
    }

    /// Pushes already-finished records into the rings — the commit half
    /// of tail sampling. Records are sharded the same way as on the live
    /// path (by span id).
    pub fn push_records(&self, records: Vec<SpanRecord>) {
        for rec in records {
            self.store(rec);
        }
    }

    /// Files `rec` in the ring its span id selects. Ids are handed out
    /// sequentially across all threads, so the shards fill evenly and
    /// the tracer holds its whole capacity however few threads record
    /// (sharding by thread would cap one thread at `capacity / SHARDS`).
    fn store(&self, rec: SpanRecord) {
        let shard = (rec.id as usize) % SHARDS;
        let mut ring = match self.shards[shard].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        ring.push(rec);
    }

    fn record(&self, span: &Span<'_>) {
        let start_ns = span
            .start
            .saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        let dur_ns = span.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let rec = SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name,
            tid: TRACE_TID.with(|t| *t),
            start_ns,
            dur_ns,
        };
        // An active capture on this thread intercepts the record; it
        // reaches the rings only if the capture is later committed.
        let captured = CAPTURE.with(|c| match c.borrow().as_ref() {
            Some(cap) => {
                cap.borrow_mut().push(rec.clone());
                true
            }
            None => false,
        });
        if !captured {
            self.store(rec);
        }
    }

    /// All recorded spans, sorted by `(start_ns, id)` so renders are
    /// stable. Non-destructive.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let ring = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            out.extend(ring.buf.iter().cloned());
        }
        out.sort_by_key(|r| (r.start_ns, r.id));
        out
    }

    /// Spans evicted from the ring because the capacity was exceeded.
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| match s.lock() {
                Ok(g) => g.dropped,
                Err(poisoned) => poisoned.into_inner().dropped,
            })
            .sum()
    }

    /// Discard all recorded spans (keeps the epoch and id counter).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut ring = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            ring.buf.clear();
            ring.dropped = 0;
        }
    }
}

/// RAII span guard: records itself (and makes its parent the thread's
/// current span again) on drop. An inert guard does neither.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span<'a> {
    tracer: Option<&'a Tracer>,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Span<'_> {
    fn inert() -> Self {
        Span {
            tracer: None,
            id: 0,
            parent: 0,
            name: "",
            start: Instant::now(),
        }
    }

    /// This span's id (0 for an inert guard).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            CURRENT_SPAN.with(|c| c.set(self.parent));
            tracer.record(self);
        }
    }
}

/// Renders spans as Chrome `trace_event` JSON (the object form,
/// `{"traceEvents": [...]}`), loadable in `chrome://tracing` and
/// Perfetto. Each span becomes one complete (`"ph":"X"`) event with
/// microsecond `ts`/`dur`; span and parent ids ride along in `args`.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Names are static identifiers chosen by us, but escape anyway
        // so the output is valid JSON for any future name.
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"gpssn\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            crate::json::escape(r.name),
            format_us(r.start_ns),
            format_us(r.dur_ns),
            r.tid,
            r.id,
            r.parent
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Nanoseconds rendered as decimal microseconds ("12.345").
fn format_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders spans as an indented text flamegraph. Siblings with the same
/// name are aggregated (`verify_center x152`) so wide fan-outs stay
/// readable; durations are summed per aggregate.
pub fn text_flamegraph(records: &[SpanRecord]) -> String {
    use std::collections::{BTreeMap, HashMap, HashSet};
    let ids: HashSet<u64> = records.iter().map(|r| r.id).collect();
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for r in records {
        if r.parent != 0 && ids.contains(&r.parent) {
            children.entry(r.parent).or_default().push(r);
        } else {
            roots.push(r);
        }
    }
    let mut out = String::new();
    // Aggregate a sibling set by name, preserving first-start order.
    fn render(
        out: &mut String,
        depth: usize,
        siblings: &[&SpanRecord],
        children: &std::collections::HashMap<u64, Vec<&SpanRecord>>,
    ) {
        let mut by_name: BTreeMap<&'static str, (u64, u64, Vec<u64>)> = BTreeMap::new();
        let mut order: Vec<&'static str> = Vec::new();
        for r in siblings {
            let e = by_name.entry(r.name).or_insert_with(|| {
                order.push(r.name);
                (0, 0, Vec::new())
            });
            e.0 += 1;
            e.1 += r.dur_ns;
            e.2.push(r.id);
        }
        for name in order {
            let (count, total_ns, ids) = &by_name[name];
            out.push_str(&"  ".repeat(depth));
            if *count == 1 {
                out.push_str(&format!("{name} {:.3}ms\n", *total_ns as f64 / 1e6));
            } else {
                out.push_str(&format!(
                    "{name} x{count} {:.3}ms total\n",
                    *total_ns as f64 / 1e6
                ));
            }
            let mut grand: Vec<&SpanRecord> = Vec::new();
            for id in ids {
                if let Some(kids) = children.get(id) {
                    grand.extend(kids.iter().copied());
                }
            }
            if !grand.is_empty() {
                grand.sort_by_key(|r| (r.start_ns, r.id));
                render(out, depth + 1, &grand, children);
            }
        }
    }
    render(&mut out, 0, &roots, &children);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 16);
        {
            let _a = t.span("query");
            let _b = t.span("refine");
        }
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn nesting_links_parents_within_a_thread() {
        let t = Tracer::new(true, 64);
        let (qid, rid);
        {
            let q = t.span("query");
            qid = q.id();
            {
                let r = t.span("refine");
                rid = r.id();
                let _v = t.span("verify_center");
            }
            let _p = t.span("prune_road");
        }
        let recs = t.records();
        assert_eq!(recs.len(), 4);
        let by_name = |n: &str| recs.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by_name("query").parent, 0);
        assert_eq!(by_name("refine").parent, qid);
        assert_eq!(by_name("verify_center").parent, rid);
        assert_eq!(by_name("prune_road").parent, qid);
    }

    #[test]
    fn ring_holds_its_whole_capacity_across_threads() {
        const CAP: usize = 64 * SHARDS;
        let t = Tracer::new(true, CAP);
        // Two threads together record twice the capacity: the tracer
        // keeps exactly `CAP` spans and reports the other `CAP` dropped,
        // however the threads' spans interleave.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..CAP {
                        let _s = t.span("query");
                    }
                });
            }
        });
        assert_eq!(t.records().len(), CAP);
        assert_eq!(t.dropped(), CAP as u64);
        // Another `CAP` spans evict the oldest: only they remain.
        let first_new = t.span("query").id() + 1;
        for _ in 0..CAP {
            let _s = t.span("query");
        }
        assert!(t.records().iter().all(|r| r.id >= first_new));
        assert_eq!(t.dropped(), 2 * CAP as u64 + 1);
    }

    #[test]
    fn discarded_capture_leaves_no_trace() {
        let t = Tracer::new(true, 64);
        let cap = t.begin_capture().unwrap();
        {
            let _q = t.span("serve_request");
            let _r = t.span("refine");
        }
        assert_eq!(cap.records().len(), 2);
        cap.discard();
        assert!(t.records().is_empty());
        // After the capture ends, spans go straight to the rings again.
        {
            let _q = t.span("query");
        }
        assert_eq!(t.records().len(), 1);
    }

    #[test]
    fn committed_capture_reaches_the_rings() {
        let t = Tracer::new(true, 64);
        let cap = t.begin_capture().unwrap();
        let qid;
        {
            let q = t.span("serve_request");
            qid = q.id();
            let _r = t.span("refine");
        }
        assert_eq!(cap.commit(&t), 2);
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        let refine = recs.iter().find(|r| r.name == "refine").unwrap();
        assert_eq!(refine.parent, qid);
    }

    #[test]
    fn disabled_tracer_declines_capture() {
        let t = Tracer::new(false, 16);
        assert!(t.begin_capture().is_none());
    }

    #[test]
    fn nested_captures_restore_the_outer_one() {
        let t = Tracer::new(true, 64);
        let outer = t.begin_capture().unwrap();
        {
            let inner = t.begin_capture().unwrap();
            {
                let _s = t.span("inner_span");
            }
            assert_eq!(inner.records().len(), 1);
            inner.discard();
        }
        {
            let _s = t.span("outer_span");
        }
        let recs = outer.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "outer_span");
        outer.discard();
    }

    #[test]
    fn flamegraph_aggregates_siblings() {
        let t = Tracer::new(true, 64);
        {
            let _q = t.span("query");
            for _ in 0..3 {
                let _v = t.span("verify_center");
            }
        }
        let text = text_flamegraph(&t.records());
        assert!(text.contains("query"), "{text}");
        assert!(text.contains("verify_center x3"), "{text}");
    }
}
