//! Long-running query service: work-balanced scheduling, admission
//! control, and a streaming JSONL front-end.
//!
//! Geo-social group queries are bursty and interactive (impromptu
//! activity planning), and per-query cost is wildly skewed — exactly the
//! variance the paper's pruning lemmas induce: one large-radius query
//! with a dense social neighborhood can cost orders of magnitude more
//! than its neighbors. This module turns the one-shot engine into a
//! service:
//!
//! * **Scheduling** — worker threads pull requests off a shared bounded
//!   queue one at a time, so a skewed request never strands cheap ones
//!   behind it; [`GpSsnEngine::try_query_batch`] runs on this same pool.
//!   Responses are delivered strictly in submission order through a
//!   reorder buffer, and each response is released as soon as it *and
//!   everything before it* is done — streaming, not batch-at-the-end.
//! * **Admission control** — the submission queue is bounded
//!   ([`ServeConfig::queue_capacity`]). A full queue either blocks the
//!   submitter (backpressure, the default) or sheds the request with
//!   [`GpSsnError::Overloaded`] ([`OverloadPolicy::Shed`]). Requests
//!   whose deadline has already expired — at submission, or after
//!   waiting in the queue — are shed with [`GpSsnError::DeadlineExpired`]
//!   *before any engine work is spent on them*; a request that is
//!   dispatched late runs under its remaining deadline only.
//! * **Isolation** — every request runs panic-isolated: a panic inside
//!   one query surfaces as [`GpSsnError::Internal`] in that request's
//!   response and the service keeps draining. The scoped panic-capture hook is held for the
//!   serve call only (see [`crate::panic_capture`]).
//! * **Telemetry** — when the engine carries a live metrics sink:
//!   `gpssn_serve_queue_depth` (gauge), `gpssn_serve_submitted_total`,
//!   `gpssn_serve_served_total`, `gpssn_serve_shed_total{reason}`
//!   (counters), and the per-request `gpssn_serve_queue_wait_ns`
//!   histogram.
//! * **Continuous observability** — independent of the engine's `Obs`,
//!   every serve call records into an always-on [`ServeObs`]: a
//!   [flight recorder](gpssn_obs::flight) of recent completed-request
//!   records, [rolling SLO windows](gpssn_obs::window) over latency and
//!   queue wait, and [tail-based trace sampling](gpssn_obs::tail) that
//!   commits a query's buffered span tree to the trace sink only when
//!   the query was slow, errored, shed, or degraded (plus a
//!   deterministic 1-in-N head sample). Set
//!   [`ServeConfig::telemetry_addr`] to expose it all over a
//!   zero-dependency HTTP listener (`/metrics`, `/health`, `/slo`,
//!   `/flight` — see [`crate::telemetry`]), or send a JSONL control
//!   line (`{"control":"flight"}`) to get the same dumps in-stream.
//!
//! [`serve`] is the programmatic entry point (an iterator of
//! [`Submission`]s in, an in-order response callback out); [`serve_jsonl`]
//! wraps it with a line-by-line JSONL protocol shared by `gpq serve` and
//! `gpq`'s file mode — input is never slurped into memory, and a
//! malformed line produces a per-line error record instead of aborting
//! the stream. Draining is graceful: on end of input the queue closes,
//! every admitted request still completes, and the callback sees every
//! submission exactly once.
//!
//! Chaos: the `serve::queue_full` fail-point (armed with `--features
//! failpoints`) simulates a full submission queue at admission time.
//! Under [`OverloadPolicy::Shed`] the affected request is shed with
//! [`GpSsnError::Overloaded`], exercising the shedding path without real
//! pressure; under [`OverloadPolicy::Block`] a full queue only delays
//! the submitter, so the fault is counted but admits the request.

use crate::algorithm::{resolve_threads, run_isolated, GpSsnEngine, QueryOptions};
use crate::error::{Completion, GpSsnError, QueryBudget};
use crate::query::{GpSsnAnswer, GpSsnQuery};
use crate::stats::{Counter, QueryOutcome};
use gpssn_obs::{
    json, FlightConfig, FlightRecord, FlightRecorder, Obs, Registry, ServeClass, SloConfig,
    SloMonitor, SpanRecord, TailConfig, TailDecision, TailSampler, WindowConfig,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What to do when a request arrives and the submission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block the submitter until a worker frees a slot (backpressure).
    /// The right choice when the submitter reads from a stream it can
    /// simply stop consuming, like `gpq serve` on stdin.
    #[default]
    Block,
    /// Reject the request immediately with [`GpSsnError::Overloaded`].
    /// The right choice when blocking the submitter would block the
    /// caller's event loop.
    Shed,
}

/// Continuous-observability knobs for one serve call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeObsConfig {
    /// Flight-recorder ring size.
    pub flight: FlightConfig,
    /// Tail-sampling policy (latency threshold, head rate, seed).
    pub tail: TailConfig,
    /// Rolling-window shape shared by the latency / queue-wait / SLO
    /// windows.
    pub window: WindowConfig,
    /// The SLO evaluated over the rolling window.
    pub slo: SloConfig,
}

/// The always-on serve-path observability state: flight recorder,
/// rolling SLO windows, tail sampler, and live queue depth. One
/// instance is shared (via `Arc` in [`ServeConfig::telemetry`]) by the
/// serve workers, the telemetry endpoint, and the caller, who can
/// inspect it after — or, from another thread, during — the serve call.
///
/// Unlike the engine's optional `Obs`, this layer stays on even when
/// metrics and tracing are disabled; it is sized to cost one short
/// mutex acquisition per completed request.
pub struct ServeObs {
    flight: FlightRecorder,
    slo: SloMonitor,
    tail: TailSampler,
    queue_depth: AtomicI64,
    bound: Mutex<Option<SocketAddr>>,
    listener_error: Mutex<Option<String>>,
}

impl std::fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeObs")
            .field("flight_records", &self.flight.len())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl ServeObs {
    pub fn new(cfg: &ServeObsConfig) -> Self {
        ServeObs {
            flight: FlightRecorder::new(&cfg.flight),
            slo: SloMonitor::new(&cfg.window, cfg.slo),
            tail: TailSampler::new(&cfg.tail),
            queue_depth: AtomicI64::new(0),
            bound: Mutex::new(None),
            listener_error: Mutex::new(None),
        }
    }

    /// The flight recorder (ring of recent completed-request records).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The rolling SLO monitor.
    pub fn slo(&self) -> &SloMonitor {
        &self.slo
    }

    /// The tail sampler's state.
    pub fn tail(&self) -> &TailSampler {
        &self.tail
    }

    /// Requests admitted to the queue and not yet dispatched. Exactly 0
    /// after a serve call drains.
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The address the telemetry listener actually bound (useful with
    /// a `:0` port), or `None` when no listener is running.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        *lock(&self.bound)
    }

    /// Why the telemetry listener failed to start, if it did.
    pub fn listener_error(&self) -> Option<String> {
        lock(&self.listener_error).clone()
    }

    /// Publishes the rolling windows, tail-sampler tallies, and flight
    /// gauges into `reg` as absolute values — safe to call repeatedly
    /// before every scrape.
    pub fn publish(&self, reg: &Registry) {
        self.slo.publish(reg, self.slo.now_ns());
        let (outcome, slow, head, dropped) = self.tail.stats();
        for (reason, n) in [("outcome", outcome), ("slow", slow), ("head", head)] {
            reg.set_counter("gpssn_trace_tail_committed_total", &[("reason", reason)], n);
        }
        reg.set_counter("gpssn_trace_tail_dropped_total", &[], dropped);
        reg.set_gauge("gpssn_flight_records", &[], self.flight.len() as f64);
        reg.set_counter("gpssn_flight_evicted_total", &[], self.flight.dropped());
        reg.set_gauge("gpssn_serve_queue_depth", &[], self.queue_depth() as f64);
    }
}

impl Default for ServeObs {
    fn default() -> Self {
        ServeObs::new(&ServeObsConfig::default())
    }
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` uses the machine's available parallelism
    /// (resolved by the same rule as every other thread knob).
    pub threads: usize,
    /// Bound on queued-but-not-dispatched requests. With
    /// [`OverloadPolicy::Block`] a zero capacity is clamped to 1 (a
    /// zero-capacity blocking queue could never admit anything).
    pub queue_capacity: usize,
    /// Budget applied to requests that carry none of their own.
    pub default_budget: QueryBudget,
    /// Engine options shared by every request this service answers.
    pub options: QueryOptions,
    /// Full-queue behavior.
    pub overload: OverloadPolicy,
    /// The continuous-observability state this serve call records into.
    /// Cloning the config shares it; keep a clone of the `Arc` to read
    /// the flight recorder / SLO windows after (or during) the call.
    pub telemetry: Arc<ServeObs>,
    /// When set, a hand-rolled HTTP/1.1 listener binds here for the
    /// duration of the serve call, serving `GET /metrics`, `/health`,
    /// `/slo`, and `/flight` concurrently with query traffic. Use a
    /// `:0` port and [`ServeObs::telemetry_addr`] to let the OS pick.
    pub telemetry_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            queue_capacity: 256,
            default_budget: QueryBudget::unlimited(),
            options: QueryOptions::default(),
            overload: OverloadPolicy::Block,
            telemetry: Arc::new(ServeObs::default()),
            telemetry_addr: None,
        }
    }
}

/// One query request submitted to the service.
///
/// `budget.deadline` is interpreted as measured **from submission**: the
/// time a request spends waiting in the queue counts against it, an
/// expired request is shed without engine work, and a late-dispatched
/// request runs under its remaining deadline only. The work-unit caps
/// are passed to the engine unchanged.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The query.
    pub query: GpSsnQuery,
    /// Per-request budget (see the deadline note above).
    pub budget: QueryBudget,
}

/// One unit of input to [`serve`].
#[derive(Debug, Clone)]
pub enum Submission {
    /// A request to admit and run.
    Request(ServeRequest),
    /// A slot that already failed upstream (e.g. a malformed JSONL
    /// line). It flows through the ordered response stream as an error
    /// record without touching the queue or the engine.
    Rejected {
        /// Correlation id echoed in the response.
        id: u64,
        /// Why the slot never became a request.
        error: GpSsnError,
    },
}

/// One response, delivered in submission order.
#[derive(Debug)]
pub struct ServeResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The outcome: `Ok` iff the engine ran the query to an outcome
    /// (which may itself report a degraded completion); shed and
    /// pre-rejected submissions carry the typed error.
    pub result: Result<QueryOutcome, GpSsnError>,
    /// Time the request waited in the submission queue
    /// (`Duration::ZERO` for requests that never reached it).
    pub queue_wait: Duration,
}

/// What one [`serve`] call did, in submission counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submissions consumed from the input (requests + rejected slots).
    pub submitted: u64,
    /// Requests that reached the engine.
    pub served: u64,
    /// Requests shed because their deadline expired before dispatch.
    pub shed_expired: u64,
    /// Requests shed because the queue was full (only under
    /// [`OverloadPolicy::Shed`] or the `serve::queue_full` fail-point).
    pub shed_overloaded: u64,
    /// Pre-rejected slots passed through (malformed JSONL lines).
    pub rejected: u64,
}

/// A queued, admitted request.
struct Queued {
    seq: u64,
    req: ServeRequest,
    enqueued: Instant,
    deadline_at: Option<Instant>,
}

/// The bounded submission queue. `closed` flips on end of input; workers
/// drain what remains and exit.
struct QueueState {
    queue: VecDeque<Queued>,
    closed: bool,
}

/// Reorder buffer releasing responses in submission order.
struct Emitter<F> {
    next_seq: u64,
    pending: BTreeMap<u64, ServeResponse>,
    on_response: F,
}

impl<F: FnMut(ServeResponse)> Emitter<F> {
    fn emit(&mut self, seq: u64, resp: ServeResponse) {
        self.pending.insert(seq, resp);
        while let Some(r) = self.pending.remove(&self.next_seq) {
            (self.on_response)(r);
            self.next_seq += 1;
        }
    }
}

/// The engine's metrics sink, when live.
fn metrics_of<'e>(engine: &'e GpSsnEngine<'_>) -> Option<&'e Obs> {
    engine
        .obs_handle()
        .map(|o| o.as_ref())
        .filter(|o| o.metrics_on())
}

fn lock<'m, T>(m: &'m Mutex<T>) -> MutexGuard<'m, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs the service over a stream of submissions, invoking
/// `on_response` for every submission **in submission order**, as soon
/// as each response (and everything before it) is ready. Returns once
/// the input is exhausted and every admitted request has completed.
///
/// The input iterator is pulled lazily on the calling thread, so under
/// [`OverloadPolicy::Block`] a full queue stops consumption — natural
/// backpressure for streaming inputs.
pub fn serve<I, F>(
    engine: &GpSsnEngine<'_>,
    cfg: &ServeConfig,
    requests: I,
    on_response: F,
) -> ServeStats
where
    I: IntoIterator<Item = Submission>,
    F: FnMut(ServeResponse) + Send,
{
    let threads = resolve_threads(cfg.threads, usize::MAX);
    let capacity = match cfg.overload {
        OverloadPolicy::Block => cfg.queue_capacity.max(1),
        OverloadPolicy::Shed => cfg.queue_capacity,
    };
    let _capture = crate::panic_capture::capture_scope();
    let obs = metrics_of(engine);
    let tele = cfg.telemetry.as_ref();

    let state = Mutex::new(QueueState {
        queue: VecDeque::new(),
        closed: false,
    });
    let not_empty = Condvar::new();
    let not_full = Condvar::new();
    let emitter = Mutex::new(Emitter {
        next_seq: 0,
        pending: BTreeMap::new(),
        on_response,
    });
    let served = AtomicU64::new(0);
    let shed_expired = AtomicU64::new(0);

    // The telemetry listener (when requested) binds before any query
    // runs, so a scrape racing the first request still connects.
    let listener =
        cfg.telemetry_addr
            .as_deref()
            .and_then(|addr| match std::net::TcpListener::bind(addr) {
                Ok(l) => {
                    if let Err(e) = l.set_nonblocking(true) {
                        *lock(&tele.listener_error) = Some(e.to_string());
                        return None;
                    }
                    *lock(&tele.bound) = l.local_addr().ok();
                    Some(l)
                }
                Err(e) => {
                    *lock(&tele.listener_error) = Some(format!("bind {addr}: {e}"));
                    None
                }
            });
    let stop = AtomicBool::new(false);

    let mut stats = ServeStats::default();
    std::thread::scope(|outer| {
        if let Some(l) = listener {
            let ctx = crate::telemetry::TelemetryCtx {
                engine,
                tele,
                queue_capacity: capacity,
                workers: threads,
            };
            let stop = &stop;
            outer.spawn(move || crate::telemetry::run_listener(l, stop, ctx));
        }
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    worker_loop(
                        engine,
                        cfg,
                        &state,
                        &not_empty,
                        &not_full,
                        &emitter,
                        obs,
                        &served,
                        &shed_expired,
                    );
                });
            }

            // A submission the engine never sees (a slot rejected
            // upstream, a request shed at admission) still takes its
            // turn in the flight recorder, the SLO window and the
            // ordered stream.
            let respond_unserved = |seq: u64, id: u64, error: GpSsnError| {
                let result = Err(error);
                record_completion(
                    tele,
                    seq,
                    &result,
                    Duration::ZERO,
                    Duration::ZERO,
                    Vec::new(),
                    false,
                );
                lock(&emitter).emit(
                    seq,
                    ServeResponse {
                        id,
                        result,
                        queue_wait: Duration::ZERO,
                    },
                );
            };
            // Submitter: the calling thread. Each submission gets the
            // next seq so responses come back in input order.
            for (seq, sub) in (0u64..).zip(requests) {
                stats.submitted += 1;
                if let Some(o) = obs {
                    o.inc("gpssn_serve_submitted_total", &[], 1);
                }
                let req = match sub {
                    Submission::Rejected { id, error } => {
                        stats.rejected += 1;
                        respond_unserved(seq, id, error);
                        continue;
                    }
                    Submission::Request(req) => req,
                };
                let now = Instant::now();
                // Submission-time shed: a deadline of zero was dead on
                // arrival; don't even queue it.
                if req.budget.deadline.is_some_and(|d| d.is_zero()) {
                    stats.shed_expired += 1;
                    shed(obs, "expired");
                    respond_unserved(seq, req.id, GpSsnError::DeadlineExpired);
                    continue;
                }
                let deadline_at = req.budget.deadline.map(|d| now + d);
                // Fault site: pretend the queue is full at admission.
                // Only `Shed` turns a full queue into a response; a
                // blocking submitter would merely wait for a slot, and
                // waiting on a fault nothing will clear would wedge it.
                let forced_full = gpssn_failpoint::failpoint!("serve::queue_full")
                    && cfg.overload == OverloadPolicy::Shed;
                let mut st = lock(&state);
                let admitted = if forced_full {
                    false
                } else {
                    loop {
                        if st.queue.len() < capacity {
                            break true;
                        }
                        match cfg.overload {
                            OverloadPolicy::Shed => break false,
                            OverloadPolicy::Block => {
                                st = not_full.wait(st).unwrap_or_else(|p| p.into_inner());
                            }
                        }
                    }
                };
                if !admitted {
                    let depth = st.queue.len();
                    drop(st);
                    stats.shed_overloaded += 1;
                    shed(obs, "overloaded");
                    respond_unserved(seq, req.id, GpSsnError::Overloaded { depth, capacity });
                    continue;
                }
                st.queue.push_back(Queued {
                    seq,
                    req,
                    enqueued: now,
                    deadline_at,
                });
                let depth = tele.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                note_depth(obs, depth);
                drop(st);
                not_empty.notify_one();
            }

            // Graceful drain: close the queue; workers finish what is
            // admitted and exit.
            lock(&state).closed = true;
            not_empty.notify_all();
        });
        // Workers are done; stop the listener and let the outer scope
        // join it.
        stop.store(true, Ordering::Relaxed);
    });

    // Every admitted request was dispatched, so the depth counter — and
    // the gauge derived from it — must read exactly zero again. The
    // counter is the source of truth; resync the gauge in case gauge
    // writes raced.
    debug_assert_eq!(tele.queue_depth(), 0, "queue depth must drain to 0");
    note_depth(obs, tele.queue_depth());

    stats.served = served.load(Ordering::Relaxed);
    stats.shed_expired += shed_expired.load(Ordering::Relaxed);
    stats
}

/// One worker: pop, shed-if-expired, run panic-isolated, emit.
#[allow(clippy::too_many_arguments)]
fn worker_loop<F: FnMut(ServeResponse)>(
    engine: &GpSsnEngine<'_>,
    cfg: &ServeConfig,
    state: &Mutex<QueueState>,
    not_empty: &Condvar,
    not_full: &Condvar,
    emitter: &Mutex<Emitter<F>>,
    obs: Option<&Obs>,
    served: &AtomicU64,
    shed_expired: &AtomicU64,
) {
    let tele = cfg.telemetry.as_ref();
    let tracer = engine.obs_handle().map(|o| o.tracer());
    loop {
        let mut st = lock(state);
        let item = loop {
            if let Some(it) = st.queue.pop_front() {
                break Some(it);
            }
            if st.closed {
                break None;
            }
            st = not_empty.wait(st).unwrap_or_else(|p| p.into_inner());
        };
        if item.is_some() {
            // Decrement on *every* dequeue — the request may yet shed
            // on deadline or panic, but it has left the queue.
            let depth = tele.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
            note_depth(obs, depth);
        }
        drop(st);
        let Some(it) = item else {
            return;
        };
        not_full.notify_one();

        let wait = it.enqueued.elapsed();
        if let Some(o) = obs {
            o.observe(
                "gpssn_serve_queue_wait_ns",
                &[],
                wait.as_nanos().min(NS_MAX) as u64,
            );
        }
        let now = Instant::now();
        // Buffer this request's spans; the tail sampler decides at
        // completion whether the trace survives. `None` when tracing
        // is off — nothing to buffer, nothing to decide.
        let capture = tracer.and_then(|t| t.begin_capture());
        let result = {
            let _root = tracer.map(|t| t.span("serve_request"));
            match it.deadline_at {
                // Dispatch-time shed: the request aged out in the
                // queue. The engine never sees it.
                Some(at) if now >= at => {
                    shed_expired.fetch_add(1, Ordering::Relaxed);
                    shed(obs, "expired");
                    Err(GpSsnError::DeadlineExpired)
                }
                _ => {
                    let mut budget = it.req.budget.clone();
                    if let Some(at) = it.deadline_at {
                        // The queue wait already spent part of the
                        // deadline.
                        budget.deadline = Some(at.saturating_duration_since(now));
                    }
                    served.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = obs {
                        o.inc("gpssn_serve_served_total", &[], 1);
                    }
                    run_isolated(engine, &it.req.query, &cfg.options, &budget)
                }
            }
        };
        let total = it.enqueued.elapsed();
        let (class, _, _) = classify(&result);
        let mut phases = Vec::new();
        let mut committed = false;
        if let Some(cap) = capture {
            phases = phase_breakdown(&cap.records());
            let interesting = class != ServeClass::Ok;
            match tele
                .tail
                .decide(total.as_nanos().min(NS_MAX) as u64, interesting)
            {
                TailDecision::Keep(_) => {
                    if let Some(t) = tracer {
                        cap.commit(t);
                        committed = true;
                    }
                }
                TailDecision::Drop => cap.discard(),
            }
        }
        record_completion(tele, it.seq, &result, total, wait, phases, committed);
        lock(emitter).emit(
            it.seq,
            ServeResponse {
                id: it.req.id,
                result,
                queue_wait: wait,
            },
        );
    }
}

fn shed(obs: Option<&Obs>, reason: &'static str) {
    if let Some(o) = obs {
        o.inc("gpssn_serve_shed_total", &[("reason", reason)], 1);
    }
}

fn note_depth(obs: Option<&Obs>, depth: i64) {
    if let Some(o) = obs {
        o.base_registry()
            .set_gauge("gpssn_serve_queue_depth", &[], depth as f64);
    }
}

/// Coarse outcome class plus the degradation rung and error code,
/// derived from one response's result.
fn classify(result: &Result<QueryOutcome, GpSsnError>) -> (ServeClass, &'static str, &'static str) {
    match result {
        Ok(out) => match &out.completion {
            Completion::Exact => (ServeClass::Ok, "exact", ""),
            Completion::TruncatedWithGap(_) => (ServeClass::Degraded, "truncated", ""),
            Completion::DegradedSampling => (ServeClass::Degraded, "sampling", ""),
            Completion::Failed(e) => (ServeClass::Error, "failed", error_code(e)),
        },
        Err(e @ (GpSsnError::DeadlineExpired | GpSsnError::Overloaded { .. })) => {
            (ServeClass::Shed, "", error_code(e))
        }
        Err(e) => (ServeClass::Error, "", error_code(e)),
    }
}

/// Which distance backend actually served the request's batches.
fn backend_label(out: &QueryOutcome) -> &'static str {
    let c = &out.metrics.counters;
    match (c[Counter::ChBatches] > 0, c[Counter::DijkstraBatches] > 0) {
        (true, true) => "mixed",
        (true, false) => "ch",
        (false, true) => "dijkstra",
        (false, false) => "",
    }
}

/// Per-phase wall-clock breakdown from a query's captured spans: the
/// children of the engine's `query` span(s) (falling back to children
/// of the `serve_request` root when the engine never opened one),
/// aggregated by name in first-start order.
fn phase_breakdown(recs: &[SpanRecord]) -> Vec<(&'static str, u64)> {
    use std::collections::HashSet;
    let mut parents: HashSet<u64> = recs
        .iter()
        .filter(|r| r.name == "query")
        .map(|r| r.id)
        .collect();
    if parents.is_empty() {
        parents = recs
            .iter()
            .filter(|r| r.name == "serve_request")
            .map(|r| r.id)
            .collect();
    }
    let mut order: Vec<&'static str> = Vec::new();
    let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in recs {
        if parents.contains(&r.parent) {
            let e = sums.entry(r.name).or_insert_with(|| {
                order.push(r.name);
                0
            });
            *e += r.dur_ns;
        }
    }
    order.into_iter().map(|n| (n, sums[n])).collect()
}

const NS_MAX: u128 = u64::MAX as u128;

/// Records one finished (or shed, or rejected) submission into the
/// flight recorder and the rolling SLO windows. Called on every path
/// that emits a response, so the continuous layer sees exactly the
/// stream the caller sees.
#[allow(clippy::too_many_arguments)]
fn record_completion(
    tele: &ServeObs,
    seq: u64,
    result: &Result<QueryOutcome, GpSsnError>,
    total: Duration,
    queue_wait: Duration,
    phases: Vec<(&'static str, u64)>,
    trace_committed: bool,
) {
    let (class, completion, code) = classify(result);
    let total_ns = total.as_nanos().min(NS_MAX) as u64;
    let queue_wait_ns = queue_wait.as_nanos().min(NS_MAX) as u64;
    let now_ns = tele.slo.now_ns();
    tele.slo.record(now_ns, total_ns, queue_wait_ns, class);
    let (backend, counters) = match result {
        Ok(out) => (
            backend_label(out),
            out.metrics
                .counters
                .iter()
                .map(|(c, v)| (c.key(), v))
                .collect(),
        ),
        Err(_) => ("", Vec::new()),
    };
    tele.flight.record(FlightRecord {
        id: 0, // assigned by the recorder
        seq,
        class: class.label(),
        completion,
        code,
        backend,
        end_ns: now_ns,
        total_ns,
        queue_wait_ns,
        counters,
        phases,
        trace_committed,
    });
}

// ---------------------------------------------------------------------
// JSONL protocol
// ---------------------------------------------------------------------

/// Stable machine-readable code for each error class (the string twin
/// of `gpq`'s numeric exit codes).
pub fn error_code(e: &GpSsnError) -> &'static str {
    match e {
        GpSsnError::InvalidQuery(_) => "invalid_query",
        GpSsnError::UnknownUser { .. } => "unknown_user",
        GpSsnError::RadiusOutOfIndexRange { .. } => "radius_out_of_range",
        GpSsnError::Infeasible { .. } => "infeasible",
        GpSsnError::DeadlineExceeded => "deadline_exceeded",
        GpSsnError::BudgetExhausted { .. } => "budget_exhausted",
        GpSsnError::Overloaded { .. } => "overloaded",
        GpSsnError::DeadlineExpired => "deadline_expired",
        GpSsnError::IndexCorrupt { .. } => "index_corrupt",
        GpSsnError::Internal(_) => "internal",
    }
}

/// Parses one JSONL request line. Field reference:
///
/// ```json
/// {"id":7,"user":11,"tau":4,"gamma":0.3,"theta":0.4,"r":2.0,
///  "timeout_ms":250,"max_pops":100000,"max_groups":50000,"max_settles":2000000}
/// ```
///
/// Only `user` is required; `tau`/`gamma`/`theta`/`r` default to
/// [`GpSsnQuery::with_defaults`], `id` defaults to the 1-based line
/// number, and absent budget fields inherit `default_budget`.
fn parse_request(
    line: &str,
    lineno: u64,
    default_budget: &QueryBudget,
) -> Result<ServeRequest, String> {
    let v = json::parse(line)?;
    if !matches!(v, json::Value::Object(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let uint = |key: &str| -> Result<Option<u64>, String> {
        match v.get(key) {
            None | Some(json::Value::Null) => Ok(None),
            Some(w) => {
                let n = w
                    .as_f64()
                    .ok_or_else(|| format!("field {key:?} must be a number"))?;
                if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                    return Err(format!("field {key:?} must be a non-negative integer"));
                }
                Ok(Some(n as u64))
            }
        }
    };
    let float = |key: &str| -> Result<Option<f64>, String> {
        match v.get(key) {
            None | Some(json::Value::Null) => Ok(None),
            Some(w) => {
                Ok(Some(w.as_f64().ok_or_else(|| {
                    format!("field {key:?} must be a number")
                })?))
            }
        }
    };
    let user = uint("user")?.ok_or_else(|| "missing required field \"user\"".to_string())?;
    let user = u32::try_from(user).map_err(|_| "field \"user\" out of range".to_string())?;
    let mut query = GpSsnQuery::with_defaults(user);
    if let Some(tau) = uint("tau")? {
        query.tau = tau as usize;
    }
    if let Some(g) = float("gamma")? {
        query.gamma = g;
    }
    if let Some(t) = float("theta")? {
        query.theta = t;
    }
    if let Some(r) = float("r")? {
        query.radius = r;
    }
    let mut budget = default_budget.clone();
    if let Some(ms) = uint("timeout_ms")? {
        budget.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(n) = uint("max_pops")? {
        budget.max_heap_pops = Some(n);
    }
    if let Some(n) = uint("max_groups")? {
        budget.max_groups_enumerated = Some(n);
    }
    if let Some(n) = uint("max_settles")? {
        budget.max_dijkstra_settles = Some(n);
    }
    Ok(ServeRequest {
        id: uint("id")?.unwrap_or(lineno),
        query,
        budget,
    })
}

fn push_ids(line: &mut String, key: &str, ids: &[u32]) {
    line.push_str(&format!(",\"{key}\":["));
    for (i, u) in ids.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&u.to_string());
    }
    line.push(']');
}

fn push_answer(line: &mut String, answer: Option<&GpSsnAnswer>) {
    match answer {
        Some(ans) => {
            line.push_str(&format!(",\"maxdist\":{}", ans.maxdist));
            push_ids(line, "users", &ans.users);
            push_ids(line, "pois", &ans.pois);
        }
        None => line.push_str(",\"maxdist\":null"),
    }
}

/// Renders one response as a JSONL line (no trailing newline).
///
/// `status` is `"ok"` for any outcome the engine produced — including
/// truncated and sampling-degraded completions, which scripts can tell
/// apart by `completion` (and `gap`, `null` when unbounded) — and
/// `"error"` for validation failures, shed requests, and `Failed`
/// completions.
pub(crate) fn response_line(resp: &ServeResponse) -> String {
    let mut line = format!("{{\"id\":{}", resp.id);
    match &resp.result {
        Ok(out) if !matches!(out.completion, crate::Completion::Failed(_)) => {
            line.push_str(&format!(
                ",\"status\":\"ok\",\"completion\":\"{}\"",
                out.completion.rung()
            ));
            if let crate::Completion::TruncatedWithGap(gap) = out.completion {
                // JSON has no infinity: a top-k short of k answers has an
                // unbounded gap, written `null`.
                match gap.is_finite() {
                    true => line.push_str(&format!(",\"gap\":{gap}")),
                    false => line.push_str(",\"gap\":null"),
                }
            }
            push_answer(&mut line, out.answer());
            line.push_str(&format!(
                ",\"cpu_us\":{},\"io_pages\":{}",
                out.metrics.cpu.as_micros(),
                out.metrics.counters[Counter::IoPages]
            ));
        }
        Ok(out) => {
            let crate::Completion::Failed(e) = &out.completion else {
                unreachable!("guarded by the match arm above");
            };
            push_error(&mut line, e);
        }
        Err(e) => push_error(&mut line, e),
    }
    line.push_str(&format!(
        ",\"queue_wait_us\":{}}}",
        resp.queue_wait.as_micros()
    ));
    line
}

fn push_error(line: &mut String, e: &GpSsnError) {
    line.push_str(&format!(
        ",\"status\":\"error\",\"code\":\"{}\",\"error\":\"{}\"",
        error_code(e),
        json::escape(&e.to_string())
    ));
}

/// Renders one `{"control":...}` line's reply: the same dumps the HTTP
/// endpoint serves, delivered in-stream on demand.
fn control_response(engine: &GpSsnEngine<'_>, tele: &ServeObs, what: &str) -> String {
    match what {
        "flight" => format!("{{\"control\":\"flight\",\"data\":{}}}", tele.flight().to_json()),
        "slo" => format!(
            "{{\"control\":\"slo\",\"data\":{}}}",
            tele.slo().to_json(tele.slo().now_ns())
        ),
        "metrics" => format!(
            "{{\"control\":\"metrics\",\"data\":{}}}",
            crate::telemetry::metrics_json(engine, tele)
        ),
        other => format!(
            "{{\"control\":\"{}\",\"error\":\"unknown control (expected flight, slo, or metrics)\"}}",
            json::escape(other)
        ),
    }
}

/// Streams JSONL requests from `input` through the service and writes
/// one JSONL response line per input line to `output`, in input order,
/// flushing after every line so downstream consumers see answers as
/// they complete. Input is read incrementally — one line at a time,
/// never slurped — so `gpq serve` on stdin and file mode share this one
/// reader. A malformed line — bad JSON, nesting past the parser's
/// depth cap, bytes that are not UTF-8, or an empty line — yields an
/// in-order error record (`"code":"invalid_query"`) and the stream
/// continues.
///
/// A line of the form `{"control":"flight"}` (or `"slo"`, `"metrics"`)
/// is not a query: it writes one `{"control":...,"data":...}` dump line
/// immediately — ahead of responses still in flight — and does not
/// count as a submission.
///
/// The returned `Err` only reports I/O failures on `input`/`output` (a
/// read failure also ends the stream); query-level failures are
/// response records.
pub fn serve_jsonl<R: BufRead, W: Write + Send>(
    engine: &GpSsnEngine<'_>,
    cfg: &ServeConfig,
    mut input: R,
    output: W,
) -> std::io::Result<ServeStats> {
    let io_err: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let keep_first = |e: std::io::Error| {
        lock(&io_err).get_or_insert(e);
    };
    let out = Mutex::new(output);
    let mut buf = Vec::new();
    let mut lineno = 0u64;
    // Lines are read as bytes: a line that is not UTF-8 is one bad
    // request, not a broken stream. A real read failure ends the stream
    // and is reported to the caller.
    let lines = std::iter::from_fn(|| {
        buf.clear();
        match input.read_until(b'\n', &mut buf) {
            Ok(0) => None,
            Ok(_) => {
                lineno += 1;
                let end = buf.len() - buf.ends_with(b"\n") as usize;
                let end = end - buf[..end].ends_with(b"\r") as usize;
                Some((lineno, std::str::from_utf8(&buf[..end]).map(str::to_string)))
            }
            Err(e) => {
                keep_first(e);
                None
            }
        }
    });
    let submissions = lines.filter_map(|(lineno, line)| {
        let Ok(line) = line else {
            return Some(Submission::Rejected {
                id: lineno,
                error: GpSsnError::InvalidQuery(format!("line {lineno}: not valid UTF-8")),
            });
        };
        if line.trim().is_empty() {
            return Some(Submission::Rejected {
                id: lineno,
                error: GpSsnError::InvalidQuery(format!("line {lineno}: empty line")),
            });
        }
        // Control lines answer immediately and never enter the queue.
        if line.contains("\"control\"") {
            if let Ok(v) = json::parse(&line) {
                if let Some(what) = v.get("control").and_then(|c| c.as_str()) {
                    let reply = control_response(engine, &cfg.telemetry, what);
                    let mut w = lock(&out);
                    if let Err(e) = writeln!(w, "{reply}").and_then(|()| w.flush()) {
                        keep_first(e);
                    }
                    return None;
                }
            }
        }
        match parse_request(&line, lineno, &cfg.default_budget) {
            Ok(req) => Some(Submission::Request(req)),
            Err(msg) => Some(Submission::Rejected {
                id: lineno,
                error: GpSsnError::InvalidQuery(format!("line {lineno}: {msg}")),
            }),
        }
    });
    let stats = serve(engine, cfg, submissions, |resp| {
        let mut w = lock(&out);
        let line = response_line(&resp);
        if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
            keep_first(e);
        }
    });
    let first_err = lock(&io_err).take();
    match first_err {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_request_defaults_and_overrides() {
        let b = QueryBudget::unlimited();
        let req = parse_request(r#"{"user":3}"#, 7, &b).expect("minimal request parses");
        assert_eq!(req.id, 7); // line number fallback
        assert_eq!(req.query.user, 3);
        assert_eq!(req.query, GpSsnQuery::with_defaults(3));
        assert!(req.budget.is_unlimited());

        let req = parse_request(
            r#"{"id":42,"user":1,"tau":2,"gamma":0.25,"theta":0.5,"r":1.5,"timeout_ms":30,"max_pops":1000}"#,
            1,
            &b,
        )
        .expect("full request parses");
        assert_eq!(req.id, 42);
        assert_eq!(req.query.tau, 2);
        assert_eq!(req.query.gamma, 0.25);
        assert_eq!(req.query.radius, 1.5);
        assert_eq!(req.budget.deadline, Some(Duration::from_millis(30)));
        assert_eq!(req.budget.max_heap_pops, Some(1000));
        assert_eq!(req.budget.max_groups_enumerated, None);
    }

    #[test]
    fn parse_request_rejects_malformed() {
        let b = QueryBudget::unlimited();
        assert!(parse_request("not json", 1, &b).is_err());
        assert!(parse_request("[1,2]", 1, &b).is_err(), "non-object");
        assert!(parse_request("{}", 1, &b).is_err(), "missing user");
        assert!(
            parse_request(r#"{"user":-1}"#, 1, &b).is_err(),
            "negative user"
        );
        assert!(
            parse_request(r#"{"user":1,"tau":2.5}"#, 1, &b).is_err(),
            "fractional tau"
        );
        assert!(
            parse_request(r#"{"user":"alice"}"#, 1, &b).is_err(),
            "non-numeric user"
        );
    }

    #[test]
    fn response_lines_are_valid_json() {
        let shed = ServeResponse {
            id: 9,
            result: Err(GpSsnError::Overloaded {
                depth: 4,
                capacity: 4,
            }),
            queue_wait: Duration::from_micros(12),
        };
        let line = response_line(&shed);
        let v = json::parse(&line).expect("error record is valid JSON");
        assert_eq!(v.get("id").and_then(|x| x.as_f64()), Some(9.0));
        assert_eq!(v.get("status").and_then(|x| x.as_str()), Some("error"));
        assert_eq!(
            v.get("code").and_then(|x| x.as_str()),
            Some("overloaded"),
            "{line}"
        );

        let ok = ServeResponse {
            id: 1,
            result: Ok(QueryOutcome {
                answers: vec![GpSsnAnswer {
                    users: vec![0, 2],
                    pois: vec![5],
                    maxdist: 1.25,
                }],
                completion: crate::Completion::Exact,
                metrics: Default::default(),
            }),
            queue_wait: Duration::ZERO,
        };
        let line = response_line(&ok);
        let v = json::parse(&line).expect("ok record is valid JSON");
        assert_eq!(v.get("status").and_then(|x| x.as_str()), Some("ok"));
        assert_eq!(v.get("completion").and_then(|x| x.as_str()), Some("exact"));
        assert_eq!(v.get("maxdist").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(
            v.get("users").and_then(|x| x.as_array()).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn an_unbounded_gap_is_json_null() {
        let render = |gap: f64| {
            let short = ServeResponse {
                id: 2,
                result: Ok(QueryOutcome {
                    answers: Vec::new(),
                    completion: crate::Completion::TruncatedWithGap(gap),
                    metrics: Default::default(),
                }),
                queue_wait: Duration::ZERO,
            };
            let line = response_line(&short);
            json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"))
        };
        let v = render(f64::INFINITY);
        assert_eq!(
            v.get("completion").and_then(|x| x.as_str()),
            Some("truncated")
        );
        assert_eq!(v.get("gap"), Some(&json::Value::Null));
        let v = render(0.5);
        assert_eq!(v.get("gap").and_then(|x| x.as_f64()), Some(0.5));
    }

    #[test]
    fn error_codes_are_distinct_and_stable() {
        let cases = [
            error_code(&GpSsnError::DeadlineExpired),
            error_code(&GpSsnError::Overloaded {
                depth: 1,
                capacity: 1,
            }),
            error_code(&GpSsnError::DeadlineExceeded),
            error_code(&GpSsnError::InvalidQuery(String::new())),
        ];
        let mut uniq = cases.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), cases.len(), "codes must be distinct: {cases:?}");
        assert_eq!(cases[0], "deadline_expired");
        assert_eq!(cases[1], "overloaded");
    }

    /// Request-shaped fragments, so generated lines reach the field
    /// checks and not only the tokenizer.
    const FRAGMENTS: [&str; 24] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\"user\"",
        "\"tau\"",
        "\"id\"",
        "\"r\"",
        "\"max_groups\"",
        "\"timeout_ms\"",
        "1",
        "-7",
        "2.5",
        "1e308",
        "1e999",
        "null",
        "true",
        "\\u12",
        "\\",
        " ",
        "\u{e9}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the line, `parse_request` returns a request or an
        /// error: it never panics.
        #[test]
        fn parse_request_never_panics(
            parts in collection::vec((0usize..FRAGMENTS.len() + 8, 0u32..0x11_0000), 0..48),
        ) {
            let line: String = parts
                .iter()
                .map(|&(i, c)| match FRAGMENTS.get(i) {
                    Some(f) => f.to_string(),
                    None => char::from_u32(c).map(String::from).unwrap_or_default(),
                })
                .collect();
            let _ = parse_request(&line, 1, &QueryBudget::unlimited());
        }
    }
}
