//! Flight recorder: an always-on, lock-light ring of the last N
//! completed serve requests — the "what did the last slow query do?"
//! forensic buffer.
//!
//! Each record is one finished (or shed) request: outcome class,
//! degradation rung, backend, end-to-end and queue-wait nanoseconds,
//! the query's counters, and the per-phase wall-clock breakdown
//! recovered from the query's span capture. Records land in one of a
//! small set of mutex-sharded rings picked round-robin by record id,
//! so concurrent workers rarely contend on the same lock; a dump sorts
//! the shards back into completion order.
//!
//! The recorder is deliberately cheap enough to leave enabled in the
//! "observability off" configuration: one short-lived lock and one
//! `VecDeque` push per request. The `report obs` overhead rows keep
//! that claim honest.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::escape;

/// How many completed-request records the recorder retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Total records retained across all shards (oldest evicted).
    pub capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { capacity: 256 }
    }
}

/// One completed (or shed) request, as retained by the recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotonic record id (assignment order, not completion order).
    pub id: u64,
    /// Serve sequence number of the request.
    pub seq: u64,
    /// Outcome class label (`ok` / `error` / `shed` / `degraded`).
    pub class: &'static str,
    /// Degradation rung (`exact` / `truncated` / `sampling` / `failed`),
    /// empty for requests that never reached the engine.
    pub completion: &'static str,
    /// Machine-readable error code for failures, empty otherwise.
    pub code: &'static str,
    /// Distance backend that served it, empty if none did.
    pub backend: &'static str,
    /// Completion time, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// End-to-end latency (submission to completion).
    pub total_ns: u64,
    /// Time spent queued before dispatch.
    pub queue_wait_ns: u64,
    /// The query's counters as `(flat key, value)` pairs (the engine's
    /// per-query counter record, in its slot order). Empty for requests
    /// that never reached the engine.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-phase wall-clock breakdown `(phase, ns)`, top-level spans of
    /// the query's capture in execution order. Empty when tracing was
    /// off or the request never ran.
    pub phases: Vec<(&'static str, u64)>,
    /// Whether the tail sampler committed this request's trace.
    pub trace_committed: bool,
}

struct Ring {
    buf: VecDeque<FlightRecord>,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, rec: FlightRecord) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

const SHARDS: usize = 8;

/// The always-on ring of recent request records. Shared behind `Arc`
/// by serve workers and the telemetry endpoint.
pub struct FlightRecorder {
    shards: Vec<Mutex<Ring>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("len", &self.len())
            .finish()
    }
}

impl FlightRecorder {
    pub fn new(cfg: &FlightConfig) -> Self {
        // Spread the capacity across shards, rounding up so the total
        // retained is at least the configured capacity.
        let per = cfg.capacity.div_ceil(SHARDS);
        FlightRecorder {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Ring {
                        buf: VecDeque::with_capacity(per),
                        cap: per,
                        dropped: 0,
                    })
                })
                .collect(),
            next_id: AtomicU64::new(0),
        }
    }

    fn lock(&self, i: usize) -> std::sync::MutexGuard<'_, Ring> {
        self.shards[i].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records one finished request. `rec.id` is overwritten with the
    /// next monotonic id, which also picks the shard — consecutive
    /// completions land on different locks, and every shard fills
    /// regardless of how many threads record.
    pub fn record(&self, mut rec: FlightRecord) {
        rec.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.lock(rec.id as usize % SHARDS).push(rec);
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.lock(i).buf.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted (or rejected by a zero-capacity ring) so far.
    pub fn dropped(&self) -> u64 {
        (0..SHARDS).map(|i| self.lock(i).dropped).sum()
    }

    /// All retained records, sorted by completion time then sequence —
    /// a stable total order independent of shard interleaving.
    pub fn records(&self) -> Vec<FlightRecord> {
        let mut out: Vec<FlightRecord> = (0..SHARDS)
            .flat_map(|i| self.lock(i).buf.iter().cloned().collect::<Vec<_>>())
            .collect();
        out.sort_by_key(|r| (r.end_ns, r.seq, r.id));
        out
    }

    /// One JSON line: `{"records":[...],"dropped":N}` (no trailing
    /// newline), parseable by [`crate::json::parse`].
    pub fn to_json(&self) -> String {
        let recs = self.records();
        let mut out = String::with_capacity(128 + recs.len() * 1024);
        out.push_str("{\"records\":[");
        for (i, r) in recs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"seq\":{},\"class\":\"{}\",\"completion\":\"{}\",\
                 \"code\":\"{}\",\"backend\":\"{}\",\"end_ns\":{},\"total_ns\":{},\
                 \"queue_wait_ns\":{},\"trace_committed\":{},",
                r.id,
                r.seq,
                escape(r.class),
                escape(r.completion),
                escape(r.code),
                escape(r.backend),
                r.end_ns,
                r.total_ns,
                r.queue_wait_ns,
                r.trace_committed,
            ));
            push_object(&mut out, "counters", &r.counters);
            out.push(',');
            push_object(&mut out, "phases", &r.phases);
            out.push('}');
        }
        out.push_str(&format!("],\"dropped\":{}}}", self.dropped()));
        out
    }
}

/// Appends `"name":{"key":value,...}`.
fn push_object(out: &mut String, name: &str, pairs: &[(&'static str, u64)]) {
    out.push_str(&format!("\"{name}\":{{"));
    for (j, (key, v)) in pairs.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape(key), v));
    }
    out.push('}');
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(&FlightConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, end_ns: u64) -> FlightRecord {
        FlightRecord {
            id: 0,
            seq,
            class: "ok",
            completion: "exact",
            code: "",
            backend: "ch",
            end_ns,
            total_ns: 1000,
            queue_wait_ns: 10,
            counters: vec![("io_pages", 3), ("users_total", 100)],
            phases: vec![("filter", 400), ("refine", 600)],
            trace_committed: false,
        }
    }

    #[test]
    fn retains_and_orders_records() {
        let fr = FlightRecorder::new(&FlightConfig { capacity: 16 });
        for i in 0..10 {
            fr.record(rec(i, 1000 - i * 10));
        }
        assert_eq!(fr.len(), 10);
        let recs = fr.records();
        // Sorted by end_ns: the last-recorded (smallest end_ns) first.
        assert_eq!(recs[0].seq, 9);
        assert_eq!(recs[9].seq, 0);
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let fr = FlightRecorder::new(&FlightConfig { capacity: 8 });
        for i in 0..100 {
            fr.record(rec(i, i));
        }
        // 8 shards of cap 1: each keeps the newest of its residue
        // class, i.e. the last 8 records overall.
        assert_eq!(fr.len(), 8);
        assert_eq!(fr.dropped(), 92);
        let seqs: Vec<u64> = fr.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (92..100).collect::<Vec<u64>>());
    }

    #[test]
    fn json_dump_parses() {
        let fr = FlightRecorder::new(&FlightConfig { capacity: 64 });
        fr.record(rec(0, 5));
        fr.record(rec(1, 6));
        let v = crate::json::parse(&fr.to_json()).expect("flight json parses");
        let recs = v.get("records").and_then(|r| r.as_array()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].get("class").and_then(|c| c.as_str()), Some("ok"));
        assert_eq!(
            recs[0]
                .get("counters")
                .and_then(|p| p.get("users_total"))
                .and_then(|n| n.as_f64()),
            Some(100.0)
        );
        assert_eq!(
            recs[0]
                .get("phases")
                .and_then(|p| p.get("refine"))
                .and_then(|n| n.as_f64()),
            Some(600.0)
        );
        assert_eq!(v.get("dropped").and_then(|d| d.as_f64()), Some(0.0));
    }

    #[test]
    fn concurrent_recording_keeps_every_shard_consistent() {
        let fr = std::sync::Arc::new(FlightRecorder::new(&FlightConfig { capacity: 1024 }));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let fr = std::sync::Arc::clone(&fr);
                s.spawn(move || {
                    for i in 0..50 {
                        fr.record(rec(t * 100 + i, t * 100 + i));
                    }
                });
            }
        });
        assert_eq!(fr.len(), 200);
        assert_eq!(fr.dropped(), 0);
        let ids: Vec<u64> = fr.records().iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 200, "ids must be unique");
    }
}
