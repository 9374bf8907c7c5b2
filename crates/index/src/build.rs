//! Build-parallelism knobs and per-stage timing shared by the `I_R` and
//! `I_S` builders.
//!
//! Every parallel build path in this workspace is **deterministic**: the
//! work is split into fixed chunks whose boundaries depend only on the
//! input size (never on thread scheduling), each chunk is computed by
//! exactly one worker, and results are merged back in input order. The
//! thread count therefore changes wall clock only — the built index (and
//! its serialized bytes) are identical for any `threads` value,
//! including `0` (auto). `tests/build_determinism.rs` and the CI
//! build-determinism job enforce this end to end.

use std::time::{Duration, Instant};

/// Parallelism knob for index construction, threaded through
/// [`crate::RoadIndexConfig`] / [`crate::SocialIndexConfig`] and the
/// `gpq --build-threads` CLI flag.
///
/// This is a runtime-only knob: it is **not** serialized with the index
/// (the output does not depend on it), and a loaded index always gets
/// the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildOptions {
    /// Worker threads for index construction. `0` (the default) uses the
    /// machine's available parallelism; `1` builds sequentially.
    pub threads: usize,
}

impl BuildOptions {
    /// Options with an explicit thread count (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        BuildOptions { threads }
    }

    /// The effective worker count (`threads`, or the machine's available
    /// parallelism when `threads == 0`).
    pub fn resolve(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// `0` → available parallelism, otherwise the explicit count.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Wall-clock timings of one index build, stage by stage, plus the CH
/// contraction counters when that stage ran. Returned by the
/// `*_with_stages` builders; the engine folds these into the
/// `gpssn_build_stage_ns{stage}` telemetry histogram and `report build`
/// turns them into `BENCH_build.json`.
#[derive(Debug, Clone, Default)]
pub struct BuildStages {
    /// `(stage name, wall clock)` in execution order.
    pub stages: Vec<(&'static str, Duration)>,
    /// Contraction counters from [`gpssn_graph::ChOracle::build_with_stats`]
    /// (present only when the road index built a CH oracle).
    pub ch: Option<gpssn_graph::ChBuildStats>,
}

impl BuildStages {
    /// Runs `f`, recording its wall clock under `name`.
    pub(crate) fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.stages.push((name, t0.elapsed()));
        out
    }

    /// Duration of the named stage, if it ran.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
    }

    /// Sum of all stage durations.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }
}

/// Minimum items per worker before a build loop fans out: below this,
/// thread spawn overhead beats the win and the loop runs inline. The
/// bench harness's `report build` simulates the builders' chunking with
/// this same floor.
pub const PAR_FLOOR: usize = 32;

/// Deterministic parallel map over `0..n`: the range is split into
/// `workers` contiguous chunks (boundaries a function of `n` and the
/// resolved thread count only), each chunk is mapped by one scoped
/// worker holding its own scratch state from `state()`, and the results
/// are concatenated in index order. Because `f` is a pure function of
/// the index (scratch state is reused but never escapes), the output is
/// identical to the sequential map for every thread count.
// Audited expect: `join` only fails when a worker panicked, and
// propagating that panic is exactly the intended behavior.
#[allow(clippy::expect_used)]
pub(crate) fn par_map<S, R, M, F>(threads: usize, n: usize, state: M, f: F) -> Vec<R>
where
    R: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = resolve_threads(threads).min(n.div_ceil(PAR_FLOOR)).max(1);
    if workers <= 1 {
        let mut s = state();
        return (0..n).map(|i| f(&mut s, i)).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (f, state) = (&f, &state);
                let lo = w * chunk;
                let hi = n.min(lo + chunk);
                scope.spawn(move || {
                    let mut s = state();
                    (lo..hi).map(|i| f(&mut s, i)).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("index build worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let n = 1000;
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        for threads in [1, 2, 3, 8, 0] {
            let par = par_map(
                threads,
                n,
                || 0u64,
                |acc, i| {
                    *acc += 1; // per-worker scratch must not leak into output
                    (i as u64).wrapping_mul(0x9e37)
                },
            );
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        assert!(par_map(8, 0, || (), |_, i| i).is_empty());
        assert_eq!(par_map(8, 3, || (), |_, i| i), vec![0, 1, 2]);
    }

    #[test]
    fn resolve_maps_zero_to_auto() {
        assert!(BuildOptions::default().resolve() >= 1);
        assert_eq!(BuildOptions::with_threads(3).resolve(), 3);
        assert_eq!(BuildOptions::default(), BuildOptions { threads: 0 });
    }

    #[test]
    fn stages_record_in_order() {
        let mut st = BuildStages::default();
        let x = st.time("a", || 41) + st.time("b", || 1);
        assert_eq!(x, 42);
        assert_eq!(st.stages.len(), 2);
        assert_eq!(st.stages[0].0, "a");
        assert!(st.get("b").is_some());
        assert!(st.get("missing").is_none());
        assert_eq!(st.total(), st.stages.iter().map(|(_, d)| *d).sum());
    }
}
