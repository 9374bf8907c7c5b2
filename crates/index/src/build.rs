//! Per-stage timing and the work grain shared by the `I_R` and `I_S`
//! builders.
//!
//! Every parallel build loop runs through [`gpssn_graph::par_map`],
//! which is **deterministic**: the work is split into contiguous chunks
//! whose boundaries depend only on the input size and the worker count
//! (never on thread scheduling), each chunk is computed by exactly one
//! worker, and results are merged back in input order. The thread count
//! therefore changes wall clock only — the built index (and its
//! serialized bytes) are identical for any `threads` value, including
//! `0` (all cores). `tests/build_determinism.rs` and the CI
//! build-determinism job enforce this end to end.

use gpssn_graph::ChOracle;
use std::time::{Duration, Instant};

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
    /// (present once [`BuildStages::contract_ch`] ran).
    pub ch: Option<gpssn_graph::ChBuildStats>,
}

impl BuildStages {
    /// Runs `f`, recording its wall clock under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.stages.push((name, t0.elapsed()));
        out
    }

    /// Contracts `graph`'s CH over `threads` workers as the
    /// `ch_contract` stage, keeping its counters in [`Self::ch`]. The
    /// oracle is bit-identical for every thread count.
    pub fn contract_ch(&mut self, graph: &gpssn_graph::CsrGraph, threads: usize) -> ChOracle {
        let (ch, stats) = self.time("ch_contract", || ChOracle::build_with_stats(graph, threads));
        self.ch = Some(stats);
        ch
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

/// Minimum items per worker (the [`gpssn_graph::par_map`] grain) of
/// the per-POI, per-user and per-leaf build loops: below this, thread
/// spawn overhead beats the win and the loop runs inline. The bench
/// harness's `report build` simulates the builders' chunking with this
/// same grain.
pub const PAR_FLOOR: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

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
