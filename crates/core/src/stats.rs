//! Query metrics and pruning-power counters.
//!
//! These counters feed the experiment harness directly: Figure 7 reports
//! pruning powers, Figures 8–11 report CPU time and I/O cost.

use crate::error::Completion;
use crate::query::GpSsnAnswer;
use std::time::Duration;

/// Pruning-power counters gathered during one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PruningStats {
    /// Total users `m`.
    pub users_total: usize,
    /// Users under social-index nodes pruned at index level.
    pub users_pruned_index: usize,
    /// Users pruned at object level (after surviving index level).
    pub users_pruned_object: usize,
    /// Users pruned by the social-distance rule in the independent
    /// object-level measurement (Fig. 7b).
    pub users_pruned_by_distance: usize,
    /// Users pruned by the interest-score rule among those surviving the
    /// distance rule (Fig. 7b).
    pub users_pruned_by_interest: usize,
    /// Total POIs `n`.
    pub pois_total: usize,
    /// POIs under road-index nodes pruned at index level.
    pub pois_pruned_index: usize,
    /// POIs pruned at object level (after surviving index level).
    pub pois_pruned_object: usize,
    /// POIs pruned by the road-distance rule in the independent
    /// object-level measurement (Fig. 7c).
    pub pois_pruned_by_distance: usize,
    /// POIs pruned by the matching-score rule among distance survivors
    /// (Fig. 7c).
    pub pois_pruned_by_matching: usize,
    /// Estimated total number of user–POI group pairs (Fig. 7d
    /// denominator): `C(m, τ) · n` as in the paper's Baseline count.
    pub pairs_total_estimate: f64,
    /// (S, R) pairs actually examined during refinement.
    pub pairs_refined: u64,
    /// Candidate users surviving both pruning stages.
    pub candidate_users: usize,
    /// Candidate POI centers surviving both pruning stages.
    pub candidate_pois: usize,
}

impl PruningStats {
    /// Fig. 7a: social index-level pruning power.
    pub fn social_index_power(&self) -> f64 {
        ratio(self.users_pruned_index, self.users_total)
    }

    /// Fig. 7a: social object-level pruning power (relative to index
    /// survivors).
    pub fn social_object_power(&self) -> f64 {
        ratio(
            self.users_pruned_object,
            self.users_total - self.users_pruned_index,
        )
    }

    /// Fig. 7a: road index-level pruning power.
    pub fn road_index_power(&self) -> f64 {
        ratio(self.pois_pruned_index, self.pois_total)
    }

    /// Fig. 7a: road object-level pruning power (relative to index
    /// survivors).
    pub fn road_object_power(&self) -> f64 {
        ratio(
            self.pois_pruned_object,
            self.pois_total - self.pois_pruned_index,
        )
    }

    /// Fig. 7b: social-distance pruning power over all users.
    pub fn social_distance_power(&self) -> f64 {
        ratio(self.users_pruned_by_distance, self.users_total)
    }

    /// Fig. 7b: interest-score pruning power over distance survivors.
    pub fn interest_power(&self) -> f64 {
        ratio(
            self.users_pruned_by_interest,
            self.users_total - self.users_pruned_by_distance,
        )
    }

    /// Fig. 7c: road-distance pruning power over all POIs.
    pub fn road_distance_power(&self) -> f64 {
        ratio(self.pois_pruned_by_distance, self.pois_total)
    }

    /// Fig. 7c: matching-score pruning power over distance survivors.
    pub fn matching_power(&self) -> f64 {
        ratio(
            self.pois_pruned_by_matching,
            self.pois_total - self.pois_pruned_by_distance,
        )
    }

    /// Fig. 7d: overall pruning power of user–POI group pairs.
    pub fn pair_power(&self) -> f64 {
        if self.pairs_total_estimate <= 0.0 {
            return 0.0;
        }
        1.0 - (self.pairs_refined as f64 / self.pairs_total_estimate).min(1.0)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-query tallies against the engine's cross-query distance cache
/// (all zero when the engine has no cache). Counted per looked-up value:
/// one ball lookup per verified center, one `dist_RN` lookup per
/// (user, POI) pair a verification needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Road-network balls served from the cache.
    pub ball_hits: u64,
    /// Road-network balls computed (and inserted).
    pub ball_misses: u64,
    /// `dist_RN` values served from the cache.
    pub dist_hits: u64,
    /// `dist_RN` values computed (and inserted).
    pub dist_misses: u64,
}

impl CacheStats {
    /// Fraction of all lookups (balls and distances) served from the
    /// cache; `0.0` when there were none. Saturating arithmetic
    /// throughout: reading metrics before the first query (all-zero
    /// tallies) or after pathological overflow yields a rate in
    /// `[0, 1]`, never a division by zero or a wrapped sum.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.ball_hits.saturating_add(self.dist_hits);
        let total = hits
            .saturating_add(self.ball_misses)
            .saturating_add(self.dist_misses);
        hits as f64 / total.max(1) as f64
    }
}

/// Which distance backend served refinement's multi-target batches —
/// disjoint by construction: a batch (and its settles) is charged to
/// exactly one side, so `ch_settles + dijkstra_settles` is the true
/// total without double counting even on CH-fallback queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendServed {
    /// Batches answered by plain Dijkstra sweeps.
    pub dijkstra_batches: u64,
    /// Vertices settled by those plain sweeps.
    pub dijkstra_settles: u64,
    /// Batches answered by the contraction-hierarchy oracle.
    pub ch_batches: u64,
    /// Vertices settled by the CH batches' forward upward sweeps. The
    /// targets' search spaces are precomputed upward labels whose scans
    /// are not settles, so this is the whole budget charge of a CH
    /// batch.
    pub ch_settles: u64,
}

impl BackendServed {
    /// Settles across both backends — the value charged against
    /// [`crate::QueryBudget::max_dijkstra_settles`].
    pub fn total_settles(&self) -> u64 {
        self.dijkstra_settles.saturating_add(self.ch_settles)
    }

    /// Batches across both backends.
    pub fn total_batches(&self) -> u64 {
        self.dijkstra_batches.saturating_add(self.ch_batches)
    }
}

/// Wall-clock and I/O metrics of one query.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// CPU time of the index traversal + refinement.
    pub cpu: Duration,
    /// Page accesses (index nodes touched).
    pub io_pages: u64,
    /// Best-first heap pops performed (the unit of
    /// [`crate::QueryBudget::max_heap_pops`]).
    pub heap_pops: u64,
    /// Connected user subsets enumerated (the unit of
    /// [`crate::QueryBudget::max_groups_enumerated`]).
    pub groups_enumerated: u64,
    /// Per-backend distance batches and settles (see [`BackendServed`];
    /// CH counts are zero under [`crate::DistanceBackend::Dijkstra`] or
    /// when the road index carries no oracle). The budget unit
    /// [`crate::QueryBudget::max_dijkstra_settles`] charges
    /// [`BackendServed::total_settles`].
    pub backend_served: BackendServed,
    /// Workspace runs prepared during refinement (Dijkstra + CH).
    pub ws_resets: u64,
    /// Workspace runs that reused already-sized storage — lazy
    /// touched-list reset plus recycled heap, no allocation.
    pub heap_recycles: u64,
    /// CH near-tie candidate paths unpacked to original edges for
    /// bit-exactness.
    pub ch_unpacks: u64,
    /// Distance-cache tallies (see [`CacheStats`]).
    pub cache: CacheStats,
    /// Pruning counters.
    pub stats: PruningStats,
}

/// The result of running a GP-SSN query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The verified answers in ascending `maxdist` order: at most one,
    /// except under [`crate::QueryMode::TopK`]. The optimum when
    /// [`QueryOutcome::completion`] is [`Completion::Exact`], otherwise
    /// the best found before the budget tripped. Empty when no feasible
    /// pair exists (exact) or none was verified in time (truncated).
    pub answers: Vec<GpSsnAnswer>,
    /// How the search terminated (exact, truncated with an optimality-gap
    /// bound, or failed on a budget with nothing to show).
    pub completion: Completion,
    /// Measured metrics.
    pub metrics: QueryMetrics,
}

impl QueryOutcome {
    /// The outcome of a query proven infeasible before any index work:
    /// an exact "no answer" with empty metrics.
    pub fn infeasible() -> Self {
        QueryOutcome {
            answers: Vec::new(),
            completion: Completion::Exact,
            metrics: Default::default(),
        }
    }

    /// The best answer (the first of [`QueryOutcome::answers`]).
    pub fn answer(&self) -> Option<&GpSsnAnswer> {
        self.answers.first()
    }
}

/// `C(n, k)` in `f64` (saturating to `f64::INFINITY` for huge values) —
/// used for the paper's Baseline pair-count estimates.
pub fn binomial_f64(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc *= (n - i) as f64 / (i + 1) as f64;
        if acc.is_infinite() {
            return f64::INFINITY;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_compute_ratios() {
        let s = PruningStats {
            users_total: 100,
            users_pruned_index: 40,
            users_pruned_object: 30,
            pois_total: 200,
            pois_pruned_index: 100,
            pois_pruned_object: 50,
            ..Default::default()
        };
        assert!((s.social_index_power() - 0.4).abs() < 1e-12);
        assert!((s.social_object_power() - 0.5).abs() < 1e-12);
        assert!((s.road_index_power() - 0.5).abs() < 1e-12);
        assert!((s.road_object_power() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = PruningStats::default();
        assert_eq!(s.social_index_power(), 0.0);
        assert_eq!(s.pair_power(), 0.0);
    }

    #[test]
    fn pair_power_clamps() {
        let s = PruningStats {
            pairs_total_estimate: 10.0,
            pairs_refined: 100,
            ..Default::default()
        };
        assert_eq!(s.pair_power(), 0.0);
    }

    #[test]
    fn hit_rate_is_safe_before_first_query_and_at_saturation() {
        // Fresh cache, no lookups yet: rate is 0, not NaN.
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        // Saturating sums keep the rate finite and in [0, 1] even at the
        // counter extremes.
        let s = CacheStats {
            ball_hits: u64::MAX,
            dist_hits: u64::MAX,
            ball_misses: u64::MAX,
            dist_misses: 0,
        };
        let r = s.hit_rate();
        assert!(r.is_finite() && (0.0..=1.0).contains(&r));
    }

    #[test]
    fn backend_breakdown_sums_disjoint_counters() {
        let b = BackendServed {
            dijkstra_batches: 2,
            dijkstra_settles: 100,
            ch_batches: 3,
            ch_settles: 40,
        };
        assert_eq!(b.total_settles(), 140);
        assert_eq!(b.total_batches(), 5);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial_f64(5, 2), 10.0);
        assert_eq!(binomial_f64(10, 0), 1.0);
        assert_eq!(binomial_f64(3, 5), 0.0);
        // Large values stay finite as f64.
        let big = binomial_f64(40_000, 5);
        assert!(big > 1e20 && big.is_finite());
    }
}
