//! Query metrics: the per-query counter record and its Fig. 7 ratios.
//!
//! These counters feed the experiment harness directly: Figure 7 reports
//! pruning powers, Figures 8–11 report CPU time and I/O cost. One
//! [`QueryCounters`] record holds every count of one query; the metrics
//! registry, the flight record and the experiment tables are projections
//! of it.

use crate::error::Completion;
use crate::query::GpSsnAnswer;
use std::ops::{AddAssign, Index, IndexMut};
use std::time::Duration;

/// Declares [`Counter`] from one table: each row is a variant, its flat
/// key, its registry name and its registry labels.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $key:literal, $name:literal
        $([$($lk:literal = $lv:literal),*])?;)*) => {
        /// One per-query counter: a slot of [`QueryCounters`] and one
        /// registry series (`name{labels}`, summed over queries).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in slot order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),*];
            /// The number of counters (the length of [`QueryCounters`]).
            pub const COUNT: usize = Counter::ALL.len();

            /// Short flat key (the flight record's field name).
            pub fn key(self) -> &'static str {
                match self {
                    $(Counter::$variant => $key,)*
                }
            }

            /// Registry series name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }

            /// Registry series labels.
            pub fn labels(self) -> &'static [(&'static str, &'static str)] {
                match self {
                    $(Counter::$variant => &[$($(($lk, $lv)),*)?],)*
                }
            }
        }
    };
}

counters! {
    /// Index pages read (the I/O-cost model; buffer-pool hits excluded).
    IoPages => "io_pages", "gpssn_io_pages_total";
    /// Best-first heap pops (the unit of
    /// [`crate::QueryBudget::max_heap_pops`]).
    HeapPops => "heap_pops", "gpssn_heap_pops_total";
    /// Group-enumeration work, the unit of
    /// [`crate::QueryBudget::max_groups_enumerated`]: mostly admission
    /// checks of the feasibility kernel, one per enabled user offered to
    /// a partial group (the query user as its root included), plus one
    /// per group the sampler draws.
    GroupsEnumerated => "groups_enumerated", "gpssn_groups_enumerated_total";
    /// Refinement `dist_RN` batches answered by plain Dijkstra sweeps.
    DijkstraBatches => "dijkstra_batches", "gpssn_distance_batches_total" ["backend" = "dijkstra"];
    /// Refinement `dist_RN` batches answered by the contraction-hierarchy
    /// oracle. A batch counts on exactly one backend.
    ChBatches => "ch_batches", "gpssn_distance_batches_total" ["backend" = "ch"];
    /// Vertices settled by plain Dijkstra (refinement batches and the
    /// sampler).
    DijkstraSettles => "dijkstra_settles", "gpssn_settles_total" ["backend" = "dijkstra"];
    /// Vertices settled by the CH batches' forward upward sweeps. The
    /// targets' precomputed upward labels are scanned, not settled, so
    /// this is the whole budget charge of a CH batch.
    ChSettles => "ch_settles", "gpssn_settles_total" ["backend" = "ch"];
    /// Road-network balls served from the cross-query ball cache.
    BallHits => "ball_hits", "gpssn_cache_lookups_total" ["kind" = "ball", "result" = "hit"];
    /// Road-network balls computed (and inserted).
    BallMisses => "ball_misses", "gpssn_cache_lookups_total" ["kind" = "ball", "result" = "miss"];
    /// Workspace runs prepared during refinement (Dijkstra + CH).
    WsResets => "ws_resets", "gpssn_workspace_resets_total";
    /// Workspace runs that reused already-sized storage — lazy
    /// touched-list reset plus recycled heap, no allocation.
    HeapRecycles => "heap_recycles", "gpssn_heap_recycles_total";
    /// Total users `m`.
    UsersTotal => "users_total", "gpssn_users_scanned_total";
    /// Users under social-index nodes pruned at index level.
    UsersPrunedIndex => "users_pruned_index", "gpssn_pruned_users_total" ["stage" = "index"];
    /// Users pruned at object level (after surviving index level).
    UsersPrunedObject => "users_pruned_object", "gpssn_pruned_users_total" ["stage" = "object"];
    /// Users pruned by the social-distance rule in the independent
    /// object-level measurement (Fig. 7b).
    UsersPrunedByDistance => "users_pruned_by_distance",
        "gpssn_pruned_users_total" ["stage" = "distance"];
    /// Users pruned by the interest-score rule among those surviving the
    /// distance rule (Fig. 7b).
    UsersPrunedByInterest => "users_pruned_by_interest",
        "gpssn_pruned_users_total" ["stage" = "interest"];
    /// Total POIs `n`.
    PoisTotal => "pois_total", "gpssn_pois_scanned_total";
    /// POIs under road-index nodes pruned at index level.
    PoisPrunedIndex => "pois_pruned_index", "gpssn_pruned_pois_total" ["stage" = "index"];
    /// POIs pruned at object level (after surviving index level).
    PoisPrunedObject => "pois_pruned_object", "gpssn_pruned_pois_total" ["stage" = "object"];
    /// POIs pruned by the road-distance rule in the independent
    /// object-level measurement (Fig. 7c).
    PoisPrunedByDistance => "pois_pruned_by_distance",
        "gpssn_pruned_pois_total" ["stage" = "distance"];
    /// POIs pruned by the matching-score rule among distance survivors
    /// (Fig. 7c).
    PoisPrunedByMatching => "pois_pruned_by_matching",
        "gpssn_pruned_pois_total" ["stage" = "matching"];
    /// (S, R) pairs actually examined during refinement: complete
    /// `τ`-groups the feasibility probes reached. Every one is γ-valid
    /// (groups grow only through compatible users), so this is at most
    /// one per probe and far below [`Counter::GroupsEnumerated`], which
    /// counts the admission checks spent reaching them.
    PairsRefined => "pairs_refined", "gpssn_pairs_refined_total";
    /// Centers pushed back into the center loop's heap at key `c(u_q)`:
    /// the query user's own cost over the ball was above the pivot lower
    /// bound the center popped at (each center is re-keyed at most once).
    CentersRekeyed => "centers_rekeyed", "gpssn_centers_total" ["outcome" = "rekeyed"];
    /// Centers settled on the query user's `Match_Score` over the ball,
    /// which is below `θ`.
    CentersSettledTheta => "centers_settled_theta",
        "gpssn_centers_total" ["outcome" = "settled_theta"];
    /// Centers that passed both tests and searched their reachable users:
    /// one `verify_center` span each.
    CentersSearched => "centers_searched", "gpssn_centers_total" ["outcome" = "searched"];
    /// Candidate users surviving both pruning stages.
    CandidateUsers => "candidate_users", "gpssn_candidate_users_total";
    /// Candidate POI centers surviving both pruning stages.
    CandidatePois => "candidate_pois", "gpssn_candidate_pois_total";
    /// Centers whose verification faulted (an error or a caught panic):
    /// each stays unresolved, so a nonzero count keeps the completion
    /// from claiming `Exact`.
    RefineFaults => "refine_faults", "gpssn_refine_faults_total";
    /// CH batches that panicked and were re-served from Dijkstra.
    /// Informational: the fallback row is bit-identical, so these do not
    /// degrade the completion.
    ChFaults => "ch_faults", "gpssn_ch_faults_total";
}

/// Every count of one query, one `u64` per [`Counter`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct QueryCounters([u64; Counter::COUNT]);

impl std::fmt::Debug for QueryCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(c, v)| (c.key(), v)))
            .finish()
    }
}

impl Default for QueryCounters {
    fn default() -> Self {
        QueryCounters([0; Counter::COUNT])
    }
}

impl Index<Counter> for QueryCounters {
    type Output = u64;
    #[inline]
    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<Counter> for QueryCounters {
    #[inline]
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl AddAssign<&QueryCounters> for QueryCounters {
    fn add_assign(&mut self, rhs: &QueryCounters) {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a = a.saturating_add(b);
        }
    }
}

impl QueryCounters {
    /// Every `(counter, value)` pair, in [`Counter::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self[c]))
    }

    /// Fig. 7a: social index-level pruning power.
    pub fn social_index_power(&self) -> f64 {
        ratio(self[Counter::UsersPrunedIndex], self[Counter::UsersTotal])
    }

    /// Fig. 7a: social object-level pruning power (relative to index
    /// survivors).
    pub fn social_object_power(&self) -> f64 {
        ratio(
            self[Counter::UsersPrunedObject],
            self[Counter::UsersTotal] - self[Counter::UsersPrunedIndex],
        )
    }

    /// Fig. 7a: road index-level pruning power.
    pub fn road_index_power(&self) -> f64 {
        ratio(self[Counter::PoisPrunedIndex], self[Counter::PoisTotal])
    }

    /// Fig. 7a: road object-level pruning power (relative to index
    /// survivors).
    pub fn road_object_power(&self) -> f64 {
        ratio(
            self[Counter::PoisPrunedObject],
            self[Counter::PoisTotal] - self[Counter::PoisPrunedIndex],
        )
    }

    /// Fig. 7b: social-distance pruning power over all users.
    pub fn social_distance_power(&self) -> f64 {
        ratio(
            self[Counter::UsersPrunedByDistance],
            self[Counter::UsersTotal],
        )
    }

    /// Fig. 7b: interest-score pruning power over distance survivors.
    pub fn interest_power(&self) -> f64 {
        ratio(
            self[Counter::UsersPrunedByInterest],
            self[Counter::UsersTotal] - self[Counter::UsersPrunedByDistance],
        )
    }

    /// Fig. 7c: road-distance pruning power over all POIs.
    pub fn road_distance_power(&self) -> f64 {
        ratio(
            self[Counter::PoisPrunedByDistance],
            self[Counter::PoisTotal],
        )
    }

    /// Fig. 7c: matching-score pruning power over distance survivors.
    pub fn matching_power(&self) -> f64 {
        ratio(
            self[Counter::PoisPrunedByMatching],
            self[Counter::PoisTotal] - self[Counter::PoisPrunedByDistance],
        )
    }

    /// Estimated total number of user–POI group pairs for groups of
    /// `tau` users (Fig. 7d denominator): `C(m, τ) · n` as in the
    /// paper's Baseline count.
    pub fn pairs_total_estimate(&self, tau: usize) -> f64 {
        binomial_f64(self[Counter::UsersTotal] as usize, tau) * self[Counter::PoisTotal] as f64
    }

    /// Fig. 7d: overall pruning power of user–POI group pairs for groups
    /// of `tau` users.
    pub fn pair_power(&self, tau: usize) -> f64 {
        let total = self.pairs_total_estimate(tau);
        if total <= 0.0 {
            return 0.0;
        }
        1.0 - (self[Counter::PairsRefined] as f64 / total).min(1.0)
    }

    /// Fraction of ball lookups served from the cache; `0.0` when there
    /// were none. Saturating arithmetic: reading metrics before the first
    /// query (all-zero tallies) or after pathological overflow yields a
    /// rate in `[0, 1]`, never a division by zero or a wrapped sum.
    pub fn hit_rate(&self) -> f64 {
        let hits = self[Counter::BallHits];
        let total = hits.saturating_add(self[Counter::BallMisses]);
        hits as f64 / total.max(1) as f64
    }

    /// Settles across both distance backends — the value charged
    /// against [`crate::QueryBudget::max_dijkstra_settles`].
    pub fn total_settles(&self) -> u64 {
        self[Counter::DijkstraSettles].saturating_add(self[Counter::ChSettles])
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Wall-clock time and counters of one query.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// CPU time of the index traversal + refinement.
    pub cpu: Duration,
    /// Every count of the query. Under
    /// [`crate::Completion::DegradedSampling`] they include the sampling
    /// rescue's work, which ran under its own fixed budget.
    pub counters: QueryCounters,
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
    use std::collections::HashSet;

    fn counters(values: &[(Counter, u64)]) -> QueryCounters {
        let mut c = QueryCounters::default();
        for &(k, v) in values {
            c[k] = v;
        }
        c
    }

    #[test]
    fn powers_compute_ratios() {
        let s = counters(&[
            (Counter::UsersTotal, 100),
            (Counter::UsersPrunedIndex, 40),
            (Counter::UsersPrunedObject, 30),
            (Counter::PoisTotal, 200),
            (Counter::PoisPrunedIndex, 100),
            (Counter::PoisPrunedObject, 50),
        ]);
        assert!((s.social_index_power() - 0.4).abs() < 1e-12);
        assert!((s.social_object_power() - 0.5).abs() < 1e-12);
        assert!((s.road_index_power() - 0.5).abs() < 1e-12);
        assert!((s.road_object_power() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = QueryCounters::default();
        assert_eq!(s.social_index_power(), 0.0);
        assert_eq!(s.pair_power(3), 0.0);
    }

    #[test]
    fn pair_power_clamps() {
        // C(5, 2) · 1 = 10 estimated pairs, 100 refined.
        let s = counters(&[
            (Counter::UsersTotal, 5),
            (Counter::PoisTotal, 1),
            (Counter::PairsRefined, 100),
        ]);
        assert_eq!(s.pairs_total_estimate(2), 10.0);
        assert_eq!(s.pair_power(2), 0.0);
    }

    #[test]
    fn hit_rate_is_safe_before_first_query_and_at_saturation() {
        // Fresh cache, no lookups yet: rate is 0, not NaN.
        assert_eq!(QueryCounters::default().hit_rate(), 0.0);
        // Saturating sums keep the rate finite and in [0, 1] even at the
        // counter extremes.
        let s = counters(&[
            (Counter::BallHits, u64::MAX),
            (Counter::BallMisses, u64::MAX),
        ]);
        let r = s.hit_rate();
        assert!(r.is_finite() && (0.0..=1.0).contains(&r));
    }

    #[test]
    fn backend_breakdown_sums_disjoint_counters() {
        let mut s = counters(&[(Counter::DijkstraSettles, 100), (Counter::ChSettles, 40)]);
        assert_eq!(s.total_settles(), 140);
        s += &counters(&[(Counter::ChSettles, 2)]);
        assert_eq!(s.total_settles(), 142);
    }

    #[test]
    fn counters_have_distinct_series_and_keys() {
        let mut series = HashSet::new();
        let mut keys = HashSet::new();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} is out of slot order");
            assert!(
                series.insert((c.name(), c.labels())),
                "{c:?} shares its registry series with another counter"
            );
            assert!(keys.insert(c.key()), "{c:?} shares its flat key");
        }
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
