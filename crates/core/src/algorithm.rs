//! The GP-SSN query answering engine (paper Section 5, Algorithm 2).
//!
//! Index construction selects pivots (Algorithm 1), builds `I_R` and
//! `I_S`, and the query path then runs:
//!
//! 1. **Social traversal** — level-by-level expansion of `I_S` from the
//!    root, pruning nodes by the interest-region test (Lemma 8) and the
//!    social-distance bound (Lemma 9), then pruning leaf users by
//!    Lemma 3 / Corollary 1 and Lemma 4, and finally Corollary 2.
//! 2. **Road traversal** — a best-first expansion of `I_R` on the
//!    min-heap key `lb_maxdist` (Eq. 17), pruning by the matching-score
//!    bound (Lemmas 1 and 6) and by the paper's threshold `δ` (the
//!    smallest Eq. 16 upper bound among candidates whose `sub_K` lower
//!    bound certifies a `θ`-matching set, Eq. 18). This is the same rule
//!    set as Algorithm 2's level-synchronized loop; best-first order
//!    simply pops the heap in a single pass.
//! 3. **Refinement** — candidate centers verified in ascending `lb`
//!    order with early termination (`lb >= best`).
//!
//! **Exactness.** The paper's `δ` cut can, in corner cases, discard the
//! region holding the only (or a better) feasible answer, because the
//! Eq. 18 guard certifies matching for `u_q` but not group feasibility.
//! We therefore never *drop* `δ`-cut items: they move to a deferred list
//! (no I/O — the nodes are not read), and after refinement any deferred
//! item whose `lb` still beats the best verified answer is expanded under
//! the proven bound. In the common case the deferred list is never
//! touched and the traversal I/O matches the paper's; in the corner case
//! the engine stays exact (the property tests against brute force check
//! this).

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::{DistanceCache, DistanceCacheConfig};
use crate::error::{BudgetState, Completion, GpSsnError, QueryBudget, Trip};
use crate::pruning::{
    corollary2_filter, lb_match_score_node, lb_maxdist_node, lb_maxdist_poi,
    prune_node_by_social_distance, prune_user_by_social_distance, ub_match_score_keywords,
    ub_match_score_signature, ub_maxdist_node, ub_maxdist_poi, PruningRegion,
};
use crate::query::{GpSsnAnswer, GpSsnQuery};
use crate::refinement::{verify_center, CenterVerification, ChBackend, VerifyContext};
use crate::serve::{ServeConfig, ServeObs, ServeObsConfig, ServeRequest, Submission};
use crate::stats::{Counter, QueryCounters, QueryMetrics, QueryOutcome};
use gpssn_graph::DijkstraWorkspace;
use gpssn_index::{
    select_road_pivots, select_social_pivots, PivotSelectConfig, RoadIndex, RoadIndexConfig,
    SocialIndex, SocialIndexConfig,
};
use gpssn_obs::{Obs, TailConfig};
use gpssn_road::{PoiId, RoadPivots};
use gpssn_social::{SocialPivots, UserId};
use gpssn_spatial::Entry;
use gpssn_ssn::SpatialSocialNetwork;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of road pivots `h`.
    pub num_road_pivots: usize,
    /// Number of social pivots `l`.
    pub num_social_pivots: usize,
    /// `I_R` build parameters.
    pub road_index: RoadIndexConfig,
    /// `I_S` build parameters.
    pub social_index: SocialIndexConfig,
    /// Algorithm 1 parameters.
    pub pivot_select: PivotSelectConfig,
    /// Per-center cap on refinement subset enumeration (safety valve).
    pub enumeration_cap: usize,
    /// Optional LRU buffer pool (in pages) in front of the simulated
    /// index file: I/O then counts misses only. `None` reproduces the
    /// paper's raw page-access metric.
    pub page_cache_capacity: Option<usize>,
    /// Build a pruned-landmark (2-hop) labeling of `G_s` and use *exact*
    /// hop distances for the object-level social-distance rule (Lemma 4
    /// with the bound replaced by the true `dist_SN`). The paper's pivot
    /// lower bounds remain the default; exact labels trade index build
    /// time for maximal distance-pruning power.
    pub exact_social_distance: bool,
    /// Cross-query ball / `dist_RN` cache shared by every query (and
    /// every refinement worker) this engine serves. Cached values are
    /// bit-identical to recomputation (see [`crate::cache`]), so under
    /// an unlimited budget answers are unchanged; under a tight budget
    /// hits simply stretch how far the budget reaches (cached work
    /// charges no Dijkstra settles). `None` disables caching.
    pub distance_cache: Option<DistanceCacheConfig>,
    /// Telemetry sink shared by every query this engine serves: phase
    /// spans (text flamegraph / Chrome trace) plus per-query counters
    /// and phase-duration histograms (Prometheus / JSON). `None` — the
    /// default — costs each instrumentation site one `Option` check; an
    /// attached-but-disabled sink costs one relaxed atomic load (the
    /// `obs_overhead` bench keeps this honest).
    pub obs: Option<Arc<Obs>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_road_pivots: 5,
            num_social_pivots: 5,
            road_index: RoadIndexConfig::default(),
            social_index: SocialIndexConfig::default(),
            pivot_select: PivotSelectConfig::default(),
            enumeration_cap: 200_000,
            page_cache_capacity: None,
            exact_social_distance: false,
            distance_cache: Some(DistanceCacheConfig::default()),
            obs: None,
        }
    }
}

impl EngineConfig {
    /// Sets the index-build worker count (`0` = all cores) on both the
    /// `I_R` and `I_S` builders — the `gpq --build-threads` knob. The
    /// built indexes are bit-identical for every thread count; only the
    /// build wall clock changes.
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.road_index.build.threads = threads;
        self.social_index.build.threads = threads;
        self
    }
}

/// Which oracle serves refinement-time `dist_RN` computations.
///
/// Both backends return bit-identical distances (the CH oracle unpacks
/// every winning up–down path and refolds original edge weights in
/// Dijkstra's exact operation order — see `gpssn_graph::ch`), so the
/// choice affects speed and metering only, never answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceBackend {
    /// Multi-target Dijkstra sweeps over the road graph.
    Dijkstra,
    /// The road index's contraction-hierarchy oracle. Falls back to
    /// [`DistanceBackend::Dijkstra`] silently when the index carries no
    /// oracle (`RoadIndexConfig::build_ch = false`, or an index loaded
    /// from a CH-less file).
    Ch,
}

/// What to serve when the exact pipeline cannot produce an answer.
///
/// The engine degrades along a fixed ladder of rungs, each strictly
/// weaker than the last (see [`Completion::rung`]):
///
/// 1. **exact** — the search completed; the answer is the optimum.
/// 2. **truncated** — a budget trip (or an absorbed refinement fault)
///    cut the search short; the best *verified* answer is served with a
///    sound optimality-gap bound.
/// 3. **sampling** — nothing was verified in time; a bounded sampling
///    pass (the paper's §5 future-work estimator) produces an answer
///    that satisfies every query constraint but carries no gap bound.
/// 4. **failed** — even sampling found nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Stop at rung 2: a query with nothing verified reports
    /// [`Completion::Failed`], and a panic inside center verification
    /// propagates to the batch isolation layer (the legacy behavior,
    /// and the default).
    #[default]
    FailFast,
    /// Walk the whole ladder: panics inside center verification are
    /// caught per-center (the center is treated as unresolved and
    /// counted as a fault), and a query that would fail outright gets
    /// the bounded sampling pass before giving up.
    Ladder,
}

/// Which refinement a query runs. Every mode shares Algorithm 2's
/// social and road pruning phases; only the refinement over the
/// surviving candidate centers differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// The exact optimum (Algorithm 2). The default.
    #[default]
    Exact,
    /// The `k` best answers over *distinct candidate centers* (each
    /// center contributes its optimal feasible group), ascending by
    /// `maxdist`; `TopK(1)` coincides with [`QueryMode::Exact`]'s
    /// optimum. Runs with δ-pruning off (a δ cut is only sound for the
    /// single best answer). `TopK(0)` is rejected as
    /// [`GpSsnError::InvalidQuery`]. Under truncation the answers are
    /// all verified and the completion carries the gap of the `k`-th
    /// slot (`f64::INFINITY` when fewer than `k` were verified).
    TopK(usize),
    /// The paper's §5 future-work *subset sampling*: refinement draws
    /// `samples` random connected groups per center (seeded by `seed`)
    /// instead of enumerating, on plain Dijkstra. Any answer satisfies
    /// Definition 5 exactly but may be suboptimal or missed; sampled
    /// draws count against `max_groups_enumerated`.
    Approximate {
        /// Random groups drawn per candidate center.
        samples: usize,
        /// RNG seed: the same seed gives the same answer.
        seed: u64,
    },
}

impl QueryMode {
    /// The `path` label this mode's queries carry in the registry.
    fn label(self) -> &'static str {
        match self {
            QueryMode::Exact => "exact",
            QueryMode::TopK(_) => "top_k",
            QueryMode::Approximate { .. } => "approximate",
        }
    }
}

/// Per-query switches (ablations and stats collection).
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Gather the Figure-7 pruning-power counters (adds one linear pass
    /// over users and POIs).
    pub collect_stats: bool,
    /// Interest-score pruning (Lemma 3 / Corollary 1 / Lemma 8).
    pub use_interest_pruning: bool,
    /// Social-distance pruning (Lemmas 4 and 9).
    pub use_social_distance_pruning: bool,
    /// Matching-score pruning (Lemmas 1 and 6).
    pub use_matching_pruning: bool,
    /// `δ` distance pruning (Lemmas 5 and 7).
    pub use_delta_pruning: bool,
    /// Use the exact halfspace-corner MBR test instead of the paper's
    /// geometric `maxdist`/`mindist` comparison for Lemma 8 (the
    /// geometric test is sufficient-only; the tight test prunes more).
    pub use_tight_mbr_test: bool,
    /// Worker threads for center refinement *within* one query. `1`
    /// (the default) verifies centers sequentially; `0` uses the
    /// machine's available parallelism. Under an untripped budget the
    /// answer is bit-identical to the sequential one (see
    /// [`crate::refinement::verify_center`]'s determinism note); under
    /// a tripped budget parallel workers may get further before the
    /// trip, so the anytime answer can legitimately differ (its gap
    /// bound stays sound). Budgets remain global: all workers charge
    /// the same meter.
    pub refine_threads: usize,
    /// Oracle serving refinement-time `dist_RN` rows and columns. The
    /// default [`DistanceBackend::Ch`] uses the road index's contraction
    /// hierarchy when it carries one and degrades to Dijkstra otherwise;
    /// answers are bit-identical either way. The sampling-based
    /// approximate path always uses Dijkstra.
    pub distance_backend: DistanceBackend,
    /// What to serve when the exact pipeline cannot produce an answer
    /// (see [`DegradationPolicy`]). The default, `FailFast`, preserves
    /// the legacy failure behavior exactly.
    pub degradation: DegradationPolicy,
    /// Which refinement runs (see [`QueryMode`]).
    pub mode: QueryMode,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            collect_stats: false,
            use_interest_pruning: true,
            use_social_distance_pruning: true,
            use_matching_pruning: true,
            use_delta_pruning: true,
            use_tight_mbr_test: false,
            refine_threads: 1,
            distance_backend: DistanceBackend::Ch,
            degradation: DegradationPolicy::default(),
            mode: QueryMode::default(),
        }
    }
}

/// The GP-SSN engine: both indexes plus the query algorithm.
pub struct GpSsnEngine<'a> {
    ssn: &'a SpatialSocialNetwork,
    road_index: RoadIndex,
    social_index: SocialIndex,
    cfg: EngineConfig,
    /// Shared LRU buffer pool (when configured): persists across queries
    /// like a real database buffer manager, so hot pages (roots, upper
    /// index levels) stop costing physical reads after warm-up.
    page_cache: Option<std::sync::Mutex<gpssn_index::io::PageCache>>,
    /// Exact 2-hop labels of `G_s` (when configured).
    hop_labels: Option<gpssn_graph::HopLabels>,
    /// Cross-query ball / `dist_RN` cache (when configured).
    distance_cache: Option<DistanceCache>,
    /// Circuit breaker guarding the CH oracle across every query this
    /// engine serves: repeated CH faults open it, redirecting distance
    /// batches to the bit-identical Dijkstra path until a half-open
    /// probe succeeds (see [`crate::breaker`]).
    ch_breaker: CircuitBreaker,
}

/// Work items of the road-side best-first traversal.
#[derive(Debug, Clone, Copy)]
enum Item {
    Node(u32),
    Center(PoiId),
}

impl<'a> GpSsnEngine<'a> {
    /// Builds the engine: pivot selection (Algorithm 1), `I_R`, `I_S`.
    ///
    /// Index construction honours the build-thread knobs on
    /// `cfg.road_index.build` / `cfg.social_index.build` (see
    /// [`EngineConfig::with_build_threads`]); the built indexes are
    /// bit-identical for every thread count. With a metrics-enabled
    /// telemetry sink attached, each build stage's wall clock lands in
    /// the `gpssn_build_stage_ns{stage}` histogram and the CH
    /// contraction's witness-workspace reuse counters in
    /// `gpssn_build_witness_{resets,recycles}_total`.
    pub fn build(ssn: &'a SpatialSocialNetwork, cfg: EngineConfig) -> Self {
        let mut stages: Vec<(&'static str, std::time::Duration)> = Vec::new();
        let t0 = Instant::now();
        let mut ps_road = cfg.pivot_select.clone();
        ps_road.count = cfg.num_road_pivots;
        let road_pivot_ids = select_road_pivots(ssn.road(), &ps_road);
        let road_pivots =
            RoadPivots::new_with_threads(ssn.road(), road_pivot_ids, cfg.road_index.build.threads);
        stages.push(("road_pivots", t0.elapsed()));

        let t0 = Instant::now();
        let mut ps_soc = cfg.pivot_select.clone();
        ps_soc.count = cfg.num_social_pivots;
        let social_pivot_ids = select_social_pivots(ssn.social(), &ps_soc);
        let social_pivots = SocialPivots::new_with_threads(
            ssn.social(),
            social_pivot_ids,
            cfg.social_index.build.threads,
        );
        stages.push(("social_pivots", t0.elapsed()));

        let (road_index, road_stages) = RoadIndex::build_with_stages(
            ssn.road(),
            ssn.pois(),
            road_pivots,
            cfg.road_index.clone(),
        );
        let (social_index, social_stages) = SocialIndex::build_with_stages(
            ssn,
            social_pivots,
            road_index.pivots(),
            &cfg.social_index,
        );
        if let Some(o) = cfg.obs.as_deref().filter(|o| o.metrics_on()) {
            for (name, d) in stages
                .iter()
                .chain(road_stages.stages.iter())
                .chain(social_stages.stages.iter())
            {
                o.observe(
                    "gpssn_build_stage_ns",
                    &[("stage", name)],
                    d.as_nanos().min(u64::MAX as u128) as u64,
                );
            }
            if let Some(ch) = road_stages.ch {
                o.inc("gpssn_build_witness_resets_total", &[], ch.witness_resets);
                o.inc(
                    "gpssn_build_witness_recycles_total",
                    &[],
                    ch.witness_recycles,
                );
                o.inc("gpssn_build_ch_shortcuts_total", &[], ch.shortcuts as u64);
                o.inc("gpssn_build_ch_rounds_total", &[], u64::from(ch.rounds));
            }
        }
        let page_cache = cfg
            .page_cache_capacity
            .map(|cap| std::sync::Mutex::new(gpssn_index::io::PageCache::new(cap)));
        let hop_labels = cfg
            .exact_social_distance
            .then(|| gpssn_graph::HopLabels::build(ssn.social().graph()));
        let distance_cache = cfg.distance_cache.as_ref().map(DistanceCache::new);
        GpSsnEngine {
            ssn,
            road_index,
            social_index,
            cfg,
            page_cache,
            hop_labels,
            distance_cache,
            ch_breaker: CircuitBreaker::new(BreakerConfig::default()),
        }
    }

    /// The circuit breaker guarding the CH distance backend.
    pub fn ch_breaker(&self) -> &CircuitBreaker {
        &self.ch_breaker
    }

    /// The engine's cross-query distance cache, if configured.
    pub fn distance_cache(&self) -> Option<&DistanceCache> {
        self.distance_cache.as_ref()
    }

    /// Publishes the distance cache's lifetime counters and per-shard
    /// occupancy/capacity gauges into the attached telemetry registry.
    /// Values are absolute (set, not added), so calling this repeatedly
    /// — e.g. right before scraping — never double-counts. A no-op
    /// without an active metrics sink or a configured cache.
    pub fn publish_cache_metrics(&self) {
        let (Some(o), Some(cache)) = (
            self.obs().filter(|o| o.metrics_on()),
            self.distance_cache.as_ref(),
        ) else {
            return;
        };
        let reg = o.base_registry();
        let life = cache.lifetime_stats();
        for (kind, hits, misses, evictions) in [
            (
                "ball",
                life.ball_hits,
                life.ball_misses,
                life.ball_evictions,
            ),
            (
                "dist",
                life.dist_hits,
                life.dist_misses,
                life.dist_evictions,
            ),
        ] {
            reg.set_counter("gpssn_cache_lifetime_hits_total", &[("kind", kind)], hits);
            reg.set_counter(
                "gpssn_cache_lifetime_misses_total",
                &[("kind", kind)],
                misses,
            );
            reg.set_counter("gpssn_cache_evictions_total", &[("kind", kind)], evictions);
        }
        reg.set_gauge("gpssn_cache_hit_rate", &[], life.hit_rate());
        for (kind, shards) in [
            ("ball", cache.ball_shard_occupancy()),
            ("dist", cache.dist_shard_occupancy()),
        ] {
            for (i, s) in shards.iter().enumerate() {
                let shard = i.to_string();
                reg.set_gauge(
                    "gpssn_cache_shard_entries",
                    &[("kind", kind), ("shard", &shard)],
                    s.entries as f64,
                );
                reg.set_gauge(
                    "gpssn_cache_shard_capacity",
                    &[("kind", kind), ("shard", &shard)],
                    s.capacity as f64,
                );
            }
        }
    }

    /// The CH oracle serving this query's `dist_RN` batches, honouring
    /// [`QueryOptions::distance_backend`]: `None` under the Dijkstra
    /// backend or when the road index carries no oracle.
    fn ch_for(&self, opts: &QueryOptions) -> Option<&gpssn_graph::ChOracle> {
        match opts.distance_backend {
            DistanceBackend::Dijkstra => None,
            DistanceBackend::Ch => self.road_index.ch(),
        }
    }

    /// The attached telemetry sink when it is live (metrics or tracing
    /// enabled); dormant and absent sinks both come back `None`, so
    /// every instrumentation site downstream stays a single check.
    fn obs(&self) -> Option<&Obs> {
        self.cfg.obs.as_deref().filter(|o| o.active())
    }

    /// The telemetry sink attached at build time, regardless of whether
    /// metrics or tracing are currently enabled on it.
    pub fn obs_handle(&self) -> Option<&Arc<Obs>> {
        self.cfg.obs.as_ref()
    }

    /// The spatial-social network this engine serves.
    pub fn ssn(&self) -> &SpatialSocialNetwork {
        self.ssn
    }

    /// The road index `I_R`.
    pub fn road_index(&self) -> &RoadIndex {
        &self.road_index
    }

    /// The social index `I_S`.
    pub fn social_index(&self) -> &SocialIndex {
        &self.social_index
    }

    /// Answers one GP-SSN query under a resource budget — the engine's
    /// single query entry point. [`QueryOptions::mode`] picks the
    /// refinement (the exact optimum by default, top-`k`, or subset
    /// sampling); the social and road pruning phases are shared.
    ///
    /// Validation failures return `Err` ([`GpSsnError::InvalidQuery`],
    /// [`GpSsnError::UnknownUser`], [`GpSsnError::RadiusOutOfIndexRange`],
    /// [`GpSsnError::Infeasible`]); a query that *starts* always returns
    /// `Ok` and reports budget trips through
    /// [`QueryOutcome::completion`] — the anytime contract: the best
    /// verified answers so far plus an optimality-gap bound, or
    /// [`Completion::Failed`] when nothing was verified in time.
    pub fn try_query(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        budget: &QueryBudget,
    ) -> Result<QueryOutcome, GpSsnError> {
        if opts.mode == QueryMode::TopK(0) {
            return Err(GpSsnError::InvalidQuery("k must be positive".to_string()));
        }
        self.validate_query(q)?;
        self.validate_radius(q)?;
        self.check_static_feasibility(q)?;
        let meter = BudgetState::new(budget);
        let obs = self.obs();
        let _qspan = obs
            .filter(|o| o.tracing_on())
            .map(|o| o.tracer().span("query"));

        let start = Instant::now();
        // Counts the phases tally themselves (pages, pruning); the
        // meter's shared counts are folded in once the search is done.
        let mut counts = QueryCounters::default();
        counts[Counter::UsersTotal] = self.ssn.social().num_users() as u64;
        counts[Counter::PoisTotal] = self.ssn.pois().len() as u64;

        let candidates = gpssn_obs::phase(obs, "prune_social", || {
            self.social_phase(q, opts, &mut counts)
        });
        let (mut answers, delta, outstanding) = match opts.mode {
            QueryMode::Exact => {
                let (answer, delta, outstanding) =
                    self.road_phase(q, opts, &candidates, &mut counts, &meter, obs);
                (answer.into_iter().collect(), delta, outstanding)
            }
            QueryMode::TopK(k) => {
                self.refine_top_k(q, k, opts, &candidates, &mut counts, &meter, obs)
            }
            QueryMode::Approximate { samples, seed } => {
                let (mut centers, outstanding, delta) = gpssn_obs::phase(obs, "prune_road", || {
                    self.collect_centers(q, opts, &candidates, &mut counts, &meter)
                });
                centers.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                counts[Counter::CandidatePois] = centers.len() as u64;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let (answer, unresolved) = gpssn_obs::phase(obs, "sample", || {
                    self.sample_centers(q, &candidates, &centers, samples, &mut rng, &meter)
                });
                (
                    answer.into_iter().collect(),
                    delta,
                    outstanding.min(unresolved),
                )
            }
        };
        counts += &meter.snapshot();
        let k = if let QueryMode::TopK(k) = opts.mode {
            k
        } else {
            1
        };
        let trip = meter.trip();
        let mut completion = completion_of(trip, &counts, &answers, k, outstanding);

        // Bottom rung of the degradation ladder: the exact pipeline
        // failed outright, so spend a small fresh budget on the sampling
        // estimator before reporting failure. Its work counts toward the
        // query's counters.
        if opts.mode == QueryMode::Exact
            && opts.degradation == DegradationPolicy::Ladder
            && matches!(completion, Completion::Failed(_))
        {
            let (rescued, rescue_counts) = gpssn_obs::phase(obs, "degrade_sampling", || {
                self.sampling_rescue(q, opts, &candidates)
            });
            counts += &rescue_counts;
            if let Some(ans) = rescued {
                answers.push(ans);
                completion = Completion::DegradedSampling;
            }
        }

        if opts.collect_stats {
            self.independent_rule_measurement(q, delta, &mut counts);
        }
        counts[Counter::CandidateUsers] = candidates.len() as u64;

        let out = QueryOutcome {
            answers,
            completion,
            metrics: QueryMetrics {
                cpu: start.elapsed(),
                counters: counts,
            },
        };
        record_query(obs, opts.mode.label(), &out, trip);
        Ok(out)
    }

    /// Answers a batch of queries on `threads` serve workers (`0` = the
    /// machine's available parallelism; counts beyond the batch size
    /// are clamped), one result per query in input order.
    ///
    /// The batch is a [`serve()`](crate::serve::serve) call over the
    /// queries: workers pull one query at a time, so a costly query
    /// never strands cheap ones behind it; each query is answered as by
    /// [`GpSsnEngine::try_query`] and panic-isolated, so a panic
    /// surfaces as [`GpSsnError::Internal`] in its slot while the rest
    /// of the batch completes. Every trace the queries emit is kept.
    ///
    /// `budget.deadline` is measured **from submission**, as for every
    /// serve request: time a query spends queued behind the others
    /// counts against it, a query whose deadline has passed before a
    /// worker picks it up is shed with [`GpSsnError::DeadlineExpired`]
    /// without engine work, and a zero deadline is shed on arrival.
    pub fn try_query_batch(
        &self,
        queries: &[GpSsnQuery],
        threads: usize,
        opts: &QueryOptions,
        budget: &QueryBudget,
    ) -> Vec<Result<QueryOutcome, GpSsnError>> {
        let keep_every_trace = ServeObsConfig {
            tail: TailConfig {
                head_rate: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let cfg = ServeConfig {
            threads: resolve_threads(threads, queries.len()),
            options: opts.clone(),
            telemetry: Arc::new(ServeObs::new(&keep_every_trace)),
            ..Default::default()
        };
        let submissions = queries.iter().enumerate().map(|(i, q)| {
            Submission::Request(ServeRequest {
                id: i as u64,
                query: q.clone(),
                budget: budget.clone(),
            })
        });
        let mut results = Vec::with_capacity(queries.len());
        crate::serve::serve(self, &cfg, submissions, |resp| results.push(resp.result));
        results
    }

    /// `Err(InvalidQuery)` / `Err(UnknownUser)` for malformed parameters.
    fn validate_query(&self, q: &GpSsnQuery) -> Result<(), GpSsnError> {
        q.validate().map_err(GpSsnError::InvalidQuery)?;
        let num_users = self.ssn.social().num_users();
        if q.user as usize >= num_users {
            return Err(GpSsnError::UnknownUser {
                user: q.user,
                num_users,
            });
        }
        Ok(())
    }

    /// `Err(RadiusOutOfIndexRange)` when `r` is outside what `I_R` serves.
    fn validate_radius(&self, q: &GpSsnQuery) -> Result<(), GpSsnError> {
        let (r_min, r_max) = (self.cfg.road_index.r_min, self.cfg.road_index.r_max);
        if !(q.radius >= r_min && q.radius <= r_max) {
            return Err(GpSsnError::RadiusOutOfIndexRange {
                radius: q.radius,
                r_min,
                r_max,
            });
        }
        Ok(())
    }

    /// `Err(Infeasible)` for queries provably unanswerable before any
    /// index work: `τ` beyond the population, or a friendless query user
    /// with `τ ≥ 2` (a connected group of that size cannot exist).
    fn check_static_feasibility(&self, q: &GpSsnQuery) -> Result<(), GpSsnError> {
        let m = self.ssn.social().num_users();
        if q.tau > m {
            return Err(GpSsnError::Infeasible {
                reason: format!(
                    "group size tau = {} exceeds the user population m = {m}",
                    q.tau
                ),
            });
        }
        if q.tau >= 2 && self.ssn.social().graph().neighbors(q.user).is_empty() {
            return Err(GpSsnError::Infeasible {
                reason: format!(
                    "query user {} has no friends, so no connected group of size {} exists",
                    q.user, q.tau
                ),
            });
        }
        Ok(())
    }

    /// [`QueryMode::TopK`] refinement: collects every candidate center
    /// with δ-pruning off, then verifies them in ascending `lb` order
    /// until the `k`-th best answer beats the next lower bound. Returns
    /// the answers (ascending `maxdist`, distinct groups), `δ`, and the
    /// smallest lower bound left unresolved.
    // Audited expect: `best_k.last()` is only read behind an explicit
    // `best_k.len() >= k` (k >= 1) guard.
    #[allow(clippy::expect_used, clippy::too_many_arguments)]
    fn refine_top_k(
        &self,
        q: &GpSsnQuery,
        k: usize,
        opts: &QueryOptions,
        candidates: &[UserId],
        counts: &mut QueryCounters,
        meter: &BudgetState,
        obs: Option<&Obs>,
    ) -> (Vec<GpSsnAnswer>, f64, f64) {
        let opts = QueryOptions {
            use_delta_pruning: false,
            ..opts.clone()
        };
        let (mut centers, mut outstanding, delta) = gpssn_obs::phase(obs, "prune_road", || {
            self.collect_centers(q, &opts, candidates, counts, meter)
        });
        centers.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        counts[Counter::CandidatePois] = centers.len() as u64;
        let refine_span = obs
            .filter(|o| o.tracing_on())
            .map(|o| o.tracer().span("refine"));
        let span_parent = refine_span.as_ref().map_or(0, |s| s.id());
        let refine_started = obs.map(|_| Instant::now());
        let mut ws = DijkstraWorkspace::new();
        let mut chws = gpssn_graph::ChSearch::new();
        let mut ctx = VerifyContext {
            ws: &mut ws,
            ch: self.ch_for(&opts).map(|oracle| ChBackend {
                oracle,
                search: &mut chws,
            }),
            cache: self.distance_cache.as_ref(),
            breaker: Some(&self.ch_breaker),
            budget: meter,
            obs,
            span_parent,
        };
        let mut best_k: Vec<GpSsnAnswer> = Vec::new();
        for &(lb, center) in &centers {
            let bound = if best_k.len() < k {
                f64::INFINITY
            } else {
                best_k.last().expect("non-empty").maxdist
            };
            if lb >= bound {
                break;
            }
            if meter.is_tripped() {
                outstanding = outstanding.min(lb);
                break;
            }
            let Some(v) = verify_center_guarded(
                self.ssn,
                q,
                candidates,
                center,
                bound,
                self.cfg.enumeration_cap,
                &mut ctx,
                opts.degradation,
            ) else {
                outstanding = outstanding.min(lb);
                continue;
            };
            if let Some(ans) = v.answer {
                if !best_k
                    .iter()
                    .any(|b| b.users == ans.users && b.pois == ans.pois)
                {
                    best_k.push(ans);
                    best_k.sort_by(|a, b| a.maxdist.total_cmp(&b.maxdist));
                    best_k.truncate(k);
                }
            }
            if meter.is_tripped() {
                outstanding = outstanding.min(lb);
                break;
            }
        }
        record_phase_ns(obs, "refine", refine_started);
        drop(refine_span);
        note_workspaces(meter, &ws, &chws);
        (best_k, delta, outstanding)
    }

    /// Subset-sampling refinement (the paper's §5 estimator) over
    /// centers sorted ascending by `lb`: draws `samples` random
    /// connected groups per center and keeps the best feasible one.
    /// Returns the answer and the smallest lower bound left unresolved
    /// when the budget tripped (`f64::INFINITY` otherwise).
    fn sample_centers(
        &self,
        q: &GpSsnQuery,
        candidates: &[UserId],
        centers: &[(f64, PoiId)],
        samples: usize,
        rng: &mut rand::rngs::StdRng,
        meter: &BudgetState,
    ) -> (Option<GpSsnAnswer>, f64) {
        let mut best: Option<GpSsnAnswer> = None;
        let mut best_val = f64::INFINITY;
        let mut unresolved = f64::INFINITY;
        for &(lb, center) in centers {
            if lb >= best_val {
                break;
            }
            if meter.is_tripped() {
                unresolved = lb;
                break;
            }
            let filtered = self.filter_candidates_for_center(candidates, center, best_val);
            if let Some(ans) = crate::sampling::verify_center_sampled(
                self.ssn, q, &filtered, center, best_val, samples, rng, meter,
            ) {
                best_val = ans.maxdist;
                best = Some(ans);
            }
            if meter.is_tripped() {
                unresolved = lb;
                break;
            }
        }
        (best, unresolved)
    }

    /// The ladder's sampling rung: re-collects candidate centers under a
    /// small *fresh* work budget (the original meter is spent or
    /// faulted) and draws random connected groups per center — the
    /// paper's §5 future-work subset sampler. Any answer returned
    /// satisfies Definition 5 exactly; only its optimality is unknown.
    /// Deterministic: the RNG is seeded from the query user and the
    /// budget is counted in work units, not wall-clock time. The
    /// sampler runs on plain Dijkstra, touching none of the CH or
    /// refinement machinery the faults came from. Also returns the
    /// rescue's own counts (pages, pops, groups, settles), which the
    /// caller adds to the query's.
    fn sampling_rescue(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        candidates: &[UserId],
    ) -> (Option<GpSsnAnswer>, QueryCounters) {
        const RESCUE_SAMPLES: usize = 32;
        const RESCUE_CENTERS: usize = 64;
        let budget = QueryBudget {
            max_heap_pops: Some(100_000),
            max_groups_enumerated: Some(20_000),
            max_dijkstra_settles: Some(2_000_000),
            deadline: None,
        };
        let meter = BudgetState::new(&budget);
        let mut counts = QueryCounters::default();
        let (mut centers, _, _) = self.collect_centers(q, opts, candidates, &mut counts, &meter);
        centers.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        centers.truncate(RESCUE_CENTERS);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_0000 ^ u64::from(q.user));
        let (answer, _) =
            self.sample_centers(q, candidates, &centers, RESCUE_SAMPLES, &mut rng, &meter);
        counts += &meter.snapshot();
        (answer, counts)
    }

    /// Traversal-only road phase: collects candidate centers with their
    /// lower bounds, without refinement (shared by the approximate and
    /// top-k modes and the sampling rung). δ-cut items are dropped, not
    /// deferred. Also returns the smallest lower bound left unexplored
    /// when the budget tripped mid-traversal (`f64::INFINITY` otherwise)
    /// and the final `δ`.
    fn collect_centers(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        candidates: &[UserId],
        counts: &mut QueryCounters,
        meter: &BudgetState,
    ) -> (Vec<(f64, PoiId)>, f64, f64) {
        let idx = &self.road_index;
        let uq_interest = self.ssn.social().interest(q.user);
        let uq_rn = self.social_index.user_rn_dists(q.user);
        let h = idx.pivots().len();
        let mut scand_ub = vec![f64::INFINITY; h];
        for (k, s) in scand_ub.iter_mut().enumerate() {
            *s = uq_rn[k];
        }
        for &u in candidates {
            for (k, &d) in self.social_index.user_rn_dists(u).iter().enumerate() {
                scand_ub[k] = scand_ub[k].max(d);
            }
        }
        let mut heap = MinHeap::new();
        let mut centers = Vec::new();
        let mut delta = f64::INFINITY;
        let mut outstanding = f64::INFINITY;
        heap.push(0.0, Item::Node(idx.tree().root()));
        while let Some((lb, item)) = heap.pop() {
            meter.note_pop();
            if meter.is_tripped() {
                outstanding = lb;
                break;
            }
            if opts.use_delta_pruning && lb > delta {
                break;
            }
            match item {
                Item::Node(n) => {
                    self.touch(counts, gpssn_index::io::page_ids::road(n));
                    self.expand_node(
                        q,
                        opts,
                        n,
                        uq_interest,
                        uq_rn,
                        &scand_ub,
                        &mut heap,
                        &mut centers,
                        &mut delta,
                        counts,
                        false,
                    );
                }
                Item::Center(o) => centers.push((lb, o)),
            }
        }
        (centers, outstanding, delta)
    }

    // ------------------------------------------------------------------
    // Phase 1: social traversal (Algorithm 2 lines 4–10, 29)
    // ------------------------------------------------------------------

    fn social_phase(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        counts: &mut QueryCounters,
    ) -> Vec<UserId> {
        let idx = &self.social_index;
        let uq_sn = idx.user_sn_dists(q.user);
        let region = PruningRegion::new(self.ssn.social().interest(q.user), q.gamma);
        let uq_ancestors = self.ancestors_of(q.user);

        let mut frontier = vec![idx.root()];
        self.touch(counts, gpssn_index::io::page_ids::social(idx.root()));
        // Expand to the leaves, pruning nodes.
        loop {
            let all_leaves = frontier.iter().all(|&id| idx.node(id).children.is_empty());
            if all_leaves {
                break;
            }
            let mut next = Vec::new();
            for &id in &frontier {
                let node = idx.node(id);
                if node.children.is_empty() {
                    next.push(id); // already a leaf; keep for object stage
                    continue;
                }
                for &child in &node.children {
                    self.touch(counts, gpssn_index::io::page_ids::social(child));
                    let c = idx.node(child);
                    let by_dist = opts.use_social_distance_pruning
                        && prune_node_by_social_distance(uq_sn, &c.lb_sn, &c.ub_sn, q.tau);
                    let by_interest = opts.use_interest_pruning
                        && if opts.use_tight_mbr_test {
                            region.prunes_mbr_tight(&c.ub_w)
                        } else {
                            region.prunes_mbr(&c.lb_w, &c.ub_w)
                        };
                    if (by_dist || by_interest) && !uq_ancestors.contains(&child) {
                        counts[Counter::UsersPrunedIndex] += c.user_count as u64;
                    } else {
                        next.push(child);
                    }
                }
            }
            frontier = next;
        }

        // Object level over leaf members (Lemmas 3 and 4).
        let mut candidates = Vec::new();
        for &leaf in &frontier {
            for &u in &idx.node(leaf).users {
                if u == q.user {
                    candidates.push(u);
                    continue;
                }
                let by_dist = opts.use_social_distance_pruning
                    && match &self.hop_labels {
                        // Exact mode: the true dist_SN replaces the bound.
                        Some(labels) => labels.dist(q.user, u) as usize >= q.tau,
                        None => prune_user_by_social_distance(uq_sn, idx.user_sn_dists(u), q.tau),
                    };
                let by_interest =
                    opts.use_interest_pruning && region.prunes_point(self.ssn.social().interest(u));
                if by_dist || by_interest {
                    counts[Counter::UsersPrunedObject] += 1;
                } else {
                    candidates.push(u);
                }
            }
        }
        if !candidates.contains(&q.user) {
            candidates.push(q.user);
        }

        // Corollary 2.
        if opts.use_interest_pruning {
            let before = candidates.len();
            candidates = corollary2_filter(&candidates, q.user, q.tau, q.gamma, |a, b| {
                self.ssn.social().score(a, b)
            });
            counts[Counter::UsersPrunedObject] += (before - candidates.len()) as u64;
        }
        candidates
    }

    /// Node ids on the root-to-leaf path containing `user`; these nodes
    /// are never pruned on the social side (the query user must survive).
    fn ancestors_of(&self, user: UserId) -> Vec<u32> {
        let idx = &self.social_index;
        let mut path = Vec::new();
        fn dfs(idx: &SocialIndex, node: u32, user: UserId, path: &mut Vec<u32>) -> bool {
            path.push(node);
            let n = idx.node(node);
            if n.children.is_empty() {
                if n.users.contains(&user) {
                    return true;
                }
            } else {
                for &c in &n.children {
                    if dfs(idx, c, user, path) {
                        return true;
                    }
                }
            }
            path.pop();
            false
        }
        dfs(idx, idx.root(), user, &mut path);
        path
    }

    // ------------------------------------------------------------------
    // Phase 2: road traversal + refinement (Algorithm 2 lines 11–31)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn road_phase(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        candidates: &[UserId],
        counts: &mut QueryCounters,
        meter: &BudgetState,
        obs: Option<&Obs>,
    ) -> (Option<GpSsnAnswer>, f64, f64) {
        let idx = &self.road_index;
        let uq_interest = self.ssn.social().interest(q.user);
        let uq_rn = self.social_index.user_rn_dists(q.user);

        // If no feasible user group exists at all (independent of R),
        // every center is infeasible: answer None without touching I_R.
        // `None` means the check itself ran out of budget — proceed; the
        // traversal below trips on its first pop and degrades cleanly.
        if self.any_feasible_group(q, candidates, meter) == Some(false) {
            return (None, f64::INFINITY, f64::INFINITY);
        }

        // Eq. 16's `max_{u_j ∈ S}` term. The loosest sound choice is the
        // elementwise max over all candidates; we use a much tighter form:
        // per pivot, the `(τ-1)`-th smallest companion distance (the
        // best-case group of u_q plus its τ-1 pivot-closest candidates).
        // This upper-bounds the objective of *some* τ-group — not
        // necessarily a feasible one, which is exactly why δ-cut items go
        // to the deferred list instead of being dropped (see module docs).
        let h = idx.pivots().len();
        let mut scand_ub = vec![0.0f64; h];
        for k in 0..h {
            let mut companions: Vec<f64> = candidates
                .iter()
                .filter(|&&u| u != q.user)
                .map(|&u| self.social_index.user_rn_dists(u)[k])
                .collect();
            companions.sort_by(|a, b| a.total_cmp(b));
            let need = q.tau.saturating_sub(1);
            let kth = if need == 0 {
                0.0
            } else if companions.len() < need {
                f64::INFINITY
            } else {
                companions[need - 1]
            };
            scand_ub[k] = uq_rn[k].max(kth);
        }

        let mut heap = MinHeap::new();
        let mut deferred: Vec<(f64, Item)> = Vec::new();
        let mut centers: Vec<(f64, PoiId)> = Vec::new();
        let mut delta = f64::INFINITY;
        // Smallest lower bound left unresolved when the budget trips:
        // heap pops come out in ascending `lb`, so the lb in hand at the
        // trip bounds everything still queued; deferred items and
        // unverified centers fold in separately.
        let mut outstanding = f64::INFINITY;
        heap.push(0.0, Item::Node(idx.tree().root()));

        gpssn_obs::phase(obs, "prune_road", || {
            while let Some((lb, item)) = heap.pop() {
                meter.note_pop();
                if meter.is_tripped() {
                    outstanding = outstanding.min(lb);
                    break;
                }
                if opts.use_delta_pruning && lb > delta {
                    // Paper line 14: everything remaining is δ-cut. Keep
                    // for the exactness fallback; no I/O is spent on
                    // them now.
                    match item {
                        Item::Node(n) => {
                            counts[Counter::PoisPrunedIndex] += idx.node(n).poi_count as u64;
                        }
                        Item::Center(_) => {
                            counts[Counter::PoisPrunedObject] += 1;
                        }
                    }
                    deferred.push((lb, item));
                    continue;
                }
                match item {
                    Item::Node(n) => {
                        self.touch(counts, gpssn_index::io::page_ids::road(n));
                        self.expand_node(
                            q,
                            opts,
                            n,
                            uq_interest,
                            uq_rn,
                            &scand_ub,
                            &mut heap,
                            &mut centers,
                            &mut delta,
                            counts,
                            true,
                        );
                    }
                    Item::Center(o) => centers.push((lb, o)),
                }
            }
        });

        // Refinement over surviving centers, cheapest lower bound first
        // (ties broken by center id so every execution mode agrees on
        // the order — the parallel merge below keys on it).
        centers.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if meter.is_tripped() {
            // Traversal was cut short: every collected center is still
            // unverified, so its lb is outstanding.
            outstanding = centers.iter().fold(outstanding, |m, &(lb, _)| m.min(lb));
        }
        // The refine span is opened by hand (not via `Obs::phase`)
        // because its id seeds `VerifyContext::span_parent`, under which
        // parallel workers hang their cross-thread `verify_center` spans.
        let refine_span = obs
            .filter(|o| o.tracing_on())
            .map(|o| o.tracer().span("refine"));
        let span_parent = refine_span.as_ref().map_or(0, |s| s.id());
        let refine_started = obs.map(|_| Instant::now());
        let refined = self.refine_centers(q, opts, candidates, &centers, meter, obs, span_parent);
        record_phase_ns(obs, "refine", refine_started);
        drop(refine_span);
        outstanding = outstanding.min(refined.unresolved);
        let mut best = refined.answer;
        let mut best_val = refined.best_val;

        // Exactness fallback: deferred items that still beat the best.
        deferred.sort_by(|a, b| a.0.total_cmp(&b.0));
        if meter.is_tripped() {
            // Deferred work never ran; anything cheaper than the best
            // verified answer is unresolved (folding in resolved items
            // only widens the reported gap — conservative, never wrong).
            outstanding = deferred.iter().fold(outstanding, |m, &(lb, _)| m.min(lb));
        } else {
            let mut ws = DijkstraWorkspace::new();
            let mut chws = gpssn_graph::ChSearch::new();
            let fb_span = obs
                .filter(|o| o.tracing_on())
                .map(|o| o.tracer().span("refine_fallback"));
            let fb_started = obs.map(|_| Instant::now());
            let mut ctx = VerifyContext {
                ws: &mut ws,
                ch: self.ch_for(opts).map(|oracle| ChBackend {
                    oracle,
                    search: &mut chws,
                }),
                cache: self.distance_cache.as_ref(),
                breaker: Some(&self.ch_breaker),
                budget: meter,
                obs,
                span_parent: fb_span.as_ref().map_or(0, |s| s.id()),
            };
            let mut fallback = MinHeap::new();
            for (lb, item) in deferred {
                if lb < best_val {
                    fallback.push(lb, item);
                }
            }
            while let Some((lb, item)) = fallback.pop() {
                if lb >= best_val {
                    break;
                }
                meter.note_pop();
                if meter.is_tripped() {
                    outstanding = outstanding.min(lb);
                    break;
                }
                match item {
                    Item::Node(n) => {
                        self.touch(counts, gpssn_index::io::page_ids::road(n));
                        let mut local_centers = Vec::new();
                        self.expand_node(
                            q,
                            opts,
                            n,
                            uq_interest,
                            uq_rn,
                            &scand_ub,
                            &mut fallback,
                            &mut local_centers,
                            &mut delta,
                            counts,
                            false,
                        );
                        for (clb, c) in local_centers {
                            fallback.push(clb, Item::Center(c));
                        }
                    }
                    Item::Center(center) => {
                        let filtered =
                            self.filter_candidates_for_center(candidates, center, best_val);
                        let Some(v) = verify_center_guarded(
                            self.ssn,
                            q,
                            &filtered,
                            center,
                            best_val,
                            self.cfg.enumeration_cap,
                            &mut ctx,
                            opts.degradation,
                        ) else {
                            outstanding = outstanding.min(lb);
                            continue;
                        };
                        if let Some(ans) = v.answer {
                            best_val = ans.maxdist;
                            best = Some(ans);
                        }
                        if meter.is_tripped() {
                            outstanding = outstanding.min(lb);
                            break;
                        }
                    }
                }
            }
            record_phase_ns(obs, "refine_fallback", fb_started);
            drop(fb_span);
            note_workspaces(meter, &ws, &chws);
        }

        counts[Counter::CandidatePois] = centers.len() as u64;
        (best, delta, outstanding)
    }

    /// Records an access to index page `page`: a physical read unless the
    /// engine's shared buffer pool holds it.
    fn touch(&self, counts: &mut QueryCounters, page: u64) {
        match &self.page_cache {
            None => counts[Counter::IoPages] += 1,
            Some(pool) => {
                // A panic caught by the batch isolation layer may leave
                // this lock poisoned; the cache tolerates a torn update
                // (worst case: one page access double-counted), so
                // recover the inner value rather than cascade a failure
                // into every later query.
                let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
                if !pool.access(page) {
                    counts[Counter::IoPages] += 1;
                }
            }
        }
    }

    /// Whether any connected `τ`-group containing `u_q` with pairwise
    /// interest `>= γ` exists among the candidates (ignores `R`).
    /// `None` means the check was cut short (budget trip or enumeration
    /// cap) before either outcome was proven.
    fn any_feasible_group(
        &self,
        q: &GpSsnQuery,
        candidates: &[UserId],
        meter: &BudgetState,
    ) -> Option<bool> {
        if candidates.len() < q.tau {
            return Some(false);
        }
        let mut allowed = vec![false; self.ssn.social().num_users()];
        for &u in candidates {
            allowed[u as usize] = true;
        }
        let mut found = false;
        let mut complete = true;
        let mut visits = 0u64;
        gpssn_graph::enumerate_connected_subsets(
            self.ssn.social().graph(),
            q.user,
            q.tau,
            Some(&allowed),
            &mut |s| {
                visits += 1;
                meter.note_group();
                if meter.is_tripped() {
                    complete = false;
                    return false;
                }
                if self.ssn.social().pairwise_interest_holds(s, q.gamma) {
                    found = true;
                    return false;
                }
                if visits >= self.cfg.enumeration_cap as u64 {
                    complete = false;
                    return false;
                }
                true
            },
        );
        meter.add(Counter::PairsRefined, visits);
        if found {
            Some(true)
        } else if complete {
            Some(false)
        } else {
            None
        }
    }

    /// Drops candidates whose pivot lower bound to `center` already
    /// reaches `best_val` — they cannot belong to an improving group.
    fn filter_candidates_for_center(
        &self,
        candidates: &[UserId],
        center: PoiId,
        best_val: f64,
    ) -> Vec<UserId> {
        if !best_val.is_finite() {
            return candidates.to_vec();
        }
        let center_rn = &self.road_index.poi(center).pivot_dists;
        candidates
            .iter()
            .copied()
            .filter(|&u| {
                crate::pruning::lb_maxdist_poi(self.social_index.user_rn_dists(u), center_rn)
                    < best_val
            })
            .collect()
    }

    /// Verifies the sorted candidate centers and returns the best
    /// feasible answer, dispatching on [`QueryOptions::refine_threads`].
    /// `centers` must be sorted ascending by `(lb, id)`.
    #[allow(clippy::too_many_arguments)]
    fn refine_centers(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        candidates: &[UserId],
        centers: &[(f64, PoiId)],
        meter: &BudgetState,
        obs: Option<&Obs>,
        span_parent: u64,
    ) -> RefineOutcome {
        let threads = resolve_threads(opts.refine_threads, centers.len());
        let ch = self.ch_for(opts);
        let policy = opts.degradation;
        if threads <= 1 {
            self.refine_centers_sequential(
                q,
                candidates,
                centers,
                ch,
                meter,
                obs,
                span_parent,
                policy,
            )
        } else {
            self.refine_centers_parallel(
                q,
                candidates,
                centers,
                threads,
                ch,
                meter,
                obs,
                span_parent,
                policy,
            )
        }
    }

    /// The classical Algorithm-2 refinement loop: ascending-`lb` sweep
    /// with early termination once `lb` reaches the incumbent.
    #[allow(clippy::too_many_arguments)]
    fn refine_centers_sequential(
        &self,
        q: &GpSsnQuery,
        candidates: &[UserId],
        centers: &[(f64, PoiId)],
        ch: Option<&gpssn_graph::ChOracle>,
        meter: &BudgetState,
        obs: Option<&Obs>,
        span_parent: u64,
        policy: DegradationPolicy,
    ) -> RefineOutcome {
        let mut out = RefineOutcome::empty();
        let mut ws = DijkstraWorkspace::new();
        let mut chws = gpssn_graph::ChSearch::new();
        let mut ctx = VerifyContext {
            ws: &mut ws,
            ch: ch.map(|oracle| ChBackend {
                oracle,
                search: &mut chws,
            }),
            cache: self.distance_cache.as_ref(),
            breaker: Some(&self.ch_breaker),
            budget: meter,
            obs,
            span_parent,
        };
        for &(lb, center) in centers {
            if lb >= out.best_val {
                break;
            }
            if meter.is_tripped() {
                out.unresolved = out.unresolved.min(lb);
                break;
            }
            let filtered = self.filter_candidates_for_center(candidates, center, out.best_val);
            let Some(v) = verify_center_guarded(
                self.ssn,
                q,
                &filtered,
                center,
                out.best_val,
                self.cfg.enumeration_cap,
                &mut ctx,
                policy,
            ) else {
                out.unresolved = out.unresolved.min(lb);
                continue;
            };
            if let Some(ans) = v.answer {
                out.best_val = ans.maxdist;
                out.answer = Some(ans);
            }
            if meter.is_tripped() {
                // This center's verification was itself cut short, so it
                // remains unresolved (centers are sorted, so `lb` also
                // bounds every center we will now skip).
                out.unresolved = out.unresolved.min(lb);
                break;
            }
        }
        note_workspaces(meter, &ws, &chws);
        out
    }

    /// Parallel center refinement on scoped worker threads.
    ///
    /// Workers claim centers in ascending `(lb, id)` order off a shared
    /// counter and verify against a shared monotone bound stored as
    /// atomic f64 bits (bit patterns of non-negative floats order like
    /// their values). Each verification uses [`bound_above`] of the
    /// incumbent so *equal*-valued answers survive, and the final merge
    /// picks the lexicographically smallest `(value, claim index)`.
    ///
    /// Under an untripped budget this reproduces the sequential answer
    /// bit-for-bit: the sequential winner (the first center in sorted
    /// order achieving the optimum `v`) always satisfies `lb <= v <=
    /// incumbent`, so no worker ever skips it; its verification bound
    /// always exceeds `v`, and [`verify_center`] returns a
    /// bound-independent group; every other center either returns
    /// nothing, a larger value, or an equal value at a larger index —
    /// all of which lose the merge. A tripped budget may legitimately
    /// differ from the sequential run (workers got further before the
    /// trip); the reported gap stays sound because every claimed-but-
    /// unfinished center folds its `lb` into `unresolved`.
    #[allow(clippy::too_many_arguments)]
    fn refine_centers_parallel(
        &self,
        q: &GpSsnQuery,
        candidates: &[UserId],
        centers: &[(f64, PoiId)],
        threads: usize,
        ch: Option<&gpssn_graph::ChOracle>,
        meter: &BudgetState,
        obs: Option<&Obs>,
        span_parent: u64,
        policy: DegradationPolicy,
    ) -> RefineOutcome {
        let next = AtomicUsize::new(0);
        let best_bits = AtomicU64::new(f64::INFINITY.to_bits());
        let worker = |claims: usize| {
            let mut ws = DijkstraWorkspace::new();
            let mut chws = gpssn_graph::ChSearch::new();
            let mut ctx = VerifyContext {
                ws: &mut ws,
                ch: ch.map(|oracle| ChBackend {
                    oracle,
                    search: &mut chws,
                }),
                cache: self.distance_cache.as_ref(),
                breaker: Some(&self.ch_breaker),
                budget: meter,
                obs,
                span_parent,
            };
            let mut local: Option<(f64, usize, GpSsnAnswer)> = None;
            let mut unresolved = f64::INFINITY;
            for _ in 0..claims {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= centers.len() {
                    break;
                }
                let (lb, center) = centers[i];
                if meter.is_tripped() {
                    unresolved = unresolved.min(lb);
                    break;
                }
                let bound = bound_above(f64::from_bits(best_bits.load(Ordering::Relaxed)));
                if lb >= bound {
                    break; // sorted: every unclaimed center is at least this costly
                }
                let filtered = self.filter_candidates_for_center(candidates, center, bound);
                let Some(v) = verify_center_guarded(
                    self.ssn,
                    q,
                    &filtered,
                    center,
                    bound,
                    self.cfg.enumeration_cap,
                    &mut ctx,
                    policy,
                ) else {
                    unresolved = unresolved.min(lb);
                    continue;
                };
                if let Some(ans) = v.answer {
                    atomic_min_f64(&best_bits, ans.maxdist);
                    let better = match &local {
                        None => true,
                        Some((bv, bi, _)) => (ans.maxdist, i) < (*bv, *bi),
                    };
                    if better {
                        local = Some((ans.maxdist, i, ans));
                    }
                }
                if meter.is_tripped() {
                    // Conservative: this center may have completed, but
                    // folding its lb in only widens the reported gap.
                    unresolved = unresolved.min(lb);
                    break;
                }
            }
            note_workspaces(meter, &ws, &chws);
            (local, unresolved)
        };
        // Pilot: verify the cheapest center on the calling thread before
        // fanning out, so workers start with an incumbent bound instead
        // of all verifying their first claim against `∞` (which is
        // redundant work the sequential sweep would have skipped). The
        // pilot is simply claim 0 of the same protocol, so determinism
        // is untouched.
        let pilot = worker(1);
        // If the query thread is buffering spans for tail sampling,
        // workers adopt the same capture so their verification spans
        // stay with (and live or die with) the query's trace.
        let capture = gpssn_obs::trace::capture_handle();
        let results: Vec<WorkerResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let _adopt = capture.as_ref().map(gpssn_obs::trace::adopt_capture);
                        worker(usize::MAX)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    // Re-raise worker panics on the query thread so
                    // the batch isolation layer sees them.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut out = RefineOutcome::empty();
        let mut winner: Option<(f64, usize, GpSsnAnswer)> = None;
        for (local, unresolved) in std::iter::once(pilot).chain(results) {
            out.unresolved = out.unresolved.min(unresolved);
            if let Some((v, i, ans)) = local {
                let better = match &winner {
                    None => true,
                    Some((bv, bi, _)) => (v, i) < (*bv, *bi),
                };
                if better {
                    winner = Some((v, i, ans));
                }
            }
        }
        if let Some((v, _, ans)) = winner {
            out.best_val = v;
            out.answer = Some(ans);
        }
        out
    }

    /// Expands one `I_R` node: applies Lemma 6 / Lemma 1 matching pruning
    /// and pushes surviving children (or candidate centers) with their
    /// Eq. 17 lower bounds; updates `δ` with guarded Eq. 16/5 upper
    /// bounds.
    #[allow(clippy::too_many_arguments)]
    fn expand_node(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        node: u32,
        uq_interest: &gpssn_social::InterestVector,
        uq_rn: &[f64],
        scand_ub: &[f64],
        heap: &mut MinHeap<Item>,
        centers: &mut Vec<(f64, PoiId)>,
        delta: &mut f64,
        counts: &mut QueryCounters,
        count_stats: bool,
    ) {
        let idx = &self.road_index;
        for e in &idx.tree().node(node).entries {
            match *e {
                Entry::Item { item: poi, .. } => {
                    let aug = idx.poi(poi);
                    // Lemma 1 via the sup_K superset (Lemma 2).
                    if opts.use_matching_pruning
                        && ub_match_score_keywords(uq_interest, &aug.sup_keywords) < q.theta
                    {
                        if count_stats {
                            counts[Counter::PoisPrunedObject] += 1;
                        }
                        continue;
                    }
                    let lb = lb_maxdist_poi(uq_rn, &aug.pivot_dists);
                    // Eq. 18 guard at object granularity: sub_K certifies
                    // a θ-matching ball for u_q.
                    if gpssn_ssn::match_score_keywords(uq_interest, &aug.sub_keywords) >= q.theta {
                        *delta = delta.min(ub_maxdist_poi(scand_ub, &aug.pivot_dists, q.radius));
                    }
                    centers.push((lb, poi));
                }
                Entry::Child { node: child, .. } => {
                    let aug = idx.node(child);
                    // Lemma 6 via the node signature (Eq. 15).
                    if opts.use_matching_pruning
                        && ub_match_score_signature(uq_interest, &aug.sup_sig) < q.theta
                    {
                        if count_stats {
                            counts[Counter::PoisPrunedIndex] += aug.poi_count as u64;
                        }
                        continue;
                    }
                    let lb = lb_maxdist_node(uq_rn, &aug.lb_pivot, &aug.ub_pivot);
                    // Lemma 7 guard: Eq. 18 over the node samples
                    // certifies a candidate set inside, enabling the
                    // Eq. 16 δ update.
                    if lb_match_score_node(idx, aug, &[uq_interest]) >= q.theta {
                        *delta = delta.min(ub_maxdist_node(scand_ub, &aug.ub_pivot, q.radius));
                    }
                    heap.push(lb, Item::Node(child));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Independent per-rule measurement for Figures 7(b)/(c)
    // ------------------------------------------------------------------

    fn independent_rule_measurement(&self, q: &GpSsnQuery, delta: f64, counts: &mut QueryCounters) {
        let social = self.ssn.social();
        let uq_sn = self.social_index.user_sn_dists(q.user);
        let region = PruningRegion::new(social.interest(q.user), q.gamma);
        for u in 0..social.num_users() as UserId {
            if u == q.user {
                continue;
            }
            if prune_user_by_social_distance(uq_sn, self.social_index.user_sn_dists(u), q.tau) {
                counts[Counter::UsersPrunedByDistance] += 1;
            } else if region.prunes_point(social.interest(u)) {
                counts[Counter::UsersPrunedByInterest] += 1;
            }
        }
        let uq_rn = self.social_index.user_rn_dists(q.user);
        let uq_interest = social.interest(q.user);
        let threshold = if delta.is_finite() {
            delta
        } else {
            f64::INFINITY
        };
        for o in 0..self.ssn.pois().len() as PoiId {
            let aug = self.road_index.poi(o);
            if lb_maxdist_poi(uq_rn, &aug.pivot_dists) > threshold {
                counts[Counter::PoisPrunedByDistance] += 1;
            } else if ub_match_score_keywords(uq_interest, &aug.sup_keywords) < q.theta {
                counts[Counter::PoisPrunedByMatching] += 1;
            }
        }
    }
}

/// Folds one refinement scope's workspace telemetry into the meter:
/// runs prepared, runs that reused already-sized storage, and CH
/// near-tie path unpacks. Called once per scope, not per run.
fn note_workspaces(meter: &BudgetState, ws: &DijkstraWorkspace, chws: &gpssn_graph::ChSearch) {
    meter.add(Counter::WsResets, ws.resets() + chws.resets());
    meter.add(Counter::HeapRecycles, ws.recycles() + chws.recycles());
    meter.add(Counter::ChUnpacks, chws.unpacks());
}

/// Records one phase duration into the `gpssn_phase_duration_ns`
/// histogram; used where the phase's span is opened by hand (its id
/// feeds `VerifyContext::span_parent`) so [`Obs::phase`] cannot wrap
/// the work. `started` is `Some` exactly when `obs` is.
fn record_phase_ns(obs: Option<&Obs>, name: &'static str, started: Option<Instant>) {
    if let (Some(o), Some(t0)) = (obs, started) {
        o.observe(
            "gpssn_phase_duration_ns",
            &[("phase", name)],
            t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
    }
}

/// Runs [`verify_center`] under the query's fault policy. An `Err`
/// (broken internal invariant) is always absorbed as a query fault;
/// under [`DegradationPolicy::Ladder`] a *panic* inside verification is
/// additionally caught per-center and absorbed the same way, while
/// `FailFast` lets it propagate to the batch isolation layer (the
/// legacy behavior). A verified center's subsets count as pairs
/// refined. `None` means the center stays unresolved — the caller folds
/// its lower bound into the anytime gap, and the nonzero fault count
/// keeps the completion from claiming `Exact`.
#[allow(clippy::too_many_arguments)]
fn verify_center_guarded(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    candidates: &[UserId],
    center: PoiId,
    bound: f64,
    enumeration_cap: usize,
    ctx: &mut VerifyContext<'_>,
    policy: DegradationPolicy,
) -> Option<CenterVerification> {
    let res = if policy == DegradationPolicy::Ladder {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            verify_center(ssn, q, candidates, center, bound, enumeration_cap, ctx)
        }));
        match attempt {
            Ok(r) => r,
            Err(_) => {
                // The unwound verification may have left this worker's
                // CH workspace mid-sweep; wipe it so later batches stay
                // bit-identical.
                if let Some(chb) = ctx.ch.as_mut() {
                    chb.search.hard_reset();
                }
                Err(GpSsnError::Internal(format!(
                    "refinement panicked verifying center {center}"
                )))
            }
        }
    } else {
        verify_center(ssn, q, candidates, center, bound, enumeration_cap, ctx)
    };
    match res {
        Ok(v) => {
            ctx.budget.add(Counter::PairsRefined, v.subsets_examined);
            Some(v)
        }
        Err(_) => {
            ctx.budget.add(Counter::RefineFaults, 1);
            None
        }
    }
}

/// The error reported when a cut query verified nothing: the tripped
/// budget when one tripped, otherwise the absorbed refinement faults.
fn cut_error(trip: Option<Trip>, counts: &QueryCounters) -> GpSsnError {
    match trip {
        Some(trip) => trip.into(),
        None => GpSsnError::Internal(format!(
            "{} refinement fault(s) absorbed with no verified answer",
            counts[Counter::RefineFaults]
        )),
    }
}

/// Folds one finished query into the metrics registry — called once per
/// query at outcome assembly, so the hot traversal and refinement paths
/// never touch the registry. Every [`Counter`] is one series.
fn record_query(obs: Option<&Obs>, path: &'static str, out: &QueryOutcome, trip: Option<Trip>) {
    let Some(o) = obs.filter(|o| o.metrics_on()) else {
        return;
    };
    o.inc("gpssn_queries_total", &[("path", path)], 1);
    if !out.answers.is_empty() {
        o.inc("gpssn_answers_total", &[("path", path)], 1);
    }
    let class = out.completion.rung();
    o.inc("gpssn_query_completions_total", &[("class", class)], 1);
    if !matches!(out.completion, Completion::Exact) {
        o.inc("gpssn_degraded_rung_total", &[("rung", class)], 1);
    }
    if let Some(trip) = trip {
        let resource = match trip {
            Trip::Deadline => "deadline",
            Trip::HeapPops => "heap_pops",
            Trip::Groups => "groups",
            Trip::DijkstraSettles => "settles",
        };
        o.inc("gpssn_budget_trips_total", &[("resource", resource)], 1);
    }
    for (c, v) in out.metrics.counters.iter() {
        o.inc(c.name(), c.labels(), v);
    }
    o.observe(
        "gpssn_query_cpu_ns",
        &[("path", path)],
        out.metrics.cpu.as_nanos().min(u64::MAX as u128) as u64,
    );
}

/// What one refinement worker hands back: its best `(value, claim
/// index, answer)` if any, and the minimum unresolved lower bound it
/// left behind.
type WorkerResult = (Option<(f64, usize, GpSsnAnswer)>, f64);

/// Result of the refinement stage over the sorted candidate centers.
struct RefineOutcome {
    answer: Option<GpSsnAnswer>,
    best_val: f64,
    /// Smallest `lb` left unresolved by a budget trip (`f64::INFINITY`
    /// when every center was either verified or soundly pruned).
    unresolved: f64,
}

impl RefineOutcome {
    fn empty() -> Self {
        RefineOutcome {
            answer: None,
            best_val: f64::INFINITY,
            unresolved: f64::INFINITY,
        }
    }
}

/// The smallest f64 strictly above non-negative `v` (`INFINITY` maps to
/// itself). Verifying against `bound_above(best)` admits answers *equal*
/// to the incumbent, letting ties resolve deterministically by center
/// order instead of by race outcome.
fn bound_above(v: f64) -> f64 {
    if v == f64::INFINITY {
        f64::INFINITY
    } else {
        f64::from_bits(v.to_bits() + 1)
    }
}

/// Lowers the shared bound (IEEE-754 bits of a non-negative f64) to `v`
/// if `v` is smaller; monotone and lock-free. Bit patterns of
/// non-negative floats order identically to their values.
fn atomic_min_f64(best: &AtomicU64, v: f64) {
    let mut cur = best.load(Ordering::Relaxed);
    while v < f64::from_bits(cur) {
        match best.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(c) => cur = c,
        }
    }
}

/// Derives the completion state after a (possibly tripped) search.
///
/// `answers` are the verified answers in ascending `maxdist` (at most
/// `k`; `k = 1` outside [`QueryMode::TopK`]); `outstanding` is the
/// smallest lower bound left unresolved by the trip (`f64::INFINITY`
/// when the search space was exhausted anyway). No cut means the
/// answers are exact; with a cut, a `k`-th answer whose value is `<=`
/// every unresolved bound is still provably exact, otherwise the
/// completion carries the gap `kth − outstanding` (the true `k`-th
/// value lies within it; `f64::INFINITY` when fewer than `k` answers
/// were verified). A cut with nothing verified and work left
/// unresolved is a failure — there is no anytime answer to degrade to.
/// Absorbed refinement faults count as cuts alongside budget trips: the
/// faulted centers' lower bounds were folded into `outstanding`, so an
/// answer that beats every unresolved bound is still provably optimal,
/// and anything else degrades honestly.
fn completion_of(
    trip: Option<Trip>,
    counts: &QueryCounters,
    answers: &[GpSsnAnswer],
    k: usize,
    outstanding: f64,
) -> Completion {
    let kth = answers.get(k - 1).map_or(f64::INFINITY, |a| a.maxdist);
    let cut = trip.is_some() || counts[Counter::RefineFaults] > 0;
    if !cut || outstanding >= kth {
        Completion::Exact
    } else if answers.is_empty() {
        Completion::Failed(cut_error(trip, counts))
    } else {
        Completion::TruncatedWithGap((kth - outstanding).max(0.0))
    }
}

/// Resolves a requested thread count against the number of work items:
/// `0` means the machine's available parallelism, and counts beyond the
/// item count are clamped (one item still gets one thread). Every
/// multi-threaded entry point — the batch call, the serving layer, and
/// intra-query [`QueryOptions::refine_threads`] — resolves through this
/// one helper so `threads == 0` cannot drift between them.
pub(crate) fn resolve_threads(requested: usize, items: usize) -> usize {
    let t = match requested {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    };
    t.min(items.max(1))
}

/// Answers one query with the panic isolation the batch and serving
/// layers rely on: a panic anywhere inside the query is caught at this
/// boundary and surfaced as [`GpSsnError::Internal`] carrying the panic
/// message. Callers must hold a [`crate::panic_capture::capture_scope`]
/// guard so formatted panic messages survive the unwind.
pub(crate) fn run_isolated(
    engine: &GpSsnEngine<'_>,
    q: &GpSsnQuery,
    opts: &QueryOptions,
    budget: &QueryBudget,
) -> Result<QueryOutcome, GpSsnError> {
    crate::panic_capture::clear_last_message(); // drop stale captures
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.try_query(q, opts, budget)
    }))
    .unwrap_or_else(|payload| {
        Err(GpSsnError::Internal(crate::panic_capture::panic_message(
            &payload,
        )))
    })
}

/// A minimal binary min-heap keyed by `f64` (NaN-free by construction).
struct MinHeap<T> {
    data: Vec<(f64, T)>,
}

impl<T: Copy> MinHeap<T> {
    fn new() -> Self {
        MinHeap { data: Vec::new() }
    }

    fn push(&mut self, key: f64, value: T) {
        debug_assert!(!key.is_nan());
        self.data.push((key, value));
        let mut i = self.data.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if self.data[i].0 < self.data[p].0 {
                self.data.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<(f64, T)> {
        if self.data.is_empty() {
            return None;
        }
        let top = self.data.swap_remove(0);
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < self.data.len() && self.data[l].0 < self.data[min].0 {
                min = l;
            }
            if r < self.data.len() && self.data[r].0 < self.data[min].0 {
                min = r;
            }
            if min == i {
                break;
            }
            self.data.swap(i, min);
            i = min;
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_ssn::{synthetic, SyntheticConfig};

    fn small_engine(ssn: &SpatialSocialNetwork) -> GpSsnEngine<'_> {
        let cfg = EngineConfig {
            num_road_pivots: 3,
            num_social_pivots: 3,
            social_index: SocialIndexConfig {
                leaf_size: 16,
                fanout: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        GpSsnEngine::build(ssn, cfg)
    }

    fn run(engine: &GpSsnEngine<'_>, q: &GpSsnQuery, opts: &QueryOptions) -> QueryOutcome {
        engine
            .try_query(q, opts, &QueryBudget::unlimited())
            .expect("valid query")
    }

    #[test]
    fn answers_validate_against_definition5() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
        let engine = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 3.0,
        };
        let out = run(&engine, &q, &QueryOptions::default());
        if let Some(ans) = out.answer() {
            crate::query::check_answer(&ssn, &q, ans).expect("answer must satisfy Definition 5");
        }
        assert!(out.metrics.counters[Counter::IoPages] > 0);
    }

    #[test]
    fn infeasible_gamma_returns_none() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
        let engine = small_engine(&ssn);
        // gamma = 2.0 is unattainable for unit-norm vectors.
        let q = GpSsnQuery {
            user: 0,
            tau: 3,
            gamma: 2.0,
            theta: 0.1,
            radius: 3.0,
        };
        assert!(run(&engine, &q, &QueryOptions::default())
            .answers
            .is_empty());
    }

    #[test]
    fn stats_collection_populates_counters() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 13);
        let engine = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 1,
            tau: 3,
            gamma: 0.5,
            theta: 0.4,
            radius: 2.0,
        };
        let opts = QueryOptions {
            collect_stats: true,
            ..Default::default()
        };
        let out = run(&engine, &q, &opts);
        let s = &out.metrics.counters;
        assert_eq!(s[Counter::UsersTotal], ssn.social().num_users() as u64);
        assert_eq!(s[Counter::PoisTotal], ssn.pois().len() as u64);
        assert!(s.pairs_total_estimate(q.tau) > 0.0);
    }

    #[test]
    fn ablation_modes_produce_same_answer() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.012), 29);
        let engine = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 2,
            tau: 2,
            gamma: 0.4,
            theta: 0.3,
            radius: 2.5,
        };
        let full = run(&engine, &q, &QueryOptions::default());
        let no_prune = run(
            &engine,
            &q,
            &QueryOptions {
                use_interest_pruning: false,
                use_social_distance_pruning: false,
                use_matching_pruning: false,
                use_delta_pruning: false,
                collect_stats: false,
                use_tight_mbr_test: false,
                refine_threads: 1,
                distance_backend: DistanceBackend::Dijkstra,
                degradation: DegradationPolicy::FailFast,
                mode: QueryMode::Exact,
            },
        );
        match (full.answer(), no_prune.answer()) {
            (Some(a), Some(b)) => {
                assert!(
                    (a.maxdist - b.maxdist).abs() < 1e-6,
                    "{} vs {}",
                    a.maxdist,
                    b.maxdist
                )
            }
            (None, None) => {}
            other => panic!("pruned and unpruned disagree: {other:?}"),
        }
    }

    #[test]
    fn rejects_radius_outside_index_range() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
        let engine = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 100.0,
        };
        assert!(matches!(
            engine.try_query(&q, &QueryOptions::default(), &QueryBudget::unlimited()),
            Err(GpSsnError::RadiusOutOfIndexRange { .. })
        ));
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 41);
        let engine = small_engine(&ssn);
        let queries: Vec<GpSsnQuery> = (0..8u32)
            .map(|u| GpSsnQuery {
                user: u,
                tau: 2,
                gamma: 0.3,
                theta: 0.3,
                radius: 2.5,
            })
            .collect();
        let opts = QueryOptions::default();
        let budget = QueryBudget::unlimited();
        let parallel = engine.try_query_batch(&queries, 4, &opts, &budget);
        assert_eq!(queries.len(), parallel.len());
        for (q, p) in queries.iter().zip(parallel) {
            let (s, p) = (run(&engine, q, &opts), p.expect("valid query"));
            assert_eq!(s.answers, p.answers);
            assert_eq!(
                s.metrics.counters[Counter::IoPages],
                p.metrics.counters[Counter::IoPages]
            );
        }
    }

    #[test]
    fn min_heap_orders_by_key() {
        let mut h = MinHeap::new();
        h.push(3.0, 'a');
        h.push(1.0, 'b');
        h.push(2.0, 'c');
        assert_eq!(h.pop(), Some((1.0, 'b')));
        assert_eq!(h.pop(), Some((2.0, 'c')));
        assert_eq!(h.pop(), Some((3.0, 'a')));
        assert_eq!(h.pop(), None);
    }
}
