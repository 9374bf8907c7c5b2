//! The GP-SSN query answering engine (paper Section 5, Algorithm 2).
//!
//! Index construction contracts the road CH, selects pivots
//! (Algorithm 1), builds `I_R` and `I_S`, and the query path then runs:
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
//! 3. **Refinement** — one center loop verifies candidate centers in
//!    ascending key order with early termination (the key reaching the
//!    `k`-th best value; `k = 1` outside [`QueryMode::TopK`]). A
//!    center's key is its `lb` until its first pop computes `c(u_q)`,
//!    then `max(lb, c(u_q))`.
//!
//! Every [`QueryMode`] runs this one search and verifies each center the
//! same way ([`crate::refinement::verify_center`]); the modes differ
//! only in `k` and in how a center searches the users it reached
//! ([`CenterSearch`]: exact enumeration, or subset sampling for
//! [`QueryMode::Approximate`] and the ladder's rescue).
//!
//! **Exactness.** The paper's `δ` cut can, in corner cases, discard the
//! region holding the only (or a better) feasible answer, because the
//! Eq. 18 guard certifies matching for `u_q` but not group feasibility.
//! We therefore never *drop* `δ`-cut items: they move to a deferred list
//! (no I/O — the nodes are not read), and after refinement the same
//! center loop runs again over the deferred items whose `lb` still beats
//! the `k`-th best verified answer, expanding their nodes under that
//! bound. In the common case the deferred list is never touched and the
//! traversal I/O matches the paper's; in the corner case the engine
//! stays exact (the property tests against brute force check this).

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::{BallRow, DistanceCache, DistanceCacheConfig};
use crate::error::{BudgetState, Completion, GpSsnError, QueryBudget, Trip};
use crate::pruning::{
    corollary2_filter, lb_match_score_node, lb_maxdist_node, lb_maxdist_poi,
    prune_node_by_social_distance, prune_user_by_social_distance, ub_match_score_keywords,
    ub_match_score_signature, ub_maxdist_node, ub_maxdist_poi, PruningRegion,
};
use crate::query::{GpSsnAnswer, GpSsnQuery};
use crate::refinement::{
    center_key, probe_groups, verify_keyed, CenterSearch, ChBackend, Probe, VerifyContext,
};
use crate::serve::{ServeConfig, ServeObs, ServeObsConfig, ServeRequest, Submission};
use crate::stats::{Counter, QueryCounters, QueryMetrics, QueryOutcome};
use gpssn_graph::DijkstraWorkspace;
use gpssn_index::{
    select_road_pivots, select_social_pivots, BuildStages, PivotSelectConfig, RoadIndex,
    RoadIndexConfig, SocialIndex, SocialIndexConfig,
};
use gpssn_obs::{Obs, TailConfig};
use gpssn_road::{PoiId, RoadPivots};
use gpssn_social::{SocialPivots, UserId};
use gpssn_spatial::Entry;
use gpssn_ssn::SpatialSocialNetwork;
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
    /// Index-build worker count (`0`, the default, = all cores): CH
    /// contraction, pivot tables, `I_R` and `I_S` (pivot selection is
    /// one batch kernel call per network and runs on the calling
    /// thread). The built indexes are bit-identical for every thread
    /// count; only the build wall clock changes.
    pub build_threads: usize,
    /// Optional LRU buffer pool (in pages) in front of the simulated
    /// index file: I/O then counts misses only. `None` reproduces the
    /// paper's raw page-access metric.
    pub page_cache_capacity: Option<usize>,
    /// Cross-query ball cache shared by every query this engine serves.
    /// Cached balls are bit-identical to recomputation (see
    /// [`crate::cache`]), and computing a ball charges no budget, so
    /// answers are unchanged under any budget. `None` disables caching.
    pub distance_cache: Option<DistanceCacheConfig>,
    /// Telemetry sink shared by every query this engine serves: phase
    /// spans (text flamegraph / Chrome trace) plus per-query counters
    /// and phase-duration histograms (Prometheus / JSON). `None` — the
    /// default — costs each instrumentation site one `Option` check; an
    /// attached-but-disabled sink costs one relaxed atomic load (`report
    /// obs` in crate `gpssn-bench` measures this).
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
            build_threads: 0,
            page_cache_capacity: None,
            distance_cache: Some(DistanceCacheConfig::default()),
            obs: None,
        }
    }
}

impl EngineConfig {
    /// Sets [`EngineConfig::build_threads`] — the `gpq --build-threads`
    /// knob.
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads;
        self
    }
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
/// social and road pruning phases and its center loop; only `k` and
/// how one center is verified differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// The exact optimum (Algorithm 2). The default.
    #[default]
    Exact,
    /// The `k` best answers over *distinct candidate centers* (each
    /// center contributes its optimal feasible group), ascending by
    /// `maxdist`; `TopK(1)` coincides with [`QueryMode::Exact`]'s
    /// optimum. The δ cut stays sound: the deferred fallback re-examines
    /// every cut item below the `k`-th bound. `TopK(0)` is rejected as
    /// [`GpSsnError::InvalidQuery`]. Under truncation the answers are
    /// all verified and the completion carries the gap of the `k`-th
    /// slot (`f64::INFINITY` when fewer than `k` were verified).
    TopK(usize),
    /// The paper's §5 future-work *subset sampling*: each center draws
    /// `samples` random connected groups (seeded by `seed`) from the
    /// users its verification reached, instead of enumerating
    /// ([`CenterSearch::Sample`]); everything else — the centers, δ
    /// fallback included, the ball, the distance backend and caches — is
    /// Exact's. Any answer satisfies Definition 5 exactly but may be
    /// suboptimal or missed; each draw counts against
    /// `max_groups_enumerated`.
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
    /// Cross-query ball cache (when configured).
    distance_cache: Option<DistanceCache>,
    /// Circuit breaker guarding the CH oracle across every query this
    /// engine serves: repeated CH faults open it, redirecting distance
    /// batches to the bit-identical Dijkstra path until a half-open
    /// probe succeeds (see [`crate::breaker`]).
    ch_breaker: CircuitBreaker,
}

/// Work items of the center loop: an `I_R` node still to read, a
/// candidate center keyed by its pivot lower bound, or a center re-keyed
/// by `c(u_q)`, which carries the ball it computed. The order breaks
/// [`MinHeap`] key ties: nodes before centers, then by id (keyed or
/// not).
#[derive(Debug, Clone)]
enum Item {
    Node(u32),
    Center(PoiId),
    Keyed(PoiId, BallRow),
}

impl Item {
    fn rank(&self) -> (bool, u32) {
        match *self {
            Item::Node(n) => (false, n),
            Item::Center(c) | Item::Keyed(c, _) => (true, c),
        }
    }
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl Eq for Item {}

impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Item {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// One query's road-search state, shared by the traversal and the
/// center loop: the query, its candidate users as a per-user mask, the
/// `u_q` bounds Eqs. 16–17 read, `δ`, and how many more centers may be
/// verified.
struct RoadSearch<'s> {
    q: &'s GpSsnQuery,
    opts: &'s QueryOptions,
    is_candidate: Vec<bool>,
    uq_interest: &'s gpssn_social::InterestVector,
    uq_rn: &'s [f64],
    scand_ub: Vec<f64>,
    delta: f64,
    centers_left: usize,
}

impl<'a> GpSsnEngine<'a> {
    /// Builds the engine: the road graph's CH, pivot selection
    /// (Algorithm 1, pricing its road candidates with that CH), `I_R`,
    /// `I_S`. The CH is contracted once per build; `I_R` keeps it when
    /// `cfg.road_index.build_ch`.
    ///
    /// Every build stage runs on [`EngineConfig::build_threads`]
    /// workers; the built indexes are bit-identical for every thread
    /// count. With a metrics-enabled telemetry sink attached, each build
    /// stage's wall clock lands in the `gpssn_build_stage_ns{stage}`
    /// histogram and the CH contraction's witness-workspace reuse
    /// counters in `gpssn_build_witness_{resets,recycles}_total`.
    pub fn build(ssn: &'a SpatialSocialNetwork, cfg: EngineConfig) -> Self {
        let threads = cfg.build_threads;
        let mut stages = BuildStages::default();
        let ch = stages.contract_ch(ssn.road().graph(), threads);
        let mut ps_road = cfg.pivot_select.clone();
        ps_road.count = cfg.num_road_pivots;
        let road_pivots = stages.time("road_pivots", || {
            let ids = select_road_pivots(ssn.road(), &ch, &ps_road);
            RoadPivots::new_with_threads(ssn.road(), ids, threads)
        });
        let mut ps_soc = cfg.pivot_select.clone();
        ps_soc.count = cfg.num_social_pivots;
        let social_pivots = stages.time("social_pivots", || {
            let ids = select_social_pivots(ssn.social(), &ps_soc);
            SocialPivots::new_with_threads(ssn.social(), ids, threads)
        });

        let (road_index, road_stages) = RoadIndex::build_with_stages(
            ssn.road(),
            ssn.pois(),
            road_pivots,
            cfg.road_index.clone(),
            Some(ch),
            threads,
        );
        let (social_index, social_stages) = SocialIndex::build_with_stages(
            ssn,
            social_pivots,
            road_index.pivots(),
            &cfg.social_index,
            threads,
        );
        if let Some(o) = cfg.obs.as_deref().filter(|o| o.metrics_on()) {
            for (name, d) in stages
                .stages
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
            if let Some(ch) = stages.ch {
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
        let distance_cache = cfg.distance_cache.as_ref().map(DistanceCache::new);
        GpSsnEngine {
            ssn,
            road_index,
            social_index,
            cfg,
            page_cache,
            distance_cache,
            ch_breaker: CircuitBreaker::new(BreakerConfig::default()),
        }
    }

    /// The circuit breaker guarding the CH distance backend.
    pub fn ch_breaker(&self) -> &CircuitBreaker {
        &self.ch_breaker
    }

    /// The engine's cross-query ball cache, if configured.
    pub fn distance_cache(&self) -> Option<&DistanceCache> {
        self.distance_cache.as_ref()
    }

    /// Publishes the ball cache's lifetime counters and per-shard
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
        let kind = [("kind", "ball")];
        reg.set_counter("gpssn_cache_lifetime_hits_total", &kind, life.ball_hits);
        reg.set_counter("gpssn_cache_lifetime_misses_total", &kind, life.ball_misses);
        reg.set_counter("gpssn_cache_evictions_total", &kind, life.ball_evictions);
        reg.set_gauge("gpssn_cache_hit_rate", &[], life.hit_rate());
        for (i, s) in cache.ball_shard_occupancy().iter().enumerate() {
            let labels = [("kind", "ball"), ("shard", &i.to_string())];
            reg.set_gauge("gpssn_cache_shard_entries", &labels, s.entries as f64);
            reg.set_gauge("gpssn_cache_shard_capacity", &labels, s.capacity as f64);
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
        let k = match opts.mode {
            QueryMode::TopK(k) => k,
            _ => 1,
        };
        let search = match opts.mode {
            QueryMode::Approximate { samples, seed } => CenterSearch::sample(samples, seed),
            _ => CenterSearch::Prefix,
        };
        let (mut answers, delta, outstanding) = self.road_search(
            q,
            k,
            opts,
            &candidates,
            &mut counts,
            &meter,
            obs,
            search,
            usize::MAX,
        );
        counts += &meter.snapshot();
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
            let rescued = gpssn_obs::phase(obs, "degrade_sampling", || {
                self.sampling_rescue(q, opts, &candidates, &mut counts)
            });
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
            threads: gpssn_graph::workers(threads).min(queries.len().max(1)),
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

    /// The ladder's sampling rung: re-runs the road search under a small
    /// *fresh* work budget (the original meter is spent or faulted),
    /// verifying centers by drawing random connected groups — the
    /// paper's §5 future-work subset sampler. Any answer returned
    /// satisfies Definition 5 exactly; only its optimality is unknown.
    /// Deterministic: the RNG is seeded from the query user, the budget
    /// is counted in work units, not wall-clock time, and only the
    /// first `RESCUE_CENTERS` centers the loop reaches are verified (the
    /// rest are skipped unverified). Verification runs as in every mode,
    /// CH oracle and breaker included: a CH fault is re-served from
    /// Dijkstra, and a fault inside a center's verification is absorbed
    /// per center. So the rung rescues budget trips and CH faults, but
    /// not a defect that fires at every center: the rescue shares the
    /// one center loop, its centers fault too, and the query ends
    /// `Failed`. The rescue's own work (pages, pops, groups, settles,
    /// faults) is added to `counts`, and its traversal's center count
    /// replaces [`Counter::CandidatePois`].
    fn sampling_rescue(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        candidates: &[UserId],
        counts: &mut QueryCounters,
    ) -> Option<GpSsnAnswer> {
        const RESCUE_SAMPLES: usize = 32;
        const RESCUE_CENTERS: usize = 64;
        let budget = QueryBudget {
            max_heap_pops: Some(100_000),
            max_groups_enumerated: Some(20_000),
            max_dijkstra_settles: Some(2_000_000),
            deadline: None,
        };
        let meter = BudgetState::new(&budget);
        let search = CenterSearch::sample(RESCUE_SAMPLES, 0x5EED_0000 ^ u64::from(q.user));
        let (answers, _, _) = self.road_search(
            q,
            1,
            opts,
            candidates,
            counts,
            &meter,
            None,
            search,
            RESCUE_CENTERS,
        );
        *counts += &meter.snapshot();
        answers.into_iter().next()
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
                    && prune_user_by_social_distance(uq_sn, idx.user_sn_dists(u), q.tau);
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

    /// Algorithm 2's road search, run by every query mode: under the
    /// `prune_road` phase, the candidate mask, the group-existence
    /// pre-check, Eq. 16's companion bound and one best-first traversal
    /// of `I_R` under the `δ` cut; then the center
    /// loop ([`GpSsnEngine::center_loop`]) twice — under the `refine`
    /// phase over the traversal's centers, and under `refine_fallback`
    /// over the deferred `δ`-cut items, keeping the answers found so
    /// far (see the module docs). Every center is keyed by
    /// [`center_key`] and verified by [`verify_keyed`] under `search`, on
    /// one [`VerifyContext`] (the CH oracle when the road index has one,
    /// the breaker, the distance cache, `meter`); at most `max_centers`
    /// centers are verified, and later ones are skipped unverified.
    /// `obs` times the phases.
    /// Returns the `k` best answers (ascending `maxdist`), the final `δ`,
    /// and the smallest lower bound left unresolved by a budget trip or
    /// an absorbed fault (`f64::INFINITY` when none).
    #[allow(clippy::too_many_arguments)]
    fn road_search(
        &self,
        q: &GpSsnQuery,
        k: usize,
        opts: &QueryOptions,
        candidates: &[UserId],
        counts: &mut QueryCounters,
        meter: &BudgetState,
        obs: Option<&Obs>,
        search: CenterSearch,
        max_centers: usize,
    ) -> (Vec<GpSsnAnswer>, f64, f64) {
        let idx = &self.road_index;
        let uq_rn = self.social_index.user_rn_dists(q.user);
        let mut heap = MinHeap::new();
        let mut centers = MinHeap::new();
        let mut deferred = MinHeap::new();
        // Smallest lower bound left unresolved when the budget trips:
        // heap pops come out in ascending `lb`, so the lb in hand at the
        // trip bounds everything still queued; centers and deferred
        // items are folded in by the center loop, which stops at its
        // first item on a tripped meter.
        let mut outstanding = f64::INFINITY;
        let search_state = gpssn_obs::phase(obs, "prune_road", || {
            // If no feasible user group exists at all (independent of R),
            // every center is infeasible: answer None without touching
            // I_R. A cut check proves nothing — proceed; the traversal
            // below trips on its first pop and degrades cleanly.
            if candidates.len() < q.tau {
                return None;
            }
            // One candidate mask per query: the pre-check and every center
            // read it.
            let mut is_candidate = vec![false; self.ssn.social().num_users()];
            for &u in candidates {
                is_candidate[u as usize] = true;
            }
            let candidate = |u: UserId| is_candidate[u as usize];
            match probe_groups(self.ssn.social(), q, candidate, meter, |_| true) {
                Probe::Infeasible => return None,
                Probe::Found(_) => meter.add(Counter::PairsRefined, 1),
                Probe::Cut => {}
            }
            let mut s = RoadSearch {
                q,
                opts,
                is_candidate,
                uq_interest: self.ssn.social().interest(q.user),
                uq_rn,
                scand_ub: self.companion_bound(q, candidates, uq_rn),
                delta: f64::INFINITY,
                centers_left: max_centers,
            };
            heap.push(0.0, idx.tree().root());
            while let Some((lb, n)) = heap.pop() {
                meter.note_pop();
                if meter.is_tripped() {
                    outstanding = lb;
                    break;
                }
                if opts.use_delta_pruning && lb > s.delta {
                    // Paper line 14: everything remaining is δ-cut. Keep
                    // for the exactness fallback; no I/O is spent on
                    // them now.
                    counts[Counter::PoisPrunedIndex] += idx.node(n).poi_count as u64;
                    deferred.push(lb, Item::Node(n));
                    continue;
                }
                self.touch(counts, gpssn_index::io::page_ids::road(n));
                self.expand_node(&mut s, n, counts, true, &mut |lb, item| match item {
                    Item::Node(child) => heap.push(lb, child),
                    _ => centers.push(lb, item),
                });
            }
            Some(s)
        });
        let Some(mut s) = search_state else {
            return (Vec::new(), f64::INFINITY, f64::INFINITY);
        };
        counts[Counter::CandidatePois] = centers.data.len() as u64;

        let mut ws = DijkstraWorkspace::new();
        let mut chws = gpssn_graph::ChSearch::new();
        let mut ctx = VerifyContext {
            ws: &mut ws,
            ch: self.road_index.ch().map(|oracle| ChBackend {
                oracle,
                search: &mut chws,
            }),
            cache: self.distance_cache.as_ref(),
            breaker: Some(&self.ch_breaker),
            budget: meter,
            obs: self.obs(),
            marks: Default::default(),
            uq_row: Default::default(),
            search,
        };
        let mut answers = Vec::new();
        for (phase, items) in [("refine", centers), ("refine_fallback", deferred)] {
            let unresolved = gpssn_obs::phase(obs, phase, || {
                self.center_loop(&mut s, k, items, &mut answers, counts, &mut ctx)
            });
            outstanding = outstanding.min(unresolved);
        }
        drop(ctx);
        note_workspaces(meter, &ws, &chws);
        (answers, s.delta, outstanding)
    }

    /// Eq. 16's `max_{u_j ∈ S}` term. The loosest sound choice is the
    /// elementwise max over all candidates; we use a much tighter form:
    /// per pivot, the `(τ-1)`-th smallest companion distance (the
    /// best-case group of u_q plus its τ-1 pivot-closest candidates).
    /// This upper-bounds the objective of *some* τ-group — not
    /// necessarily a feasible one, which is exactly why δ-cut items go
    /// to the deferred list instead of being dropped (see module docs).
    fn companion_bound(&self, q: &GpSsnQuery, candidates: &[UserId], uq_rn: &[f64]) -> Vec<f64> {
        let need = q.tau.saturating_sub(1);
        (0..self.road_index.pivots().len())
            .map(|k| {
                let mut companions: Vec<f64> = candidates
                    .iter()
                    .filter(|&&u| u != q.user)
                    .map(|&u| self.social_index.user_rn_dists(u)[k])
                    .collect();
                companions.sort_by(|a, b| a.total_cmp(b));
                let kth = if need == 0 {
                    0.0
                } else if companions.len() < need {
                    f64::INFINITY
                } else {
                    companions[need - 1]
                };
                uq_rn[k].max(kth)
            })
            .collect()
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

    /// Algorithm 2's center loop, shared by every mode and by both
    /// rounds of [`GpSsnEngine::road_search`]: pops `heap` in ascending
    /// `(key, item)` order, keeps the `k` best distinct answers in
    /// `answers`, and stops once the key reaches the `k`-th best value
    /// (`∞` while fewer than `k` are held). A node (a deferred `δ`-cut
    /// subtree) is read and expanded, its children and centers pushed
    /// back; only an expanded node is charged a heap pop.
    ///
    /// **Lazy re-keying.** A center is pushed at its pivot lower bound
    /// `lb`. On its first pop it computes its ball and `c(u_q)`
    /// ([`center_key`]); every group contains `u_q`, so `max(lb, c(u_q))`
    /// is a lower bound too. If `c(u_q)` is above the popped key, the
    /// center goes back at key `c(u_q)` as an [`Item::Keyed`], holding its
    /// ball ([`Counter::CentersRekeyed`]); otherwise, and when a keyed
    /// center pops, it is verified ([`verify_keyed`]) against the `k`-th
    /// best value, with a `may_join` test that admits a query candidate
    /// unless its pivot lower bound to the center reaches that value
    /// (skipped while it is infinite): such a user's exact cost is at
    /// least as large, so verification would drop the user anyway. At
    /// most `centers_left` centers are verified; later ones are skipped.
    ///
    /// **Ties.** At equal key, nodes pop before centers, then centers by
    /// POI id, keyed or not. Only a strictly better group replaces a held
    /// one, so among answers with the same maxdist bits the first group
    /// found wins.
    ///
    /// Returns the smallest key left unresolved by a budget trip or an
    /// absorbed fault, during keying or verification (`f64::INFINITY`
    /// when none).
    fn center_loop(
        &self,
        s: &mut RoadSearch<'_>,
        k: usize,
        mut heap: MinHeap<Item>,
        answers: &mut Vec<GpSsnAnswer>,
        counts: &mut QueryCounters,
        ctx: &mut VerifyContext<'_>,
    ) -> f64 {
        let meter = ctx.budget;
        let policy = s.opts.degradation;
        let mut unresolved = f64::INFINITY;
        while let Some((key, item)) = heap.pop() {
            let bound = answers.get(k - 1).map_or(f64::INFINITY, |a| a.maxdist);
            if key >= bound {
                break;
            }
            if let Item::Node(_) = item {
                meter.note_pop();
            }
            if meter.is_tripped() {
                unresolved = unresolved.min(key);
                break;
            }
            let (center, ball, cq) = match item {
                Item::Node(n) => {
                    self.touch(counts, gpssn_index::io::page_ids::road(n));
                    self.expand_node(s, n, counts, false, &mut |lb, item| heap.push(lb, item));
                    continue;
                }
                _ if s.centers_left == 0 => continue,
                Item::Keyed(c, ball) => (c, ball, key),
                Item::Center(c) => {
                    let keyed = guarded(ctx, policy, key, &mut unresolved, |ctx| {
                        center_key(self.ssn, s.q, c, ctx)
                    });
                    let Some((ball, cq)) = keyed.flatten() else {
                        if meter.is_tripped() {
                            unresolved = unresolved.min(key);
                            break;
                        }
                        continue; // a fault, already folded in
                    };
                    if cq > key {
                        meter.add(Counter::CentersRekeyed, 1);
                        heap.push(cq, Item::Keyed(c, ball));
                        continue;
                    }
                    (c, ball, cq)
                }
            };
            s.centers_left -= 1;
            let center_rn = &self.road_index.poi(center).pivot_dists;
            let may_join = |u: UserId| {
                s.is_candidate[u as usize]
                    && (!bound.is_finite()
                        || lb_maxdist_poi(self.social_index.user_rn_dists(u), center_rn) < bound)
            };
            let verified = guarded(ctx, policy, key, &mut unresolved, |ctx| {
                verify_keyed(self.ssn, s.q, &ball, cq, bound, may_join, ctx)
            });
            if let Some(v) = &verified {
                meter.add(Counter::PairsRefined, v.subsets_examined);
            }
            if let Some(ans) = verified.and_then(|v| v.answer) {
                // Centers with the same ball can verify the same (S, R)
                // pair: hold it once, at the smaller value (for `k = 1`
                // this is plain replace-on-improvement).
                let held = answers
                    .iter()
                    .position(|a| a.users == ans.users && a.pois == ans.pois);
                if held.is_none_or(|i| ans.maxdist < answers[i].maxdist) {
                    if let Some(i) = held {
                        answers.remove(i);
                    }
                    let at = answers.partition_point(|a| a.maxdist <= ans.maxdist);
                    answers.insert(at, ans);
                    answers.truncate(k);
                }
            }
            if meter.is_tripped() {
                // This center's verification was itself cut short, so it
                // remains unresolved (items pop in ascending key, so the
                // key also bounds every item left in the heap).
                unresolved = unresolved.min(key);
                break;
            }
        }
        unresolved
    }

    /// Expands one `I_R` node: applies Lemma 6 / Lemma 1 matching pruning
    /// and hands surviving children (or candidate centers) to `push` with
    /// their Eq. 17 lower bounds; updates `δ` with guarded Eq. 16/5 upper
    /// bounds.
    fn expand_node(
        &self,
        s: &mut RoadSearch<'_>,
        node: u32,
        counts: &mut QueryCounters,
        count_stats: bool,
        push: &mut impl FnMut(f64, Item),
    ) {
        let (q, idx) = (s.q, &self.road_index);
        for e in &idx.tree().node(node).entries {
            match *e {
                Entry::Item { item: poi, .. } => {
                    let aug = idx.poi(poi);
                    // Lemma 1 via the sup_K superset (Lemma 2).
                    if s.opts.use_matching_pruning
                        && ub_match_score_keywords(s.uq_interest, &aug.sup_keywords) < q.theta
                    {
                        if count_stats {
                            counts[Counter::PoisPrunedObject] += 1;
                        }
                        continue;
                    }
                    let lb = lb_maxdist_poi(s.uq_rn, &aug.pivot_dists);
                    // Eq. 18 guard at object granularity: sub_K certifies
                    // a θ-matching ball for u_q.
                    if gpssn_ssn::match_score_keywords(s.uq_interest, &aug.sub_keywords) >= q.theta
                    {
                        s.delta =
                            s.delta
                                .min(ub_maxdist_poi(&s.scand_ub, &aug.pivot_dists, q.radius));
                    }
                    push(lb, Item::Center(poi));
                }
                Entry::Child { node: child, .. } => {
                    let aug = idx.node(child);
                    // Lemma 6 via the node signature (Eq. 15).
                    if s.opts.use_matching_pruning
                        && ub_match_score_signature(s.uq_interest, &aug.sup_sig) < q.theta
                    {
                        if count_stats {
                            counts[Counter::PoisPrunedIndex] += aug.poi_count as u64;
                        }
                        continue;
                    }
                    let lb = lb_maxdist_node(s.uq_rn, &aug.lb_pivot, &aug.ub_pivot);
                    // Lemma 7 guard: Eq. 18 over the node samples
                    // certifies a candidate set inside, enabling the
                    // Eq. 16 δ update.
                    if lb_match_score_node(idx, aug, &[s.uq_interest]) >= q.theta {
                        s.delta =
                            s.delta
                                .min(ub_maxdist_node(&s.scand_ub, &aug.ub_pivot, q.radius));
                    }
                    push(lb, Item::Node(child));
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
/// runs prepared and runs that reused already-sized storage. Called
/// once per scope, not per run.
fn note_workspaces(meter: &BudgetState, ws: &DijkstraWorkspace, chws: &gpssn_graph::ChSearch) {
    meter.add(Counter::WsResets, ws.resets() + chws.resets());
    meter.add(Counter::HeapRecycles, ws.recycles() + chws.recycles());
}

/// Runs one step of a center's refinement, `step` (its keying or its
/// verification), under the query's fault policy. Under
/// [`DegradationPolicy::Ladder`] a *panic* inside the step is caught
/// per-center and absorbed as a query fault, while `FailFast` lets it
/// propagate to the batch isolation layer (the legacy behavior). A
/// faulted step (`None`) leaves the center unresolved: its key is folded
/// into `unresolved`, and the nonzero [`Counter::RefineFaults`] keeps the
/// completion from claiming `Exact`.
fn guarded<R>(
    ctx: &mut VerifyContext<'_>,
    policy: DegradationPolicy,
    key: f64,
    unresolved: &mut f64,
    step: impl FnOnce(&mut VerifyContext<'_>) -> R,
) -> Option<R> {
    if policy != DegradationPolicy::Ladder {
        return Some(step(ctx));
    }
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| step(ctx)));
    if attempt.is_err() {
        // The unwound step may have left this worker's CH workspace
        // mid-sweep; wipe it so later batches stay bit-identical.
        if let Some(chb) = ctx.ch.as_mut() {
            chb.search.hard_reset();
        }
        ctx.budget.add(Counter::RefineFaults, 1);
        *unresolved = unresolved.min(key);
    }
    attempt.ok()
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
/// Absorbed refinement faults count as cuts alongside budget trips:
/// those centers' lower bounds were folded into `outstanding`, so an
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
/// Equal keys pop in ascending value order, so the pop sequence does not
/// depend on the push order.
struct MinHeap<T> {
    data: Vec<(f64, T)>,
}

impl<T: Ord> MinHeap<T> {
    fn new() -> Self {
        MinHeap { data: Vec::new() }
    }

    fn less(&self, i: usize, j: usize) -> bool {
        let (a, b) = (&self.data[i], &self.data[j]);
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
    }

    fn push(&mut self, key: f64, value: T) {
        debug_assert!(!key.is_nan());
        self.data.push((key, value));
        let mut i = self.data.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if self.less(i, p) {
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
            if l < self.data.len() && self.less(l, min) {
                min = l;
            }
            if r < self.data.len() && self.less(r, min) {
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

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            num_road_pivots: 3,
            num_social_pivots: 3,
            social_index: SocialIndexConfig {
                leaf_size: 16,
                fanout: 4,
            },
            ..Default::default()
        }
    }

    fn small_engine(ssn: &SpatialSocialNetwork) -> GpSsnEngine<'_> {
        GpSsnEngine::build(ssn, small_cfg())
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
    fn min_heap_orders_by_key() {
        let mut h = MinHeap::new();
        h.push(3.0, 'a');
        h.push(1.0, 'b');
        h.push(2.0, 'c');
        assert_eq!(h.pop(), Some((1.0, 'b')));
        assert_eq!(h.pop(), Some((2.0, 'c')));
        assert_eq!(h.pop(), Some((3.0, 'a')));
        assert_eq!(h.pop(), None);

        // Equal keys pop in `Item` order (nodes first, then centers by
        // id, re-keyed or not), so the loop verifies centers in ascending
        // `(key, id)` order whatever order they were pushed in.
        let ball = BallRow::default();
        let mut h = MinHeap::new();
        for (key, item) in [
            (2.0, Item::Center(9)),
            (1.0, Item::Center(7)),
            (2.0, Item::Keyed(6, ball.clone())),
            (2.0, Item::Center(3)),
            (2.0, Item::Node(5)),
            (1.0, Item::Keyed(8, ball.clone())),
            (1.0, Item::Center(2)),
            (2.0, Item::Center(4)),
        ] {
            h.push(key, item);
        }
        let order: Vec<(f64, String)> = std::iter::from_fn(|| h.pop())
            .map(|(key, item)| {
                let label = match item {
                    Item::Node(n) => format!("node {n}"),
                    Item::Center(c) => format!("center {c}"),
                    Item::Keyed(c, _) => format!("keyed {c}"),
                };
                (key, label)
            })
            .collect();
        let want = [
            (1.0, "center 2"),
            (1.0, "center 7"),
            (1.0, "keyed 8"),
            (2.0, "node 5"),
            (2.0, "center 3"),
            (2.0, "center 4"),
            (2.0, "keyed 6"),
            (2.0, "center 9"),
        ];
        assert_eq!(order, want.map(|(k, l)| (k, l.to_string())));
    }
}
