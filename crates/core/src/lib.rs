//! # gpssn-core — GP-SSN query processing (the paper's contribution)
//!
//! Everything above the substrates: the query definition, the pruning
//! strategies of Section 3, the index-level pruning of Section 4.2, the
//! query answering algorithm of Section 5 (Algorithm 2), and the Baseline
//! competitor of Section 6.
//!
//! * [`query`] — [`GpSsnQuery`] parameters, [`GpSsnAnswer`], and exact
//!   predicate validation (Definition 5).
//! * [`pruning`] — all pruning rules:
//!   [`pruning::matching`] (Lemmas 1–2, 6; Eqs. 15, 18),
//!   [`pruning::user`] (Lemma 3, Corollaries 1–2, Lemma 8),
//!   [`pruning::social_distance`] (Lemmas 4, 9; Eq. 19),
//!   [`pruning::road_distance`] (Lemmas 5, 7; Eqs. 5–6, 16–17).
//! * [`algorithm`] — [`GpSsnEngine`]: index construction plus the
//!   synchronized dual-index traversal of Algorithm 2 with the min-heap on
//!   `lb_maxdist` and the pruning threshold `δ`. One query entry point,
//!   [`GpSsnEngine::try_query`], whose [`QueryMode`] picks exact, top-`k`,
//!   or subset-sampling refinement; [`GpSsnEngine::try_query_batch`] runs
//!   a batch on the [`serve()`] worker pool.
//! * [`refinement`] — candidate enumeration and exact verification.
//! * [`baseline`] — the exact brute-force Baseline (small inputs) and the
//!   paper's 100-sample extrapolated cost estimate (large inputs).
//! * [`stats`] — pruning-power counters and query metrics feeding the
//!   experiment harness (Figures 7–11).
//! * [`error`] — the typed error hierarchy ([`GpSsnError`]), resource
//!   budgets with deadlines ([`QueryBudget`]), and the anytime-completion
//!   taxonomy ([`Completion`]) behind the engine's serving API.
//! * [`mod@serve`] — the work-pulling worker pool, admission control, and
//!   JSONL front-end every batch and service call runs on.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod algorithm;
pub mod baseline;
pub mod breaker;
pub mod cache;
pub mod error;
#[doc(hidden)]
pub mod panic_capture;
pub mod pruning;
pub mod query;
pub mod refinement;
pub mod sampling;
pub mod serve;
pub mod stats;
pub mod telemetry;
pub mod tuning;

pub use algorithm::{
    DegradationPolicy, DistanceBackend, EngineConfig, GpSsnEngine, QueryMode, QueryOptions,
};
pub use baseline::{
    estimate_baseline_cost, exact_baseline, exact_baseline_top_k, try_exact_baseline,
    try_exact_baseline_with_obs, BaselineEstimate,
};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::{CacheLifetimeStats, DistDir, DistanceCache, DistanceCacheConfig, ShardOccupancy};
pub use error::{BudgetState, Completion, GpSsnError, QueryBudget, Trip};
pub use query::{GpSsnAnswer, GpSsnQuery};
pub use refinement::{verify_center, CenterVerification, ChBackend, VerifyContext};
pub use sampling::{sample_connected_group, verify_center_sampled};
pub use serve::{
    serve, serve_jsonl, OverloadPolicy, ServeConfig, ServeObs, ServeObsConfig, ServeRequest,
    ServeResponse, ServeStats, Submission,
};
pub use stats::{Counter, QueryCounters, QueryMetrics, QueryOutcome};
pub use tuning::{suggest_parameters, TunedParameters};
