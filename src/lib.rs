//! # gpssn — Group Planning Queries over Spatial-Social Networks
//!
//! Facade crate re-exporting the full GP-SSN stack:
//!
//! * [`graph`] — graph substrate (CSR graphs, Dijkstra, BFS, partitioning).
//! * [`spatial`] — geometry and the STR-packed R-tree.
//! * [`road`] — spatial road networks `G_r` with POIs.
//! * [`social`] — social networks `G_s` with interest vectors.
//! * [`ssn`] — integrated spatial-social networks `G_rs` and datasets.
//! * [`index`] — the `I_R` / `I_S` indexes and pivot selection.
//! * [`core`] — pruning strategies, the GP-SSN query answering algorithm,
//!   and the baseline competitor.
//!
//! See `examples/quickstart.rs` for a three-minute tour.
//!
//! ```no_run
//! use gpssn::core::{EngineConfig, GpSsnEngine, GpSsnQuery, QueryBudget, QueryOptions};
//! use gpssn::ssn::{synthetic, SyntheticConfig};
//!
//! let ssn = synthetic(&SyntheticConfig::uni().scaled(0.02), 42);
//! let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
//! let q = GpSsnQuery::with_defaults(11);
//! match engine.try_query(&q, &QueryOptions::default(), &QueryBudget::unlimited()) {
//!     Ok(outcome) => match outcome.answer() {
//!         Some(a) => println!("group {:?} visits {:?} ({:.2})", a.users, a.pois, a.maxdist),
//!         None => println!("no feasible group"),
//!     },
//!     Err(e) => eprintln!("query rejected: {e}"),
//! }
//! ```

pub use gpssn_core as core;
pub use gpssn_failpoint as failpoint;
pub use gpssn_graph as graph;
pub use gpssn_index as index;
pub use gpssn_obs as obs;
pub use gpssn_road as road;
pub use gpssn_social as social;
pub use gpssn_spatial as spatial;
pub use gpssn_ssn as ssn;

pub use gpssn_core::{GpSsnAnswer, GpSsnEngine, GpSsnQuery};
pub use gpssn_ssn::SpatialSocialNetwork;
