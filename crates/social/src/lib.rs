//! # gpssn-social — the social network substrate `G_s`
//!
//! Implements Definition 3 of the paper: users with `d`-dimensional
//! interest (topic) vectors, connected by friendship edges.
//!
//! * [`interest`] — [`InterestVector`] and the common-interest score
//!   `Interest_Score(u_j, u_k) = Σ_f w_f^{(j)}·w_f^{(k)}` (Eq. 1), plus
//!   normalization helpers.
//! * [`network`] — [`SocialNetwork`]: CSR friendship graph + per-user
//!   interest vectors.
//! * [`hops`] — social-network distance `dist_SN` (hop counts) used by
//!   Lemma 4's distance pruning.
//! * [`pivots`] — social pivots `sp_1..sp_l` with hop-distance tables and
//!   the triangle-inequality lower bound of Eq. (19).
//! * [`generator`] — synthetic social networks (Uniform/Zipf degrees,
//!   Section 6.1) and heavy-tailed "Brightkite/Gowalla-like" graphs for
//!   the surrogate real datasets.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod generator;
pub mod hops;
pub mod interest;
pub mod network;
pub mod pivots;

pub use generator::{
    generate_power_law_network, generate_social_network, InterestNormalization, SocialGenConfig,
};
pub use hops::UNREACHABLE_HOPS;
pub use interest::{interest_score, InterestVector};
pub use network::{SocialNetwork, UserId};
pub use pivots::SocialPivots;
