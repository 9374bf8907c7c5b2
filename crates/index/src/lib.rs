//! # gpssn-index — indexing mechanisms for GP-SSN (paper Section 4)
//!
//! Two indexes are built over a spatial-social network and traversed
//! simultaneously by the query algorithm:
//!
//! * [`road_index`] — `I_R`: an R\*-tree over POI locations whose leaves
//!   carry precomputed `sup_K` / `sub_K` keyword sets (unions over the
//!   road-network balls `⊙(o_i, 2·r_max)` and `⊙(o_i, r_min)`), hashed
//!   signatures, and pivot distances; non-leaf entries carry bit-OR'd
//!   signatures, sample POIs, and lower/upper pivot-distance bounds
//!   (Eqs. 7–8).
//! * [`social_index`] — `I_S`: a hierarchy over a balanced partitioning of
//!   the social graph whose nodes carry interest-vector MBRs (Eqs. 9–10)
//!   and lower/upper distance bounds to social and road pivots
//!   (Eqs. 11–14).
//! * [`pivot_select`] — the paper's Algorithm 1: random-restart local
//!   search maximizing a bound-tightness cost model (Appendices L/M are
//!   re-derived; see DESIGN.md).
//! * [`build`] — per-stage wall-clock accounting ([`BuildStages`]) and
//!   the work grain of the deterministic parallel builders of both
//!   indexes (every fan-out runs through [`gpssn_graph::par_map`]).
//! * [`io`] — page-access accounting, reproducing the paper's I/O-cost
//!   metric over a simulated paged index file (one node = one page), plus
//!   the checksummed persistence format with per-section corruption
//!   detection and self-healing loads.
//! * [`crc32`] — the hand-rolled CRC-32 behind those section checksums.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod build;
pub mod crc32;
pub mod io;
pub mod pivot_select;
pub mod road_index;
pub mod social_index;

pub use build::BuildStages;
pub use io::{
    corrupt_section, load_road_index, load_road_index_healing, read_road_index,
    read_road_index_healing, save_road_index, unsupported_version, write_road_index,
    CorruptSection, HealedLoad, UnsupportedIndexVersion,
};
pub use pivot_select::{select_road_pivots, select_social_pivots, PivotSelectConfig};
pub use road_index::{PoiAugment, RoadIndex, RoadIndexConfig, RoadNodeAugment};
pub use social_index::{SocialIndex, SocialIndexConfig, SocialNode};
