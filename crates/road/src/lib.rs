//! # gpssn-road — the spatial road network substrate `G_r`
//!
//! Implements Definitions 1–2 of the paper: a road network is a planar
//! weighted graph whose vertices are road intersections with 2-D
//! coordinates and whose edges are road segments; POIs are facilities
//! located *on edges* with a keyword set each.
//!
//! * [`network`] — [`RoadNetwork`]: CSR graph + vertex coordinates.
//! * [`poi`] — [`NetworkPoint`] (a position on an edge), [`Poi`], and
//!   [`PoiSet`] (POI collection with an R\*-tree Euclidean prefilter and
//!   exact road-network ball queries `⊙(o_i, r)`).
//! * [`distance`] — exact `dist_RN` between arbitrary on-edge points via
//!   seeded Dijkstra, plus batched variants.
//! * [`pivots`] — road-network pivots `rp_1..rp_h` with precomputed
//!   distance tables and the triangle-inequality lower/upper bounds used
//!   by every road-distance pruning rule (Eqs. 16–17 of the paper).
//! * [`generator`] — synthetic planar-ish road network and POI generators
//!   (Section 6.1's synthetic data pipeline).

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod distance;
pub mod generator;
pub mod network;
pub mod pivots;
pub mod poi;

pub use distance::{
    dist_rn, dist_rn_many, dist_rn_many_counted, dist_rn_many_counted_with, dist_rn_matrix_ch,
    dist_rn_pinned_ch, point_dist_from_map,
};
pub use generator::{generate_pois, generate_road_network, PoiGenConfig, RoadGenConfig};
pub use network::RoadNetwork;
pub use pivots::{lb_dist_via_pivots, ub_dist_via_pivots, RoadPivots};
pub use poi::{NetworkPoint, Poi, PoiId, PoiSet};
