//! # gpssn-graph — graph substrate for GP-SSN
//!
//! General-purpose graph data structures and algorithms that both the road
//! network (`gpssn-road`) and the social network (`gpssn-social`) layers are
//! built on:
//!
//! * [`CsrGraph`] — a compact, cache-friendly CSR (compressed sparse row)
//!   representation of an undirected weighted graph.
//! * [`dijkstra`] — exact shortest-path distances (full, radius-bounded, and
//!   early-terminating multi-target variants) built on an indexed binary
//!   heap with decrease-key.
//! * [`bfs`] — unweighted hop distances (used for social-network distance,
//!   `dist_SN`).
//! * [`components`] — connected components and connectivity checks over
//!   vertex subsets (GP-SSN requires the user group `S` to be connected).
//! * [`partition`] — a balanced, connectivity-aware graph partitioner used
//!   to form the leaf nodes of the social-network index `I_S` (stand-in for
//!   METIS, reference \[28\] of the paper).
//! * [`par`] — the deterministic parallel map ([`par_map`]) every
//!   index-build fan-out runs through, and the one `0 = all cores` rule
//!   ([`workers`]).
//! * [`subgraph`] — enumeration of connected vertex subsets of a fixed size
//!   containing a given root, used by the refinement step of GP-SSN query
//!   answering.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bfs;
pub mod ch;
pub mod components;
pub mod csr;
pub mod dijkstra;
pub mod heap;
pub mod par;
pub mod partition;
pub mod sampling;
pub mod subgraph;
pub mod workspace;

pub use bfs::{bounded_hops, hop_distances};
pub use ch::{ChBuildStats, ChOracle, ChSearch};
pub use components::{connected_components, is_connected_subset};
pub use csr::{grid_nearest, grid_up, CsrGraph, EdgeId, NodeId, GRID_HEADROOM};
pub use dijkstra::{dijkstra_all, dijkstra_bounded, dijkstra_targets, DistanceMap, INFINITY};
pub use heap::IndexedMinHeap;
pub use par::{par_map, workers};
pub use partition::{partition_graph, Partitioning};
pub use sampling::{IndexSampler, ValueDistribution};
pub use subgraph::enumerate_connected_subsets;
pub use workspace::DijkstraWorkspace;
