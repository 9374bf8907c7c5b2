//! # gpssn-spatial — geometry and spatial indexing substrate
//!
//! Self-contained computational-geometry layer for GP-SSN:
//!
//! * [`geom`] — 2-D points and minimum bounding rectangles (MBRs) with the
//!   point-to-MBR `mindist` that R-tree search prunes with.
//! * [`rstar`] — a from-scratch R-tree, built only by Sort-Tile-Recursive
//!   packing, standing in for the R\*-tree the paper names (reference
//!   \[6\]). This is the backbone of the road-network index `I_R`.
//! * [`bitvec`] — hashed keyword signatures (`sup_K` / `sub_K` bit vectors
//!   of paper Section 4.1) with bit-OR aggregation up the tree.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bitvec;
pub mod geom;
pub mod rstar;

pub use bitvec::KeywordSignature;
pub use geom::{Point, Rect};
pub use rstar::{Entry, Node, NodeId, RStarTree};
