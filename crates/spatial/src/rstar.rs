//! An STR-packed R-tree over 2-D points.
//!
//! `I_R` (Section 4.1) indexes POI locations in an R-tree; the paper names
//! the R\*-tree of Beckmann, Kriegel, Schneider and Seeger (SIGMOD 1990),
//! its reference \[6\]. Every tree here is built once, from a known point
//! set, by Sort-Tile-Recursive packing ([`RStarTree::str_bulk_load`]): the
//! same node/MBR structure that Algorithm 2 traverses level by level, with
//! nearly full nodes.
//!
//! The tree is arena-allocated so that the GP-SSN index layer can traverse
//! nodes directly and attach per-node aggregates (keyword signatures, pivot
//! distance bounds) keyed by [`NodeId`].

use crate::geom::{Point, Rect};

/// Identifier of a tree node (index into the arena).
pub type NodeId = u32;

/// Identifier of an indexed item (assigned by the caller).
pub type ItemId = u32;

/// An entry of a tree node.
#[derive(Debug, Clone, Copy)]
pub enum Entry {
    /// A data point in a leaf node.
    Item {
        /// Caller-assigned item id.
        item: ItemId,
        /// Location of the item.
        point: Point,
    },
    /// A child subtree in an internal node.
    Child {
        /// Arena id of the child node.
        node: NodeId,
        /// MBR of everything below the child.
        mbr: Rect,
    },
}

impl Entry {
    /// MBR of the entry (degenerate rect for items).
    #[inline]
    pub fn mbr(&self) -> Rect {
        match *self {
            Entry::Item { point, .. } => Rect::from_point(point),
            Entry::Child { mbr, .. } => mbr,
        }
    }
}

/// A tree node. `level == 0` means leaf.
#[derive(Debug, Clone)]
pub struct Node {
    /// Height above the leaves (0 = leaf).
    pub level: u32,
    /// Entries (items for leaves, children otherwise).
    pub entries: Vec<Entry>,
}

/// STR-packed R-tree over 2-D points.
#[derive(Debug, Clone)]
pub struct RStarTree {
    nodes: Vec<Node>,
    root: NodeId,
    max_entries: usize,
    min_entries: usize,
    len: usize,
}

/// Splits `items` into chunks of at most `cap`, redistributing the final
/// remainder so every chunk holds at least `min` items (assumes
/// `min <= cap / 2`, which [`RStarTree::new`] guarantees).
fn balanced_chunks<T: Clone>(items: &[T], cap: usize, min: usize) -> Vec<Vec<T>> {
    if items.is_empty() {
        return Vec::new();
    }
    if items.len() <= cap {
        return vec![items.to_vec()];
    }
    let mut chunks: Vec<Vec<T>> = items.chunks(cap).map(|c| c.to_vec()).collect();
    let last = chunks.len() - 1;
    if chunks[last].len() < min {
        // Steal from the previous (full) chunk.
        let need = min - chunks[last].len();
        let donor_len = chunks[last - 1].len();
        let stolen: Vec<T> = chunks[last - 1].split_off(donor_len - need);
        let mut merged = stolen;
        merged.extend(chunks[last].iter().cloned());
        chunks[last] = merged;
    }
    chunks
}

impl RStarTree {
    /// Creates an empty tree with node capacity `max_entries` (minimum fill
    /// is 40% of capacity, per the R\* paper).
    ///
    /// # Panics
    /// Panics if `max_entries < 4`.
    fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R*-tree requires capacity >= 4");
        let min_entries = ((max_entries as f64 * 0.4).floor() as usize).max(2);
        RStarTree {
            nodes: vec![Node {
                level: 0,
                entries: Vec::new(),
            }],
            root: 0,
            max_entries,
            min_entries,
            len: 0,
        }
    }

    /// Number of indexed items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Total number of nodes in the arena (== pages of the simulated
    /// paged index file).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Tree height (number of levels; 1 for a single leaf root).
    pub fn height(&self) -> u32 {
        self.nodes[self.root as usize].level + 1
    }

    /// MBR of a node's entries (empty rect for an empty root).
    pub fn node_mbr(&self, id: NodeId) -> Rect {
        let mut mbr = Rect::empty();
        for e in &self.nodes[id as usize].entries {
            mbr = mbr.union(&e.mbr());
        }
        mbr
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Items whose points fall inside `rect` (boundary inclusive).
    pub fn range_query(&self, rect: &Rect) -> Vec<(ItemId, Point)> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            for e in &self.nodes[id as usize].entries {
                match *e {
                    Entry::Item { item, point } => {
                        if rect.contains_point(&point) {
                            out.push((item, point));
                        }
                    }
                    Entry::Child { node, mbr } => {
                        if rect.intersects(&mbr) {
                            stack.push(node);
                        }
                    }
                }
            }
        }
        out
    }

    /// Items within Euclidean distance `radius` of `center`.
    pub fn within_radius(&self, center: &Point, radius: f64) -> Vec<(ItemId, Point)> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            for e in &self.nodes[id as usize].entries {
                match *e {
                    Entry::Item { item, point } => {
                        if center.distance(&point) <= radius {
                            out.push((item, point));
                        }
                    }
                    Entry::Child { node, mbr } => {
                        if mbr.min_dist_point(center) <= radius {
                            stack.push(node);
                        }
                    }
                }
            }
        }
        out
    }

    /// All items in the tree.
    pub fn items(&self) -> Vec<(ItemId, Point)> {
        self.range_query(&Rect::new(
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            Point::new(f64::INFINITY, f64::INFINITY),
        ))
    }

    /// The `k` nearest items to `center` (ties broken arbitrarily),
    /// sorted by ascending distance. Classic best-first search over
    /// `mindist`.
    // Audited unwraps: `partial_cmp` over mindist/point distances,
    // which are finite for finite input coordinates.
    #[allow(clippy::unwrap_used)]
    pub fn nearest_k(&self, center: &Point, k: usize) -> Vec<(ItemId, Point, f64)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // (dist, is_item, node-or-item, point)
        let mut frontier: Vec<(f64, bool, u32, Point)> =
            vec![(0.0, false, self.root, Point::new(0.0, 0.0))];
        let mut out: Vec<(ItemId, Point, f64)> = Vec::new();
        while let Some(best_idx) = frontier
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
            .map(|(i, _)| i)
        {
            let (d, is_item, id, pt) = frontier.swap_remove(best_idx);
            if out.len() >= k && d > out.last().map_or(f64::INFINITY, |x| x.2) {
                break;
            }
            if is_item {
                out.push((id, pt, d));
                out.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
                out.truncate(k);
                continue;
            }
            for e in &self.nodes[id as usize].entries {
                match *e {
                    Entry::Item { item, point } => {
                        frontier.push((center.distance(&point), true, item, point));
                    }
                    Entry::Child { node, mbr } => {
                        frontier.push((mbr.min_dist_point(center), false, node, pt));
                    }
                }
            }
        }
        out
    }

    /// Sort-Tile-Recursive bulk loading: packs sorted slabs into full
    /// nodes bottom-up, redistributing remainders so every non-root node
    /// meets the minimum fill (40% of `max_entries`).
    ///
    /// # Panics
    /// Panics if `max_entries < 4`.
    // Audited unwraps: `partial_cmp` over finite input coordinates.
    #[allow(clippy::unwrap_used)]
    pub fn str_bulk_load(
        max_entries: usize,
        items: impl IntoIterator<Item = (ItemId, Point)>,
    ) -> Self {
        let mut tree = RStarTree::new(max_entries);
        let mut pts: Vec<(ItemId, Point)> = items.into_iter().collect();
        if pts.is_empty() {
            return tree;
        }
        tree.len = pts.len();
        let cap = max_entries;
        // Leaf level: STR tiling.
        pts.sort_by(|a, b| a.1.x.partial_cmp(&b.1.x).unwrap());
        let leaf_count = pts.len().div_ceil(cap);
        let slabs = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slab = pts.len().div_ceil(slabs).max(1);
        for slab in pts.chunks_mut(per_slab) {
            slab.sort_by(|a, b| a.1.y.partial_cmp(&b.1.y).unwrap());
        }
        // Reserve the arena up front: exact leaf count from the slab
        // layout, then one `div_ceil(cap)` layer at a time up to the root.
        let exact_leaves: usize = pts.chunks(per_slab).map(|s| s.len().div_ceil(cap)).sum();
        let mut reserve = 0usize;
        let mut width = exact_leaves;
        while width > 1 {
            reserve += width;
            width = width.div_ceil(cap);
        }
        tree.nodes.clear();
        tree.nodes.reserve(reserve + 1);
        let mut level_nodes: Vec<NodeId> = Vec::with_capacity(exact_leaves);
        for slab in pts.chunks(per_slab) {
            for chunk in balanced_chunks(slab, cap, tree.min_entries) {
                let id = tree.nodes.len() as NodeId;
                tree.nodes.push(Node {
                    level: 0,
                    entries: chunk
                        .iter()
                        .map(|&(item, point)| Entry::Item { item, point })
                        .collect(),
                });
                level_nodes.push(id);
            }
        }
        // Pack upper levels until a single root remains.
        let mut level = 0u32;
        while level_nodes.len() > 1 {
            level += 1;
            let mut next: Vec<NodeId> = Vec::with_capacity(level_nodes.len().div_ceil(cap));
            let ids: Vec<NodeId> = std::mem::take(&mut level_nodes);
            for chunk in balanced_chunks(&ids, cap, tree.min_entries) {
                let id = tree.nodes.len() as NodeId;
                let entries: Vec<Entry> = chunk
                    .iter()
                    .map(|&c| Entry::Child {
                        node: c,
                        mbr: tree.node_mbr(c),
                    })
                    .collect();
                tree.nodes.push(Node { level, entries });
                next.push(id);
            }
            level_nodes = next;
        }
        tree.root = level_nodes[0];
        tree
    }

    // ------------------------------------------------------------------
    // Structural validation (used by tests and debug assertions)
    // ------------------------------------------------------------------

    /// Checks all structural invariants; panics with a description on the
    /// first violation. Intended for tests.
    pub fn validate(&self) {
        let mut count = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if id != self.root {
                assert!(
                    node.entries.len() >= self.min_entries,
                    "underfull non-root node: {} < {}",
                    node.entries.len(),
                    self.min_entries
                );
            }
            assert!(
                node.entries.len() <= self.max_entries,
                "overfull node: {} > {}",
                node.entries.len(),
                self.max_entries
            );
            for e in &node.entries {
                match *e {
                    Entry::Item { .. } => {
                        assert_eq!(node.level, 0, "item entry in internal node");
                        count += 1;
                    }
                    Entry::Child { node: c, mbr } => {
                        assert!(node.level > 0, "child entry in leaf");
                        let child = &self.nodes[c as usize];
                        assert_eq!(child.level + 1, node.level, "level mismatch");
                        let actual = self.node_mbr(c);
                        assert!(
                            (mbr.min.x - actual.min.x).abs() < 1e-9
                                && (mbr.min.y - actual.min.y).abs() < 1e-9
                                && (mbr.max.x - actual.max.x).abs() < 1e-9
                                && (mbr.max.y - actual.max.y).abs() < 1e-9,
                            "stale MBR for child {c}"
                        );
                        stack.push(c);
                    }
                }
            }
        }
        assert_eq!(count, self.len, "item count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid_tree(n: u32) -> (RStarTree, Vec<(ItemId, Point)>) {
        let items: Vec<(ItemId, Point)> = (0..n)
            .map(|i| (i, Point::new((i % 10) as f64, (i / 10) as f64)))
            .collect();
        (RStarTree::str_bulk_load(8, items.iter().copied()), items)
    }

    fn sorted_ids(v: Vec<(ItemId, Point)>) -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = v.into_iter().map(|(i, _)| i).collect();
        ids.sort_unstable();
        ids
    }

    /// Ids of the items `keep` accepts, by linear scan.
    fn scan(items: &[(ItemId, Point)], keep: impl Fn(&Point) -> bool) -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = items
            .iter()
            .filter(|(_, p)| keep(p))
            .map(|&(i, _)| i)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// `nearest_k` returns exactly the `k` smallest scanned distances, in
    /// ascending order, each belonging to the item it names (ties between
    /// items may resolve either way).
    fn check_nearest_k(tree: &RStarTree, items: &[(ItemId, Point)], c: &Point, k: usize) {
        let got = tree.nearest_k(c, k);
        let mut expected: Vec<f64> = items.iter().map(|(_, p)| c.distance(p)).collect();
        expected.sort_by(f64::total_cmp);
        expected.truncate(k);
        let dists: Vec<f64> = got.iter().map(|&(_, _, d)| d).collect();
        assert_eq!(dists, expected, "k={k}");
        for &(id, p, d) in &got {
            assert_eq!(items[id as usize].1, p);
            assert_eq!(c.distance(&p), d);
        }
    }

    #[test]
    fn empty_tree() {
        let t = RStarTree::str_bulk_load(8, std::iter::empty());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.items().is_empty());
        t.validate();
    }

    #[test]
    fn tree_grows_in_height() {
        let (tree, _) = grid_tree(100);
        assert!(tree.height() >= 2, "100 points at capacity 8 must split");
    }

    #[test]
    fn range_query_matches_filter() {
        let (tree, items) = grid_tree(100);
        let rect = Rect::new(Point::new(2.0, 3.0), Point::new(5.0, 6.0));
        assert_eq!(
            sorted_ids(tree.range_query(&rect)),
            scan(&items, |p| rect.contains_point(p))
        );
    }

    #[test]
    fn radius_query_matches_filter() {
        let (tree, items) = grid_tree(100);
        let c = Point::new(4.5, 4.5);
        let r = 2.3;
        assert_eq!(
            sorted_ids(tree.within_radius(&c, r)),
            scan(&items, |p| c.distance(p) <= r)
        );
    }

    #[test]
    fn duplicate_points_are_kept() {
        let tree = RStarTree::str_bulk_load(4, (0..20).map(|i| (i, Point::new(1.0, 1.0))));
        assert_eq!(tree.len(), 20);
        assert_eq!(tree.within_radius(&Point::new(1.0, 1.0), 0.0).len(), 20);
        tree.validate();
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_tiny_capacity() {
        RStarTree::str_bulk_load(3, std::iter::empty());
    }

    #[test]
    fn nearest_k_matches_linear_scan() {
        let (tree, items) = grid_tree(100);
        for k in [1usize, 5, 17] {
            check_nearest_k(&tree, &items, &Point::new(3.7, 6.2), k);
        }
    }

    #[test]
    fn nearest_k_edge_cases() {
        let (tree, _) = grid_tree(10);
        assert!(tree.nearest_k(&Point::new(0.0, 0.0), 0).is_empty());
        assert_eq!(tree.nearest_k(&Point::new(0.0, 0.0), 99).len(), 10);
        let empty = RStarTree::str_bulk_load(8, std::iter::empty());
        assert!(empty.nearest_k(&Point::new(0.0, 0.0), 3).is_empty());
    }

    #[test]
    fn str_bulk_load_is_valid_and_complete() {
        let pts = (0..500).map(|i| {
            (
                i as ItemId,
                Point::new((i * 37 % 101) as f64, (i * 61 % 97) as f64),
            )
        });
        let tree = RStarTree::str_bulk_load(16, pts);
        assert_eq!(tree.len(), 500);
        tree.validate();
        assert_eq!(sorted_ids(tree.items()), (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn str_bulk_load_queries_match_scan() {
        let items: Vec<(ItemId, Point)> = (0..300)
            .map(|i| (i, Point::new((i * 17 % 89) as f64, (i * 23 % 71) as f64)))
            .collect();
        let tree = RStarTree::str_bulk_load(16, items.iter().copied());
        let rect = Rect::new(Point::new(10.0, 10.0), Point::new(40.0, 40.0));
        assert_eq!(
            sorted_ids(tree.range_query(&rect)),
            scan(&items, |p| rect.contains_point(p))
        );
        let c = Point::new(30.5, 20.5);
        assert_eq!(
            sorted_ids(tree.within_radius(&c, 12.0)),
            scan(&items, |p| c.distance(p) <= 12.0)
        );
        check_nearest_k(&tree, &items, &c, 25);
    }

    #[test]
    fn str_bulk_load_empty_and_tiny() {
        let tree = RStarTree::str_bulk_load(8, std::iter::empty());
        assert!(tree.is_empty());
        tree.validate();
        let tiny = RStarTree::str_bulk_load(8, [(0, Point::new(1.0, 2.0))]);
        assert_eq!(tiny.len(), 1);
        tiny.validate();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// STR-built trees answer range, exact point, ball (within-radius)
        /// and kNN queries on random point sets exactly as a linear scan
        /// over the items does.
        #[test]
        fn str_matches_scan_on_queries(
            seed in 0u64..200,
            n in 1usize..300,
            cap in 4usize..24,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let items: Vec<(ItemId, Point)> = (0..n as u32)
                .map(|i| (i, Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))))
                .collect();
            let a = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let b = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let rect = Rect::new(
                Point::new(a.x.min(b.x), a.y.min(b.y)),
                Point::new(a.x.max(b.x), a.y.max(b.y)),
            );
            let probe = items[rng.gen_range(0..items.len())].1;
            let point_rect = Rect::from_point(probe);
            let c = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let r = rng.gen_range(0.0..60.0);
            let k = rng.gen_range(1..=n);
            let tree = RStarTree::str_bulk_load(cap, items.iter().copied());
            tree.validate();
            prop_assert_eq!(
                sorted_ids(tree.range_query(&rect)),
                scan(&items, |p| rect.contains_point(p))
            );
            prop_assert_eq!(
                sorted_ids(tree.range_query(&point_rect)),
                scan(&items, |p| point_rect.contains_point(p))
            );
            prop_assert_eq!(
                sorted_ids(tree.within_radius(&c, r)),
                scan(&items, |p| c.distance(p) <= r)
            );
            check_nearest_k(&tree, &items, &c, k);
        }

        /// STR bulk load: invariants and full retrievability on random
        /// point sets and node capacities.
        #[test]
        fn str_invariants_on_random_points(seed in 0u64..500, n in 0usize..400, cap in 4usize..24) {
            let mut rng = StdRng::seed_from_u64(seed);
            let items: Vec<(ItemId, Point)> = (0..n as u32)
                .map(|i| (i, Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0))))
                .collect();
            let tree = RStarTree::str_bulk_load(cap, items);
            tree.validate();
            prop_assert_eq!(tree.len(), n);
            prop_assert_eq!(sorted_ids(tree.items()), (0..n as u32).collect::<Vec<_>>());
        }
    }
}
