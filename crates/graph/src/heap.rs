//! Indexed binary min-heap with decrease-key.
//!
//! The workhorse priority queue behind Dijkstra traversals. Keys are `f64`
//! distances; items are dense `u32` ids (vertex ids), so positions are
//! tracked in a flat vector rather than a hash map.

/// A binary min-heap over items `0..capacity` keyed by `f64`, supporting
/// `decrease_key` in `O(log n)`.
///
/// Every item may be present at most once. Keys must be non-NaN; this is
/// enforced by debug assertions on insertion.
#[derive(Debug, Clone, Default)]
pub struct IndexedMinHeap {
    /// Heap array of `(key, item)`.
    heap: Vec<(f64, u32)>,
    /// `pos[item]` = index in `heap`, or `NOT_IN_HEAP`.
    pos: Vec<u32>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl IndexedMinHeap {
    /// Creates a heap able to hold items `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        IndexedMinHeap {
            heap: Vec::new(),
            pos: vec![NOT_IN_HEAP; capacity],
        }
    }

    /// Grows the item capacity to at least `capacity` (never shrinks;
    /// existing contents are preserved). Lets a recycled heap follow the
    /// largest graph it has served.
    pub fn grow(&mut self, capacity: usize) {
        if self.pos.len() < capacity {
            self.pos.resize(capacity, NOT_IN_HEAP);
        }
    }

    /// Number of items currently in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `item` is currently in the heap.
    #[inline]
    pub fn contains(&self, item: u32) -> bool {
        self.pos[item as usize] != NOT_IN_HEAP
    }

    /// Inserts `item` with `key`, or lowers its key if already present with
    /// a larger key. Returns `true` if the heap changed.
    pub fn push_or_decrease(&mut self, item: u32, key: f64) -> bool {
        debug_assert!(!key.is_nan(), "heap keys must not be NaN");
        match self.pos[item as usize] {
            NOT_IN_HEAP => {
                let idx = self.heap.len();
                self.heap.push((key, item));
                self.pos[item as usize] = idx as u32;
                self.sift_up(idx);
                true
            }
            p => {
                let p = p as usize;
                if key < self.heap[p].0 {
                    self.heap[p].0 = key;
                    self.sift_up(p);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes and returns the item with the smallest key.
    pub fn pop(&mut self) -> Option<(u32, f64)> {
        if self.heap.is_empty() {
            return None;
        }
        let (key, item) = self.heap.swap_remove(0);
        self.pos[item as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            let moved = self.heap[0].1;
            self.pos[moved as usize] = 0;
            self.sift_down(0);
        }
        Some((item, key))
    }

    /// Removes all items, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        for &(_, item) in &self.heap {
            self.pos[item as usize] = NOT_IN_HEAP;
        }
        self.heap.clear();
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            if self.heap[idx].0 < self.heap[parent].0 {
                self.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        loop {
            let left = 2 * idx + 1;
            let right = left + 1;
            let mut smallest = idx;
            if left < self.heap.len() && self.heap[left].0 < self.heap[smallest].0 {
                smallest = left;
            }
            if right < self.heap.len() && self.heap[right].0 < self.heap[smallest].0 {
                smallest = right;
            }
            if smallest == idx {
                break;
            }
            self.swap(idx, smallest);
            idx = smallest;
        }
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32;
        self.pos[self.heap[b].1 as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_key_order() {
        let mut h = IndexedMinHeap::new(5);
        h.push_or_decrease(0, 3.0);
        h.push_or_decrease(1, 1.0);
        h.push_or_decrease(2, 2.0);
        assert_eq!(h.pop(), Some((1, 1.0)));
        assert_eq!(h.pop(), Some((2, 2.0)));
        assert_eq!(h.pop(), Some((0, 3.0)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = IndexedMinHeap::new(3);
        h.push_or_decrease(0, 10.0);
        h.push_or_decrease(1, 5.0);
        assert!(h.push_or_decrease(0, 1.0));
        assert_eq!(h.pop(), Some((0, 1.0)));
    }

    #[test]
    fn increase_attempt_is_ignored() {
        let mut h = IndexedMinHeap::new(2);
        h.push_or_decrease(0, 1.0);
        assert!(!h.push_or_decrease(0, 5.0));
        assert_eq!(h.pop(), Some((0, 1.0)));
    }

    #[test]
    fn contains_and_clear() {
        let mut h = IndexedMinHeap::new(4);
        h.push_or_decrease(3, 1.5);
        assert!(h.contains(3));
        assert!(!h.contains(0));
        h.clear();
        assert!(!h.contains(3));
        assert!(h.is_empty());
        // Reusable after clear.
        h.push_or_decrease(3, 0.5);
        assert_eq!(h.pop(), Some((3, 0.5)));
    }

    proptest! {
        /// Popping the whole heap yields keys in non-decreasing order, and
        /// matches a sorted model, under arbitrary interleavings of inserts
        /// and decreases.
        #[test]
        fn heap_matches_sorted_model(ops in proptest::collection::vec((0u32..32, 0.0f64..100.0), 1..200)) {
            let mut h = IndexedMinHeap::new(32);
            let mut model: std::collections::HashMap<u32, f64> = Default::default();
            for (item, key) in ops {
                h.push_or_decrease(item, key);
                let e = model.entry(item).or_insert(f64::INFINITY);
                if key < *e { *e = key; }
            }
            let mut expected: Vec<f64> = model.values().copied().collect();
            expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut got = Vec::new();
            while let Some((_, k)) = h.pop() { got.push(k); }
            prop_assert_eq!(got, expected);
        }
    }
}
