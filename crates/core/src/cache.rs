//! Cross-query distance cache shared by every query an engine serves.
//!
//! Verifying a center recomputes two expensive artifacts that depend
//! only on the immutable network, never on the query's social
//! parameters: the road-network ball `⊙(o_i, r)` (a function of the
//! center POI and the radius) and exact `dist_RN(u, o)` values (a
//! function of a user's home and a POI position). Across a batch of
//! queries — and even within one query, when several centers share ball
//! members — the same pairs recur constantly. This module caches both,
//! keyed so that a hit returns the *bit-identical* value the uncached
//! computation would have produced:
//!
//! * balls are keyed by `(center, radius.to_bits())` — exact radius,
//!   no bucketing slack, so the cached member list is exactly what
//!   [`gpssn_road::PoiSet::network_ball`] returns;
//! * distances are keyed by `(user, poi)`. Road lengths and offsets sit
//!   on the `2⁻³²` grid, so `dist_RN` is exact and bitwise symmetric:
//!   a run from the user's home and a run from the POI give the same
//!   bits, and one cell serves both directions.
//!
//! Distances are probed and stored a block at a time
//! ([`DistanceCache::get_block`] / [`DistanceCache::put_block`]):
//! refinement needs all of a row or recomputes all of it. A cell's
//! shard is chosen by its POI, so the common row — one POI against many
//! users — is one lock and one hash per key, and a user's row over a
//! ball takes each shard's lock once per run of cells in it. Keys are
//! dataset ids, never strings a client chooses, so both shard selection
//! and the maps use a fixed multiplicative hasher (`IdHasher`) instead
//! of SipHash.
//!
//! The cache is sharded (one mutex per shard) so concurrent serve and
//! batch query threads do not serialize on a single lock,
//! and each shard is capacity-bounded with FIFO eviction — an evicted
//! entry is simply recomputed, so eviction can never change results. A
//! shard whose mutex was poisoned by a panicking worker recovers the
//! inner value ([`std::sync::Mutex::into_inner`] semantics): the map is
//! either intact or mid-insert of a single entry, and every stored
//! value is immutable once present, so the worst case is one lost
//! insert — never a wrong distance.

use gpssn_road::PoiId;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Capacity configuration for [`DistanceCache`].
#[derive(Debug, Clone)]
pub struct DistanceCacheConfig {
    /// Total ball entries retained (FIFO per shard). `0` disables ball
    /// caching.
    pub ball_capacity: usize,
    /// Total `dist_RN` entries retained (FIFO per shard). `0` disables
    /// distance caching.
    pub dist_capacity: usize,
    /// Number of independently locked shards per map.
    pub shards: usize,
}

impl Default for DistanceCacheConfig {
    fn default() -> Self {
        DistanceCacheConfig {
            ball_capacity: 4096,
            dist_capacity: 1 << 17,
            shards: 8,
        }
    }
}

type BallKey = (PoiId, u64);
/// A cached ball row: the `(poi, dist_RN)` pairs inside `⊙(center, r)`,
/// shared by `Arc` so hits never copy.
type BallRow = Arc<Vec<(PoiId, f64)>>;
/// `(user, poi)`: one cell, whichever end a run started from.
type DistKey = (u32, PoiId);

/// Multiplicative word hasher (the FxHash mixing step) for the cache's
/// integer keys: one rotate, xor and multiply per word written. It is
/// not DoS-resistant, which is fine here: every key is a dataset id.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn write_isize(&mut self, i: isize) {
        self.add(i as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its best bits high; the maps index by the
        // low ones.
        self.0.rotate_left(26)
    }
}

fn id_hash<K: Hash>(key: &K) -> u64 {
    let mut h = IdHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// One FIFO-bounded map. Insertion order is the eviction order;
/// re-inserting an existing key refreshes the value without re-queueing.
struct Shard<K, V> {
    map: HashMap<K, V, BuildHasherDefault<IdHasher>>,
    order: VecDeque<K>,
    capacity: usize,
    /// Lifetime entries displaced by the capacity bound.
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::default(),
            order: VecDeque::new(),
            capacity,
            evictions: 0,
        }
    }

    fn get(&self, k: &K) -> Option<V> {
        self.map.get(k).cloned()
    }

    fn insert(&mut self, k: K, v: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(k.clone(), v).is_none() {
            self.order.push_back(k);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                    self.evictions += 1;
                }
            }
        }
    }
}

/// Lifetime counters of one [`DistanceCache`] (never reset; the per-query
/// view is the cache counters of [`crate::QueryCounters`], in the same
/// unit: a block probe counts every key of the block as a hit when the
/// whole block is resident and as a miss otherwise). All sums saturate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLifetimeStats {
    /// Ball lookups served from the cache.
    pub ball_hits: u64,
    /// Ball lookups that missed.
    pub ball_misses: u64,
    /// Ball entries displaced by the capacity bound.
    pub ball_evictions: u64,
    /// `dist_RN` keys served from the cache (whole-block hits).
    pub dist_hits: u64,
    /// `dist_RN` keys of blocks that missed (recomputed whole).
    pub dist_misses: u64,
    /// `dist_RN` entries displaced by the capacity bound.
    pub dist_evictions: u64,
}

impl CacheLifetimeStats {
    /// Lifetime hit fraction over both maps, `0.0` before any lookup
    /// (saturating arithmetic — see [`crate::QueryCounters::hit_rate`]).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.ball_hits.saturating_add(self.dist_hits);
        let total = hits
            .saturating_add(self.ball_misses)
            .saturating_add(self.dist_misses);
        hits as f64 / total.max(1) as f64
    }
}

/// Resident entries and capacity of one shard, for occupancy gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Entries currently resident.
    pub entries: usize,
    /// FIFO capacity of this shard.
    pub capacity: usize,
}

/// Sharded, capacity-bounded cache of road-network balls and exact
/// `dist_RN` values, shared across queries. See the module docs for the
/// exactness argument.
pub struct DistanceCache {
    balls: Vec<Mutex<Shard<BallKey, BallRow>>>,
    dists: Vec<Mutex<Shard<DistKey, f64>>>,
    /// Lifetime hit/miss tallies (evictions live inside the shards).
    ball_hits: AtomicU64,
    ball_misses: AtomicU64,
    dist_hits: AtomicU64,
    dist_misses: AtomicU64,
}

/// Locks a shard, recovering from poisoning (see module docs).
fn lock_shard<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Poisons `m` by panicking while holding its guard (the panic is
/// caught here). Only reachable from the `cache::poison` fail-point;
/// exercises the [`lock_shard`] recovery path under chaos schedules.
fn poison_shard<T>(m: &Mutex<T>) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = lock_shard(m);
        panic!("injected fault: cache::poison");
    }));
    debug_assert!(result.is_err());
}

fn shard_of<K: Hash>(key: &K, shards: usize) -> usize {
    (id_hash(key) % shards as u64) as usize
}

impl DistanceCache {
    /// Builds an empty cache with the given capacities.
    pub fn new(cfg: &DistanceCacheConfig) -> Self {
        let shards = cfg.shards.max(1);
        let per = |total: usize| {
            if total == 0 {
                0
            } else {
                total.div_ceil(shards)
            }
        };
        DistanceCache {
            balls: (0..shards)
                .map(|_| Mutex::new(Shard::new(per(cfg.ball_capacity))))
                .collect(),
            dists: (0..shards)
                .map(|_| Mutex::new(Shard::new(per(cfg.dist_capacity))))
                .collect(),
            ball_hits: AtomicU64::new(0),
            ball_misses: AtomicU64::new(0),
            dist_hits: AtomicU64::new(0),
            dist_misses: AtomicU64::new(0),
        }
    }

    /// The cached ball `⊙(center, radius)`, if present.
    pub fn get_ball(&self, center: PoiId, radius: f64) -> Option<Arc<Vec<(PoiId, f64)>>> {
        if gpssn_failpoint::failpoint!("cache::spurious_miss") {
            // A dropped entry is indistinguishable from a FIFO eviction:
            // the caller recomputes bit-identically and re-inserts.
            self.ball_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let key = (center, radius.to_bits());
        let hit = lock_shard(&self.balls[shard_of(&key, self.balls.len())]).get(&key);
        let tally = if hit.is_some() {
            &self.ball_hits
        } else {
            &self.ball_misses
        };
        tally.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores the ball `⊙(center, radius)`.
    pub fn put_ball(&self, center: PoiId, radius: f64, ball: Arc<Vec<(PoiId, f64)>>) {
        let key = (center, radius.to_bits());
        let shard = &self.balls[shard_of(&key, self.balls.len())];
        if gpssn_failpoint::failpoint!("cache::poison") {
            poison_shard(shard);
        }
        lock_shard(shard).insert(key, ball);
    }

    /// The cached `dist_RN` cells of the `users × pois` block, row-major
    /// (a user's row over POIs, or one POI's column over users, comes
    /// back in target order either way). All-or-nothing: `None` unless
    /// every cell is resident. Lifetime tallies count every cell of the
    /// block as a hit or as a miss.
    pub fn get_block(&self, users: &[u32], pois: &[PoiId]) -> Option<Vec<f64>> {
        let n = (users.len() * pois.len()) as u64;
        if gpssn_failpoint::failpoint!("cache::spurious_miss") {
            // A dropped entry is indistinguishable from a FIFO eviction.
            self.dist_misses.fetch_add(n, Ordering::Relaxed);
            return None;
        }
        let mut block = Vec::with_capacity(n as usize);
        self.for_cells(users, pois, |shard, key, _| block.extend(shard.get(&key)));
        let block = (block.len() as u64 == n).then_some(block);
        let tally = if block.is_some() {
            &self.dist_hits
        } else {
            &self.dist_misses
        };
        tally.fetch_add(n, Ordering::Relaxed);
        block
    }

    /// Stores the block [`Self::get_block`] describes: `dists` holds the
    /// `users × pois` cells row-major.
    pub fn put_block(&self, users: &[u32], pois: &[PoiId], dists: &[f64]) {
        debug_assert_eq!(users.len() * pois.len(), dists.len());
        if gpssn_failpoint::failpoint!("cache::poison") {
            poison_shard(&self.dists[pois.first().map_or(0, |o| shard_of(o, self.dists.len()))]);
        }
        self.for_cells(users, pois, |shard, key, k| shard.insert(key, dists[k]));
    }

    /// Visits the `users × pois` cells row-major, each with its index and
    /// its shard (picked by the POI) locked. A run of cells in one shard
    /// shares one lock, and at most one lock is held at a time.
    fn for_cells(
        &self,
        users: &[u32],
        pois: &[PoiId],
        mut f: impl FnMut(&mut Shard<DistKey, f64>, DistKey, usize),
    ) {
        let cells = users
            .iter()
            .flat_map(|&u| pois.iter().map(move |&o| (u, o)));
        let mut held: Option<(usize, MutexGuard<'_, Shard<DistKey, f64>>)> = None;
        for (k, (u, o)) in cells.enumerate() {
            let s = shard_of(&o, self.dists.len());
            if held.as_ref().is_none_or(|h| h.0 != s) {
                drop(held.take());
                held = Some((s, lock_shard(&self.dists[s])));
            }
            if let Some((_, shard)) = held.as_mut() {
                f(shard, (u, o), k);
            }
        }
    }

    /// Ball entries currently resident (across all shards).
    pub fn ball_entries(&self) -> usize {
        self.balls.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// Distance entries currently resident (across all shards).
    pub fn dist_entries(&self) -> usize {
        self.dists.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// Lifetime hit/miss/eviction counters across all shards.
    pub fn lifetime_stats(&self) -> CacheLifetimeStats {
        CacheLifetimeStats {
            ball_hits: self.ball_hits.load(Ordering::Relaxed),
            ball_misses: self.ball_misses.load(Ordering::Relaxed),
            ball_evictions: self.balls.iter().map(|s| lock_shard(s).evictions).sum(),
            dist_hits: self.dist_hits.load(Ordering::Relaxed),
            dist_misses: self.dist_misses.load(Ordering::Relaxed),
            dist_evictions: self.dists.iter().map(|s| lock_shard(s).evictions).sum(),
        }
    }

    /// Per-shard occupancy of the ball map, in shard order.
    pub fn ball_shard_occupancy(&self) -> Vec<ShardOccupancy> {
        self.balls
            .iter()
            .map(|s| {
                let g = lock_shard(s);
                ShardOccupancy {
                    entries: g.map.len(),
                    capacity: g.capacity,
                }
            })
            .collect()
    }

    /// Per-shard occupancy of the `dist_RN` map, in shard order.
    pub fn dist_shard_occupancy(&self) -> Vec<ShardOccupancy> {
        self.dists
            .iter()
            .map(|s| {
                let g = lock_shard(s);
                ShardOccupancy {
                    entries: g.map.len(),
                    capacity: g.capacity,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DistanceCacheConfig {
        DistanceCacheConfig {
            ball_capacity: 4,
            dist_capacity: 4,
            shards: 1,
        }
    }

    /// Single-cell helpers: the block API with one user and one POI.
    fn put(c: &DistanceCache, user: u32, poi: u32, d: f64) {
        c.put_block(&[user], &[poi], &[d]);
    }

    fn get(c: &DistanceCache, user: u32, poi: u32) -> Option<f64> {
        c.get_block(&[user], &[poi]).map(|block| block[0])
    }

    #[test]
    fn round_trips_values() {
        let c = DistanceCache::new(&tiny());
        assert!(get(&c, 1, 2).is_none());
        put(&c, 1, 2, 3.25);
        assert_eq!(get(&c, 1, 2), Some(3.25));
        // The key is ordered: (user 2, poi 1) is another cell.
        assert!(get(&c, 2, 1).is_none());

        let ball = Arc::new(vec![(7u32, 1.5f64), (9, 2.0)]);
        c.put_ball(3, 2.5, Arc::clone(&ball));
        assert_eq!(c.get_ball(3, 2.5), Some(ball));
        assert!(c.get_ball(3, 2.5000001).is_none()); // exact radius key
    }

    #[test]
    fn rows_are_all_or_nothing() {
        let c = DistanceCache::new(&DistanceCacheConfig {
            ball_capacity: 8,
            dist_capacity: 64,
            shards: 4,
        });
        // POI 7's column over users 1..=3.
        c.put_block(&[1, 2, 3], &[7], &[0.5, 1.5, 2.5]);
        assert_eq!(c.get_block(&[3, 1], &[7]), Some(vec![2.5, 0.5]));
        // One cell serves both directions: user 2's row over POI 7.
        assert_eq!(c.get_block(&[2], &[7]), Some(vec![1.5]));
        // One absent key misses the whole block, and every key of it is
        // tallied as a miss.
        assert!(c.get_block(&[1, 4, 2], &[7]).is_none());
        let s = c.lifetime_stats();
        assert_eq!((s.dist_hits, s.dist_misses), (3, 3));
        // A user's row spread over several shards round-trips in order.
        let pois: Vec<u32> = (0..16).collect();
        let row: Vec<f64> = pois.iter().map(|&o| o as f64 + 0.25).collect();
        c.put_block(&[5], &pois, &row);
        assert_eq!(c.get_block(&[5], &pois), Some(row));
        // An empty block is trivially resident.
        assert_eq!(c.get_block(&[9], &[]), Some(vec![]));
    }

    #[test]
    fn id_hasher_spreads_sequential_ids_over_shards() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for poi in 0..1600u32 {
            counts[shard_of(&poi, shards)] += 1;
        }
        assert!(
            counts.iter().all(|&k| k > 100 && k < 300),
            "uneven shard spread {counts:?}"
        );
    }

    #[test]
    fn fifo_eviction_bounds_residency() {
        let c = DistanceCache::new(&tiny());
        for i in 0..10u32 {
            put(&c, i, 0, i as f64);
        }
        assert_eq!(c.dist_entries(), 4);
        // Oldest entries left; newest retained.
        assert!(get(&c, 0, 0).is_none());
        assert_eq!(get(&c, 9, 0), Some(9.0));
    }

    #[test]
    fn lifetime_stats_track_hits_misses_evictions() {
        let c = DistanceCache::new(&tiny());
        // Fresh cache: all-zero stats and a safe hit rate.
        assert_eq!(c.lifetime_stats(), CacheLifetimeStats::default());
        assert_eq!(c.lifetime_stats().hit_rate(), 0.0);
        put(&c, 1, 1, 1.0);
        assert!(get(&c, 1, 1).is_some()); // hit
        assert!(get(&c, 2, 2).is_none()); // miss
        for i in 0..10u32 {
            put(&c, 0, i + 10, i as f64); // overflows cap 4
        }
        let s = c.lifetime_stats();
        assert_eq!(s.dist_hits, 1);
        assert_eq!(s.dist_misses, 1);
        assert!(s.dist_evictions >= 6, "expected evictions, got {s:?}");
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shard_occupancy_reports_entries_and_capacity() {
        let c = DistanceCache::new(&DistanceCacheConfig {
            ball_capacity: 8,
            dist_capacity: 8,
            shards: 2,
        });
        put(&c, 1, 1, 1.0);
        let occ = c.dist_shard_occupancy();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ.iter().map(|o| o.entries).sum::<usize>(), 1);
        assert!(occ.iter().all(|o| o.capacity == 4));
        assert_eq!(c.ball_shard_occupancy().len(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = DistanceCache::new(&DistanceCacheConfig {
            ball_capacity: 0,
            dist_capacity: 0,
            shards: 4,
        });
        put(&c, 1, 1, 1.0);
        c.put_ball(1, 1.0, Arc::new(vec![]));
        assert_eq!(c.dist_entries(), 0);
        assert_eq!(c.ball_entries(), 0);
    }

    #[test]
    fn reinsert_refreshes_without_duplicating() {
        let c = DistanceCache::new(&tiny());
        for _ in 0..10 {
            put(&c, 1, 1, 2.0);
        }
        assert_eq!(c.dist_entries(), 1);
    }

    #[test]
    fn poisoned_shard_recovers_with_data_intact() {
        let c = Arc::new(DistanceCache::new(&tiny()));
        put(&c, 5, 5, 7.5);
        // Poison the (single) dist shard by panicking while holding it.
        let c2 = Arc::clone(&c);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = c2.dists[0].lock().unwrap();
            panic!("injected fault while holding the shard lock");
        }));
        assert!(c.dists[0].is_poisoned());
        // Reads and writes keep working; prior entries survive.
        assert_eq!(get(&c, 5, 5), Some(7.5));
        put(&c, 6, 6, 1.25);
        assert_eq!(get(&c, 6, 6), Some(1.25));
    }
}
