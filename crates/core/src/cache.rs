//! Cross-query road-network ball cache shared by every query an engine
//! serves.
//!
//! Verifying a center first computes the road-network ball `⊙(o_i, r)`,
//! a function of the center POI and the radius only, never of the
//! query's social parameters. Across a batch of queries the same balls
//! recur constantly, and each hit saves a bounded Dijkstra. Balls are
//! keyed by `(center, radius.to_bits())` — exact radius, no bucketing
//! slack — so a hit returns exactly the member list
//! [`gpssn_road::PoiSet::network_ball`] would. Keys are dataset ids,
//! never strings a client chooses, so both shard selection and the maps
//! use a fixed multiplicative hasher (`IdHasher`) instead of SipHash.
//!
//! Exact `dist_RN` cells are not cached: since road sums are exact, a
//! contraction-hierarchy cell is cheaper to compute than to look up.
//!
//! The cache is sharded (one mutex per shard) so concurrent serve and
//! batch query threads do not serialize on a single lock,
//! and each shard is capacity-bounded with FIFO eviction — an evicted
//! entry is simply recomputed, so eviction can never change results. A
//! shard whose mutex was poisoned by a panicking worker recovers the
//! inner value ([`std::sync::Mutex::into_inner`] semantics): the map is
//! either intact or mid-insert of a single entry, and every stored
//! value is immutable once present, so the worst case is one lost
//! insert — never a wrong ball.

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
    /// Unused, always `0`: kept only for `perfbench`, until it drops its `cache.dist_*` rows.
    pub dist_capacity: usize,
    /// Number of independently locked shards.
    pub shards: usize,
}

impl Default for DistanceCacheConfig {
    fn default() -> Self {
        DistanceCacheConfig {
            ball_capacity: 4096,
            dist_capacity: 0,
            shards: 8,
        }
    }
}

type BallKey = (PoiId, u64);
/// A cached ball row: the `(poi, dist_RN)` pairs inside `⊙(center, r)`,
/// shared by `Arc` so hits never copy.
pub(crate) type BallRow = Arc<Vec<(PoiId, f64)>>;

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
/// view is the ball counters of [`crate::QueryCounters`]). All sums
/// saturate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLifetimeStats {
    /// Ball lookups served from the cache.
    pub ball_hits: u64,
    /// Ball lookups that missed.
    pub ball_misses: u64,
    /// Ball entries displaced by the capacity bound.
    pub ball_evictions: u64,
    /// Always `0`: kept only for `perfbench`, until it drops its `cache.dist_*` rows.
    pub dist_evictions: u64,
}

impl CacheLifetimeStats {
    /// Lifetime ball hit fraction, `0.0` before any lookup (saturating
    /// arithmetic — see [`crate::QueryCounters::hit_rate`]).
    pub fn hit_rate(&self) -> f64 {
        let total = self.ball_hits.saturating_add(self.ball_misses);
        self.ball_hits as f64 / total.max(1) as f64
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

/// Sharded, capacity-bounded cache of road-network balls, shared across
/// queries. See the module docs for the exactness argument.
pub struct DistanceCache {
    balls: Vec<Mutex<Shard<BallKey, BallRow>>>,
    /// Lifetime hit/miss tallies (evictions live inside the shards).
    ball_hits: AtomicU64,
    ball_misses: AtomicU64,
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
    /// Builds an empty cache with the given capacity.
    pub fn new(cfg: &DistanceCacheConfig) -> Self {
        let shards = cfg.shards.max(1);
        let per = cfg.ball_capacity.div_ceil(shards);
        DistanceCache {
            balls: (0..shards).map(|_| Mutex::new(Shard::new(per))).collect(),
            ball_hits: AtomicU64::new(0),
            ball_misses: AtomicU64::new(0),
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

    /// Ball entries currently resident (across all shards).
    pub fn ball_entries(&self) -> usize {
        self.balls.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// Always `0`: kept only for `perfbench`, until it drops its `cache.dist_*` rows.
    pub fn dist_entries(&self) -> usize {
        0
    }

    /// Lifetime hit/miss/eviction counters across all shards.
    pub fn lifetime_stats(&self) -> CacheLifetimeStats {
        CacheLifetimeStats {
            ball_hits: self.ball_hits.load(Ordering::Relaxed),
            ball_misses: self.ball_misses.load(Ordering::Relaxed),
            ball_evictions: self.balls.iter().map(|s| lock_shard(s).evictions).sum(),
            dist_evictions: 0,
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

    /// Always empty: kept only for `perfbench`, until it drops its `cache.dist_*` rows.
    pub fn dist_shard_occupancy(&self) -> Vec<ShardOccupancy> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DistanceCacheConfig {
        DistanceCacheConfig {
            ball_capacity: 4,
            shards: 1,
            ..Default::default()
        }
    }

    /// A one-member ball at `center` whose distance is `d`.
    fn put(c: &DistanceCache, center: u32, d: f64) {
        c.put_ball(center, 1.0, Arc::new(vec![(center, d)]));
    }

    fn get(c: &DistanceCache, center: u32) -> Option<f64> {
        c.get_ball(center, 1.0).map(|b| b[0].1)
    }

    #[test]
    fn round_trips_values() {
        let c = DistanceCache::new(&tiny());
        let ball = Arc::new(vec![(7u32, 1.5f64), (9, 2.0)]);
        assert!(c.get_ball(3, 2.5).is_none());
        c.put_ball(3, 2.5, Arc::clone(&ball));
        assert_eq!(c.get_ball(3, 2.5), Some(ball));
        assert!(c.get_ball(3, 2.5000001).is_none()); // exact radius key
        assert!(c.get_ball(7, 2.5).is_none()); // keyed by the center
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
            put(&c, i, i as f64);
        }
        assert_eq!(c.ball_entries(), 4);
        // Oldest entries left; newest retained.
        assert!(get(&c, 0).is_none());
        assert_eq!(get(&c, 9), Some(9.0));
    }

    #[test]
    fn lifetime_stats_track_hits_misses_evictions() {
        let c = DistanceCache::new(&tiny());
        // Fresh cache: all-zero stats and a safe hit rate.
        assert_eq!(c.lifetime_stats(), CacheLifetimeStats::default());
        assert_eq!(c.lifetime_stats().hit_rate(), 0.0);
        put(&c, 1, 1.0);
        assert!(get(&c, 1).is_some()); // hit
        assert!(get(&c, 2).is_none()); // miss
        for i in 0..10u32 {
            put(&c, i + 10, i as f64); // overflows cap 4
        }
        let s = c.lifetime_stats();
        assert_eq!((s.ball_hits, s.ball_misses), (1, 1));
        assert!(s.ball_evictions >= 6, "expected evictions, got {s:?}");
        assert_eq!(s.dist_evictions, 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shard_occupancy_reports_entries_and_capacity() {
        let c = DistanceCache::new(&DistanceCacheConfig {
            ball_capacity: 8,
            shards: 2,
            ..Default::default()
        });
        put(&c, 1, 1.0);
        let occ = c.ball_shard_occupancy();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ.iter().map(|o| o.entries).sum::<usize>(), 1);
        assert!(occ.iter().all(|o| o.capacity == 4));
        assert!(c.dist_shard_occupancy().is_empty());
        assert_eq!(c.dist_entries(), 0);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = DistanceCache::new(&DistanceCacheConfig {
            ball_capacity: 0,
            shards: 4,
            ..Default::default()
        });
        put(&c, 1, 1.0);
        assert_eq!(c.ball_entries(), 0);
    }

    #[test]
    fn reinsert_refreshes_without_duplicating() {
        let c = DistanceCache::new(&tiny());
        for _ in 0..10 {
            put(&c, 1, 2.0);
        }
        assert_eq!(c.ball_entries(), 1);
    }

    #[test]
    fn poisoned_shard_recovers_with_data_intact() {
        let c = Arc::new(DistanceCache::new(&tiny()));
        put(&c, 5, 7.5);
        // Poison the (single) ball shard by panicking while holding it.
        let c2 = Arc::clone(&c);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = c2.balls[0].lock().unwrap();
            panic!("injected fault while holding the shard lock");
        }));
        assert!(c.balls[0].is_poisoned());
        // Reads and writes keep working; prior entries survive.
        assert_eq!(get(&c, 5), Some(7.5));
        put(&c, 6, 1.25);
        assert_eq!(get(&c, 6), Some(1.25));
    }
}
