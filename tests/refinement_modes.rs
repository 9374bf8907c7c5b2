//! PR 2 acceptance properties: parallel center refinement and the
//! cross-query distance cache are *bit-identical* to the sequential,
//! uncached engine — same users, same POIs, same `maxdist` down to the
//! last mantissa bit — across a randomized ≥200-query corpus. Eviction
//! pressure (a cache too small to hold anything for long) must also
//! change nothing: a hit only ever returns what the miss path would
//! have recomputed.

mod common;
use common::{assert_bit_identical, corpus, query};
use gpssn::core::algorithm::{DistanceBackend, EngineConfig, QueryOptions};
use gpssn::core::{Counter, DistanceCacheConfig, GpSsnEngine, GpSsnQuery};
use gpssn::index::{PivotSelectConfig, SocialIndexConfig};
use gpssn::ssn::{synthetic, SyntheticConfig};

fn small_cfg(seed: u64, cache: Option<DistanceCacheConfig>) -> EngineConfig {
    EngineConfig {
        num_road_pivots: 3,
        num_social_pivots: 3,
        social_index: SocialIndexConfig {
            leaf_size: 8,
            fanout: 3,
            ..Default::default()
        },
        pivot_select: PivotSelectConfig {
            seed,
            ..Default::default()
        },
        distance_cache: cache,
        ..Default::default()
    }
}

fn threads_opts(threads: usize) -> QueryOptions {
    QueryOptions {
        refine_threads: threads,
        ..Default::default()
    }
}

fn backend_opts(backend: DistanceBackend) -> QueryOptions {
    QueryOptions {
        distance_backend: backend,
        ..Default::default()
    }
}

#[test]
fn ch_backend_is_bit_identical_to_dijkstra() {
    let mut checked = 0usize;
    let mut answered = 0usize;
    let mut ch_engaged = 0usize;
    for seed in 0..4u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let engine = GpSsnEngine::build(&ssn, small_cfg(seed, None));
        for q in corpus(&ssn, seed) {
            let dij = query(&engine, &q, &backend_opts(DistanceBackend::Dijkstra));
            let ch = query(&engine, &q, &backend_opts(DistanceBackend::Ch));
            assert_bit_identical(dij.answer(), ch.answer(), "CH backend vs Dijkstra");
            assert_eq!(
                dij.metrics.counters[Counter::ChBatches],
                0,
                "Dijkstra backend must not touch the CH oracle"
            );
            ch_engaged += (ch.metrics.counters[Counter::ChBatches] > 0) as usize;
            checked += 1;
            answered += dij.answer().is_some() as usize;
        }
    }
    assert!(checked >= 200, "stress corpus too small: {checked}");
    assert!(answered >= 10, "too few feasible cases: {answered}");
    assert!(
        ch_engaged >= 10,
        "the CH oracle barely engaged ({ch_engaged} queries) — the test proves nothing"
    );
}

#[test]
fn ch_less_index_falls_back_to_dijkstra() {
    // An engine whose road index skipped CH construction still serves
    // queries under the default `DistanceBackend::Ch`: the backend
    // degrades to Dijkstra silently and reports zero CH batches.
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), 7);
    let mut chless_cfg = small_cfg(7, None);
    chless_cfg.road_index.build_ch = false;
    let chless = GpSsnEngine::build(&ssn, chless_cfg);
    let full = GpSsnEngine::build(&ssn, small_cfg(7, None));
    for q in corpus(&ssn, 7) {
        let a = query(&chless, &q, &Default::default());
        let b = query(&full, &q, &backend_opts(DistanceBackend::Dijkstra));
        assert_bit_identical(a.answer(), b.answer(), "CH-less fallback vs Dijkstra");
        assert_eq!(
            a.metrics.counters[Counter::ChBatches],
            0,
            "a CH-less index cannot have served CH batches"
        );
    }
}

#[test]
fn parallel_refinement_is_bit_identical_to_sequential() {
    // Cache off so this test isolates the threading dimension.
    let mut checked = 0usize;
    let mut answered = 0usize;
    for seed in 0..4u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let engine = GpSsnEngine::build(&ssn, small_cfg(seed, None));
        for q in corpus(&ssn, seed) {
            let seq = query(&engine, &q, &threads_opts(1));
            let par4 = query(&engine, &q, &threads_opts(4));
            let par_auto = query(&engine, &q, &threads_opts(0));
            assert_bit_identical(seq.answer(), par4.answer(), "4 threads vs sequential");
            assert_bit_identical(
                seq.answer(),
                par_auto.answer(),
                "auto threads vs sequential",
            );
            checked += 1;
            answered += seq.answer().is_some() as usize;
        }
    }
    assert!(checked >= 200, "stress corpus too small: {checked}");
    assert!(answered >= 10, "too few feasible cases: {answered}");
}

#[test]
fn cache_never_changes_answers() {
    for seed in 0..3u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let cached =
            GpSsnEngine::build(&ssn, small_cfg(seed, Some(DistanceCacheConfig::default())));
        let uncached = GpSsnEngine::build(&ssn, small_cfg(seed, None));
        // Two passes over the corpus: the second runs against a warm
        // cache, so hits (not just misses) are compared against the
        // cache-free engine.
        for pass in 0..2 {
            for q in corpus(&ssn, seed) {
                let a = query(&cached, &q, &Default::default());
                let b = query(&uncached, &q, &Default::default());
                assert_bit_identical(a.answer(), b.answer(), "cached vs uncached");
                if pass == 1 {
                    // Warm pass: hits must actually be happening, or this
                    // test proves nothing about the hit path.
                    let c = a.metrics.counters;
                    assert!(
                        c[Counter::BallHits] + c[Counter::DistHits] > 0 || a.answers.is_empty(),
                        "warm pass produced no cache hits for {q:?}: {c:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn eviction_pressure_never_changes_answers() {
    // A cache this small is evicting almost constantly; every lookup
    // pattern (miss, hit, hit-after-evict-and-recompute) must still
    // produce the bit pattern the uncached engine computes.
    let tiny = DistanceCacheConfig {
        ball_capacity: 2,
        dist_capacity: 8,
        shards: 1,
    };
    for seed in 0..3u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let squeezed = GpSsnEngine::build(&ssn, small_cfg(seed, Some(tiny.clone())));
        let uncached = GpSsnEngine::build(&ssn, small_cfg(seed, None));
        for q in corpus(&ssn, seed) {
            let a = query(&squeezed, &q, &Default::default());
            let b = query(&uncached, &q, &Default::default());
            assert_bit_identical(a.answer(), b.answer(), "tiny cache vs uncached");
        }
    }
}

#[test]
fn parallel_and_cached_together_match_the_plain_engine() {
    // The full production configuration (cache on, 4 refinement
    // threads) against the simplest one (no cache, one thread).
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), 11);
    let fast = GpSsnEngine::build(&ssn, small_cfg(11, Some(DistanceCacheConfig::default())));
    let plain = GpSsnEngine::build(&ssn, small_cfg(11, None));
    for q in corpus(&ssn, 11) {
        let a = query(&fast, &q, &threads_opts(4));
        let b = query(&plain, &q, &threads_opts(1));
        assert_bit_identical(a.answer(), b.answer(), "parallel+cached vs plain");
    }
}

#[test]
fn repeated_queries_report_a_rising_hit_rate() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), 5);
    let engine = GpSsnEngine::build(&ssn, small_cfg(5, Some(DistanceCacheConfig::default())));
    let q = GpSsnQuery {
        user: 1,
        tau: 2,
        gamma: 0.3,
        theta: 0.2,
        radius: 3.0,
    };
    let cold = query(&engine, &q, &Default::default());
    let warm = query(&engine, &q, &Default::default());
    let (c, w) = (cold.metrics.counters, warm.metrics.counters);
    // The warm run re-asks exactly the cold run's questions, so every
    // ball and distance it needs is resident.
    assert!(
        w[Counter::BallHits] >= c[Counter::BallHits]
            && w[Counter::DistHits] >= c[Counter::DistHits],
        "warm run lost hits: cold {c:?} warm {w:?}"
    );
    assert!(
        w[Counter::BallHits] + w[Counter::DistHits] > 0,
        "identical repeat query missed the cache entirely: {w:?}"
    );
    assert!(w.hit_rate() > 0.0, "hit rate not reported: {w:?}");
    assert_bit_identical(cold.answer(), warm.answer(), "warm repeat vs cold");
}

#[test]
fn lifetime_dist_tallies_match_per_query_cache_stats() {
    // A cache small enough to evict mid-row: rows whose first keys are
    // still resident but whose later keys were evicted are recomputed
    // whole, and both tallies must count every key of such a row as a
    // miss.
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), 3);
    let tiny = DistanceCacheConfig {
        ball_capacity: 16,
        dist_capacity: 48,
        shards: 2,
    };
    let engine = GpSsnEngine::build(&ssn, small_cfg(3, Some(tiny)));
    let cache = engine.distance_cache().expect("cache configured");
    let mut lookups = 0u64;
    for q in corpus(&ssn, 3).into_iter().take(8) {
        for _ in 0..2 {
            let before = cache.lifetime_stats();
            let out = query(&engine, &q, &Default::default());
            let after = cache.lifetime_stats();
            let c = out.metrics.counters;
            assert_eq!(
                (
                    after.dist_hits - before.dist_hits,
                    after.dist_misses - before.dist_misses
                ),
                (c[Counter::DistHits], c[Counter::DistMisses]),
                "lifetime dist tallies disagree with the query's cache counters for {q:?}"
            );
            lookups += c[Counter::DistHits] + c[Counter::DistMisses];
        }
    }
    assert!(lookups > 0, "corpus never reached refinement");
}
