//! The cross-query ball cache's accounting: a repeated query hits, and
//! the cache's lifetime tallies agree with each query's counters. That
//! the cache (cold, warm or evicting) and the CH-less backend never
//! change an answer is checked bitwise by `tests/differential.rs`.

mod common;
use common::{assert_bit_identical, corpus, query};
use gpssn::core::algorithm::EngineConfig;
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
        },
        pivot_select: PivotSelectConfig {
            seed,
            ..Default::default()
        },
        distance_cache: cache,
        ..Default::default()
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
    // ball it needs is resident.
    assert!(
        w[Counter::BallHits] >= c[Counter::BallHits],
        "warm run lost hits: cold {c:?} warm {w:?}"
    );
    assert!(
        w[Counter::BallHits] > 0 && w[Counter::BallMisses] == 0,
        "identical repeat query missed the cache: {w:?}"
    );
    assert!(w.hit_rate() > 0.0, "hit rate not reported: {w:?}");
    assert_bit_identical(cold.answer(), warm.answer(), "warm repeat vs cold");
}

#[test]
fn lifetime_ball_tallies_match_per_query_cache_stats() {
    // A cache small enough to evict between centers: both tallies must
    // count a ball recomputed after its eviction as a miss.
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), 3);
    let tiny = DistanceCacheConfig {
        ball_capacity: 4,
        shards: 2,
        ..Default::default()
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
                    after.ball_hits - before.ball_hits,
                    after.ball_misses - before.ball_misses
                ),
                (c[Counter::BallHits], c[Counter::BallMisses]),
                "lifetime ball tallies disagree with the query's cache counters for {q:?}"
            );
            lookups += c[Counter::BallHits] + c[Counter::BallMisses];
        }
    }
    assert!(lookups > 0, "corpus never reached refinement");
    assert!(
        cache.lifetime_stats().ball_evictions > 0,
        "the tiny cache never evicted"
    );
}
