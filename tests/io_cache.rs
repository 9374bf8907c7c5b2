//! Buffer-pool accounting and the tight interest-MBR test may only
//! reduce cost / increase pruning. That neither changes an answer is
//! checked bitwise by `tests/differential.rs`.

mod common;
use common::query;
use gpssn::core::algorithm::QueryOptions;
use gpssn::core::{Counter, EngineConfig, GpSsnEngine, GpSsnQuery};
use gpssn::ssn::{synthetic, SyntheticConfig};

#[test]
fn page_cache_reduces_io() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.015), 19);
    let raw = GpSsnEngine::build(&ssn, EngineConfig::default());
    let cached = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            page_cache_capacity: Some(64),
            ..Default::default()
        },
    );
    let mut any_hit = false;
    for user in [1u32, 5, 11, 1, 5, 11] {
        let q = GpSsnQuery {
            user,
            tau: 3,
            gamma: 0.3,
            theta: 0.3,
            radius: 2.5,
        };
        let a = query(&raw, &q, &Default::default());
        let b = query(&cached, &q, &Default::default());
        assert!(
            b.metrics.counters[Counter::IoPages] <= a.metrics.counters[Counter::IoPages],
            "cache increased I/O: {} > {}",
            b.metrics.counters[Counter::IoPages],
            a.metrics.counters[Counter::IoPages]
        );
        if b.metrics.counters[Counter::IoPages] < a.metrics.counters[Counter::IoPages] {
            any_hit = true;
        }
    }
    // The pool persists across queries: the repeated queries must hit.
    assert!(any_hit, "buffer pool never hit across repeated queries");
}

#[test]
fn tight_mbr_test_prunes_no_less() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.02), 29);
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    for user in [3u32, 9, 17] {
        let q = GpSsnQuery {
            user,
            tau: 3,
            gamma: 0.4,
            theta: 0.3,
            radius: 2.5,
        };
        let geo = query(
            &engine,
            &q,
            &QueryOptions {
                collect_stats: true,
                ..Default::default()
            },
        );
        let tight = query(
            &engine,
            &q,
            &QueryOptions {
                collect_stats: true,
                use_tight_mbr_test: true,
                ..Default::default()
            },
        );
        assert!(
            tight.metrics.counters[Counter::UsersPrunedIndex]
                >= geo.metrics.counters[Counter::UsersPrunedIndex],
            "tight test pruned fewer nodes than the geometric one"
        );
    }
}
