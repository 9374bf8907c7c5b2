//! Acceptance properties for the parallel deterministic index build.
//!
//! The whole point of the parallel builders (independent-set CH
//! contraction, chunked pivot tables and augmentation) is that the *serialized* index is a pure function of
//! the inputs — the thread count sizes the worker pool and nothing else.
//! These tests pin that contract at the workspace level, over the real
//! on-disk format:
//!
//! 1. **Road-index bytes** — the full pipeline (CH oracle, pivot
//!    selection priced on it, pivot tables, POI augmentation, STR tree)
//!    built at 1, 2, 8, and 0 (= all cores) threads serializes to
//!    byte-identical `write_road_index` output, checked via both the raw
//!    bytes and the CRC-32 the healing loader trusts. Algorithm 1 alone
//!    is pinned too: it picks the same road pivots over a CH contracted
//!    at every thread count, and the same social pivots on every call.
//! 2. **Round-trip under threads** — an index written by a parallel
//!    build reads back and re-serializes to the same bytes, so a healed
//!    or reloaded index can never drift from a fresh parallel build.
//! 3. **Social index** — the parallel social build matches the
//!    sequential one node-for-node and table-for-table (it has no
//!    serializer; the public surface is compared bit-for-bit).

use gpssn::graph::ChOracle;
use gpssn::index::{
    crc32::crc32, read_road_index, select_road_pivots, select_social_pivots, write_road_index,
    PivotSelectConfig, RoadIndex, RoadIndexConfig, SocialIndex, SocialIndexConfig,
};
use gpssn::road::RoadPivots;
use gpssn::social::SocialPivots;
use gpssn::ssn::{synthetic, SpatialSocialNetwork, SyntheticConfig};

fn small_ssn(seed: u64) -> SpatialSocialNetwork {
    synthetic(&SyntheticConfig::uni().scaled(0.02), seed)
}

fn road_bytes(ssn: &SpatialSocialNetwork, threads: usize) -> Vec<u8> {
    let ps = PivotSelectConfig {
        count: 4,
        ..Default::default()
    };
    let ch = ChOracle::build_with_threads(ssn.road().graph(), threads);
    let ids = select_road_pivots(ssn.road(), &ch, &ps);
    let pivots = RoadPivots::new_with_threads(ssn.road(), ids, threads);
    let (idx, _) = RoadIndex::build_with_stages(
        ssn.road(),
        ssn.pois(),
        pivots,
        RoadIndexConfig::default(),
        Some(ch),
        threads,
    );
    let mut bytes = Vec::new();
    write_road_index(&idx, &mut bytes).expect("serialize road index");
    bytes
}

#[test]
fn road_index_bytes_identical_across_thread_counts() {
    let ssn = small_ssn(7);
    let base = road_bytes(&ssn, 1);
    let base_crc = crc32(&base);
    for threads in [2usize, 8, 0] {
        let bytes = road_bytes(&ssn, threads);
        assert_eq!(
            crc32(&bytes),
            base_crc,
            "crc32 diverges at threads={threads}"
        );
        assert_eq!(bytes, base, "serialized bytes diverge at threads={threads}");
    }
}

#[test]
fn pivot_selection_identical_across_thread_counts() {
    let ssn = small_ssn(5);
    let ps = PivotSelectConfig {
        count: 5,
        ..Default::default()
    };
    let road_over = |threads: usize| {
        let ch = ChOracle::build_with_threads(ssn.road().graph(), threads);
        select_road_pivots(ssn.road(), &ch, &ps)
    };
    let road = road_over(1);
    let social = select_social_pivots(ssn.social(), &ps);
    assert_eq!(road.len(), 5);
    assert_eq!(social.len(), 5);
    for threads in [2usize, 8, 0] {
        assert_eq!(
            road_over(threads),
            road,
            "road pivots diverge at threads={threads}"
        );
        assert_eq!(
            select_social_pivots(ssn.social(), &ps),
            social,
            "social pivots diverge at threads={threads}"
        );
    }
}

#[test]
fn parallel_build_round_trips_through_the_v2_format() {
    let ssn = small_ssn(11);
    let bytes = road_bytes(&ssn, 0);
    let idx = read_road_index(ssn.road(), ssn.pois(), &bytes[..]).expect("read back");
    let mut again = Vec::new();
    write_road_index(&idx, &mut again).expect("re-serialize");
    assert_eq!(again, bytes, "round-trip changed the bytes");
}

#[test]
fn social_index_identical_across_thread_counts() {
    let ssn = small_ssn(13);
    let ps = PivotSelectConfig {
        count: 3,
        ..Default::default()
    };
    let build = |threads: usize| -> SocialIndex {
        let sp = SocialPivots::new_with_threads(
            ssn.social(),
            select_social_pivots(ssn.social(), &ps),
            threads,
        );
        let rp = RoadPivots::new_with_threads(
            ssn.road(),
            select_road_pivots(
                ssn.road(),
                &ChOracle::build_with_threads(ssn.road().graph(), threads),
                &ps,
            ),
            threads,
        );
        let cfg = SocialIndexConfig {
            leaf_size: 8,
            fanout: 3,
        };
        SocialIndex::build_with_stages(&ssn, sp, &rp, &cfg, threads).0
    };
    let base = build(1);
    let m = ssn.social().num_users();
    for threads in [2usize, 8, 0] {
        let idx = build(threads);
        assert_eq!(
            idx.root(),
            base.root(),
            "root diverges at threads={threads}"
        );
        assert_eq!(idx.height(), base.height());
        assert_eq!(idx.num_pages(), base.num_pages());
        for id in 0..base.num_pages() as u32 {
            assert_eq!(
                format!("{:?}", idx.node(id)),
                format!("{:?}", base.node(id)),
                "node {id} diverges at threads={threads}"
            );
        }
        for u in 0..m as u32 {
            assert_eq!(idx.user_sn_dists(u), base.user_sn_dists(u));
            let a = idx.user_rn_dists(u);
            let b = base.user_rn_dists(u);
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "user {u} road table diverges at threads={threads}"
            );
        }
    }
}
