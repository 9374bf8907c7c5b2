//! Bit-flip fuzz over the persisted road-index format.
//!
//! The serialized index is the one artifact that crosses a process
//! boundary, so its reader must be total: for *any* single-bit
//! corruption at *any* byte offset, `read_road_index` must return a
//! clean `InvalidData` error (never panic, never mis-load), and the
//! healing reader must additionally recover whenever the damage is
//! confined to the rebuildable CH section.

use gpssn::graph::ValueDistribution;
use gpssn::index::{
    corrupt_section, read_road_index, read_road_index_healing, unsupported_version,
    write_road_index, RoadIndex, RoadIndexConfig,
};
use gpssn::road::{
    generate_pois, generate_road_network, PoiGenConfig, PoiSet, RoadGenConfig, RoadNetwork,
    RoadPivots,
};
use rand::{rngs::StdRng, SeedableRng};
use std::io::ErrorKind;

/// A deliberately tiny instance: the fuzz loop parses the file once per
/// byte offset, so the file must stay small for the sweep to be cheap.
fn tiny_instance() -> (RoadNetwork, PoiSet) {
    let mut rng = StdRng::seed_from_u64(7);
    let road = generate_road_network(
        &RoadGenConfig {
            num_vertices: 48,
            space_size: 10.0,
            neighbors_per_vertex: 2,
        },
        &mut rng,
    );
    let pois = PoiSet::new(
        &road,
        generate_pois(
            &road,
            &PoiGenConfig {
                num_pois: 12,
                num_keywords: 4,
                max_keywords_per_poi: 2,
                distribution: ValueDistribution::Uniform,
                keyword_locality: 0.8,
            },
            &mut rng,
        ),
    );
    (road, pois)
}

fn tiny_index(road: &RoadNetwork, pois: &PoiSet) -> RoadIndex {
    RoadIndex::build(
        road,
        pois,
        RoadPivots::new(road, vec![0, 24]),
        RoadIndexConfig {
            r_max: 3.0,
            build_ch: true,
            ..Default::default()
        },
    )
}

/// Every byte offset, one flipped bit per seed: the strict reader either
/// rejects the file with `InvalidData` (optionally carrying the corrupt
/// section's name) or — never observed for a real flip, but permitted —
/// returns an index equivalent to the original.
#[test]
fn single_bit_flips_never_panic_the_reader() {
    let (road, pois) = tiny_instance();
    let idx = tiny_index(&road, &pois);
    let mut bytes = Vec::new();
    write_road_index(&idx, &mut bytes).unwrap();

    for seed in [0u64, 1, 2] {
        for offset in 0..bytes.len() {
            // A cheap per-(seed, offset) bit choice keeps the sweep
            // deterministic while varying which bit each seed hits.
            let bit = ((offset as u64).wrapping_mul(31).wrapping_add(seed * 13) % 8) as u8;
            let mut flipped = bytes.clone();
            flipped[offset] ^= 1 << bit;
            match read_road_index(&road, &pois, &flipped[..]) {
                Ok(back) => {
                    // The flip must have been semantically invisible for
                    // the load to succeed; the index must still be whole.
                    assert_eq!(back.num_pois(), idx.num_pois());
                    assert_eq!(back.pivots().pivots(), idx.pivots().pivots());
                }
                Err(e) => assert_eq!(
                    e.kind(),
                    ErrorKind::InvalidData,
                    "offset {offset} bit {bit}: unexpected error kind from {e}"
                ),
            }
        }
    }
}

/// The same sweep through the healing reader: damage confined to the CH
/// section is always healed (the oracle is rebuilt from the road graph);
/// everything else still fails closed with `InvalidData`.
#[test]
fn healing_reader_survives_every_single_bit_flip() {
    let (road, pois) = tiny_instance();
    let idx = tiny_index(&road, &pois);
    let mut bytes = Vec::new();
    write_road_index(&idx, &mut bytes).unwrap();

    // Locate the CH section body: flips strictly inside it must heal.
    let text = std::str::from_utf8(&bytes).unwrap();
    let ch_body_start = text
        .lines()
        .take_while(|l| !l.starts_with("section ch "))
        .map(|l| l.len() + 1)
        .sum::<usize>()
        + text
            .lines()
            .find(|l| l.starts_with("section ch "))
            .expect("index file has a ch section")
            .len()
        + 1;

    let mut healed_loads = 0u32;
    for offset in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[offset] ^= 1 << (offset % 8);
        match read_road_index_healing(&road, &pois, &flipped[..]) {
            Ok(h) => {
                assert_eq!(h.index.num_pois(), idx.num_pois());
                if h.rebuilt_ch {
                    healed_loads += 1;
                    assert!(h.index.ch().is_some(), "healing must leave an oracle");
                }
            }
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::InvalidData, "offset {offset}: {e}");
                assert!(
                    offset < ch_body_start || corrupt_section(&e).is_none(),
                    "offset {offset} lies in the CH body but was not healed: {e}"
                );
            }
        }
    }
    assert!(
        healed_loads > 0,
        "no flip in the CH body exercised the healing path"
    );
}

/// A file written under the v2 format holds distances over lengths that
/// were not on the `2⁻³²` grid. Both readers refuse it with a typed
/// "unsupported version, rebuild" error instead of loading answers that
/// would silently differ.
#[test]
fn v2_index_files_get_a_typed_rebuild_error() {
    let (road, pois) = tiny_instance();
    let idx = tiny_index(&road, &pois);
    let mut bytes = Vec::new();
    write_road_index(&idx, &mut bytes).unwrap();
    let text = std::str::from_utf8(&bytes).unwrap();
    let (magic, body) = text.split_once('\n').unwrap();
    assert_eq!(magic, "# gpssn-road-index v3");
    let v2 = format!("# gpssn-road-index v2\n{body}");
    let err = read_road_index(&road, &pois, v2.as_bytes()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert_eq!(unsupported_version(&err), Some("v2"));
    assert_eq!(corrupt_section(&err), None);
    assert!(err.to_string().contains("rebuild"), "{err}");
    let err = read_road_index_healing(&road, &pois, v2.as_bytes()).unwrap_err();
    assert_eq!(unsupported_version(&err), Some("v2"));
}
