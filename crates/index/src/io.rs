//! Simulated page-access (I/O) accounting, with an optional LRU buffer
//! pool.
//!
//! The paper reports the number of page accesses during query answering.
//! We model each index node (of either `I_R` or `I_S`) as one page of a
//! paged index file; visiting a node during traversal or refinement costs
//! one page access; the engine counts the accesses of each query in its
//! per-query counter record.
//!
//! [`PageCache`] adds the classic database refinement: an LRU buffer pool
//! in front of the page file, so repeated touches of a hot page (e.g. the
//! index roots, or leaf pages revisited across refinement rounds) only
//! cost one physical read. The `cache` experiment in `gpssn-bench`
//! sweeps the pool size.

use std::collections::HashMap;

/// A strict-LRU page cache: `access` returns whether the page was
/// resident, inserting (and evicting the least-recently-used page) when
/// it was not.
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    /// page → last-use stamp.
    resident: HashMap<u64, u64>,
    clock: u64,
}

impl PageCache {
    /// A pool holding up to `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "page cache needs capacity");
        PageCache {
            capacity,
            resident: HashMap::with_capacity(capacity + 1),
            clock: 0,
        }
    }

    /// Touches `page`: `true` on hit, `false` on miss (page is brought
    /// in, evicting the LRU page if the pool is full).
    pub fn access(&mut self, page: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        if let Some(stamp) = self.resident.get_mut(&page) {
            *stamp = clock;
            return true;
        }
        if self.resident.len() == self.capacity {
            // Evict the least recently used (linear scan: pool sizes in
            // this simulation are tens-to-thousands of entries, and
            // misses — the only path that scans — are what we count).
            // `capacity > 0` is asserted at construction, so a full pool
            // always yields a victim; `if let` keeps this panic-free.
            if let Some((&lru, _)) = self.resident.iter().min_by_key(|&(_, &stamp)| stamp) {
                self.resident.remove(&lru);
            }
        }
        self.resident.insert(page, clock);
        false
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Evicts everything.
    pub fn clear(&mut self) {
        self.resident.clear();
        self.clock = 0;
    }
}

/// Page-id namespace helpers: `I_R` and `I_S` nodes live in one simulated
/// file each.
pub mod page_ids {
    /// Page id of road-index node `n`.
    pub fn road(n: u32) -> u64 {
        n as u64
    }

    /// Page id of social-index node `n`.
    pub fn social(n: u32) -> u64 {
        (1u64 << 32) | n as u64
    }
}

// ---------------------------------------------------------------------
// Road-index persistence.
// ---------------------------------------------------------------------

use crate::road_index::{PoiAugment, RoadIndex, RoadIndexConfig};
use gpssn_graph::ChOracle;
use gpssn_road::{PoiSet, RoadNetwork, RoadPivots};
use gpssn_spatial::KeywordSignature;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic-line prefix shared by every format version.
const INDEX_MAGIC_PREFIX: &str = "# gpssn-road-index ";

/// The current format: v2's checksummed sections, with every distance
/// computed over road lengths on the `2⁻³²` grid and the CH section
/// holding `tail head weight` arcs only. Files of older versions hold
/// distances that grid-rounded lengths no longer reproduce, so they are
/// refused with [`UnsupportedIndexVersion`] rather than loaded.
const INDEX_MAGIC: &str = "# gpssn-road-index v3";

/// The serialized sections of an index file, in file order. Each is
/// independently CRC-32-checked on load, so corruption is reported (and,
/// for the `ch` section, healed) at section granularity.
const SECTION_NAMES: [&str; 4] = ["cfg", "pivots", "pois", "ch"];

/// Upper bound for pre-allocation from untrusted counts (matches the
/// `gpssn-ssn` reader): a corrupt header must not abort inside
/// `with_capacity`; vectors still grow to the real size on demand.
const MAX_PREALLOC: usize = 1 << 16;

/// Typed payload behind the `InvalidData` [`io::Error`] returned when a
/// section fails its checksum; recover it with [`corrupt_section`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptSection {
    /// Which serialized section failed verification (`"cfg"`,
    /// `"pivots"`, `"pois"`, or `"ch"`).
    pub section: String,
}

impl std::fmt::Display for CorruptSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "road-index section {:?} failed its checksum",
            self.section
        )
    }
}

impl std::error::Error for CorruptSection {}

/// The corrupt section's name, when `e` is a checksum failure from the
/// index reader (`None` for every other I/O error). This is what
/// callers use to map the error onto a typed `IndexCorrupt` and to
/// decide whether a rebuild can heal it.
pub fn corrupt_section(e: &io::Error) -> Option<&str> {
    e.get_ref()?
        .downcast_ref::<CorruptSection>()
        .map(|c| c.section.as_str())
}

/// Typed payload behind the `InvalidData` [`io::Error`] returned for an
/// index file of an older format version; recover it with
/// [`unsupported_version`]. The cure is to rebuild the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedIndexVersion {
    /// The version tag the file declares (e.g. `"v2"`).
    pub found: String,
}

impl std::fmt::Display for UnsupportedIndexVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsupported road-index version {} (this build reads v3); rebuild the index",
            self.found
        )
    }
}

impl std::error::Error for UnsupportedIndexVersion {}

/// The declared version, when `e` reports an index file of an older
/// format version (`None` for every other I/O error).
pub fn unsupported_version(e: &io::Error) -> Option<&str> {
    e.get_ref()?
        .downcast_ref::<UnsupportedIndexVersion>()
        .map(|u| u.found.as_str())
}

fn corrupt(section: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        CorruptSection {
            section: section.to_string(),
        },
    )
}

/// Serializes a [`RoadIndex`] as versioned plain text (the v3 sectioned
/// format: every section carries a line count and a CRC-32 of its body,
/// so loads verify integrity per section).
///
/// Only the expensive-to-recompute parts are written: the per-POI
/// keyword balls with pivot distances, and the contraction-hierarchy
/// oracle (when present). The R\*-tree, node aggregates, signatures, and
/// the pivot distance table are deterministic functions of the POI set /
/// road network and are rebuilt on load.
pub fn write_road_index<W: Write>(idx: &RoadIndex, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{INDEX_MAGIC}")?;
    let cfg = idx.config();
    let mut body = Vec::new();
    writeln!(
        body,
        "cfg {} {:?} {:?} {}",
        cfg.node_capacity, cfg.r_min, cfg.r_max, cfg.samples_per_node
    )?;
    write_section(&mut w, "cfg", &body)?;

    body.clear();
    let pivots = idx.pivots();
    writeln!(body, "pivots {}", pivots.len())?;
    for &p in pivots.pivots() {
        writeln!(body, "{p}")?;
    }
    write_section(&mut w, "pivots", &body)?;

    body.clear();
    writeln!(body, "pois {}", idx.num_pois())?;
    for id in 0..idx.num_pois() as u32 {
        let a = idx.poi(id);
        writeln!(body, "{}", join_u32(&a.sup_keywords))?;
        writeln!(body, "{}", join_u32(&a.sub_keywords))?;
        let ds: Vec<String> = a.pivot_dists.iter().map(|d| format!("{d:?}")).collect();
        writeln!(body, "{}", ds.join(" "))?;
    }
    write_section(&mut w, "pois", &body)?;

    body.clear();
    match idx.ch() {
        Some(ch) => {
            writeln!(body, "has-ch 1")?;
            ch.write_text(&mut body)?;
        }
        None => writeln!(body, "has-ch 0")?,
    }
    write_section(&mut w, "ch", &body)?;
    w.flush()
}

/// Writes one section: a `section <name> <lines> <crc32>` header, then
/// the body verbatim. The CRC covers the body bytes exactly as written.
fn write_section<W: Write>(w: &mut W, name: &str, body: &[u8]) -> io::Result<()> {
    let nlines = body.iter().filter(|&&b| b == b'\n').count();
    let crc = crate::crc32::crc32(body);
    writeln!(w, "section {name} {nlines} {crc:08x}")?;
    w.write_all(body)
}

/// Deserializes a [`RoadIndex`] written by [`write_road_index`],
/// verifying every section's CRC-32 — a mismatch is an `InvalidData`
/// error carrying [`CorruptSection`]. A file of an older format version
/// is an `InvalidData` error carrying [`UnsupportedIndexVersion`].
///
/// `road` and `pois` must be the network and POI set the index was built
/// over (counts are validated). An index saved without a CH oracle loads
/// fine — the engine then answers `dist_RN` probes via the Dijkstra
/// fallback. To *recover* from a corrupt `ch` section instead of
/// failing, use [`read_road_index_healing`].
pub fn read_road_index<R: Read>(road: &RoadNetwork, pois: &PoiSet, r: R) -> io::Result<RoadIndex> {
    if gpssn_failpoint::failpoint!("index::read_road_index") {
        return Err(io::Error::other("injected fault: index::read_road_index"));
    }
    let sections = read_sections(r)?;
    assemble(road, pois, &sections, false).map(|h| h.index)
}

/// Outcome of a healing index load (see [`read_road_index_healing`]).
#[derive(Debug)]
pub struct HealedLoad {
    /// The loaded (possibly partially rebuilt) index.
    pub index: RoadIndex,
    /// Whether the CH section was corrupt and the oracle was rebuilt
    /// from the road graph. The rebuild is bit-identical in effect: CH
    /// distance answers match plain Dijkstra exactly either way.
    pub rebuilt_ch: bool,
}

/// Self-healing variant of [`read_road_index`]: a file whose `ch`
/// section fails its checksum is *healed* by rebuilding the
/// contraction-hierarchy oracle from the road graph (deterministic, and
/// answer-equivalent — the oracle is a pure accelerator). Corruption in
/// any other section (`cfg`, `pivots`, `pois`) is not recoverable from
/// the inputs at hand and stays a [`CorruptSection`] error, and an older
/// format version stays an [`UnsupportedIndexVersion`] error.
pub fn read_road_index_healing<R: Read>(
    road: &RoadNetwork,
    pois: &PoiSet,
    r: R,
) -> io::Result<HealedLoad> {
    if gpssn_failpoint::failpoint!("index::read_road_index") {
        return Err(io::Error::other("injected fault: index::read_road_index"));
    }
    let sections = read_sections(r)?;
    assemble(road, pois, &sections, true)
}

/// One section, read off the file: its name, whether its body matched
/// the stored CRC, and the body text itself.
struct Section {
    name: String,
    ok: bool,
    body: String,
}

/// Checks the magic line, then reads every `section <name> <lines>
/// <crc32>` block to end of input.
fn read_sections<R: Read>(r: R) -> io::Result<Vec<Section>> {
    let mut lines = BufReader::new(r).lines();
    let magic = next_line(&mut lines)?;
    let magic = magic.trim();
    if magic != INDEX_MAGIC {
        return Err(match magic.strip_prefix(INDEX_MAGIC_PREFIX) {
            Some(version) => io::Error::new(
                io::ErrorKind::InvalidData,
                UnsupportedIndexVersion {
                    found: version.to_string(),
                },
            ),
            None => bad_data("bad road-index magic"),
        });
    }
    let mut out = Vec::new();
    while let Some(header) = lines.next() {
        let header = header?;
        if header.trim().is_empty() {
            continue;
        }
        let mut it = header.split_whitespace();
        expect_tag(it.next(), "section")?;
        let name: String = parse(it.next())?;
        let nlines: usize = parse(it.next())?;
        let want: String = parse(it.next())?;
        let mut body = String::new();
        for _ in 0..nlines {
            match lines.next() {
                Some(l) => {
                    body.push_str(&l?);
                    body.push('\n');
                }
                None => return Err(bad_data("unexpected end of road-index file")),
            }
        }
        let got = format!("{:08x}", crate::crc32::crc32(body.as_bytes()));
        out.push(Section {
            name,
            ok: got == want,
            body,
        });
    }
    Ok(out)
}

/// Parses the four verified sections into a [`RoadIndex`]. With
/// `heal` set, a corrupt `ch` section is replaced by a fresh
/// [`ChOracle::build`] over the road graph; otherwise (and for every
/// other corrupt section) the load fails with [`CorruptSection`].
fn assemble(
    road: &RoadNetwork,
    pois: &PoiSet,
    sections: &[Section],
    heal: bool,
) -> io::Result<HealedLoad> {
    if sections.len() != SECTION_NAMES.len()
        || sections
            .iter()
            .zip(SECTION_NAMES)
            .any(|(s, want)| s.name != want)
    {
        return Err(bad_data("road-index sections missing or out of order"));
    }
    let ch_corruptible = gpssn_failpoint::failpoint!("index::ch_corrupt");
    for s in sections {
        let ch_faulted = s.name == "ch" && ch_corruptible;
        if !s.ok || ch_faulted {
            if heal && s.name == "ch" {
                continue; // rebuilt below
            }
            return Err(corrupt(&s.name));
        }
    }
    let section = |name: &str| -> &Section {
        // Position is validated against SECTION_NAMES above.
        &sections[SECTION_NAMES.iter().position(|&n| n == name).unwrap_or(0)]
    };
    let mut lines = section("cfg").body.as_bytes().lines();
    let (node_capacity, r_min, r_max, samples_per_node) = parse_cfg(&mut lines)?;
    let mut lines = section("pivots").body.as_bytes().lines();
    let pivot_ids = parse_pivots(&mut lines, road)?;
    let mut lines = section("pois").body.as_bytes().lines();
    let poi_aug = parse_pois(&mut lines, pois, pivot_ids.len())?;
    let ch_section = section("ch");
    let (ch, rebuilt_ch) = if ch_section.ok && !ch_corruptible {
        let mut lines = ch_section.body.as_bytes().lines();
        (parse_ch(&mut lines, road)?, false)
    } else {
        // Healing: the oracle is a deterministic function of the road
        // graph, so a corrupt section costs a rebuild, not the load.
        // `build` is the parallel contraction (all cores) — its output
        // is bit-identical for every thread count, so the healed index
        // byte-matches one rebuilt sequentially.
        (Some(ChOracle::build(road.graph())), true)
    };
    let cfg = RoadIndexConfig {
        node_capacity,
        r_min,
        r_max,
        samples_per_node,
        build_ch: ch.is_some(),
    };
    // The pivot table is h exact Dijkstra columns — deterministic (and
    // thread-count invariant), so it is rebuilt on all cores rather than
    // stored.
    let pivots = RoadPivots::new_with_threads(road, pivot_ids, 0);
    Ok(HealedLoad {
        index: RoadIndex::from_loaded_parts(pois, pivots, cfg, poi_aug, ch),
        rebuilt_ch,
    })
}

fn parse_cfg<B: BufRead>(lines: &mut io::Lines<B>) -> io::Result<(usize, f64, f64, usize)> {
    let header = next_line(lines)?;
    let mut it = header.split_whitespace();
    expect_tag(it.next(), "cfg")?;
    let node_capacity: usize = parse(it.next())?;
    let r_min: f64 = parse(it.next())?;
    let r_max: f64 = parse(it.next())?;
    let samples_per_node: usize = parse(it.next())?;
    if !(r_min > 0.0 && r_max >= r_min) {
        return Err(bad_data("invalid radius range"));
    }
    Ok((node_capacity, r_min, r_max, samples_per_node))
}

fn parse_pivots<B: BufRead>(lines: &mut io::Lines<B>, road: &RoadNetwork) -> io::Result<Vec<u32>> {
    let header = next_line(lines)?;
    let mut it = header.split_whitespace();
    expect_tag(it.next(), "pivots")?;
    let h: usize = parse(it.next())?;
    let mut pivot_ids = Vec::with_capacity(h.min(MAX_PREALLOC));
    for _ in 0..h {
        let p: u32 = parse(Some(next_line(lines)?.trim()))?;
        if (p as usize) >= road.num_vertices() {
            return Err(bad_data("pivot vertex out of range"));
        }
        pivot_ids.push(p);
    }
    Ok(pivot_ids)
}

fn parse_pois<B: BufRead>(
    lines: &mut io::Lines<B>,
    pois: &PoiSet,
    h: usize,
) -> io::Result<Vec<PoiAugment>> {
    let header = next_line(lines)?;
    let mut it = header.split_whitespace();
    expect_tag(it.next(), "pois")?;
    let n: usize = parse(it.next())?;
    if n != pois.len() {
        return Err(bad_data("index POI count does not match the POI set"));
    }
    let mut poi_aug = Vec::with_capacity(n.min(MAX_PREALLOC));
    for _ in 0..n {
        let sup_keywords = parse_u32_list(&next_line(lines)?)?;
        let sub_keywords = parse_u32_list(&next_line(lines)?)?;
        let dist_line = next_line(lines)?;
        let mut pivot_dists = Vec::with_capacity(h.min(MAX_PREALLOC));
        for tok in dist_line.split_whitespace() {
            pivot_dists.push(parse::<f64>(Some(tok))?);
        }
        if pivot_dists.len() != h {
            return Err(bad_data("pivot distance arity mismatch"));
        }
        let sup_sig = KeywordSignature::from_keywords(sup_keywords.iter().copied());
        let sub_sig = KeywordSignature::from_keywords(sub_keywords.iter().copied());
        poi_aug.push(PoiAugment {
            sup_keywords,
            sub_keywords,
            sup_sig,
            sub_sig,
            pivot_dists,
        });
    }
    Ok(poi_aug)
}

fn parse_ch<B: BufRead>(
    lines: &mut io::Lines<B>,
    road: &RoadNetwork,
) -> io::Result<Option<ChOracle>> {
    let header = next_line(lines)?;
    let mut it = header.split_whitespace();
    expect_tag(it.next(), "has-ch")?;
    let has_ch: u8 = parse(it.next())?;
    match has_ch {
        0 => Ok(None),
        1 => {
            let ch = ChOracle::read_text(lines)?;
            if ch.num_nodes() != road.num_vertices() {
                return Err(bad_data("ch oracle size does not match the road network"));
            }
            Ok(Some(ch))
        }
        _ => Err(bad_data("has-ch must be 0 or 1")),
    }
}

/// [`write_road_index`] to a file path.
pub fn save_road_index(idx: &RoadIndex, path: impl AsRef<Path>) -> io::Result<()> {
    write_road_index(idx, std::fs::File::create(path)?)
}

/// [`read_road_index`] from a file path.
pub fn load_road_index(
    road: &RoadNetwork,
    pois: &PoiSet,
    path: impl AsRef<Path>,
) -> io::Result<RoadIndex> {
    read_road_index(road, pois, std::fs::File::open(path)?)
}

/// [`read_road_index_healing`] from a file path.
pub fn load_road_index_healing(
    road: &RoadNetwork,
    pois: &PoiSet,
    path: impl AsRef<Path>,
) -> io::Result<HealedLoad> {
    read_road_index_healing(road, pois, std::fs::File::open(path)?)
}

fn join_u32(xs: &[u32]) -> String {
    xs.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_u32_list(line: &str) -> io::Result<Vec<u32>> {
    line.split_whitespace().map(|t| parse(Some(t))).collect()
}

fn next_line<B: BufRead>(lines: &mut io::Lines<B>) -> io::Result<String> {
    lines
        .next()
        .ok_or_else(|| bad_data("unexpected end of road-index file"))?
}

fn expect_tag(tok: Option<&str>, tag: &str) -> io::Result<()> {
    if tok == Some(tag) {
        Ok(())
    } else {
        Err(bad_data("unexpected road-index section tag"))
    }
}

fn parse<T: std::str::FromStr>(field: Option<&str>) -> io::Result<T> {
    field
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("malformed road-index field"))
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut cache = PageCache::new(2);
        assert!(!cache.access(1));
        assert!(!cache.access(2));
        assert!(cache.access(1)); // 1 is now most recent
        assert!(!cache.access(3)); // evicts 2
        assert!(cache.access(1));
        assert!(!cache.access(2)); // 2 was evicted
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_empties_pool() {
        let mut cache = PageCache::new(2);
        cache.access(1);
        cache.clear();
        assert!(cache.is_empty());
        assert!(!cache.access(1)); // miss again after clear
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        PageCache::new(0);
    }

    #[test]
    fn page_id_namespaces_do_not_collide() {
        assert_ne!(page_ids::road(5), page_ids::social(5));
        assert_eq!(page_ids::road(5), 5);
    }

    use gpssn_graph::ValueDistribution;
    use gpssn_road::{generate_pois, generate_road_network, PoiGenConfig, RoadGenConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn small_instance() -> (RoadNetwork, PoiSet) {
        let mut rng = StdRng::seed_from_u64(33);
        let road = generate_road_network(
            &RoadGenConfig {
                num_vertices: 200,
                space_size: 20.0,
                neighbors_per_vertex: 2,
            },
            &mut rng,
        );
        let pois = PoiSet::new(
            &road,
            generate_pois(
                &road,
                &PoiGenConfig {
                    num_pois: 80,
                    num_keywords: 5,
                    max_keywords_per_poi: 3,
                    distribution: ValueDistribution::Uniform,
                    keyword_locality: 0.8,
                },
                &mut rng,
            ),
        );
        (road, pois)
    }

    fn build_index(road: &RoadNetwork, pois: &PoiSet, build_ch: bool) -> RoadIndex {
        let pivots = RoadPivots::new(road, vec![0, 40, 90]);
        RoadIndex::build(
            road,
            pois,
            pivots,
            RoadIndexConfig {
                r_max: 3.0,
                build_ch,
                ..Default::default()
            },
        )
    }

    fn assert_same_index(a: &RoadIndex, b: &RoadIndex) {
        assert_eq!(a.num_pois(), b.num_pois());
        assert_eq!(a.num_pages(), b.num_pages());
        assert_eq!(a.pivots().pivots(), b.pivots().pivots());
        for id in 0..a.num_pois() as u32 {
            let (x, y) = (a.poi(id), b.poi(id));
            assert_eq!(x.sup_keywords, y.sup_keywords);
            assert_eq!(x.sub_keywords, y.sub_keywords);
            assert_eq!(x.sup_sig, y.sup_sig);
            assert_eq!(x.sub_sig, y.sub_sig);
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|d| d.to_bits()).collect() };
            assert_eq!(bits(&x.pivot_dists), bits(&y.pivot_dists));
        }
        for n in 0..a.num_pages() as u32 {
            let (x, y) = (a.node(n), b.node(n));
            assert_eq!(x.sup_sig, y.sup_sig);
            assert_eq!(x.samples, y.samples);
            assert_eq!(x.poi_count, y.poi_count);
        }
    }

    #[test]
    fn road_index_round_trips_with_ch() {
        let (road, pois) = small_instance();
        let idx = build_index(&road, &pois, true);
        assert!(idx.ch().is_some());
        let mut buf = Vec::new();
        write_road_index(&idx, &mut buf).unwrap();
        let back = read_road_index(&road, &pois, &buf[..]).unwrap();
        assert_same_index(&idx, &back);
        // The CH oracle round-trips to bit-identical answers.
        let (orig, loaded) = (idx.ch().unwrap(), back.ch().unwrap());
        let mut s = gpssn_graph::ChSearch::new();
        let targets: Vec<u32> = (0..road.num_vertices() as u32).step_by(7).collect();
        for src in [0u32, 11, 63] {
            let (x, _) = orig.dists(&mut s, &[(src, 0.0)], &targets);
            let (y, _) = loaded.dists(&mut s, &[(src, 0.0)], &targets);
            for (a, b) in x.iter().zip(y.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn ch_less_index_round_trips_and_loads() {
        let (road, pois) = small_instance();
        let idx = build_index(&road, &pois, false);
        assert!(idx.ch().is_none());
        let mut buf = Vec::new();
        write_road_index(&idx, &mut buf).unwrap();
        let back = read_road_index(&road, &pois, &buf[..]).unwrap();
        assert!(back.ch().is_none(), "CH-less index must stay CH-less");
        assert_same_index(&idx, &back);
    }

    #[test]
    fn read_road_index_rejects_mismatched_pois() {
        let (road, pois) = small_instance();
        let idx = build_index(&road, &pois, false);
        let mut buf = Vec::new();
        write_road_index(&idx, &mut buf).unwrap();
        // A POI set of a different size must be rejected.
        let mut rng = StdRng::seed_from_u64(9);
        let other = PoiSet::new(
            &road,
            generate_pois(
                &road,
                &PoiGenConfig {
                    num_pois: 10,
                    num_keywords: 3,
                    max_keywords_per_poi: 2,
                    distribution: ValueDistribution::Uniform,
                    keyword_locality: 0.5,
                },
                &mut rng,
            ),
        );
        assert!(read_road_index(&road, &other, &buf[..]).is_err());
    }

    #[test]
    fn read_road_index_rejects_garbage() {
        let (road, pois) = small_instance();
        for text in ["", "# wrong magic\n", "# gpssn-road-index v1\ncfg nope\n"] {
            assert!(read_road_index(&road, &pois, text.as_bytes()).is_err());
        }
    }

    /// Flips one character inside the body of the named section (leaving
    /// every header line intact), simulating bit rot.
    fn corrupt_body(text: &str, name: &str) -> String {
        let mut out = Vec::new();
        let mut in_target = false;
        let mut done = false;
        for line in text.lines() {
            if line.starts_with("section ") {
                in_target = line.split_whitespace().nth(1) == Some(name);
                out.push(line.to_string());
                continue;
            }
            if in_target && !done && !line.is_empty() {
                let mut chars: Vec<char> = line.chars().collect();
                chars[0] = if chars[0] == '0' { '1' } else { '0' };
                out.push(chars.into_iter().collect());
                done = true;
            } else {
                out.push(line.to_string());
            }
        }
        assert!(done, "section {name} had no body to corrupt");
        out.join("\n") + "\n"
    }

    #[test]
    fn older_format_versions_are_refused() {
        let (road, pois) = small_instance();
        let idx = build_index(&road, &pois, true);
        let mut buf = Vec::new();
        write_road_index(&idx, &mut buf).unwrap();
        let text = std::str::from_utf8(&buf).unwrap();
        for old in ["v1", "v2"] {
            let file = text.replacen("v3", old, 1);
            let err = read_road_index(&road, &pois, file.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(unsupported_version(&err), Some(old));
            assert!(err.to_string().contains("rebuild"), "{err}");
            let err = read_road_index_healing(&road, &pois, file.as_bytes()).unwrap_err();
            assert_eq!(unsupported_version(&err), Some(old));
        }
        let err = read_road_index(&road, &pois, b"# wrong magic\n".as_slice()).unwrap_err();
        assert_eq!(unsupported_version(&err), None);
    }

    #[test]
    fn corrupt_sections_yield_targeted_errors() {
        let (road, pois) = small_instance();
        let idx = build_index(&road, &pois, true);
        let mut buf = Vec::new();
        write_road_index(&idx, &mut buf).unwrap();
        let text = std::str::from_utf8(&buf).unwrap();
        for name in ["cfg", "pivots", "pois", "ch"] {
            let bad = corrupt_body(text, name);
            let err = read_road_index(&road, &pois, bad.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert_eq!(corrupt_section(&err), Some(name));
        }
        // Ordinary parse errors carry no CorruptSection payload.
        let err = read_road_index(&road, &pois, b"garbage".as_slice()).unwrap_err();
        assert_eq!(corrupt_section(&err), None);
    }

    #[test]
    fn healing_rebuilds_only_the_ch_section() {
        let (road, pois) = small_instance();
        let idx = build_index(&road, &pois, true);
        let mut buf = Vec::new();
        write_road_index(&idx, &mut buf).unwrap();
        let text = std::str::from_utf8(&buf).unwrap();

        let bad_ch = corrupt_body(text, "ch");
        let healed = read_road_index_healing(&road, &pois, bad_ch.as_bytes()).unwrap();
        assert!(healed.rebuilt_ch);
        assert_same_index(&idx, &healed.index);
        // The rebuilt oracle answers bit-identically to the original.
        let (orig, rebuilt) = (idx.ch().unwrap(), healed.index.ch().unwrap());
        let mut s = gpssn_graph::ChSearch::new();
        let targets: Vec<u32> = (0..road.num_vertices() as u32).step_by(7).collect();
        for src in [0u32, 11, 63] {
            let (x, _) = orig.dists(&mut s, &[(src, 0.0)], &targets);
            let (y, _) = rebuilt.dists(&mut s, &[(src, 0.0)], &targets);
            for (a, b) in x.iter().zip(y.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Corruption anywhere else is not healable.
        for name in ["cfg", "pivots", "pois"] {
            let bad = corrupt_body(text, name);
            let err = read_road_index_healing(&road, &pois, bad.as_bytes()).unwrap_err();
            assert_eq!(corrupt_section(&err), Some(name), "{name} must stay fatal");
        }
    }

    #[test]
    fn intact_v2_files_do_not_trigger_healing() {
        let (road, pois) = small_instance();
        let idx = build_index(&road, &pois, false);
        let mut buf = Vec::new();
        write_road_index(&idx, &mut buf).unwrap();
        let healed = read_road_index_healing(&road, &pois, &buf[..]).unwrap();
        assert!(!healed.rebuilt_ch);
        assert!(healed.index.ch().is_none());
        assert_same_index(&idx, &healed.index);
    }
}
