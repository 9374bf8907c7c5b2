//! Plain-text serialization of spatial-social networks.
//!
//! A simple line-oriented format (versioned header, one section per
//! layer) so generated datasets can be saved once and reused across runs
//! and tools — see the `datagen` and `gpq` binaries in `gpssn-bench`.
//! The format is exact for the graph structure and keywords; floating
//! point fields round-trip through their shortest-exact `{:?}` encoding.

use crate::network::SpatialSocialNetwork;
use gpssn_road::{NetworkPoint, Poi, PoiSet, RoadNetwork};
use gpssn_social::{InterestVector, SocialNetwork};
use gpssn_spatial::Point;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &str = "# gpssn-ssn v1";

/// Serializes `ssn` to `w`.
pub fn write_ssn<W: Write>(ssn: &SpatialSocialNetwork, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{MAGIC}")?;

    let road = ssn.road();
    writeln!(w, "road-vertices {}", road.num_vertices())?;
    for v in 0..road.num_vertices() as u32 {
        let p = road.location(v);
        writeln!(w, "{:?} {:?}", p.x, p.y)?;
    }
    writeln!(w, "road-edges {}", road.num_edges())?;
    for (u, v, len) in road.graph().edges() {
        writeln!(w, "{u} {v} {len:?}")?;
    }

    writeln!(w, "pois {}", ssn.pois().len())?;
    for poi in ssn.pois().pois() {
        let ks: Vec<String> = poi.keywords.iter().map(|k| k.to_string()).collect();
        writeln!(
            w,
            "{} {:?} {}",
            poi.position.edge,
            poi.position.offset,
            ks.join(",")
        )?;
    }

    let social = ssn.social();
    writeln!(
        w,
        "users {} topics {}",
        social.num_users(),
        social.num_topics()
    )?;
    for u in 0..social.num_users() as u32 {
        let ws: Vec<String> = social
            .interest(u)
            .weights()
            .iter()
            .map(|x| format!("{x:?}"))
            .collect();
        writeln!(w, "{}", ws.join(" "))?;
    }
    writeln!(w, "friendships {}", social.num_friendships())?;
    for (a, b, _) in social.graph().edges() {
        writeln!(w, "{a} {b}")?;
    }

    writeln!(w, "homes {}", ssn.homes().len())?;
    for h in ssn.homes() {
        writeln!(w, "{} {:?}", h.edge, h.offset)?;
    }
    w.flush()
}

/// Upper bound for pre-allocation from untrusted counts: a corrupt
/// header claiming 10^18 vertices must not abort the process inside
/// `with_capacity` — the vectors still grow to the real size on demand.
const MAX_PREALLOC: usize = 1 << 16;

/// Deserializes a spatial-social network from `r`.
///
/// Every malformed input — truncation, bad tokens, out-of-range ids,
/// non-finite floats, inconsistent counts — is reported as an
/// [`io::ErrorKind::InvalidData`] error. No input reachable through this
/// function panics: all referential and numeric invariants the in-memory
/// constructors assert are validated here first.
pub fn read_ssn<R: Read>(r: R) -> io::Result<SpatialSocialNetwork> {
    if gpssn_failpoint::failpoint!("ssn::read") {
        return Err(io::Error::other("injected fault: ssn::read"));
    }
    let mut lines = BufReader::new(r).lines();
    let mut next = |what: &str| -> io::Result<String> {
        lines
            .next()
            .ok_or_else(|| bad(format!("unexpected EOF: expected {what}")))?
    };

    let header = next("header")?;
    if header.trim() != MAGIC {
        return Err(bad(format!("bad header: {header:?}")));
    }

    let nv: usize = field(&next("road-vertices")?, "road-vertices")?;
    let mut locations = Vec::with_capacity(nv.min(MAX_PREALLOC));
    for _ in 0..nv {
        let line = next("vertex")?;
        let mut it = line.split_whitespace();
        let x = parse_finite(it.next(), "vertex x")?;
        let y = parse_finite(it.next(), "vertex y")?;
        locations.push(Point::new(x, y));
    }
    let ne: usize = field(&next("road-edges")?, "road-edges")?;
    let mut edges = Vec::with_capacity(ne.min(MAX_PREALLOC));
    for _ in 0..ne {
        let line = next("edge")?;
        let mut it = line.split_whitespace();
        let u: u32 = parse(it.next(), "edge u")?;
        let v: u32 = parse(it.next(), "edge v")?;
        let len = parse_finite(it.next(), "edge len")?;
        if (u as usize) >= nv || (v as usize) >= nv {
            return Err(bad(format!("edge ({u}, {v}) references a vertex >= {nv}")));
        }
        if u == v {
            return Err(bad(format!("edge ({u}, {v}) is a self-loop")));
        }
        if len < 0.0 {
            return Err(bad(format!("edge ({u}, {v}) has negative length {len}")));
        }
        // Euclidean-prefilter invariant: a road segment can never be
        // shorter than the straight line between its endpoints.
        let euclid = locations[u as usize].distance(&locations[v as usize]);
        if len + 1e-9 < euclid {
            return Err(bad(format!(
                "edge ({u}, {v}) length {len} shorter than Euclidean distance {euclid}"
            )));
        }
        edges.push((u, v, len));
    }
    let road = RoadNetwork::try_from_weighted_edges(locations, &edges)
        .ok_or_else(|| bad("total road length must stay below 2^21".to_string()))?;
    let num_edges = road.num_edges();

    let np: usize = field(&next("pois")?, "pois")?;
    let mut pois = Vec::with_capacity(np.min(MAX_PREALLOC));
    for _ in 0..np {
        let line = next("poi")?;
        let mut it = line.split_whitespace();
        let edge: u32 = parse(it.next(), "poi edge")?;
        let offset = parse_finite(it.next(), "poi offset")?;
        if (edge as usize) >= num_edges {
            return Err(bad(format!(
                "poi edge {edge} out of range (road has {num_edges} edges)"
            )));
        }
        let keywords: Vec<u32> = match it.next() {
            None | Some("") => Vec::new(),
            Some(ks) => ks
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse::<u32>()
                        .map_err(|e| bad(format!("poi keyword: {e}")))
                })
                .collect::<io::Result<_>>()?,
        };
        pois.push(Poi::new(NetworkPoint::new(&road, edge, offset), keywords));
    }
    let pois = PoiSet::new(&road, pois);

    let users_line = next("users")?;
    let mut it = users_line.split_whitespace();
    expect(it.next(), "users")?;
    let m: usize = parse(it.next(), "user count")?;
    expect(it.next(), "topics")?;
    let d: usize = parse(it.next(), "topic count")?;
    let mut interests = Vec::with_capacity(m.min(MAX_PREALLOC));
    for _ in 0..m {
        let line = next("interest vector")?;
        let ws: Vec<f64> = line
            .split_whitespace()
            .map(|s| {
                s.parse::<f64>()
                    .map_err(|e| bad(format!("interest weight: {e}")))
            })
            .collect::<io::Result<_>>()?;
        if ws.len() != d {
            return Err(bad(format!(
                "interest vector has {} weights, expected {d}",
                ws.len()
            )));
        }
        if let Some(w) = ws
            .iter()
            .find(|w| !w.is_finite() || !(0.0..=1.0).contains(*w))
        {
            return Err(bad(format!("interest weight {w} outside [0, 1]")));
        }
        interests.push(InterestVector::new(ws));
    }
    let nf: usize = field(&next("friendships")?, "friendships")?;
    let mut friendships = Vec::with_capacity(nf.min(MAX_PREALLOC));
    for _ in 0..nf {
        let line = next("friendship")?;
        let mut it = line.split_whitespace();
        let a: u32 = parse(it.next(), "friendship a")?;
        let b: u32 = parse(it.next(), "friendship b")?;
        if (a as usize) >= m || (b as usize) >= m {
            return Err(bad(format!(
                "friendship ({a}, {b}) references a user >= {m}"
            )));
        }
        if a == b {
            return Err(bad(format!("friendship ({a}, {b}) is a self-loop")));
        }
        friendships.push((a, b));
    }
    let social = SocialNetwork::new(interests, &friendships);

    let nh: usize = field(&next("homes")?, "homes")?;
    if nh != m {
        return Err(bad(format!("{nh} homes for {m} users")));
    }
    let mut homes = Vec::with_capacity(nh.min(MAX_PREALLOC));
    for _ in 0..nh {
        let line = next("home")?;
        let mut it = line.split_whitespace();
        let edge: u32 = parse(it.next(), "home edge")?;
        let offset = parse_finite(it.next(), "home offset")?;
        if (edge as usize) >= num_edges {
            return Err(bad(format!(
                "home edge {edge} out of range (road has {num_edges} edges)"
            )));
        }
        homes.push(NetworkPoint::new(&road, edge, offset));
    }
    Ok(SpatialSocialNetwork::new(road, pois, social, homes))
}

/// Saves to a file path.
pub fn save_ssn(ssn: &SpatialSocialNetwork, path: impl AsRef<Path>) -> io::Result<()> {
    write_ssn(ssn, std::fs::File::create(path)?)
}

/// Loads from a file path.
pub fn load_ssn(path: impl AsRef<Path>) -> io::Result<SpatialSocialNetwork> {
    read_ssn(std::fs::File::open(path)?)
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn field<T: std::str::FromStr>(line: &str, name: &str) -> io::Result<T> {
    let mut it = line.split_whitespace();
    let tag = it.next().unwrap_or("");
    if tag != name {
        return Err(bad(format!("expected section {name:?}, found {tag:?}")));
    }
    parse(it.next(), name)
}

fn parse<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> io::Result<T> {
    tok.ok_or_else(|| bad(format!("missing {what}")))?
        .parse::<T>()
        .map_err(|_| bad(format!("unparsable {what}")))
}

/// Parses an `f64` and rejects NaN and infinities: a single non-finite
/// coordinate would otherwise poison every distance downstream (and NaN
/// heap keys violate the traversal's ordering invariants).
fn parse_finite(tok: Option<&str>, what: &str) -> io::Result<f64> {
    let x: f64 = parse(tok, what)?;
    if !x.is_finite() {
        return Err(bad(format!("{what} must be finite, got {x}")));
    }
    Ok(x)
}

fn expect(tok: Option<&str>, what: &str) -> io::Result<()> {
    match tok {
        Some(t) if t == what => Ok(()),
        other => Err(bad(format!("expected {what:?}, found {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{synthetic, SyntheticConfig};

    #[test]
    fn round_trip_preserves_everything() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), 13);
        let mut buf = Vec::new();
        write_ssn(&ssn, &mut buf).unwrap();
        let back = read_ssn(buf.as_slice()).unwrap();

        assert_eq!(back.road().num_vertices(), ssn.road().num_vertices());
        assert_eq!(back.road().num_edges(), ssn.road().num_edges());
        assert_eq!(back.pois().len(), ssn.pois().len());
        assert_eq!(back.social().num_users(), ssn.social().num_users());
        assert_eq!(
            back.social().num_friendships(),
            ssn.social().num_friendships()
        );
        // Exact float round-trip via {:?}.
        for v in 0..ssn.road().num_vertices() as u32 {
            assert_eq!(back.road().location(v), ssn.road().location(v));
        }
        for o in 0..ssn.pois().len() as u32 {
            assert_eq!(back.pois().get(o).keywords, ssn.pois().get(o).keywords);
            assert_eq!(back.pois().get(o).position, ssn.pois().get(o).position);
        }
        for u in 0..ssn.social().num_users() as u32 {
            assert_eq!(back.social().interest(u), ssn.social().interest(u));
            assert_eq!(back.home(u), ssn.home(u));
        }
        // Distances agree, so query results will too.
        assert_eq!(back.user_poi_distance(0, 0), ssn.user_poi_distance(0, 0));
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_ssn("nonsense\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), 13);
        let mut buf = Vec::new();
        write_ssn(&ssn, &mut buf).unwrap();
        let cut = &buf[..buf.len() / 2];
        assert!(read_ssn(cut).is_err());
    }

    /// One serialized dataset shared by the fuzzing properties below
    /// (dataset synthesis dominates the per-case cost otherwise).
    fn reference_bytes() -> &'static [u8] {
        use std::sync::OnceLock;
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        BYTES.get_or_init(|| {
            let ssn = synthetic(&SyntheticConfig::uni().scaled(0.006), 17);
            let mut buf = Vec::new();
            write_ssn(&ssn, &mut buf).unwrap();
            buf
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Truncating a valid stream before its final line yields a clean
        /// `InvalidData` error — never a panic. (Cuts *inside* the final
        /// home line can leave a shorter-but-valid float token and still
        /// parse, so the property stops at the last line boundary.)
        #[test]
        fn truncated_streams_error_cleanly(frac in 0.0f64..1.0) {
            let buf = reference_bytes();
            let limit = buf[..buf.len() - 1].iter().rposition(|&b| b == b'\n').unwrap();
            let cut = (limit as f64 * frac) as usize;
            let err = read_ssn(&buf[..cut]).unwrap_err();
            proptest::prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        /// Flipping any single byte of a valid stream either still parses
        /// (some digit flips are benign) or errors with `InvalidData`; no
        /// mutation may panic or surface a different error kind.
        #[test]
        fn mutated_streams_never_panic(pos in 0.0f64..1.0, byte in 0u8..=255) {
            let mut buf = reference_bytes().to_vec();
            let i = ((buf.len() - 1) as f64 * pos) as usize;
            buf[i] = byte;
            if let Err(e) = read_ssn(buf.as_slice()) {
                proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }

        /// Splicing random garbage into a random position must likewise
        /// degrade into `InvalidData`, not a panic — this exercises the
        /// structural validators (counts, ids, finiteness, self-loops).
        #[test]
        fn spliced_garbage_never_panics(
            pos in 0.0f64..1.0,
            garbage in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            let mut buf = reference_bytes().to_vec();
            let i = (buf.len() as f64 * pos) as usize;
            buf.splice(i..i, garbage);
            if let Err(e) = read_ssn(buf.as_slice()) {
                proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }
    }

    #[test]
    fn rejects_out_of_range_ids_and_nonfinite_floats() {
        // Hand-built minimal valid file, then targeted corruptions.
        let good = "# gpssn-ssn v1\n\
            road-vertices 2\n0.0 0.0\n1.0 0.0\n\
            road-edges 1\n0 1 1.0\n\
            pois 1\n0 0.5 0\n\
            users 2 topics 1\n0.5\n0.5\n\
            friendships 1\n0 1\n\
            homes 2\n0 0.0\n0 1.0\n";
        assert!(read_ssn(good.as_bytes()).is_ok());
        for (broken, what) in [
            (
                good.replace("road-edges 1\n0 1 1.0", "road-edges 1\n0 7 1.0"),
                "edge endpoint",
            ),
            (
                good.replace("road-edges 1\n0 1 1.0", "road-edges 1\n0 0 1.0"),
                "edge self-loop",
            ),
            (
                good.replace("road-edges 1\n0 1 1.0", "road-edges 1\n0 1 -1.0"),
                "negative length",
            ),
            (
                good.replace("road-edges 1\n0 1 1.0", "road-edges 1\n0 1 0.5"),
                "sub-Euclidean length",
            ),
            (
                good.replace("road-edges 1\n0 1 1.0", "road-edges 1\n0 1 NaN"),
                "NaN length",
            ),
            (
                good.replace("road-edges 1\n0 1 1.0", "road-edges 1\n0 1 1e12"),
                "total length beyond the 2^21 grid headroom",
            ),
            (
                good.replace("pois 1\n0 0.5", "pois 1\n9 0.5"),
                "poi edge id",
            ),
            (
                good.replace("0.5\n0.5\n", "0.5\n1.5\n"),
                "interest weight > 1",
            ),
            (
                good.replace("0.5\n0.5\n", "0.5\ninf\n"),
                "non-finite interest",
            ),
            (
                good.replace("friendships 1\n0 1", "friendships 1\n0 9"),
                "friendship endpoint",
            ),
            (
                good.replace("friendships 1\n0 1", "friendships 1\n1 1"),
                "friendship self-loop",
            ),
            (
                good.replace("homes 2\n0 0.0", "homes 2\n9 0.0"),
                "home edge id",
            ),
            (
                good.replace("homes 2\n0 0.0\n0 1.0", "homes 2\n0 NaN\n0 1.0"),
                "NaN home offset",
            ),
        ] {
            let err = read_ssn(broken.as_bytes()).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{what} must be InvalidData"
            );
        }
    }

    #[test]
    fn huge_claimed_counts_do_not_abort() {
        // A corrupt count must not pre-allocate petabytes; it should run
        // off the end of the stream and report InvalidData.
        let huge = "# gpssn-ssn v1\nroad-vertices 999999999999\n0.0 0.0\n";
        let err = read_ssn(huge.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn save_and_load_files() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), 14);
        let path = std::env::temp_dir().join("gpssn_io_test.ssn");
        save_ssn(&ssn, &path).unwrap();
        let back = load_ssn(&path).unwrap();
        assert_eq!(back.social().num_users(), ssn.social().num_users());
        let _ = std::fs::remove_file(&path);
    }
}
