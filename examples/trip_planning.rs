//! Example 1 of the paper: destination planning for a group of friends.
//!
//! A hand-built downtown: a 5×5 grid of streets, themed POI districts
//! (restaurants west, shopping center, cafés east), and a small social
//! network of friends with Table-1-style interest profiles. Alice asks
//! for two friends to join her on a POI tour close to everyone's home.
//!
//! ```text
//! cargo run --release --example trip_planning
//! ```

use gpssn::core::{EngineConfig, GpSsnEngine, GpSsnError, GpSsnQuery, QueryBudget};
use gpssn::index::SocialIndexConfig;
use gpssn::road::{NetworkPoint, Poi, PoiSet, RoadNetwork};
use gpssn::social::{InterestVector, SocialNetwork};
use gpssn::spatial::Point;
use gpssn::ssn::SpatialSocialNetwork;

const RESTAURANT: u32 = 0;
const MALL: u32 = 1;
const CAFE: u32 = 2;

fn main() -> Result<(), GpSsnError> {
    let ssn = build_downtown();
    let names = ["Alice", "Bob", "Carol", "Dave", "Erin", "Frank"];

    let cfg = EngineConfig {
        num_road_pivots: 3,
        num_social_pivots: 2,
        social_index: SocialIndexConfig {
            leaf_size: 4,
            fanout: 2,
        },
        ..Default::default()
    };
    let engine = GpSsnEngine::build(&ssn, cfg);

    // Alice (user 0) wants two friends with common interests and a set of
    // spatially close POIs matching everyone's taste.
    let query = GpSsnQuery {
        user: 0,
        tau: 3,
        gamma: 0.25,
        theta: 0.4,
        radius: 2.0,
    };
    let outcome = engine.try_query(&query, &Default::default(), &QueryBudget::unlimited())?;

    println!("Alice's group planning query: τ=3, γ=0.25, θ=0.4, r=2\n");
    match outcome.answer() {
        Some(ans) => {
            println!("Recommended group:");
            for &u in &ans.users {
                println!("  - {}", names[u as usize]);
            }
            println!("\nRecommended POI tour (pairwise within 2r on the road network):");
            for &o in &ans.pois {
                let poi = ssn.pois().get(o);
                let loc = ssn.pois().location(o);
                println!(
                    "  - {} at ({:.1}, {:.1})",
                    describe(&poi.keywords),
                    loc.x,
                    loc.y
                );
            }
            println!("\nWorst home-to-POI drive: {:.2} road units", ans.maxdist);
            for &u in &ans.users {
                let worst = ans
                    .pois
                    .iter()
                    .map(|&o| ssn.user_poi_distance(u, o))
                    .fold(0.0f64, f64::max);
                println!("  {}'s farthest stop: {:.2}", names[u as usize], worst);
            }
        }
        None => println!("No group satisfies the constraints — try relaxing γ or θ."),
    }
    Ok(())
}

fn describe(keywords: &[u32]) -> String {
    let label = |k: &u32| match *k {
        RESTAURANT => "restaurant",
        MALL => "shopping mall",
        CAFE => "cafe",
        _ => "poi",
    };
    keywords.iter().map(label).collect::<Vec<_>>().join("+")
}

/// A 5×5 street grid with themed districts and six friends.
fn build_downtown() -> SpatialSocialNetwork {
    let n = 5usize;
    let mut locs = Vec::new();
    let mut edges = Vec::new();
    for y in 0..n {
        for x in 0..n {
            locs.push(Point::new(x as f64, y as f64));
            let id = (y * n + x) as u32;
            if x + 1 < n {
                edges.push((id, id + 1));
            }
            if y + 1 < n {
                edges.push((id, id + n as u32));
            }
        }
    }
    let road = RoadNetwork::from_euclidean_edges(locs, &edges);

    // Horizontal street edges on row y start at edge index… rather than
    // deriving indices, place POIs by scanning edges for the segment we
    // want (midpoint coordinates).
    let poi_at = |road: &RoadNetwork, x: f64, y: f64, keywords: Vec<u32>| -> Poi {
        // Find the edge whose midpoint is closest to (x, y).
        let mut best = (f64::INFINITY, 0u32);
        for e in 0..road.num_edges() as u32 {
            let (u, v, _) = road.edge(e);
            let mid = road.location(u).lerp(&road.location(v), 0.5);
            let d = mid.distance_sq(&Point::new(x, y));
            if d < best.0 {
                best = (d, e);
            }
        }
        let e = best.1;
        let (u, _, len) = road.edge(e);
        let from = road.location(u);
        let along = Point::new(x, y).distance(&from).min(len);
        Poi::new(NetworkPoint::new(road, e, along), keywords)
    };

    let pois = vec![
        poi_at(&road, 0.5, 1.0, vec![RESTAURANT]), // west: food row
        poi_at(&road, 0.5, 2.0, vec![RESTAURANT, CAFE]), // bistro
        poi_at(&road, 2.0, 2.5, vec![MALL]),       // central mall
        poi_at(&road, 2.5, 2.0, vec![MALL, CAFE]), // mall food court
        poi_at(&road, 4.0, 1.5, vec![CAFE]),       // east: café strip
        poi_at(&road, 3.5, 4.0, vec![RESTAURANT]), // north-east diner
    ];
    let pois = PoiSet::new(&road, pois);

    // Table-1-flavoured interest profiles, L1-normalized.
    let iv = |w: [f64; 3]| InterestVector::new(w.to_vec()).as_distribution();
    let interests = vec![
        iv([0.7, 0.3, 0.7]), // Alice: food + cafés
        iv([0.2, 0.9, 0.3]), // Bob: malls
        iv([0.4, 0.8, 0.8]), // Carol: malls + cafés
        iv([0.9, 0.7, 0.7]), // Dave: everything
        iv([0.1, 0.8, 0.5]), // Erin: malls + cafés
        iv([0.8, 0.1, 0.9]), // Frank: food + cafés
    ];
    let friendships = [
        (0, 1),
        (0, 3),
        (0, 5),
        (1, 2),
        (2, 3),
        (1, 4),
        (2, 4),
        (3, 5),
    ];
    let social = SocialNetwork::new(interests, &friendships);

    // Homes: Alice west, Bob/Carol central, Dave east, Erin north, Frank
    // south-west.
    let home = |road: &RoadNetwork, v: u32| NetworkPoint::at_vertex(road, v);
    let homes = vec![
        home(&road, 5),  // (0,1)
        home(&road, 12), // (2,2)
        home(&road, 13), // (3,2)
        home(&road, 9),  // (4,1)
        home(&road, 22), // (2,4)
        home(&road, 1),  // (1,0)
    ];
    SpatialSocialNetwork::new(road, pois, social, homes)
}
