//! The spatial-social network `G_rs` (Definition 4).

use gpssn_road::{NetworkPoint, PoiSet, RoadNetwork};
use gpssn_social::{SocialNetwork, UserId};

/// A spatial-social network: road network + POIs + social network + a
/// home location on the road network for every user.
#[derive(Debug, Clone)]
pub struct SpatialSocialNetwork {
    road: RoadNetwork,
    pois: PoiSet,
    social: SocialNetwork,
    homes: Vec<NetworkPoint>,
}

impl SpatialSocialNetwork {
    /// Assembles a spatial-social network.
    ///
    /// # Panics
    /// Panics if `homes.len()` differs from the number of social users.
    pub fn new(
        road: RoadNetwork,
        pois: PoiSet,
        social: SocialNetwork,
        homes: Vec<NetworkPoint>,
    ) -> Self {
        assert_eq!(
            homes.len(),
            social.num_users(),
            "every user needs a home location on the road network"
        );
        SpatialSocialNetwork {
            road,
            pois,
            social,
            homes,
        }
    }

    /// The road network `G_r`.
    #[inline]
    pub fn road(&self) -> &RoadNetwork {
        &self.road
    }

    /// The POI set `O`.
    #[inline]
    pub fn pois(&self) -> &PoiSet {
        &self.pois
    }

    /// The social network `G_s`.
    #[inline]
    pub fn social(&self) -> &SocialNetwork {
        &self.social
    }

    /// Home location of user `u` on the road network.
    #[inline]
    pub fn home(&self, u: UserId) -> NetworkPoint {
        self.homes[u as usize]
    }

    /// All home locations.
    #[inline]
    pub fn homes(&self) -> &[NetworkPoint] {
        &self.homes
    }

    /// Exact road-network distance from user `u`'s home to POI `o`
    /// (`dist_RN(u_j, o_i)` of Definition 5).
    pub fn user_poi_distance(&self, u: UserId, o: gpssn_road::PoiId) -> f64 {
        gpssn_road::dist_rn(
            &self.road,
            &self.homes[u as usize],
            &self.pois.get(o).position,
        )
    }

    /// The paper's objective: `maxdist_RN(S, R) = max_{u∈S} max_{o∈R}
    /// dist_RN(u, o)` computed exactly. `INFINITY` for empty inputs is
    /// avoided by returning 0 when either set is empty.
    pub fn maxdist_rn(&self, users: &[UserId], pois: &[gpssn_road::PoiId]) -> f64 {
        let mut max = 0.0f64;
        for &u in users {
            let targets: Vec<NetworkPoint> =
                pois.iter().map(|&o| self.pois.get(o).position).collect();
            let dists = gpssn_road::dist_rn_many(&self.road, &self.homes[u as usize], &targets);
            for d in dists {
                max = max.max(d);
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_road::Poi;
    use gpssn_social::InterestVector;
    use gpssn_spatial::Point;

    /// A tiny deterministic fixture: 3-vertex line road, 2 POIs, 2 users.
    pub(crate) fn tiny() -> SpatialSocialNetwork {
        let locs = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(4.0, 0.0),
        ];
        let road = RoadNetwork::from_euclidean_edges(locs, &[(0, 1), (1, 2)]);
        let pois = PoiSet::new(
            &road,
            vec![
                Poi::new(NetworkPoint::new(&road, 0, 1.0), vec![0]), // x=1
                Poi::new(NetworkPoint::new(&road, 1, 1.0), vec![1]), // x=3
            ],
        );
        let social = SocialNetwork::new(
            vec![
                InterestVector::new(vec![1.0, 0.0]),
                InterestVector::new(vec![0.0, 1.0]),
            ],
            &[(0, 1)],
        );
        let homes = vec![
            NetworkPoint::new(&road, 0, 0.0), // x=0
            NetworkPoint::new(&road, 1, 2.0), // x=4
        ];
        SpatialSocialNetwork::new(road, pois, social, homes)
    }

    #[test]
    fn accessors_line_up() {
        let ssn = tiny();
        assert_eq!(ssn.social().num_users(), 2);
        assert_eq!(ssn.pois().len(), 2);
        assert_eq!(ssn.home(0).location(ssn.road()), Point::new(0.0, 0.0));
        assert_eq!(ssn.home(1).location(ssn.road()), Point::new(4.0, 0.0));
    }

    #[test]
    fn user_poi_distances() {
        let ssn = tiny();
        assert!((ssn.user_poi_distance(0, 0) - 1.0).abs() < 1e-9);
        assert!((ssn.user_poi_distance(0, 1) - 3.0).abs() < 1e-9);
        assert!((ssn.user_poi_distance(1, 0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn maxdist_takes_worst_pair() {
        let ssn = tiny();
        let d = ssn.maxdist_rn(&[0, 1], &[0, 1]);
        assert!((d - 3.0).abs() < 1e-9);
        assert_eq!(ssn.maxdist_rn(&[], &[0]), 0.0);
        assert_eq!(ssn.maxdist_rn(&[0], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "home location")]
    fn rejects_missing_homes() {
        let t = tiny();
        SpatialSocialNetwork::new(
            t.road.clone(),
            t.pois.clone(),
            t.social.clone(),
            vec![t.homes[0]],
        );
    }
}
