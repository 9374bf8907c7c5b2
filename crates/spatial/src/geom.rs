//! 2-D points and minimum bounding rectangles.
//!
//! Provides the point-to-MBR `mindist` that R-tree search prunes with;
//! the `d`-dimensional interest-space variants Lemma 8 compares live in
//! `gpssn-core`.

/// A 2-D point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation between `self` (t=0) and `other` (t=1).
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

/// An axis-aligned minimum bounding rectangle (MBR).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl Rect {
    /// MBR of a single point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// Rectangle from explicit corners.
    ///
    /// # Panics
    /// Panics (in debug builds) if `min > max` on any axis.
    #[inline]
    pub fn new(min: Point, max: Point) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y, "invalid rect corners");
        Rect { min, max }
    }

    /// An "empty" rectangle that is the identity for [`Rect::union`].
    pub fn empty() -> Self {
        Rect {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Whether this is the empty rectangle.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Smallest rectangle containing both operands.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Grows the rectangle to contain `p`.
    pub fn extend(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Whether `p` lies inside (boundary inclusive).
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether the rectangles overlap (boundary inclusive).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Minimum Euclidean distance from `p` to any point of the rectangle
    /// (0 if `p` is inside).
    pub fn min_dist_point(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(1.0, 2.0));
    }

    #[test]
    fn empty_rect_is_union_identity() {
        let e = Rect::empty();
        let r = Rect::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0));
        assert!(e.is_empty());
        assert_eq!(e.union(&r), r);
    }

    #[test]
    fn containment_and_intersection() {
        let big = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let small = Rect::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
        let outside = Rect::new(Point::new(20.0, 20.0), Point::new(21.0, 21.0));
        assert!(big.intersects(&small));
        assert!(!big.intersects(&outside));
        assert!(big.contains_point(&Point::new(10.0, 10.0)));
        assert!(!big.contains_point(&Point::new(10.1, 10.0)));
    }

    #[test]
    fn min_max_dist_point() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        // Point inside.
        assert_eq!(r.min_dist_point(&Point::new(1.0, 1.0)), 0.0);
        // Point to the right.
        assert_eq!(r.min_dist_point(&Point::new(5.0, 1.0)), 3.0);
        // Diagonal.
        assert_eq!(r.min_dist_point(&Point::new(5.0, 6.0)), 5.0);
    }

    fn arb_point() -> impl Strategy<Value = Point> {
        (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
    }

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (arb_point(), arb_point()).prop_map(|(a, b)| {
            Rect::new(
                Point::new(a.x.min(b.x), a.y.min(b.y)),
                Point::new(a.x.max(b.x), a.y.max(b.y)),
            )
        })
    }

    proptest! {
        /// mindist lower-bounds the distance to every sampled point of the
        /// rectangle.
        #[test]
        fn min_max_dist_bracket_sampled_points(r in arb_rect(), p in arb_point(),
                                               tx in 0.0f64..1.0, ty in 0.0f64..1.0) {
            let q = Point::new(
                r.min.x + tx * (r.max.x - r.min.x),
                r.min.y + ty * (r.max.y - r.min.y),
            );
            let d = p.distance(&q);
            prop_assert!(r.min_dist_point(&p) <= d + 1e-9);
        }

        /// Union contains both inputs and intersects each; intersection is
        /// symmetric.
        #[test]
        fn union_and_intersection_laws(a in arb_rect(), b in arb_rect()) {
            let u = a.union(&b);
            for r in [a, b] {
                prop_assert!(u.contains_point(&r.min) && u.contains_point(&r.max));
                prop_assert!(u.intersects(&r));
            }
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        }
    }
}
