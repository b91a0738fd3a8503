//! 2-D geometry helpers: points, distances, segment intersection.

/// A point in the plane. Mapping algorithms use integer grid coordinates but
/// force-directed optimisation works on continuous positions, so coordinates
/// are `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (column).
    pub x: f64,
    /// Vertical coordinate (row).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Manhattan (L1) distance to another point, the natural braid-length
    /// proxy on a grid mesh.
    pub fn manhattan_distance(&self, other: &Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Midpoint of the segment between this point and another.
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

impl std::ops::Add for Point {
    type Output = Point;

    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point {
    type Output = Point;

    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Mul<f64> for Point {
    type Output = Point;

    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

/// Centroid (arithmetic mean) of a set of points; the origin for an empty set.
pub fn centroid(points: &[Point]) -> Point {
    if points.is_empty() {
        return Point::default();
    }
    let mut cx = 0.0;
    let mut cy = 0.0;
    for p in points {
        cx += p.x;
        cy += p.y;
    }
    Point::new(cx / points.len() as f64, cy / points.len() as f64)
}

/// Orientation of the ordered triple `(a, b, c)`: positive for counter
/// clockwise, negative for clockwise, zero for collinear.
fn orientation(a: Point, b: Point, c: Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

fn on_segment(a: Point, b: Point, p: Point) -> bool {
    p.x >= a.x.min(b.x) - 1e-12
        && p.x <= a.x.max(b.x) + 1e-12
        && p.y >= a.y.min(b.y) - 1e-12
        && p.y <= a.y.max(b.y) + 1e-12
}

/// Returns `true` when the open segments `(a1, a2)` and `(b1, b2)` cross.
///
/// Segments that merely share an endpoint are *not* considered crossing: in
/// the interaction graph two edges incident to the same qubit always share
/// that qubit's location, and such "crossings" do not indicate braid
/// congestion.
pub fn segments_cross(a1: Point, a2: Point, b1: Point, b2: Point) -> bool {
    const EPS: f64 = 1e-9;
    let share_endpoint = |p: Point, q: Point| p.distance(&q) < EPS;
    if share_endpoint(a1, b1)
        || share_endpoint(a1, b2)
        || share_endpoint(a2, b1)
        || share_endpoint(a2, b2)
    {
        return false;
    }

    let d1 = orientation(a1, a2, b1);
    let d2 = orientation(a1, a2, b2);
    let d3 = orientation(b1, b2, a1);
    let d4 = orientation(b1, b2, a2);

    if ((d1 > EPS && d2 < -EPS) || (d1 < -EPS && d2 > EPS))
        && ((d3 > EPS && d4 < -EPS) || (d3 < -EPS && d4 > EPS))
    {
        return true;
    }

    // Collinear overlap cases: treat a point of one segment lying strictly on
    // the other as a crossing (the braids would contend for the same cells).
    if d1.abs() <= EPS && on_segment(a1, a2, b1) {
        return true;
    }
    if d2.abs() <= EPS && on_segment(a1, a2, b2) {
        return true;
    }
    if d3.abs() <= EPS && on_segment(b1, b2, a1) {
        return true;
    }
    if d4.abs() <= EPS && on_segment(b1, b2, a2) {
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.manhattan_distance(&b), 7.0);
        assert_eq!(a.midpoint(&b), Point::new(1.5, 2.0));
    }

    #[test]
    fn arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 5.0);
        assert_eq!(a + b, Point::new(4.0, 7.0));
        assert_eq!(b - a, Point::new(2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
    }

    #[test]
    fn centroid_of_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        assert_eq!(centroid(&pts), Point::new(1.0, 1.0));
        assert_eq!(centroid(&[]), Point::new(0.0, 0.0));
    }

    #[test]
    fn crossing_segments_detected() {
        // A clear X crossing.
        assert!(segments_cross(
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 0.0)
        ));
    }

    #[test]
    fn parallel_segments_do_not_cross() {
        assert!(!segments_cross(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(2.0, 1.0)
        ));
    }

    #[test]
    fn shared_endpoint_is_not_a_crossing() {
        assert!(!segments_cross(
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0)
        ));
    }

    #[test]
    fn disjoint_segments_do_not_cross() {
        assert!(!segments_cross(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 3.0),
            Point::new(4.0, 4.0)
        ));
    }

    #[test]
    fn collinear_overlapping_segments_cross() {
        assert!(segments_cross(
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0)
        ));
    }

    #[test]
    fn t_junction_counts_as_crossing() {
        // One segment ends strictly inside the other.
        assert!(segments_cross(
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, -1.0),
            Point::new(2.0, 0.0)
        ));
    }
}
