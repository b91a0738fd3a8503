//! Congestion heuristics over a mapped interaction graph (Section VI-A).
//!
//! Given a placement (one [`Point`] per vertex) the three metrics studied by
//! the paper are computed:
//!
//! 1. **Average edge length** (Manhattan) — longer braids occupy more area and
//!    are more likely to overlap (edge-distance minimisation heuristic).
//! 2. **Average edge spacing** — distance between edge midpoints; larger
//!    spacing means braids are spread out and less likely to contend
//!    (edge-density uniformity heuristic).
//! 3. **Edge crossings** — pairs of edges whose straight-line embeddings
//!    cross; crossing braids cannot execute simultaneously.

use serde::Serialize;

use crate::geometry::{segments_cross, Point};
use crate::InteractionGraph;

/// The three congestion metrics of Section VI-A evaluated on one placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MappingMetrics {
    /// Number of pairs of edges that cross in the straight-line embedding.
    pub edge_crossings: usize,
    /// Mean Manhattan length over all edges (0 for an edgeless graph).
    pub avg_edge_length: f64,
    /// Mean distance between midpoints over all pairs of distinct edges
    /// (0 when fewer than two edges exist).
    pub avg_edge_spacing: f64,
}

impl MappingMetrics {
    /// Computes all three metrics for a graph under a placement.
    ///
    /// # Panics
    ///
    /// Panics if `positions` has fewer entries than the graph has vertices.
    pub fn compute(graph: &InteractionGraph, positions: &[Point]) -> Self {
        MappingMetrics {
            edge_crossings: edge_crossings(graph, positions),
            avg_edge_length: average_edge_length(graph, positions),
            avg_edge_spacing: average_edge_spacing(graph, positions),
        }
    }
}

/// Number of crossing pairs among the straight-line embeddings of the edges.
///
/// Edges sharing an endpoint never count as crossing. The computation is the
/// naive `O(m²)` pair scan, which is adequate for distillation-factory-sized
/// graphs (a few thousand edges).
pub fn edge_crossings(graph: &InteractionGraph, positions: &[Point]) -> usize {
    assert!(positions.len() >= graph.num_vertices());
    let edges = graph.edges();
    let mut crossings = 0;
    for i in 0..edges.len() {
        let (a, b, _) = edges[i];
        for (c, d, _) in edges.iter().skip(i + 1) {
            if a == *c || a == *d || b == *c || b == *d {
                continue;
            }
            if segments_cross(positions[a], positions[b], positions[*c], positions[*d]) {
                crossings += 1;
            }
        }
    }
    crossings
}

/// Mean Manhattan edge length under the placement.
pub fn average_edge_length(graph: &InteractionGraph, positions: &[Point]) -> f64 {
    assert!(positions.len() >= graph.num_vertices());
    if graph.num_edges() == 0 {
        return 0.0;
    }
    let total: f64 = graph
        .edges()
        .iter()
        .map(|(u, v, _)| positions[*u].manhattan_distance(&positions[*v]))
        .sum();
    total / graph.num_edges() as f64
}

/// Mean Euclidean distance between the midpoints of all pairs of distinct
/// edges. Larger is better (edges are more spread out).
pub fn average_edge_spacing(graph: &InteractionGraph, positions: &[Point]) -> f64 {
    assert!(positions.len() >= graph.num_vertices());
    let midpoints: Vec<Point> = graph
        .edges()
        .iter()
        .map(|(u, v, _)| positions[*u].midpoint(&positions[*v]))
        .collect();
    if midpoints.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..midpoints.len() {
        for j in (i + 1)..midpoints.len() {
            total += midpoints[i].distance(&midpoints[j]);
            pairs += 1;
        }
    }
    total / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-vertex graph with two edges forming an X when placed on a square.
    fn cross_graph() -> (InteractionGraph, Vec<Point>) {
        let g = InteractionGraph::from_edges(4, [(0, 2, 1.0), (1, 3, 1.0)]);
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        (g, pos)
    }

    #[test]
    fn crossing_pair_is_counted() {
        let (g, pos) = cross_graph();
        assert_eq!(edge_crossings(&g, &pos), 1);
    }

    #[test]
    fn planar_placement_has_no_crossings() {
        let g = InteractionGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        assert_eq!(edge_crossings(&g, &pos), 0);
    }

    #[test]
    fn edge_length_average() {
        let (g, pos) = cross_graph();
        // Each diagonal has Manhattan length 4.
        assert_eq!(average_edge_length(&g, &pos), 4.0);
    }

    #[test]
    fn edge_spacing_of_coincident_midpoints_is_zero() {
        let (g, pos) = cross_graph();
        // Both diagonals have midpoint (1,1).
        assert_eq!(average_edge_spacing(&g, &pos), 0.0);
    }

    #[test]
    fn edge_spacing_grows_when_edges_are_spread() {
        let g = InteractionGraph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        let close = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
        ];
        let far = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(1.0, 10.0),
        ];
        assert!(average_edge_spacing(&g, &far) > average_edge_spacing(&g, &close));
    }

    #[test]
    fn metrics_struct_bundles_all_three() {
        let (g, pos) = cross_graph();
        let m = MappingMetrics::compute(&g, &pos);
        assert_eq!(m.edge_crossings, 1);
        assert_eq!(m.avg_edge_length, 4.0);
        assert_eq!(m.avg_edge_spacing, 0.0);
    }

    #[test]
    fn empty_graph_metrics_are_zero() {
        let g = InteractionGraph::empty(3);
        let pos = vec![Point::default(); 3];
        let m = MappingMetrics::compute(&g, &pos);
        assert_eq!(m.edge_crossings, 0);
        assert_eq!(m.avg_edge_length, 0.0);
        assert_eq!(m.avg_edge_spacing, 0.0);
    }
}
