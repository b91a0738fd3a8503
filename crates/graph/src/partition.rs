//! Multilevel graph bisection (Section VI-B2 of the paper).
//!
//! The partitioner follows the classical METIS recipe referenced by the
//! paper: vertices are contracted along a heavy-edge matching until the graph
//! is small, the coarsest graph is bisected by greedy region growing, and the
//! bisection is projected back while a boundary-refinement pass
//! (Kernighan–Lin / Fiduccia–Mattheyses style) repairs the cut at every level.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::InteractionGraph;

/// A balanced two-way split of the vertex set.
#[derive(Debug, Clone, PartialEq)]
pub struct Bisection {
    /// Vertices on the left side.
    pub left: Vec<usize>,
    /// Vertices on the right side.
    pub right: Vec<usize>,
    /// Total weight of edges crossing the cut.
    pub cut_weight: f64,
}

/// Coarse graph together with the mapping from fine to coarse vertices.
struct CoarseLevel {
    graph: InteractionGraph,
    /// coarse vertex index of each fine vertex
    coarse_of: Vec<usize>,
    /// weight (number of original vertices) of each coarse vertex
    vertex_weight: Vec<f64>,
}

/// Maximum imbalance tolerated by the refinement pass, as a fraction of the
/// total vertex weight.
const BALANCE_SLACK: f64 = 0.05;

/// Number of vertices below which coarsening stops.
const COARSEST_SIZE: usize = 32;

/// Computes the weight of the cut induced by a side assignment
/// (`side[v] == 0` or `1`).
pub fn cut_weight(graph: &InteractionGraph, side: &[usize]) -> f64 {
    graph
        .edges()
        .iter()
        .filter(|(u, v, _)| side[*u] != side[*v])
        .map(|(_, _, w)| *w)
        .sum()
}

/// Bisects a graph into two balanced halves minimising the cut weight.
///
/// The split is balanced by vertex count (each side receives half the
/// vertices, ±1 plus the configured slack).
pub fn bisect<R: Rng>(graph: &InteractionGraph, rng: &mut R) -> Bisection {
    let n = graph.num_vertices();
    if n == 0 {
        return Bisection {
            left: Vec::new(),
            right: Vec::new(),
            cut_weight: 0.0,
        };
    }
    if n == 1 {
        return Bisection {
            left: vec![0],
            right: Vec::new(),
            cut_weight: 0.0,
        };
    }

    // --- Coarsening phase -------------------------------------------------
    // The matching buffers are preallocated once and reused across levels
    // (they only shrink as the graph contracts).
    let mut matched: Vec<usize> = Vec::with_capacity(n);
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut current = graph.clone();
    let mut current_weights = vec![1.0; n];
    while current.num_vertices() > COARSEST_SIZE {
        let (coarse, coarse_of, weights) =
            coarsen(&current, &current_weights, rng, &mut matched, &mut order);
        if coarse.num_vertices() as f64 > 0.95 * current.num_vertices() as f64 {
            break; // no useful contraction possible
        }
        levels.push(CoarseLevel {
            graph: current,
            coarse_of,
            vertex_weight: current_weights,
        });
        current = coarse;
        current_weights = weights;
    }

    // --- Initial bisection on the coarsest graph --------------------------
    let mut side = initial_bisection(&current, &current_weights, rng);
    refine(&current, &current_weights, &mut side);

    // --- Uncoarsening + refinement -----------------------------------------
    while let Some(level) = levels.pop() {
        let mut fine_side = vec![0usize; level.graph.num_vertices()];
        for (fine, coarse) in level.coarse_of.iter().enumerate() {
            fine_side[fine] = side[*coarse];
        }
        side = fine_side;
        refine(&level.graph, &level.vertex_weight, &mut side);
    }

    let left: Vec<usize> = (0..n).filter(|v| side[*v] == 0).collect();
    let right: Vec<usize> = (0..n).filter(|v| side[*v] == 1).collect();
    Bisection {
        cut_weight: cut_weight(graph, &side),
        left,
        right,
    }
}

/// Heavy-edge matching coarsening: repeatedly match each unmatched vertex to
/// its heaviest unmatched neighbour and contract matched pairs. `matched` and
/// `order` are caller-owned scratch reused across levels.
fn coarsen<R: Rng>(
    graph: &InteractionGraph,
    vertex_weight: &[f64],
    rng: &mut R,
    matched: &mut Vec<usize>,
    order: &mut Vec<usize>,
) -> (InteractionGraph, Vec<usize>, Vec<f64>) {
    let n = graph.num_vertices();
    matched.clear();
    matched.resize(n, usize::MAX);
    order.clear();
    order.extend(0..n);
    order.shuffle(rng);

    let mut next_coarse = 0usize;
    let mut coarse_of = vec![usize::MAX; n];
    for &v in order.iter() {
        if matched[v] != usize::MAX {
            continue;
        }
        // Find heaviest unmatched neighbour.
        let mut best: Option<(usize, f64)> = None;
        for (nb, w) in graph.neighbors(v) {
            if matched[*nb] == usize::MAX && *nb != v {
                match best {
                    Some((_, bw)) if bw >= *w => {}
                    _ => best = Some((*nb, *w)),
                }
            }
        }
        match best {
            Some((nb, _)) => {
                matched[v] = nb;
                matched[nb] = v;
                coarse_of[v] = next_coarse;
                coarse_of[nb] = next_coarse;
            }
            None => {
                matched[v] = v;
                coarse_of[v] = next_coarse;
            }
        }
        next_coarse += 1;
    }

    let mut weights = vec![0.0; next_coarse];
    for v in 0..n {
        weights[coarse_of[v]] += vertex_weight[v];
    }
    let coarse_edges = graph
        .edges()
        .iter()
        .map(|(u, v, w)| (coarse_of[*u], coarse_of[*v], *w));
    let coarse = InteractionGraph::from_edges(next_coarse, coarse_edges);
    (coarse, coarse_of, weights)
}

/// Greedy region-growing initial bisection on the coarsest graph: BFS from a
/// random seed until half of the total vertex weight is collected.
fn initial_bisection<R: Rng>(
    graph: &InteractionGraph,
    vertex_weight: &[f64],
    rng: &mut R,
) -> Vec<usize> {
    let n = graph.num_vertices();
    let total: f64 = vertex_weight.iter().sum();
    let target = total / 2.0;
    let mut side = vec![1usize; n];
    if n == 0 {
        return side;
    }
    let seed = rng.gen_range(0..n);
    let mut grown = 0.0;
    let mut frontier = std::collections::VecDeque::new();
    let mut visited = vec![false; n];
    frontier.push_back(seed);
    visited[seed] = true;
    while let Some(v) = frontier.pop_front() {
        if grown + vertex_weight[v] > target && grown > 0.0 {
            continue;
        }
        side[v] = 0;
        grown += vertex_weight[v];
        for (nb, _) in graph.neighbors(v) {
            if !visited[*nb] {
                visited[*nb] = true;
                frontier.push_back(*nb);
            }
        }
        if grown >= target {
            break;
        }
    }
    // If BFS exhausted a small component before reaching the target, move
    // arbitrary unvisited vertices.
    if grown < target {
        for v in 0..n {
            if side[v] == 1 && grown + vertex_weight[v] <= target {
                side[v] = 0;
                grown += vertex_weight[v];
            }
            if grown >= target {
                break;
            }
        }
    }
    side
}

/// Boundary refinement: greedily move vertices whose gain (reduction in cut
/// weight) is positive, respecting the balance constraint. A simplified,
/// single-pass Fiduccia–Mattheyses sweep repeated until no improving move
/// exists.
fn refine(graph: &InteractionGraph, vertex_weight: &[f64], side: &mut [usize]) {
    let n = graph.num_vertices();
    if n == 0 {
        return;
    }
    let total: f64 = vertex_weight.iter().sum();
    // Allow a small imbalance, but never less than the ceiling of a perfect
    // split (otherwise odd-weight graphs could not be refined at all).
    let max_side = (total / 2.0 + BALANCE_SLACK * total).max((total + 1.0) / 2.0);

    let side_weight = |side: &[usize], s: usize| -> f64 {
        (0..n)
            .filter(|v| side[*v] == s)
            .map(|v| vertex_weight[v])
            .sum()
    };
    let mut weights = [side_weight(side, 0), side_weight(side, 1)];

    for _pass in 0..8 {
        let mut improved = false;
        for v in 0..n {
            let from = side[v];
            let to = 1 - from;
            if weights[to] + vertex_weight[v] > max_side {
                continue;
            }
            // Gain = (weight to own side) - (weight to other side); moving v
            // removes internal edges and internalises external ones.
            let mut internal = 0.0;
            let mut external = 0.0;
            for (nb, w) in graph.neighbors(v) {
                if side[*nb] == from {
                    internal += *w;
                } else {
                    external += *w;
                }
            }
            let gain = external - internal;
            if gain > 1e-12 {
                side[v] = to;
                weights[from] -= vertex_weight[v];
                weights[to] += vertex_weight[v];
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(3)
    }

    /// Two 8-vertex cliques joined by one edge: the optimal cut is that edge.
    fn dumbbell() -> InteractionGraph {
        let mut edges = Vec::new();
        for i in 0..8usize {
            for j in (i + 1)..8 {
                edges.push((i, j, 1.0));
                edges.push((i + 8, j + 8, 1.0));
            }
        }
        edges.push((0, 8, 1.0));
        InteractionGraph::from_edges(16, edges)
    }

    #[test]
    fn bisect_finds_the_weak_link() {
        let g = dumbbell();
        let b = bisect(&g, &mut rng());
        assert_eq!(b.left.len() + b.right.len(), 16);
        assert_eq!(b.cut_weight, 1.0, "optimal cut severs only the bridge edge");
        // The two cliques end up on opposite sides.
        let side_of_0 = b.left.contains(&0);
        for v in 0..8 {
            assert_eq!(b.left.contains(&v), side_of_0);
        }
        for v in 8..16 {
            assert_eq!(b.left.contains(&v), !side_of_0);
        }
    }

    #[test]
    fn bisect_is_roughly_balanced() {
        // A 4x8 grid graph.
        let mut edges = Vec::new();
        let idx = |r: usize, c: usize| r * 8 + c;
        for r in 0..4usize {
            for c in 0..8usize {
                if c + 1 < 8 {
                    edges.push((idx(r, c), idx(r, c + 1), 1.0));
                }
                if r + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c), 1.0));
                }
            }
        }
        let g = InteractionGraph::from_edges(32, edges);
        let b = bisect(&g, &mut rng());
        let diff = (b.left.len() as i64 - b.right.len() as i64).abs();
        assert!(
            diff <= 4,
            "sides too unbalanced: {} vs {}",
            b.left.len(),
            b.right.len()
        );
        assert!(b.cut_weight <= 8.0);
    }

    #[test]
    fn cut_weight_counts_crossing_edges() {
        let g = InteractionGraph::from_edges(4, [(0, 1, 2.0), (2, 3, 3.0), (1, 2, 5.0)]);
        let side = vec![0, 0, 1, 1];
        assert_eq!(cut_weight(&g, &side), 5.0);
    }

    #[test]
    fn degenerate_graphs() {
        let empty = InteractionGraph::empty(0);
        let b = bisect(&empty, &mut rng());
        assert!(b.left.is_empty() && b.right.is_empty());

        let single = InteractionGraph::empty(1);
        let b = bisect(&single, &mut rng());
        assert_eq!(b.left.len() + b.right.len(), 1);

        let pair = InteractionGraph::from_edges(2, [(0, 1, 1.0)]);
        let b = bisect(&pair, &mut rng());
        assert_eq!(b.left.len(), 1);
        assert_eq!(b.right.len(), 1);
    }

    #[test]
    fn bisect_handles_disconnected_graphs() {
        let g = InteractionGraph::from_edges(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]);
        let b = bisect(&g, &mut rng());
        assert_eq!(b.left.len() + b.right.len(), 6);
        // A perfect bisection of three disjoint edges cuts nothing.
        assert!(b.cut_weight <= 1.0);
    }
}
