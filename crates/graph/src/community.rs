//! Community detection on interaction graphs (Section VI-B1 of the paper).
//!
//! [`louvain`] is greedy modularity optimisation (Blondel et al.), the
//! detector used to drive the community-structure forces of the
//! force-directed mapper.
//!
//! The detector runs entirely on index-addressed scratch arrays over the CSR
//! adjacency — no per-vertex maps in the inner loops — and is deterministic
//! by construction: candidate communities are visited in ascending index
//! order. The coarsening loop aggregates levels into reused buffers
//! ([`CommunityScratch`]) instead of cloning and rebuilding the graph per
//! level; [`louvain_with`] lets long-lived callers reuse one scratch across
//! many detections.

use std::collections::{BTreeMap, HashMap};

use rand::seq::SliceRandom;
use rand::Rng;

use crate::InteractionGraph;

/// A partition of the vertex set into communities.
#[derive(Debug, Clone, PartialEq)]
pub struct Communities {
    /// Community index of each vertex.
    pub assignment: Vec<usize>,
    /// Number of communities.
    pub count: usize,
}

impl Communities {
    fn from_assignment(mut assignment: Vec<usize>) -> Self {
        // Renumber communities densely.
        let mut remap: HashMap<usize, usize> = HashMap::new();
        for a in &mut assignment {
            let next = remap.len();
            let id = *remap.entry(*a).or_insert(next);
            *a = id;
        }
        Communities {
            count: remap.len(),
            assignment,
        }
    }

    /// Vertices belonging to community `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == c)
            .map(|(v, _)| v)
            .collect()
    }

    /// All communities as vertex lists.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.count];
        for (v, c) in self.assignment.iter().enumerate() {
            groups[*c].push(v);
        }
        groups
    }
}

/// Newman modularity of a community assignment on a weighted graph.
pub fn modularity(graph: &InteractionGraph, assignment: &[usize]) -> f64 {
    let m = graph.total_edge_weight();
    if m <= 0.0 {
        return 0.0;
    }
    let mut q = 0.0;
    // Sum over edges of the same community minus the degree product term.
    let mut community_degree: BTreeMap<usize, f64> = BTreeMap::new();
    let mut community_internal: BTreeMap<usize, f64> = BTreeMap::new();
    for (v, a) in assignment.iter().enumerate().take(graph.num_vertices()) {
        *community_degree.entry(*a).or_insert(0.0) += graph.weighted_degree(v);
    }
    for (u, v, w) in graph.edges() {
        if assignment[*u] == assignment[*v] {
            *community_internal.entry(assignment[*u]).or_insert(0.0) += *w;
        }
    }
    for (c, internal) in &community_internal {
        let deg = community_degree.get(c).copied().unwrap_or(0.0);
        q += internal / m - (deg / (2.0 * m)).powi(2);
    }
    // Communities with no internal edges still contribute their degree term.
    for (c, deg) in &community_degree {
        if !community_internal.contains_key(c) {
            q -= (deg / (2.0 * m)).powi(2);
        }
    }
    q
}

/// Reusable buffers for [`louvain_with`]: the aggregated work graph
/// (double-buffered canonical edge lists plus a CSR rebuilt in place per
/// level) and the index-addressed local-moving state. One scratch can serve
/// any number of detections on graphs of any size — buffers only ever grow.
#[derive(Debug, Clone, Default)]
pub struct CommunityScratch {
    // Aggregated work graph (level > 0), coarsened in place.
    work_edges: Vec<(usize, usize, f64)>,
    next_edges: Vec<(usize, usize, f64)>,
    keyed: Vec<((usize, usize), f64)>,
    offsets: Vec<usize>,
    adj: Vec<(usize, f64)>,
    self_loops: Vec<f64>,
    next_self_loops: Vec<f64>,
    vertex_of: Vec<usize>,
    raw_to_dense: Vec<usize>,
    // Local-moving state.
    community: Vec<usize>,
    degree: Vec<f64>,
    community_degree: Vec<f64>,
    order: Vec<usize>,
    weight_to: Vec<f64>,
    stamp: Vec<u64>,
    stamp_gen: u64,
    touched: Vec<usize>,
}

impl CommunityScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Louvain community detection: repeated local moving followed by graph
/// aggregation, until modularity stops improving.
///
/// The detector is deterministic for a fixed `rng` seed (vertex visiting order
/// is shuffled once per pass).
pub fn louvain<R: Rng>(graph: &InteractionGraph, rng: &mut R) -> Communities {
    louvain_with(graph, rng, &mut CommunityScratch::default())
}

/// [`louvain`] against caller-held [`CommunityScratch`], so a loop of
/// detections (e.g. one per force-directed refinement) reuses one set of
/// aggregation buffers instead of reallocating them per call and per
/// coarsening level. Results are identical to [`louvain`].
pub fn louvain_with<R: Rng>(
    graph: &InteractionGraph,
    rng: &mut R,
    scratch: &mut CommunityScratch,
) -> Communities {
    let n = graph.num_vertices();
    if n == 0 {
        return Communities {
            assignment: Vec::new(),
            count: 0,
        };
    }

    // Current (dense) assignment of original vertices, and the super vertex
    // each original vertex is represented by in the work graph.
    let mut assignment: Vec<usize> = (0..n).collect();
    scratch.vertex_of.clear();
    scratch.vertex_of.extend(0..n);
    scratch.self_loops.clear();
    scratch.self_loops.resize(n, 0.0);

    // Level 0 moves on the input graph's CSR directly; aggregation then
    // coarsens into the scratch buffers, which later levels reuse in place.
    let mut work_n = n;
    let mut on_input = true;

    for _pass in 0..10 {
        let improved = {
            let (offsets, adj, edges) = if on_input {
                let (o, a) = graph.csr();
                (o, a, graph.edges())
            } else {
                (
                    scratch.offsets.as_slice(),
                    scratch.adj.as_slice(),
                    scratch.work_edges.as_slice(),
                )
            };
            local_moving(
                work_n,
                offsets,
                adj,
                edges,
                &scratch.self_loops,
                rng,
                &mut scratch.community,
                &mut scratch.degree,
                &mut scratch.community_degree,
                &mut scratch.order,
                &mut scratch.weight_to,
                &mut scratch.stamp,
                &mut scratch.stamp_gen,
                &mut scratch.touched,
            )
        };
        if !improved {
            break;
        }
        // Aggregate: renumber the moved communities densely (first-appearance
        // order over original vertices, exactly `Communities::from_assignment`
        // semantics) and build the community graph, preserving intra-community
        // weight as self-loops so later passes see the true modularity terms.
        scratch.raw_to_dense.clear();
        scratch.raw_to_dense.resize(work_n, usize::MAX);
        let mut count = 0usize;
        for (orig, slot) in assignment.iter_mut().enumerate() {
            let raw = scratch.community[scratch.vertex_of[orig]];
            if scratch.raw_to_dense[raw] == usize::MAX {
                scratch.raw_to_dense[raw] = count;
                count += 1;
            }
            *slot = scratch.raw_to_dense[raw];
        }
        scratch.keyed.clear();
        scratch.next_self_loops.clear();
        scratch.next_self_loops.resize(count, 0.0);
        {
            let src_edges = if on_input {
                graph.edges()
            } else {
                scratch.work_edges.as_slice()
            };
            for (u, v, w) in src_edges {
                let cu = scratch.raw_to_dense[scratch.community[*u]];
                let cv = scratch.raw_to_dense[scratch.community[*v]];
                if cu == cv {
                    scratch.next_self_loops[cu] += *w;
                } else {
                    let key = if cu < cv { (cu, cv) } else { (cv, cu) };
                    scratch.keyed.push((key, *w));
                }
            }
        }
        for (sv, loop_weight) in scratch.self_loops.iter().enumerate() {
            if *loop_weight > 0.0 {
                let c = scratch.raw_to_dense[scratch.community[sv]];
                scratch.next_self_loops[c] += *loop_weight;
            }
        }
        // Canonical sort + fold (shared with `InteractionGraph::from_edges`),
        // without rebuilding a map per level.
        crate::graph::merge_keyed_edges(&mut scratch.keyed, &mut scratch.next_edges);
        std::mem::swap(&mut scratch.work_edges, &mut scratch.next_edges);
        crate::graph::build_csr(
            count,
            &scratch.work_edges,
            &mut scratch.offsets,
            &mut scratch.adj,
        );
        std::mem::swap(&mut scratch.self_loops, &mut scratch.next_self_loops);
        scratch.self_loops.truncate(count);
        work_n = count;
        on_input = false;
        // After aggregation every original vertex's super vertex is its
        // community.
        scratch.vertex_of.clear();
        scratch.vertex_of.extend_from_slice(&assignment);
        if scratch.work_edges.is_empty() {
            break;
        }
    }

    Communities::from_assignment(assignment)
}

/// One Louvain local-moving phase on the working (aggregated) CSR graph.
/// Returns whether any vertex changed community. `self_loops[v]` is the
/// internal weight absorbed into super-vertex `v` by earlier aggregation
/// passes; it contributes to the vertex degree and to the total weight `m`.
/// Candidate communities are visited in ascending index order (sorted touched
/// list), the same tie-break order an ordered map would give.
#[allow(clippy::too_many_arguments)]
fn local_moving<R: Rng>(
    nw: usize,
    offsets: &[usize],
    adj: &[(usize, f64)],
    edges: &[(usize, usize, f64)],
    self_loops: &[f64],
    rng: &mut R,
    community: &mut Vec<usize>,
    degree: &mut Vec<f64>,
    community_degree: &mut Vec<f64>,
    order: &mut Vec<usize>,
    weight_to: &mut Vec<f64>,
    stamp: &mut Vec<u64>,
    stamp_gen: &mut u64,
    touched: &mut Vec<usize>,
) -> bool {
    let m = edges.iter().map(|(_, _, w)| *w).sum::<f64>() + self_loops.iter().sum::<f64>();
    if m <= 0.0 || nw == 0 {
        return false;
    }
    // Community of each super vertex; initially its own community.
    community.clear();
    community.extend(0..nw);
    degree.clear();
    degree.extend((0..nw).map(|v| {
        adj[offsets[v]..offsets[v + 1]]
            .iter()
            .map(|(_, w)| *w)
            .sum::<f64>()
            + 2.0 * self_loops[v]
    }));
    community_degree.clear();
    community_degree.extend_from_slice(degree);

    order.clear();
    order.extend(0..nw);
    order.shuffle(rng);

    if weight_to.len() < nw {
        weight_to.resize(nw, 0.0);
        stamp.resize(nw, 0);
    }

    let mut any_moved = false;
    for _ in 0..10 {
        let mut moved = false;
        for &v in order.iter() {
            let current = community[v];
            // Weights from v to each neighbouring community, accumulated into
            // a stamped scratch array (one slot per community) instead of a
            // per-vertex ordered map.
            *stamp_gen += 1;
            touched.clear();
            for (nb, w) in &adj[offsets[v]..offsets[v + 1]] {
                let c = community[*nb];
                if stamp[c] != *stamp_gen {
                    stamp[c] = *stamp_gen;
                    weight_to[c] = 0.0;
                    touched.push(c);
                }
                weight_to[c] += *w;
            }
            touched.sort_unstable();
            // Remove v from its community.
            community_degree[current] -= degree[v];
            let to_current = if stamp[current] == *stamp_gen {
                weight_to[current]
            } else {
                0.0
            };
            let mut best = current;
            let mut best_gain = to_current - community_degree[current] * degree[v] / (2.0 * m);
            for &c in touched.iter() {
                if c == current {
                    continue;
                }
                let gain = weight_to[c] - community_degree[c] * degree[v] / (2.0 * m);
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best = c;
                }
            }
            community_degree[best] += degree[v];
            if best != current {
                community[v] = best;
                moved = true;
                any_moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    any_moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    /// Two dense cliques joined by a single weak edge.
    fn two_cliques() -> InteractionGraph {
        let mut edges = Vec::new();
        for i in 0..5usize {
            for j in (i + 1)..5 {
                edges.push((i, j, 1.0));
                edges.push((i + 5, j + 5, 1.0));
            }
        }
        edges.push((0, 5, 0.1));
        InteractionGraph::from_edges(10, edges)
    }

    #[test]
    fn louvain_finds_the_two_cliques() {
        let g = two_cliques();
        let c = louvain(&g, &mut rng());
        assert_eq!(c.count, 2);
        // Vertices 0..5 share one community, 5..10 the other.
        let first = c.assignment[0];
        for v in 0..5 {
            assert_eq!(c.assignment[v], first);
        }
        let second = c.assignment[5];
        assert_ne!(first, second);
        for v in 5..10 {
            assert_eq!(c.assignment[v], second);
        }
    }

    #[test]
    fn louvain_modularity_beats_singletons() {
        let g = two_cliques();
        let c = louvain(&g, &mut rng());
        let singletons: Vec<usize> = (0..g.num_vertices()).collect();
        assert!(modularity(&g, &c.assignment) > modularity(&g, &singletons));
    }

    #[test]
    fn modularity_of_single_community_is_zero() {
        let g = two_cliques();
        let all_same = vec![0usize; g.num_vertices()];
        let q = modularity(&g, &all_same);
        assert!(q.abs() < 1e-9);
    }

    #[test]
    fn empty_graph_handled() {
        let g = InteractionGraph::empty(0);
        let c = louvain(&g, &mut rng());
        assert_eq!(c.count, 0);
        assert_eq!(modularity(&g, &c.assignment), 0.0);
    }

    #[test]
    fn groups_and_members_are_consistent() {
        let g = two_cliques();
        let c = louvain(&g, &mut rng());
        let groups = c.groups();
        assert_eq!(groups.len(), c.count);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, g.num_vertices());
        for (i, group) in groups.iter().enumerate() {
            assert_eq!(&c.members(i), group);
        }
    }

    #[test]
    fn isolated_vertices_keep_their_own_community() {
        let g = InteractionGraph::from_edges(4, [(0, 1, 1.0)]);
        let c = louvain(&g, &mut rng());
        // Vertices 2 and 3 are isolated; they must not join 0/1's community.
        assert_ne!(c.assignment[2], c.assignment[0]);
        assert_ne!(c.assignment[3], c.assignment[0]);
    }
}
