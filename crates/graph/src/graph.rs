//! The program interaction graph.

use msfu_circuit::Circuit;

/// Weighted, undirected program interaction graph.
///
/// Vertices are logical qubits (dense indices `0..n`), edges are two-qubit
/// interactions; the weight of an edge is the number of times that pair of
/// qubits interacts in the circuit (Section VI of the paper).
///
/// The adjacency is stored in compressed-sparse-row (CSR) form: one flat
/// `(neighbor, weight)` array plus per-vertex offsets, with every vertex's
/// neighbor list sorted by index. Iteration order is therefore fixed by the
/// representation itself — the determinism the mapping algorithms rely on is
/// structural, not an artifact of map iteration order — and traversals are
/// cache-friendly slices instead of per-vertex heap allocations.
///
/// # Example
///
/// ```
/// use msfu_graph::InteractionGraph;
///
/// let g = InteractionGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.total_edge_weight(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionGraph {
    num_vertices: usize,
    /// Canonical edge list: `u < v`, sorted lexicographically, with positive
    /// weight and no duplicates.
    edges: Vec<(usize, usize, f64)>,
    /// CSR offsets: the neighbors of `v` live in
    /// `adj[offsets[v]..offsets[v + 1]]`. Length `num_vertices + 1`.
    offsets: Vec<usize>,
    /// Flattened adjacency: `(neighbor, weight)` pairs, sorted by neighbor
    /// index within each vertex's slice.
    adj: Vec<(usize, f64)>,
}

impl InteractionGraph {
    /// Creates an empty graph over `num_vertices` isolated vertices.
    pub fn empty(num_vertices: usize) -> Self {
        InteractionGraph {
            num_vertices,
            edges: Vec::new(),
            offsets: vec![0; num_vertices + 1],
            adj: Vec::new(),
        }
    }

    /// Builds a graph from an edge list. Parallel edges are merged by summing
    /// their weights; self-loops are ignored.
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let mut keyed: Vec<((usize, usize), f64)> = edges
            .into_iter()
            .filter(|(a, b, _)| a != b)
            .map(|(a, b, w)| (if a < b { (a, b) } else { (b, a) }, w))
            .collect();
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(keyed.len());
        merge_keyed_edges(&mut keyed, &mut merged);
        Self::from_sorted_edges(num_vertices, merged)
    }

    /// Builds a graph from a canonical edge list — `u < v`, sorted
    /// lexicographically, no duplicate pairs — skipping the merge pass of
    /// [`InteractionGraph::from_edges`]. Used by the coarsening loops of the
    /// community/partition algorithms, which produce canonical lists by
    /// construction.
    ///
    /// # Panics
    ///
    /// Debug-asserts canonical form.
    pub fn from_sorted_edges(num_vertices: usize, edges: Vec<(usize, usize, f64)>) -> Self {
        debug_assert!(edges
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        debug_assert!(edges.iter().all(|(u, v, _)| u < v && *v < num_vertices));
        // Filling in lexicographic edge order yields ascending neighbor
        // indices within every vertex's slice: for vertex x, all (a, x) with
        // a < x precede all (x, b) in the sorted list, each group ascending.
        let mut offsets = Vec::new();
        let mut adj = Vec::new();
        build_csr(num_vertices, &edges, &mut offsets, &mut adj);
        InteractionGraph {
            num_vertices,
            edges,
            offsets,
            adj,
        }
    }

    /// Builds the interaction graph of a circuit: one vertex per qubit, one
    /// edge per interacting pair weighted by interaction count.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let pairs = circuit.interaction_pairs();
        Self::from_edges(
            circuit.num_qubits() as usize,
            pairs
                .into_iter()
                .map(|((a, b), w)| (a.index(), b.index(), w as f64)),
        )
    }

    /// The raw CSR arrays `(offsets, adj)`: the neighbors of `v` live in
    /// `adj[offsets[v]..offsets[v + 1]]`.
    pub(crate) fn csr(&self) -> (&[usize], &[(usize, f64)]) {
        (&self.offsets, &self.adj)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (merged) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The canonical edge list (`u < v`, lexicographically sorted).
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Neighbours of a vertex with edge weights, sorted by neighbor index.
    pub fn neighbors(&self, v: usize) -> &[(usize, f64)] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Unweighted degree of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Weighted degree (sum of incident edge weights) of a vertex.
    pub fn weighted_degree(&self, v: usize) -> f64 {
        self.neighbors(v).iter().map(|(_, w)| *w).sum()
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> f64 {
        self.edges.iter().map(|(_, _, w)| *w).sum()
    }

    /// Weight of the edge between `u` and `v`, or zero if absent. Binary
    /// search over the sorted neighbor slice.
    pub fn edge_weight(&self, u: usize, v: usize) -> f64 {
        let nbs = self.neighbors(u);
        match nbs.binary_search_by_key(&v, |(n, _)| *n) {
            Ok(i) => nbs[i].1,
            Err(_) => 0.0,
        }
    }

    /// Vertices with at least one incident edge.
    pub fn active_vertices(&self) -> Vec<usize> {
        (0..self.num_vertices)
            .filter(|v| self.degree(*v) > 0)
            .collect()
    }

    /// Extracts the subgraph induced by `vertices`. Returns the subgraph and
    /// the mapping `local index -> original vertex`.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> (InteractionGraph, Vec<usize>) {
        let mut local_of = vec![usize::MAX; self.num_vertices];
        for (i, v) in vertices.iter().enumerate() {
            local_of[*v] = i;
        }
        let edges = self.edges.iter().filter_map(|(u, v, w)| {
            let lu = local_of[*u];
            let lv = local_of[*v];
            if lu != usize::MAX && lv != usize::MAX {
                Some((lu, lv, *w))
            } else {
                None
            }
        });
        (
            InteractionGraph::from_edges(vertices.len(), edges),
            vertices.to_vec(),
        )
    }
}

/// Canonicalises a keyed edge list into `out`: stable sort by `(u, v)` key,
/// then parallel edges folded with their weights accumulated in *source
/// order* — exactly the fold a keyed ordered map would produce, which is the
/// FP-accumulation-order invariant the byte-identical-results guarantees of
/// the graph algorithms rest on. Shared by [`InteractionGraph::from_edges`]
/// and the Louvain aggregation so the invariant lives in one place. `keyed`
/// is drained (its capacity is retained for reuse).
pub(crate) fn merge_keyed_edges(
    keyed: &mut Vec<((usize, usize), f64)>,
    out: &mut Vec<(usize, usize, f64)>,
) {
    keyed.sort_by_key(|(key, _)| *key);
    out.clear();
    for ((u, v), w) in keyed.drain(..) {
        match out.last_mut() {
            Some((lu, lv, lw)) if *lu == u && *lv == v => *lw += w,
            _ => out.push((u, v, w)),
        }
    }
}

/// Builds the CSR arrays for a canonical (sorted, `u < v`, deduplicated)
/// edge list into caller-owned buffers, so coarsening loops can rebuild their
/// work graph per level without reallocating. Same fill as
/// [`InteractionGraph::from_sorted_edges`].
pub(crate) fn build_csr(
    num_vertices: usize,
    edges: &[(usize, usize, f64)],
    offsets: &mut Vec<usize>,
    adj: &mut Vec<(usize, f64)>,
) {
    offsets.clear();
    offsets.resize(num_vertices + 1, 0);
    for (u, v, _) in edges {
        offsets[*u + 1] += 1;
        offsets[*v + 1] += 1;
    }
    for i in 0..num_vertices {
        offsets[i + 1] += offsets[i];
    }
    adj.clear();
    adj.resize(offsets[num_vertices], (0, 0.0));
    let mut cursor: Vec<usize> = offsets.clone();
    for (u, v, w) in edges {
        adj[cursor[*u]] = (*v, *w);
        cursor[*u] += 1;
        adj[cursor[*v]] = (*u, *w);
        cursor[*v] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_circuit::{CircuitBuilder, QubitRole};

    #[test]
    fn from_edges_merges_parallel_and_drops_loops() {
        let g = InteractionGraph::from_edges(3, [(0, 1, 1.0), (1, 0, 2.0), (2, 2, 5.0)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), 3.0);
        assert_eq!(g.edge_weight(1, 0), 3.0);
        assert_eq!(g.edge_weight(0, 2), 0.0);
    }

    #[test]
    fn from_circuit_counts_interactions() {
        let mut b = CircuitBuilder::new("c");
        let q = b.register("q", QubitRole::Data, 3);
        b.cnot(q[0], q[1]).unwrap();
        b.cnot(q[1], q[0]).unwrap();
        b.cxx(q[2], vec![q[0], q[1]]).unwrap();
        b.h(q[0]).unwrap();
        let c = b.build();
        let g = InteractionGraph::from_circuit(&c);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(0, 1), 2.0);
        assert_eq!(g.edge_weight(0, 2), 1.0);
    }

    #[test]
    fn degrees_and_weights() {
        let g = InteractionGraph::from_edges(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.weighted_degree(0), 6.0);
        assert_eq!(g.total_edge_weight(), 6.0);
        assert_eq!(g.active_vertices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn isolated_vertices_are_not_active() {
        let g = InteractionGraph::from_edges(5, [(0, 1, 1.0)]);
        assert_eq!(g.active_vertices(), vec![0, 1]);
    }

    #[test]
    fn induced_subgraph_relabels_vertices() {
        let g = InteractionGraph::from_edges(5, [(0, 1, 1.0), (1, 4, 2.0), (2, 3, 1.0)]);
        let (sub, back) = g.induced_subgraph(&[1, 4, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(sub.edge_weight(0, 1), 2.0); // (1,4) became (0,1)
        assert_eq!(back, vec![1, 4, 2]);
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = InteractionGraph::empty(3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn csr_neighbor_slices_are_sorted() {
        // Insert edges in scrambled order; CSR must still expose every
        // neighbor slice in ascending index order.
        let g = InteractionGraph::from_edges(
            6,
            [
                (5, 2, 1.0),
                (0, 4, 1.0),
                (2, 0, 2.0),
                (3, 2, 1.0),
                (1, 2, 1.0),
            ],
        );
        for v in 0..6 {
            let nbs: Vec<usize> = g.neighbors(v).iter().map(|(n, _)| *n).collect();
            let mut sorted = nbs.clone();
            sorted.sort_unstable();
            assert_eq!(nbs, sorted, "vertex {v}");
        }
        assert_eq!(
            g.neighbors(2).iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![0, 1, 3, 5]
        );
        assert_eq!(g.edge_weight(2, 0), 2.0);
        assert_eq!(g.edge_weight(2, 4), 0.0);
    }

    #[test]
    fn from_sorted_edges_matches_from_edges() {
        let edges = vec![(0, 1, 1.0), (0, 3, 2.0), (1, 2, 4.0)];
        let a = InteractionGraph::from_sorted_edges(4, edges.clone());
        let b = InteractionGraph::from_edges(4, edges);
        assert_eq!(a, b);
    }
}
