//! Placement cost model used by the annealing mappers.
//!
//! The force-directed annealer accepts or rejects vertex moves based on a
//! scalar cost combining the congestion heuristics of Section VI-A: weighted
//! edge length and edge crossings. (Edge spacing is tracked as a metric but
//! not folded into the per-move cost: its full evaluation is `O(m²)` per move
//! and its correlation with latency is the weakest of the three.)
//!
//! The annealer prices moves incrementally from a per-edge crossing ledger
//! kept in [`CostScratch`]. [`CostModel::total`],
//! [`CostModel::vertex_contribution`] and [`CostModel::move_delta`] are the
//! full-scan oracles that the [`reference`](crate::reference) refinement and
//! the tests compare it against.

use msfu_graph::geometry::{segments_cross, Point};
use msfu_graph::InteractionGraph;

/// Relative weights of the cost components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the total weighted Manhattan edge length.
    pub edge_length: f64,
    /// Weight of each edge crossing.
    pub crossing: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Crossings correlate with latency more strongly than length
        // (r = 0.83 vs 0.60 in Fig. 6), so they carry a heavier weight.
        CostWeights {
            edge_length: 1.0,
            crossing: 10.0,
        }
    }
}

/// Evaluates placement costs, with support for cheap incremental evaluation
/// of single-vertex moves.
#[derive(Debug, Clone)]
pub struct CostModel<'g> {
    graph: &'g InteractionGraph,
    weights: CostWeights,
}

impl<'g> CostModel<'g> {
    /// Creates a cost model over a graph.
    pub fn new(graph: &'g InteractionGraph, weights: CostWeights) -> Self {
        CostModel { graph, weights }
    }

    /// The weights in use.
    pub fn weights(&self) -> CostWeights {
        self.weights
    }

    /// Full cost of a placement: weighted edge length plus crossing penalty.
    pub fn total(&self, positions: &[Point]) -> f64 {
        let crossings = msfu_graph::metrics::edge_crossings(self.graph, positions);
        self.cost(self.length(positions), crossings)
    }

    /// Cost contribution of the edges incident to `vertex`: their weighted
    /// lengths plus the crossings they participate in. The difference of this
    /// quantity before and after a single-vertex move equals the change in
    /// total cost (crossings between two edges both incident to the moved
    /// vertex are counted consistently on both sides).
    pub fn vertex_contribution(&self, vertex: usize, positions: &[Point]) -> f64 {
        let mut crossings = 0usize;
        for (nb, _) in self.graph.neighbors(vertex) {
            let a1 = positions[vertex];
            let a2 = positions[*nb];
            for (u, v, _) in self.graph.edges() {
                // Skip edges incident to the moved vertex or sharing the
                // neighbour endpoint (shared endpoints never count).
                if *u == vertex || *v == vertex || *u == *nb || *v == *nb {
                    continue;
                }
                if segments_cross(a1, a2, positions[*u], positions[*v]) {
                    crossings += 1;
                }
            }
        }
        self.cost(self.star_length(vertex, positions), crossings)
    }

    /// Change in total cost if `vertex` moves from its current position to
    /// `candidate` (negative is an improvement).
    pub fn move_delta(&self, vertex: usize, positions: &mut [Point], candidate: Point) -> f64 {
        let before = self.vertex_contribution(vertex, positions);
        let original = positions[vertex];
        positions[vertex] = candidate;
        let after = self.vertex_contribution(vertex, positions);
        positions[vertex] = original;
        after - before
    }

    /// Builds (or rebuilds) the pricing state for `positions`: the per-vertex
    /// incident-edge index, one bounding box per edge and the crossing
    /// ledger, filled by one box-pruned scan over all edge pairs. Must be
    /// called once before the ledger evaluators; [`CostModel::commit_move`]
    /// keeps the state current as moves are accepted.
    pub fn prepare(&self, scratch: &mut CostScratch, positions: &[Point]) {
        let edges = self.graph.edges();
        let n = self.graph.num_vertices();
        scratch.inc_off.clear();
        scratch.inc_off.resize(n + 1, 0);
        for (u, v, _) in edges {
            scratch.inc_off[*u + 1] += 1;
            scratch.inc_off[*v + 1] += 1;
        }
        for i in 0..n {
            scratch.inc_off[i + 1] += scratch.inc_off[i];
        }
        scratch.inc_edge.clear();
        scratch.inc_edge.resize(scratch.inc_off[n], 0);
        let mut cursor = scratch.inc_off.clone();
        for (e, (u, v, _)) in edges.iter().enumerate() {
            scratch.inc_edge[cursor[*u]] = e;
            cursor[*u] += 1;
            scratch.inc_edge[cursor[*v]] = e;
            cursor[*v] += 1;
        }
        scratch.bbox.clear();
        scratch.bbox.extend(
            edges
                .iter()
                .map(|(u, v, _)| edge_bbox(positions[*u], positions[*v])),
        );
        scratch.partners.truncate(edges.len());
        for list in &mut scratch.partners {
            list.clear();
        }
        scratch.partners.resize_with(edges.len(), Vec::new);
        scratch.recorded.clear();
        for i in 0..edges.len() {
            let (a, b, _) = edges[i];
            for (j, (c, d, _)) in edges.iter().enumerate().skip(i + 1) {
                if a == *c || a == *d || b == *c || b == *d {
                    continue;
                }
                if !boxes_overlap(&scratch.bbox[i], &scratch.bbox[j]) {
                    continue;
                }
                if segments_cross(positions[a], positions[b], positions[*c], positions[*d]) {
                    scratch.partners[i].push(j as u32);
                    scratch.partners[j].push(i as u32);
                }
            }
        }
    }

    /// Refreshes the bounding boxes of every edge incident to `vertex` after
    /// its position changed. O(degree).
    pub fn note_move(&self, scratch: &mut CostScratch, vertex: usize, positions: &[Point]) {
        let edges = self.graph.edges();
        let lo = scratch.inc_off[vertex];
        let hi = scratch.inc_off[vertex + 1];
        for i in lo..hi {
            let e = scratch.inc_edge[i];
            let (u, v, _) = edges[e];
            scratch.bbox[e] = edge_bbox(positions[u], positions[v]);
        }
    }

    /// [`CostModel::total`] read from the ledger: the same length fold plus
    /// half the summed partner-list lengths (every crossing sits in two
    /// lists). O(m). Bit-identical to [`CostModel::total`] when the ledger is
    /// current for `positions`.
    pub fn ledger_total(&self, scratch: &CostScratch, positions: &[Point]) -> f64 {
        let crossings = scratch.partners.iter().map(Vec::len).sum::<usize>() / 2;
        self.cost(self.length(positions), crossings)
    }

    /// [`CostModel::vertex_contribution`] read from the ledger: the same
    /// length fold plus the partner counts of the vertex's incident edges.
    /// O(degree). Bit-identical to [`CostModel::vertex_contribution`] when
    /// the ledger is current for `positions`.
    pub fn ledger_contribution(
        &self,
        scratch: &CostScratch,
        vertex: usize,
        positions: &[Point],
    ) -> f64 {
        let (lo, hi) = (scratch.inc_off[vertex], scratch.inc_off[vertex + 1]);
        let crossings: usize = scratch.inc_edge[lo..hi]
            .iter()
            .map(|e| scratch.partners[*e].len())
            .sum();
        self.cost(self.star_length(vertex, positions), crossings)
    }

    /// [`CostModel::vertex_contribution`] at a trial placement, pruned:
    /// instead of testing every incident edge against every other edge, each
    /// other edge is first rejected against the bounding box of the vertex's
    /// whole edge star, then against the individual incident edge's box. The
    /// star boxes are computed from the live `positions` (so a trial position
    /// is honoured even before [`CostModel::note_move`]); the boxes of all
    /// other edges come from `scratch`. Bit-identical to the unpruned
    /// evaluator.
    ///
    /// Every counted (incident edge, crossing partner) pair is recorded for
    /// [`CostModel::commit_move`]. The scan starts a fresh record, unless
    /// `paired_with` names the other vertex of a swap whose star was scanned
    /// just before: then it extends that record and skips the pairs that scan
    /// already holds (those touching an edge of `paired_with`, the shared
    /// edge included), while still counting them.
    pub fn vertex_contribution_pruned(
        &self,
        scratch: &mut CostScratch,
        vertex: usize,
        positions: &[Point],
        paired_with: Option<usize>,
    ) -> f64 {
        let edges = self.graph.edges();
        let p_v = positions[vertex];
        if paired_with.is_none() {
            scratch.recorded.clear();
        }
        let is_paired = |x: usize| paired_with == Some(x);
        let mut crossings = 0usize;
        // Star bbox + one live box per incident edge.
        scratch.star.clear();
        let mut star = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for &e in &scratch.inc_edge[scratch.inc_off[vertex]..scratch.inc_off[vertex + 1]] {
            let (a, b, _) = edges[e];
            let nb = if a == vertex { b } else { a };
            let eb = edge_bbox(p_v, positions[nb]);
            star[0] = star[0].min(eb[0]);
            star[1] = star[1].max(eb[1]);
            star[2] = star[2].min(eb[2]);
            star[3] = star[3].max(eb[3]);
            scratch.star.push((e, nb, eb));
        }
        if !scratch.star.is_empty() {
            for (f, (u, v, _)) in edges.iter().enumerate() {
                if *u == vertex || *v == vertex {
                    continue;
                }
                if !boxes_overlap(&scratch.bbox[f], &star) {
                    continue;
                }
                let f_paired = is_paired(*u) || is_paired(*v);
                for &(e, nb, eb) in &scratch.star {
                    if *u == nb || *v == nb {
                        continue;
                    }
                    if !boxes_overlap(&scratch.bbox[f], &eb) {
                        continue;
                    }
                    if segments_cross(p_v, positions[nb], positions[*u], positions[*v]) {
                        crossings += 1;
                        if !f_paired && !is_paired(nb) {
                            scratch.recorded.push((e as u32, f as u32));
                        }
                    }
                }
            }
        }
        self.cost(self.star_length(vertex, positions), crossings)
    }

    /// Commits an accepted move of the `moved` vertices, whose new positions
    /// `positions` already holds: refreshes their edge boxes, takes each of
    /// their incident edges out of its old partners' lists and installs the
    /// pairs recorded by the pricing scans on both sides. No edge is
    /// re-scanned at its old position.
    pub fn commit_move(&self, scratch: &mut CostScratch, moved: &[usize], positions: &[Point]) {
        for &vertex in moved {
            self.note_move(scratch, vertex, positions);
            for i in scratch.inc_off[vertex]..scratch.inc_off[vertex + 1] {
                let e = scratch.inc_edge[i];
                let mut old = std::mem::take(&mut scratch.partners[e]);
                for &f in &old {
                    let list = &mut scratch.partners[f as usize];
                    let k = list
                        .iter()
                        .position(|&x| x as usize == e)
                        .expect("the crossing ledger is symmetric");
                    list.swap_remove(k);
                }
                old.clear();
                scratch.partners[e] = old;
            }
        }
        for &(e, f) in &scratch.recorded {
            scratch.partners[e as usize].push(f);
            scratch.partners[f as usize].push(e);
        }
        scratch.recorded.clear();
    }

    /// Weighted length of all edges, folded in edge order.
    fn length(&self, positions: &[Point]) -> f64 {
        self.graph
            .edges()
            .iter()
            .map(|(u, v, w)| w * positions[*u].manhattan_distance(&positions[*v]))
            .sum()
    }

    /// Weighted length of the edges incident to `vertex`, folded in
    /// neighbour order.
    fn star_length(&self, vertex: usize, positions: &[Point]) -> f64 {
        let mut length = 0.0;
        for (nb, w) in self.graph.neighbors(vertex) {
            length += w * positions[vertex].manhattan_distance(&positions[*nb]);
        }
        length
    }

    fn cost(&self, length: f64, crossings: usize) -> f64 {
        self.weights.edge_length * length + self.weights.crossing * crossings as f64
    }
}

/// Reusable pricing state for the ledger evaluators of [`CostModel`]:
/// per-edge bounding boxes kept in sync with the placement, the per-vertex
/// incident-edge index used to refresh them in O(degree) per move, and the
/// crossing ledger — for every edge, the non-adjacent edges that cross it,
/// so an edge's crossing count is the length of its list. A pricing scan
/// records the (moved edge, partner) pairs it counts; an accepted move
/// installs them in place of the moved edges' old lists. One scratch serves
/// any number of refinement runs — buffers only ever grow.
#[derive(Debug, Clone, Default)]
pub struct CostScratch {
    /// Per-edge `[min_x, max_x, min_y, max_y]`.
    bbox: Vec<[f64; 4]>,
    /// CSR incidence: edge indices of vertex `v` live in
    /// `inc_edge[inc_off[v]..inc_off[v + 1]]`.
    inc_off: Vec<usize>,
    inc_edge: Vec<usize>,
    /// `partners[e]`: the non-adjacent edges crossing edge `e`; symmetric.
    /// Edge indices are stored as `u32` to halve the ledger's footprint.
    partners: Vec<Vec<u32>>,
    /// (incident edge, neighbour, live box) of the scanned vertex's star.
    star: Vec<(usize, usize, [f64; 4])>,
    /// (moved edge, partner) pairs counted by the pricing scans of the move
    /// under consideration.
    recorded: Vec<(u32, u32)>,
}

impl CostScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Axis-aligned bounding box of the segment `(a, b)`.
fn edge_bbox(a: Point, b: Point) -> [f64; 4] {
    [a.x.min(b.x), a.x.max(b.x), a.y.min(b.y), a.y.max(b.y)]
}

/// Inflated by a margin larger than every epsilon inside `segments_cross`, so
/// a rejected pair can never have been reported as crossing.
const BOX_MARGIN: f64 = 1e-6;

fn boxes_overlap(a: &[f64; 4], b: &[f64; 4]) -> bool {
    a[0] <= b[1] + BOX_MARGIN
        && b[0] <= a[1] + BOX_MARGIN
        && a[2] <= b[3] + BOX_MARGIN
        && b[2] <= a[3] + BOX_MARGIN
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_graph() -> InteractionGraph {
        InteractionGraph::from_edges(4, [(0, 2, 1.0), (1, 3, 1.0)])
    }

    fn square_positions() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ]
    }

    #[test]
    fn total_counts_length_and_crossings() {
        let g = square_graph();
        let pos = square_positions();
        let model = CostModel::new(
            &g,
            CostWeights {
                edge_length: 1.0,
                crossing: 100.0,
            },
        );
        // Two diagonals of Manhattan length 4 each, one crossing.
        assert_eq!(model.total(&pos), 8.0 + 100.0);
    }

    #[test]
    fn move_delta_matches_full_recomputation() {
        let g = square_graph();
        let mut pos = square_positions();
        let model = CostModel::new(&g, CostWeights::default());
        let candidate = Point::new(3.0, 3.0);
        let before_total = model.total(&pos);
        let delta = model.move_delta(0, &mut pos, candidate);
        pos[0] = candidate;
        let after_total = model.total(&pos);
        assert!((after_total - before_total - delta).abs() < 1e-9);
    }

    #[test]
    fn uncrossing_move_has_negative_delta() {
        let g = square_graph();
        let mut pos = square_positions();
        let model = CostModel::new(&g, CostWeights::default());
        // Moving vertex 0 next to vertex 2 removes the crossing and shortens
        // its edge.
        let delta = model.move_delta(0, &mut pos, Point::new(2.0, 1.0));
        assert!(delta < 0.0);
    }

    #[test]
    fn default_weights_prioritise_crossings() {
        let w = CostWeights::default();
        assert!(w.crossing > w.edge_length);
    }

    /// A denser pseudo-random placement exercising collinear overlaps,
    /// T-junctions and proper crossings on integer grid coordinates.
    fn dense_case() -> (InteractionGraph, Vec<Point>) {
        let n = 12usize;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push((v, (v + 3) % n, 1.0 + v as f64));
            edges.push((v, (v + 5) % n, 2.0));
        }
        let positions: Vec<Point> = (0..n)
            .map(|v| Point::new(((v * 7) % 5) as f64, ((v * 3) % 4) as f64))
            .collect();
        (InteractionGraph::from_edges(n, edges), positions)
    }

    /// Prices a relocation of `v` to `p` the way the annealer does and, if
    /// `accept`, commits it (otherwise restores `v`). Returns the delta.
    fn relocate(
        model: &CostModel<'_>,
        scratch: &mut CostScratch,
        pos: &mut [Point],
        v: usize,
        p: Point,
        accept: bool,
    ) -> f64 {
        let before = model.ledger_contribution(scratch, v, pos);
        let original = pos[v];
        pos[v] = p;
        let after = model.vertex_contribution_pruned(scratch, v, pos, None);
        if accept {
            model.commit_move(scratch, &[v], pos);
        } else {
            pos[v] = original;
        }
        after - before
    }

    /// Prices a swap of `v` and `u` the way the annealer does and, if
    /// `accept`, commits it (otherwise swaps back). Returns the delta.
    fn swap(
        model: &CostModel<'_>,
        scratch: &mut CostScratch,
        pos: &mut [Point],
        v: usize,
        u: usize,
        accept: bool,
    ) -> f64 {
        let before =
            model.ledger_contribution(scratch, v, pos) + model.ledger_contribution(scratch, u, pos);
        pos.swap(v, u);
        model.note_move(scratch, v, pos);
        model.note_move(scratch, u, pos);
        let after = model.vertex_contribution_pruned(scratch, v, pos, None)
            + model.vertex_contribution_pruned(scratch, u, pos, Some(v));
        if accept {
            model.commit_move(scratch, &[v, u], pos);
        } else {
            pos.swap(v, u);
            model.note_move(scratch, v, pos);
            model.note_move(scratch, u, pos);
        }
        after - before
    }

    fn assert_ledger_current(model: &CostModel<'_>, scratch: &CostScratch, pos: &[Point]) {
        for v in 0..pos.len() {
            assert_eq!(
                model.ledger_contribution(scratch, v, pos),
                model.vertex_contribution(v, pos),
                "vertex {v}"
            );
        }
        assert_eq!(model.ledger_total(scratch, pos), model.total(pos));
    }

    #[test]
    fn crossing_ledger_tracks_accepted_relocations_and_swaps() {
        use rand::{Rng, SeedableRng};
        let (g, mut pos) = dense_case();
        let n = g.num_vertices();
        let model = CostModel::new(&g, CostWeights::default());
        let mut scratch = CostScratch::new();
        model.prepare(&mut scratch, &pos);
        assert_ledger_current(&model, &scratch, &pos);

        // Vertices 0 and 3 share an edge: their swap moves that edge in both
        // stars.
        assert!(g.neighbors(0).iter().any(|(nb, _)| *nb == 3));
        let mut moves = vec![(0usize, Some(3usize), Point::default())];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for _ in 0..60 {
            let v = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                let u = (v + rng.gen_range(1..n)) % n;
                moves.push((v, Some(u), Point::default()));
            } else {
                let p = Point::new(rng.gen_range(0..6) as f64, rng.gen_range(0..5) as f64);
                moves.push((v, None, p));
            }
        }
        for (step, (v, other, p)) in moves.into_iter().enumerate() {
            // Every third move is priced and rejected, which must leave the
            // ledger untouched.
            let accept = step % 3 != 2;
            match other {
                Some(u) => {
                    let mut trial = pos.clone();
                    let expected = {
                        let before = model.vertex_contribution(v, &trial)
                            + model.vertex_contribution(u, &trial);
                        trial.swap(v, u);
                        model.vertex_contribution(v, &trial) + model.vertex_contribution(u, &trial)
                            - before
                    };
                    let delta = swap(&model, &mut scratch, &mut pos, v, u, accept);
                    assert_eq!(delta, expected, "swap {v}<->{u} at step {step}");
                }
                None => {
                    if pos.contains(&p) {
                        continue;
                    }
                    let expected = model.move_delta(v, &mut pos.clone(), p);
                    let delta = relocate(&model, &mut scratch, &mut pos, v, p, accept);
                    assert_eq!(delta, expected, "relocate {v} at step {step}");
                }
            }
            assert_ledger_current(&model, &scratch, &pos);
        }
    }
}
