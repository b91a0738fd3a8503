//! Force-directed annealing mapper ("FD" in Table I, Section VI-B1).
//!
//! The mapper iteratively transforms an initial placement (the linear
//! hand-tuned layout by default, as in the paper) by computing three force
//! fields — vertex–vertex attraction towards the neighbourhood centroid,
//! edge–edge repulsion between edge midpoints, and magnetic-dipole rotation —
//! and moving vertices one grid step along their net force. Moves are
//! accepted by a simulated-annealing rule over a cost combining weighted
//! edge length and edge crossings. Community-structure escape moves
//! (Louvain communities + KMeans cluster re-joining) periodically perturb the
//! placement out of local minima.

use std::cell::RefCell;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use msfu_circuit::QubitId;
use msfu_distill::Factory;
use msfu_graph::community::CommunityScratch;
use msfu_graph::geometry::Point;
use msfu_graph::kmeans::KMeansScratch;
use msfu_graph::{community, kmeans, InteractionGraph};

use crate::cost::{CostModel, CostScratch, CostWeights};
use crate::dipole::{dipole_forces_into, pole_coloring};
use crate::{Coord, FactoryMapper, Layout, LinearMapper, Mapping, Result};

/// Tuning knobs of the force-directed annealer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForceDirectedConfig {
    /// Number of annealing sweeps over all vertices.
    pub iterations: usize,
    /// RNG seed (the mapper is deterministic for a fixed seed).
    pub seed: u64,
    /// Strength of the attraction towards the neighbourhood centroid.
    pub attraction: f64,
    /// Strength of the edge–edge midpoint repulsion.
    pub repulsion: f64,
    /// Strength of the magnetic-dipole rotation force (0 disables the
    /// heuristic; used by the ablation bench).
    pub dipole: f64,
    /// Distance beyond which dipole interactions are ignored.
    pub dipole_cutoff: f64,
    /// Maximum number of edge pairs sampled per sweep for the repulsion force.
    pub repulsion_sample: usize,
    /// Whether to apply community-structure escape moves.
    pub use_communities: bool,
    /// Apply community moves every this many sweeps.
    pub community_interval: usize,
    /// Initial annealing temperature.
    pub temperature: f64,
    /// Multiplicative cooling factor per sweep.
    pub cooling: f64,
    /// Cost weights for the accept/reject decision.
    pub weights: CostWeights,
}

impl Default for ForceDirectedConfig {
    fn default() -> Self {
        ForceDirectedConfig {
            iterations: 30,
            seed: 0,
            attraction: 0.5,
            repulsion: 2.0,
            dipole: 1.0,
            dipole_cutoff: 8.0,
            repulsion_sample: 20_000,
            use_communities: true,
            community_interval: 10,
            temperature: 2.0,
            cooling: 0.92,
            weights: CostWeights::default(),
        }
    }
}

/// The force-directed annealing mapper.
#[derive(Debug, Clone)]
pub struct ForceDirectedMapper {
    config: ForceDirectedConfig,
}

impl ForceDirectedMapper {
    /// Creates a mapper with default parameters and the given seed.
    pub fn new(seed: u64) -> Self {
        ForceDirectedMapper {
            config: ForceDirectedConfig {
                seed,
                ..ForceDirectedConfig::default()
            },
        }
    }

    /// Creates a mapper with explicit parameters.
    pub fn with_config(config: ForceDirectedConfig) -> Self {
        ForceDirectedMapper { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ForceDirectedConfig {
        &self.config
    }

    /// Refines an existing placement of `graph` by force-directed annealing
    /// and returns the best placement found (by total cost).
    ///
    /// Moves are priced from a crossing ledger kept in [`CostScratch`]: for
    /// every edge, the non-adjacent edges that cross it. A move's "before"
    /// cost is read from the ledger in O(degree); its "after" cost scans only
    /// the moved vertex's edge star, rejecting every other edge against
    /// cached bounding boxes before any segment-intersection test, and
    /// records the crossings it counts. An accepted move installs those
    /// records in place of the moved edges' old lists, and the per-sweep
    /// best tracking reads the total from the ledger in O(m). The scratch is
    /// reused across sweeps *and* across refinement calls (thread-local).
    /// Results are byte-identical to the full-recompute
    /// [`reference`](crate::reference) pipeline; see
    /// `tests/refine_equivalence.rs`.
    pub fn refine(&self, graph: &InteractionGraph, initial: &Mapping) -> Result<Mapping> {
        REFINE_SCRATCH.with(|cell| self.refine_with(&mut cell.borrow_mut(), graph, initial))
    }

    fn refine_with(
        &self,
        s: &mut RefineScratch,
        graph: &InteractionGraph,
        initial: &Mapping,
    ) -> Result<Mapping> {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut mapping = initial.clone();
        let mut positions = mapping.to_points();
        let cost_model = CostModel::new(graph, cfg.weights);
        cost_model.prepare(&mut s.cost, &positions);

        let mut best_mapping = mapping.clone();
        let mut best_cost = cost_model.ledger_total(&s.cost, &positions);

        let poles = if cfg.dipole > 0.0 {
            Some(pole_coloring(graph))
        } else {
            None
        };
        let communities = if cfg.use_communities {
            Some(community::louvain_with(graph, &mut rng, &mut s.community))
        } else {
            None
        };

        let active: Vec<usize> = graph.active_vertices();
        let mut temperature = cfg.temperature;

        for sweep in 0..cfg.iterations {
            self.compute_forces_into(
                graph,
                &positions,
                poles.as_deref(),
                &mut rng,
                &active,
                &mut s.forces,
                &mut s.dipole,
            );

            s.order.clear();
            s.order.extend_from_slice(&active);
            s.order.shuffle(&mut rng);
            for i in 0..s.order.len() {
                let v = s.order[i];
                let force = s.forces[v];
                let step_row = step(force.y);
                let step_col = step(force.x);
                if step_row == 0 && step_col == 0 {
                    continue;
                }
                let current = match mapping.position(QubitId::new(v as u32)) {
                    Some(c) => c,
                    None => continue,
                };
                let target_row = offset(current.row, step_row, mapping.height());
                let target_col = offset(current.col, step_col, mapping.width());
                let target = Coord::new(target_row, target_col);
                if target == current {
                    continue;
                }
                self.try_move(
                    &cost_model,
                    &mut s.cost,
                    &mut mapping,
                    &mut positions,
                    v,
                    target,
                    temperature,
                    &mut rng,
                );
            }

            // Community escape moves.
            if let Some(comms) = &communities {
                if cfg.community_interval > 0 && (sweep + 1) % cfg.community_interval == 0 {
                    self.community_moves(
                        comms,
                        &cost_model,
                        &mut s.cost,
                        &mut s.group_pts,
                        &mut s.sizes,
                        &mut s.kmeans,
                        &mut mapping,
                        &mut positions,
                        temperature * 2.0,
                        &mut rng,
                    );
                }
            }

            // Track the best placement by exact cost.
            let current_cost = cost_model.ledger_total(&s.cost, &positions);
            if current_cost < best_cost {
                best_cost = current_cost;
                best_mapping = mapping.clone();
            }
            temperature *= cfg.cooling;
        }
        Ok(best_mapping)
    }

    /// Computes the combined force field on every vertex into `forces`
    /// (`dipole_buf` is the reusable pair-sum accumulator of the dipole
    /// term).
    #[allow(clippy::too_many_arguments)]
    fn compute_forces_into(
        &self,
        graph: &InteractionGraph,
        positions: &[Point],
        poles: Option<&[crate::dipole::Pole]>,
        rng: &mut ChaCha8Rng,
        active: &[usize],
        forces: &mut Vec<Point>,
        dipole_buf: &mut Vec<Point>,
    ) {
        let cfg = &self.config;
        let n = graph.num_vertices();
        forces.clear();
        forces.resize(n, Point::default());

        // Vertex-vertex attraction towards the neighbourhood centroid.
        if cfg.attraction > 0.0 {
            for v in 0..n {
                let neighbors = graph.neighbors(v);
                if neighbors.is_empty() {
                    continue;
                }
                // Centroid accumulated inline, in neighbor order (the same
                // fold `geometry::centroid` performs on a collected list).
                let mut cx = 0.0;
                let mut cy = 0.0;
                for (u, _) in neighbors {
                    cx += positions[*u].x;
                    cy += positions[*u].y;
                }
                let c = Point::new(cx / neighbors.len() as f64, cy / neighbors.len() as f64);
                forces[v] = forces[v] + (c - positions[v]) * cfg.attraction;
            }
        }

        // Edge-edge midpoint repulsion (sampled pairs).
        if cfg.repulsion > 0.0 {
            let edges = graph.edges();
            let m = edges.len();
            if m >= 2 {
                let total_pairs = m * (m - 1) / 2;
                let samples = cfg.repulsion_sample.min(total_pairs);
                for _ in 0..samples {
                    let i = rng.gen_range(0..m);
                    let mut j = rng.gen_range(0..m);
                    while j == i {
                        j = rng.gen_range(0..m);
                    }
                    let (a, b, _) = edges[i];
                    let (c, d, _) = edges[j];
                    let m1 = positions[a].midpoint(&positions[b]);
                    let m2 = positions[c].midpoint(&positions[d]);
                    let delta = m1 - m2;
                    let dist = (delta.x * delta.x + delta.y * delta.y).sqrt().max(0.5);
                    let magnitude = cfg.repulsion / (dist * dist);
                    let unit = Point::new(delta.x / dist, delta.y / dist);
                    let push = unit * magnitude;
                    forces[a] = forces[a] + push;
                    forces[b] = forces[b] + push;
                    forces[c] = forces[c] - push;
                    forces[d] = forces[d] - push;
                }
            }
        }

        // Magnetic-dipole rotation: pair sums accumulate in the dedicated
        // buffer first (same summation order as the standalone
        // `dipole_forces`), then fold into the force field.
        if let Some(poles) = poles {
            dipole_forces_into(
                graph,
                positions,
                poles,
                cfg.dipole,
                cfg.dipole_cutoff,
                active,
                dipole_buf,
            );
            for v in 0..n {
                forces[v] = forces[v] + dipole_buf[v];
            }
        }
    }

    /// Attempts to move vertex `v` to `target` (relocating into a free cell or
    /// swapping with the occupant), accepting by the annealing rule.
    /// "Before" costs come from the crossing ledger, "after" costs from the
    /// recording star scans; accepted moves are committed to the ledger.
    #[allow(clippy::too_many_arguments)]
    fn try_move(
        &self,
        cost_model: &CostModel<'_>,
        cost_scratch: &mut CostScratch,
        mapping: &mut Mapping,
        positions: &mut [Point],
        v: usize,
        target: Coord,
        temperature: f64,
        rng: &mut ChaCha8Rng,
    ) -> bool {
        let qubit = QubitId::new(v as u32);
        let accept = |delta: f64, rng: &mut ChaCha8Rng| -> bool {
            delta < 0.0 || (temperature > 1e-9 && rng.gen::<f64>() < (-delta / temperature).exp())
        };
        match mapping.occupant(target) {
            None => {
                let before = cost_model.ledger_contribution(cost_scratch, v, positions);
                let original = positions[v];
                positions[v] = target.to_point();
                let after = cost_model.vertex_contribution_pruned(cost_scratch, v, positions, None);
                if accept(after - before, rng) {
                    mapping
                        .relocate(qubit, target)
                        .expect("target cell verified free and in bounds");
                    cost_model.commit_move(cost_scratch, &[v], positions);
                    true
                } else {
                    positions[v] = original;
                    false
                }
            }
            Some(other) if other != qubit => {
                let u = other.index();
                let pv = positions[v];
                let pu = positions[u];
                let before = cost_model.ledger_contribution(cost_scratch, v, positions)
                    + cost_model.ledger_contribution(cost_scratch, u, positions);
                positions[v] = pu;
                positions[u] = pv;
                // The swapped vertices' edge boxes must track the trial
                // positions: when pricing u's star, v's edges are "other"
                // edges looked up from the scratch.
                cost_model.note_move(cost_scratch, v, positions);
                cost_model.note_move(cost_scratch, u, positions);
                let after = cost_model.vertex_contribution_pruned(cost_scratch, v, positions, None)
                    + cost_model.vertex_contribution_pruned(cost_scratch, u, positions, Some(v));
                let delta = after - before;
                if accept(delta, rng) {
                    mapping.swap(qubit, other).expect("both qubits are placed");
                    cost_model.commit_move(cost_scratch, &[v, u], positions);
                    true
                } else {
                    positions[v] = pv;
                    positions[u] = pu;
                    cost_model.note_move(cost_scratch, v, positions);
                    cost_model.note_move(cost_scratch, u, positions);
                    false
                }
            }
            _ => false,
        }
    }

    /// Community escape moves: for every community whose members have drifted
    /// into several spatial clusters, pull the members of the smaller clusters
    /// one step towards the centroid of the largest cluster.
    #[allow(clippy::too_many_arguments)]
    fn community_moves(
        &self,
        communities: &community::Communities,
        cost_model: &CostModel<'_>,
        cost_scratch: &mut CostScratch,
        group_pts: &mut Vec<Point>,
        sizes: &mut Vec<usize>,
        kmeans_scratch: &mut KMeansScratch,
        mapping: &mut Mapping,
        positions: &mut [Point],
        temperature: f64,
        rng: &mut ChaCha8Rng,
    ) {
        for group in communities.groups() {
            if group.len() < 4 {
                continue;
            }
            group_pts.clear();
            group_pts.extend(group.iter().map(|v| positions[*v]));
            let clustering = kmeans::kmeans_with(group_pts, 2, 20, rng, kmeans_scratch);
            if clustering.num_clusters() < 2 {
                continue;
            }
            sizes.clear();
            sizes.resize(clustering.num_clusters(), 0);
            for a in &clustering.assignment {
                sizes[*a] += 1;
            }
            let largest = sizes
                .iter()
                .enumerate()
                .max_by_key(|(_, s)| **s)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let target_centroid = clustering.centroids[largest];
            for (local, &vertex) in group.iter().enumerate() {
                if clustering.assignment[local] == largest {
                    continue;
                }
                let current = match mapping.position(QubitId::new(vertex as u32)) {
                    Some(c) => c,
                    None => continue,
                };
                let dir = target_centroid - positions[vertex];
                let target = Coord::new(
                    offset(current.row, step(dir.y), mapping.height()),
                    offset(current.col, step(dir.x), mapping.width()),
                );
                if target != current {
                    self.try_move(
                        cost_model,
                        cost_scratch,
                        mapping,
                        positions,
                        vertex,
                        target,
                        temperature,
                        rng,
                    );
                }
            }
        }
    }
}

/// Buffers reused across sweeps and across refinement calls on the same
/// thread: the force fields, the visit order, the cost model's boxes and
/// crossing ledger, the Louvain aggregation buffers and the k-means
/// accumulators of the community escape moves.
#[derive(Debug, Default)]
struct RefineScratch {
    cost: CostScratch,
    forces: Vec<Point>,
    dipole: Vec<Point>,
    order: Vec<usize>,
    group_pts: Vec<Point>,
    sizes: Vec<usize>,
    community: CommunityScratch,
    kmeans: KMeansScratch,
}

thread_local! {
    /// One refinement scratch per thread: `build_mapper` makes a fresh mapper
    /// per `Strategy::map`, so per-mapper storage would defeat reuse — sweep
    /// and search worker threads instead share these arenas across every
    /// placement they refine.
    static REFINE_SCRATCH: RefCell<RefineScratch> = RefCell::new(RefineScratch::default());
}

/// Sign of a force component as a single grid step.
pub(crate) fn step(component: f64) -> i64 {
    if component > 0.25 {
        1
    } else if component < -0.25 {
        -1
    } else {
        0
    }
}

/// Applies a signed step to a coordinate, clamped to `[0, bound)`.
pub(crate) fn offset(value: usize, step: i64, bound: usize) -> usize {
    let next = value as i64 + step;
    next.clamp(0, bound.saturating_sub(1) as i64) as usize
}

impl FactoryMapper for ForceDirectedMapper {
    fn name(&self) -> &'static str {
        "force-directed"
    }

    fn map_factory(&self, factory: &Factory) -> Result<Layout> {
        // The paper's FD procedure transforms the hand-optimised linear
        // mapping; start from the same baseline.
        let initial = LinearMapper::new().map_factory(factory)?;
        let graph = InteractionGraph::from_circuit(factory.circuit());
        let refined = self.refine(&graph, &initial.mapping)?;
        Ok(Layout::new(refined))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomMapper;
    use msfu_distill::FactoryConfig;
    use msfu_graph::metrics;

    fn small_config(seed: u64) -> ForceDirectedConfig {
        ForceDirectedConfig {
            iterations: 8,
            seed,
            repulsion_sample: 500,
            ..ForceDirectedConfig::default()
        }
    }

    #[test]
    fn step_and_offset_helpers() {
        assert_eq!(step(1.0), 1);
        assert_eq!(step(-1.0), -1);
        assert_eq!(step(0.1), 0);
        assert_eq!(offset(0, -1, 5), 0);
        assert_eq!(offset(4, 1, 5), 4);
        assert_eq!(offset(2, 1, 5), 3);
    }

    #[test]
    fn refinement_keeps_mapping_valid() {
        let f = Factory::build(&FactoryConfig::single_level(4)).unwrap();
        let layout = ForceDirectedMapper::with_config(small_config(1))
            .map_factory(&f)
            .unwrap();
        assert!(layout.mapping.is_complete());
        let mut seen = std::collections::HashSet::new();
        for q in 0..f.num_qubits() as u32 {
            assert!(seen.insert(layout.mapping.position(QubitId::new(q)).unwrap()));
        }
    }

    #[test]
    fn refinement_improves_a_random_start() {
        let f = Factory::build(&FactoryConfig::single_level(4)).unwrap();
        let graph = InteractionGraph::from_circuit(f.circuit());
        let random = RandomMapper::new(3).map_factory(&f).unwrap().mapping;
        let mapper = ForceDirectedMapper::with_config(ForceDirectedConfig {
            iterations: 20,
            seed: 3,
            repulsion_sample: 1000,
            ..ForceDirectedConfig::default()
        });
        let refined = mapper.refine(&graph, &random).unwrap();
        let model = CostModel::new(&graph, CostWeights::default());
        let before = model.total(&random.to_points());
        let after = model.total(&refined.to_points());
        assert!(
            after <= before,
            "refinement must not worsen the cost (before {before}, after {after})"
        );
    }

    #[test]
    fn refinement_does_not_worsen_the_linear_start() {
        let f = Factory::build(&FactoryConfig::single_level(6)).unwrap();
        let graph = InteractionGraph::from_circuit(f.circuit());
        let linear = LinearMapper::new().map_factory(&f).unwrap().mapping;
        let refined = ForceDirectedMapper::with_config(small_config(5))
            .refine(&graph, &linear)
            .unwrap();
        let model = CostModel::new(&graph, CostWeights::default());
        assert!(model.total(&refined.to_points()) <= model.total(&linear.to_points()));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let f = Factory::build(&FactoryConfig::single_level(2)).unwrap();
        let a = ForceDirectedMapper::with_config(small_config(9))
            .map_factory(&f)
            .unwrap();
        let b = ForceDirectedMapper::with_config(small_config(9))
            .map_factory(&f)
            .unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn disabling_dipole_still_works() {
        let f = Factory::build(&FactoryConfig::single_level(2)).unwrap();
        let cfg = ForceDirectedConfig {
            dipole: 0.0,
            ..small_config(2)
        };
        let layout = ForceDirectedMapper::with_config(cfg)
            .map_factory(&f)
            .unwrap();
        assert!(layout.mapping.is_complete());
    }

    #[test]
    fn fd_beats_random_on_crossings() {
        let f = Factory::build(&FactoryConfig::single_level(8)).unwrap();
        let graph = InteractionGraph::from_circuit(f.circuit());
        let random = RandomMapper::new(11).map_factory(&f).unwrap().mapping;
        let refined = ForceDirectedMapper::with_config(ForceDirectedConfig {
            iterations: 15,
            seed: 11,
            repulsion_sample: 1000,
            ..ForceDirectedConfig::default()
        })
        .refine(&graph, &random)
        .unwrap();
        let before = metrics::edge_crossings(&graph, &random.to_points());
        let after = metrics::edge_crossings(&graph, &refined.to_points());
        assert!(
            after <= before,
            "crossings should not increase (before {before}, after {after})"
        );
    }
}
