//! The full-recompute force-directed refinement, preserved as a reference
//! implementation.
//!
//! [`refine`] is the pre-delta-cost pipeline: every move candidate is priced
//! by [`CostModel::vertex_contribution`]/[`CostModel::move_delta`], which scan
//! the complete edge list per incident edge, and every sweep re-evaluates the
//! exact total with [`CostModel::total`]. The production
//! [`ForceDirectedMapper::refine`](crate::ForceDirectedMapper::refine)
//! replaces those with a per-edge crossing ledger and bounding-box-pruned
//! star scans over reusable scratch; `tests/refine_equivalence.rs` asserts
//! both produce byte-identical mappings across seeded configurations.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use msfu_circuit::QubitId;
use msfu_graph::geometry::{centroid, Point};
use msfu_graph::{community, kmeans, InteractionGraph};

use crate::cost::CostModel;
use crate::dipole::{dipole_forces, pole_coloring};
use crate::force_directed::{offset, step};
use crate::{Coord, ForceDirectedConfig, Mapping, Result};

/// Refines an existing placement by force-directed annealing, pricing every
/// move with the full-recompute cost model. Byte-identical results to
/// [`ForceDirectedMapper::refine`](crate::ForceDirectedMapper::refine) for
/// the same inputs.
///
/// # Errors
///
/// Mirrors the production refinement (placement bookkeeping failures).
pub fn refine(
    cfg: &ForceDirectedConfig,
    graph: &InteractionGraph,
    initial: &Mapping,
) -> Result<Mapping> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut mapping = initial.clone();
    let mut positions = mapping.to_points();
    let cost_model = CostModel::new(graph, cfg.weights);

    let mut best_mapping = mapping.clone();
    let mut best_cost = cost_model.total(&positions);

    let poles = if cfg.dipole > 0.0 {
        Some(pole_coloring(graph))
    } else {
        None
    };
    let communities = if cfg.use_communities {
        Some(community::louvain(graph, &mut rng))
    } else {
        None
    };

    let active: Vec<usize> = graph.active_vertices();
    let mut temperature = cfg.temperature;

    for sweep in 0..cfg.iterations {
        let forces = compute_forces(cfg, graph, &positions, poles.as_deref(), &mut rng);

        let mut order = active.clone();
        order.shuffle(&mut rng);
        for &v in &order {
            let force = forces[v];
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
            try_move(
                &cost_model,
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
                community_moves(
                    comms,
                    &cost_model,
                    &mut mapping,
                    &mut positions,
                    temperature * 2.0,
                    &mut rng,
                );
            }
        }

        // Track the best placement by exact cost.
        let current_cost = cost_model.total(&positions);
        if current_cost < best_cost {
            best_cost = current_cost;
            best_mapping = mapping.clone();
        }
        temperature *= cfg.cooling;
    }
    Ok(best_mapping)
}

/// Computes the combined force field on every vertex (allocating variant).
fn compute_forces(
    cfg: &ForceDirectedConfig,
    graph: &InteractionGraph,
    positions: &[Point],
    poles: Option<&[crate::dipole::Pole]>,
    rng: &mut ChaCha8Rng,
) -> Vec<Point> {
    let n = graph.num_vertices();
    let mut forces = vec![Point::default(); n];

    // Vertex-vertex attraction towards the neighbourhood centroid.
    if cfg.attraction > 0.0 {
        for v in 0..n {
            let neighbors = graph.neighbors(v);
            if neighbors.is_empty() {
                continue;
            }
            let pts: Vec<Point> = neighbors.iter().map(|(u, _)| positions[*u]).collect();
            let c = centroid(&pts);
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

    // Magnetic-dipole rotation.
    if let Some(poles) = poles {
        let dipole = dipole_forces(graph, positions, poles, cfg.dipole, cfg.dipole_cutoff);
        for v in 0..n {
            forces[v] = forces[v] + dipole[v];
        }
    }
    forces
}

/// Attempts to move vertex `v` to `target`, pricing with the full-recompute
/// evaluators.
fn try_move(
    cost_model: &CostModel<'_>,
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
            let delta = cost_model.move_delta(v, positions, target.to_point());
            if accept(delta, rng) {
                mapping
                    .relocate(qubit, target)
                    .expect("target cell verified free and in bounds");
                positions[v] = target.to_point();
                true
            } else {
                false
            }
        }
        Some(other) if other != qubit => {
            let u = other.index();
            let pv = positions[v];
            let pu = positions[u];
            let before = cost_model.vertex_contribution(v, positions)
                + cost_model.vertex_contribution(u, positions);
            positions[v] = pu;
            positions[u] = pv;
            let after = cost_model.vertex_contribution(v, positions)
                + cost_model.vertex_contribution(u, positions);
            let delta = after - before;
            if accept(delta, rng) {
                mapping.swap(qubit, other).expect("both qubits are placed");
                true
            } else {
                positions[v] = pv;
                positions[u] = pu;
                false
            }
        }
        _ => false,
    }
}

/// Community escape moves of the reference pipeline.
fn community_moves(
    communities: &community::Communities,
    cost_model: &CostModel<'_>,
    mapping: &mut Mapping,
    positions: &mut [Point],
    temperature: f64,
    rng: &mut ChaCha8Rng,
) {
    for group in communities.groups() {
        if group.len() < 4 {
            continue;
        }
        let pts: Vec<Point> = group.iter().map(|v| positions[*v]).collect();
        let clustering = kmeans::kmeans(&pts, 2, 20, rng);
        if clustering.num_clusters() < 2 {
            continue;
        }
        let sizes: Vec<usize> = (0..clustering.num_clusters())
            .map(|c| clustering.members(c).len())
            .collect();
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
                try_move(
                    cost_model,
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
