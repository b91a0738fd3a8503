//! Hierarchical stitching mapper ("HS" in Table I, Section VII of the paper).
//!
//! The stitching procedure exploits the structure of multi-level block-code
//! factories:
//!
//! 1. **Intra-round concatenation** — every module of a round has a planar
//!    interaction graph, so a single module prototype is embedded nearly
//!    optimally by recursive graph partitioning and replicated for every
//!    module of the round; the blocks are concatenated into a near-square
//!    arrangement (Section VII-A).
//! 2. **Qubit reuse / module arrangement** — local qubits of later rounds that
//!    were not recycled are placed as close as possible to the centroid of the
//!    output states they consume (Section VII-B1).
//! 3. **Port reassignment** — each module's output states are interchangeable,
//!    so output ports are re-bound to downstream modules to minimise
//!    permutation distance (Section VII-B2). The mapper records the desired
//!    rebinding as an explicit [`PortAssignment`] on the returned [`Layout`];
//!    the evaluation layer applies it to a private copy of the factory
//!    (`Factory::apply_port_assignment`), so mapping never mutates the shared
//!    factory.
//! 4. **Intermediate hop routing** — every permutation braid receives a
//!    Valiant-style intermediate destination, placed at the braid midpoint or
//!    at random and then annealed to minimise segment crossings and length
//!    (Section VII-B3). Hops are delivered to the simulator as
//!    [`RoutingHints`].

use std::collections::HashMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use msfu_circuit::{Gate, QubitId};
use msfu_distill::{Factory, ModuleInfo, PortAssignment};
use msfu_graph::geometry::{segments_cross, Point};
use msfu_graph::InteractionGraph;

use crate::graph_partition::{embed_into_cells, rectangle_cells};
use crate::random::MAX_CELLS_PER_QUBIT;
use crate::{Coord, FactoryMapper, Layout, LayoutError, Mapping, Result, RoutingHints};

/// Strategy for choosing the intermediate destination of permutation braids
/// (Fig. 9c/9d of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HopStrategy {
    /// No intermediate destinations: braids route directly.
    None,
    /// Valiant routing: a uniformly random intermediate cell per braid.
    RandomHop,
    /// Random initial hops refined by force-directed annealing.
    AnnealedRandomHop,
    /// Hops initialised at the braid midpoint and refined by annealing
    /// (the best-performing variant in the paper).
    #[default]
    AnnealedMidpointHop,
}

impl HopStrategy {
    /// Short name used by reports.
    pub fn name(self) -> &'static str {
        match self {
            HopStrategy::None => "no-hop",
            HopStrategy::RandomHop => "random-hop",
            HopStrategy::AnnealedRandomHop => "annealed-random-hop",
            HopStrategy::AnnealedMidpointHop => "annealed-midpoint-hop",
        }
    }

    /// Parses a [`HopStrategy::name`] string back into the strategy (used by
    /// data-declared sweep specs).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "no-hop" => Some(HopStrategy::None),
            "random-hop" => Some(HopStrategy::RandomHop),
            "annealed-random-hop" => Some(HopStrategy::AnnealedRandomHop),
            "annealed-midpoint-hop" => Some(HopStrategy::AnnealedMidpointHop),
            _ => None,
        }
    }
}

/// Tuning knobs of the hierarchical stitching mapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StitchingConfig {
    /// RNG seed.
    pub seed: u64,
    /// Hop strategy for inter-round permutation braids.
    pub hop_strategy: HopStrategy,
    /// Whether [`FactoryMapper::map_factory`] records an output-port
    /// reassignment on the layout.
    pub reassign_ports: bool,
    /// Number of annealing passes over all hops.
    pub hop_anneal_passes: usize,
    /// Empty cells left between adjacent module blocks (routing slack).
    pub block_gap: usize,
}

impl Default for StitchingConfig {
    fn default() -> Self {
        StitchingConfig {
            seed: 0,
            hop_strategy: HopStrategy::AnnealedMidpointHop,
            reassign_ports: true,
            hop_anneal_passes: 20,
            block_gap: 0,
        }
    }
}

/// The hierarchical stitching mapper.
#[derive(Debug, Clone)]
pub struct HierarchicalStitchingMapper {
    config: StitchingConfig,
}

impl HierarchicalStitchingMapper {
    /// Creates a mapper with default parameters and the given seed.
    pub fn new(seed: u64) -> Self {
        HierarchicalStitchingMapper {
            config: StitchingConfig {
                seed,
                ..StitchingConfig::default()
            },
        }
    }

    /// Creates a mapper with explicit parameters.
    pub fn with_config(config: StitchingConfig) -> Self {
        HierarchicalStitchingMapper { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StitchingConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Phase 1 + 2: per-round block placement and later-round arrangement.
    // ------------------------------------------------------------------

    fn place_all_rounds(&self, factory: &Factory) -> Result<Mapping> {
        if factory.num_qubits() == 0 {
            return Err(LayoutError::UnsupportedFactory {
                reason: "factory has no qubits".into(),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);

        // Prototype embedding of one round-0 module.
        let round0 = factory.round_modules(0);
        let prototype = &round0[0];
        let prototype_qubits = prototype.local_qubits();
        let block_side = (prototype_qubits.len() as f64).sqrt().ceil() as usize;
        let offsets = self.prototype_offsets(factory, prototype, block_side, &mut rng);

        // Block grid for round 0.
        let blocks = round0.len();
        let blocks_per_row = (blocks as f64).sqrt().ceil() as usize;
        let block_rows = blocks.div_ceil(blocks_per_row);
        // A huge block_gap must fail typed instead of allocating the grid.
        let stride = block_side.saturating_add(self.config.block_gap);
        let width = blocks_per_row.saturating_mul(stride);
        let height = block_rows.saturating_mul(stride);
        if width.saturating_mul(height) > factory.num_qubits().saturating_mul(MAX_CELLS_PER_QUBIT) {
            return Err(LayoutError::InvalidMapperParam {
                mapper: "hierarchical_stitching".into(),
                reason: format!(
                    "block_gap {} exceeds {MAX_CELLS_PER_QUBIT} cells per qubit",
                    self.config.block_gap
                ),
            });
        }

        let mut mapping = Mapping::new(factory.num_qubits(), width.max(1), height.max(1));
        for (idx, module) in round0.iter().enumerate() {
            let base_row = (idx / blocks_per_row) * stride;
            let base_col = (idx % blocks_per_row) * stride;
            let locals = module.local_qubits();
            for (slot, q) in locals.iter().enumerate() {
                let (dr, dc) = offsets[slot];
                mapping.place(*q, Coord::new(base_row + dr, base_col + dc))?;
            }
        }

        // Later rounds: place fresh (non-recycled) local qubits near the
        // centroid of the output states each module consumes.
        for round in 1..factory.rounds().len() {
            for module in factory.round_modules(round) {
                let unplaced: Vec<QubitId> = module
                    .ancillas
                    .iter()
                    .chain(module.outputs.iter())
                    .copied()
                    .filter(|q| mapping.position(*q).is_none())
                    .collect();
                if unplaced.is_empty() {
                    continue;
                }
                let anchor = self.source_centroid(module, &mapping);
                self.place_near(&mut mapping, &unplaced, anchor)?;
            }
        }
        Ok(mapping)
    }

    /// Embeds the prototype module's local qubits into a `side × side` block
    /// via recursive graph partitioning, returning per-slot offsets.
    fn prototype_offsets(
        &self,
        factory: &Factory,
        prototype: &ModuleInfo,
        side: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<(usize, usize)> {
        let locals = prototype.local_qubits();
        let slot_of: HashMap<QubitId, usize> =
            locals.iter().enumerate().map(|(i, q)| (*q, i)).collect();
        // Interaction subgraph of the prototype module, with vertices = slots.
        let mut edges = Vec::new();
        for idx in prototype.gate_range.clone() {
            for (a, b) in factory.circuit().gates()[idx].interaction_edges() {
                if let (Some(&sa), Some(&sb)) = (slot_of.get(&a), slot_of.get(&b)) {
                    edges.push((sa, sb, 1.0));
                }
            }
        }
        let graph = InteractionGraph::from_edges(locals.len(), edges);
        let cells = rectangle_cells(0, side, 0, side);
        let vertices: Vec<usize> = (0..locals.len()).collect();
        let placed = embed_into_cells(&graph, &vertices, cells, rng);
        let mut offsets = vec![(0usize, 0usize); locals.len()];
        for (slot, cell) in placed {
            offsets[slot] = (cell.row, cell.col);
        }
        offsets
    }

    /// Centroid of the already-placed raw inputs (upstream outputs) of a
    /// later-round module, used as the anchor for its own placement.
    fn source_centroid(&self, module: &ModuleInfo, mapping: &Mapping) -> Point {
        let pts: Vec<Point> = module
            .raw_inputs
            .iter()
            .filter_map(|q| mapping.position(*q))
            .map(Coord::to_point)
            .collect();
        msfu_graph::geometry::centroid(&pts)
    }

    /// Places `qubits` into the free cells nearest to `anchor`, growing the
    /// grid if there is not enough free space.
    fn place_near(&self, mapping: &mut Mapping, qubits: &[QubitId], anchor: Point) -> Result<()> {
        let mut free = mapping.free_cells();
        if free.len() < qubits.len() {
            let missing = qubits.len() - free.len();
            let rows_needed = missing.div_ceil(mapping.width().max(1)) + 1;
            mapping.grow_rows(rows_needed);
            free = mapping.free_cells();
        }
        free.sort_by(|a, b| {
            let da = a.to_point().distance(&anchor);
            let db = b.to_point().distance(&anchor);
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        });
        for (q, cell) in qubits.iter().zip(free) {
            mapping.place(*q, cell)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Phase 3: output-port reassignment.
    // ------------------------------------------------------------------

    /// Anchor of each module: centroid of its local qubit positions.
    fn module_anchors(factory: &Factory, mapping: &Mapping) -> HashMap<usize, Point> {
        factory
            .modules()
            .iter()
            .map(|m| {
                let pts: Vec<Point> = m
                    .local_qubits()
                    .iter()
                    .filter_map(|q| mapping.position(*q))
                    .map(Coord::to_point)
                    .collect();
                (m.id, msfu_graph::geometry::centroid(&pts))
            })
            .collect()
    }

    /// Greedy assignment for one source module: repeatedly binds the closest
    /// (output position, destination anchor) pair. `dest_of` is the module's
    /// current output → destination binding.
    fn desired_binding(
        mapping: &Mapping,
        anchors: &HashMap<usize, Point>,
        outputs: &[QubitId],
        dest_of: &HashMap<QubitId, usize>,
    ) -> HashMap<QubitId, usize> {
        let dests: Vec<usize> = outputs
            .iter()
            .filter_map(|q| dest_of.get(q).copied())
            .collect();
        let mut desired: HashMap<QubitId, usize> = HashMap::new();
        let mut free_outputs: Vec<QubitId> = outputs.to_vec();
        let mut free_dests = dests;
        while !free_outputs.is_empty() && !free_dests.is_empty() {
            let mut best = (0usize, 0usize, f64::INFINITY);
            for (i, q) in free_outputs.iter().enumerate() {
                let qp = match mapping.position(*q) {
                    Some(p) => p.to_point(),
                    None => continue,
                };
                for (j, d) in free_dests.iter().enumerate() {
                    let anchor = anchors.get(d).copied().unwrap_or_default();
                    let dist = qp.distance(&anchor);
                    if dist < best.2 {
                        best = (i, j, dist);
                    }
                }
            }
            if best.2.is_infinite() {
                break;
            }
            let q = free_outputs.remove(best.0);
            let d = free_dests.remove(best.1);
            desired.insert(q, d);
        }
        desired
    }

    /// Computes the output-port rebinding for every non-final-round module
    /// *without touching the factory*: each module's outputs are greedily
    /// bound to their nearest consumers, realised as an ordered swap list.
    /// The effect of every recorded swap on downstream bindings is tracked
    /// locally so later decisions see earlier ones.
    pub fn compute_port_assignment(
        &self,
        factory: &Factory,
        mapping: &Mapping,
    ) -> Result<PortAssignment> {
        let mut assignment = PortAssignment::new();
        let levels = factory.rounds().len();
        if levels < 2 {
            return Ok(assignment);
        }
        let anchors = Self::module_anchors(factory, mapping);

        for round in 0..levels - 1 {
            for &source_id in &factory.rounds()[round].modules {
                let outputs = &factory.modules()[source_id].outputs;
                // Current binding: output qubit -> destination module
                // (simulated locally; swaps only ever touch the outputs of
                // their own module, so per-module state suffices).
                let mut dest_of: HashMap<QubitId, usize> = HashMap::new();
                for edge in factory.permutation_edges() {
                    if edge.source_module == source_id {
                        dest_of.insert(edge.source_qubit, edge.dest_module);
                    }
                }
                if dest_of.len() < 2 {
                    continue;
                }
                let desired = Self::desired_binding(mapping, &anchors, outputs, &dest_of);
                // Realise the desired binding through pairwise port swaps.
                for q in outputs {
                    let want = match desired.get(q) {
                        Some(d) => *d,
                        None => continue,
                    };
                    let current = match dest_of.get(q) {
                        Some(d) => *d,
                        None => continue,
                    };
                    if current == want {
                        continue;
                    }
                    // Find the sibling output currently bound to `want`.
                    let sibling = outputs
                        .iter()
                        .copied()
                        .find(|other| dest_of.get(other) == Some(&want));
                    if let Some(other) = sibling {
                        assignment.push_swap(*q, other);
                        dest_of.insert(*q, want);
                        dest_of.insert(other, current);
                    }
                }
            }
        }
        Ok(assignment)
    }

    // ------------------------------------------------------------------
    // Phase 4: intermediate hop routing.
    // ------------------------------------------------------------------

    /// Computes waypoint hints for every permutation braid according to the
    /// configured [`HopStrategy`].
    fn compute_hops(&self, factory: &Factory, mapping: &Mapping) -> Result<RoutingHints> {
        let mut hints = RoutingHints::new();
        if self.config.hop_strategy == HopStrategy::None || factory.rounds().len() < 2 {
            return Ok(hints);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed.wrapping_add(1));

        // Collect the permutation braids: (source qubit, consumer qubit).
        let mut braids: Vec<(QubitId, QubitId, Coord, Coord)> = Vec::new();
        for round in 0..factory.rounds().len() - 1 {
            let perm = factory.permutation_circuit(round);
            for gate in perm.gates() {
                if let Gate::InjectT { raw, target } | Gate::InjectTdg { raw, target } = gate {
                    let src = mapping.require_position(*raw)?;
                    let dst = mapping.require_position(*target)?;
                    braids.push((*raw, *target, src, dst));
                }
            }
        }
        if braids.is_empty() {
            return Ok(hints);
        }

        let width = mapping.width();
        let height = mapping.height();
        let mut hops: Vec<Coord> = braids
            .iter()
            .map(|(_, _, src, dst)| match self.config.hop_strategy {
                HopStrategy::RandomHop | HopStrategy::AnnealedRandomHop => {
                    Coord::new(rng.gen_range(0..height), rng.gen_range(0..width))
                }
                _ => Coord::new((src.row + dst.row) / 2, (src.col + dst.col) / 2),
            })
            .collect();

        if matches!(
            self.config.hop_strategy,
            HopStrategy::AnnealedRandomHop | HopStrategy::AnnealedMidpointHop
        ) {
            self.anneal_hops(&braids, &mut hops, width, height, &mut rng);
        }

        for ((raw, target, _, _), hop) in braids.iter().zip(hops.iter()) {
            hints.set_waypoint(*raw, *target, *hop);
        }
        Ok(hints)
    }

    /// Greedy annealing of hop positions: each pass proposes a neighbouring
    /// cell (or a random jump) for every hop and keeps it when the objective
    /// (total path length + crossing penalty among permutation paths)
    /// decreases.
    fn anneal_hops(
        &self,
        braids: &[(QubitId, QubitId, Coord, Coord)],
        hops: &mut [Coord],
        width: usize,
        height: usize,
        rng: &mut ChaCha8Rng,
    ) {
        const CROSSING_WEIGHT: f64 = 10.0;
        let objective_for = |idx: usize, hop: Coord, hops: &[Coord]| -> f64 {
            let (_, _, src, dst) = braids[idx];
            let mut cost = (src.manhattan_distance(&hop) + hop.manhattan_distance(&dst)) as f64;
            let segs = [
                (src.to_point(), hop.to_point()),
                (hop.to_point(), dst.to_point()),
            ];
            for (j, (_, _, osrc, odst)) in braids.iter().enumerate() {
                if j == idx {
                    continue;
                }
                let other = [
                    (osrc.to_point(), hops[j].to_point()),
                    (hops[j].to_point(), odst.to_point()),
                ];
                for (a1, a2) in &segs {
                    for (b1, b2) in &other {
                        if segments_cross(*a1, *a2, *b1, *b2) {
                            cost += CROSSING_WEIGHT;
                        }
                    }
                }
            }
            cost
        };

        for _pass in 0..self.config.hop_anneal_passes {
            let mut improved = false;
            for idx in 0..braids.len() {
                let current = hops[idx];
                let current_cost = objective_for(idx, current, hops);
                // Candidate moves: the four neighbours plus one random jump.
                let mut candidates = current.neighbors(width, height);
                candidates.push(Coord::new(
                    rng.gen_range(0..height),
                    rng.gen_range(0..width),
                ));
                let mut best = current;
                let mut best_cost = current_cost;
                for cand in candidates {
                    let c = objective_for(idx, cand, hops);
                    if c < best_cost {
                        best_cost = c;
                        best = cand;
                    }
                }
                if best != current {
                    hops[idx] = best;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
}

impl FactoryMapper for HierarchicalStitchingMapper {
    fn name(&self) -> &'static str {
        "hierarchical-stitching"
    }

    fn map_factory(&self, factory: &Factory) -> Result<Layout> {
        let mapping = self.place_all_rounds(factory)?;
        let ports = if self.config.reassign_ports {
            self.compute_port_assignment(factory, &mapping)?
        } else {
            PortAssignment::new()
        };
        if ports.is_empty() {
            let hints = self.compute_hops(factory, &mapping)?;
            return Ok(Layout::with_hints(mapping, hints));
        }
        // Hop routing reads the permutation gates, which the port rebinding
        // relabels; compute hops against a rewired private copy so they match
        // the circuit the simulator will eventually run.
        let rewired =
            factory
                .apply_port_assignment(&ports)
                .map_err(|e| LayoutError::UnsupportedFactory {
                    reason: format!("port assignment failed: {e}"),
                })?;
        let hints = self.compute_hops(&rewired, &mapping)?;
        Ok(Layout::with_hints(mapping, hints).with_ports(ports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_distill::{FactoryConfig, ReusePolicy};
    use msfu_graph::metrics;

    #[test]
    fn hop_strategy_names_are_distinct() {
        let names = [
            HopStrategy::None.name(),
            HopStrategy::RandomHop.name(),
            HopStrategy::AnnealedRandomHop.name(),
            HopStrategy::AnnealedMidpointHop.name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn single_level_stitching_is_complete() {
        let f = Factory::build(&FactoryConfig::single_level(4)).unwrap();
        let layout = HierarchicalStitchingMapper::new(1).map_factory(&f).unwrap();
        assert!(layout.mapping.is_complete());
        assert!(layout.hints.is_empty());
    }

    #[test]
    fn two_level_stitching_is_complete_with_hints() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let layout = HierarchicalStitchingMapper::new(1).map_factory(&f).unwrap();
        assert!(layout.mapping.is_complete());
        // Every permutation edge receives a waypoint.
        assert_eq!(layout.hints.len(), f.permutation_edges().len());
    }

    #[test]
    fn no_hop_strategy_produces_no_hints() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let mapper = HierarchicalStitchingMapper::with_config(StitchingConfig {
            hop_strategy: HopStrategy::None,
            ..StitchingConfig::default()
        });
        let layout = mapper.map_factory(&f).unwrap();
        assert!(layout.hints.is_empty());
    }

    #[test]
    fn no_reuse_factory_places_fresh_round1_qubits() {
        let f =
            Factory::build(&FactoryConfig::two_level(2).with_reuse(ReusePolicy::NoReuse)).unwrap();
        let layout = HierarchicalStitchingMapper::new(3).map_factory(&f).unwrap();
        assert!(layout.mapping.is_complete());
        let mut seen = std::collections::HashSet::new();
        for q in 0..f.num_qubits() as u32 {
            assert!(seen.insert(layout.mapping.position(QubitId::new(q)).unwrap()));
        }
    }

    #[test]
    fn port_reassignment_keeps_factory_invariants() {
        let base = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let layout = HierarchicalStitchingMapper::new(5)
            .map_factory(&base)
            .unwrap();
        assert!(layout.mapping.is_complete());
        assert!(!layout.ports.is_empty(), "two-level ports get rebound");
        let f = base.apply_port_assignment(&layout.ports).unwrap();
        assert_eq!(f.permutation_edges().len(), base.permutation_edges().len());
        // Every destination module still receives at most one state per source.
        let mut per_dest: std::collections::HashMap<usize, std::collections::HashSet<usize>> =
            Default::default();
        for e in f.permutation_edges() {
            assert!(per_dest
                .entry(e.dest_module)
                .or_default()
                .insert(e.source_module));
        }
    }

    #[test]
    fn map_factory_never_mutates_the_input() {
        let base = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let before = base.clone();
        let layout = HierarchicalStitchingMapper::new(5)
            .map_factory(&base)
            .unwrap();
        assert_eq!(base, before);
        // The rebinding lives on the layout instead.
        assert!(layout.requires_port_rewiring());
    }

    #[test]
    fn stitching_has_fewer_crossings_than_random_on_two_level() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let g = InteractionGraph::from_circuit(f.circuit());
        let stitched = HierarchicalStitchingMapper::new(2).map_factory(&f).unwrap();
        let random = crate::RandomMapper::new(2).map_factory(&f).unwrap();
        let s = metrics::edge_crossings(&g, &stitched.mapping.to_points());
        let r = metrics::edge_crossings(&g, &random.mapping.to_points());
        assert!(
            s < r,
            "stitching ({s}) should cross less than a random placement ({r})"
        );
    }

    #[test]
    fn stitching_intra_round_edges_are_short() {
        // The per-module prototype embedding keeps the braids *within* a
        // module short even when the permutation edges are long.
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let stitched = HierarchicalStitchingMapper::new(2).map_factory(&f).unwrap();
        let round0 = f.round_circuit(0);
        let g0 = InteractionGraph::from_circuit(&round0);
        let avg = metrics::average_edge_length(&g0, &stitched.mapping.to_points());
        assert!(
            avg < 5.0,
            "average intra-round edge length {avg} too long for per-module embeddings"
        );
    }

    #[test]
    fn annealed_midpoint_hops_are_deterministic() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let a = HierarchicalStitchingMapper::new(7).map_factory(&f).unwrap();
        let b = HierarchicalStitchingMapper::new(7).map_factory(&f).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.hints, b.hints);
    }
}
