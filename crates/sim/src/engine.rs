//! The braid simulation engine and the cell router behind it.
//!
//! [`SimEngine`] simulates one circuit under one placement. It owns a
//! [`BatchEngine`] and runs every simulation as a one-lane batch, so
//! [`BatchEngine::run`] holds the crate's only event loop. The engine keeps
//! the batch engine's arenas, so a sweep can thread one `SimEngine` through
//! thousands of simulations without touching the allocator on the hot path.
//!
//! The cell-acquisition machinery (static braid-path caching, adaptive
//! Dijkstra routing, the merge buffers) lives in the [`Router`]: it takes the
//! busy grid and the per-gate span and blocker slots as parameters, so the
//! batch engine can serve K lockstep lanes from one router. Its cell pool
//! holds grid indices (`row * width + col`, one `u32` per cell), which index
//! a lane's busy grid directly. A static span that fails its free-cell check
//! records the first busy cell it hit in the gate's blocker slot; the gate's
//! next attempt tests that one cell first and, while it is still busy, fails
//! without rescanning the span. The original allocating implementation is
//! preserved in [`crate::reference`] and the equivalence suites assert that
//! both produce byte-identical [`SimResult`]s.

use msfu_circuit::{Circuit, Gate, QubitId};
use msfu_layout::{Coord, Layout, Mapping, RoutingHints};

use crate::batch::{BatchEngine, BatchLane};
use crate::braid::{adaptive_path_into, DijkstraScratch};
use crate::{Result, RoutingPolicy, SimConfig, SimResult};

/// Sentinel span offset meaning "static cell set not yet computed".
const UNCACHED: u32 = u32::MAX;

/// Blocker slot value meaning "no failed static-span check recorded". Never
/// a cell index: a mesh has at most `u32::MAX` cells, indexed from 0.
pub(crate) const NO_BLOCKER: u32 = u32::MAX;

/// A slice of a [`Router`]'s cell pool: one gate's reserved (or cached)
/// cells.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellSpan {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl CellSpan {
    pub(crate) const EMPTY: CellSpan = CellSpan { start: 0, len: 0 };
    /// Sentinel for "static cell set not yet computed" (real spans never
    /// carry this length).
    pub(crate) const UNCACHED: CellSpan = CellSpan {
        start: UNCACHED,
        len: UNCACHED,
    };

    pub(crate) fn is_cached(self) -> bool {
        self.len != UNCACHED
    }
}

/// The cell pool and routing scratch of the lane-batched [`BatchEngine`].
///
/// A router owns everything cell acquisition needs that is not per-run
/// simulation state: the pool backing every [`CellSpan`], the Dijkstra
/// scratch, the merge buffers and the dedup stamps. The busy grid and the
/// per-gate span and blocker slots are passed in by the caller, so one router
/// can serve a single run or many lockstep lanes over the same mesh
/// dimensions.
#[derive(Debug, Default)]
pub(crate) struct Router {
    /// Cell pool backing the static and reserved spans: grid indices
    /// `row * width + col`.
    cells: Vec<u32>,
    /// Adaptive-routing workspace.
    dijkstra: DijkstraScratch,
    /// Grid indices gathered by the acquisition attempt in flight.
    acquire_buf: Vec<u32>,
    /// Single-leg path buffer (adaptive routing).
    leg_buf: Vec<Coord>,
    /// Dedup stamps per mesh cell for merging braid legs.
    mark: Vec<u32>,
    mark_epoch: u32,
}

impl Router {
    /// Clears the pool and sizes the merge stamps for an `area`-cell mesh.
    pub(crate) fn reset(&mut self, area: usize) {
        self.cells.clear();
        self.mark.clear();
        self.mark.resize(area, 0);
        self.mark_epoch = 0;
    }

    /// The grid indices of a [`CellSpan`] this router handed out.
    pub(crate) fn span(&self, span: CellSpan) -> &[u32] {
        &self.cells[span.start as usize..(span.start + span.len) as usize]
    }

    /// Attempts to acquire the cells `gate` needs against `busy`. On
    /// success, `*reserved` names the cells to reserve. Mirrors
    /// `reference::acquire_cells` exactly: the same attempts fail, in the
    /// same order, for the same reasons.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn try_acquire(
        &mut self,
        gate: &Gate,
        routing: RoutingPolicy,
        mapping: &Mapping,
        hints: &RoutingHints,
        busy: &[bool],
        static_cell: &mut CellSpan,
        blocker: &mut u32,
        reserved: &mut CellSpan,
    ) -> bool {
        // Fast path: a busy-state-independent cell set, computed at the
        // gate's first attempt and re-checked for free cells ever after. This
        // covers every gate under dimension-ordered routing — where blocked
        // braids retry their fixed path at every event — plus single-cell
        // gates and barriers under adaptive routing.
        if let Some(span) = self.static_span(gate, routing, mapping, hints, static_cell) {
            // The blocker lies in the span, so while it stays busy the full
            // check would fail too.
            if *blocker != NO_BLOCKER && busy[*blocker as usize] {
                return false;
            }
            return match self.span(span).iter().find(|&&c| busy[c as usize]) {
                Some(&c) => {
                    *blocker = c;
                    false
                }
                None => {
                    *reserved = span;
                    true
                }
            };
        }
        // Adaptive two-qubit braids: route against the live busy state.
        self.acquire_adaptive(gate, mapping, hints, busy, reserved)
    }

    /// Returns the gate's cached static cell set (the caller's `static_cell`
    /// slot), computing it on first use; `None` when the cell set depends on
    /// the busy state (adaptive braids).
    fn static_span(
        &mut self,
        gate: &Gate,
        routing: RoutingPolicy,
        mapping: &Mapping,
        hints: &RoutingHints,
        static_cell: &mut CellSpan,
    ) -> Option<CellSpan> {
        if static_cell.is_cached() {
            return Some(*static_cell);
        }
        let span = match gate {
            Gate::Barrier(_) => CellSpan::EMPTY,
            Gate::H(q)
            | Gate::X(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::MeasX(q)
            | Gate::MeasZ(q)
            | Gate::Init(q) => {
                let start = self.cells.len() as u32;
                self.cells
                    .push(cell_index(pos(mapping, *q), mapping.width()));
                CellSpan { start, len: 1 }
            }
            _ if routing == RoutingPolicy::Adaptive => return None,
            Gate::Cnot { control, target }
            | Gate::InjectT {
                raw: control,
                target,
            }
            | Gate::InjectTdg {
                raw: control,
                target,
            } => {
                let start = self.cells.len() as u32;
                self.begin_merge();
                self.push_l_route(
                    pos(mapping, *control),
                    pos(mapping, *target),
                    hints.waypoint(*control, *target),
                    mapping.width(),
                );
                self.cells.extend_from_slice(&self.acquire_buf);
                CellSpan {
                    start,
                    len: self.cells.len() as u32 - start,
                }
            }
            Gate::Cxx { control, targets } => {
                let start = self.cells.len() as u32;
                let c = pos(mapping, *control);
                self.begin_merge();
                self.push_merged(c, mapping.width());
                for t in targets {
                    self.push_l_route(
                        c,
                        pos(mapping, *t),
                        hints.waypoint(*control, *t),
                        mapping.width(),
                    );
                }
                self.cells.extend_from_slice(&self.acquire_buf);
                CellSpan {
                    start,
                    len: self.cells.len() as u32 - start,
                }
            }
        };
        *static_cell = span;
        Some(span)
    }

    /// Routes an adaptive two-qubit gate (CNOT, injection, CXX) against the
    /// live busy state; on success copies the merged cells into the pool and
    /// records them in the caller's `reserved` slot.
    fn acquire_adaptive(
        &mut self,
        gate: &Gate,
        mapping: &Mapping,
        hints: &RoutingHints,
        busy: &[bool],
        reserved: &mut CellSpan,
    ) -> bool {
        self.begin_merge();
        let ok = match gate {
            Gate::Cnot { control, target }
            | Gate::InjectT {
                raw: control,
                target,
            }
            | Gate::InjectTdg {
                raw: control,
                target,
            } => self.adaptive_route_pair(
                pos(mapping, *control),
                pos(mapping, *target),
                hints.waypoint(*control, *target),
                mapping,
                busy,
            ),
            Gate::Cxx { control, targets } => {
                let c = pos(mapping, *control);
                self.push_merged(c, mapping.width());
                targets.iter().all(|t| {
                    self.adaptive_route_pair(
                        c,
                        pos(mapping, *t),
                        hints.waypoint(*control, *t),
                        mapping,
                        busy,
                    )
                })
            }
            _ => unreachable!("single-cell gates are handled by the static path"),
        };
        if !ok {
            return false;
        }
        let start = self.cells.len() as u32;
        self.cells.extend_from_slice(&self.acquire_buf);
        *reserved = CellSpan {
            start,
            len: self.cells.len() as u32 - start,
        };
        true
    }

    /// Adaptive `route_pair`: one or two Dijkstra legs through the optional
    /// waypoint, merged into the acquisition buffer. Matches
    /// `reference::route_pair` leg for leg.
    fn adaptive_route_pair(
        &mut self,
        from: Coord,
        to: Coord,
        waypoint: Option<Coord>,
        mapping: &Mapping,
        busy: &[bool],
    ) -> bool {
        match waypoint {
            None => self.adaptive_leg(from, to, mapping, busy),
            Some(w) => {
                self.adaptive_leg(from, w, mapping, busy) && self.adaptive_leg(w, to, mapping, busy)
            }
        }
    }

    /// One adaptive leg: endpoint busy checks, then the scratch-backed
    /// Dijkstra, then the mark-deduplicated merge.
    fn adaptive_leg(&mut self, a: Coord, b: Coord, mapping: &Mapping, busy: &[bool]) -> bool {
        let width = mapping.width();
        let height = mapping.height();
        let is_busy = |c: Coord| busy[c.row * width + c.col];
        if is_busy(a) || is_busy(b) {
            return false;
        }
        // Prefer corridors over cells hosting idle resident qubits: braiding
        // over a resident tile blocks that qubit's own operations.
        let occupancy_penalty = |c: Coord| -> u64 {
            if mapping.occupant(c).is_some() {
                4
            } else {
                0
            }
        };
        self.leg_buf.clear();
        if !adaptive_path_into(
            a,
            b,
            width,
            height,
            &is_busy,
            &occupancy_penalty,
            &mut self.dijkstra,
            &mut self.leg_buf,
        ) {
            return false;
        }
        let leg = std::mem::take(&mut self.leg_buf);
        for &c in &leg {
            self.push_merged(c, width);
        }
        self.leg_buf = leg;
        true
    }

    /// Opens a fresh merge epoch for the acquisition buffer.
    fn begin_merge(&mut self) {
        if self.mark_epoch == u32::MAX {
            self.mark.fill(0);
            self.mark_epoch = 0;
        }
        self.mark_epoch += 1;
        self.acquire_buf.clear();
    }

    /// Appends `c`'s grid index to the acquisition buffer unless already
    /// present this epoch (`BraidPath::merge` union semantics).
    fn push_merged(&mut self, c: Coord, width: usize) {
        let i = cell_index(c, width);
        if self.mark[i as usize] != self.mark_epoch {
            self.mark[i as usize] = self.mark_epoch;
            self.acquire_buf.push(i);
        }
    }

    /// Merges the dimension-ordered route (through the optional waypoint)
    /// into the acquisition buffer.
    fn push_l_route(&mut self, from: Coord, to: Coord, waypoint: Option<Coord>, width: usize) {
        match waypoint {
            None => self.push_l_leg(from, to, width),
            Some(w) => {
                self.push_l_leg(from, w, width);
                self.push_l_leg(w, to, width);
            }
        }
    }

    /// Walks the L-shaped path from `from` to `to` (row first, then column),
    /// merging each cell without materialising the path.
    fn push_l_leg(&mut self, from: Coord, to: Coord, width: usize) {
        self.push_merged(from, width);
        let mut col = from.col;
        while col != to.col {
            if col < to.col {
                col += 1;
            } else {
                col -= 1;
            }
            self.push_merged(Coord::new(from.row, col), width);
        }
        let mut row = from.row;
        while row != to.row {
            if row < to.row {
                row += 1;
            } else {
                row -= 1;
            }
            self.push_merged(Coord::new(row, to.col), width);
        }
    }
}

/// The reusable braid network simulator.
///
/// See the crate-level documentation for the behavioural model. Construct one
/// engine and call [`SimEngine::run`] repeatedly: each run is a one-lane
/// [`BatchEngine`] batch, which resets but does not reallocate the arenas.
#[derive(Debug, Default)]
pub struct SimEngine {
    batch: BatchEngine,
}

impl SimEngine {
    /// Creates an engine with the given configuration. Arenas start empty and
    /// grow to the largest circuit/mesh simulated.
    pub fn new(config: SimConfig) -> Self {
        SimEngine {
            batch: BatchEngine::new(config),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        self.batch.config()
    }

    /// Replaces the configuration for subsequent runs, keeping the arenas.
    pub fn set_config(&mut self, config: SimConfig) {
        self.batch.set_config(config);
    }

    /// Simulates `circuit` under the placement and routing hints of `layout`.
    ///
    /// Behaviourally identical to [`crate::reference::run`]; the differences
    /// are purely mechanical (arena reuse, cached static braid paths as grid
    /// indices, blocking-cell retries, fresh-only repeat issue passes, the
    /// bucketed event queue).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedQubit`](crate::SimError::UnmappedQubit)
    /// when a gate references an unplaced qubit,
    /// [`SimError::EmptyGrid`](crate::SimError::EmptyGrid) for an empty mesh,
    /// and [`SimError::CycleLimitExceeded`](crate::SimError::CycleLimitExceeded)
    /// if the simulation runs past the configured limit.
    pub fn run(&mut self, circuit: &Circuit, layout: &Layout) -> Result<SimResult> {
        let mut results = self.batch.run(circuit, &[BatchLane::new(layout)])?;
        results.pop().expect("a one-lane batch yields one result")
    }
}

/// Looks up a validated qubit position.
pub(crate) fn pos(mapping: &Mapping, q: QubitId) -> Coord {
    mapping.position(q).expect("validated before simulation")
}

/// The busy-grid index of `c` on a `width`-column mesh. Fits in a `u32`:
/// [`BatchEngine::run`] refuses meshes of more than `u32::MAX` cells.
fn cell_index(c: Coord, width: usize) -> u32 {
    (c.row * width + c.col) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimError;
    use msfu_circuit::{CircuitBuilder, LatencyModel, QubitRole};

    fn place_line(n: u32) -> Mapping {
        let mut m = Mapping::new(n as usize, n as usize, 1);
        for i in 0..n {
            m.place(QubitId::new(i), Coord::new(0, i as usize)).unwrap();
        }
        m
    }

    fn simple_layout(mapping: Mapping) -> Layout {
        Layout::new(mapping)
    }

    #[test]
    fn serial_chain_matches_critical_path() {
        let mut b = CircuitBuilder::new("chain");
        let q = b.register("q", QubitRole::Data, 3);
        b.h(q[0]).unwrap();
        b.cnot(q[0], q[1]).unwrap();
        b.cnot(q[1], q[2]).unwrap();
        b.meas_x(q[2]).unwrap();
        let c = b.build();
        let layout = simple_layout(place_line(3));
        let result = SimEngine::new(SimConfig::default())
            .run(&c, &layout)
            .unwrap();
        let model = LatencyModel::default();
        assert_eq!(result.cycles, c.critical_path_cycles(&model));
        assert_eq!(result.stall_cycles, 0);
        assert_eq!(result.timings.len(), 4);
    }

    #[test]
    fn independent_gates_run_in_parallel() {
        let mut b = CircuitBuilder::new("par");
        let q = b.register("q", QubitRole::Data, 4);
        b.cnot(q[0], q[1]).unwrap();
        b.cnot(q[2], q[3]).unwrap();
        let c = b.build();
        let layout = simple_layout(place_line(4));
        let result = SimEngine::new(SimConfig::default())
            .run(&c, &layout)
            .unwrap();
        let model = LatencyModel::default();
        // Both CNOTs are adjacent pairs on disjoint cells: they overlap fully.
        assert_eq!(result.cycles, model.cnot);
    }

    #[test]
    fn crossing_braids_stall_with_dimension_ordered_routing() {
        // Qubits on a line: 0 1 2 3. CNOT(0,3) spans the whole line, so a
        // simultaneous CNOT(1,2) must stall under L-routing.
        let mut b = CircuitBuilder::new("conflict");
        let q = b.register("q", QubitRole::Data, 4);
        b.cnot(q[0], q[3]).unwrap();
        b.cnot(q[1], q[2]).unwrap();
        let c = b.build();
        let layout = simple_layout(place_line(4));
        let result = SimEngine::new(SimConfig::dimension_ordered())
            .run(&c, &layout)
            .unwrap();
        let model = LatencyModel::default();
        assert_eq!(result.cycles, 2 * model.cnot);
        assert_eq!(result.stalled_gates, 1);
        assert!(result.routing_conflicts >= 1);
    }

    #[test]
    fn adaptive_routing_avoids_the_stall_when_there_is_slack() {
        // Same conflict, but on a 2-row grid the long braid can detour.
        let mut b = CircuitBuilder::new("conflict");
        let q = b.register("q", QubitRole::Data, 4);
        b.cnot(q[0], q[3]).unwrap();
        b.cnot(q[1], q[2]).unwrap();
        let c = b.build();
        let mut m = Mapping::new(4, 4, 2);
        for i in 0..4u32 {
            m.place(QubitId::new(i), Coord::new(0, i as usize)).unwrap();
        }
        let result = SimEngine::new(SimConfig::default())
            .run(&c, &simple_layout(m))
            .unwrap();
        let model = LatencyModel::default();
        assert_eq!(
            result.cycles, model.cnot,
            "adaptive routing should detour through row 1"
        );
        assert_eq!(result.stalled_gates, 0);
    }

    #[test]
    fn barrier_orders_rounds() {
        let mut b = CircuitBuilder::new("barrier");
        let q = b.register("q", QubitRole::Data, 2);
        b.h(q[0]).unwrap();
        b.barrier_all().unwrap();
        b.h(q[1]).unwrap();
        let c = b.build();
        let layout = simple_layout(place_line(2));
        let result = SimEngine::new(SimConfig::default())
            .run(&c, &layout)
            .unwrap();
        let model = LatencyModel::default();
        // The two H gates serialise through the barrier.
        assert_eq!(result.cycles, 2 * model.single_qubit);
        let t = &result.timings;
        assert!(t[2].start >= t[0].finish);
    }

    #[test]
    fn waypoint_hint_lengthens_the_braid() {
        let mut b = CircuitBuilder::new("hint");
        let q = b.register("q", QubitRole::Data, 2);
        b.cnot(q[0], q[1]).unwrap();
        let c = b.build();
        let mut m = Mapping::new(2, 5, 5);
        m.place(QubitId::new(0), Coord::new(0, 0)).unwrap();
        m.place(QubitId::new(1), Coord::new(0, 4)).unwrap();
        let mut hints = RoutingHints::new();
        hints.set_waypoint(QubitId::new(0), QubitId::new(1), Coord::new(4, 2));
        let layout = Layout::with_hints(m, hints);
        // The braid must pass through the waypoint; with a single gate the
        // latency is unchanged but the reservation is longer, which we can
        // only observe indirectly: the run still succeeds.
        let result = SimEngine::new(SimConfig::default())
            .run(&c, &layout)
            .unwrap();
        assert_eq!(result.cycles, LatencyModel::default().cnot);
    }

    #[test]
    fn unmapped_qubit_is_an_error() {
        let mut b = CircuitBuilder::new("bad");
        let q = b.register("q", QubitRole::Data, 2);
        b.cnot(q[0], q[1]).unwrap();
        let c = b.build();
        let m = Mapping::new(2, 2, 2); // nothing placed
        let err = SimEngine::new(SimConfig::default())
            .run(&c, &simple_layout(m))
            .unwrap_err();
        assert!(matches!(err, SimError::UnmappedQubit { .. }));
    }

    #[test]
    fn empty_circuit_takes_zero_cycles() {
        let c = CircuitBuilder::new("empty").build();
        let layout = simple_layout(Mapping::new(0, 1, 1));
        let result = SimEngine::new(SimConfig::default())
            .run(&c, &layout)
            .unwrap();
        assert_eq!(result.cycles, 0);
        assert_eq!(result.volume(), 0);
    }

    #[test]
    fn cxx_reserves_union_of_paths() {
        let mut b = CircuitBuilder::new("cxx");
        let q = b.register("q", QubitRole::Data, 4);
        b.cxx(q[0], vec![q[1], q[2], q[3]]).unwrap();
        let c = b.build();
        let layout = simple_layout(place_line(4));
        let result = SimEngine::new(SimConfig::default())
            .run(&c, &layout)
            .unwrap();
        let model = LatencyModel::default();
        assert_eq!(result.cycles, 3 * model.cxx_per_target);
    }

    #[test]
    fn result_volume_uses_bounding_box_area() {
        let mut b = CircuitBuilder::new("area");
        let q = b.register("q", QubitRole::Data, 2);
        b.cnot(q[0], q[1]).unwrap();
        let c = b.build();
        let mut m = Mapping::new(2, 10, 10);
        m.place(QubitId::new(0), Coord::new(0, 0)).unwrap();
        m.place(QubitId::new(1), Coord::new(0, 3)).unwrap();
        let result = SimEngine::new(SimConfig::default())
            .run(&c, &simple_layout(m))
            .unwrap();
        assert_eq!(result.area, 4);
        assert_eq!(result.volume(), 4 * result.cycles);
    }

    #[test]
    fn one_engine_reused_across_runs_matches_fresh_engines() {
        // The same engine runs three different circuits on different meshes;
        // every result must equal a fresh engine's (arena hygiene).
        let mut engine = SimEngine::new(SimConfig::default());
        let circuits: Vec<(Circuit, Layout)> = (2..5u32)
            .map(|n| {
                let mut b = CircuitBuilder::new("chain");
                let q = b.register("q", QubitRole::Data, n as usize);
                for i in 0..n - 1 {
                    b.cnot(q[i as usize], q[(i + 1) as usize]).unwrap();
                }
                b.h(q[0]).unwrap();
                (b.build(), simple_layout(place_line(n)))
            })
            .collect();
        for _ in 0..3 {
            for (c, layout) in &circuits {
                let reused = engine.run(c, layout).unwrap();
                let fresh = SimEngine::new(SimConfig::default()).run(c, layout).unwrap();
                assert_eq!(reused, fresh);
            }
        }
    }

    #[test]
    fn engine_matches_reference_on_contended_meshes() {
        for config in [SimConfig::default(), SimConfig::dimension_ordered()] {
            let mut b = CircuitBuilder::new("contended");
            let q = b.register("q", QubitRole::Data, 6);
            b.cnot(q[0], q[5]).unwrap();
            b.cnot(q[1], q[4]).unwrap();
            b.cnot(q[2], q[3]).unwrap();
            b.cxx(q[0], vec![q[2], q[4]]).unwrap();
            b.barrier_all().unwrap();
            b.cnot(q[5], q[0]).unwrap();
            let c = b.build();
            let layout = simple_layout(place_line(6));
            let fast = SimEngine::new(config).run(&c, &layout).unwrap();
            let slow = crate::reference::run(&config, &c, &layout).unwrap();
            assert_eq!(fast, slow, "policy {:?}", config.routing);
        }
    }

    #[test]
    fn set_config_switches_policy_between_runs() {
        let mut b = CircuitBuilder::new("conflict");
        let q = b.register("q", QubitRole::Data, 4);
        b.cnot(q[0], q[3]).unwrap();
        b.cnot(q[1], q[2]).unwrap();
        let c = b.build();
        let mut m = Mapping::new(4, 4, 2);
        for i in 0..4u32 {
            m.place(QubitId::new(i), Coord::new(0, i as usize)).unwrap();
        }
        let layout = simple_layout(m);
        let mut engine = SimEngine::new(SimConfig::default());
        let adaptive = engine.run(&c, &layout).unwrap();
        engine.set_config(SimConfig::dimension_ordered());
        assert_eq!(engine.config().routing, RoutingPolicy::DimensionOrdered);
        let fixed = engine.run(&c, &layout).unwrap();
        assert!(adaptive.cycles < fixed.cycles);
    }
}
