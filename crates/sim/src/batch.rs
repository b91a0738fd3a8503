//! Lane-batched simulation: up to [`MAX_LANES`] compatible runs stepped in
//! lockstep through one shared event wheel.
//!
//! A sweep evaluates many points that share the circuit and the mesh
//! dimensions and differ only in placement, seed or routing policy.
//! [`BatchEngine`] exploits that: the dependency DAG, the gate-duration
//! table, the event wheel and the router's cell pool are built **once per
//! batch**, while every piece of per-run state — busy grids, sorted ready
//! sets, cell spans into the shared pool, blocking cells, gate timings —
//! lives in structure-of-arrays arenas laid out as `[lane * stride + slot]`
//! flat slices. A lane-active mask lets finished or errored lanes drop out
//! without disturbing the rest.
//!
//! Issue passes skip tries whose outcome is already known. Within one time
//! step busy cells only accumulate, so a gate that failed one pass fails
//! every later pass of that step: a repeat pass adds those failures to the
//! lane's conflict count arithmetically and tries, in ascending id order,
//! only the gates that zero-duration completions readied during the pass
//! before. Across time steps a gate whose static span was blocked tests the
//! busy cell that blocked it first, and fails in O(1) while that cell stays
//! busy.
//!
//! This is the crate's only event loop: [`SimEngine`](crate::SimEngine) runs
//! every simulation as a one-lane batch. Each lane advances through exactly
//! the event sequence [`reference::run`](crate::reference::run) produces for
//! it alone: the shared wheel merely interleaves the lanes' completion times,
//! and within one completion time the per-lane processing order is the
//! reference's. Every lane therefore yields a byte-identical [`SimResult`] —
//! the `batch_equivalence` and `engine_equivalence` suites gate this against
//! the reference.
//!
//! Lane compatibility rules: one circuit for the whole batch, equal mesh
//! width and height across lanes (placements may differ), at most
//! [`MAX_LANES`] lanes, and `lanes × gates` small enough to encode events in
//! 32 bits, and a mesh of at most `u32::MAX` cells. Routing policy may vary
//! per lane; latency model and cycle limit come from the engine's
//! [`SimConfig`].

use msfu_circuit::{Circuit, DependencyDag, GateId};
use msfu_layout::Layout;

use crate::engine::{CellSpan, Router, NO_BLOCKER};
use crate::events::EventWheel;
use crate::{GateTiming, Result, RoutingPolicy, SimConfig, SimError, SimResult};

/// Hard cap on the number of lanes one batch may hold. Keeps the arena
/// footprint bounded; sweeps split larger groups into several batches.
pub const MAX_LANES: usize = 64;

/// One run of a batch: a placement (and optional routing-policy override)
/// for the shared circuit.
#[derive(Debug, Clone, Copy)]
pub struct BatchLane<'a> {
    layout: &'a Layout,
    routing: Option<RoutingPolicy>,
}

impl<'a> BatchLane<'a> {
    /// A lane simulating the shared circuit under `layout`, routed with the
    /// engine's configured policy.
    pub fn new(layout: &'a Layout) -> Self {
        BatchLane {
            layout,
            routing: None,
        }
    }

    /// Overrides the routing policy for this lane only.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = Some(routing);
        self
    }

    /// The lane's placement.
    pub fn layout(&self) -> &'a Layout {
        self.layout
    }
}

/// The lane-batched braid network simulator.
///
/// Construct one engine and call [`BatchEngine::run`] repeatedly: each run
/// resets but does not reallocate the arenas, so a sweep threads one batch
/// engine through many batches without touching the allocator on the hot
/// path.
#[derive(Debug, Default)]
pub struct BatchEngine {
    config: SimConfig,
    /// Unresolved dependency count, `[lane * n + gate]`.
    pending: Vec<u32>,
    /// Per-lane sorted ready segments, `[lane * n ..]`; live prefix length
    /// in `ready_len`.
    ready: Vec<u32>,
    /// Live length of each lane's ready segment.
    ready_len: Vec<usize>,
    /// The gates one issue pass tries, ascending: the lane's whole ready
    /// segment on a step's first pass, then the previous pass's `fresh`.
    candidates: Vec<u32>,
    /// Gates readied during the issue pass in flight, in readiness order.
    fresh: Vec<u32>,
    /// Cycle at which each gate became ready, `[lane * n + gate]`.
    ready_time: Vec<u64>,
    /// Busy flags, `[lane * area + cell]`.
    busy: Vec<bool>,
    /// Cached static cell set per gate, `[lane * n + gate]`.
    static_cells: Vec<CellSpan>,
    /// First busy cell the gate's last failed static-span check hit, or
    /// `NO_BLOCKER`, `[lane * n + gate]`.
    blockers: Vec<u32>,
    /// Cells currently reserved by each active gate, `[lane * n + gate]`.
    reserved: Vec<CellSpan>,
    /// Per-gate issue/finish times, `[lane * n + gate]`.
    timings: Vec<GateTiming>,
    /// Shared completion-event queue; events carry `lane * n + gate`.
    wheel: EventWheel,
    /// Events popped at the current time (drain buffer).
    completions: Vec<u32>,
    /// Shared cell pool and routing scratch.
    router: Router,
    /// Gate durations, shared by every lane.
    durations: Vec<u64>,
    /// Dependency counts of a fresh run (copied into each lane's `pending`).
    pending_template: Vec<u32>,
    /// Gates with no predecessors, ascending.
    roots: Vec<u32>,
    /// Completed-gate count per lane.
    completed: Vec<usize>,
    /// Routing-conflict count per lane.
    conflicts: Vec<u64>,
    /// Latest finish time per lane.
    max_finish: Vec<u64>,
    /// Events still in the wheel per lane.
    queued: Vec<usize>,
    /// Lane-active mask: false once a lane finished or errored.
    active: Vec<bool>,
    /// Lanes with completions at the current event time.
    touched: Vec<bool>,
}

impl BatchEngine {
    /// Creates a batch engine with the given configuration. Arenas start
    /// empty and grow to the largest batch simulated.
    pub fn new(config: SimConfig) -> Self {
        BatchEngine {
            config,
            ..BatchEngine::default()
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replaces the configuration for subsequent runs, keeping the arenas.
    pub fn set_config(&mut self, config: SimConfig) {
        self.config = config;
    }

    /// Simulates `circuit` once per lane, in lockstep.
    ///
    /// The outer `Result` rejects incompatible batches
    /// ([`SimError::LaneMismatch`]: mismatched grid dimensions, more than
    /// [`MAX_LANES`] lanes, an oversized `lanes × gates` product, or a mesh
    /// of more than `u32::MAX` cells) before any lane runs. The inner
    /// per-lane results carry exactly what
    /// [`reference::run`](crate::reference::run) returns for that lane — including
    /// per-lane [`SimError::UnmappedQubit`] / [`SimError::EmptyGrid`] /
    /// [`SimError::CycleLimitExceeded`] errors, which never disturb the other
    /// lanes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LaneMismatch`] when the lanes cannot share one
    /// event wheel; per-lane simulation errors are reported inside the
    /// returned vector.
    #[allow(clippy::type_complexity)]
    pub fn run(
        &mut self,
        circuit: &Circuit,
        lanes: &[BatchLane<'_>],
    ) -> Result<Vec<Result<SimResult>>> {
        let k = lanes.len();
        if k == 0 {
            return Ok(Vec::new());
        }
        if k > MAX_LANES {
            return Err(SimError::LaneMismatch {
                reason: format!("{k} lanes exceed the batch maximum of {MAX_LANES}"),
            });
        }
        let width = lanes[0].layout.mapping.width();
        let height = lanes[0].layout.mapping.height();
        for (l, lane) in lanes.iter().enumerate().skip(1) {
            let m = &lane.layout.mapping;
            if m.width() != width || m.height() != height {
                return Err(SimError::LaneMismatch {
                    reason: format!(
                        "lane {l} grid is {}x{}, lane 0 grid is {width}x{height}",
                        m.width(),
                        m.height()
                    ),
                });
            }
        }
        let n = circuit.num_gates();
        if (k as u64) * (n as u64) > u32::MAX as u64 {
            return Err(SimError::LaneMismatch {
                reason: format!("{k} lanes x {n} gates overflow the 32-bit event code space"),
            });
        }
        let area = width * height;
        if area as u64 > u32::MAX as u64 {
            return Err(SimError::LaneMismatch {
                reason: format!("a {width}x{height} grid overflows the 32-bit cell index space"),
            });
        }

        // Lanes resolved without simulation: validation errors and the
        // empty-circuit fast path, mirroring the reference's prologue.
        let mut out: Vec<Option<Result<SimResult>>> = Vec::with_capacity(k);
        self.active.clear();
        for lane in lanes {
            let resolved = self.prevalidate(circuit, lane, n);
            self.active.push(resolved.is_none());
            out.push(resolved);
        }
        let mut active_count = self.active.iter().filter(|&&a| a).count();

        if active_count > 0 {
            // Shared once-per-batch tables: the DAG, the duration table and
            // the event wheel are the fixed costs lane batching amortises.
            let dag = circuit.dependency_dag();
            let latency = self.config.latency;
            self.durations.clear();
            self.durations
                .extend(circuit.gates().iter().map(|g| latency.cycles(g)));
            let max_duration = self.durations.iter().copied().max().unwrap_or(1);
            self.wheel.reset(max_duration.max(1));
            self.pending_template.clear();
            self.pending_template
                .extend((0..n).map(|g| dag.predecessors(GateId::new(g as u32)).len() as u32));
            self.roots.clear();
            self.roots
                .extend((0..n as u32).filter(|&g| self.pending_template[g as usize] == 0));

            // Size the SoA arenas: `[lane * n + gate]` and `[lane * area +
            // cell]` flat arrays, every lane reset whether active or not.
            self.pending.clear();
            for _ in 0..k {
                let template = std::mem::take(&mut self.pending_template);
                self.pending.extend_from_slice(&template);
                self.pending_template = template;
            }
            self.ready.clear();
            self.ready.resize(k * n, 0);
            self.ready_len.clear();
            self.ready_len.resize(k, 0);
            for l in 0..k {
                let base = l * n;
                let roots = std::mem::take(&mut self.roots);
                self.ready[base..base + roots.len()].copy_from_slice(&roots);
                self.ready_len[l] = roots.len();
                self.roots = roots;
            }
            self.ready_time.clear();
            self.ready_time.resize(k * n, 0);
            self.static_cells.clear();
            self.static_cells.resize(k * n, CellSpan::UNCACHED);
            self.blockers.clear();
            self.blockers.resize(k * n, NO_BLOCKER);
            self.reserved.clear();
            self.reserved.resize(k * n, CellSpan::EMPTY);
            let zero = GateTiming {
                ready: 0,
                start: 0,
                finish: 0,
            };
            self.timings.clear();
            self.timings.resize(k * n, zero);
            self.busy.clear();
            self.busy.resize(k * area, false);
            self.router.reset(area);
            self.completed.clear();
            self.completed.resize(k, 0);
            self.conflicts.clear();
            self.conflicts.resize(k, 0);
            self.max_finish.clear();
            self.max_finish.resize(k, 0);
            self.queued.clear();
            self.queued.resize(k, 0);

            // Cycle 0: every lane's initial issue passes.
            for l in 0..k {
                if !self.active[l] {
                    continue;
                }
                self.issue_passes(l, 0, circuit, &dag, &lanes[l], n, area);
                self.resolve_after_issue(l, &mut out, lanes, n, &mut active_count);
            }

            // Event loop: jump to the next completion time anywhere in the
            // batch, then advance exactly the lanes completing there. Each
            // lane sees only its own subsequence of event times — the same
            // sequence a one-lane run walks — and within one time the
            // per-lane order (release cells, promote successors, check the
            // limit, issue) matches the reference loop step for step.
            while active_count > 0 {
                let Some(t) = self.wheel.next_time() else {
                    // Unreachable defensively: an active lane always has at
                    // least one queued event (a lane with none resolved at
                    // its last issue), but guard rather than spin.
                    for (l, active) in self.active.iter_mut().enumerate() {
                        if *active {
                            out[l] = Some(Err(SimError::CycleLimitExceeded {
                                limit: self.config.cycle_limit,
                            }));
                            *active = false;
                        }
                    }
                    break;
                };
                let mut completions = std::mem::take(&mut self.completions);
                completions.clear();
                self.wheel.advance_to(t, &mut completions);
                self.touched.clear();
                self.touched.resize(k, false);
                for &code in &completions {
                    let l = code as usize / n;
                    self.queued[l] -= 1;
                    self.touched[l] = true;
                }
                for l in 0..k {
                    // Inactive lanes' stale events are drained and dropped.
                    if !self.touched[l] || !self.active[l] {
                        continue;
                    }
                    let base = l * n;
                    let grid = l * area;
                    for &code in &completions {
                        let idx = code as usize;
                        if idx < base || idx >= base + n {
                            continue;
                        }
                        for &c in self.router.span(self.reserved[idx]) {
                            self.busy[grid + c as usize] = false;
                        }
                        self.completed[l] += 1;
                        self.max_finish[l] = self.max_finish[l].max(t);
                        self.complete_gate(l, idx - base, t, &dag, n);
                    }
                    if self.completed[l] == n {
                        out[l] = Some(Ok(self.finish_lane(l, &lanes[l], n)));
                        self.active[l] = false;
                        active_count -= 1;
                        continue;
                    }
                    if t > self.config.cycle_limit {
                        out[l] = Some(Err(SimError::CycleLimitExceeded {
                            limit: self.config.cycle_limit,
                        }));
                        self.active[l] = false;
                        active_count -= 1;
                        continue;
                    }
                    self.issue_passes(l, t, circuit, &dag, &lanes[l], n, area);
                    self.resolve_after_issue(l, &mut out, lanes, n, &mut active_count);
                }
                self.completions = completions;
            }
        }

        Ok(out
            .into_iter()
            .map(|r| r.expect("every lane resolves to a result"))
            .collect())
    }

    /// Mirrors the reference's prologue for one lane: validation errors
    /// and the empty-circuit fast path resolve the lane without simulating.
    fn prevalidate(
        &self,
        circuit: &Circuit,
        lane: &BatchLane<'_>,
        n: usize,
    ) -> Option<Result<SimResult>> {
        let mapping = &lane.layout.mapping;
        if mapping.grid_area() == 0 {
            return Some(Err(SimError::EmptyGrid));
        }
        for gate in circuit.gates() {
            for q in gate.qubits() {
                if mapping.position(q).is_none() {
                    return Some(Err(SimError::UnmappedQubit { qubit: q }));
                }
            }
        }
        if n == 0 {
            return Some(Ok(SimResult {
                cycles: 0,
                area: mapping.used_area(),
                timings: Vec::new(),
                stall_cycles: 0,
                stalled_gates: 0,
                routing_conflicts: 0,
            }));
        }
        None
    }

    /// Greedy issue passes for one lane at time `now`, equivalent to the
    /// reference's inner loop: start every ready gate whose cells are free,
    /// repeat until a full pass starts nothing. A repeat pass counts the
    /// previous pass's failures without retrying them (busy cells only
    /// accumulate within a step) and tries only the newly readied gates.
    #[allow(clippy::too_many_arguments)]
    fn issue_passes(
        &mut self,
        l: usize,
        now: u64,
        circuit: &Circuit,
        dag: &DependencyDag,
        lane: &BatchLane<'_>,
        n: usize,
        area: usize,
    ) {
        let mapping = &lane.layout.mapping;
        let hints = &lane.layout.hints;
        let routing = lane.routing.unwrap_or(self.config.routing);
        let gates = circuit.gates();
        let base = l * n;
        let grid = l * area;
        self.candidates.clear();
        self.candidates
            .extend_from_slice(&self.ready[base..base + self.ready_len[l]]);
        loop {
            let mut started_any = false;
            self.fresh.clear();
            for i in 0..self.candidates.len() {
                let g = self.candidates[i] as usize;
                let gate = &gates[g];
                let acquired = self.router.try_acquire(
                    gate,
                    routing,
                    mapping,
                    hints,
                    &self.busy[grid..grid + area],
                    &mut self.static_cells[base + g],
                    &mut self.blockers[base + g],
                    &mut self.reserved[base + g],
                );
                if !acquired {
                    self.conflicts[l] += 1;
                    continue;
                }
                for &c in self.router.span(self.reserved[base + g]) {
                    self.busy[grid + c as usize] = true;
                }
                let duration = self.durations[g];
                let finish = now + duration;
                self.timings[base + g] = GateTiming {
                    ready: self.ready_time[base + g],
                    start: now,
                    finish,
                };
                let len = self.ready_len[l];
                let pos = self.ready[base..base + len]
                    .binary_search(&(g as u32))
                    .expect("issued gate was ready");
                self.ready
                    .copy_within(base + pos + 1..base + len, base + pos);
                self.ready_len[l] = len - 1;
                if duration == 0 {
                    self.completed[l] += 1;
                    self.max_finish[l] = self.max_finish[l].max(finish);
                    self.complete_gate(l, g, now, dag, n);
                } else {
                    self.wheel.schedule(finish, (base + g) as u32);
                    self.queued[l] += 1;
                }
                started_any = true;
            }
            if !started_any {
                break;
            }
            // Every ready gate not readied by this pass failed it, and fails
            // the next one too: count those tries, then retry only the fresh.
            self.conflicts[l] += (self.ready_len[l] - self.fresh.len()) as u64;
            std::mem::swap(&mut self.candidates, &mut self.fresh);
            self.candidates.sort_unstable();
        }
    }

    /// Marks lane `l`'s gate `g` complete at `now`, promoting newly
    /// unblocked successors into the lane's sorted ready segment and
    /// recording them in `fresh`.
    fn complete_gate(&mut self, l: usize, g: usize, now: u64, dag: &DependencyDag, n: usize) {
        let base = l * n;
        for succ in dag.successors(GateId::new(g as u32)) {
            let s = succ.index();
            self.pending[base + s] -= 1;
            if self.pending[base + s] == 0 {
                self.ready_time[base + s] = now;
                let len = self.ready_len[l];
                let pos = self.ready[base..base + len]
                    .binary_search(&(s as u32))
                    .expect_err("a gate becomes ready exactly once");
                self.ready
                    .copy_within(base + pos..base + len, base + pos + 1);
                self.ready[base + pos] = s as u32;
                self.ready_len[l] = len + 1;
                self.fresh.push(s as u32);
            }
        }
    }

    /// After an issue pass: a lane with every gate done yields its result; a
    /// lane with work left but nothing in flight is deadlocked (the
    /// reference's empty-event-queue branch).
    fn resolve_after_issue(
        &mut self,
        l: usize,
        out: &mut [Option<Result<SimResult>>],
        lanes: &[BatchLane<'_>],
        n: usize,
        active_count: &mut usize,
    ) {
        if self.completed[l] == n {
            out[l] = Some(Ok(self.finish_lane(l, &lanes[l], n)));
        } else if self.queued[l] == 0 {
            out[l] = Some(Err(SimError::CycleLimitExceeded {
                limit: self.config.cycle_limit,
            }));
        } else {
            return;
        }
        self.active[l] = false;
        *active_count -= 1;
    }

    /// Assembles one finished lane's [`SimResult`], byte-identical to the
    /// reference's epilogue.
    fn finish_lane(&self, l: usize, lane: &BatchLane<'_>, n: usize) -> SimResult {
        let base = l * n;
        let timings: Vec<GateTiming> = self.timings[base..base + n].to_vec();
        let stall_cycles: u64 = timings.iter().map(GateTiming::stall).sum();
        let stalled_gates = timings.iter().filter(|t| t.stall() > 0).count();
        SimResult {
            cycles: self.max_finish[l],
            area: lane.layout.mapping.used_area(),
            timings,
            stall_cycles,
            stalled_gates,
            routing_conflicts: self.conflicts[l],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, SimConfig};
    use msfu_circuit::{CircuitBuilder, LatencyModel, QubitId, QubitRole};
    use msfu_layout::{Coord, Mapping};

    fn place_line(n: u32, width: usize, height: usize) -> Mapping {
        let mut m = Mapping::new(n as usize, width, height);
        for i in 0..n {
            m.place(QubitId::new(i), Coord::new(0, i as usize)).unwrap();
        }
        m
    }

    fn crossing_circuit() -> msfu_circuit::Circuit {
        let mut b = CircuitBuilder::new("crossing");
        let q = b.register("q", QubitRole::Data, 6);
        b.cnot(q[0], q[5]).unwrap();
        b.cnot(q[1], q[4]).unwrap();
        b.cnot(q[2], q[3]).unwrap();
        b.build()
    }

    fn diagonal_mapping() -> Mapping {
        let mut m = Mapping::new(6, 6, 6);
        for i in 0..6u32 {
            m.place(QubitId::new(i), Coord::new(i as usize, i as usize))
                .unwrap();
        }
        m
    }

    #[test]
    fn single_lane_matches_reference() {
        let c = crossing_circuit();
        let layout = msfu_layout::Layout::new(place_line(6, 6, 6));
        for config in [SimConfig::default(), SimConfig::dimension_ordered()] {
            let solo = reference::run(&config, &c, &layout).unwrap();
            let mut batch = BatchEngine::new(config);
            let results = batch.run(&c, &[BatchLane::new(&layout)]).unwrap();
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].as_ref().unwrap(), &solo);
        }
    }

    #[test]
    fn mixed_routing_lanes_match_their_solo_runs() {
        let c = crossing_circuit();
        let line = msfu_layout::Layout::new(place_line(6, 6, 6));
        let diag = msfu_layout::Layout::new(diagonal_mapping());
        let policies = [RoutingPolicy::DimensionOrdered, RoutingPolicy::Adaptive];
        let mut batch = BatchEngine::new(SimConfig::default());
        let lanes: Vec<BatchLane<'_>> = policies
            .iter()
            .flat_map(|&p| {
                [
                    BatchLane::new(&line).with_routing(p),
                    BatchLane::new(&diag).with_routing(p),
                ]
            })
            .collect();
        let results = batch.run(&c, &lanes).unwrap();
        for (lane, result) in lanes.iter().zip(&results) {
            let config = SimConfig {
                routing: lane.routing.unwrap(),
                ..SimConfig::default()
            };
            let solo = reference::run(&config, &c, lane.layout()).unwrap();
            assert_eq!(result.as_ref().unwrap(), &solo);
        }
    }

    #[test]
    fn cycle_limit_aborts_one_lane_without_disturbing_the_other() {
        let c = crossing_circuit();
        let mut config = SimConfig::dimension_ordered();
        config.cycle_limit = LatencyModel::default().cnot;
        // The line placement serialises all three crossing braids and blows
        // the limit mid-run; the diagonal placement runs them in parallel
        // and finishes exactly at the limit.
        let line = msfu_layout::Layout::new(place_line(6, 6, 6));
        let diag = msfu_layout::Layout::new(diagonal_mapping());
        let mut batch = BatchEngine::new(config);
        let results = batch
            .run(&c, &[BatchLane::new(&line), BatchLane::new(&diag)])
            .unwrap();
        assert!(matches!(
            results[0],
            Err(SimError::CycleLimitExceeded { .. })
        ));
        let solo = reference::run(&config, &c, &diag).unwrap();
        assert_eq!(results[1].as_ref().unwrap(), &solo);
        // The reference agrees the line lane dies the same way.
        assert_eq!(
            reference::run(&config, &c, &line).unwrap_err(),
            results[0].clone().unwrap_err()
        );
    }

    #[test]
    fn mismatched_grids_are_rejected_before_any_lane_runs() {
        let c = crossing_circuit();
        let a = msfu_layout::Layout::new(place_line(6, 6, 6));
        let b = msfu_layout::Layout::new(place_line(6, 7, 6));
        let err = BatchEngine::new(SimConfig::default())
            .run(&c, &[BatchLane::new(&a), BatchLane::new(&b)])
            .unwrap_err();
        assert!(matches!(err, SimError::LaneMismatch { .. }));
        assert!(err.to_string().contains("7x6"));
    }

    #[test]
    fn too_many_lanes_are_rejected() {
        let c = crossing_circuit();
        let layout = msfu_layout::Layout::new(place_line(6, 6, 6));
        let lanes: Vec<BatchLane<'_>> = (0..MAX_LANES + 1)
            .map(|_| BatchLane::new(&layout))
            .collect();
        let err = BatchEngine::new(SimConfig::default())
            .run(&c, &lanes)
            .unwrap_err();
        assert!(matches!(err, SimError::LaneMismatch { .. }));
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let c = crossing_circuit();
        let results = BatchEngine::new(SimConfig::default()).run(&c, &[]).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn reused_batch_engine_matches_fresh_engines() {
        let c = crossing_circuit();
        let line = msfu_layout::Layout::new(place_line(6, 6, 6));
        let diag = msfu_layout::Layout::new(diagonal_mapping());
        let mut reused = BatchEngine::new(SimConfig::default());
        for _ in 0..3 {
            for lanes in [
                vec![BatchLane::new(&line), BatchLane::new(&diag)],
                vec![BatchLane::new(&diag)],
            ] {
                let warm = reused.run(&c, &lanes).unwrap();
                let cold = BatchEngine::new(SimConfig::default())
                    .run(&c, &lanes)
                    .unwrap();
                assert_eq!(warm, cold);
            }
        }
    }

    /// An 8x3 mesh: q0..q5 on row 0 under CNOT(q0, q5)'s braid, q6 and q9
    /// in corners no braid crosses, q8 at (0, 6) and q7 at (2, 3), so that
    /// CNOT(q8, q7)'s L-route runs back along row 0 through q3..q5.
    fn skip_paths_layout() -> msfu_layout::Layout {
        let mut m = Mapping::new(10, 8, 3);
        let cells = (0..6).map(|col| (0, col));
        for (q, (row, col)) in cells.chain([(2, 0), (2, 3), (0, 6), (2, 7)]).enumerate() {
            m.place(QubitId::new(q as u32), Coord::new(row, col))
                .unwrap();
        }
        msfu_layout::Layout::new(m)
    }

    /// Runs `c` as a one-lane batch under both routing policies and asserts
    /// each result (including `routing_conflicts`) equals the reference's.
    fn assert_matches_reference(c: &Circuit, layout: &msfu_layout::Layout, latency: LatencyModel) {
        for routing in [RoutingPolicy::DimensionOrdered, RoutingPolicy::Adaptive] {
            let config = SimConfig {
                routing,
                latency,
                ..SimConfig::default()
            };
            let solo = reference::run(&config, c, layout);
            let mut batch = BatchEngine::new(config);
            let got = batch.run(c, &[BatchLane::new(layout)]).unwrap().remove(0);
            assert_eq!(got, solo, "{routing:?}");
        }
    }

    #[test]
    fn barrier_readied_gates_issue_mid_step_beside_blocked_gates() {
        // At cycle 0 the barrier completes mid-pass and readies H(q6) and
        // X(q9), whose cells are free, while CNOT(q1, q4), CNOT(q8, q7) and
        // CNOT(q2, q3) sit blocked by CNOT(q0, q5) on either side of them in
        // id order. The repeat passes count the blocked gates' failures
        // without retrying them; later events retry their blocking cells.
        let mut b = CircuitBuilder::new("barrier-mid-pass");
        let q = b.register("q", QubitRole::Data, 10);
        b.cnot(q[0], q[5]).unwrap();
        b.cnot(q[1], q[4]).unwrap();
        b.barrier(vec![q[6], q[9]]).unwrap();
        b.h(q[6]).unwrap();
        b.x(q[9]).unwrap();
        b.cnot(q[8], q[7]).unwrap();
        b.cnot(q[2], q[3]).unwrap();
        let c = b.build();
        let layout = skip_paths_layout();
        assert_matches_reference(&c, &layout, LatencyModel::default());
        let fixed = BatchEngine::new(SimConfig::dimension_ordered())
            .run(&c, &[BatchLane::new(&layout)])
            .unwrap()
            .remove(0)
            .unwrap();
        assert_eq!((fixed.timings[3].start, fixed.timings[4].start), (0, 0));
        assert!(fixed.stalled_gates >= 3, "{fixed:?}");
    }

    #[test]
    fn zero_latency_gates_leak_their_cells_like_the_reference() {
        // The spec layer refuses zero latencies, but a library-built model
        // may carry them. A zero-cycle H or X completes inside its issue
        // pass, readies its successors at once and never releases its cell.
        let latency = LatencyModel {
            single_qubit: 0,
            ..LatencyModel::default()
        };
        let mut b = CircuitBuilder::new("zero-latency");
        let q = b.register("q", QubitRole::Data, 10);
        b.cnot(q[0], q[5]).unwrap();
        b.cnot(q[1], q[4]).unwrap();
        b.h(q[6]).unwrap();
        b.barrier(vec![q[6], q[9]]).unwrap();
        b.x(q[9]).unwrap();
        b.cnot(q[8], q[7]).unwrap();
        b.cnot(q[2], q[3]).unwrap();
        let layout = skip_paths_layout();
        assert_matches_reference(&b.clone().build(), &layout, latency);
        // A later gate on q6 needs its leaked cell: both engines deadlock.
        b.s(q[6]).unwrap();
        let c = b.build();
        assert_matches_reference(&c, &layout, latency);
        let err = BatchEngine::new(SimConfig {
            latency,
            ..SimConfig::dimension_ordered()
        })
        .run(&c, &[BatchLane::new(&layout)])
        .unwrap()
        .remove(0);
        assert!(matches!(err, Err(SimError::CycleLimitExceeded { .. })));
    }

    #[test]
    fn unmapped_lane_fails_alone() {
        let c = crossing_circuit();
        let good = msfu_layout::Layout::new(place_line(6, 6, 6));
        let bad = msfu_layout::Layout::new(Mapping::new(6, 6, 6)); // nothing placed
        let results = BatchEngine::new(SimConfig::default())
            .run(&c, &[BatchLane::new(&bad), BatchLane::new(&good)])
            .unwrap();
        assert!(matches!(results[0], Err(SimError::UnmappedQubit { .. })));
        let solo = reference::run(&SimConfig::default(), &c, &good).unwrap();
        assert_eq!(results[1].as_ref().unwrap(), &solo);
    }
}
