//! The original per-run braid simulator, kept as a reference implementation.
//!
//! [`crate::BatchEngine`] is the production event loop ([`crate::SimEngine`]
//! runs it one lane at a time): it reuses its arenas across runs, caches
//! static cell sets and drives time through a bucketed event wheel. This
//! module preserves the straightforward implementation it replaced — fresh
//! allocations everywhere, `BTreeSet` ready queue, `BinaryHeap` event queue,
//! braid paths materialised through [`BraidPath`] on every routing attempt.
//! It is the independent oracle: differential tests assert, run after run and
//! lane by lane, that the production engines produce byte-identical
//! [`SimResult`]s. It is not meant to be used for new code.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use msfu_circuit::{Circuit, Gate, GateId, QubitId};
use msfu_layout::{Coord, Layout, Mapping, RoutingHints};

use crate::braid::{adaptive_path, dimension_ordered_path, BraidPath};
use crate::{GateTiming, Result, RoutingPolicy, SimConfig, SimError, SimResult};

/// Simulates `circuit` under `layout` with the reference algorithm.
///
/// Behaviourally identical to [`crate::SimEngine::run`] and to every lane of
/// [`crate::BatchEngine::run`] (asserted by `tests/engine_equivalence.rs` and
/// `tests/batch_equivalence.rs`), roughly an order of magnitude slower on
/// contended meshes.
///
/// # Errors
///
/// Returns [`SimError::UnmappedQubit`] when a gate references an unplaced
/// qubit, [`SimError::EmptyGrid`] for an empty mesh, and
/// [`SimError::CycleLimitExceeded`] if the simulation runs past the
/// configured limit.
pub fn run(config: &SimConfig, circuit: &Circuit, layout: &Layout) -> Result<SimResult> {
    let mapping = &layout.mapping;
    if mapping.grid_area() == 0 {
        return Err(SimError::EmptyGrid);
    }
    // Validate that every referenced qubit is placed.
    for gate in circuit.gates() {
        for q in gate.qubits() {
            if mapping.position(q).is_none() {
                return Err(SimError::UnmappedQubit { qubit: q });
            }
        }
    }

    let n = circuit.num_gates();
    if n == 0 {
        return Ok(SimResult {
            cycles: 0,
            area: mapping.used_area(),
            timings: Vec::new(),
            stall_cycles: 0,
            stalled_gates: 0,
            routing_conflicts: 0,
        });
    }

    let dag = circuit.dependency_dag();
    let mut pending: Vec<usize> = (0..n)
        .map(|g| dag.predecessors(GateId::new(g as u32)).len())
        .collect();
    let mut ready: BTreeSet<usize> = (0..n).filter(|g| pending[*g] == 0).collect();
    let mut ready_time: Vec<u64> = vec![0; n];
    let mut timings: Vec<Option<GateTiming>> = vec![None; n];

    // Busy cells: reserved by currently executing braids.
    let width = mapping.width();
    let height = mapping.height();
    let mut busy = vec![false; width * height];
    let cell_idx = |c: Coord| c.row * width + c.col;

    // Active operations: min-heap of (finish, gate).
    let mut active: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut reserved: Vec<Vec<Coord>> = vec![Vec::new(); n];

    let mut now: u64 = 0;
    let mut completed = 0usize;
    let mut routing_conflicts: u64 = 0;
    let mut max_finish: u64 = 0;

    while completed < n {
        if now > config.cycle_limit {
            return Err(SimError::CycleLimitExceeded {
                limit: config.cycle_limit,
            });
        }

        // Issue as many ready gates as possible at the current time.
        loop {
            let mut started_any = false;
            let candidates: Vec<usize> = ready.iter().copied().collect();
            for g in candidates {
                let gate = &circuit.gates()[g];
                let cells =
                    match acquire_cells(config, gate, mapping, &layout.hints, &busy, width, height)
                    {
                        Some(cells) => cells,
                        None => {
                            routing_conflicts += 1;
                            continue;
                        }
                    };
                // Reserve and start.
                for c in &cells {
                    busy[cell_idx(*c)] = true;
                }
                let duration = config.latency.cycles(gate);
                let finish = now + duration;
                timings[g] = Some(GateTiming {
                    ready: ready_time[g],
                    start: now,
                    finish,
                });
                ready.remove(&g);
                if duration == 0 {
                    // Zero-duration gates (barriers) complete immediately.
                    completed += 1;
                    max_finish = max_finish.max(finish);
                    for succ in dag.successors(GateId::new(g as u32)) {
                        let s = succ.index();
                        pending[s] -= 1;
                        if pending[s] == 0 {
                            ready_time[s] = now;
                            ready.insert(s);
                        }
                    }
                } else {
                    reserved[g] = cells;
                    active.push(Reverse((finish, g)));
                }
                started_any = true;
            }
            if !started_any {
                break;
            }
        }

        if completed == n {
            break;
        }

        // Advance to the next completion event.
        let Reverse((finish, _)) = match active.peek() {
            Some(ev) => *ev,
            None => {
                // Nothing active and nothing could start: the ready gates
                // are permanently blocked (cannot happen on an empty mesh,
                // but guard against it rather than spinning forever).
                return Err(SimError::CycleLimitExceeded {
                    limit: config.cycle_limit,
                });
            }
        };
        now = finish;
        while let Some(Reverse((f, g))) = active.peek().copied() {
            if f != now {
                break;
            }
            active.pop();
            for c in reserved[g].drain(..) {
                busy[cell_idx(c)] = false;
            }
            completed += 1;
            max_finish = max_finish.max(f);
            for succ in dag.successors(GateId::new(g as u32)) {
                let s = succ.index();
                pending[s] -= 1;
                if pending[s] == 0 {
                    ready_time[s] = now;
                    ready.insert(s);
                }
            }
        }
    }

    let timings: Vec<GateTiming> = timings
        .into_iter()
        .map(|t| t.expect("all gates timed"))
        .collect();
    let stall_cycles: u64 = timings.iter().map(GateTiming::stall).sum();
    let stalled_gates = timings.iter().filter(|t| t.stall() > 0).count();
    Ok(SimResult {
        cycles: max_finish,
        area: mapping.used_area(),
        timings,
        stall_cycles,
        stalled_gates,
        routing_conflicts,
    })
}

/// Computes the cell set a gate needs, or `None` if it cannot currently be
/// routed/placed because of busy cells.
fn acquire_cells(
    config: &SimConfig,
    gate: &Gate,
    mapping: &Mapping,
    hints: &RoutingHints,
    busy: &[bool],
    width: usize,
    height: usize,
) -> Option<Vec<Coord>> {
    let cell_idx = |c: Coord| c.row * width + c.col;
    let is_busy = |c: Coord| busy[cell_idx(c)];
    let pos = |q: QubitId| mapping.position(q).expect("validated before simulation");

    match gate {
        Gate::Barrier(_) => Some(Vec::new()),
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
            let c = pos(*q);
            if is_busy(c) {
                None
            } else {
                Some(vec![c])
            }
        }
        Gate::Cnot { control, target } => route_pair(
            config,
            pos(*control),
            pos(*target),
            hints.waypoint(*control, *target),
            &is_busy,
            mapping,
            width,
            height,
        )
        .map(|b| b.cells().to_vec()),
        Gate::InjectT { raw, target } | Gate::InjectTdg { raw, target } => route_pair(
            config,
            pos(*raw),
            pos(*target),
            hints.waypoint(*raw, *target),
            &is_busy,
            mapping,
            width,
            height,
        )
        .map(|b| b.cells().to_vec()),
        Gate::Cxx { control, targets } => {
            let c = pos(*control);
            let mut merged = BraidPath::new(vec![c]);
            for t in targets {
                let leg = route_pair(
                    config,
                    c,
                    pos(*t),
                    hints.waypoint(*control, *t),
                    &is_busy,
                    mapping,
                    width,
                    height,
                )?;
                merged.merge(&leg);
            }
            Some(merged.cells().to_vec())
        }
    }
}

/// Routes a braid between two cells, optionally via a waypoint, under the
/// configured routing policy. Returns `None` when the braid cannot avoid
/// busy cells (adaptive) or its fixed path is blocked (dimension ordered).
#[allow(clippy::too_many_arguments)]
fn route_pair(
    config: &SimConfig,
    from: Coord,
    to: Coord,
    waypoint: Option<Coord>,
    is_busy: &dyn Fn(Coord) -> bool,
    mapping: &Mapping,
    width: usize,
    height: usize,
) -> Option<BraidPath> {
    // Adaptive routing prefers corridors over cells that host idle
    // resident qubits: braiding over a resident tile blocks that qubit's
    // own operations, so it carries a traversal penalty.
    let occupancy_penalty = |c: Coord| -> u64 {
        if mapping.occupant(c).is_some() {
            4
        } else {
            0
        }
    };
    let route_leg = |a: Coord, b: Coord| -> Option<BraidPath> {
        match config.routing {
            RoutingPolicy::DimensionOrdered => {
                let path = dimension_ordered_path(a, b);
                if path.cells().iter().any(|c| is_busy(*c)) {
                    None
                } else {
                    Some(path)
                }
            }
            RoutingPolicy::Adaptive => {
                if is_busy(a) || is_busy(b) {
                    return None;
                }
                adaptive_path(a, b, width, height, is_busy, &occupancy_penalty)
            }
        }
    };
    match waypoint {
        None => route_leg(from, to),
        Some(w) => {
            let mut first = route_leg(from, w)?;
            let second = route_leg(w, to)?;
            first.merge(&second);
            Some(first)
        }
    }
}
