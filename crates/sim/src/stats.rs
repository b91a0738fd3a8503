//! Simulation results and statistics.

/// Timing of one gate as realised by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateTiming {
    /// Cycle at which every dependency of the gate had completed.
    pub ready: u64,
    /// Cycle at which the gate acquired its resources and began executing.
    pub start: u64,
    /// Cycle at which the gate finished.
    pub finish: u64,
}

impl GateTiming {
    /// Cycles the gate spent ready but stalled waiting for mesh resources.
    pub fn stall(&self) -> u64 {
        self.start - self.ready
    }

    /// Execution duration of the gate.
    pub fn duration(&self) -> u64 {
        self.finish - self.start
    }
}

/// Result of simulating a circuit on a mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total realised latency in cycles (the finish time of the last gate).
    pub cycles: u64,
    /// Logical-qubit area consumed (bounding box of the placement).
    pub area: usize,
    /// Per-gate timing, indexed by gate id.
    pub timings: Vec<GateTiming>,
    /// Total number of stall cycles across all gates.
    pub stall_cycles: u64,
    /// Number of gates that stalled at least one cycle.
    pub stalled_gates: usize,
    /// Number of braid routing attempts that failed due to congestion.
    pub routing_conflicts: u64,
}

impl SimResult {
    /// Consumed space-time (quantum) volume: `area × cycles`, the headline
    /// metric of the paper (qubits × cycles).
    pub fn volume(&self) -> u64 {
        self.area as u64 * self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_timing_derived_quantities() {
        let t = GateTiming {
            ready: 3,
            start: 7,
            finish: 10,
        };
        assert_eq!(t.stall(), 4);
        assert_eq!(t.duration(), 3);
    }

    #[test]
    fn volume_is_area_times_cycles() {
        let r = SimResult {
            cycles: 100,
            area: 25,
            timings: vec![
                GateTiming {
                    ready: 0,
                    start: 0,
                    finish: 2,
                },
                GateTiming {
                    ready: 2,
                    start: 6,
                    finish: 8,
                },
            ],
            stall_cycles: 4,
            stalled_gates: 1,
            routing_conflicts: 2,
        };
        assert_eq!(r.volume(), 2500);
    }

    #[test]
    fn empty_result_has_zero_volume() {
        let r = SimResult {
            cycles: 0,
            area: 0,
            timings: vec![],
            stall_cycles: 0,
            stalled_gates: 0,
            routing_conflicts: 0,
        };
        assert_eq!(r.volume(), 0);
    }
}
