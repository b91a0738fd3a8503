//! Per-gate logical-cycle latency model.

use crate::Gate;

/// Logical-cycle cost of each gate class.
///
/// The braid network simulator of the paper is cycle accurate but the paper
/// does not publish its per-gate costs; this model exposes them as tunable
/// parameters with defaults chosen so single-level factory latencies fall in
/// the few-hundred-cycle range reported in Fig. 10a. Every cost is expressed
/// in logical surface-code cycles.
///
/// # Example
///
/// ```
/// use msfu_circuit::{Gate, LatencyModel, QubitId};
///
/// let model = LatencyModel::default();
/// let cnot = Gate::Cnot { control: QubitId::new(0), target: QubitId::new(1) };
/// assert!(model.cycles(&cnot) >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyModel {
    /// Cost of a single-qubit Clifford gate (H, X, Z, S).
    pub single_qubit: u64,
    /// Cost of a logical T/T† gate applied directly (rarely used: factories
    /// realise T via injection).
    pub t_gate: u64,
    /// Cost of a CNOT braid (extend + contract).
    pub cnot: u64,
    /// Cost of a multi-target CNOT braid, per target.
    pub cxx_per_target: u64,
    /// Cost of a probabilistic magic-state injection. The paper notes an
    /// injection costs two CNOT braids in expectation plus a correction.
    pub inject: u64,
    /// Cost of a logical measurement.
    pub measure: u64,
    /// Cost of (re-)initialising a logical qubit.
    pub init: u64,
}

impl LatencyModel {
    /// The default model used throughout the reproduction: CNOT braids cost
    /// two cycles, injections cost two CNOT braids plus a correction cycle,
    /// measurements and initialisations one cycle each.
    pub const fn paper_default() -> Self {
        LatencyModel {
            single_qubit: 1,
            t_gate: 10,
            cnot: 2,
            cxx_per_target: 2,
            inject: 5,
            measure: 1,
            init: 1,
        }
    }

    /// Returns the latency in logical cycles of the given gate.
    ///
    /// Barriers are free: they constrain the schedule but occupy no mesh
    /// resources in the IR (their physical realisation is accounted for by the
    /// simulator's synchronisation behaviour).
    pub fn cycles(&self, gate: &Gate) -> u64 {
        match gate {
            Gate::H(_) | Gate::X(_) | Gate::Z(_) | Gate::S(_) | Gate::Sdg(_) => self.single_qubit,
            Gate::T(_) | Gate::Tdg(_) => self.t_gate,
            Gate::Cnot { .. } => self.cnot,
            Gate::Cxx { targets, .. } => self.cxx_per_target * targets.len().max(1) as u64,
            Gate::InjectT { .. } | Gate::InjectTdg { .. } => self.inject,
            Gate::MeasX(_) | Gate::MeasZ(_) => self.measure,
            Gate::Init(_) => self.init,
            Gate::Barrier(_) => 0,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QubitId;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn default_equals_paper_default() {
        assert_eq!(LatencyModel::default(), LatencyModel::paper_default());
    }

    #[test]
    fn barrier_is_free() {
        let m = LatencyModel::default();
        assert_eq!(m.cycles(&Gate::Barrier(vec![q(0), q(1)])), 0);
    }

    #[test]
    fn cxx_scales_with_targets() {
        let m = LatencyModel::default();
        let one = m.cycles(&Gate::Cxx {
            control: q(0),
            targets: vec![q(1)],
        });
        let three = m.cycles(&Gate::Cxx {
            control: q(0),
            targets: vec![q(1), q(2), q(3)],
        });
        assert_eq!(three, 3 * one);
    }

    #[test]
    fn injection_costs_more_than_cnot() {
        let m = LatencyModel::default();
        let cnot = m.cycles(&Gate::Cnot {
            control: q(0),
            target: q(1),
        });
        let inject = m.cycles(&Gate::InjectT {
            raw: q(0),
            target: q(1),
        });
        assert!(inject > cnot);
    }

    #[test]
    fn custom_model_is_respected() {
        let m = LatencyModel {
            single_qubit: 7,
            ..LatencyModel::default()
        };
        assert_eq!(m.cycles(&Gate::H(q(0))), 7);
    }
}
