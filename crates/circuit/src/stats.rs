//! Gate-count and structure statistics for circuits.

use std::collections::BTreeMap;

use crate::{Circuit, GateKind, LatencyModel, QubitRole};

/// Summary statistics of a circuit: gate counts per kind, qubit counts per
/// role, T-count, braid count and dependency depth.
///
/// # Example
///
/// ```
/// use msfu_circuit::{CircuitBuilder, QubitRole, stats::CircuitStats};
///
/// let mut b = CircuitBuilder::new("s");
/// let raw = b.register("raw", QubitRole::Raw, 1);
/// let out = b.register("out", QubitRole::Output, 1);
/// b.h(out[0]).unwrap();
/// b.inject_t(raw[0], out[0]).unwrap();
/// let c = b.build();
/// let stats = CircuitStats::of(&c);
/// assert_eq!(stats.t_count(), 1);
/// assert_eq!(stats.num_qubits, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitStats {
    /// Total number of logical qubits.
    pub num_qubits: u32,
    /// Total number of gates.
    pub num_gates: usize,
    /// Gate counts per kind.
    pub gate_counts: BTreeMap<GateKind, usize>,
    /// Qubit counts per role.
    pub role_counts: BTreeMap<QubitRole, usize>,
    /// Number of braid operations (interaction-graph edge instances).
    pub braid_count: usize,
    /// Dependency-DAG depth in gate levels.
    pub depth: usize,
    /// Critical path in cycles under the default latency model.
    pub critical_path_cycles: u64,
}

impl CircuitStats {
    /// Computes statistics for a circuit using the default latency model.
    pub fn of(circuit: &Circuit) -> Self {
        Self::with_model(circuit, &LatencyModel::default())
    }

    /// Computes statistics for a circuit under an explicit latency model.
    pub fn with_model(circuit: &Circuit, model: &LatencyModel) -> Self {
        let mut gate_counts: BTreeMap<GateKind, usize> = BTreeMap::new();
        for g in circuit.gates() {
            *gate_counts.entry(g.kind()).or_insert(0) += 1;
        }
        let mut role_counts: BTreeMap<QubitRole, usize> = BTreeMap::new();
        for r in circuit.roles() {
            *role_counts.entry(*r).or_insert(0) += 1;
        }
        let dag = circuit.dependency_dag();
        CircuitStats {
            num_qubits: circuit.num_qubits(),
            num_gates: circuit.num_gates(),
            gate_counts,
            role_counts,
            braid_count: circuit.braid_count(),
            depth: dag.depth(),
            critical_path_cycles: dag.critical_path_cycles(circuit, model),
        }
    }

    /// Number of gates of a given kind.
    pub fn count(&self, kind: GateKind) -> usize {
        self.gate_counts.get(&kind).copied().unwrap_or(0)
    }

    /// T-count: T, T† and both injection flavours, the standard difficulty
    /// metric for fault-tolerant execution (Section II-E of the paper).
    pub fn t_count(&self) -> usize {
        self.count(GateKind::T)
            + self.count(GateKind::Tdg)
            + self.count(GateKind::InjectT)
            + self.count(GateKind::InjectTdg)
    }

    /// Number of two-qubit interactions, counting each `CXX` target once.
    pub fn two_qubit_count(&self) -> usize {
        self.braid_count
    }

    /// Number of qubits having the given role.
    pub fn qubits_with_role(&self, role: QubitRole) -> usize {
        self.role_counts.get(&role).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

    #[test]
    fn stats_of_mixed_circuit() {
        let mut b = CircuitBuilder::new("m");
        let raw = b.register("raw", QubitRole::Raw, 2);
        let anc = b.register("anc", QubitRole::Ancilla, 2);
        let out = b.register("out", QubitRole::Output, 1);
        b.h(anc[0]).unwrap();
        b.h(out[0]).unwrap();
        b.cxx(anc[0], vec![anc[1], out[0]]).unwrap();
        b.inject_t(raw[0], anc[0]).unwrap();
        b.inject_tdg(raw[1], anc[1]).unwrap();
        b.meas_x(anc[0]).unwrap();
        b.meas_x(anc[1]).unwrap();
        let c = b.build();
        let s = CircuitStats::of(&c);

        assert_eq!(s.num_qubits, 5);
        assert_eq!(s.num_gates, 7);
        assert_eq!(s.count(GateKind::H), 2);
        assert_eq!(s.count(GateKind::MeasX), 2);
        assert_eq!(s.t_count(), 2);
        assert_eq!(s.two_qubit_count(), 4); // 2 from CXX + 2 injections
        assert_eq!(s.qubits_with_role(QubitRole::Raw), 2);
        assert_eq!(s.qubits_with_role(QubitRole::Output), 1);
        assert!(s.depth >= 3);
        assert!(s.critical_path_cycles > 0);
    }

    #[test]
    fn stats_of_empty_circuit() {
        let c = CircuitBuilder::new("e").build();
        let s = CircuitStats::of(&c);
        assert_eq!(s.num_gates, 0);
        assert_eq!(s.t_count(), 0);
        assert_eq!(s.depth, 0);
        assert_eq!(s.critical_path_cycles, 0);
    }

    #[test]
    fn custom_model_changes_critical_path_only() {
        let mut b = CircuitBuilder::new("m");
        let q = b.register("q", QubitRole::Data, 2);
        b.cnot(q[0], q[1]).unwrap();
        let c = b.build();
        let slow = LatencyModel {
            cnot: 100,
            ..LatencyModel::default()
        };
        let s1 = CircuitStats::of(&c);
        let s2 = CircuitStats::with_model(&c, &slow);
        assert_eq!(s1.num_gates, s2.num_gates);
        assert!(s2.critical_path_cycles > s1.critical_path_cycles);
    }
}
