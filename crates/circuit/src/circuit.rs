//! The [`Circuit`] container: a validated sequence of gates over logical qubits.

use std::collections::BTreeMap;

use crate::{
    CircuitError, DependencyDag, Gate, GateId, LatencyModel, QubitId, QubitRegister, QubitRole,
    Result,
};

/// A quantum circuit: an ordered sequence of [`Gate`]s over a fixed set of
/// logical qubits, each carrying a [`QubitRole`].
///
/// Program order defines the data hazards used for dependency analysis; the
/// braid simulator of the paper treats any shared-qubit hazard as a true
/// dependency (Section VIII-A), and so does [`DependencyDag`].
///
/// # Example
///
/// ```
/// use msfu_circuit::{CircuitBuilder, QubitRole};
///
/// let mut b = CircuitBuilder::new("example");
/// let q = b.register("q", QubitRole::Data, 3);
/// b.h(q[0]).unwrap();
/// b.cnot(q[0], q[1]).unwrap();
/// b.cnot(q[1], q[2]).unwrap();
/// let c = b.build();
/// assert_eq!(c.num_gates(), 3);
/// assert_eq!(c.interaction_pairs().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    name: String,
    roles: Vec<QubitRole>,
    registers: Vec<QubitRegister>,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit with the given name and per-qubit roles.
    pub fn new(name: impl Into<String>, roles: Vec<QubitRole>) -> Self {
        Circuit {
            name: name.into(),
            roles,
            registers: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Name of the circuit.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of logical qubits in the circuit.
    pub fn num_qubits(&self) -> u32 {
        self.roles.len() as u32
    }

    /// Number of gates in the circuit.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates of the circuit in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Returns the gate with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range for this circuit.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over `(GateId, &Gate)` pairs in program order.
    pub fn iter_gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId::new(i as u32), g))
    }

    /// Per-qubit roles, indexed by [`QubitId::index`].
    pub fn roles(&self) -> &[QubitRole] {
        &self.roles
    }

    /// Role of a single qubit.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    pub fn role(&self, qubit: QubitId) -> QubitRole {
        self.roles[qubit.index()]
    }

    /// Named registers declared for this circuit (may be empty when a circuit
    /// was assembled gate-by-gate without register bookkeeping).
    pub fn registers(&self) -> &[QubitRegister] {
        &self.registers
    }

    /// Returns all qubits having the given role.
    pub fn qubits_with_role(&self, role: QubitRole) -> Vec<QubitId> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == role)
            .map(|(i, _)| QubitId::new(i as u32))
            .collect()
    }

    /// Appends a gate after validating its operands.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if the gate references a
    /// qubit outside the circuit, [`CircuitError::DuplicateQubit`] if a
    /// multi-qubit gate repeats a qubit, and [`CircuitError::EmptyTargets`]
    /// for a `Cxx` or `Barrier` with no operands.
    pub fn push(&mut self, gate: Gate) -> Result<GateId> {
        self.validate_gate(&gate)?;
        let id = GateId::new(self.gates.len() as u32);
        self.gates.push(gate);
        Ok(id)
    }

    pub(crate) fn set_registers(&mut self, registers: Vec<QubitRegister>) {
        self.registers = registers;
    }

    fn validate_gate(&self, gate: &Gate) -> Result<()> {
        let qubits = gate.qubits();
        match gate {
            Gate::Cxx { targets, .. } if targets.is_empty() => {
                return Err(CircuitError::EmptyTargets)
            }
            Gate::Barrier(qs) if qs.is_empty() => return Err(CircuitError::EmptyTargets),
            _ => {}
        }
        let n = self.num_qubits();
        for q in &qubits {
            if q.raw() >= n {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: *q,
                    num_qubits: n,
                });
            }
        }
        // Barriers may legitimately list many qubits but still must not repeat
        // them; all other multi-qubit gates must act on distinct qubits.
        if qubits.len() > 1 {
            let mut seen = vec![false; n as usize];
            for q in &qubits {
                if seen[q.index()] {
                    return Err(CircuitError::DuplicateQubit { qubit: *q });
                }
                seen[q.index()] = true;
            }
        }
        Ok(())
    }

    /// Two-qubit interaction pairs with multiplicities, i.e. the weighted edge
    /// list of the program interaction graph (Section VI of the paper).
    ///
    /// Pairs are canonicalised so the smaller qubit id comes first.
    pub fn interaction_pairs(&self) -> BTreeMap<(QubitId, QubitId), usize> {
        let mut pairs = BTreeMap::new();
        for gate in &self.gates {
            for (a, b) in gate.interaction_edges() {
                let key = if a <= b { (a, b) } else { (b, a) };
                *pairs.entry(key).or_insert(0) += 1;
            }
        }
        pairs
    }

    /// Builds the data-hazard dependency DAG of the circuit.
    pub fn dependency_dag(&self) -> DependencyDag {
        DependencyDag::build(self)
    }

    /// Critical-path length of the circuit in cycles under the given latency
    /// model. This is the "theoretical lower bound" used in Fig. 7 and the
    /// `Critical` row of Table I of the paper.
    pub fn critical_path_cycles(&self, model: &LatencyModel) -> u64 {
        self.dependency_dag().critical_path_cycles(self, model)
    }

    /// Total number of braid operations (two-qubit interactions plus one per
    /// `CXX` target) in the circuit.
    pub fn braid_count(&self) -> usize {
        self.gates.iter().map(|g| g.interaction_edges().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn circuit(n: u32) -> Circuit {
        Circuit::new("test", vec![QubitRole::Data; n as usize])
    }

    #[test]
    fn push_and_access_gates() {
        let mut c = circuit(3);
        let id0 = c.push(Gate::H(q(0))).unwrap();
        let id1 = c
            .push(Gate::Cnot {
                control: q(0),
                target: q(1),
            })
            .unwrap();
        assert_eq!(id0.index(), 0);
        assert_eq!(id1.index(), 1);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.gate(id1).kind().mnemonic(), "CNOT");
        assert!(!c.is_empty());
    }

    #[test]
    fn rejects_out_of_range_qubits() {
        let mut c = circuit(2);
        let err = c
            .push(Gate::Cnot {
                control: q(0),
                target: q(5),
            })
            .unwrap_err();
        assert!(matches!(err, CircuitError::QubitOutOfRange { .. }));
    }

    #[test]
    fn rejects_duplicate_qubits() {
        let mut c = circuit(2);
        let err = c
            .push(Gate::Cnot {
                control: q(1),
                target: q(1),
            })
            .unwrap_err();
        assert_eq!(err, CircuitError::DuplicateQubit { qubit: q(1) });
    }

    #[test]
    fn rejects_empty_multi_target_gates() {
        let mut c = circuit(2);
        assert_eq!(
            c.push(Gate::Cxx {
                control: q(0),
                targets: vec![]
            })
            .unwrap_err(),
            CircuitError::EmptyTargets
        );
        assert_eq!(
            c.push(Gate::Barrier(vec![])).unwrap_err(),
            CircuitError::EmptyTargets
        );
    }

    #[test]
    fn interaction_pairs_are_canonical_and_weighted() {
        let mut c = circuit(3);
        c.push(Gate::Cnot {
            control: q(2),
            target: q(0),
        })
        .unwrap();
        c.push(Gate::Cnot {
            control: q(0),
            target: q(2),
        })
        .unwrap();
        c.push(Gate::Cxx {
            control: q(1),
            targets: vec![q(0), q(2)],
        })
        .unwrap();
        let pairs = c.interaction_pairs();
        assert_eq!(pairs[&(q(0), q(2))], 2);
        assert_eq!(pairs[&(q(0), q(1))], 1);
        assert_eq!(pairs[&(q(1), q(2))], 1);
    }

    #[test]
    fn qubits_with_role_filters() {
        let mut roles = vec![QubitRole::Raw; 2];
        roles.push(QubitRole::Output);
        let c = Circuit::new("roles", roles);
        assert_eq!(c.qubits_with_role(QubitRole::Raw), vec![q(0), q(1)]);
        assert_eq!(c.qubits_with_role(QubitRole::Output), vec![q(2)]);
        assert!(c.qubits_with_role(QubitRole::Ancilla).is_empty());
    }

    #[test]
    fn braid_count_counts_cxx_fanout() {
        let mut c = circuit(4);
        c.push(Gate::H(q(0))).unwrap();
        c.push(Gate::Cxx {
            control: q(0),
            targets: vec![q(1), q(2), q(3)],
        })
        .unwrap();
        c.push(Gate::Cnot {
            control: q(1),
            target: q(2),
        })
        .unwrap();
        assert_eq!(c.braid_count(), 4);
    }
}
