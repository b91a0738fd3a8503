//! The gate set of Bravyi-Haah block-code distillation circuits.

use std::fmt;

use crate::QubitId;

/// Identifier of a gate within a [`Circuit`](crate::Circuit).
///
/// Gate identifiers are dense indices into the circuit's gate sequence; the
/// program order they imply is the order used for hazard analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(u32);

impl GateId {
    /// Creates a gate identifier from a raw index.
    pub const fn new(index: u32) -> Self {
        GateId(index)
    }

    /// Raw index of this gate in the circuit's gate sequence.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u32> for GateId {
    fn from(value: u32) -> Self {
        GateId(value)
    }
}

/// Coarse classification of a [`Gate`], independent of its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Z.
    Z,
    /// Phase gate S = Rz(π/2).
    S,
    /// Adjoint phase gate.
    Sdg,
    /// T = Rz(π/4) (requires a magic state under the surface code).
    T,
    /// Adjoint T gate.
    Tdg,
    /// Two-qubit controlled-NOT, implemented as a braid.
    Cnot,
    /// Single-control multi-target CNOT (the `CXX` gate of the paper).
    Cxx,
    /// Probabilistic T-state injection onto a target qubit.
    InjectT,
    /// Probabilistic T†-state injection onto a target qubit.
    InjectTdg,
    /// X-basis measurement.
    MeasX,
    /// Z-basis measurement.
    MeasZ,
    /// (Re-)initialisation of a qubit into |0⟩ or |+⟩.
    Init,
    /// Scheduling barrier over a qubit set.
    Barrier,
}

impl GateKind {
    /// Mnemonic used in the textual assembly format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::H => "H",
            GateKind::X => "X",
            GateKind::Z => "Z",
            GateKind::S => "S",
            GateKind::Sdg => "Sdg",
            GateKind::T => "T",
            GateKind::Tdg => "Tdg",
            GateKind::Cnot => "CNOT",
            GateKind::Cxx => "CXX",
            GateKind::InjectT => "injectT",
            GateKind::InjectTdg => "injectTdag",
            GateKind::MeasX => "MeasX",
            GateKind::MeasZ => "MeasZ",
            GateKind::Init => "Init",
            GateKind::Barrier => "Barrier",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single quantum operation on one or more logical qubits.
///
/// The gate set follows the Scaffold program of Fig. 5 in the paper: Clifford
/// single-qubit gates, `CNOT`, the single-control multi-target `CXX`,
/// probabilistic magic-state injection `injectT`/`injectTdag`, `MeasX`, and
/// the barrier construct used to separate block-code rounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Hadamard gate.
    H(QubitId),
    /// Pauli-X gate.
    X(QubitId),
    /// Pauli-Z gate.
    Z(QubitId),
    /// Phase gate.
    S(QubitId),
    /// Adjoint phase gate.
    Sdg(QubitId),
    /// T gate.
    T(QubitId),
    /// Adjoint T gate.
    Tdg(QubitId),
    /// Controlled-NOT braid between two logical qubits.
    Cnot {
        /// Control qubit.
        control: QubitId,
        /// Target qubit.
        target: QubitId,
    },
    /// Single-control multi-target CNOT (`CXX` in the paper).
    Cxx {
        /// Control qubit.
        control: QubitId,
        /// Target qubits (must be non-empty and disjoint from the control).
        targets: Vec<QubitId>,
    },
    /// Probabilistic injection of a raw T state into `target`.
    ///
    /// In expectation this costs two CNOT braids between `raw` and `target`
    /// (Section II-E of the paper).
    InjectT {
        /// Raw magic-state qubit consumed by the injection.
        raw: QubitId,
        /// Data/ancilla qubit receiving the rotation.
        target: QubitId,
    },
    /// Probabilistic injection of a raw T† state into `target`.
    InjectTdg {
        /// Raw magic-state qubit consumed by the injection.
        raw: QubitId,
        /// Data/ancilla qubit receiving the rotation.
        target: QubitId,
    },
    /// X-basis measurement of a qubit.
    MeasX(QubitId),
    /// Z-basis measurement of a qubit.
    MeasZ(QubitId),
    /// (Re-)initialisation of a qubit.
    Init(QubitId),
    /// Scheduling barrier over the given qubits.
    ///
    /// Implemented physically as a multi-target CNOT controlled by an ancilla
    /// prepared in |0⟩ (Section V-A); in the IR it acts purely as a
    /// synchronisation point for hazard analysis.
    Barrier(Vec<QubitId>),
}

impl Gate {
    /// The [`GateKind`] of this gate.
    pub fn kind(&self) -> GateKind {
        match self {
            Gate::H(_) => GateKind::H,
            Gate::X(_) => GateKind::X,
            Gate::Z(_) => GateKind::Z,
            Gate::S(_) => GateKind::S,
            Gate::Sdg(_) => GateKind::Sdg,
            Gate::T(_) => GateKind::T,
            Gate::Tdg(_) => GateKind::Tdg,
            Gate::Cnot { .. } => GateKind::Cnot,
            Gate::Cxx { .. } => GateKind::Cxx,
            Gate::InjectT { .. } => GateKind::InjectT,
            Gate::InjectTdg { .. } => GateKind::InjectTdg,
            Gate::MeasX(_) => GateKind::MeasX,
            Gate::MeasZ(_) => GateKind::MeasZ,
            Gate::Init(_) => GateKind::Init,
            Gate::Barrier(_) => GateKind::Barrier,
        }
    }

    /// All qubits touched by this gate, in a canonical order
    /// (control/raw first, then targets).
    pub fn qubits(&self) -> Vec<QubitId> {
        match self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::MeasX(q)
            | Gate::MeasZ(q)
            | Gate::Init(q) => vec![*q],
            Gate::Cnot { control, target } => vec![*control, *target],
            Gate::Cxx { control, targets } => {
                let mut qs = Vec::with_capacity(targets.len() + 1);
                qs.push(*control);
                qs.extend_from_slice(targets);
                qs
            }
            Gate::InjectT { raw, target } | Gate::InjectTdg { raw, target } => {
                vec![*raw, *target]
            }
            Gate::Barrier(qs) => qs.clone(),
        }
    }

    /// Number of qubits touched by the gate.
    pub fn arity(&self) -> usize {
        match self {
            Gate::Cnot { .. } | Gate::InjectT { .. } | Gate::InjectTdg { .. } => 2,
            Gate::Cxx { targets, .. } => targets.len() + 1,
            Gate::Barrier(qs) => qs.len(),
            _ => 1,
        }
    }

    /// Returns `true` if the gate requires a braid (a spatial pathway) between
    /// two or more logical qubit tiles on the surface-code mesh.
    ///
    /// Barriers are excluded: in the IR they synchronise the schedule but the
    /// physical multi-target CNOT realisation is accounted for separately.
    pub fn is_braid(&self) -> bool {
        matches!(
            self,
            Gate::Cnot { .. } | Gate::Cxx { .. } | Gate::InjectT { .. } | Gate::InjectTdg { .. }
        )
    }

    /// Returns `true` for interactions between exactly two distinct qubits.
    pub fn is_two_qubit(&self) -> bool {
        matches!(
            self,
            Gate::Cnot { .. } | Gate::InjectT { .. } | Gate::InjectTdg { .. }
        )
    }

    /// Returns `true` for scheduling barriers.
    pub fn is_barrier(&self) -> bool {
        matches!(self, Gate::Barrier(_))
    }

    /// Returns `true` for measurement gates.
    pub fn is_measurement(&self) -> bool {
        matches!(self, Gate::MeasX(_) | Gate::MeasZ(_))
    }

    /// The pairwise interaction edges induced by this gate on the circuit
    /// interaction graph (Section VI of the paper).
    ///
    /// Multi-target `CXX` gates contribute one edge per (control, target)
    /// pair. Single-qubit gates, measurements, initialisations and barriers
    /// contribute no edges.
    pub fn interaction_edges(&self) -> Vec<(QubitId, QubitId)> {
        match self {
            Gate::Cnot { control, target } => vec![(*control, *target)],
            Gate::InjectT { raw, target } | Gate::InjectTdg { raw, target } => {
                vec![(*raw, *target)]
            }
            Gate::Cxx { control, targets } => targets.iter().map(|t| (*control, *t)).collect(),
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qubits = self.qubits();
        write!(f, "{}", self.kind().mnemonic())?;
        write!(f, " ")?;
        for (i, q) in qubits.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn kind_matches_variant() {
        assert_eq!(Gate::H(q(0)).kind(), GateKind::H);
        assert_eq!(
            Gate::Cnot {
                control: q(0),
                target: q(1)
            }
            .kind(),
            GateKind::Cnot
        );
        assert_eq!(Gate::Barrier(vec![q(0)]).kind(), GateKind::Barrier);
    }

    #[test]
    fn qubits_order_control_first() {
        let g = Gate::Cnot {
            control: q(3),
            target: q(1),
        };
        assert_eq!(g.qubits(), vec![q(3), q(1)]);

        let g = Gate::Cxx {
            control: q(0),
            targets: vec![q(2), q(4)],
        };
        assert_eq!(g.qubits(), vec![q(0), q(2), q(4)]);
        assert_eq!(g.arity(), 3);
    }

    #[test]
    fn braid_classification() {
        assert!(Gate::Cnot {
            control: q(0),
            target: q(1)
        }
        .is_braid());
        assert!(Gate::InjectT {
            raw: q(0),
            target: q(1)
        }
        .is_braid());
        assert!(!Gate::H(q(0)).is_braid());
        assert!(!Gate::Barrier(vec![q(0), q(1)]).is_braid());
        assert!(!Gate::MeasX(q(0)).is_braid());
    }

    #[test]
    fn two_qubit_classification() {
        assert!(Gate::InjectTdg {
            raw: q(0),
            target: q(1)
        }
        .is_two_qubit());
        assert!(!Gate::Cxx {
            control: q(0),
            targets: vec![q(1), q(2)]
        }
        .is_two_qubit());
    }

    #[test]
    fn interaction_edges_of_cxx_fan_out() {
        let g = Gate::Cxx {
            control: q(0),
            targets: vec![q(1), q(2), q(3)],
        };
        assert_eq!(
            g.interaction_edges(),
            vec![(q(0), q(1)), (q(0), q(2)), (q(0), q(3))]
        );
    }

    #[test]
    fn interaction_edges_of_single_qubit_gates_empty() {
        assert!(Gate::H(q(0)).interaction_edges().is_empty());
        assert!(Gate::MeasX(q(0)).interaction_edges().is_empty());
        assert!(Gate::Barrier(vec![q(0), q(1)])
            .interaction_edges()
            .is_empty());
    }

    #[test]
    fn display_is_readable() {
        let g = Gate::Cnot {
            control: q(0),
            target: q(5),
        };
        assert_eq!(g.to_string(), "CNOT q0, q5");
        assert_eq!(Gate::MeasX(q(2)).to_string(), "MeasX q2");
    }

    #[test]
    fn gate_id_display_and_index() {
        let g = GateId::new(7);
        assert_eq!(g.index(), 7);
        assert_eq!(g.to_string(), "g7");
        assert_eq!(GateId::from(7u32), g);
    }

    #[test]
    fn measurement_classification() {
        assert!(Gate::MeasX(q(0)).is_measurement());
        assert!(Gate::MeasZ(q(0)).is_measurement());
        assert!(!Gate::Init(q(0)).is_measurement());
    }
}
