//! Structural metadata describing modules, rounds and inter-round permutation
//! edges of a block-code factory.

use std::ops::Range;

use msfu_circuit::QubitId;

/// One Bravyi-Haah `(3k+8) → k` module instance within a factory.
///
/// A module owns three qubit groups: its raw inputs (fresh raw states in round
/// zero, upstream output states afterwards), its `k+5` ancillas, and its `k`
/// output states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleInfo {
    /// Index of this module within the whole factory.
    pub id: usize,
    /// Round (0-based level) this module belongs to.
    pub round: usize,
    /// Index of this module within its round.
    pub index_in_round: usize,
    /// The `3k+8` input magic-state qubits, in slot order.
    pub raw_inputs: Vec<QubitId>,
    /// The `k+5` ancillary qubits.
    pub ancillas: Vec<QubitId>,
    /// The `k` output magic-state qubits.
    pub outputs: Vec<QubitId>,
    /// Range of gate indices (into the factory circuit) emitted by this module.
    pub gate_range: Range<usize>,
}

impl ModuleInfo {
    /// All qubits *local* to this module: ancillas and outputs. Raw inputs of
    /// round-zero modules are also local; raw inputs of later rounds belong to
    /// upstream modules and are excluded.
    pub fn local_qubits(&self) -> Vec<QubitId> {
        let mut qs = Vec::with_capacity(
            self.ancillas.len()
                + self.outputs.len()
                + if self.round == 0 {
                    self.raw_inputs.len()
                } else {
                    0
                },
        );
        if self.round == 0 {
            qs.extend_from_slice(&self.raw_inputs);
        }
        qs.extend_from_slice(&self.ancillas);
        qs.extend_from_slice(&self.outputs);
        qs
    }

    /// Every qubit referenced by the module, including upstream raw inputs.
    pub fn all_qubits(&self) -> Vec<QubitId> {
        let mut qs =
            Vec::with_capacity(self.raw_inputs.len() + self.ancillas.len() + self.outputs.len());
        qs.extend_from_slice(&self.raw_inputs);
        qs.extend_from_slice(&self.ancillas);
        qs.extend_from_slice(&self.outputs);
        qs
    }

    /// Per-module capacity `k` (number of outputs).
    pub fn capacity(&self) -> usize {
        self.outputs.len()
    }
}

/// One round (block-code level) of a factory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundInfo {
    /// Round index (0-based; round 0 consumes raw injected states).
    pub index: usize,
    /// Identifiers of the modules belonging to this round, in order.
    pub modules: Vec<usize>,
    /// Range of gate indices (into the factory circuit) belonging to this
    /// round, including its trailing barrier if present.
    pub gate_range: Range<usize>,
    /// Gate index of the barrier terminating this round, if barriers were
    /// requested and this is not the final round.
    pub barrier_gate: Option<usize>,
}

impl RoundInfo {
    /// Number of modules in the round.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }
}

/// One edge of the inter-round permutation: an output state of a source module
/// that is consumed as raw-input slot `dest_slot` of a destination module in
/// the following round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermutationEdge {
    /// Round of the source module (the destination is in `source_round + 1`).
    pub source_round: usize,
    /// Factory-wide identifier of the source module.
    pub source_module: usize,
    /// Output qubit of the source module carrying the state.
    pub source_qubit: QubitId,
    /// Factory-wide identifier of the destination module.
    pub dest_module: usize,
    /// Raw-input slot index within the destination module.
    pub dest_slot: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn local_qubits_include_raw_only_in_round_zero() {
        let base = ModuleInfo {
            id: 0,
            round: 0,
            index_in_round: 0,
            raw_inputs: vec![q(0), q(1)],
            ancillas: vec![q(2)],
            outputs: vec![q(3)],
            gate_range: 0..4,
        };
        assert_eq!(base.local_qubits(), vec![q(0), q(1), q(2), q(3)]);
        assert_eq!(base.all_qubits().len(), 4);
        assert_eq!(base.capacity(), 1);

        let later = ModuleInfo { round: 1, ..base };
        assert_eq!(later.local_qubits(), vec![q(2), q(3)]);
        assert_eq!(later.all_qubits().len(), 4);
    }

    #[test]
    fn round_info_module_count() {
        let r = RoundInfo {
            index: 0,
            modules: vec![0, 1, 2],
            gate_range: 0..10,
            barrier_gate: Some(9),
        };
        assert_eq!(r.num_modules(), 3);
    }
}
