//! Output-port assignments: the mapper-chosen rebinding of module output
//! ports as an explicit, applicable artifact.
//!
//! The outputs of a Bravyi-Haah module are interchangeable as far as the next
//! round is concerned (Section VII-B2 of the paper), so a mapper may re-bind
//! which output port feeds which downstream module to shorten the inter-round
//! permutation. Historically the hierarchical-stitching mapper rewired the
//! factory circuit *in place*, which forced `&mut Factory` through the whole
//! mapping API and made a built factory impossible to share across threads.
//!
//! A [`PortAssignment`] decouples the decision from the mutation: mappers
//! record the swaps they want, layouts carry the artifact, and the evaluation
//! layer applies it to a private copy via
//! [`Factory::apply_port_assignment`](crate::Factory::apply_port_assignment) —
//! the shared factory stays immutable.

use msfu_circuit::QubitId;

/// An ordered sequence of output-port swaps to apply to a factory.
///
/// Order matters: each entry names two output qubits of one module whose
/// downstream bindings are exchanged, and later swaps see the effect of
/// earlier ones (exactly as the historical in-place rewiring did).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortAssignment {
    swaps: Vec<(QubitId, QubitId)>,
}

impl PortAssignment {
    /// Creates an empty assignment (no rewiring).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a swap of two output ports of the same module.
    pub fn push_swap(&mut self, a: QubitId, b: QubitId) {
        self.swaps.push((a, b));
    }

    /// The swaps in application order.
    pub fn swaps(&self) -> &[(QubitId, QubitId)] {
        &self.swaps
    }

    /// Number of swaps.
    pub fn len(&self) -> usize {
        self.swaps.len()
    }

    /// Returns `true` when the assignment rewires nothing.
    pub fn is_empty(&self) -> bool {
        self.swaps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_swaps_in_order() {
        let mut pa = PortAssignment::new();
        assert!(pa.is_empty());
        pa.push_swap(QubitId::new(1), QubitId::new(2));
        pa.push_swap(QubitId::new(3), QubitId::new(4));
        assert_eq!(pa.len(), 2);
        assert_eq!(pa.swaps()[0], (QubitId::new(1), QubitId::new(2)));
        assert_eq!(pa.swaps()[1], (QubitId::new(3), QubitId::new(4)));
    }
}
