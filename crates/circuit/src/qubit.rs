//! Logical qubit identifiers, roles and registers.

use std::fmt;

/// Identifier of a logical qubit within a [`Circuit`](crate::Circuit).
///
/// Qubit identifiers are dense indices starting at zero; they double as
/// indices into per-qubit side tables (roles, mappings, …).
///
/// # Example
///
/// ```
/// use msfu_circuit::QubitId;
/// let q = QubitId::new(3);
/// assert_eq!(q.index(), 3);
/// assert_eq!(format!("{q}"), "q3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QubitId(u32);

impl QubitId {
    /// Creates a qubit identifier from a raw index.
    pub const fn new(index: u32) -> Self {
        QubitId(index)
    }

    /// Returns the raw index of this qubit.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for QubitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for QubitId {
    fn from(value: u32) -> Self {
        QubitId(value)
    }
}

impl From<QubitId> for u32 {
    fn from(value: QubitId) -> Self {
        value.0
    }
}

/// Functional role of a logical qubit inside a distillation factory circuit.
///
/// Roles do not change gate semantics; they carry provenance information used
/// by the mapping and reuse machinery (e.g. the hierarchical-stitching mapper
/// needs to know which qubits are round outputs and which are ancillas that
/// can be reinitialised).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum QubitRole {
    /// Raw, low-fidelity injected magic state consumed by a distillation round.
    Raw,
    /// Ancillary qubit measured and reinitialised at round boundaries.
    Ancilla,
    /// Distilled output magic state produced by a module.
    Output,
    /// Generic data qubit (used by non-factory circuits).
    #[default]
    Data,
    /// Dedicated barrier-control ancilla (initialised to |0⟩ and used as the
    /// control of a multi-target CNOT implementing a scheduling barrier).
    BarrierControl,
}

impl QubitRole {
    /// Returns `true` for roles that are reinitialised between factory rounds
    /// and are therefore candidates for qubit reuse (Section V-B of the paper).
    pub fn is_reusable(self) -> bool {
        matches!(
            self,
            QubitRole::Raw | QubitRole::Ancilla | QubitRole::BarrierControl
        )
    }

    /// Short lowercase name used by the textual assembly emitter.
    pub fn name(self) -> &'static str {
        match self {
            QubitRole::Raw => "raw",
            QubitRole::Ancilla => "anc",
            QubitRole::Output => "out",
            QubitRole::Data => "data",
            QubitRole::BarrierControl => "barrier",
        }
    }
}

impl fmt::Display for QubitRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, contiguous group of qubits sharing a role.
///
/// Registers mirror the `qbit name[n]` declarations of the Scaffold programs
/// in the paper (Fig. 5): `raw_states[3K+8]`, `anc[K+5]`, `out[K]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubitRegister {
    name: String,
    role: QubitRole,
    qubits: Vec<QubitId>,
}

impl QubitRegister {
    /// Creates a register over the given qubits.
    pub fn new(name: impl Into<String>, role: QubitRole, qubits: Vec<QubitId>) -> Self {
        QubitRegister {
            name: name.into(),
            role,
            qubits,
        }
    }

    /// Register name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Role shared by all qubits in this register.
    pub fn role(&self) -> QubitRole {
        self.role
    }

    /// Number of qubits in the register.
    pub fn len(&self) -> usize {
        self.qubits.len()
    }

    /// Returns `true` when the register contains no qubits.
    pub fn is_empty(&self) -> bool {
        self.qubits.is_empty()
    }

    /// The qubits of the register in declaration order.
    pub fn qubits(&self) -> &[QubitId] {
        &self.qubits
    }

    /// Returns an iterator over the qubits of the register.
    pub fn iter(&self) -> std::slice::Iter<'_, QubitId> {
        self.qubits.iter()
    }
}

impl std::ops::Index<usize> for QubitRegister {
    type Output = QubitId;

    fn index(&self, index: usize) -> &Self::Output {
        &self.qubits[index]
    }
}

impl<'a> IntoIterator for &'a QubitRegister {
    type Item = &'a QubitId;
    type IntoIter = std::slice::Iter<'a, QubitId>;

    fn into_iter(self) -> Self::IntoIter {
        self.qubits.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_id_roundtrip() {
        let q = QubitId::new(42);
        assert_eq!(q.index(), 42);
        assert_eq!(q.raw(), 42);
        assert_eq!(u32::from(q), 42);
        assert_eq!(QubitId::from(42u32), q);
    }

    #[test]
    fn qubit_id_display() {
        assert_eq!(QubitId::new(0).to_string(), "q0");
        assert_eq!(QubitId::new(17).to_string(), "q17");
    }

    #[test]
    fn qubit_id_ordering_follows_index() {
        assert!(QubitId::new(1) < QubitId::new(2));
        assert!(QubitId::new(5) > QubitId::new(0));
    }

    #[test]
    fn role_reusability() {
        assert!(QubitRole::Raw.is_reusable());
        assert!(QubitRole::Ancilla.is_reusable());
        assert!(QubitRole::BarrierControl.is_reusable());
        assert!(!QubitRole::Output.is_reusable());
        assert!(!QubitRole::Data.is_reusable());
    }

    #[test]
    fn role_names_are_distinct() {
        let roles = [
            QubitRole::Raw,
            QubitRole::Ancilla,
            QubitRole::Output,
            QubitRole::Data,
            QubitRole::BarrierControl,
        ];
        let mut names: Vec<_> = roles.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), roles.len());
    }

    #[test]
    fn register_basic_access() {
        let qs: Vec<QubitId> = (0..4).map(QubitId::new).collect();
        let reg = QubitRegister::new("anc", QubitRole::Ancilla, qs.clone());
        assert_eq!(reg.name(), "anc");
        assert_eq!(reg.role(), QubitRole::Ancilla);
        assert_eq!(reg.len(), 4);
        assert!(!reg.is_empty());
        assert_eq!(reg[2], QubitId::new(2));
        assert_eq!(reg.qubits(), qs.as_slice());
        let collected: Vec<_> = reg.iter().copied().collect();
        assert_eq!(collected, qs);
    }

    #[test]
    fn empty_register() {
        let reg = QubitRegister::new("empty", QubitRole::Data, Vec::new());
        assert!(reg.is_empty());
        assert_eq!(reg.len(), 0);
    }
}
