//! Multi-level block-code factory construction.

use msfu_circuit::{Circuit, Gate, QubitId, QubitRole};

use crate::bravyi_haah::{emit_module_gates, module_gate_count};
use crate::{
    DistillError, FactoryConfig, ModuleInfo, PermutationEdge, PortAssignment, Result, ReusePolicy,
    RoundInfo,
};

/// Hard limit on the number of logical qubits a factory may allocate; guards
/// against accidentally requesting an astronomically large configuration.
const MAX_LOGICAL_QUBITS: usize = 500_000;

/// A fully elaborated multi-level Bravyi-Haah block-code factory: the flat
/// gate-level circuit plus the structural metadata (modules, rounds,
/// inter-round permutation) that the mapping and scheduling machinery relies
/// on.
///
/// # Example
///
/// ```
/// use msfu_distill::{Factory, FactoryConfig};
///
/// let factory = Factory::build(&FactoryConfig::two_level(2))?;
/// assert_eq!(factory.capacity(), 4);
/// assert_eq!(factory.rounds()[0].num_modules(), 14);
/// assert_eq!(factory.rounds()[1].num_modules(), 2);
/// // Every output of round 0 is consumed by exactly one round-1 module.
/// assert_eq!(factory.permutation_edges().len(), 14 * 2);
/// # Ok::<(), msfu_distill::DistillError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Factory {
    config: FactoryConfig,
    circuit: Circuit,
    modules: Vec<ModuleInfo>,
    rounds: Vec<RoundInfo>,
    permutation_edges: Vec<PermutationEdge>,
}

/// Simple qubit allocator with an optional free list for the reuse policy.
struct Allocator {
    roles: Vec<QubitRole>,
    free: Vec<QubitId>,
    reuse: bool,
}

impl Allocator {
    fn new(reuse: bool) -> Self {
        Allocator {
            roles: Vec::new(),
            free: Vec::new(),
            reuse,
        }
    }

    fn alloc(&mut self, role: QubitRole, n: usize) -> Vec<QubitId> {
        let mut out = Vec::with_capacity(n);
        if self.reuse {
            while out.len() < n {
                match self.free.pop() {
                    Some(q) => {
                        self.roles[q.index()] = role;
                        out.push(q);
                    }
                    None => break,
                }
            }
        }
        while out.len() < n {
            let q = QubitId::new(self.roles.len() as u32);
            self.roles.push(role);
            out.push(q);
        }
        out
    }

    fn release(&mut self, qubits: &[QubitId]) {
        if self.reuse {
            self.free.extend_from_slice(qubits);
        }
    }

    fn num_qubits(&self) -> usize {
        self.roles.len()
    }
}

impl Factory {
    /// Builds a factory from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is degenerate
    /// ([`DistillError::ZeroCapacity`], [`DistillError::ZeroLevels`]), would
    /// exceed the logical-qubit safety limit ([`DistillError::TooLarge`]), or
    /// if circuit construction fails (a generator bug).
    pub fn build(config: &FactoryConfig) -> Result<Self> {
        config.validate()?;
        // The sizes saturate instead of wrapping, so an overflow also lands
        // above the limit.
        let worst_case_qubits = config
            .total_modules()
            .saturating_mul(config.qubits_per_module());
        if worst_case_qubits > MAX_LOGICAL_QUBITS {
            return Err(DistillError::TooLarge {
                limit: MAX_LOGICAL_QUBITS,
            });
        }

        let k = config.k;
        let inputs = config.inputs_per_module();
        let mut alloc = Allocator::new(config.reuse == ReusePolicy::Reuse);
        let mut gates: Vec<Gate> = Vec::new();
        let mut modules: Vec<ModuleInfo> = Vec::new();
        let mut rounds: Vec<RoundInfo> = Vec::new();
        let mut permutation_edges: Vec<PermutationEdge> = Vec::new();

        // Outputs of the previous round, per module (in index_in_round order).
        let mut prev_round_outputs: Vec<Vec<QubitId>> = Vec::new();
        let mut prev_round_module_ids: Vec<usize> = Vec::new();

        for round in 0..config.levels {
            let num_modules = config.modules_in_round(round);
            let round_gate_start = gates.len();
            let mut round_module_ids = Vec::with_capacity(num_modules);
            let mut this_round_outputs: Vec<Vec<QubitId>> = Vec::with_capacity(num_modules);
            // Qubits that become reusable once this round completes: its raw
            // inputs (consumed by injection) and its ancillas (measured).
            let mut released_after_round: Vec<QubitId> = Vec::new();

            for j in 0..num_modules {
                let module_id = modules.len();
                // Determine the raw inputs for this module.
                let raw_inputs: Vec<QubitId> = if round == 0 {
                    alloc.alloc(QubitRole::Raw, inputs)
                } else {
                    // Destination module j belongs to group g = j / k at
                    // position p = j % k. Slot i comes from the i-th source
                    // module of group g, output port p.
                    let g = j / k;
                    let p = j % k;
                    let mut slots = Vec::with_capacity(inputs);
                    for i in 0..inputs {
                        let source_index = g * inputs + i;
                        let source_qubit = prev_round_outputs[source_index][p];
                        let source_module = prev_round_module_ids[source_index];
                        permutation_edges.push(PermutationEdge {
                            source_round: round - 1,
                            source_module,
                            source_qubit,
                            dest_module: module_id,
                            dest_slot: i,
                        });
                        slots.push(source_qubit);
                    }
                    slots
                };
                let ancillas = alloc.alloc(QubitRole::Ancilla, config.ancillas_per_module());
                let outputs = alloc.alloc(QubitRole::Output, k);

                let gate_start = gates.len();
                emit_module_gates(&raw_inputs, &ancillas, &outputs, &mut gates);
                let gate_end = gates.len();
                debug_assert_eq!(gate_end - gate_start, module_gate_count(k));

                released_after_round.extend_from_slice(&raw_inputs);
                released_after_round.extend_from_slice(&ancillas);

                this_round_outputs.push(outputs.clone());
                round_module_ids.push(module_id);
                modules.push(ModuleInfo {
                    id: module_id,
                    round,
                    index_in_round: j,
                    raw_inputs,
                    ancillas,
                    outputs,
                    gate_range: gate_start..gate_end,
                });
            }

            // Insert a barrier over every qubit allocated so far, separating
            // this round from the next (Section V-A). No barrier after the
            // final round.
            let mut barrier_gate = None;
            if config.barriers && round + 1 < config.levels {
                let all: Vec<QubitId> = (0..alloc.num_qubits() as u32).map(QubitId::new).collect();
                barrier_gate = Some(gates.len());
                gates.push(Gate::Barrier(all));
            }

            rounds.push(RoundInfo {
                index: round,
                modules: round_module_ids,
                gate_range: round_gate_start..gates.len(),
                barrier_gate,
            });

            // Make this round's consumed qubits available for reuse by the
            // next round.
            alloc.release(&released_after_round);
            prev_round_outputs = this_round_outputs;
            prev_round_module_ids = rounds[round].modules.clone();
        }

        let mut circuit = Circuit::new(
            format!(
                "block-code-k{}-l{}-{}",
                k,
                config.levels,
                config.reuse.short_name()
            ),
            alloc.roles,
        );
        for g in gates {
            circuit.push(g)?;
        }

        Ok(Factory {
            config: *config,
            circuit,
            modules,
            rounds,
            permutation_edges,
        })
    }

    /// The configuration this factory was built from.
    pub fn config(&self) -> &FactoryConfig {
        &self.config
    }

    /// The flat gate-level circuit of the whole factory.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// All modules of the factory, ordered by round then by index within the
    /// round.
    pub fn modules(&self) -> &[ModuleInfo] {
        &self.modules
    }

    /// All rounds of the factory in execution order.
    pub fn rounds(&self) -> &[RoundInfo] {
        &self.rounds
    }

    /// The inter-round permutation edges (empty for single-level factories).
    pub fn permutation_edges(&self) -> &[PermutationEdge] {
        &self.permutation_edges
    }

    /// Total output capacity `k^levels`.
    pub fn capacity(&self) -> usize {
        self.config.capacity()
    }

    /// Number of logical qubits allocated by the factory. This is the circuit
    /// area in logical qubits before any mapping slack is added.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits() as usize
    }

    /// The output qubits of the final round, i.e. the distilled magic states
    /// delivered by the factory.
    pub fn final_outputs(&self) -> Vec<QubitId> {
        let last = self.rounds.last().expect("factory has at least one round");
        last.modules
            .iter()
            .flat_map(|m| self.modules[*m].outputs.iter().copied())
            .collect()
    }

    /// Returns the modules belonging to a round.
    pub fn round_modules(&self, round: usize) -> Vec<&ModuleInfo> {
        self.rounds[round]
            .modules
            .iter()
            .map(|m| &self.modules[*m])
            .collect()
    }

    /// Builds a circuit containing only the gates of the given round, over the
    /// same qubit space as the full factory circuit. Used by the
    /// hierarchical-stitching mapper to optimise rounds in isolation.
    pub fn round_circuit(&self, round: usize) -> Circuit {
        let info = &self.rounds[round];
        let mut c = Circuit::new(
            format!("{}-round{}", self.circuit.name(), round),
            self.circuit.roles().to_vec(),
        );
        for idx in info.gate_range.clone() {
            let gate = self.circuit.gates()[idx].clone();
            c.push(gate)
                .expect("round gates are valid in the factory qubit space");
        }
        c
    }

    /// Builds the circuit fragment that realises the permutation step between
    /// `round` and `round + 1`: all gates of round `round + 1` that touch an
    /// output qubit of round `round` (the injection gates that consume the
    /// permuted states). Used for the Fig. 9c/9d permutation-latency study.
    pub fn permutation_circuit(&self, round: usize) -> Circuit {
        let mut is_output_of_round = vec![false; self.circuit.num_qubits() as usize];
        for m in self.round_modules(round) {
            for q in &m.outputs {
                is_output_of_round[q.index()] = true;
            }
        }
        let next = &self.rounds[round + 1];
        let mut c = Circuit::new(
            format!("{}-perm{}", self.circuit.name(), round),
            self.circuit.roles().to_vec(),
        );
        for idx in next.gate_range.clone() {
            let gate = &self.circuit.gates()[idx];
            if gate.is_barrier() {
                continue;
            }
            if gate.qubits().iter().any(|q| is_output_of_round[q.index()]) {
                c.push(gate.clone())
                    .expect("permutation gates are valid in the factory qubit space");
            }
        }
        c
    }

    /// Swaps two output ports of the same module: every reference to the two
    /// qubits in *later-round* gates (and in the permutation metadata) is
    /// exchanged. This implements the "port reassignment" degree of freedom of
    /// Section VII-B2: outputs of a module are interchangeable as far as the
    /// next round is concerned, so the mapper may pick whichever port
    /// minimises permutation congestion.
    ///
    /// # Errors
    ///
    /// Returns [`DistillError::InvalidPortSwap`] if the two qubits are not
    /// distinct output qubits of the same module.
    pub fn swap_output_ports(&mut self, a: QubitId, b: QubitId) -> Result<()> {
        if a == b {
            return Err(DistillError::InvalidPortSwap);
        }
        let module = self
            .modules
            .iter()
            .find(|m| m.outputs.contains(&a) && m.outputs.contains(&b))
            .ok_or(DistillError::InvalidPortSwap)?;
        let source_round = module.round;
        if source_round + 1 >= self.rounds.len() {
            // Final-round outputs have no downstream consumers; the swap is a
            // no-op but not an error.
            return Ok(());
        }
        let later_start = self.rounds[source_round + 1].gate_range.start;

        let relabel = |q: QubitId| -> QubitId {
            if q == a {
                b
            } else if q == b {
                a
            } else {
                q
            }
        };

        // Rebuild the circuit with the relabelled later-round gates.
        let mut new_circuit = Circuit::new(
            self.circuit.name().to_string(),
            self.circuit.roles().to_vec(),
        );
        for (idx, gate) in self.circuit.gates().iter().enumerate() {
            let gate = if idx >= later_start {
                remap_gate(gate, &relabel)
            } else {
                gate.clone()
            };
            new_circuit.push(gate)?;
        }
        self.circuit = new_circuit;

        // Update permutation metadata and downstream module raw-input slots.
        for edge in &mut self.permutation_edges {
            if edge.source_round == source_round {
                edge.source_qubit = relabel(edge.source_qubit);
            }
        }
        for m in &mut self.modules {
            if m.round == source_round + 1 {
                for q in &mut m.raw_inputs {
                    *q = relabel(*q);
                }
            }
        }
        Ok(())
    }

    /// Applies a mapper-produced [`PortAssignment`] to a *copy* of this
    /// factory, returning the rewired factory and leaving `self` untouched.
    /// This is how the evaluation layer realises the port-reassignment
    /// decisions of the hierarchical-stitching mapper while the built factory
    /// stays immutable and shareable across threads.
    ///
    /// # Errors
    ///
    /// Returns [`DistillError::InvalidPortSwap`] if any entry does not name
    /// two distinct output qubits of one module (after earlier swaps applied).
    pub fn apply_port_assignment(&self, assignment: &PortAssignment) -> Result<Factory> {
        let mut rewired = self.clone();
        rewired.apply_port_assignment_in_place(assignment)?;
        Ok(rewired)
    }

    /// Applies a [`PortAssignment`] to this factory in place, swap by swap in
    /// recorded order (identical semantics to the historical mutating
    /// rewiring).
    ///
    /// # Errors
    ///
    /// Returns [`DistillError::InvalidPortSwap`] under the same conditions as
    /// [`Factory::swap_output_ports`].
    pub fn apply_port_assignment_in_place(&mut self, assignment: &PortAssignment) -> Result<()> {
        for &(a, b) in assignment.swaps() {
            self.swap_output_ports(a, b)?;
        }
        Ok(())
    }
}

/// Applies a qubit relabelling to a single gate.
fn remap_gate(gate: &Gate, relabel: &impl Fn(QubitId) -> QubitId) -> Gate {
    match gate {
        Gate::H(q) => Gate::H(relabel(*q)),
        Gate::X(q) => Gate::X(relabel(*q)),
        Gate::Z(q) => Gate::Z(relabel(*q)),
        Gate::S(q) => Gate::S(relabel(*q)),
        Gate::Sdg(q) => Gate::Sdg(relabel(*q)),
        Gate::T(q) => Gate::T(relabel(*q)),
        Gate::Tdg(q) => Gate::Tdg(relabel(*q)),
        Gate::Cnot { control, target } => Gate::Cnot {
            control: relabel(*control),
            target: relabel(*target),
        },
        Gate::Cxx { control, targets } => Gate::Cxx {
            control: relabel(*control),
            targets: targets.iter().map(|t| relabel(*t)).collect(),
        },
        Gate::InjectT { raw, target } => Gate::InjectT {
            raw: relabel(*raw),
            target: relabel(*target),
        },
        Gate::InjectTdg { raw, target } => Gate::InjectTdg {
            raw: relabel(*raw),
            target: relabel(*target),
        },
        Gate::MeasX(q) => Gate::MeasX(relabel(*q)),
        Gate::MeasZ(q) => Gate::MeasZ(relabel(*q)),
        Gate::Init(q) => Gate::Init(relabel(*q)),
        Gate::Barrier(qs) => Gate::Barrier(qs.iter().map(|q| relabel(*q)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn single_level_factory_matches_single_module() {
        let f = Factory::build(&FactoryConfig::single_level(8)).unwrap();
        assert_eq!(f.capacity(), 8);
        assert_eq!(f.modules().len(), 1);
        assert_eq!(f.rounds().len(), 1);
        assert_eq!(f.num_qubits(), 53);
        assert!(f.permutation_edges().is_empty());
        assert_eq!(f.final_outputs().len(), 8);
    }

    #[test]
    fn two_level_structure_counts() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        assert_eq!(f.rounds()[0].num_modules(), 14);
        assert_eq!(f.rounds()[1].num_modules(), 2);
        assert_eq!(f.modules().len(), 16);
        assert_eq!(f.capacity(), 4);
        assert_eq!(f.final_outputs().len(), 4);
        // 2 destination modules x 14 slots each
        assert_eq!(f.permutation_edges().len(), 28);
    }

    #[test]
    fn permutation_respects_distinct_source_constraint() {
        // Each destination module must receive at most one state from any
        // source module (Section II-G).
        let f = Factory::build(&FactoryConfig::two_level(4)).unwrap();
        let mut per_dest: HashMap<usize, HashSet<usize>> = HashMap::new();
        for e in f.permutation_edges() {
            let sources = per_dest.entry(e.dest_module).or_default();
            assert!(
                sources.insert(e.source_module),
                "destination {} received two states from source {}",
                e.dest_module,
                e.source_module
            );
        }
        // Every destination module receives exactly 3k+8 states.
        for sources in per_dest.values() {
            assert_eq!(sources.len(), f.config().inputs_per_module());
        }
    }

    #[test]
    fn every_round_output_is_consumed_exactly_once() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let mut consumed: HashMap<QubitId, usize> = HashMap::new();
        for e in f.permutation_edges() {
            *consumed.entry(e.source_qubit).or_insert(0) += 1;
        }
        for m in f.round_modules(0) {
            for q in &m.outputs {
                assert_eq!(
                    consumed.get(q),
                    Some(&1),
                    "output {q} must be consumed once"
                );
            }
        }
    }

    #[test]
    fn reuse_reduces_qubit_count() {
        let reuse =
            Factory::build(&FactoryConfig::two_level(2).with_reuse(ReusePolicy::Reuse)).unwrap();
        let no_reuse =
            Factory::build(&FactoryConfig::two_level(2).with_reuse(ReusePolicy::NoReuse)).unwrap();
        assert!(reuse.num_qubits() < no_reuse.num_qubits());
        // No-reuse allocates the full worst case.
        let cfg = FactoryConfig::two_level(2);
        let expected_no_reuse = cfg.modules_in_round(0) * cfg.qubits_per_module()
            + cfg.modules_in_round(1) * (cfg.ancillas_per_module() + cfg.k);
        assert_eq!(no_reuse.num_qubits(), expected_no_reuse);
    }

    #[test]
    fn reuse_never_reuses_live_outputs() {
        // Outputs of round 0 feed round 1, so they must not be handed out as
        // fresh ancillas for round 1.
        let f =
            Factory::build(&FactoryConfig::two_level(2).with_reuse(ReusePolicy::Reuse)).unwrap();
        let round0_outputs: HashSet<QubitId> = f
            .round_modules(0)
            .iter()
            .flat_map(|m| m.outputs.iter().copied())
            .collect();
        for m in f.round_modules(1) {
            for q in m.ancillas.iter().chain(m.outputs.iter()) {
                assert!(
                    !round0_outputs.contains(q),
                    "live output {q} was reused as a local qubit of round 1"
                );
            }
        }
    }

    #[test]
    fn barriers_present_between_rounds_only_when_requested() {
        let with = Factory::build(&FactoryConfig::two_level(2).with_barriers(true)).unwrap();
        assert!(with.rounds()[0].barrier_gate.is_some());
        assert!(with.rounds()[1].barrier_gate.is_none());

        let without = Factory::build(&FactoryConfig::two_level(2).with_barriers(false)).unwrap();
        assert!(without.rounds()[0].barrier_gate.is_none());
        assert!(!without.circuit().gates().iter().any(|g| g.is_barrier()));
    }

    #[test]
    fn round_circuit_extracts_exactly_the_round_gates() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let r0 = f.round_circuit(0);
        let r1 = f.round_circuit(1);
        assert_eq!(r0.num_gates() + r1.num_gates(), f.circuit().num_gates());
        assert_eq!(r0.num_qubits(), f.circuit().num_qubits());
    }

    #[test]
    fn permutation_circuit_only_touches_round_outputs() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let perm = f.permutation_circuit(0);
        assert!(!perm.is_empty());
        let round0_outputs: HashSet<QubitId> = f
            .round_modules(0)
            .iter()
            .flat_map(|m| m.outputs.iter().copied())
            .collect();
        for g in perm.gates() {
            assert!(g.qubits().iter().any(|q| round0_outputs.contains(q)));
        }
    }

    #[test]
    fn gate_ranges_partition_the_circuit() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let mut covered = vec![0usize; f.circuit().num_gates()];
        for m in f.modules() {
            for i in m.gate_range.clone() {
                covered[i] += 1;
            }
        }
        for r in f.rounds() {
            if let Some(b) = r.barrier_gate {
                covered[b] += 1;
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "module/barrier gate ranges must partition the circuit"
        );
    }

    #[test]
    fn swap_output_ports_rewires_downstream_consumers() {
        let mut f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let m0 = f.modules()[0].clone();
        let (a, b) = (m0.outputs[0], m0.outputs[1]);

        // Record the downstream consumers (dest modules) before the swap.
        let dest_of = |f: &Factory, q: QubitId| -> usize {
            f.permutation_edges()
                .iter()
                .find(|e| e.source_qubit == q)
                .map(|e| e.dest_module)
                .unwrap()
        };
        let dest_a_before = dest_of(&f, a);
        let dest_b_before = dest_of(&f, b);
        assert_ne!(dest_a_before, dest_b_before);

        f.swap_output_ports(a, b).unwrap();

        // After the swap the destinations are exchanged.
        assert_eq!(dest_of(&f, a), dest_b_before);
        assert_eq!(dest_of(&f, b), dest_a_before);

        // Round-0 gates are untouched: a and b still carry their original
        // in-module gates.
        let r0 = f.round_circuit(0);
        assert!(r0.gates().iter().any(|g| g.qubits().contains(&a)));
    }

    #[test]
    fn swap_output_ports_rejects_unrelated_qubits() {
        let mut f = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let a = f.modules()[0].outputs[0];
        let b = f.modules()[1].outputs[0];
        assert_eq!(
            f.swap_output_ports(a, b).unwrap_err(),
            DistillError::InvalidPortSwap
        );
        assert_eq!(
            f.swap_output_ports(a, a).unwrap_err(),
            DistillError::InvalidPortSwap
        );
    }

    #[test]
    fn apply_port_assignment_matches_sequential_swaps() {
        let base = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let m0 = base.modules()[0].clone();
        let m1 = base.modules()[1].clone();
        let mut pa = PortAssignment::new();
        pa.push_swap(m0.outputs[0], m0.outputs[1]);
        pa.push_swap(m1.outputs[0], m1.outputs[1]);

        let rewired = base.apply_port_assignment(&pa).unwrap();

        let mut manual = base.clone();
        manual
            .swap_output_ports(m0.outputs[0], m0.outputs[1])
            .unwrap();
        manual
            .swap_output_ports(m1.outputs[0], m1.outputs[1])
            .unwrap();

        assert_eq!(rewired, manual);
        // The source factory is untouched.
        assert_eq!(base, Factory::build(&FactoryConfig::two_level(2)).unwrap());
        // An empty assignment is the identity.
        assert_eq!(
            base.apply_port_assignment(&PortAssignment::new()).unwrap(),
            base
        );
    }

    #[test]
    fn apply_port_assignment_rejects_invalid_swaps() {
        let base = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let mut pa = PortAssignment::new();
        pa.push_swap(base.modules()[0].outputs[0], base.modules()[1].outputs[0]);
        assert_eq!(
            base.apply_port_assignment(&pa).unwrap_err(),
            DistillError::InvalidPortSwap
        );
    }

    #[test]
    fn rejects_oversized_configurations() {
        let err = Factory::build(&FactoryConfig::new(20, 4)).unwrap_err();
        assert!(matches!(err, DistillError::TooLarge { .. }));
    }

    #[test]
    fn hostile_sizes_fail_fast_with_typed_errors() {
        let too_large = DistillError::TooLarge {
            limit: MAX_LOGICAL_QUBITS,
        };
        // (label, config or from_total_capacity error, expected error)
        let cases = [
            ("k=2 levels=40", Ok(FactoryConfig::new(2, 40)), &too_large),
            (
                "k=2 levels=1e8",
                Ok(FactoryConfig::new(2, 100_000_000)),
                &too_large,
            ),
            (
                "k=2 levels=2^32",
                Ok(FactoryConfig::new(2, 1 << 32)),
                &too_large,
            ),
            // 5k + 13 wraps to 102 in unchecked arithmetic.
            (
                "k=(2^64+89)/5",
                Ok(FactoryConfig::new(3_689_348_814_741_910_341, 1)),
                &too_large,
            ),
            (
                "capacity=4 levels=2^32+2",
                FactoryConfig::from_total_capacity(4, (1 << 32) + 2),
                &DistillError::CapacityNotAPower {
                    capacity: 4,
                    levels: (1 << 32) + 2,
                },
            ),
        ];
        for (label, config, expected) in cases {
            let start = std::time::Instant::now();
            let err = config.and_then(|c| Factory::build(&c)).unwrap_err();
            assert!(start.elapsed().as_secs_f64() < 1.0, "{label} took too long");
            assert_eq!(&err, expected, "{label}");
            // Never a wrapped count such as 14^39 mod 2^64 = 7945669156634886144.
            assert!(!err.to_string().contains("7945669156634886144"), "{label}");
        }
        let huge = FactoryConfig::new(2, 1 << 32);
        assert_eq!(huge.capacity(), usize::MAX);
        assert_eq!(huge.total_modules(), usize::MAX);
        assert_eq!(FactoryConfig::new(2, 40).modules_in_round(0), usize::MAX);

        // A valid two-level config still builds with its usual shape.
        let config = FactoryConfig::from_total_capacity(4, 2).unwrap();
        let f = Factory::build(&config).unwrap();
        assert_eq!((config.k, config.levels), (2, 2));
        assert_eq!(f.capacity(), 4);
        assert_eq!(config.total_modules(), 16);
        assert_eq!(f.rounds()[0].num_modules(), 14);
        assert_eq!(f.rounds()[1].num_modules(), 2);
        assert_eq!(f, Factory::build(&FactoryConfig::two_level(2)).unwrap());
    }

    #[test]
    fn three_level_factory_builds() {
        let f = Factory::build(&FactoryConfig::new(2, 3)).unwrap();
        assert_eq!(f.capacity(), 8);
        assert_eq!(f.rounds().len(), 3);
        assert_eq!(f.rounds()[0].num_modules(), 14 * 14);
        assert_eq!(f.rounds()[1].num_modules(), 14 * 2);
        assert_eq!(f.rounds()[2].num_modules(), 4);
        // Permutation edges: every non-final-round output is consumed.
        let non_final_outputs: usize = (0..2)
            .map(|r| f.round_modules(r).len() * f.config().k)
            .sum();
        assert_eq!(f.permutation_edges().len(), non_final_outputs);
    }
}
