//! Data-hazard dependency DAG over circuit gates.

use crate::{Circuit, GateId, LatencyModel};

/// Dependency DAG of a circuit under the hazard model of the paper's braid
/// simulator: *any* pair of gates sharing a qubit, with one appearing later in
/// program order, forms a true dependency (Section VIII-A).
///
/// The DAG records, for each gate, the immediate predecessors induced by the
/// most recent prior use of each of its qubits. Because the hazard relation is
/// transitive along per-qubit chains, these immediate edges are sufficient for
/// level (ASAP) scheduling and critical-path analysis.
///
/// # Example
///
/// ```
/// use msfu_circuit::{CircuitBuilder, QubitRole, LatencyModel};
///
/// let mut b = CircuitBuilder::new("chain");
/// let q = b.register("q", QubitRole::Data, 2);
/// b.h(q[0]).unwrap();
/// b.cnot(q[0], q[1]).unwrap();
/// b.meas_x(q[1]).unwrap();
/// let c = b.build();
/// let dag = c.dependency_dag();
/// assert_eq!(dag.num_gates(), 3);
/// // H -> CNOT -> MeasX is a strict chain.
/// assert_eq!(dag.asap_levels()[2], 2);
/// ```
#[derive(Debug, Clone)]
pub struct DependencyDag {
    /// predecessors[g] = gates that must complete before gate g may start.
    predecessors: Vec<Vec<GateId>>,
    /// successors[g] = gates that depend on gate g.
    successors: Vec<Vec<GateId>>,
}

impl DependencyDag {
    /// Builds the dependency DAG for a circuit.
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.num_gates();
        let mut predecessors: Vec<Vec<GateId>> = vec![Vec::new(); n];
        let mut successors: Vec<Vec<GateId>> = vec![Vec::new(); n];
        // Last gate (if any) that touched each qubit.
        let mut last_use: Vec<Option<GateId>> = vec![None; circuit.num_qubits() as usize];

        for (id, gate) in circuit.iter_gates() {
            let mut preds = Vec::new();
            for q in gate.qubits() {
                if let Some(prev) = last_use[q.index()] {
                    if !preds.contains(&prev) {
                        preds.push(prev);
                    }
                }
                last_use[q.index()] = Some(id);
            }
            for p in &preds {
                successors[p.index()].push(id);
            }
            predecessors[id.index()] = preds;
        }

        DependencyDag {
            predecessors,
            successors,
        }
    }

    /// Number of gates covered by the DAG.
    pub fn num_gates(&self) -> usize {
        self.predecessors.len()
    }

    /// Immediate predecessors of a gate.
    pub fn predecessors(&self, gate: GateId) -> &[GateId] {
        &self.predecessors[gate.index()]
    }

    /// Immediate successors of a gate.
    pub fn successors(&self, gate: GateId) -> &[GateId] {
        &self.successors[gate.index()]
    }

    /// Gates with no predecessors (ready at time zero).
    pub fn roots(&self) -> Vec<GateId> {
        (0..self.num_gates())
            .filter(|&i| self.predecessors[i].is_empty())
            .map(|i| GateId::new(i as u32))
            .collect()
    }

    /// ASAP level of each gate: the length (in gates) of the longest
    /// dependency chain ending at the gate, with roots at level zero.
    pub fn asap_levels(&self) -> Vec<usize> {
        let n = self.num_gates();
        let mut levels = vec![0usize; n];
        for i in 0..n {
            let mut level = 0;
            for p in &self.predecessors[i] {
                level = level.max(levels[p.index()] + 1);
            }
            levels[i] = level;
        }
        levels
    }

    /// Depth of the DAG in gate levels (zero for an empty circuit).
    pub fn depth(&self) -> usize {
        self.asap_levels()
            .iter()
            .copied()
            .max()
            .map_or(0, |d| d + 1)
    }

    /// Critical-path length in cycles: the maximum, over all dependency
    /// chains, of the sum of per-gate latencies. This is the theoretical
    /// lower bound on circuit latency used throughout the paper's evaluation.
    pub fn critical_path_cycles(&self, circuit: &Circuit, model: &LatencyModel) -> u64 {
        let n = self.num_gates();
        let mut finish = vec![0u64; n];
        let mut max_finish = 0;
        for i in 0..n {
            let start = self.predecessors[i]
                .iter()
                .map(|p| finish[p.index()])
                .max()
                .unwrap_or(0);
            let latency = model.cycles(&circuit.gates()[i]);
            finish[i] = start + latency;
            max_finish = max_finish.max(finish[i]);
        }
        max_finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, QubitRole};

    fn chain_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("chain");
        let q = b.register("q", QubitRole::Data, 3);
        b.h(q[0]).unwrap();
        b.cnot(q[0], q[1]).unwrap();
        b.cnot(q[1], q[2]).unwrap();
        b.meas_x(q[2]).unwrap();
        b.build()
    }

    #[test]
    fn chain_has_strictly_increasing_levels() {
        let c = chain_circuit();
        let dag = c.dependency_dag();
        assert_eq!(dag.asap_levels(), vec![0, 1, 2, 3]);
        assert_eq!(dag.depth(), 4);
    }

    #[test]
    fn independent_gates_share_level() {
        let mut b = CircuitBuilder::new("par");
        let q = b.register("q", QubitRole::Data, 4);
        b.h(q[0]).unwrap();
        b.h(q[1]).unwrap();
        b.cnot(q[0], q[1]).unwrap();
        b.cnot(q[2], q[3]).unwrap();
        let c = b.build();
        let dag = c.dependency_dag();
        let levels = dag.asap_levels();
        assert_eq!(levels[0], 0);
        assert_eq!(levels[1], 0);
        assert_eq!(levels[2], 1);
        assert_eq!(levels[3], 0);
        assert_eq!(dag.roots().len(), 3);
    }

    #[test]
    fn barrier_synchronises_everything_after_it() {
        let mut b = CircuitBuilder::new("bar");
        let q = b.register("q", QubitRole::Data, 3);
        b.h(q[0]).unwrap();
        b.barrier_all().unwrap();
        b.h(q[2]).unwrap();
        let c = b.build();
        let dag = c.dependency_dag();
        let levels = dag.asap_levels();
        // The trailing H depends on the barrier, which depends on the first H.
        assert_eq!(levels, vec![0, 1, 2]);
    }

    #[test]
    fn critical_path_uses_latency_model() {
        let c = chain_circuit();
        let model = LatencyModel::default();
        let dag = c.dependency_dag();
        let expected = model.single_qubit + 2 * model.cnot + model.measure;
        assert_eq!(dag.critical_path_cycles(&c, &model), expected);
        assert_eq!(c.critical_path_cycles(&model), expected);
    }

    #[test]
    fn successors_mirror_predecessors() {
        let c = chain_circuit();
        let dag = c.dependency_dag();
        for i in 0..dag.num_gates() {
            let g = GateId::new(i as u32);
            for p in dag.predecessors(g) {
                assert!(dag.successors(*p).contains(&g));
            }
        }
    }

    #[test]
    fn empty_circuit_depth_zero() {
        let c = CircuitBuilder::new("empty").build();
        let dag = c.dependency_dag();
        assert_eq!(dag.depth(), 0);
        assert_eq!(dag.num_gates(), 0);
        assert!(dag.roots().is_empty());
    }
}
