//! # msfu-graph
//!
//! Interaction-graph analysis for surface-code circuit mapping, implementing
//! the graph machinery of the MSFU paper (Ding et al., MICRO 2018):
//!
//! * [`InteractionGraph`] — the program interaction graph `G = (V, E)` whose
//!   vertices are logical qubits and whose weighted edges are two-qubit
//!   interactions (Section VI).
//! * [`geometry`] — 2-D points, segment intersection and distance helpers.
//! * [`metrics`] — the three congestion heuristics of Section VI-A: average
//!   edge (Manhattan) length, average edge spacing and edge-crossing count,
//!   plus a combined [`metrics::MappingMetrics`] record.
//! * [`correlation`] — Pearson correlation, used to reproduce the r-values of
//!   Fig. 6.
//! * [`community`] — Louvain modularity optimisation for community
//!   detection (Section VI-B1).
//! * [`partition`] — multilevel bisection (heavy-edge matching,
//!   greedy growth, boundary refinement), the METIS-style engine behind the
//!   graph-partitioning mapper (Section VI-B2).
//! * [`kmeans`] — KMeans++ clustering of 2-D points (used by the
//!   community-structure forces of the force-directed mapper).
//!
//! # Example
//!
//! ```
//! use msfu_distill::bravyi_haah;
//! use msfu_graph::InteractionGraph;
//!
//! let circuit = bravyi_haah::single_module_circuit(4).unwrap();
//! let graph = InteractionGraph::from_circuit(&circuit);
//! assert_eq!(graph.num_vertices(), circuit.num_qubits() as usize);
//! assert!(graph.num_edges() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod community;
pub mod correlation;
pub mod geometry;
mod graph;
pub mod kmeans;
pub mod metrics;
pub mod partition;

pub use graph::InteractionGraph;
