//! # msfu-circuit
//!
//! Quantum circuit intermediate representation (IR) used throughout the
//! MSFU (Magic-State Functional Units) toolchain.
//!
//! The crate provides:
//!
//! * [`QubitId`], [`QubitRole`] and [`QubitRegister`] — logical qubit naming
//!   and role tracking (raw magic states, ancillas, outputs, …).
//! * [`Gate`] — the gate set used by Bravyi-Haah block-code distillation
//!   circuits: Clifford gates, the multi-target `CXX` gate, probabilistic
//!   magic-state injection (`InjectT`/`InjectTdg`), measurement and barriers.
//! * [`Circuit`] and [`CircuitBuilder`] — gate sequences with validation.
//! * [`DependencyDag`] — data-hazard dependency analysis (the braid simulator
//!   of the paper treats any shared-qubit hazard as a true dependency) and
//!   the critical-path lower bound of Fig. 7.
//! * [`LatencyModel`] — per-gate logical cycle costs.
//! * [`stats`] — gate/T-count statistics.
//!
//! # Example
//!
//! ```
//! use msfu_circuit::{CircuitBuilder, QubitRole, LatencyModel};
//!
//! let mut b = CircuitBuilder::new("bell");
//! let q = b.register("q", QubitRole::Data, 2);
//! b.h(q[0]).unwrap();
//! b.cnot(q[0], q[1]).unwrap();
//! b.meas_x(q[0]).unwrap();
//! let circuit = b.build();
//!
//! assert_eq!(circuit.num_qubits(), 2);
//! let model = LatencyModel::default();
//! assert!(circuit.critical_path_cycles(&model) > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod circuit;
mod dag;
mod error;
mod gate;
mod latency;
mod qubit;
pub mod stats;

pub use builder::CircuitBuilder;
pub use circuit::Circuit;
pub use dag::DependencyDag;
pub use error::CircuitError;
pub use gate::{Gate, GateId, GateKind};
pub use latency::LatencyModel;
pub use qubit::{QubitId, QubitRegister, QubitRole};

/// Convenience result alias used by fallible APIs in this crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
