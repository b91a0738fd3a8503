//! # msfu-sim
//!
//! Cycle-accurate braid network simulator for surface-code meshes, built to
//! the behavioural description of the simulator used by the MSFU paper
//! (Section VIII-A, itself derived from Javadi-Abhari et al., MICRO 2017):
//!
//! * logical qubits live on the cells of a 2-D mesh (the
//!   [`Mapping`](msfu_layout::Mapping) produced by `msfu-layout`);
//! * a two-qubit gate is realised by a **braid**: a path of mesh cells
//!   reserved for the duration of the gate; braids may not overlap;
//! * braids are scheduled in parallel wherever the dependency structure and
//!   the mesh allow; when two braids would intersect, one stalls until the
//!   other completes;
//! * any data hazard (shared qubit between two gates) is treated as a true
//!   dependency;
//! * the multi-target CNOT (`CXX`) gate reserves the union of the paths from
//!   its control to every target;
//! * barriers synchronise: they start only after every earlier gate finished
//!   and block every later gate until they complete (they occupy no cells).
//!
//! Two routing policies are provided: deterministic dimension-ordered
//! (L-shaped) paths, and adaptive shortest paths that detour around busy
//! cells — the paper notes that smarter routing can execute crossing braids
//! in parallel.
//!
//! The simulator reports realised latency in cycles, per-gate timing, stall
//! statistics and the consumed space-time volume (area × cycles).
//!
//! # Example
//!
//! ```
//! use msfu_distill::{Factory, FactoryConfig};
//! use msfu_layout::{FactoryMapper, LinearMapper};
//! use msfu_sim::{SimConfig, SimEngine};
//!
//! let factory = Factory::build(&FactoryConfig::single_level(2)).unwrap();
//! let layout = LinearMapper::new().map_factory(&factory).unwrap();
//! let result = SimEngine::new(SimConfig::default())
//!     .run(factory.circuit(), &layout)
//!     .unwrap();
//! assert!(result.cycles > 0);
//! assert!(result.cycles >= factory.circuit().critical_path_cycles(&SimConfig::default().latency));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
mod braid;
mod config;
mod engine;
mod error;
mod events;
pub mod reference;
mod stats;

pub use batch::{BatchEngine, BatchLane, MAX_LANES};
pub use braid::{
    adaptive_path, adaptive_path_into, dimension_ordered_path, BraidPath, DijkstraScratch,
};
pub use config::{RoutingPolicy, SimConfig};
pub use engine::SimEngine;
pub use error::SimError;
pub use stats::{GateTiming, SimResult};

/// Convenience result alias used by fallible APIs in this crate.
pub type Result<T> = std::result::Result<T, SimError>;
