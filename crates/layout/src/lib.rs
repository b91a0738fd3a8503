//! # msfu-layout
//!
//! Qubit mapping (placement) algorithms for surface-code braided
//! architectures, implementing every mapping strategy evaluated by the MSFU
//! paper (Ding et al., MICRO 2018):
//!
//! * [`LinearMapper`] — the Fowler-style hand-tuned per-module baseline
//!   ("Line" in Table I).
//! * [`RandomMapper`] — randomised placement ("Random" in Table I, and the
//!   mapping generator behind the Fig. 6 correlation study).
//! * [`ForceDirectedMapper`] — force-directed annealing with vertex–vertex
//!   attraction, edge–edge repulsion, magnetic-dipole edge rotation and
//!   community-structure escape moves (Section VI-B1).
//! * [`GraphPartitionMapper`] — recursive graph bisection matched to recursive
//!   grid bisection (Section VI-B2).
//! * [`HierarchicalStitchingMapper`] — the paper's contribution (Section VII):
//!   per-round near-optimal planar embeddings stitched together with qubit
//!   reuse region selection, output-port reassignment and Valiant-style
//!   annealed intermediate hops for the inter-round permutation.
//!
//! Every strategy implements the dyn-safe [`FactoryMapper`] trait, and
//! [`build_mapper`] turns a `(name, params)` pair into a boxed mapper of the
//! five-strategy line-up.
//!
//! The common currency is the [`Mapping`] (logical qubit → grid cell) plus
//! optional [`RoutingHints`] (per-interaction waypoints) consumed by the braid
//! simulator.
//!
//! # Example
//!
//! ```
//! use msfu_distill::{Factory, FactoryConfig};
//! use msfu_layout::{FactoryMapper, LinearMapper};
//!
//! let factory = Factory::build(&FactoryConfig::single_level(4)).unwrap();
//! let layout = LinearMapper::new().map_factory(&factory).unwrap();
//! assert!(layout.mapping.is_complete());
//! assert!(layout.mapping.used_area() >= factory.num_qubits());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod dipole;
mod error;
mod force_directed;
mod graph_partition;
mod hints;
mod linear;
mod mapper;
mod mapping;
mod random;
pub mod reference;
mod registry;
mod stitching;

pub use error::LayoutError;
pub use force_directed::{ForceDirectedConfig, ForceDirectedMapper};
pub use graph_partition::GraphPartitionMapper;
pub use hints::RoutingHints;
pub use linear::LinearMapper;
pub use mapper::{FactoryMapper, Layout};
pub use mapping::{Coord, Mapping};
pub use random::RandomMapper;
pub use registry::{build_mapper, check_mapper_name, MapperParams, ParamValue};
pub use stitching::{HierarchicalStitchingMapper, HopStrategy, StitchingConfig};

/// Convenience result alias used by fallible APIs in this crate.
pub type Result<T> = std::result::Result<T, LayoutError>;
