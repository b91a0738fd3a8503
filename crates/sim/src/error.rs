//! Error types for the braid simulator.

use std::fmt;

use msfu_circuit::QubitId;

/// Errors produced while simulating a circuit on a mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A gate references a qubit that the mapping does not place.
    UnmappedQubit {
        /// The unplaced qubit.
        qubit: QubitId,
    },
    /// The simulation exceeded the configured cycle limit, indicating a
    /// livelock (e.g. a braid that can never acquire its cells).
    CycleLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// The mapping grid is empty.
    EmptyGrid,
    /// A set of lanes handed to [`crate::BatchEngine`] cannot share one
    /// event wheel (mismatched grid dimensions, too many lanes, an
    /// oversized circuit × lane product, or a mesh of more cells than a
    /// 32-bit cell index can name).
    LaneMismatch {
        /// What made the lanes incompatible.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnmappedQubit { qubit } => {
                write!(f, "qubit {qubit} has no position in the mapping")
            }
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded the cycle limit of {limit}")
            }
            SimError::EmptyGrid => write!(f, "mapping grid has no cells"),
            SimError::LaneMismatch { reason } => {
                write!(f, "incompatible batch lanes: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::UnmappedQubit {
            qubit: QubitId::new(4)
        }
        .to_string()
        .contains("q4"));
        assert!(SimError::CycleLimitExceeded { limit: 10 }
            .to_string()
            .contains("10"));
        assert!(!SimError::EmptyGrid.to_string().is_empty());
        assert!(SimError::LaneMismatch {
            reason: "grid 3x3 vs 4x4".to_string()
        }
        .to_string()
        .contains("3x3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<SimError>();
    }
}
