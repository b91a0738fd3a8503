//! Error type for the end-to-end pipeline.

use std::fmt;

/// Errors produced by the end-to-end evaluation pipeline; a thin wrapper over
/// the errors of the underlying subsystems.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// Factory construction failed.
    Distill(msfu_distill::DistillError),
    /// Qubit placement failed.
    Layout(msfu_layout::LayoutError),
    /// Braid simulation failed.
    Sim(msfu_sim::SimError),
    /// A data-declared sweep or search specification could not be decoded.
    Spec {
        /// Explanation of the problem (field path and what was expected).
        reason: String,
    },
    /// A streaming-workload specification could not be decoded or failed
    /// validation (see [`crate::stream::StreamSpec`]).
    StreamSpec {
        /// Explanation of the problem (field path and what was expected).
        reason: String,
    },
    /// A stream job named a scheduler outside the built-in line-up.
    UnknownScheduler {
        /// The requested scheduler name.
        name: String,
        /// The built-in scheduler names, sorted.
        known: &'static [&'static str],
    },
    /// A remote worker failed, or its payload could not be decoded.
    ///
    /// `code` carries the service-level error-code string reported by (or
    /// assigned to) the failure, opaque to this crate; the service layer maps
    /// known codes back onto their original identity so a clustered run
    /// reports the same code a serial run would. `Display` prints only the
    /// message, for the same reason.
    Remote {
        /// Stable error-code string of the underlying failure.
        code: String,
        /// Human-readable explanation (the remote error's own message).
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Distill(e) => write!(f, "factory construction failed: {e}"),
            CoreError::Layout(e) => write!(f, "qubit placement failed: {e}"),
            CoreError::Sim(e) => write!(f, "braid simulation failed: {e}"),
            CoreError::Spec { reason } => write!(f, "invalid specification: {reason}"),
            CoreError::StreamSpec { reason } => {
                write!(f, "invalid stream specification: {reason}")
            }
            CoreError::UnknownScheduler { name, known } => write!(
                f,
                "unknown stream scheduler `{name}` (known: {})",
                known.join(", ")
            ),
            CoreError::Remote { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Distill(e) => Some(e),
            CoreError::Layout(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Spec { .. }
            | CoreError::StreamSpec { .. }
            | CoreError::UnknownScheduler { .. }
            | CoreError::Remote { .. } => None,
        }
    }
}

impl From<msfu_distill::DistillError> for CoreError {
    fn from(value: msfu_distill::DistillError) -> Self {
        CoreError::Distill(value)
    }
}

impl From<msfu_layout::LayoutError> for CoreError {
    fn from(value: msfu_layout::LayoutError) -> Self {
        CoreError::Layout(value)
    }
}

impl From<msfu_sim::SimError> for CoreError {
    fn from(value: msfu_sim::SimError) -> Self {
        CoreError::Sim(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_all_subsystem_errors() {
        let d = CoreError::from(msfu_distill::DistillError::ZeroCapacity);
        let l = CoreError::from(msfu_layout::LayoutError::Unmapped {
            qubit: msfu_circuit::QubitId::new(0),
        });
        let s = CoreError::from(msfu_sim::SimError::EmptyGrid);
        for e in [d, l, s] {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_some());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<CoreError>();
    }
}
