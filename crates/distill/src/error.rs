//! Error types for factory construction.

use std::fmt;

/// Errors produced when configuring or constructing a distillation factory.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DistillError {
    /// The requested per-module capacity `k` is zero.
    ZeroCapacity,
    /// The requested number of levels is zero.
    ZeroLevels,
    /// A total output capacity was requested that is not an exact `ℓ`-th
    /// power, so no per-level `k` reproduces it.
    CapacityNotAPower {
        /// The requested total capacity.
        capacity: usize,
        /// The requested number of levels.
        levels: usize,
    },
    /// The requested configuration is too large to build in memory: it needs
    /// more logical qubits than the hard limit (possibly more than fit in a
    /// `usize`).
    TooLarge {
        /// The configured hard limit.
        limit: usize,
    },
    /// An output-port swap referenced qubits that are not output qubits of the
    /// same module.
    InvalidPortSwap,
    /// Wrapper around an underlying circuit-construction error.
    Circuit(msfu_circuit::CircuitError),
}

impl fmt::Display for DistillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistillError::ZeroCapacity => write!(f, "per-module capacity k must be at least 1"),
            DistillError::ZeroLevels => write!(f, "number of levels must be at least 1"),
            DistillError::CapacityNotAPower { capacity, levels } => write!(
                f,
                "total capacity {capacity} is not an exact {levels}-th power of an integer"
            ),
            DistillError::TooLarge { limit } => write!(
                f,
                "configuration requires more than the limit of {limit} logical qubits"
            ),
            DistillError::InvalidPortSwap => {
                write!(
                    f,
                    "port swap must reference two output qubits of the same module"
                )
            }
            DistillError::Circuit(e) => write!(f, "circuit construction failed: {e}"),
        }
    }
}

impl std::error::Error for DistillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistillError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<msfu_circuit::CircuitError> for DistillError {
    fn from(value: msfu_circuit::CircuitError) -> Self {
        DistillError::Circuit(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(DistillError::ZeroCapacity.to_string().contains('k'));
        assert!(DistillError::CapacityNotAPower {
            capacity: 5,
            levels: 2
        }
        .to_string()
        .contains('5'));
        assert!(DistillError::TooLarge { limit: 5 }
            .to_string()
            .contains('5'));
    }

    #[test]
    fn wraps_circuit_errors() {
        let inner = msfu_circuit::CircuitError::EmptyTargets;
        let e = DistillError::from(inner.clone());
        assert_eq!(e, DistillError::Circuit(inner));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<DistillError>();
    }
}
