//! Error types for mapping construction.

use std::fmt;

use msfu_circuit::QubitId;

use crate::Coord;

/// Errors produced while constructing or manipulating qubit mappings.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// Two qubits were assigned to the same grid cell.
    CellOccupied {
        /// The contested cell.
        cell: Coord,
        /// The qubit already occupying it.
        occupant: QubitId,
        /// The qubit that attempted to claim it.
        claimant: QubitId,
    },
    /// A qubit was placed outside the grid bounds.
    OutOfBounds {
        /// The offending cell.
        cell: Coord,
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
    },
    /// The grid is too small to hold all qubits of the circuit.
    GridTooSmall {
        /// Number of qubits that need placement.
        qubits: usize,
        /// Number of available cells.
        cells: usize,
    },
    /// A mapper that requires factory structure was given a factory whose
    /// structure it cannot handle (e.g. stitching on a single-level factory
    /// is redundant but allowed; an empty factory is not).
    UnsupportedFactory {
        /// Explanation of the problem.
        reason: String,
    },
    /// A qubit required by a consumer (e.g. the simulator) has no assigned
    /// position.
    Unmapped {
        /// The unmapped qubit.
        qubit: QubitId,
    },
    /// A strategy name outside the built-in line-up.
    UnknownMapper {
        /// The requested name.
        name: String,
        /// The built-in names, sorted.
        known: &'static [&'static str],
    },
    /// A mapper builder rejected its parameter bag (unknown key, type
    /// mismatch, or out-of-range value).
    InvalidMapperParam {
        /// The mapper whose builder rejected the parameters.
        mapper: String,
        /// Explanation of the problem.
        reason: String,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::CellOccupied {
                cell,
                occupant,
                claimant,
            } => write!(
                f,
                "cell ({}, {}) already holds {occupant}, cannot also place {claimant}",
                cell.row, cell.col
            ),
            LayoutError::OutOfBounds {
                cell,
                width,
                height,
            } => write!(
                f,
                "cell ({}, {}) lies outside the {width}x{height} grid",
                cell.row, cell.col
            ),
            LayoutError::GridTooSmall { qubits, cells } => {
                write!(f, "grid with {cells} cells cannot hold {qubits} qubits")
            }
            LayoutError::UnsupportedFactory { reason } => {
                write!(f, "factory not supported by this mapper: {reason}")
            }
            LayoutError::Unmapped { qubit } => write!(f, "qubit {qubit} has no assigned position"),
            LayoutError::UnknownMapper { name, known } => write!(
                f,
                "no mapping strategy registered under `{name}` (registered: {})",
                known.join(", ")
            ),
            LayoutError::InvalidMapperParam { mapper, reason } => {
                write!(f, "invalid parameters for mapper `{mapper}`: {reason}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = LayoutError::CellOccupied {
            cell: Coord::new(1, 2),
            occupant: QubitId::new(0),
            claimant: QubitId::new(3),
        };
        assert!(e.to_string().contains("q0"));
        assert!(e.to_string().contains("q3"));

        let e = LayoutError::GridTooSmall {
            qubits: 9,
            cells: 4,
        };
        assert!(e.to_string().contains('9'));

        let e = LayoutError::Unmapped {
            qubit: QubitId::new(7),
        };
        assert!(e.to_string().contains("q7"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<LayoutError>();
    }
}
