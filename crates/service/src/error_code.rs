//! The stable, machine-readable error-code table of the service protocol.
//!
//! Every failure a job can produce — protocol-level (malformed request,
//! version mismatch) or pipeline-level (any [`CoreError`] variant, including
//! the wrapped [`DistillError`], [`LayoutError`] and [`SimError`] variants)
//! — maps to exactly one string code from [`ALL_ERROR_CODES`]. Codes are
//! part of the wire contract: clients branch on them, so **renaming or
//! removing a code is a breaking protocol change**. The golden test at the
//! bottom of this module pins the complete list; any drift fails it.
//!
//! [`DistillError`]: msfu_distill::DistillError
//! [`LayoutError`]: msfu_layout::LayoutError
//! [`SimError`]: msfu_sim::SimError

use msfu_core::CoreError;
use msfu_distill::DistillError;
use msfu_layout::LayoutError;
use msfu_sim::SimError;

/// Protocol-level code: the request line was not valid JSON or lacked
/// required fields.
pub const E_REQUEST_PARSE: &str = "E_REQUEST_PARSE";
/// Protocol-level code: the request's `protocol_version` is not one this
/// server speaks.
pub const E_PROTOCOL_VERSION: &str = "E_PROTOCOL_VERSION";
/// A sweep/search specification or evaluate payload could not be decoded.
pub const E_SPEC_PARSE: &str = "E_SPEC_PARSE";
/// A streaming-workload specification could not be decoded or failed
/// validation.
pub const E_STREAM_SPEC: &str = "E_STREAM_SPEC";
/// A stream job named a scheduler outside the built-in line-up.
pub const E_UNKNOWN_SCHEDULER: &str = "E_UNKNOWN_SCHEDULER";
/// Fallback for pipeline errors introduced after this build (the wrapped
/// error enums are `#[non_exhaustive]`).
pub const E_INTERNAL: &str = "E_INTERNAL";
/// A cluster worker returned a payload the coordinator could not decode, or
/// failed with a code this build does not recognise.
pub const E_REMOTE: &str = "E_REMOTE";
/// A cluster worker process (or thread) exited before completing its shard
/// and the shard could not be re-dispatched (no workers left).
pub const E_WORKER_LOST: &str = "E_WORKER_LOST";
/// One shard kept hitting worker faults (deaths, hangs past the shard
/// timeout, garbled responses) until its re-dispatch budget was spent; the
/// supervisor fails the job typed rather than loop forever.
pub const E_SHARD_RETRY_EXHAUSTED: &str = "E_SHARD_RETRY_EXHAUSTED";

/// Every code the service can emit, sorted. The golden test below asserts
/// this exact list, so adding a code is an additive protocol change reviewed
/// here, and renaming one is caught as a breaking change.
pub const ALL_ERROR_CODES: &[&str] = &[
    "E_CIRCUIT",
    "E_FACTORY_CAPACITY_NOT_A_POWER",
    "E_FACTORY_INVALID_PORT_SWAP",
    "E_FACTORY_TOO_LARGE",
    "E_FACTORY_ZERO_CAPACITY",
    "E_FACTORY_ZERO_LEVELS",
    "E_INTERNAL",
    "E_INVALID_STRATEGY_PARAM",
    "E_LAYOUT_CELL_OCCUPIED",
    "E_LAYOUT_GRID_TOO_SMALL",
    "E_LAYOUT_OUT_OF_BOUNDS",
    "E_LAYOUT_UNMAPPED_QUBIT",
    "E_LAYOUT_UNSUPPORTED_FACTORY",
    "E_PROTOCOL_VERSION",
    "E_REMOTE",
    "E_REQUEST_PARSE",
    "E_SHARD_RETRY_EXHAUSTED",
    "E_SIM_CYCLE_LIMIT",
    "E_SIM_EMPTY_GRID",
    "E_SIM_UNMAPPED_QUBIT",
    "E_SPEC_PARSE",
    "E_STREAM_SPEC",
    "E_UNKNOWN_SCHEDULER",
    "E_UNKNOWN_STRATEGY",
    "E_WORKER_LOST",
];

/// The stable code for a pipeline error.
pub fn error_code(error: &CoreError) -> &'static str {
    match error {
        CoreError::Spec { .. } => E_SPEC_PARSE,
        CoreError::StreamSpec { .. } => E_STREAM_SPEC,
        CoreError::UnknownScheduler { .. } => E_UNKNOWN_SCHEDULER,
        CoreError::Distill(e) => distill_code(e),
        CoreError::Layout(e) => layout_code(e),
        CoreError::Sim(e) => sim_code(e),
        // A remote worker's failure keeps its original identity when the
        // code is one this build speaks (so a clustered run reports the same
        // code a serial run would), and degrades to E_REMOTE otherwise.
        CoreError::Remote { code, .. } => ALL_ERROR_CODES
            .iter()
            .find(|known| **known == code.as_str())
            .copied()
            .unwrap_or(E_REMOTE),
        _ => E_INTERNAL,
    }
}

fn distill_code(error: &DistillError) -> &'static str {
    match error {
        DistillError::ZeroCapacity => "E_FACTORY_ZERO_CAPACITY",
        DistillError::ZeroLevels => "E_FACTORY_ZERO_LEVELS",
        DistillError::CapacityNotAPower { .. } => "E_FACTORY_CAPACITY_NOT_A_POWER",
        DistillError::TooLarge { .. } => "E_FACTORY_TOO_LARGE",
        DistillError::InvalidPortSwap => "E_FACTORY_INVALID_PORT_SWAP",
        DistillError::Circuit(_) => "E_CIRCUIT",
        _ => E_INTERNAL,
    }
}

fn layout_code(error: &LayoutError) -> &'static str {
    match error {
        LayoutError::CellOccupied { .. } => "E_LAYOUT_CELL_OCCUPIED",
        LayoutError::OutOfBounds { .. } => "E_LAYOUT_OUT_OF_BOUNDS",
        LayoutError::GridTooSmall { .. } => "E_LAYOUT_GRID_TOO_SMALL",
        LayoutError::UnsupportedFactory { .. } => "E_LAYOUT_UNSUPPORTED_FACTORY",
        LayoutError::Unmapped { .. } => "E_LAYOUT_UNMAPPED_QUBIT",
        LayoutError::UnknownMapper { .. } => "E_UNKNOWN_STRATEGY",
        LayoutError::InvalidMapperParam { .. } => "E_INVALID_STRATEGY_PARAM",
        _ => E_INTERNAL,
    }
}

fn sim_code(error: &SimError) -> &'static str {
    match error {
        SimError::UnmappedQubit { .. } => "E_SIM_UNMAPPED_QUBIT",
        SimError::CycleLimitExceeded { .. } => "E_SIM_CYCLE_LIMIT",
        SimError::EmptyGrid => "E_SIM_EMPTY_GRID",
        _ => E_INTERNAL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_circuit::QubitId;

    /// One constructed error per reachable variant, paired with its expected
    /// code. Kept exhaustive by hand; the golden test cross-checks that every
    /// code this table produces is in [`ALL_ERROR_CODES`] and vice versa.
    fn variant_fixtures() -> Vec<(CoreError, &'static str)> {
        vec![
            (CoreError::Spec { reason: "x".into() }, "E_SPEC_PARSE"),
            (
                CoreError::StreamSpec { reason: "x".into() },
                "E_STREAM_SPEC",
            ),
            (
                CoreError::UnknownScheduler {
                    name: "x".into(),
                    known: &["fifo"],
                },
                "E_UNKNOWN_SCHEDULER",
            ),
            (
                CoreError::Distill(DistillError::ZeroCapacity),
                "E_FACTORY_ZERO_CAPACITY",
            ),
            (
                CoreError::Distill(DistillError::ZeroLevels),
                "E_FACTORY_ZERO_LEVELS",
            ),
            (
                CoreError::Distill(DistillError::CapacityNotAPower {
                    capacity: 5,
                    levels: 2,
                }),
                "E_FACTORY_CAPACITY_NOT_A_POWER",
            ),
            (
                CoreError::Distill(DistillError::TooLarge { limit: 5 }),
                "E_FACTORY_TOO_LARGE",
            ),
            (
                CoreError::Distill(DistillError::InvalidPortSwap),
                "E_FACTORY_INVALID_PORT_SWAP",
            ),
            (
                CoreError::Distill(DistillError::Circuit(
                    msfu_circuit::CircuitError::EmptyTargets,
                )),
                "E_CIRCUIT",
            ),
            (
                CoreError::Layout(LayoutError::CellOccupied {
                    cell: msfu_layout::Coord::new(0, 0),
                    occupant: QubitId::new(0),
                    claimant: QubitId::new(1),
                }),
                "E_LAYOUT_CELL_OCCUPIED",
            ),
            (
                CoreError::Layout(LayoutError::OutOfBounds {
                    cell: msfu_layout::Coord::new(9, 9),
                    width: 2,
                    height: 2,
                }),
                "E_LAYOUT_OUT_OF_BOUNDS",
            ),
            (
                CoreError::Layout(LayoutError::GridTooSmall {
                    qubits: 9,
                    cells: 4,
                }),
                "E_LAYOUT_GRID_TOO_SMALL",
            ),
            (
                CoreError::Layout(LayoutError::UnsupportedFactory { reason: "x".into() }),
                "E_LAYOUT_UNSUPPORTED_FACTORY",
            ),
            (
                CoreError::Layout(LayoutError::Unmapped {
                    qubit: QubitId::new(0),
                }),
                "E_LAYOUT_UNMAPPED_QUBIT",
            ),
            (
                CoreError::Layout(LayoutError::UnknownMapper {
                    name: "x".into(),
                    known: &[],
                }),
                "E_UNKNOWN_STRATEGY",
            ),
            (
                CoreError::Layout(LayoutError::InvalidMapperParam {
                    mapper: "x".into(),
                    reason: "y".into(),
                }),
                "E_INVALID_STRATEGY_PARAM",
            ),
            (
                CoreError::Sim(SimError::UnmappedQubit {
                    qubit: QubitId::new(0),
                }),
                "E_SIM_UNMAPPED_QUBIT",
            ),
            (
                CoreError::Sim(SimError::CycleLimitExceeded { limit: 1 }),
                "E_SIM_CYCLE_LIMIT",
            ),
            (CoreError::Sim(SimError::EmptyGrid), "E_SIM_EMPTY_GRID"),
            (
                CoreError::Remote {
                    code: "E_WORKER_LOST".into(),
                    message: "worker exited".into(),
                },
                "E_WORKER_LOST",
            ),
            (
                CoreError::Remote {
                    code: "E_SIM_CYCLE_LIMIT".into(),
                    message: "relayed".into(),
                },
                "E_SIM_CYCLE_LIMIT",
            ),
            (
                // The supervisor's typed exhaustion error survives a relay
                // hop unchanged (a search fold reports it this way).
                CoreError::Remote {
                    code: "E_SHARD_RETRY_EXHAUSTED".into(),
                    message: "shard 0 hit 2 worker fault(s)".into(),
                },
                "E_SHARD_RETRY_EXHAUSTED",
            ),
            (
                CoreError::Remote {
                    code: "E_FROM_THE_FUTURE".into(),
                    message: "unknown remote code".into(),
                },
                "E_REMOTE",
            ),
        ]
    }

    #[test]
    fn every_variant_maps_to_its_code() {
        for (error, code) in variant_fixtures() {
            assert_eq!(error_code(&error), code, "{error}");
        }
    }

    /// The golden list: the exact set of codes the protocol speaks. A rename
    /// or removal fails here and must be treated as a breaking protocol
    /// change; an addition must extend [`ALL_ERROR_CODES`] (keeping it
    /// sorted) in the same commit.
    #[test]
    fn golden_code_list_is_exact() {
        let expected = [
            "E_CIRCUIT",
            "E_FACTORY_CAPACITY_NOT_A_POWER",
            "E_FACTORY_INVALID_PORT_SWAP",
            "E_FACTORY_TOO_LARGE",
            "E_FACTORY_ZERO_CAPACITY",
            "E_FACTORY_ZERO_LEVELS",
            "E_INTERNAL",
            "E_INVALID_STRATEGY_PARAM",
            "E_LAYOUT_CELL_OCCUPIED",
            "E_LAYOUT_GRID_TOO_SMALL",
            "E_LAYOUT_OUT_OF_BOUNDS",
            "E_LAYOUT_UNMAPPED_QUBIT",
            "E_LAYOUT_UNSUPPORTED_FACTORY",
            "E_PROTOCOL_VERSION",
            "E_REMOTE",
            "E_REQUEST_PARSE",
            "E_SHARD_RETRY_EXHAUSTED",
            "E_SIM_CYCLE_LIMIT",
            "E_SIM_EMPTY_GRID",
            "E_SIM_UNMAPPED_QUBIT",
            "E_SPEC_PARSE",
            "E_STREAM_SPEC",
            "E_UNKNOWN_SCHEDULER",
            "E_UNKNOWN_STRATEGY",
            "E_WORKER_LOST",
        ];
        assert_eq!(ALL_ERROR_CODES, &expected, "the code table drifted");
    }

    #[test]
    fn code_list_is_sorted_and_unique() {
        let mut sorted = ALL_ERROR_CODES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, ALL_ERROR_CODES, "codes must be sorted and unique");
    }

    #[test]
    fn every_mapped_code_is_in_the_golden_list() {
        for (error, _) in variant_fixtures() {
            let code = error_code(&error);
            assert!(
                ALL_ERROR_CODES.contains(&code),
                "{code} missing from ALL_ERROR_CODES"
            );
        }
        for code in [
            E_REQUEST_PARSE,
            E_PROTOCOL_VERSION,
            E_SPEC_PARSE,
            E_INTERNAL,
        ] {
            assert!(ALL_ERROR_CODES.contains(&code));
        }
    }

    #[test]
    fn every_golden_code_is_reachable() {
        // Codes reachable from pipeline variants plus the protocol-level
        // ones; nothing in the golden list may be dead.
        let mut reachable: Vec<&str> = variant_fixtures()
            .iter()
            .map(|(e, _)| error_code(e))
            .collect();
        reachable.extend([E_REQUEST_PARSE, E_PROTOCOL_VERSION, E_INTERNAL]);
        for code in ALL_ERROR_CODES {
            assert!(
                reachable.contains(code),
                "{code} is in the golden list but unreachable"
            );
        }
    }
}
