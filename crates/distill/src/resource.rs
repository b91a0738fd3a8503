//! Physical resource estimation: code distances and physical qubit counts.
//!
//! The surface code protects a logical qubit with distance `d` using roughly
//! `d²` physical qubits, and its logical error rate scales as
//! `P_L ≈ A·d·(ε/ε_th)^((d+1)/2)` (Section II-B of the paper, with threshold
//! `ε_th = 1/100`). Because later block-code rounds handle states of ever
//! lower error rate, the "balanced investment" strategy of O'Gorman and
//! Campbell assigns each round its own (increasing) code distance
//! (Section II-G): `qᵣ = mᵣ·(5k+13)·dᵣ²` physical qubits for round `r` with
//! `mᵣ` modules.

use crate::{error_model, FactoryConfig};

/// Surface-code error threshold used by the `P_L` scaling law.
pub const CODE_THRESHOLD: f64 = 0.01;

/// Prefactor of the logical error-rate scaling law.
pub const LOGICAL_ERROR_PREFACTOR: f64 = 0.1;

/// Logical error rate per logical qubit per round of error correction for a
/// code of distance `d` running above physical error rate `p_phys`:
/// `A·d·(p/ε_th)^((d+1)/2)`.
pub fn logical_error_rate(d: u32, p_phys: f64) -> f64 {
    let ratio = p_phys / CODE_THRESHOLD;
    LOGICAL_ERROR_PREFACTOR * d as f64 * ratio.powf((d as f64 + 1.0) / 2.0)
}

/// Smallest odd code distance whose logical error rate is at or below
/// `target` for the given physical error rate. Returns `None` when the
/// physical error rate is at or above threshold, where no distance helps.
pub fn code_distance_for(p_phys: f64, target: f64) -> Option<u32> {
    if p_phys >= CODE_THRESHOLD {
        return None;
    }
    let mut d = 3;
    while d <= 101 {
        if logical_error_rate(d, p_phys) <= target {
            return Some(d);
        }
        d += 2;
    }
    None
}

/// Physical resource estimate of one factory round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundResources {
    /// Round index (0-based).
    pub round: usize,
    /// Number of modules in the round.
    pub modules: usize,
    /// Error rate of the states entering the round.
    pub input_error: f64,
    /// Code distance assigned to the round by balanced investment.
    pub code_distance: u32,
    /// Logical qubits occupied by the round.
    pub logical_qubits: usize,
    /// Physical qubits occupied by the round: `mᵣ·(5k+13)·dᵣ²`.
    pub physical_qubits: usize,
}

/// Physical resource estimate of a full multi-level factory.
#[derive(Debug, Clone, PartialEq)]
pub struct FactoryResources {
    /// Per-round breakdown.
    pub rounds: Vec<RoundResources>,
    /// Error rate of the delivered output states.
    pub output_error: f64,
    /// Peak physical-qubit footprint across rounds (rounds execute one after
    /// another, so the footprint is the maximum, not the sum).
    pub peak_physical_qubits: usize,
}

/// Estimates per-round code distances and physical qubit counts for a factory
/// configuration using the balanced-investment rule: each round's code
/// distance is the smallest odd distance whose logical error rate is an order
/// of magnitude below the error rate of the states that round manipulates.
///
/// # Example
///
/// ```
/// use msfu_distill::{resource, FactoryConfig};
///
/// let est = resource::estimate(&FactoryConfig::two_level(4), 1e-3, 1e-4);
/// assert_eq!(est.rounds.len(), 2);
/// // Later rounds handle better states and therefore need larger distances.
/// assert!(est.rounds[1].code_distance >= est.rounds[0].code_distance);
/// ```
pub fn estimate(config: &FactoryConfig, eps_inject: f64, p_phys: f64) -> FactoryResources {
    let k = config.k;
    let qubits_per_module = config.qubits_per_module();
    let mut rounds = Vec::with_capacity(config.levels);
    let mut peak = 0usize;
    for r in 0..config.levels {
        let modules = config.modules_in_round(r);
        let input_error = error_model::input_error_at_round(k, r, eps_inject);
        // Balanced investment: logical failures should not dominate the error
        // of the states being distilled, so target one tenth of the error
        // rate of the *output* of this round.
        let target = error_model::output_error(k, input_error) / 10.0;
        let code_distance = code_distance_for(p_phys, target.max(f64::MIN_POSITIVE)).unwrap_or(101);
        let logical_qubits = modules * qubits_per_module;
        let physical_qubits = logical_qubits * (code_distance as usize).pow(2);
        peak = peak.max(physical_qubits);
        rounds.push(RoundResources {
            round: r,
            modules,
            input_error,
            code_distance,
            logical_qubits,
            physical_qubits,
        });
    }
    FactoryResources {
        output_error: error_model::error_after_levels(k, config.levels, eps_inject),
        peak_physical_qubits: peak,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_error_rate_decreases_with_distance() {
        let p = 1e-3;
        assert!(logical_error_rate(5, p) < logical_error_rate(3, p));
        assert!(logical_error_rate(15, p) < logical_error_rate(7, p));
    }

    #[test]
    fn code_distance_for_monotone_in_target() {
        let p = 1e-3;
        let loose = code_distance_for(p, 1e-4).unwrap();
        let tight = code_distance_for(p, 1e-12).unwrap();
        assert!(tight > loose);
        assert_eq!(loose % 2, 1);
        assert_eq!(tight % 2, 1);
    }

    #[test]
    fn code_distance_fails_above_threshold() {
        assert_eq!(code_distance_for(0.02, 1e-9), None);
        assert_eq!(code_distance_for(0.01, 1e-9), None);
    }

    #[test]
    fn estimate_assigns_increasing_distances() {
        let est = estimate(&FactoryConfig::two_level(6), 1e-3, 1e-4);
        assert_eq!(est.rounds.len(), 2);
        assert!(est.rounds[1].code_distance >= est.rounds[0].code_distance);
        assert!(est.rounds[0].input_error > est.rounds[1].input_error);
        assert!(est.output_error < est.rounds[1].input_error);
        assert!(est.peak_physical_qubits >= est.rounds[0].physical_qubits);
        assert!(est.peak_physical_qubits >= est.rounds[1].physical_qubits);
    }

    #[test]
    fn physical_qubits_follow_formula() {
        let cfg = FactoryConfig::two_level(2);
        let est = estimate(&cfg, 1e-3, 1e-4);
        for r in &est.rounds {
            assert_eq!(
                r.physical_qubits,
                r.modules * cfg.qubits_per_module() * (r.code_distance as usize).pow(2)
            );
        }
    }

    #[test]
    fn single_level_estimate_has_one_round() {
        let est = estimate(&FactoryConfig::single_level(8), 1e-3, 1e-4);
        assert_eq!(est.rounds.len(), 1);
        assert_eq!(est.rounds[0].modules, 1);
    }
}
