//! Factory configuration: capacity, levels, reuse policy, barriers.

use serde::Serialize;

use crate::{DistillError, Result};

/// Qubit-reuse policy across block-code rounds (Section V-B of the paper).
///
/// Ancillary and raw-input qubits are measured at the end of every round and
/// reinitialised at the beginning of the next; whether the *same* logical
/// qubit locations are reused is a scheduling/area trade-off:
///
/// * [`ReusePolicy::Reuse`] shares qubits across rounds, minimising area at
///   the cost of false (sharing-after-measurement) dependencies.
/// * [`ReusePolicy::NoReuse`] allocates fresh qubits per round, removing the
///   false dependencies at the cost of extra area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub enum ReusePolicy {
    /// Reuse measured qubits from the previous round (smaller area, extra
    /// false dependencies).
    #[default]
    Reuse,
    /// Allocate fresh qubits for every round (larger area, fewer
    /// dependencies).
    NoReuse,
}

impl ReusePolicy {
    /// Short name used in reports ("R" / "NR", matching Table I of the paper).
    pub fn short_name(self) -> &'static str {
        match self {
            ReusePolicy::Reuse => "R",
            ReusePolicy::NoReuse => "NR",
        }
    }
}

/// Configuration of a multi-level Bravyi-Haah block-code factory.
///
/// A factory with per-level capacity `k` and `levels` rounds consumes
/// `(3k+8)^levels` raw input states and produces `k^levels` distilled output
/// states (Section II-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct FactoryConfig {
    /// Per-module output capacity `k` of the Bravyi-Haah protocol.
    pub k: usize,
    /// Number of block-code levels `ℓ`.
    pub levels: usize,
    /// Qubit-reuse policy across rounds.
    pub reuse: ReusePolicy,
    /// Whether to insert a scheduling barrier at the end of every round
    /// (Section V-A). Barriers expose the planarity of individual rounds and
    /// are required by the hierarchical-stitching mapper.
    pub barriers: bool,
}

impl FactoryConfig {
    /// Creates a configuration with per-level capacity `k` and `levels`
    /// rounds, qubit reuse enabled and barriers enabled.
    pub fn new(k: usize, levels: usize) -> Self {
        FactoryConfig {
            k,
            levels,
            reuse: ReusePolicy::Reuse,
            barriers: true,
        }
    }

    /// Creates a single-level factory of capacity `k`.
    pub fn single_level(k: usize) -> Self {
        Self::new(k, 1)
    }

    /// Creates a two-level factory with per-level capacity `k`
    /// (total capacity `k²`).
    pub fn two_level(k: usize) -> Self {
        Self::new(k, 2)
    }

    /// Creates a configuration from a *total* output capacity, which must be
    /// an exact `levels`-th power of an integer (e.g. total capacity 36 with
    /// two levels gives `k = 6`).
    ///
    /// # Errors
    ///
    /// Returns [`DistillError::CapacityNotAPower`] if no integer `k` satisfies
    /// `k^levels == capacity`, and [`DistillError::ZeroLevels`] /
    /// [`DistillError::ZeroCapacity`] for degenerate inputs.
    pub fn from_total_capacity(capacity: usize, levels: usize) -> Result<Self> {
        if levels == 0 {
            return Err(DistillError::ZeroLevels);
        }
        if capacity == 0 {
            return Err(DistillError::ZeroCapacity);
        }
        let not_a_power = DistillError::CapacityNotAPower { capacity, levels };
        let Ok(exp) = u32::try_from(levels) else {
            return Err(not_a_power);
        };
        let k = (capacity as f64).powf(1.0 / levels as f64).round() as usize;
        for candidate in [k.saturating_sub(1), k, k.saturating_add(1)] {
            if candidate >= 1 && candidate.checked_pow(exp) == Some(capacity) {
                return Ok(Self::new(candidate, levels));
            }
        }
        Err(not_a_power)
    }

    /// Sets the reuse policy.
    pub fn with_reuse(mut self, reuse: ReusePolicy) -> Self {
        self.reuse = reuse;
        self
    }

    /// Enables or disables inter-round barriers.
    pub fn with_barriers(mut self, barriers: bool) -> Self {
        self.barriers = barriers;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error for zero capacity or zero levels.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(DistillError::ZeroCapacity);
        }
        if self.levels == 0 {
            return Err(DistillError::ZeroLevels);
        }
        Ok(())
    }

    // The sizes below saturate at `usize::MAX` instead of wrapping, so a
    // configuration too large to build never reports a small size.

    /// Number of raw input states consumed by one module: `3k + 8`.
    pub fn inputs_per_module(&self) -> usize {
        self.k.saturating_mul(3).saturating_add(8)
    }

    /// Number of ancillary qubits used by one module: `k + 5`.
    pub fn ancillas_per_module(&self) -> usize {
        self.k.saturating_add(5)
    }

    /// Number of logical qubits in one module: `5k + 13`.
    pub fn qubits_per_module(&self) -> usize {
        self.k.saturating_mul(5).saturating_add(13)
    }

    /// Total output capacity of the factory: `k^levels`.
    pub fn capacity(&self) -> usize {
        checked_pow(self.k, self.levels).unwrap_or(usize::MAX)
    }

    /// Total number of raw input states consumed: `(3k+8)^levels`.
    pub fn total_raw_inputs(&self) -> usize {
        checked_pow(self.inputs_per_module(), self.levels).unwrap_or(usize::MAX)
    }

    /// Number of modules in round `round` (0-based): `(3k+8)^(ℓ-1-round) · k^round`.
    pub fn modules_in_round(&self, round: usize) -> usize {
        self.checked_modules_in_round(round).unwrap_or(usize::MAX)
    }

    /// Total number of modules across all rounds. Round 0 is the largest, so
    /// for a huge `levels` the sum overflows there and stops at once.
    pub fn total_modules(&self) -> usize {
        (0..self.levels)
            .try_fold(0usize, |sum, r| {
                sum.checked_add(self.checked_modules_in_round(r)?)
            })
            .unwrap_or(usize::MAX)
    }

    /// [`Self::modules_in_round`], or `None` when it does not fit in `usize`.
    fn checked_modules_in_round(&self, round: usize) -> Option<usize> {
        debug_assert!(round < self.levels);
        checked_pow(self.inputs_per_module(), self.levels - 1 - round)?
            .checked_mul(checked_pow(self.k, round)?)
    }
}

/// `base^exp`, or `None` when the power does not fit in `usize`.
fn checked_pow(base: usize, exp: usize) -> Option<usize> {
    base.checked_pow(u32::try_from(exp).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_level_counts_match_protocol() {
        let c = FactoryConfig::single_level(8);
        assert_eq!(c.inputs_per_module(), 32);
        assert_eq!(c.ancillas_per_module(), 13);
        assert_eq!(c.qubits_per_module(), 53);
        assert_eq!(c.capacity(), 8);
        assert_eq!(c.modules_in_round(0), 1);
        assert_eq!(c.total_modules(), 1);
    }

    #[test]
    fn two_level_module_counts() {
        let c = FactoryConfig::two_level(2);
        assert_eq!(c.capacity(), 4);
        assert_eq!(c.total_raw_inputs(), 14 * 14);
        assert_eq!(c.modules_in_round(0), 14);
        assert_eq!(c.modules_in_round(1), 2);
        assert_eq!(c.total_modules(), 16);
    }

    #[test]
    fn output_consumption_balances_between_rounds() {
        // Outputs of round r must exactly cover inputs of round r+1.
        for k in [2usize, 4, 6, 8, 10] {
            for levels in [2usize, 3] {
                let c = FactoryConfig::new(k, levels);
                for r in 0..levels - 1 {
                    let produced = c.modules_in_round(r) * k;
                    let consumed = c.modules_in_round(r + 1) * c.inputs_per_module();
                    assert_eq!(produced, consumed, "k={k} levels={levels} round={r}");
                }
            }
        }
    }

    #[test]
    fn from_total_capacity_finds_exact_roots() {
        assert_eq!(FactoryConfig::from_total_capacity(36, 2).unwrap().k, 6);
        assert_eq!(FactoryConfig::from_total_capacity(100, 2).unwrap().k, 10);
        assert_eq!(FactoryConfig::from_total_capacity(8, 1).unwrap().k, 8);
        assert_eq!(FactoryConfig::from_total_capacity(8, 3).unwrap().k, 2);
        assert!(FactoryConfig::from_total_capacity(5, 2).is_err());
        assert!(FactoryConfig::from_total_capacity(0, 2).is_err());
        assert!(FactoryConfig::from_total_capacity(4, 0).is_err());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(FactoryConfig::new(0, 1).validate().is_err());
        assert!(FactoryConfig::new(2, 0).validate().is_err());
        assert!(FactoryConfig::new(2, 1).validate().is_ok());
    }

    #[test]
    fn builder_style_setters() {
        let c = FactoryConfig::new(4, 2)
            .with_reuse(ReusePolicy::NoReuse)
            .with_barriers(false);
        assert_eq!(c.reuse, ReusePolicy::NoReuse);
        assert!(!c.barriers);
        assert_eq!(ReusePolicy::Reuse.short_name(), "R");
        assert_eq!(ReusePolicy::NoReuse.short_name(), "NR");
    }
}
