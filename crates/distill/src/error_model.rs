//! Analytical error model of the Bravyi-Haah protocol.
//!
//! The `(3k+8) → k` protocol suppresses the injected-state error rate
//! quadratically: an input error rate ε yields an output error rate of
//! `(1 + 3k)·ε²`, and succeeds (to first order) with probability
//! `1 − (8 + 3k)·ε` (Section II-F of the paper). Multi-level block codes
//! iterate the suppression (Section II-G).

/// Output error rate of a single Bravyi-Haah module of capacity `k` fed with
/// states of error rate `eps_in`: `(1 + 3k)·ε²`, clamped to `[0, 1]`.
///
/// # Example
///
/// ```
/// let out = msfu_distill::error_model::output_error(8, 1e-3);
/// assert!((out - 25e-6).abs() < 1e-9);
/// ```
pub fn output_error(k: usize, eps_in: f64) -> f64 {
    ((1.0 + 3.0 * k as f64) * eps_in * eps_in).clamp(0.0, 1.0)
}

/// First-order success probability of a single module of capacity `k` fed
/// with states of error rate `eps_in`: `1 − (8 + 3k)·ε`, clamped to `[0, 1]`.
pub fn success_probability(k: usize, eps_in: f64) -> f64 {
    (1.0 - (8.0 + 3.0 * k as f64) * eps_in).clamp(0.0, 1.0)
}

/// Error rate after `levels` recursive applications of the protocol starting
/// from injected states of error rate `eps_inject`.
pub fn error_after_levels(k: usize, levels: usize, eps_inject: f64) -> f64 {
    let mut eps = eps_inject;
    for _ in 0..levels {
        eps = output_error(k, eps);
    }
    eps
}

/// Error rate of the states entering round `round` (0-based): the injected
/// error for round 0, the once-distilled error for round 1, and so on.
pub fn input_error_at_round(k: usize, round: usize, eps_inject: f64) -> f64 {
    error_after_levels(k, round, eps_inject)
}

/// Smallest number of levels for which the output error rate drops to
/// `target` or below, starting from `eps_inject`. Returns `None` if the
/// protocol does not converge (i.e. the input error is too large for the
/// quadratic suppression to win) within 16 levels.
pub fn required_levels(k: usize, eps_inject: f64, target: f64) -> Option<usize> {
    let mut eps = eps_inject;
    for level in 0..=16 {
        if eps <= target {
            return Some(level);
        }
        let next = output_error(k, eps);
        if next >= eps {
            return None;
        }
        eps = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_error_matches_formula() {
        let eps = 1e-3;
        assert!((output_error(2, eps) - 7.0 * eps * eps).abs() < 1e-15);
        assert!((output_error(8, eps) - 25.0 * eps * eps).abs() < 1e-15);
    }

    #[test]
    fn output_error_is_clamped() {
        assert_eq!(output_error(8, 1.0), 1.0);
        assert_eq!(output_error(8, 0.0), 0.0);
    }

    #[test]
    fn success_probability_decreases_with_k_and_eps() {
        assert!(success_probability(2, 1e-3) > success_probability(24, 1e-3));
        assert!(success_probability(8, 1e-4) > success_probability(8, 1e-2));
        assert_eq!(success_probability(8, 0.5), 0.0);
    }

    #[test]
    fn levels_compose_quadratically() {
        let eps = 1e-3;
        let one = error_after_levels(4, 1, eps);
        let two = error_after_levels(4, 2, eps);
        assert!((two - output_error(4, one)).abs() < 1e-18);
        assert!(two < one && one < eps);
    }

    #[test]
    fn input_error_at_round_zero_is_injection_error() {
        assert_eq!(input_error_at_round(4, 0, 1e-3), 1e-3);
        assert_eq!(input_error_at_round(4, 1, 1e-3), output_error(4, 1e-3));
    }

    #[test]
    fn required_levels_finds_minimum() {
        // eps = 1e-3, k = 8: one level reaches 2.5e-5, two levels ~1.6e-8.
        assert_eq!(required_levels(8, 1e-3, 1e-2), Some(0));
        assert_eq!(required_levels(8, 1e-3, 1e-4), Some(1));
        assert_eq!(required_levels(8, 1e-3, 1e-7), Some(2));
    }

    #[test]
    fn required_levels_detects_divergence() {
        // With a very high injection error the protocol cannot improve.
        assert_eq!(required_levels(8, 0.5, 1e-9), None);
    }
}
