//! Per-round breakdown of a mapped factory (the iterative flow of Fig. 3 and
//! the permutation-step study of Fig. 9c/9d).
//!
//! The end-to-end simulation of [`crate::evaluate`] reports the total latency;
//! this module additionally simulates each round's circuit and each
//! inter-round permutation step in isolation under the same layout, which is
//! how the paper quantifies where multi-level factories spend their time.

use serde::Serialize;

use msfu_distill::Factory;
use msfu_layout::Layout;
use msfu_sim::{BatchEngine, SimConfig};

use crate::evaluate::{run_one_lane, with_thread_batch_engine};
use crate::Result;

/// Latency breakdown of one round of a mapped factory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RoundBreakdown {
    /// Round index (0-based).
    pub round: usize,
    /// Cycles spent executing the round's own gates (simulated in isolation).
    pub round_cycles: u64,
    /// Cycles spent on the permutation step that feeds the *next* round
    /// (zero for the final round).
    pub permutation_cycles: u64,
}

/// Simulates every round and every inter-round permutation step of a mapped
/// factory in isolation.
///
/// The sum of the per-round figures generally differs from the end-to-end
/// latency (rounds overlap slightly at their boundaries unless barriers are
/// present), but the split shows where the time goes — in particular how
/// expensive the permutation steps are for each mapping strategy.
///
/// # Errors
///
/// Propagates simulation failures (e.g. unplaced qubits).
pub fn per_round_breakdown(
    factory: &Factory,
    layout: &Layout,
    sim: &SimConfig,
) -> Result<Vec<RoundBreakdown>> {
    with_thread_batch_engine(*sim, |engine| {
        per_round_breakdown_with(engine, factory, layout)
    })
}

/// [`per_round_breakdown`] on a caller-held, already configured
/// [`BatchEngine`]: each round and permutation circuit runs as a one-lane
/// batch through one set of arenas.
pub(crate) fn per_round_breakdown_with(
    engine: &mut BatchEngine,
    factory: &Factory,
    layout: &Layout,
) -> Result<Vec<RoundBreakdown>> {
    let mut out = Vec::with_capacity(factory.rounds().len());
    for round in 0..factory.rounds().len() {
        let round_circuit = factory.round_circuit(round);
        let round_cycles = run_one_lane(engine, &round_circuit, layout)?.cycles;
        let permutation_cycles = if round + 1 < factory.rounds().len() {
            let perm = factory.permutation_circuit(round);
            run_one_lane(engine, &perm, layout)?.cycles
        } else {
            0
        };
        out.push(RoundBreakdown {
            round,
            round_cycles,
            permutation_cycles,
        });
    }
    Ok(out)
}

/// Total permutation cycles across all rounds (the quantity plotted in
/// Fig. 9d).
pub fn total_permutation_cycles(breakdown: &[RoundBreakdown]) -> u64 {
    breakdown.iter().map(|b| b.permutation_cycles).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_distill::FactoryConfig;
    use msfu_layout::{FactoryMapper, HierarchicalStitchingMapper, LinearMapper};

    #[test]
    fn breakdown_covers_every_round() {
        let factory = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let layout = LinearMapper::new().map_factory(&factory).unwrap();
        let breakdown = per_round_breakdown(&factory, &layout, &SimConfig::default()).unwrap();
        assert_eq!(breakdown.len(), 2);
        assert!(breakdown[0].round_cycles > 0);
        assert!(breakdown[0].permutation_cycles > 0);
        assert_eq!(breakdown[1].permutation_cycles, 0);
        assert!(total_permutation_cycles(&breakdown) > 0);
    }

    #[test]
    fn single_level_has_no_permutation_step() {
        let factory = Factory::build(&FactoryConfig::single_level(4)).unwrap();
        let layout = LinearMapper::new().map_factory(&factory).unwrap();
        let breakdown = per_round_breakdown(&factory, &layout, &SimConfig::default()).unwrap();
        assert_eq!(breakdown.len(), 1);
        assert_eq!(total_permutation_cycles(&breakdown), 0);
    }

    #[test]
    fn stitching_layout_also_breaks_down() {
        let base = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let layout = HierarchicalStitchingMapper::new(1)
            .map_factory(&base)
            .unwrap();
        let factory = base.apply_port_assignment(&layout.ports).unwrap();
        let breakdown = per_round_breakdown(&factory, &layout, &SimConfig::default()).unwrap();
        assert_eq!(breakdown.len(), 2);
        assert!(breakdown.iter().all(|b| b.round_cycles > 0));
    }
}
