//! Randomised placement ("Random" in Table I and the mapping generator for
//! the Fig. 6 metric-correlation study).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use msfu_circuit::QubitId;
use msfu_distill::Factory;

use crate::{Coord, FactoryMapper, Layout, LayoutError, Mapping, Result};

/// Largest grid a [`RandomMapper`] builds, in cells per placed qubit. A larger
/// expansion is rejected rather than allocated.
const MAX_CELLS_PER_QUBIT: usize = 64;

/// Places qubits uniformly at random onto a square grid.
///
/// The grid side is `ceil(sqrt(n · expansion))`; an expansion factor of 1.0
/// gives the most compact square that holds all qubits, larger values leave
/// free cells as routing slack, up to 64 cells per qubit.
#[derive(Debug, Clone)]
pub struct RandomMapper {
    seed: u64,
    expansion: f64,
}

impl RandomMapper {
    /// Creates a mapper with the given RNG seed and an expansion factor of 1.0.
    pub fn new(seed: u64) -> Self {
        RandomMapper {
            seed,
            expansion: 1.0,
        }
    }

    /// Sets the grid expansion factor (≥ 1.0).
    pub fn with_expansion(mut self, expansion: f64) -> Self {
        self.expansion = expansion.max(1.0);
        self
    }

    /// Produces a random placement of `num_qubits` qubits, independent of any
    /// factory structure. Useful for the Fig. 6 study which randomises the
    /// mapping of a fixed circuit.
    ///
    /// # Errors
    ///
    /// [`LayoutError::InvalidMapperParam`] when the expansion is not finite
    /// or asks for more than 64 cells per qubit.
    pub fn map_qubits(&self, num_qubits: usize) -> Result<Mapping> {
        if num_qubits == 0 {
            return Err(LayoutError::UnsupportedFactory {
                reason: "no qubits to place".into(),
            });
        }
        // An infinite or huge expansion saturates the cast, so the checked
        // square below fails instead of allocating.
        let side = ((num_qubits as f64 * self.expansion).sqrt().ceil() as usize).max(1);
        side.checked_mul(side)
            .filter(|cells| *cells <= num_qubits.saturating_mul(MAX_CELLS_PER_QUBIT))
            .ok_or_else(|| LayoutError::InvalidMapperParam {
                mapper: "random".into(),
                reason: format!(
                    "expansion {:?} exceeds {MAX_CELLS_PER_QUBIT} cells per qubit",
                    self.expansion
                ),
            })?;
        let mut mapping = Mapping::new(num_qubits, side, side);
        let mut cells: Vec<Coord> = (0..side)
            .flat_map(|r| (0..side).map(move |c| Coord::new(r, c)))
            .collect();
        if cells.len() < num_qubits {
            return Err(LayoutError::GridTooSmall {
                qubits: num_qubits,
                cells: cells.len(),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        cells.shuffle(&mut rng);
        for (i, cell) in cells.into_iter().take(num_qubits).enumerate() {
            mapping.place(QubitId::new(i as u32), cell)?;
        }
        Ok(mapping)
    }
}

impl FactoryMapper for RandomMapper {
    fn name(&self) -> &'static str {
        "random"
    }

    fn map_factory(&self, factory: &Factory) -> Result<Layout> {
        Ok(Layout::new(self.map_qubits(factory.num_qubits())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_distill::FactoryConfig;

    #[test]
    fn random_placement_is_complete_and_collision_free() {
        let f = Factory::build(&FactoryConfig::single_level(8)).unwrap();
        let layout = RandomMapper::new(1).map_factory(&f).unwrap();
        assert!(layout.mapping.is_complete());
        let mut seen = std::collections::HashSet::new();
        for q in 0..f.num_qubits() as u32 {
            assert!(seen.insert(layout.mapping.position(QubitId::new(q)).unwrap()));
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = RandomMapper::new(42).map_qubits(30).unwrap();
        let b = RandomMapper::new(42).map_qubits(30).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = RandomMapper::new(1).map_qubits(30).unwrap();
        let b = RandomMapper::new(2).map_qubits(30).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn expansion_grows_the_grid() {
        let compact = RandomMapper::new(1).map_qubits(25).unwrap();
        let sparse = RandomMapper::new(1)
            .with_expansion(2.0)
            .map_qubits(25)
            .unwrap();
        assert!(sparse.grid_area() > compact.grid_area());
        assert_eq!(compact.grid_area(), 25);
    }

    #[test]
    fn zero_qubits_is_an_error() {
        assert!(RandomMapper::new(0).map_qubits(0).is_err());
    }

    #[test]
    fn oversized_or_infinite_expansion_is_a_typed_error() {
        for expansion in [1e12, 1e300, f64::INFINITY, 65.0] {
            assert!(
                matches!(
                    RandomMapper::new(1)
                        .with_expansion(expansion)
                        .map_qubits(16),
                    Err(LayoutError::InvalidMapperParam { .. })
                ),
                "expansion {expansion}"
            );
        }
        // Exactly the cap: a 32 x 32 grid for 16 qubits.
        let m = RandomMapper::new(1)
            .with_expansion(64.0)
            .map_qubits(16)
            .unwrap();
        assert_eq!(m.grid_area(), 16 * MAX_CELLS_PER_QUBIT);
    }

    #[test]
    fn expansion_below_one_is_clamped() {
        let m = RandomMapper::new(1)
            .with_expansion(0.1)
            .map_qubits(9)
            .unwrap();
        assert_eq!(m.grid_area(), 9);
    }
}
