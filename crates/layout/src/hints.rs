//! Routing hints handed from the mapper to the braid simulator.

use std::collections::HashMap;

use msfu_circuit::QubitId;

use crate::Coord;

/// Per-interaction routing hints produced by a mapper and consumed by the
/// braid router.
///
/// Today the only hint is a *waypoint* (Valiant-style intermediate
/// destination, Section VII-B3 of the paper): a braid between the hinted
/// qubit pair is routed source → waypoint → destination instead of directly.
/// Hints are keyed by the unordered qubit pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingHints {
    waypoints: HashMap<(QubitId, QubitId), Coord>,
}

impl RoutingHints {
    /// Creates an empty hint set.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(a: QubitId, b: QubitId) -> (QubitId, QubitId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Registers a waypoint for braids between `a` and `b` (order
    /// irrelevant). A later registration for the same pair overwrites the
    /// earlier one.
    pub fn set_waypoint(&mut self, a: QubitId, b: QubitId, waypoint: Coord) {
        self.waypoints.insert(Self::key(a, b), waypoint);
    }

    /// The waypoint registered for the pair, if any.
    pub fn waypoint(&self, a: QubitId, b: QubitId) -> Option<Coord> {
        self.waypoints.get(&Self::key(a, b)).copied()
    }

    /// Number of registered waypoints.
    pub fn len(&self) -> usize {
        self.waypoints.len()
    }

    /// Returns `true` when no hints are registered.
    pub fn is_empty(&self) -> bool {
        self.waypoints.is_empty()
    }

    /// Iterates over `((a, b), waypoint)` entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&(QubitId, QubitId), &Coord)> {
        self.waypoints.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn waypoints_are_order_insensitive() {
        let mut h = RoutingHints::new();
        h.set_waypoint(q(3), q(1), Coord::new(2, 2));
        assert_eq!(h.waypoint(q(1), q(3)), Some(Coord::new(2, 2)));
        assert_eq!(h.waypoint(q(3), q(1)), Some(Coord::new(2, 2)));
        assert_eq!(h.waypoint(q(1), q(2)), None);
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
    }

    #[test]
    fn later_registration_overwrites() {
        let mut h = RoutingHints::new();
        h.set_waypoint(q(0), q(1), Coord::new(0, 0));
        h.set_waypoint(q(1), q(0), Coord::new(5, 5));
        assert_eq!(h.waypoint(q(0), q(1)), Some(Coord::new(5, 5)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn default_is_empty() {
        let h = RoutingHints::default();
        assert!(h.is_empty());
        assert_eq!(h.iter().count(), 0);
    }
}
