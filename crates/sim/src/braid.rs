//! Braid path construction on the mesh.

use msfu_layout::Coord;

/// A braid: the ordered list of mesh cells a two-qubit interaction reserves
/// for its duration (endpoints included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BraidPath {
    cells: Vec<Coord>,
}

impl BraidPath {
    /// Creates a braid from an explicit cell list (duplicates are removed,
    /// preserving first occurrence).
    pub fn new(cells: Vec<Coord>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let cells = cells.into_iter().filter(|c| seen.insert(*c)).collect();
        BraidPath { cells }
    }

    /// The cells of the braid.
    pub fn cells(&self) -> &[Coord] {
        &self.cells
    }

    /// Number of cells occupied.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` for an empty braid.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Merges another braid into this one (union of cells).
    pub fn merge(&mut self, other: &BraidPath) {
        for c in &other.cells {
            if !self.cells.contains(c) {
                self.cells.push(*c);
            }
        }
    }
}

/// Deterministic dimension-ordered (L-shaped) path: walk along the row of
/// `from` to the column of `to`, then along that column to `to`.
pub fn dimension_ordered_path(from: Coord, to: Coord) -> BraidPath {
    let mut cells = Vec::new();
    let mut col = from.col;
    cells.push(from);
    while col != to.col {
        if col < to.col {
            col += 1;
        } else {
            col -= 1;
        }
        cells.push(Coord::new(from.row, col));
    }
    let mut row = from.row;
    while row != to.row {
        if row < to.row {
            row += 1;
        } else {
            row -= 1;
        }
        cells.push(Coord::new(row, to.col));
    }
    BraidPath::new(cells)
}

/// Adaptive cheapest path from `from` to `to` on a `width`×`height` grid.
///
/// Cells for which `busy` returns `true` are forbidden (the endpoints are
/// always allowed); every other cell costs `1 + penalty(cell)` to traverse,
/// which lets the router prefer free corridors over cells that hold idle
/// resident qubits. Returns `None` when no path avoiding busy cells exists.
pub fn adaptive_path(
    from: Coord,
    to: Coord,
    width: usize,
    height: usize,
    busy: &dyn Fn(Coord) -> bool,
    penalty: &dyn Fn(Coord) -> u64,
) -> Option<BraidPath> {
    if from == to {
        return Some(BraidPath::new(vec![from]));
    }
    let idx = |c: Coord| c.row * width + c.col;
    let mut dist: Vec<u64> = vec![u64::MAX; width * height];
    let mut prev: Vec<Option<Coord>> = vec![None; width * height];
    dist[idx(from)] = 0;
    // Dijkstra over the grid (small node count, binary heap is plenty).
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize, Coord)>> =
        std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((0, idx(from), from)));
    while let Some(std::cmp::Reverse((d, i, cell))) = heap.pop() {
        if d > dist[i] {
            continue;
        }
        if cell == to {
            let mut path = vec![to];
            let mut cur = to;
            while let Some(p) = prev[idx(cur)] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(BraidPath::new(path));
        }
        for n in cell.neighbors(width, height) {
            if n != to && n != from && busy(n) {
                continue;
            }
            let step_cost = if n == to || n == from {
                1
            } else {
                1 + penalty(n)
            };
            let nd = d + step_cost;
            let ni = idx(n);
            if nd < dist[ni] {
                dist[ni] = nd;
                prev[ni] = Some(cell);
                heap.push(std::cmp::Reverse((nd, ni, n)));
            }
        }
    }
    None
}

/// Reusable workspace for [`adaptive_path_into`].
///
/// [`adaptive_path`] allocates `dist`/`prev` grids and a heap on every call,
/// which dominates routing cost when the simulator retries blocked braids.
/// The scratch holds those buffers across calls (and across simulation runs);
/// cheap epoch stamping replaces the per-call grid reset.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<u64>,
    prev: Vec<Coord>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize, Coord)>>,
}

impl DijkstraScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the grids for an `area`-cell mesh and opens a fresh epoch.
    fn begin(&mut self, area: usize) {
        if self.stamp.len() < area {
            self.dist.resize(area, 0);
            self.prev.resize(area, Coord::new(0, 0));
            self.stamp.resize(area, 0);
        }
        if self.epoch == u32::MAX {
            // Full clear, not just `..area`: stamps beyond the current mesh
            // would otherwise survive the wrap and collide with reused epoch
            // values if a later run grows the mesh again.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.heap.clear();
    }

    fn dist(&self, i: usize) -> u64 {
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            u64::MAX
        }
    }

    fn set_dist(&mut self, i: usize, d: u64) {
        self.stamp[i] = self.epoch;
        self.dist[i] = d;
    }
}

/// Allocation-free variant of [`adaptive_path`]: identical path (same cost
/// function, same tie-breaking), with the Dijkstra state drawn from `scratch`
/// and the resulting cells appended to `out`. Returns `false` — leaving `out`
/// untouched — when no path avoiding busy cells exists.
#[allow(clippy::too_many_arguments)]
pub fn adaptive_path_into(
    from: Coord,
    to: Coord,
    width: usize,
    height: usize,
    busy: &dyn Fn(Coord) -> bool,
    penalty: &dyn Fn(Coord) -> u64,
    scratch: &mut DijkstraScratch,
    out: &mut Vec<Coord>,
) -> bool {
    if from == to {
        out.push(from);
        return true;
    }
    let idx = |c: Coord| c.row * width + c.col;
    scratch.begin(width * height);
    scratch.set_dist(idx(from), 0);
    scratch.heap.push(std::cmp::Reverse((0, idx(from), from)));
    while let Some(std::cmp::Reverse((d, i, cell))) = scratch.heap.pop() {
        if d > scratch.dist(i) {
            continue;
        }
        if cell == to {
            let start = out.len();
            out.push(to);
            let mut cur = to;
            while cur != from {
                let p = scratch.prev[idx(cur)];
                out.push(p);
                cur = p;
            }
            out[start..].reverse();
            return true;
        }
        for n in cell.neighbors(width, height) {
            if n != to && n != from && busy(n) {
                continue;
            }
            let step_cost = if n == to || n == from {
                1
            } else {
                1 + penalty(n)
            };
            let nd = d + step_cost;
            let ni = idx(n);
            if nd < scratch.dist(ni) {
                scratch.set_dist(ni, nd);
                scratch.prev[ni] = cell;
                scratch.heap.push(std::cmp::Reverse((nd, ni, n)));
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_path_connects_endpoints() {
        let p = dimension_ordered_path(Coord::new(0, 0), Coord::new(3, 2));
        assert_eq!(p.cells().first(), Some(&Coord::new(0, 0)));
        assert_eq!(p.cells().last(), Some(&Coord::new(3, 2)));
        // Manhattan distance 5 means 6 cells.
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn l_path_same_cell_is_single() {
        let p = dimension_ordered_path(Coord::new(2, 2), Coord::new(2, 2));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn l_path_reverse_direction() {
        let p = dimension_ordered_path(Coord::new(3, 4), Coord::new(1, 1));
        assert_eq!(p.cells().first(), Some(&Coord::new(3, 4)));
        assert_eq!(p.cells().last(), Some(&Coord::new(1, 1)));
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn adaptive_path_matches_manhattan_when_clear() {
        let p =
            adaptive_path(Coord::new(0, 0), Coord::new(2, 3), 5, 5, &|_| false, &|_| 0).unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.cells().first(), Some(&Coord::new(0, 0)));
        assert_eq!(p.cells().last(), Some(&Coord::new(2, 3)));
    }

    #[test]
    fn adaptive_path_detours_around_busy_cells() {
        // Block the middle column except the top row.
        let busy = |c: Coord| c.col == 2 && c.row > 0;
        let p = adaptive_path(Coord::new(4, 0), Coord::new(4, 4), 5, 5, &busy, &|_| 0).unwrap();
        assert!(p.len() > 9, "detour must be longer than the direct path");
        for c in p.cells() {
            assert!(!(c.col == 2 && c.row > 0), "path used a busy cell {c}");
        }
    }

    #[test]
    fn adaptive_path_prefers_unoccupied_corridors() {
        // A direct path over two occupied cells vs a detour through a free
        // row: with a stiff penalty the detour wins.
        let occupied = |c: Coord| c.row == 0 && (c.col == 1 || c.col == 2);
        let p = adaptive_path(Coord::new(0, 0), Coord::new(0, 3), 4, 2, &|_| false, &|c| {
            if occupied(c) {
                10
            } else {
                0
            }
        })
        .unwrap();
        assert!(
            p.cells().iter().any(|c| c.row == 1),
            "path should detour through row 1"
        );
        assert!(!p.cells().iter().any(|c| occupied(*c)));
    }

    #[test]
    fn adaptive_path_fails_when_fully_blocked() {
        let busy = |c: Coord| c.col == 2;
        assert!(adaptive_path(Coord::new(0, 0), Coord::new(0, 4), 5, 5, &busy, &|_| 0).is_none());
    }

    #[test]
    fn braid_merge_unions_cells() {
        let mut a = BraidPath::new(vec![Coord::new(0, 0), Coord::new(0, 1)]);
        let b = BraidPath::new(vec![Coord::new(0, 1), Coord::new(0, 2)]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn braid_new_dedups() {
        let p = BraidPath::new(vec![Coord::new(0, 0), Coord::new(0, 0), Coord::new(1, 0)]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }
}
