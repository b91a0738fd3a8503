//! Grid coordinates and the logical-qubit → cell mapping.

use msfu_circuit::QubitId;
use msfu_graph::geometry::Point;

use crate::{LayoutError, Result};

/// A cell of the 2-D logical-qubit mesh, addressed by `(row, col)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord {
    /// Row index (0 at the top).
    pub row: usize,
    /// Column index (0 at the left).
    pub col: usize,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(row: usize, col: usize) -> Self {
        Coord { row, col }
    }

    /// Manhattan distance to another cell.
    pub fn manhattan_distance(&self, other: &Coord) -> usize {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }

    /// Converts to a continuous [`Point`] (x = column, y = row).
    pub fn to_point(self) -> Point {
        Point::new(self.col as f64, self.row as f64)
    }

    /// The four orthogonal neighbours that stay within a `width`×`height`
    /// grid.
    pub fn neighbors(&self, width: usize, height: usize) -> Vec<Coord> {
        let mut out = Vec::with_capacity(4);
        if self.row > 0 {
            out.push(Coord::new(self.row - 1, self.col));
        }
        if self.row + 1 < height {
            out.push(Coord::new(self.row + 1, self.col));
        }
        if self.col > 0 {
            out.push(Coord::new(self.row, self.col - 1));
        }
        if self.col + 1 < width {
            out.push(Coord::new(self.row, self.col + 1));
        }
        out
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// A placement of logical qubits onto a `width`×`height` grid of surface-code
/// tiles. Each qubit occupies at most one cell and each cell holds at most one
/// qubit; braids route through cells, so unoccupied cells are routing slack.
///
/// # Example
///
/// ```
/// use msfu_circuit::QubitId;
/// use msfu_layout::{Coord, Mapping};
///
/// let mut m = Mapping::new(3, 3, 2);
/// m.place(QubitId::new(0), Coord::new(0, 0)).unwrap();
/// m.place(QubitId::new(1), Coord::new(1, 2)).unwrap();
/// m.place(QubitId::new(2), Coord::new(0, 1)).unwrap();
/// assert!(m.is_complete());
/// assert_eq!(m.used_area(), 6); // bounding box 2 rows x 3 cols
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Mapping {
    num_qubits: usize,
    width: usize,
    height: usize,
    /// position[q] = cell of qubit q, if placed.
    position: Vec<Option<Coord>>,
    /// occupant[row * width + col] = qubit occupying the cell, if any.
    occupant: Vec<Option<QubitId>>,
}

impl Mapping {
    /// Creates an empty mapping for `num_qubits` qubits on a `width`×`height`
    /// grid.
    pub fn new(num_qubits: usize, width: usize, height: usize) -> Self {
        Mapping {
            num_qubits,
            width,
            height,
            position: vec![None; num_qubits],
            occupant: vec![None; width * height],
        }
    }

    /// Grid width (number of columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (number of rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of qubits this mapping covers.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total number of grid cells.
    pub fn grid_area(&self) -> usize {
        self.width * self.height
    }

    fn cell_index(&self, cell: Coord) -> usize {
        cell.row * self.width + cell.col
    }

    /// Places a qubit on a cell.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::OutOfBounds`] if the cell is outside the grid
    /// and [`LayoutError::CellOccupied`] if another qubit already occupies it.
    /// Re-placing an already placed qubit moves it.
    pub fn place(&mut self, qubit: QubitId, cell: Coord) -> Result<()> {
        if cell.row >= self.height || cell.col >= self.width {
            return Err(LayoutError::OutOfBounds {
                cell,
                width: self.width,
                height: self.height,
            });
        }
        let idx = self.cell_index(cell);
        if let Some(existing) = self.occupant[idx] {
            if existing != qubit {
                return Err(LayoutError::CellOccupied {
                    cell,
                    occupant: existing,
                    claimant: qubit,
                });
            }
        }
        // Clear any previous position of this qubit.
        if let Some(old) = self.position[qubit.index()] {
            let old_idx = self.cell_index(old);
            self.occupant[old_idx] = None;
        }
        self.position[qubit.index()] = Some(cell);
        self.occupant[idx] = Some(qubit);
        Ok(())
    }

    /// Position of a qubit, if placed.
    pub fn position(&self, qubit: QubitId) -> Option<Coord> {
        self.position.get(qubit.index()).copied().flatten()
    }

    /// Position of a qubit, as an error if unplaced.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Unmapped`] when the qubit has no position.
    pub fn require_position(&self, qubit: QubitId) -> Result<Coord> {
        self.position(qubit).ok_or(LayoutError::Unmapped { qubit })
    }

    /// Qubit occupying a cell, if any.
    pub fn occupant(&self, cell: Coord) -> Option<QubitId> {
        if cell.row >= self.height || cell.col >= self.width {
            return None;
        }
        self.occupant[self.cell_index(cell)]
    }

    /// Returns `true` when every qubit has a position.
    pub fn is_complete(&self) -> bool {
        self.position.iter().all(Option::is_some)
    }

    /// Swaps the positions of two qubits (both must already be placed).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Unmapped`] if either qubit is unplaced.
    pub fn swap(&mut self, a: QubitId, b: QubitId) -> Result<()> {
        let pa = self.require_position(a)?;
        let pb = self.require_position(b)?;
        self.position[a.index()] = Some(pb);
        self.position[b.index()] = Some(pa);
        let idx_a = self.cell_index(pa);
        let idx_b = self.cell_index(pb);
        self.occupant[idx_a] = Some(b);
        self.occupant[idx_b] = Some(a);
        Ok(())
    }

    /// Moves a qubit to an empty cell.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Mapping::place`], plus [`LayoutError::Unmapped`]
    /// if the qubit was never placed.
    pub fn relocate(&mut self, qubit: QubitId, cell: Coord) -> Result<()> {
        self.require_position(qubit)?;
        self.place(qubit, cell)
    }

    /// Cells not currently occupied by any qubit.
    pub fn free_cells(&self) -> Vec<Coord> {
        let mut out = Vec::new();
        for row in 0..self.height {
            for col in 0..self.width {
                let c = Coord::new(row, col);
                if self.occupant(c).is_none() {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Number of occupied cells.
    pub fn occupied_count(&self) -> usize {
        self.position.iter().filter(|p| p.is_some()).count()
    }

    /// Area of the bounding box of all occupied cells (0 when nothing is
    /// placed). This is the "Area (qubits)" metric reported by Fig. 10 of the
    /// paper: the logical footprint actually consumed by the factory.
    pub fn used_area(&self) -> usize {
        let occupied: Vec<Coord> = self.position.iter().flatten().copied().collect();
        if occupied.is_empty() {
            return 0;
        }
        let min_row = occupied.iter().map(|c| c.row).min().unwrap();
        let max_row = occupied.iter().map(|c| c.row).max().unwrap();
        let min_col = occupied.iter().map(|c| c.col).min().unwrap();
        let max_col = occupied.iter().map(|c| c.col).max().unwrap();
        (max_row - min_row + 1) * (max_col - min_col + 1)
    }

    /// Continuous positions (one [`Point`] per qubit) for metric computation;
    /// unplaced qubits map to the origin.
    pub fn to_points(&self) -> Vec<Point> {
        self.position
            .iter()
            .map(|p| p.map(Coord::to_point).unwrap_or_default())
            .collect()
    }

    /// Grows the grid by appending `extra_rows` rows at the bottom, keeping
    /// all existing placements.
    pub fn grow_rows(&mut self, extra_rows: usize) {
        self.height += extra_rows;
        self.occupant.resize(self.width * self.height, None);
    }
}

/// `{:?}` is byte-identical to the derived form, written straight through a
/// small stack buffer: evaluation cache keys render whole mappings (up to
/// ~10⁴ cells), where the derive's per-field formatter calls dominate.
/// Any other formatting flag (`{:#?}`, a width, a precision, `+`) goes
/// through [`std::fmt::Formatter::debug_struct`], so the flag reaches every
/// field exactly as the derive would pass it. The unstable hex-debug flags
/// (`{:x?}`) cannot be detected and are ignored.
impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if f.alternate() || f.width().is_some() || f.precision().is_some() || f.sign_plus() {
            return f
                .debug_struct("Mapping")
                .field("num_qubits", &self.num_qubits)
                .field("width", &self.width)
                .field("height", &self.height)
                .field("position", &self.position)
                .field("occupant", &self.occupant)
                .finish();
        }
        let mut out = DebugBuffer::new(f);
        out.room()?;
        out.text(b"Mapping { num_qubits: ");
        out.number(self.num_qubits);
        out.text(b", width: ");
        out.number(self.width);
        out.text(b", height: ");
        out.number(self.height);
        out.room()?;
        out.text(b", position: [");
        for (i, cell) in self.position.iter().enumerate() {
            out.room()?;
            if i > 0 {
                out.text(b", ");
            }
            match cell {
                Some(cell) => {
                    out.text(b"Some(Coord { row: ");
                    out.number(cell.row);
                    out.text(b", col: ");
                    out.number(cell.col);
                    out.text(b" })");
                }
                None => out.text(b"None"),
            }
        }
        out.room()?;
        out.text(b"], occupant: [");
        for (i, qubit) in self.occupant.iter().enumerate() {
            out.room()?;
            if i > 0 {
                out.text(b", ");
            }
            match qubit {
                Some(qubit) => {
                    out.text(b"Some(QubitId(");
                    out.number(qubit.index());
                    out.text(b"))");
                }
                None => out.text(b"None"),
            }
        }
        out.room()?;
        out.text(b"] }");
        out.flush()
    }
}

/// Collects ASCII text in a fixed buffer and hands it to a formatter a
/// buffer at a time. Text is written in pieces of at most [`Self::PIECE`]
/// bytes, each after a [`DebugBuffer::room`] call, so a write never has to
/// flush.
struct DebugBuffer<'a, 'f> {
    f: &'a mut std::fmt::Formatter<'f>,
    buf: [u8; 1024],
    len: usize,
}

impl<'a, 'f> DebugBuffer<'a, 'f> {
    /// Longest piece: a `Mapping`'s first three fields, or one `position`
    /// element, with every number at its longest (20 digits).
    const PIECE: usize = 128;

    fn new(f: &'a mut std::fmt::Formatter<'f>) -> Self {
        DebugBuffer {
            f,
            buf: [0; 1024],
            len: 0,
        }
    }

    /// Makes room for one more piece, flushing the buffer if needed.
    fn room(&mut self) -> std::fmt::Result {
        if self.len + Self::PIECE > self.buf.len() {
            self.flush()?;
        }
        Ok(())
    }

    /// Appends ASCII `text`.
    fn text(&mut self, text: &[u8]) {
        self.buf[self.len..self.len + text.len()].copy_from_slice(text);
        self.len += text.len();
    }

    /// Appends `n` in decimal.
    fn number(&mut self, mut n: usize) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.text(&digits[start..]);
    }

    /// Writes out and empties the buffer.
    fn flush(&mut self) -> std::fmt::Result {
        let text = std::str::from_utf8(&self.buf[..self.len]).map_err(|_| std::fmt::Error)?;
        self.f.write_str(text)?;
        self.len = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn coord_distance_and_neighbors() {
        let a = Coord::new(1, 1);
        let b = Coord::new(3, 4);
        assert_eq!(a.manhattan_distance(&b), 5);
        assert_eq!(a.to_point(), Point::new(1.0, 1.0));
        assert_eq!(a.neighbors(5, 5).len(), 4);
        assert_eq!(Coord::new(0, 0).neighbors(5, 5).len(), 2);
        assert_eq!(Coord::new(0, 0).neighbors(1, 1).len(), 0);
    }

    #[test]
    fn place_and_query() {
        let mut m = Mapping::new(2, 3, 3);
        m.place(q(0), Coord::new(0, 0)).unwrap();
        m.place(q(1), Coord::new(2, 2)).unwrap();
        assert_eq!(m.position(q(0)), Some(Coord::new(0, 0)));
        assert_eq!(m.occupant(Coord::new(2, 2)), Some(q(1)));
        assert!(m.is_complete());
        assert_eq!(m.occupied_count(), 2);
    }

    #[test]
    fn place_rejects_conflicts_and_out_of_bounds() {
        let mut m = Mapping::new(2, 2, 2);
        m.place(q(0), Coord::new(0, 0)).unwrap();
        let err = m.place(q(1), Coord::new(0, 0)).unwrap_err();
        assert!(matches!(err, LayoutError::CellOccupied { .. }));
        let err = m.place(q(1), Coord::new(5, 0)).unwrap_err();
        assert!(matches!(err, LayoutError::OutOfBounds { .. }));
    }

    #[test]
    fn replace_moves_the_qubit() {
        let mut m = Mapping::new(1, 3, 1);
        m.place(q(0), Coord::new(0, 0)).unwrap();
        m.place(q(0), Coord::new(0, 2)).unwrap();
        assert_eq!(m.position(q(0)), Some(Coord::new(0, 2)));
        assert_eq!(m.occupant(Coord::new(0, 0)), None);
    }

    #[test]
    fn swap_exchanges_positions() {
        let mut m = Mapping::new(2, 2, 1);
        m.place(q(0), Coord::new(0, 0)).unwrap();
        m.place(q(1), Coord::new(0, 1)).unwrap();
        m.swap(q(0), q(1)).unwrap();
        assert_eq!(m.position(q(0)), Some(Coord::new(0, 1)));
        assert_eq!(m.occupant(Coord::new(0, 0)), Some(q(1)));
    }

    #[test]
    fn swap_requires_both_placed() {
        let mut m = Mapping::new(2, 2, 1);
        m.place(q(0), Coord::new(0, 0)).unwrap();
        assert!(matches!(
            m.swap(q(0), q(1)),
            Err(LayoutError::Unmapped { .. })
        ));
    }

    #[test]
    fn used_area_is_bounding_box() {
        let mut m = Mapping::new(2, 10, 10);
        m.place(q(0), Coord::new(2, 2)).unwrap();
        m.place(q(1), Coord::new(4, 5)).unwrap();
        assert_eq!(m.used_area(), 3 * 4);
        assert_eq!(m.grid_area(), 100);
    }

    #[test]
    fn free_cells_shrink_as_qubits_are_placed() {
        let mut m = Mapping::new(1, 2, 2);
        assert_eq!(m.free_cells().len(), 4);
        m.place(q(0), Coord::new(1, 1)).unwrap();
        assert_eq!(m.free_cells().len(), 3);
    }

    #[test]
    fn grow_rows_preserves_placements() {
        let mut m = Mapping::new(1, 2, 2);
        m.place(q(0), Coord::new(1, 1)).unwrap();
        m.grow_rows(3);
        assert_eq!(m.height(), 5);
        assert_eq!(m.position(q(0)), Some(Coord::new(1, 1)));
        assert_eq!(m.occupant(Coord::new(4, 1)), None);
        m.place(QubitId::new(0), Coord::new(4, 0)).unwrap();
        assert_eq!(m.position(q(0)), Some(Coord::new(4, 0)));
    }

    #[test]
    fn to_points_defaults_unplaced_to_origin() {
        let mut m = Mapping::new(2, 3, 3);
        m.place(q(1), Coord::new(2, 1)).unwrap();
        let pts = m.to_points();
        assert_eq!(pts[0], Point::new(0.0, 0.0));
        assert_eq!(pts[1], Point::new(1.0, 2.0));
        assert_eq!(m.used_area(), 1);
    }

    /// What `#[derive(Debug)]` prints for a `Mapping`: same name, same
    /// fields in the same order.
    mod derived {
        use super::{Coord, QubitId};

        #[derive(Debug)]
        #[allow(dead_code)] // read only through Debug
        pub(super) struct Mapping {
            pub(super) num_qubits: usize,
            pub(super) width: usize,
            pub(super) height: usize,
            pub(super) position: Vec<Option<Coord>>,
            pub(super) occupant: Vec<Option<QubitId>>,
        }
    }

    #[test]
    fn debug_is_byte_identical_to_the_derived_form() {
        let empty = Mapping::new(0, 0, 0);
        let mut partial = Mapping::new(3, 3, 2);
        partial.place(q(1), Coord::new(1, 2)).unwrap();
        // Qubit i on cell i, row by row.
        let filled = |qubits: u32, width: usize, height: usize| {
            let mut m = Mapping::new(qubits as usize, width, height);
            for i in 0..qubits {
                let cell = i as usize;
                m.place(q(i), Coord::new(cell / width, cell % width))
                    .unwrap();
            }
            m
        };
        let complete = filled(4, 2, 2);
        // Five-digit indices, and far more text than one buffer holds.
        let mut large = filled(10_050, 101, 100);
        large.place(q(10_049), Coord::new(99, 100)).unwrap();
        for m in [&empty, &partial, &complete, &large] {
            let shadow = derived::Mapping {
                num_qubits: m.num_qubits,
                width: m.width,
                height: m.height,
                position: m.position.clone(),
                occupant: m.occupant.clone(),
            };
            assert_eq!(format!("{m:?}"), format!("{shadow:?}"));
            assert_eq!(format!("{m:#?}"), format!("{shadow:#?}"));
            assert_eq!(format!("{m:3?}"), format!("{shadow:3?}"));
        }
        assert!(format!("{large:?}").contains("Some(QubitId(10049))"));
    }
}
