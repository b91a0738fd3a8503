//! The plain-text table `table1` prints: Table I of the paper in its
//! short scientific notation.

/// A labelled table with one row per entry and one column per header, as
/// printed by `table1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers (the first column is the row label).
    pub headers: Vec<String>,
    /// Rows: a label plus one value per remaining header.
    pub rows: Vec<(String, Vec<Option<f64>>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row. `values` may contain `None` for cells the paper leaves
    /// blank (e.g. hierarchical stitching on single-level factories).
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<Option<f64>>) {
        self.rows.push((label.into(), values));
    }

    /// Renders the table as aligned plain text with scientific-notation cells,
    /// matching the style of Table I.
    ///
    /// Alignment is content-safe: blank (`None`) and missing trailing cells
    /// render as `-` in their own column, and columns widen past the default
    /// widths (label 14, values 12) when a label, header or cell would
    /// otherwise overflow and shift every column after it.
    pub fn to_text(&self) -> String {
        let value_columns = self.headers.len().saturating_sub(1);
        // Render every cell first so column widths can account for them; rows
        // shorter than the header count are padded with blank cells so each
        // header always has a column under it.
        let rendered: Vec<(&str, Vec<String>)> = self
            .rows
            .iter()
            .map(|(label, values)| {
                let mut cells: Vec<String> = values
                    .iter()
                    .map(|v| match v {
                        Some(x) => format_scientific(*x),
                        None => "-".to_string(),
                    })
                    .collect();
                while cells.len() < value_columns {
                    cells.push("-".to_string());
                }
                (label.as_str(), cells)
            })
            .collect();
        let label_width = std::iter::once(self.headers.first().map_or(0, String::len))
            .chain(rendered.iter().map(|(label, _)| label.len()))
            .map(|w| w + 1)
            .max()
            .unwrap_or(0)
            .max(14);
        let cell_width = self
            .headers
            .iter()
            .skip(1)
            .map(String::len)
            .chain(
                rendered
                    .iter()
                    .flat_map(|(_, cells)| cells.iter().map(String::len)),
            )
            .map(|w| w + 1)
            .max()
            .unwrap_or(0)
            .max(12);

        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        for (i, h) in self.headers.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("{h:<label_width$}"));
            } else {
                out.push_str(&format!("{h:>cell_width$}"));
            }
        }
        out.push('\n');
        for (label, cells) in &rendered {
            out.push_str(&format!("{label:<label_width$}"));
            for cell in cells {
                out.push_str(&format!("{cell:>cell_width$}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a value in the short scientific notation used by Table I of the
/// paper (e.g. `6.53e3`); values below 1000 are printed plainly.
pub fn format_scientific(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    if value.abs() < 1000.0 {
        if (value.fract()).abs() < 1e-9 {
            return format!("{}", value as i64);
        }
        return format!("{value:.2}");
    }
    let exponent = value.abs().log10().floor() as i32;
    let mantissa = value / 10f64.powi(exponent);
    format!("{mantissa:.2}e{exponent}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scientific_format_matches_paper_style() {
        assert_eq!(format_scientific(6530.0), "6.53e3");
        assert_eq!(format_scientific(1.19e6), "1.19e6");
        assert_eq!(format_scientific(0.0), "0");
        assert_eq!(format_scientific(42.0), "42");
        assert_eq!(format_scientific(3.5), "3.50");
    }

    #[test]
    fn default_widths_render_byte_identically_to_the_paper_style() {
        let mut t = Table::new("T", vec!["Procedure".into(), "K = 2".into()]);
        t.push_row("Line(R)", vec![Some(6530.0)]);
        t.push_row("HS", vec![None]);
        assert_eq!(
            t.to_text(),
            "# T\nProcedure            K = 2\nLine(R)             6.53e3\nHS                       -\n"
        );
    }

    #[test]
    fn blank_cells_stay_aligned_under_their_headers() {
        let mut t = Table::new("T", vec!["P".into(), "A".into(), "B".into(), "C".into()]);
        t.push_row("full", vec![Some(1.0), Some(2.0), Some(3.0)]);
        t.push_row("holes", vec![None, Some(2.0), None]);
        t.push_row("short", vec![Some(1.0)]); // missing trailing cells pad as '-'
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        let width = lines[1].len();
        for line in &lines[1..] {
            assert_eq!(line.len(), width, "misaligned row: {line:?}\n{text}");
        }
        // Every '-' sits exactly where the numbers of other rows end.
        let full = lines[2];
        let holes = lines[3];
        for (i, c) in holes.char_indices() {
            if c == '-' {
                assert_ne!(full.as_bytes()[i], b' ', "blank cell drifted\n{text}");
            }
        }
        assert_eq!(lines[4].matches('-').count(), 2, "{text}");
    }

    #[test]
    fn wide_labels_and_cells_widen_their_columns_instead_of_shifting() {
        let mut t = Table::new(
            "T",
            vec!["Procedure".into(), "K = 2".into(), "K = 4".into()],
        );
        t.push_row("a-very-long-strategy-name", vec![Some(1.0), None]);
        t.push_row("HS", vec![None, Some(2.32e5)]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        let width = lines[1].len();
        for line in &lines[1..] {
            assert_eq!(line.len(), width, "misaligned row: {line:?}\n{text}");
        }
        // Both rows' final cells end in the same column.
        assert!(lines[2].ends_with('-'));
        assert!(lines[3].ends_with("2.32e5"));
    }

    #[test]
    fn table_renders_labels_values_and_blanks() {
        let mut t = Table::new(
            "Quantum volumes",
            vec!["Procedure".into(), "K=2".into(), "K=4".into()],
        );
        t.push_row("Line(R)", vec![Some(6530.0), Some(11000.0)]);
        t.push_row("HS", vec![None, Some(2.32e5)]);
        let text = t.to_text();
        assert!(text.contains("Quantum volumes"));
        assert!(text.contains("6.53e3"));
        assert!(text.contains("1.10e4"));
        assert!(text.contains("2.32e5"));
        assert!(text.contains('-'));
        assert!(text.lines().count() >= 4);
    }
}
