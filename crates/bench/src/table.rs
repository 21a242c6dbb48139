//! Plain-text table formatting for the paper artefacts.

/// One table cell: the text a reader sees and, for numeric cells, the
/// unrounded number behind it (what `tests/paper_claims.rs` compares).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    text: String,
    value: Option<f64>,
}

impl From<String> for Cell {
    fn from(text: String) -> Self {
        Self { text, value: None }
    }
}

impl From<&str> for Cell {
    fn from(text: &str) -> Self {
        text.to_string().into()
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(&self.text)
    }
}

/// A simple fixed-width table builder that prints results in the same
/// row/column structure as the paper's tables.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<Cell>>,
    notes: String,
}

impl TableBuilder {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: String::new(),
        }
    }

    /// Adds a data row.
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Sets free text printed verbatim after the table.
    pub fn notes(&mut self, notes: String) -> &mut Self {
        self.notes = notes;
        self
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The first cell of every data row, in order.
    pub fn keys(&self) -> Vec<&str> {
        self.rows.iter().map(|r| r[0].text.as_str()).collect()
    }

    /// The unrounded number behind the cell under `column` in the first row
    /// whose leading cells read `key`. Panics when the row or the column is
    /// missing or the cell is not numeric.
    pub fn value(&self, key: &[&str], column: &str) -> f64 {
        let col = self
            .header
            .iter()
            .position(|h| h == column)
            .unwrap_or_else(|| panic!("{}: no column '{column}'", self.title));
        let row = self
            .rows
            .iter()
            .find(|r| r.iter().zip(key).all(|(cell, k)| cell.text == *k))
            .unwrap_or_else(|| panic!("{}: no row {key:?}", self.title));
        row[col]
            .value
            .unwrap_or_else(|| panic!("{}: {key:?}/{column} is not a number", self.title))
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as an aligned plain-text block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.text.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        fn fmt_row<C: std::fmt::Display>(cells: &[C], widths: &[usize]) -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        }
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table, a blank line and the notes to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
        print!("{}", self.notes);
    }
}

/// A numeric cell printed with `decimals` places.
pub fn num(value: f64, decimals: usize) -> Cell {
    Cell {
        text: format!("{value:.decimals$}"),
        value: Some(value),
    }
}

/// An accuracy fraction as a percentage with two decimals.
pub fn pct(accuracy: f64) -> Cell {
    num(accuracy * 100.0, 2)
}

/// A FLOP count in units of 1e9 (the paper uses 1e12 at full scale; the
/// scaled-down models land in the 1e9 range).
pub fn gflops(flops: f64) -> Cell {
    num(flops / 1e9, 2)
}

/// Seconds with two decimals.
pub fn secs(seconds: f64) -> Cell {
    num(seconds, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TableBuilder::new("Demo", &["Method", "Acc"]);
        t.row(vec!["FedAvg".into(), num(12.344, 2)]);
        t.row(vec!["FedLPS".into(), num(99.99, 2)]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("FedAvg  12.34\n"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.keys(), ["FedAvg", "FedLPS"]);
        assert_eq!(t.value(&["FedAvg"], "Acc"), 12.344, "the unrounded value");
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut t = TableBuilder::new("Demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.8765).to_string(), "87.65");
        assert_eq!(gflops(2.5e9).to_string(), "2.50");
        assert_eq!(secs(1.234).to_string(), "1.23");
    }
}
