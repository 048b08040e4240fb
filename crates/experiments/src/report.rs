//! Result rendering: CSV files and fixed-width text tables.
//!
//! The `dtr-experiments` binary (`cargo run --release -p
//! dtr-experiments -- [--quick] [--only …]`) prints each artifact's
//! [`Table`]s to stdout (the same rows/series the paper's figure shows)
//! and writes the raw data as CSV under the results directory
//! ([`results_dir`]: `DTR_RESULTS` env var, default `results/`).

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// A fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table caption printed above the header.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row data, formatted by the caller.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given caption and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "# {}", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(s, "{}", header.join("  "));
        let _ = writeln!(s, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(s, "{}", line.join("  "));
        }
        s
    }

    /// Renders as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.join(","));
        }
        s
    }
}

/// The directory experiment CSVs are written to (`DTR_RESULTS`, default
/// `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var("DTR_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Writes `table` as `<name>.csv` under `dir`, returning the path.
pub fn write_csv(dir: &Path, name: &str, table: &Table) -> io::Result<PathBuf> {
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Formats a float with `digits` decimals — the single place controlling
/// result precision in reports.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["x", "longer"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["10".into(), "20000".into()]);
        let r = t.render();
        assert!(r.contains("# demo"));
        let lines: Vec<&str> = r.lines().collect();
        // All data lines share the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "x".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,x\n");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn row_length_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dtr-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["7".into()]);
        let p = write_csv(&dir, "unit_test_table", &t).unwrap();
        let content = std::fs::read_to_string(&p).unwrap();
        assert_eq!(content, "a\n7\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fmt_controls_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(1.0, 0), "1");
    }
}
