//! Paper-style text tables and JSON artifacts.

use std::fmt::Write as _;
use std::path::Path;

use chipalign_model::json::ToJson;
use chipalign_model::json_struct;

use crate::PipelineError;

json_struct! {
    /// A simple fixed-precision text table matching the paper's layout
    /// (method rows × metric columns).
    #[derive(Debug, Clone)]
    pub struct TextTable {
        /// Table caption.
        pub(crate) title: String,
        /// Column headers (first column is the row label).
        pub(crate) columns: Vec<String>,
        /// Rows: label + one value per column.
        pub(crate) rows: Vec<(String, Vec<f64>)>,
        /// Decimal places to print.
        pub(crate) precision: usize,
    }
}

impl TextTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: &str, columns: &[&str], precision: usize) -> Self {
        TextTable {
            title: title.to_string(),
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            precision,
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, label: &str, values: Vec<f64>) {
        self.rows.push((label.to_string(), values));
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let label_width = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once("Method".len()))
            .max()
            .unwrap_or(6)
            + 2;
        let col_width = self
            .columns
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(8)
            .max(self.precision + 4)
            + 2;
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = write!(out, "{:<label_width$}", "Method");
        for c in &self.columns {
            let _ = write!(out, "{c:>col_width$}");
        }
        let _ = writeln!(out);
        let total = label_width + col_width * self.columns.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:<label_width$}");
            for v in values {
                let _ = write!(out, "{v:>col_width$.prec$}", prec = self.precision);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes the table (and arbitrary extra payload) as JSON next to the
    /// text rendering.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Io`] on write failure.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), PipelineError> {
        std::fs::write(path, self.to_json().to_pretty())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_rows() {
        let mut t = TextTable::new("Table X", &["All", "Sub"], 3);
        t.push_row("ChipAlign", vec![0.369, 0.314]);
        t.push_row("ModelSoup", vec![0.345, 0.306]);
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("ChipAlign"));
        assert!(s.contains("0.369"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "title + header + rule + 2 rows");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new("Empty", &["A"], 2);
        let s = t.render();
        assert!(s.contains("Empty"));
        assert!(s.contains("Method"));
    }

    #[test]
    fn json_round_trip() {
        let dir = std::env::temp_dir().join("chipalign-report-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.json");
        let mut t = TextTable::new("T", &["A"], 2);
        t.push_row("r", vec![1.5]);
        t.save_json(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains("\"title\": \"T\""));
        std::fs::remove_file(&path).ok();
    }
}
