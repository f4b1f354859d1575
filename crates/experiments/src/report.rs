//! Plain-text and CSV rendering for experiment results.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple aligned ASCII table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV (header + rows, RFC-4180 quoting for commas/quotes).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Write CSV text to `dir/name.csv`, creating the directory.
pub fn write_csv(dir: &Path, name: &str, csv: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.csv")), csv)
}

/// Format a float compactly (3 significant decimals, trailing zeros kept
/// short).
pub fn fnum(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e9 {
        format!("{}", x as i64)
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // All data lines have equal length (alignment).
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("q", &["a", "b"]);
        t.row(vec!["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("q", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(3.0), "3");
        assert_eq!(fnum(1594.0), "1594");
        assert_eq!(fnum(0.0123), "0.0123");
        assert_eq!(fnum(123.456), "123.5");
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("mh-report-test");
        let mut t = Table::new("f", &["x"]);
        t.row(vec!["1".into()]);
        write_csv(&dir, "demo", &t.to_csv()).unwrap();
        let content = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert!(content.starts_with("x\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
