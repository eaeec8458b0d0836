//! Minimal fixed-width table rendering for experiment reports.
//!
//! Every table `repro` prints — each experiment's report, and the perf,
//! baseline-delta and scale tables — is a [`Table`], so the repro binary
//! and EXPERIMENTS.md get uniformly formatted, diff-friendly output.

use std::fmt;

/// A simple text table: header plus rows of equally many cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
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

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Serialize as a JSON object:
    /// `{"title": ..., "header": [...], "rows": [[...], ...]}`.
    pub fn to_json(&self) -> String {
        use crate::report::{json_array, json_str};
        let strings = |cells: &[String]| json_array(cells.iter().map(|c| json_str(c)));
        format!(
            "{{\"title\":{},\"header\":{},\"rows\":{}}}",
            json_str(&self.title),
            strings(&self.header),
            json_array(self.rows.iter().map(|row| strings(row))),
        )
    }

    /// Format a float with sensible precision for report tables.
    pub fn fmt_f(x: f64) -> String {
        if !x.is_finite() {
            "-".to_string()
        } else if x == 0.0 {
            "0".to_string()
        } else if x.abs() >= 1000.0 {
            format!("{x:.0}")
        } else if x.abs() >= 10.0 {
            format!("{x:.1}")
        } else {
            format!("{x:.2}")
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, w) in widths.iter().enumerate().take(cols) {
                write!(f, " {:>w$} |", cells.get(i).map(String::as_str).unwrap_or(""), w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.row(vec!["1".into(), "10".into()]);
        t.row(vec!["200".into(), "3.5".into()]);
        let s = t.to_string();
        assert!(s.starts_with("## demo"));
        assert!(s.contains("|   x | value |"), "got:\n{s}");
        assert!(s.contains("| 200 |   3.5 |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(Table::fmt_f(0.0), "0");
        assert_eq!(Table::fmt_f(1.2345), "1.23");
        assert_eq!(Table::fmt_f(48.83), "48.8");
        assert_eq!(Table::fmt_f(2200.4), "2200");
        assert_eq!(Table::fmt_f(f64::NAN), "-");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("empty", &["a", "b"]);
        assert!(t.is_empty());
        let s = t.to_string();
        assert!(s.contains("## empty"));
        assert!(s.contains("| a | b |"));
        assert_eq!(s.lines().count(), 3, "title + header + rule");
    }

    #[test]
    fn wide_cells_stretch_columns() {
        let mut t = Table::new("w", &["x"]);
        t.row(vec!["a-very-long-cell".into()]);
        let s = t.to_string();
        assert!(s.contains("| a-very-long-cell |"));
        assert!(s.contains("|                x |"), "header right-aligns to widest cell");
    }

    #[test]
    fn json_round_trips_structure() {
        let mut t = Table::new("ti\"tle", &["a", "b"]);
        t.row(vec!["1".into(), "x y".into()]);
        t.row(vec!["2".into(), "z".into()]);
        let j = t.to_json();
        assert_eq!(
            j,
            "{\"title\":\"ti\\\"tle\",\"header\":[\"a\",\"b\"],\
             \"rows\":[[\"1\",\"x y\"],[\"2\",\"z\"]]}"
        );
        assert_eq!(t.title(), "ti\"tle");
        assert_eq!(t.header(), ["a", "b"]);
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn negative_numbers_format() {
        assert_eq!(Table::fmt_f(-3.456), "-3.46");
        assert_eq!(Table::fmt_f(-12345.0), "-12345");
    }
}
