//! Output helpers: ASCII tables and CSV series.

use std::fmt::Write as _;

/// A simple fixed-width ASCII table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+";
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(line, "| {c:<w$} ");
            }
            line + "|"
        };
        let _ = writeln!(out, "{sep}");
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        let _ = writeln!(out, "{sep}");
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Formats an operations-per-second value the way the paper's figures label
/// their axes (millions of operations per second).
pub fn mops(ops_per_sec: f64) -> String {
    format!("{:.1}", ops_per_sec / 1_000_000.0)
}

/// Formats a duration in the most readable unit.
pub fn human_duration(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.1} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.1} s", us as f64 / 1_000_000.0)
    }
}

/// Prints the standard experiment banner: the experiment id, the paper
/// baseline being reproduced, and the substitution note.
pub fn banner(experiment: &str, paper_result: &str) {
    println!("==============================================================");
    println!("{experiment}");
    println!("Paper reference: {paper_result}");
    println!("Environment: simulated substrate; absolute numbers differ from");
    println!("the paper's Azure testbed, shapes should hold.");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_rows() {
        let mut t = Table::new(&["threads", "mops"]);
        t.row(&["1".into(), "2.0".into()]);
        t.row(&["64".into(), "130.0".into()]);
        let s = t.render();
        assert!(s.contains("threads"));
        assert!(s.contains("130.0"));
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mops(130_000_000.0), "130.0");
        assert_eq!(
            human_duration(std::time::Duration::from_micros(40)),
            "40 µs"
        );
        assert_eq!(
            human_duration(std::time::Duration::from_micros(1300)),
            "1.3 ms"
        );
        assert!(human_duration(std::time::Duration::from_secs(17)).contains('s'));
    }
}
