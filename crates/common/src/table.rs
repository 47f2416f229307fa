//! Plain-text table rendering for the experiment harness.
//!
//! Every figure/table reproduction prints its rows through [`Table`] so that
//! `cargo bench` output reads like the paper's tables. Columns are
//! auto-sized; numbers should be pre-formatted by the caller.

use std::fmt;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use euphrates_common::table::Table;
///
/// let mut t = Table::new(["scheme", "energy", "fps"]);
/// t.row(["YOLOv2", "1.00", "17.4"]);
/// t.row(["EW-4", "0.34", "60.0"]);
/// let s = t.to_string();
/// assert!(s.contains("YOLOv2"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated to the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > w[i] {
                    w[i] = cell.len();
                }
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        if let Some(t) = &self.title {
            writeln!(f, "== {t} ==")?;
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = w[i]));
            }
            writeln!(f, "{}", line.trim_end())
        };
        write_row(f, &self.header)?;
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with the given number of decimal places (helper for
/// building table cells).
pub fn fnum(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Formats a fraction as a percentage with one decimal place.
pub fn percent(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_are_aligned() {
        let mut t = Table::new(["a", "long-header", "b"]);
        t.row(["xxxxxx", "1", "2"]);
        t.row(["y", "2", "3"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 4);
        // The second column of both rows starts at the same offset.
        let off0 = lines[2].find('1').unwrap();
        let off1 = lines[3].find('2').unwrap();
        assert_eq!(off0, off1);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        let s = t.to_string();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn title_is_printed() {
        let t = Table::new(["x"]).with_title("Fig 9a");
        assert!(t.to_string().starts_with("== Fig 9a =="));
    }

    #[test]
    fn fnum_and_percent_format() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(percent(0.4567), "45.7%");
    }
}
