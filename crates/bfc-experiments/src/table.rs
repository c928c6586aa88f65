//! A results table as a value: a title, named columns, rows of typed
//! [`Cell`]s and an optional closing note. Every results table the crate
//! prints — each figure of [`crate::figures::FIGURES`], and the replay and
//! scenario tables of `trace-tool` — is built as a [`Table`] and printed by
//! its `Display`, the one place a cell is padded. Tests read the cells
//! instead of matching text.
//!
//! Layout: each column is as wide as its widest entry, header included, and
//! columns are two spaces apart. A column holding any number is
//! right-aligned (so a text `-` among numbers lines up with them); a
//! text-only column is left-aligned. No line ends in a space.

use std::fmt::{self, Write as _};

/// One value of a [`Table`] row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text, printed as is.
    Text(String),
    /// A count.
    Int(u64),
    /// A real number printed with the given number of decimals (`NaN` for a
    /// missing value).
    Fixed(f64, usize),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(text) => f.write_str(text),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Fixed(value, decimals) => write!(f, "{value:.decimals$}"),
        }
    }
}

/// A results table; see the module docs for how it prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The line printed above the header; an empty title prints no line.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// One cell per column in each row.
    pub rows: Vec<Vec<Cell>>,
    /// A line printed below the rows.
    pub note: Option<String>,
}

impl Table {
    /// An empty table with these columns.
    pub fn new<S: ToString>(title: &str, columns: impl IntoIterator<Item = S>) -> Table {
        Table {
            title: title.to_string(),
            columns: columns.into_iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            note: None,
        }
    }

    /// Sets the closing note.
    pub fn with_note(mut self, note: &str) -> Table {
        self.note = Some(note.to_string());
        self
    }

    /// Appends a row. Panics unless it has one cell per column.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "a row of `{}` needs one cell per column {:?}",
            self.title,
            self.columns
        );
        self.rows.push(row);
    }

    /// The cells of the column headed `name`, top to bottom. Panics if there
    /// is no such column.
    pub fn column(&self, name: &str) -> Vec<&Cell> {
        let at = self
            .columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("`{}` has no column `{name}`", self.title));
        self.rows.iter().map(|row| &row[at]).collect()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        let width = |c: usize| {
            rows.iter()
                .map(|row| row[c].chars().count())
                .fold(self.columns[c].chars().count(), usize::max)
        };
        let layout: Vec<(usize, bool)> = (0..self.columns.len())
            .map(|c| {
                let numeric = self.rows.iter().any(|row| !matches!(row[c], Cell::Text(_)));
                (width(c), numeric)
            })
            .collect();
        let line = |texts: &[String]| {
            let mut out = String::new();
            for (c, (text, &(width, right))) in texts.iter().zip(&layout).enumerate() {
                let gap = if c == 0 { "" } else { "  " };
                // Writing to a `String` cannot fail.
                let _ = if right {
                    write!(out, "{gap}{text:>width$}")
                } else {
                    write!(out, "{gap}{text:<width$}")
                };
            }
            out.truncate(out.trim_end().len());
            out
        };
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
        }
        writeln!(f, "{}", line(&self.columns))?;
        for row in &rows {
            writeln!(f, "{}", line(row))?;
        }
        if let Some(note) = &self.note {
            writeln!(f, "{note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }

    #[test]
    fn every_line_starts_each_column_at_the_same_offset() {
        // A cell wider than its header (`BFC-HighPriorityQ` under `scheme`,
        // `12.0` under `p50`) and a header wider than its cells.
        let mut t = Table::new("Fig X", ["scheme", "p50", "occupied queues", "class"]);
        t.push(vec![
            text("BFC"),
            Cell::Fixed(3.5, 1),
            Cell::Int(7),
            text("intra"),
        ]);
        t.push(vec![
            text("BFC-HighPriorityQ"),
            Cell::Fixed(12.0, 1),
            Cell::Int(1234),
            text("inter-DC"),
        ]);
        let out = t.to_string();
        let sp = |n: usize| " ".repeat(n);
        let want = [
            "Fig X".to_string(),
            format!("scheme{}p50  occupied queues  class", sp(14)),
            format!("BFC{}3.5  {}7  intra", sp(17), sp(14)),
            format!("BFC-HighPriorityQ  12.0  {}1234  inter-DC", sp(11)),
        ];
        assert_eq!(out.lines().collect::<Vec<_>>(), want, "{out}");
        // Left-aligned columns start at one offset, right-aligned ones end
        // at one offset, on the header and on every row.
        for line in &want[1..] {
            assert!(
                line[42..].starts_with(|c: char| c.is_ascii_alphabetic()),
                "{line}"
            );
            assert!(
                line[..40].ends_with(|c: char| c.is_ascii_alphanumeric()),
                "{line}"
            );
            assert!(
                line[..23].ends_with(|c: char| c.is_ascii_alphanumeric()),
                "{line}"
            );
        }
    }

    #[test]
    fn nan_prints_as_nan_and_a_dash_stays_right_aligned_among_numbers() {
        let mut t = Table::new("", ["ttr(us)", "fct p99"]);
        t.push(vec![Cell::Fixed(112.5, 1), Cell::Fixed(f64::NAN, 2)]);
        t.push(vec![text("-"), Cell::Fixed(1.0, 2)]);
        assert_eq!(
            t.to_string(),
            "ttr(us)  fct p99\n  112.5      NaN\n      -     1.00\n"
        );
    }

    #[test]
    fn no_line_ends_in_a_space() {
        let mut t = Table::new("title", ["n", "a wide text header"]).with_note("(note)");
        t.push(vec![Cell::Int(1), text("x")]);
        t.push(vec![Cell::Int(22), text("")]);
        let out = t.to_string();
        assert_eq!(out, "title\n n  a wide text header\n 1  x\n22\n(note)\n");
        assert!(out.lines().all(|l| !l.ends_with(' ')), "{out}");
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn a_short_row_is_refused() {
        Table::new("t", ["a", "b"]).push(vec![Cell::Int(1)]);
    }
}
