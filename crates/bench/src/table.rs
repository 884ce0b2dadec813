//! Plain-text table rendering for the experiment harness.

use std::sync::atomic::{AtomicBool, Ordering};

/// Whether [`Table::print`] also prints the table's ledger lines.
static LEDGER: AtomicBool = AtomicBool::new(false);

/// Makes every later [`Table::print`] follow the table with its ledger
/// lines ([`Table::ledger`]); the `experiments` binary's `--ledger` flag.
pub fn print_ledger(on: bool) {
    LEDGER.store(on, Ordering::Relaxed);
}

/// Prints one ledger line, `<id> <row> <column> <value>`, when
/// [`print_ledger`] is on: for a verdict an experiment prints outside any
/// [`Table`], so that a ledger check sees it flip. No name may hold a space.
pub fn print_ledger_line(id: &str, row: &str, column: &str, value: impl std::fmt::Display) {
    if LEDGER.load(Ordering::Relaxed) {
        println!("{id} {row} {column} {value}");
    }
}

/// A right-aligned text table with a title and a caption line.
///
/// ```
/// let mut t = bench::Table::new("demo", &["n", "value"]);
/// t.row(&["1", "2.50"]);
/// let s = t.render();
/// assert!(s.contains("demo"));
/// assert!(s.contains("2.50"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    caption: Option<String>,
    /// Per column: measured on the host (wall-clock, memory), so it moves
    /// from run to run and is never compared.
    host: Vec<bool>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            caption: None,
            host: vec![false; headers.len()],
        }
    }

    /// Marks the columns named in `headers` as host measurements
    /// (wall-clock, throughput, memory): their ledger lines carry a `~`
    /// mark, and a ledger check skips them.
    ///
    /// # Panics
    ///
    /// Panics if a name is not one of the table's headers.
    pub fn host_columns(&mut self, headers: &[&str]) -> &mut Self {
        for name in headers {
            let at = self.headers.iter().position(|h| h == name);
            self.host[at.unwrap_or_else(|| panic!("no column `{name}`"))] = true;
        }
        self
    }

    /// Sets a caption printed under the table (paper basis, notes).
    pub fn caption(&mut self, text: impl Into<String>) -> &mut Self {
        self.caption = Some(text.into());
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[impl AsRef<str>]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.iter().map(|c| c.as_ref().to_owned()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("  ");
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                line.push_str(&" ".repeat(pad));
                line.push_str(cell);
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1) + 2;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        if let Some(c) = &self.caption {
            out.push_str(&format!("  ({c})\n"));
        }
        out
    }

    /// The table as ledger lines, one per cell: `<id> <row> <column>
    /// <value>`. The id is the title's first word (`E13`, `E11b`, `A1`);
    /// the row is named by its fewest leading cells that tell it from every
    /// other row, joined with `/`, and those key cells get no line of their
    /// own. Spaces in a row or column name become `_`. A host column's
    /// line starts with `~`.
    pub fn ledger(&self) -> String {
        let id = self.title.split_whitespace().next().unwrap_or("");
        let keys = (1..self.headers.len())
            .find(|&k| {
                let mut names: Vec<&[String]> = self.rows.iter().map(|r| &r[..k]).collect();
                names.sort();
                names.windows(2).all(|w| w[0] != w[1])
            })
            .unwrap_or(self.headers.len());
        let word = |s: &str| s.split_whitespace().collect::<Vec<_>>().join("_");
        let mut out = String::new();
        for row in &self.rows {
            let name = row[..keys].iter().map(|c| word(c)).collect::<Vec<_>>().join("/");
            for (col, cell) in row.iter().enumerate().skip(keys) {
                let mark = if self.host[col] { "~" } else { "" };
                out.push_str(&format!("{mark}{id} {name} {} {cell}\n", word(&self.headers[col])));
            }
        }
        out
    }

    /// Prints the table to stdout, followed by its ledger lines when
    /// [`print_ledger`] is on.
    pub fn print(&self) {
        println!("{}", self.render());
        if LEDGER.load(Ordering::Relaxed) {
            println!("{}", self.ledger());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("t", &["a", "long-header"]);
        t.row(&["123456", "x"]);
        t.caption("note");
        let s = t.render();
        assert!(s.contains("## t"));
        assert!(s.contains("123456"));
        assert!(s.contains("(note)"));
        // Header row and data row end aligned on the last column.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn ledger_names_rows_by_their_fewest_distinct_leading_cells() {
        let mut t = Table::new("E99 — demo", &["arm", "gray %", "ok %", "wall s"]);
        t.row(&["on", "0", "99.5", "0.12"]);
        t.row(&["on", "20", "90.1", "0.13"]);
        t.row(&["off", "0", "92.7", "0.11"]);
        t.host_columns(&["wall s"]);
        assert_eq!(
            t.ledger(),
            "E99 on/0 ok_% 99.5\n~E99 on/0 wall_s 0.12\n\
             E99 on/20 ok_% 90.1\n~E99 on/20 wall_s 0.13\n\
             E99 off/0 ok_% 92.7\n~E99 off/0 wall_s 0.11\n"
        );
        let mut one = Table::new("A1 (ablation) — demo", &["model", "msgs"]);
        one.row(&["bloom 1024/3", "779"]);
        assert_eq!(one.ledger(), "A1 bloom_1024/3 msgs 779\n");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        Table::new("t", &["a", "b"]).row(&["only-one"]);
    }
}
