//! Minimal table formatting and CSV output for the experiment harness.

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple column-aligned table that can also be written out as CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes a table to `<dir>/<name>.csv`, creating the directory if needed.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_csv(table: &Table, dir: &Path, name: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = fs::File::create(path)?;
    file.write_all(table.to_csv().as_bytes())
}

/// Writes a figure's tables as `<dir>/<name>.csv`, or `<name>_<i>.csv` when
/// there are several, warning on stderr about any file that could not be
/// written.  Returns the number of files written.
pub fn write_figure_csvs(tables: &[Table], dir: &Path, name: &str) -> u64 {
    let mut written = 0;
    for (i, table) in tables.iter().enumerate() {
        let file = match tables.len() {
            1 => name.to_string(),
            _ => format!("{name}_{i}"),
        };
        match write_csv(table, dir, &file) {
            Ok(()) => written += 1,
            Err(err) => eprintln!("warning: could not write {file}.csv: {err}"),
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_csv_contain_all_cells() {
        let mut t = Table::new("demo", &["a", "bb", "ccc"]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        t.push_row(vec!["x".into(), "y".into(), "z".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let rendered = t.render();
        assert!(rendered.contains("demo"));
        assert!(rendered.contains("ccc"));
        assert!(rendered.contains('z'));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,bb,ccc"));
    }

    #[test]
    fn csv_writing_creates_the_file() {
        let mut t = Table::new("demo", &["k", "v"]);
        t.push_row(vec!["x".into(), "1".into()]);
        let dir = std::env::temp_dir().join("g10_bench_output_test");
        write_csv(&t, &dir, "demo").unwrap();
        let content = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert!(content.contains("x,1"));
    }

    #[test]
    fn figure_csvs_are_numbered_only_when_several() {
        let t = Table::new("demo", &["k"]);
        let dir =
            std::env::temp_dir().join(format!("g10_bench_figure_csvs_{}", std::process::id()));
        assert_eq!(write_figure_csvs(std::slice::from_ref(&t), &dir, "one"), 1);
        assert_eq!(write_figure_csvs(&[t.clone(), t], &dir, "two"), 2);
        for file in ["one.csv", "two_0.csv", "two_1.csv"] {
            assert!(dir.join(file).is_file(), "{file} missing");
        }
        assert!(!dir.join("one_0.csv").exists() && !dir.join("two.csv").exists());
        // A path under a regular file cannot be a directory: nothing is
        // written and the count says so.
        let blocked = dir.join("one.csv").join("sub");
        assert_eq!(write_figure_csvs(&[Table::default()], &blocked, "x"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
