//! Plain-text table reporting for the bench targets.
//!
//! Every bench target prints the rows/series its paper table or figure
//! reports, in a fixed-width layout that survives `cargo bench` output. The
//! figure tables shared by several benches are built here from
//! [`WorkloadRuns`].

use crate::runner::WorkloadRuns;
use hydra_sim::geometric_mean;
use hydra_workloads::{Suite, WorkloadSpec};
use std::fmt::Write as _;

/// A simple fixed-width table printer.
///
/// # Example
///
/// ```
/// use hydra_bench::Table;
/// let mut t = Table::new(vec!["scheme", "bytes"]);
/// t.row(vec!["hydra".into(), "57856".into()]);
/// let s = t.render();
/// assert!(s.contains("hydra"));
/// assert!(s.contains("scheme"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header count).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let rule: String = widths.iter().map(|w| "-".repeat(*w) + "  ").collect();
        out.push_str(rule.trim_end());
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells containing
    /// commas or quotes), for downstream plotting.
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            let joined: Vec<String> = cells.iter().map(|c| cell(c)).collect();
            out.push_str(&joined.join(","));
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }

    /// Writes the CSV rendering to `path` (used by bench targets when
    /// `HYDRA_CSV_DIR` is set, so results can be plotted).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// If the `HYDRA_CSV_DIR` environment variable is set, writes this
    /// table there as `<name>.csv` (creating the directory) and returns the
    /// note a bench prints about it, `(csv written to <path>)` and a
    /// newline; returns an empty note when the variable is unset. The
    /// caller decides where the note goes — the library never prints.
    ///
    /// # Errors
    ///
    /// Returns the `csv export failed: …` message for a directory-creation
    /// or write error.
    pub fn export_csv(&self, name: &str) -> Result<String, String> {
        let Ok(dir) = std::env::var("HYDRA_CSV_DIR") else {
            return Ok(String::new());
        };
        let dir = std::path::PathBuf::from(dir);
        let path = dir.join(format!("{name}.csv"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| self.write_csv(&path))
            .map(|()| format!("(csv written to {})\n", path.display()))
            .map_err(|e| format!("csv export failed: {e}"))
    }
}

/// The suites Figs. 5, 7, 9 and 10 break their geomeans down by, in the
/// paper's order.
const SUITES: [Suite; 4] = [Suite::Spec2017, Suite::Parsec, Suite::Gap, Suite::Gups];

/// Column-wise geometric means of `values(run)` over the runs whose workload
/// `keep` admits: one mean per variant.
fn column_geomeans(
    runs: &[WorkloadRuns],
    values: impl Fn(&WorkloadRuns) -> Vec<f64>,
    keep: impl Fn(&WorkloadSpec) -> bool,
) -> Vec<f64> {
    let rows: Vec<Vec<f64>> = runs.iter().filter(|r| keep(r.spec)).map(values).collect();
    let width = runs.first().map_or(0, |r| r.variants.len());
    (0..width)
        .map(|v| geometric_mean(&rows.iter().map(|row| row[v]).collect::<Vec<_>>()))
        .collect()
}

/// Each variant's geomean slowdown in percent over the runs `keep` admits:
/// `(geomean(1 + slowdown/100) − 1) × 100`.
pub fn geomean_slowdown_pct(
    runs: &[WorkloadRuns],
    keep: impl Fn(&WorkloadSpec) -> bool,
) -> Vec<f64> {
    column_geomeans(runs, WorkloadRuns::slowdown_ratios, keep)
        .into_iter()
        .map(|g| (g - 1.0) * 100.0)
        .collect()
}

/// The table of Figs. 2, 5 and 8: one row per workload of each variant's
/// normalized performance (`{:.3}`), then a geomean row per suite when
/// `by_suite` (which also adds a suite column after the workload), then the
/// overall geomean row. Returns the table and the overall geomeans.
pub fn normalized_table(
    headers: &[&str],
    runs: &[WorkloadRuns],
    by_suite: bool,
) -> (Table, Vec<f64>) {
    let cells = |label: String, suite: &str, values: &[f64]| {
        let mut cells = vec![label];
        if by_suite {
            cells.push(suite.to_string());
        }
        cells.extend(values.iter().map(|v| format!("{v:.3}")));
        cells
    };
    let mut table = Table::new(headers.to_vec());
    for run in runs {
        table.row(cells(
            run.spec.name.to_string(),
            run.spec.suite.label(),
            &run.normalized(),
        ));
    }
    if by_suite {
        for suite in SUITES {
            let means = column_geomeans(runs, WorkloadRuns::normalized, |s| s.suite == suite);
            table.row(cells(format!("GEOMEAN-{}", suite.label()), "", &means));
        }
    }
    let all = column_geomeans(runs, WorkloadRuns::normalized, |_| true);
    table.row(cells(format!("GEOMEAN-ALL({})", runs.len()), "", &all));
    (table, all)
}

/// The table of Figs. 7, 9 and 10: each variant's geomean slowdown
/// (`{:.2}%`) per suite, then overall. Returns the table and the overall
/// slowdowns.
pub fn suite_slowdown_table(headers: &[&str], runs: &[WorkloadRuns]) -> (Table, Vec<f64>) {
    let cells = |label: String, pcts: &[f64]| {
        std::iter::once(label)
            .chain(pcts.iter().map(|v| format!("{v:.2}%")))
            .collect()
    };
    let mut table = Table::new(headers.to_vec());
    for suite in SUITES {
        let pcts = geomean_slowdown_pct(runs, |s| s.suite == suite);
        table.row(cells(suite.label().to_string(), &pcts));
    }
    let overall = geomean_slowdown_pct(runs, |_| true);
    table.row(cells(format!("ALL({})", runs.len()), &overall));
    (table, overall)
}

/// The line every `SystemSim` figure prints beside its verdict: the fewest
/// tracking windows any channel of any of its runs completed.
pub fn windows_line(runs: &[WorkloadRuns]) -> String {
    let fewest = runs
        .iter()
        .map(WorkloadRuns::min_windows)
        .min()
        .unwrap_or(0);
    format!("Windows completed: {fewest} (fewest of any run)")
}

/// Formats a byte count the way the paper's tables do (KB / MB).
///
/// # Example
///
/// ```
/// use hydra_bench::fmt_bytes;
/// assert_eq!(fmt_bytes(57_856), "56.5 KB");
/// assert_eq!(fmt_bytes(2 * 1024 * 1024), "2.0 MB");
/// ```
pub fn fmt_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= MB {
        format!("{:.1} MB", b / MB)
    } else {
        format!("{:.1} KB", b / KB)
    }
}

/// Formats a byte count as whole KB (for the ≤64 KB goal column).
pub fn fmt_kb(bytes: u64) -> String {
    format!("{} KB", bytes / 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long_header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long_header"));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains('1'));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\"\n"));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(340 * 1024), "340.0 KB");
        assert_eq!(fmt_bytes(2_411_724), "2.3 MB");
        assert_eq!(fmt_kb(64 * 1024), "64 KB");
    }
}
