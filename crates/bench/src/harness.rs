//! Trial statistics, environment knobs and table formatting.

use std::io::Write;

/// Summary statistics over a set of trial errors.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (robust to Cauchy-tailed mechanisms).
    pub median: f64,
    /// Population standard deviation.
    pub std: f64,
}

/// Computes [`Stats`] from raw trial values.
pub fn stats(values: &[f64]) -> Stats {
    assert!(!values.is_empty(), "stats() needs at least one value");
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let std = (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite trial values"));
    Stats { mean, median: sorted[sorted.len() / 2], std }
}

/// Reads an `f64` environment knob with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a `u64` environment knob with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Fixed-width, paper-style table printer for experiment binaries.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Starts a table and prints the header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        assert_eq!(headers.len(), widths.len());
        let printer = TablePrinter { widths: widths.to_vec() };
        printer.row(headers);
        printer.rule();
        printer
    }

    /// Prints one row of cells, padded to the column widths.
    pub fn row(&self, cells: &[&str]) {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        for (cell, width) in cells.iter().zip(&self.widths) {
            let _ = write!(lock, "{cell:<width$} ");
        }
        let _ = writeln!(lock);
    }

    /// Prints a horizontal rule spanning the table.
    pub fn rule(&self) {
        let total: usize = self.widths.iter().map(|w| w + 1).sum();
        println!("{}", "-".repeat(total));
    }
}

/// Formats a relative error as a percentage with two decimals (paper style).
pub fn pct(rel_err: f64) -> String {
    format!("{:.2}", rel_err * 100.0)
}

/// Formats seconds with millisecond precision (mechanism calls at reduced
/// scale run in well under a second).
pub fn secs(s: f64) -> String {
    format!("{s:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_known_values() {
        let s = stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.median, 3.0);
        assert!((s.std - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_single_value() {
        let s = stats(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn env_parsing_falls_back() {
        assert_eq!(env_f64("DEFINITELY_UNSET_VAR_XYZ", 1.5), 1.5);
        assert_eq!(env_u64("DEFINITELY_UNSET_VAR_XYZ", 10), 10);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.1189), "11.89");
        assert_eq!(secs(0.1454), "0.145");
    }
}
