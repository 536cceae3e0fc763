//! Trial loop, trial statistics, environment knobs and table formatting.

use crate::mechanisms::MechOutcome;
use starj_noise::StarRng;
use std::str::FromStr;

/// Summary statistics over a set of trial errors.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (robust to Cauchy-tailed mechanisms); the mean of the two
    /// middle values for an even count.
    pub median: f64,
}

/// Computes [`Stats`] from raw trial values.
pub fn stats(values: &[f64]) -> Stats {
    assert!(!values.is_empty(), "stats() needs at least one value");
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite trial values"));
    let median = (sorted[(sorted.len() - 1) / 2] + sorted[sorted.len() / 2]) / 2.0;
    Stats { mean, median }
}

/// Parses one environment knob: `raw` is the variable's value, `None` when
/// it is unset (which means `default`). A value that is set but does not
/// parse is an error naming the variable and the value.
pub fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}={v:?} is not a valid value for {name}")),
    }
}

/// Reads an environment knob through [`parse_knob`], exiting with status 2
/// and the parse message when the value is malformed.
pub fn env_knob<T: FromStr>(name: &str, default: T) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

/// Runs `trials` independent trials of `f`, trial `t` on the RNG
/// `seed → derive(tag) → derive_index(t)`. The derive tag is what pins a
/// cell's value across releases, so each figure keeps its tags fixed.
/// Returns each trial's relative error and seconds, or `None` at the first
/// [`MechOutcome::NotSupported`].
pub fn run_trials(
    seed: u64,
    tag: &str,
    trials: u64,
    mut f: impl FnMut(&mut StarRng) -> MechOutcome,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let (mut errs, mut secs) = (Vec::new(), Vec::new());
    for t in 0..trials {
        let mut rng = StarRng::from_seed(seed).derive(tag).derive_index(t);
        let MechOutcome::Ran { rel_err, secs: s } = f(&mut rng) else { return None };
        errs.push(rel_err);
        secs.push(s);
    }
    Some((errs, secs))
}

/// What a row reports for each item's trials.
#[derive(Debug, Clone, Copy)]
pub enum Stat {
    /// Mean relative error.
    Mean,
    /// Median relative error (Cauchy noise makes means diverge).
    Median,
    /// Mean relative error, then mean seconds per call.
    MeanSecs,
}

/// One table row: the `lead` cells, then for each item the [`Stat`] of the
/// trials `f` runs for it, as a percentage (and seconds); `n/s` where the
/// item is not supported.
pub fn mech_row<T>(
    lead: Vec<String>,
    items: impl IntoIterator<Item = T>,
    stat: Stat,
    mut f: impl FnMut(T) -> Option<(Vec<f64>, Vec<f64>)>,
) -> Vec<String> {
    let mut row = lead;
    for item in items {
        match (f(item), stat) {
            (None, Stat::MeanSecs) => row.extend(["n/s".into(), "-".into()]),
            (None, _) => row.push("n/s".into()),
            (Some((errs, _)), Stat::Mean) => row.push(pct(stats(&errs).mean)),
            (Some((errs, _)), Stat::Median) => row.push(pct(stats(&errs).median)),
            (Some((errs, t)), Stat::MeanSecs) => {
                row.extend([pct(stats(&errs).mean), secs(stats(&t).mean)])
            }
        }
    }
    row
}

/// Fixed-width, paper-style table printer.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Starts a table and prints the header row.
    pub fn new<S: AsRef<str>>(headers: &[S], widths: &[usize]) -> Self {
        assert_eq!(headers.len(), widths.len());
        let printer = TablePrinter { widths: widths.to_vec() };
        printer.row(headers);
        printer.rule();
        printer
    }

    /// Prints one row of cells, padded to the column widths.
    pub fn row<S: AsRef<str>>(&self, cells: &[S]) {
        let padded = cells.iter().zip(&self.widths).map(|(c, w)| format!("{:<w$} ", c.as_ref()));
        println!("{}", padded.collect::<String>());
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
        assert_eq!((stats(&[7.0]).mean, stats(&[7.0]).median), (7.0, 7.0));
    }

    #[test]
    fn even_count_median_averages_the_middle_pair() {
        assert_eq!(stats(&[1., 2., 3., 4.]).median, 2.5);
        assert_eq!(stats(&[4., 1.]).median, 2.5);
    }

    #[test]
    fn knobs_default_when_unset_and_reject_malformed_values() {
        assert_eq!(parse_knob("SSB_SF", None, 0.05), Ok(0.05));
        assert_eq!(parse_knob("SSB_SF", Some("0.25"), 0.05), Ok(0.25));
        assert_eq!(parse_knob("TRIALS", Some("3"), 10u64), Ok(3));
        let err = parse_knob("SSB_SF", Some("0,25"), 0.05).unwrap_err();
        assert!(err.contains("SSB_SF") && err.contains("0,25"), "{err}");
        assert!(parse_knob("TRIALS", Some("2.5"), 10u64).is_err());
        assert!(parse_knob("SEED", Some(""), 2023u64).is_err());
    }

    #[test]
    fn trials_stop_at_the_first_unsupported_outcome() {
        let ran = run_trials(1, "t", 3, |_| MechOutcome::Ran { rel_err: 0.5, secs: 0.0 });
        assert_eq!(ran.map(|(e, _)| e), Some(vec![0.5; 3]));
        let mut calls = 0;
        let ns = run_trials(1, "t", 3, |_| {
            calls += 1;
            MechOutcome::NotSupported
        });
        assert!(ns.is_none());
        assert_eq!(calls, 1);
    }

    #[test]
    fn rows_render_each_stat() {
        let t = Some((vec![0.1, 0.3], vec![0.002, 0.004]));
        let row = |stat| mech_row(vec!["q".into()], [t.clone(), None], stat, |x| x);
        assert_eq!(row(Stat::Mean), ["q", "20.00", "n/s"]);
        assert_eq!(row(Stat::Median), ["q", "20.00", "n/s"]);
        assert_eq!(row(Stat::MeanSecs), ["q", "20.00", "0.003", "n/s", "-"]);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.1189), "11.89");
        assert_eq!(secs(0.1454), "0.145");
    }
}
