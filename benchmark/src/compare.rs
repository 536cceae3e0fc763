//! `benchmark compare <a.json> <b.json>`: one verdict per (workload,
//! end-to-end metric) pair of two result files, against the bounds the
//! catalogue fixes. Every ratio is printed with its base.

use crate::report::END_TO_END;
use starj_telemetry::Json;

/// What a pair of medians says about one metric.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// Better by more than the spread.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Neither: a delta inside the spread or the bound is not a gain or a loss.
    WithinBound,
    /// The runs' own spread exceeds the bound, so a bound-sized change
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved (spread > bound)",
        }
    }
}

/// The verdict for base `a` and candidate `b`. `spread` is the larger of
/// the two runs' IQR/median over slices.
pub fn verdict(a: f64, b: f64, higher_is_better: bool, spread: f64, bound: f64) -> Verdict {
    // Positive = worse, as a share of the base.
    let worse_by = if higher_is_better { (a - b) / a } else { (b - a) / a };
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric(doc: &Json, workload: &str, name: &str) -> Option<(f64, f64)> {
    let m = doc.get("workloads")?.get(workload)?.get("metrics")?.get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("spread").and_then(Json::as_f64).unwrap_or(0.0)))
}

/// Prints the comparison; `Ok(true)` iff no pair is worse.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (doc, path) in [(&a, a_path), (&b, b_path)] {
        if doc.get("quick").and_then(Json::as_f64) == Some(1.0) {
            println!("# {path} is a --quick run: its numbers are NON-COMPARABLE");
        }
    }
    println!("# base {a_path}, candidate {b_path}; every percentage is a share of the base value");
    let mut clean = true;
    for workload in crate::WORKLOADS {
        for &(name, unit, better, bound) in END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) =
                (metric(&a, workload, name), metric(&b, workload, name))
            else {
                println!("{workload} {name} missing from one file");
                clean = false;
                continue;
            };
            let spread = sa.max(sb);
            let v = verdict(va, vb, better == "higher", spread, bound);
            clean &= v != Verdict::Worse;
            println!(
                "{workload} {name} {}: {va} -> {vb} {unit} ({:+.2} % of {va}), spread {:.2} %, bound {:.0} %",
                v.label(),
                (vb - va) / va * 100.0,
                spread * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // qps, bound 10 %: an 8 % loss with 2 % spread is inside the bound.
        assert_eq!(verdict(100.0, 92.0, true, 0.02, 0.10), Verdict::WithinBound);
        assert_eq!(verdict(100.0, 88.0, true, 0.02, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 105.0, true, 0.02, 0.10), Verdict::Better);
        // A gain inside the spread is not a gain.
        assert_eq!(verdict(100.0, 101.0, true, 0.02, 0.10), Verdict::WithinBound);
        // Spread wider than the bound resolves nothing, either way.
        assert_eq!(verdict(100.0, 70.0, true, 0.15, 0.10), Verdict::Unresolved);
        // Latency: lower is better.
        assert_eq!(verdict(10.0, 12.5, false, 0.01, 0.20), Verdict::Worse);
        assert_eq!(verdict(10.0, 9.0, false, 0.01, 0.20), Verdict::Better);
        // A deterministic metric that did not move.
        assert_eq!(verdict(0.25, 0.25, false, 0.0, 0.02), Verdict::WithinBound);
    }
}
