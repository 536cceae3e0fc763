//! The DP-starJ end-to-end benchmark: five seeded workloads that time one
//! request's full path and attribute it to gate / router / service /
//! durable / core / engine. See `README.md` for what each workload is for.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]     all five, one child process each
//! benchmark compare <a.json> <b.json>                                  verdict per (workload, metric)
//! ```

mod compare;
mod durable;
mod gen;
mod layers;
mod load;
mod mech;
mod report;
mod stack;
mod stats;
mod trace;
mod wire;

use report::Report;
use starj_telemetry::Json;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// The workloads, in the order they run.
pub const WORKLOADS: [&str; 5] =
    ["wire_adhoc", "wire_burst", "wire_repeat", "mech_sf1", "durable_churn"];

/// Slices of a timed window.
const SLICES: usize = 5;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seeds the query generator and the served noise.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Smoke mode: one 1 s slice, scale factors ÷ 10, counts ÷ 10. Its
    /// numbers are not comparable with anything.
    pub quick: bool,
}

impl Opts {
    pub fn slices(&self) -> usize {
        if self.quick {
            1
        } else {
            SLICES
        }
    }

    pub fn slice(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / self.slices() as f64)
    }

    /// A fixed count (warm-up requests, replayed inputs).
    pub fn count(&self, n: usize) -> usize {
        (self.shrink(n as f64) as usize).max(1)
    }

    /// A scale factor or a duration.
    pub fn shrink(&self, x: f64) -> f64 {
        if self.quick {
            x / 10.0
        } else {
            x
        }
    }
}

fn run_workload(name: &str, opts: &Opts) -> Option<Report> {
    Some(match name {
        "wire_adhoc" => wire::run(wire::Kind::Adhoc, opts),
        "wire_burst" => wire::run(wire::Kind::Burst, opts),
        "wire_repeat" => wire::run(wire::Kind::Repeat, opts),
        "mech_sf1" => mech::run(opts),
        "durable_churn" => durable::run(opts),
        _ => return None,
    })
}

/// One child's results, as the parent re-reads them from its output.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit, spread)`.
    metrics: Vec<(String, f64, String, f64)>,
}

/// Runs one workload in a child process of its own, so peak memory and
/// the process-global scan and kernel counters are per workload. Relays
/// the child's lines and parses its result back.
fn run_child(name: &str, opts: &Opts, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.quick {
        command.arg("--quick");
    }
    let mut child = command.spawn().map_err(|e| e.to_string())?;
    let mut metrics = Vec::new();
    let mut result = None;
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.starts_with('{') {
            result = Some(Json::parse(&line)?);
            continue;
        }
        println!("{line}");
        // `workload metric value unit spread=…`
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [workload, metric, value, unit, spread] = fields[..] {
            if let (true, Some(spread)) = (workload == name, spread.strip_prefix("spread=")) {
                let number = |text: &str| text.parse::<f64>().map_err(|e| format!("{line}: {e}"));
                metrics.push((
                    metric.to_string(),
                    number(value)?,
                    unit.to_string(),
                    number(spread)?,
                ));
            }
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let result = result.ok_or(format!("{name} printed no result (exit {status})"))?;
    let num = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(ChildResult {
        correct: num("correct") == 1.0 && status.success(),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
    })
}

/// Runs every workload (untraced, then traced if asked) and writes the
/// combined result file `compare` reads.
fn run_all(opts: &Opts, json_path: &str) -> Result<bool, String> {
    let mut all_correct = true;
    let mut entries = Vec::new();
    for name in WORKLOADS {
        let mut merged = run_child(name, opts, false)?;
        if opts.trace {
            let traced = run_child(name, opts, true)?;
            merged.correct &= traced.correct;
            merged.metrics.extend(traced.metrics);
        }
        all_correct &= merged.correct;
        let metrics = merged
            .metrics
            .iter()
            .map(|(metric, value, unit, spread)| {
                let fields = vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.clone())),
                    ("spread", Json::Num(*spread)),
                ];
                (metric.clone(), Json::obj(fields))
            })
            .collect();
        let fields = vec![
            ("correct", Json::Num(f64::from(u8::from(merged.correct)))),
            ("attempted", Json::Num(merged.attempted)),
            ("failed", Json::Num(merged.failed)),
            ("metrics", Json::Obj(metrics)),
        ];
        entries.push((name.to_string(), Json::obj(fields)));
    }
    let doc = Json::obj(vec![
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("quick", Json::Num(f64::from(u8::from(opts.quick)))),
        ("workloads", Json::Obj(entries)),
    ]);
    doc.write(json_path).map_err(|e| format!("{json_path}: {e}"))?;
    println!("# results written to {json_path}");
    Ok(all_correct)
}

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--quick] [--json <path>] | benchmark compare <a.json> <b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = &args[..] else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut opts = Opts { seed: 2023, seconds: 10.0, trace: false, quick: false };
    let mut workload = None;
    let mut json_path = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().map(String::as_str);
        let parsed = match flag.as_str() {
            "--quick" => {
                opts.quick = true;
                true
            }
            "--workload" => value().map(|v| workload = Some(v.to_string())).is_some(),
            "--json" => value().map(|v| json_path = Some(v.to_string())).is_some(),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| opts.seed = v).is_some(),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .map(|v| opts.seconds = v)
                .is_some(),
            "--trace" => match value() {
                Some("0") => true,
                Some("1") => {
                    opts.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !parsed {
            eprintln!("bad argument `{flag}`\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if opts.quick {
        opts.seconds = 1.0;
        println!("# --quick: 1 slice x 1 s, scale factors / 10. These numbers are NON-COMPARABLE.");
    }

    let Some(name) = workload else {
        let path = json_path
            .unwrap_or_else(|| stack::out_dir().join("run.json").to_string_lossy().into_owned());
        return match run_all(&opts, &path) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("a workload failed a check");
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    };
    let Some(report) = run_workload(&name, &opts) else {
        eprintln!("unknown workload `{name}`; the workloads are {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    for line in report.lines(opts.trace) {
        println!("{line}");
    }
    println!("{}", report.result_json(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
