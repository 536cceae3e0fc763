//! The slice scheme shared by every timed loop: the window is cut into
//! equal slices, throughput is the median over slices, and latency
//! percentiles come from the pooled, sorted nanosecond samples.

use crate::report::Report;
use crate::stats;
use std::time::{Duration, Instant};

/// What one client's closed loop did.
#[derive(Default)]
pub struct Driven {
    /// `(reply time, latency ns)` of every accepted reply.
    pub samples: Vec<(Instant, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Driven {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Adds the loops' attempted and failed counts to `report`, with the
    /// first failure as a note.
    pub fn tally(driven: &[Driven], report: &mut Report) {
        report.attempted += driven.iter().map(|d| d.attempted).sum::<u64>();
        report.failed += driven.iter().map(|d| d.failed).sum::<u64>();
        if let Some(why) = driven.iter().find_map(|d| d.first_failure.as_ref()) {
            report.note(format!("first failure: {why}"));
        }
    }
}

/// One timed window, by slice.
pub struct Slices {
    /// Completed requests per second of each slice.
    pub rates: Vec<f64>,
    /// Sorted latencies (ns) of the requests completed in each slice.
    pub latencies: Vec<Vec<u64>>,
}

impl Slices {
    /// Bins the loops' samples into `count` slices of `slice` from `epoch`.
    /// Replies after the window are dropped.
    pub fn bin(driven: &[Driven], epoch: Instant, slice: Duration, count: usize) -> Slices {
        let mut latencies = vec![Vec::new(); count];
        for &(done, ns) in driven.iter().flat_map(|d| &d.samples) {
            let k = (done.duration_since(epoch).as_nanos() / slice.as_nanos()) as usize;
            if k < count {
                latencies[k].push(ns);
            }
        }
        Slices::of(latencies, &vec![slice.as_secs_f64(); count])
    }

    /// Slices from per-slice samples and how long each slice measured.
    pub fn of(mut latencies: Vec<Vec<u64>>, secs: &[f64]) -> Slices {
        for l in &mut latencies {
            l.sort_unstable();
        }
        let rates = latencies.iter().zip(secs).map(|(l, s)| l.len() as f64 / s).collect();
        Slices { rates, latencies }
    }

    /// Median latency (ns) over the untraced (even) slices of a traced run.
    pub fn untraced_p50_ns(&self) -> u64 {
        let mut pooled: Vec<u64> = self.latencies.iter().step_by(2).flatten().copied().collect();
        stats::median_ns(&mut pooled)
    }

    /// The tail of `slices`: the highest of p99 / p95 / p90 / p75 with at
    /// least ten samples beyond it in every slice, and each slice's value of
    /// it in ms. Their median is the tail, so one disturbed second does not
    /// set it.
    fn tail(slices: &[&Vec<u64>]) -> (f64, Vec<f64>) {
        let shortest = slices.iter().map(|l| l.len()).min().expect("a measured slice");
        let p = stats::tail_percentile(shortest);
        (p, slices.iter().map(|l| stats::percentile(l, p) as f64 / 1e6).collect())
    }

    /// Reports `setup_s`, `qps` and `lat_p50_ms`, the median exact over the
    /// pooled samples. The tail is a note here, not a metric: run to run it
    /// follows the host (see `trace.lat_tail_ms`). `noun` names what one
    /// sample is.
    pub fn report(&self, setups: &[f64], noun: &str, report: &mut Report) {
        let measured: Vec<&Vec<u64>> = self.latencies.iter().filter(|l| !l.is_empty()).collect();
        let (p, tails) = Slices::tail(&measured);
        report.note(format!(
            "tail: slice median of p{p} = {} ms, by slice {tails:.3?}; {} {noun}",
            stats::median(&tails),
            measured.iter().map(|l| l.len()).sum::<usize>()
        ));
        report.note(format!("{noun} per second by slice: {:.0?}", self.rates));
        let medians: Vec<f64> =
            measured.iter().map(|l| stats::percentile(l, 50.0) as f64 / 1e6).collect();
        let mut pooled: Vec<u64> = self.latencies.iter().flatten().copied().collect();
        report.put_parts("setup_s", setups);
        report.put_parts("qps", &self.rates);
        report.put_spread(
            "lat_p50_ms",
            stats::median_ns(&mut pooled) as f64 / 1e6,
            stats::spread(&medians),
        );
    }

    /// What a traced run reports about its timed window. Odd slices record
    /// spans: `telemetry.trace_overhead_share` is the share of throughput
    /// they lose against the even ones (it needs a slice of each kind), and
    /// `trace.lat_tail_ms` is the tail of the even ones.
    pub fn report_traced(&self, report: &mut Report) {
        let side =
            |odd: usize| -> Vec<f64> { self.rates.iter().skip(odd).step_by(2).copied().collect() };
        if self.rates.len() > 1 {
            report.put(
                "telemetry.trace_overhead_share",
                1.0 - stats::median(&side(1)) / stats::median(&side(0)),
            );
        }
        let untraced: Vec<&Vec<u64>> =
            self.latencies.iter().step_by(2).filter(|l| !l.is_empty()).collect();
        let (p, tails) = Slices::tail(&untraced);
        report.note(format!("trace.lat_tail_ms is the slice median of p{p}"));
        report.put_parts("trace.lat_tail_ms", &tails);
    }
}
