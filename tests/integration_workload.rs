//! End-to-end Workload Decomposition pipeline (Figure 9 at miniature scale).

use dp_starj_repro::core::pm::PmConfig;
use dp_starj_repro::core::workload::{
    pm_workload_answer, wd_answer, workload_relative_error, PredicateWorkload, WdConfig,
    WorkloadBlock,
};
use dp_starj_repro::engine::StarSchema;
use dp_starj_repro::linalg::StrategyKind;
use dp_starj_repro::noise::StarRng;
use dp_starj_repro::ssb::{generate, w1, w2, SsbConfig, Workload, BLOCKS};

fn schema() -> StarSchema {
    generate(&SsbConfig { scale: 0.01, seed: 61, ..Default::default() }).unwrap()
}

fn adapt(w: &Workload) -> PredicateWorkload {
    let blocks = BLOCKS
        .iter()
        .map(|(t, a, d)| WorkloadBlock { table: (*t).into(), attr: (*a).into(), domain: *d })
        .collect();
    let rows = w
        .queries
        .iter()
        .map(|q| vec![q.year.clone(), q.cust_region.clone(), q.supp_region.clone()])
        .collect();
    PredicateWorkload::new(blocks, rows).unwrap()
}

#[test]
fn paper_workloads_have_expected_shapes() {
    let w1 = adapt(&w1());
    assert_eq!(w1.len(), 11);
    assert_eq!(w1.predicate_matrix(0).unwrap().cols(), 7);
    let w2 = adapt(&w2());
    assert_eq!(w2.len(), 7);
    // The concatenated one-hot width is 17, as printed in the paper.
    let width: usize = (0..3).map(|b| w2.predicate_matrix(b).unwrap().cols()).sum();
    assert_eq!(width, 17);
}

#[test]
fn wd_zero_noise_reconstructs_both_workloads_exactly() {
    let s = schema();
    for w in [adapt(&w1()), adapt(&w2())] {
        let truth = w.true_answers(&s).unwrap();
        let mut rng = StarRng::from_seed(1);
        let ans = wd_answer(&s, &w, 1e9, &WdConfig::default(), &mut rng).unwrap();
        for (a, t) in ans.iter().zip(&truth) {
            assert!((a - t).abs() <= t.abs() * 1e-6 + 1e-6, "{a} vs {t}");
        }
    }
}

#[test]
fn wd_beats_pm_on_both_workloads_statistically() {
    // Figure 9: WD introduces lower error than per-query PM. At ε ≤ 1 both
    // sit in the noise-saturated regime on these 5–7-value domains (scales
    // ≫ domain), so the ordering is tested at ε = 10 where WD's larger
    // per-predicate budget (ε/3 per strategy row vs ε/(3l) per PM predicate)
    // leaves saturation; see EXPERIMENTS.md for the full sweep.
    let s = schema();
    for (name, w) in [("W1", adapt(&w1())), ("W2", adapt(&w2()))] {
        let truth = w.true_answers(&s).unwrap();
        let trials = 30;
        let (mut wd_total, mut pm_total) = (0.0, 0.0);
        for t in 0..trials {
            let mut r1 = StarRng::from_seed(70).derive(name).derive_index(t);
            let mut r2 = StarRng::from_seed(71).derive(name).derive_index(t);
            let wd = wd_answer(&s, &w, 10.0, &WdConfig::default(), &mut r1).unwrap();
            let pm = pm_workload_answer(&s, &w, 10.0, &PmConfig::default(), &mut r2).unwrap();
            wd_total += workload_relative_error(&wd, &truth);
            pm_total += workload_relative_error(&pm, &truth);
        }
        assert!(wd_total < pm_total, "{name}: WD ({wd_total:.2}) must beat PM ({pm_total:.2})");
    }
}

#[test]
fn all_strategies_produce_finite_answers() {
    let s = schema();
    let w = adapt(&w2());
    for kind in [StrategyKind::Identity, StrategyKind::DyadicRanges, StrategyKind::Prefixes] {
        let cfg = WdConfig { strategies: Some(vec![kind; 3]), ..Default::default() };
        let mut rng = StarRng::from_seed(5);
        let ans = wd_answer(&s, &w, 0.5, &cfg, &mut rng).unwrap();
        assert_eq!(ans.len(), 7);
        assert!(ans.iter().all(|v| v.is_finite()), "{kind:?} produced non-finite answers");
    }
}

#[test]
fn workload_error_metric_is_scale_free() {
    let errs = workload_relative_error(&[110.0, 90.0], &[100.0, 100.0]);
    let scaled = workload_relative_error(&[1100.0, 900.0], &[1000.0, 1000.0]);
    assert!((errs - scaled).abs() < 1e-12);
}

/// The bits of `wd_answer` on W1 at a fixed seed over SSB SF 0.01: the
/// reconstruction draws and the one-`W` evaluation of its 11 weighted rows
/// are both pinned. The default (identity) strategies reconstruct 0/1
/// weights; dyadic ranges give fractional ones, whose sums round, so a
/// change to the order of the evaluator's float operations shows too.
#[test]
fn wd_answer_bits_on_w1_are_pinned() {
    let s = schema();
    let dyadic =
        WdConfig { strategies: Some(vec![StrategyKind::DyadicRanges; 3]), ..Default::default() };
    for (config, pinned) in [(WdConfig::default(), PINNED_IDENTITY), (dyadic, PINNED_DYADIC)] {
        let mut rng = StarRng::from_seed(2023);
        let answers = wd_answer(&s, &adapt(&w1()), 1.0, &config, &mut rng).unwrap();
        let bits: Vec<u64> = answers.iter().map(|a| a.to_bits()).collect();
        assert_eq!(bits, pinned, "{:?}", config.strategies);
    }
}

const PINNED_IDENTITY: [u64; 11] = [
    0x404c800000000000,
    0x404f000000000000,
    0x404c800000000000,
    0x404c800000000000,
    0x4051000000000000,
    0x404f000000000000,
    0x4074000000000000,
    0x4082900000000000,
    0x4087780000000000,
    0x4087380000000000,
    0x4082d00000000000,
];
const PINNED_DYADIC: [u64; 11] = [
    0x4069757ccd0bf2cb,
    0x406bd44d64c018b7,
    0x404bd1ffd888497e,
    0x404bd1ffd8884964,
    0x40747f6cebe17975,
    0x40750353a3307c9e,
    0xc05f90013bbdb4f8,
    0x4070e522c3f35ba4,
    0x4080e7888496297d,
    0x408f3b70c6924ec6,
    0xc0639088e7417204,
];
