//! End-to-end k-star pipeline: the Table 2 experiment at miniature scale.

use dp_starj_repro::baselines::{kstar_r2t, kstar_tm, KstarTmConfig, R2tConfig};
use dp_starj_repro::core::pm_kstar;
use dp_starj_repro::graph::{amazon_like, deezer_like, kstar_count, Graph, KStarQuery};
use dp_starj_repro::noise::StarRng;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![("deezer", deezer_like(0.01, 3).unwrap()), ("amazon", amazon_like(0.005, 4).unwrap())]
}

#[test]
fn all_mechanisms_answer_q2_and_q3() {
    for (name, g) in graphs() {
        for k in [2u32, 3] {
            let q = KStarQuery::full(k, g.num_nodes());
            let truth = kstar_count(&g, &q) as f64;
            assert!(truth > 0.0, "{name}/Q{k}*: graph must contain stars");

            let mut rng = StarRng::from_seed(1).derive(name).derive_index(u64::from(k));
            let (pm, _) = pm_kstar(&g, &q, 1.0, &mut rng).unwrap();
            assert!(pm >= 0.0 && pm.is_finite());

            let cfg = R2tConfig::new(1e9, vec![]);
            let r2t = kstar_r2t(&g, &q, 1.0, &cfg, &mut rng).unwrap();
            assert!(r2t.value >= 0.0 && r2t.value.is_finite());

            let (tm, theta, smooth) =
                kstar_tm(&g, &q, 1.0, &KstarTmConfig::default(), &mut rng).unwrap();
            assert!(tm.is_finite());
            assert!(theta > 0 && smooth > 0.0);
        }
    }
}

#[test]
fn pm_is_fastest_mechanism() {
    // The Table 2 efficiency claim: PM needs no truncation pass, so it beats
    // TM (graph projection) on wall-clock. Generous 2× guard band.
    let g = deezer_like(0.05, 7).unwrap();
    let q = KStarQuery::full(2, g.num_nodes());
    let time = |f: &mut dyn FnMut()| {
        let start = std::time::Instant::now();
        for _ in 0..5 {
            f();
        }
        start.elapsed().as_secs_f64()
    };
    let mut rng = StarRng::from_seed(2);
    let pm_t = time(&mut || {
        pm_kstar(&g, &q, 1.0, &mut rng).unwrap();
    });
    let mut rng2 = StarRng::from_seed(3);
    let tm_t = time(&mut || {
        kstar_tm(&g, &q, 1.0, &KstarTmConfig::default(), &mut rng2).unwrap();
    });
    assert!(pm_t < tm_t * 2.0, "PM ({pm_t:.4}s) should not be slower than TM ({tm_t:.4}s)");
}

#[test]
fn errors_are_reproducible_and_epsilon_monotone() {
    let g = deezer_like(0.02, 9).unwrap();
    let q = KStarQuery::full(2, g.num_nodes());
    let truth = kstar_count(&g, &q) as f64;
    let mean_err = |eps: f64| {
        let n = 40;
        (0..n)
            .map(|t| {
                let mut rng = StarRng::from_seed(10).derive_index(t);
                let (v, _) = pm_kstar(&g, &q, eps, &mut rng).unwrap();
                (v - truth).abs() / truth
            })
            .sum::<f64>()
            / n as f64
    };
    assert!(mean_err(0.1) >= mean_err(10.0), "error must not grow with ε");
    // Determinism.
    assert_eq!(mean_err(0.5), mean_err(0.5));
}

#[test]
fn tm_beats_nothing_at_tiny_epsilon_but_r2t_works_at_large() {
    // Shape check from Table 2: at tiny ε TM's error is enormous (its
    // smooth bound explodes); at large ε mechanisms converge toward truth.
    let g = deezer_like(0.02, 11).unwrap();
    let q = KStarQuery::full(2, g.num_nodes());
    let truth = kstar_count(&g, &q) as f64;
    let median_err = |eps: f64| {
        let mut errs: Vec<f64> = (0..30)
            .map(|t| {
                let mut rng = StarRng::from_seed(12).derive_index(t);
                let (v, _, _) = kstar_tm(&g, &q, eps, &KstarTmConfig::default(), &mut rng).unwrap();
                (v - truth).abs() / truth
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        errs[15]
    };
    assert!(
        median_err(0.1) > median_err(5.0),
        "TM error must fall steeply with ε (Table 2's 2431% → 279% slide)"
    );
}
