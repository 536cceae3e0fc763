//! PMA — the Predicate Mechanism for an Attribute (paper Algorithm 2).
//!
//! Point constraints `a = v` become `a = v + Lap(dom(a)/ε)`; range
//! constraints `a ∈ [l, r]` get both endpoints perturbed independently with
//! `Lap(2·dom(a)/ε)` (each endpoint carries ε/2). The noise is continuous
//! Laplace, as Algorithm 2 writes it. A perturbed constant is rounded to the
//! nearest code and *rejected* into the attribute domain: a draw that rounds
//! outside `[0, dom)` is thrown away and redrawn, and only after 128 misses
//! is one more draw clamped to the nearest edge. The paper notes that "when
//! PM perturbs the predicate, its perturbation result is still within the
//! domain value range" (§6, domain-size experiment) but does not say how;
//! README, "Interpretations and substitutions", #11 records this rule and
//! how often it clamps.
//!
//! Algorithm 2's `while l̂ < r̂` guard is read as written: a range that comes
//! out invalid redraws both endpoints, up to 64 times (`RANGE_REDRAWS`), and
//! only then swaps them. README, "Interpretations and substitutions", #1
//! records the scores of the swap-at-once and collapse-to-midpoint readings
//! this replaced.

use crate::error::CoreError;
use starj_engine::{Constraint, Domain};
use starj_noise::{Laplace, StarRng};

/// Redraws before the clamp fallback of [`draw_in_domain`].
const MAX_ATTEMPTS: usize = 128;

/// Redraws of both endpoints of an invalid range before the swap fallback
/// of [`perturb_constraint`].
const RANGE_REDRAWS: usize = 64;

/// Relative guard band on [`skip_floor`].
const GUARD: f64 = 1e-9;

/// The code `base + shift` rounds to, if it lies in `[0, dom)`.
fn in_domain(base: f64, dom: f64, shift: f64) -> Option<u32> {
    let candidate = (base + shift).round();
    (candidate >= 0.0 && candidate < dom).then_some(candidate as u32)
}

/// The threshold below which a continuous Laplace draw at `scale` cannot
/// round from `base` into `[0, dom)`, in terms of `t = 1 − 2|u − ½|`.
///
/// The sample is `±b·ln(1/t)`, so a draw with `t < exp(−far/b)`, where
/// `far` is the distance from `base` to the farther rounding edge (`−½` or
/// `dom − ½`), overshoots both edges. The threshold is shrunk by the
/// relative band [`GUARD`], which moves it by `b·GUARD` in sample units.
/// The floating-point error of the sample and of `base + sample` is about
/// `2·dom·2⁻⁵²` (that of the threshold itself under `b·1e-13`). While the
/// threshold has not underflowed, `far/b < 745` and `far ≥ dom/2`, so
/// `b·GUARD > dom·6e-13`, three orders of magnitude over that error: every
/// draw below the threshold is one the full transform rejects too. Once it
/// underflows to 0 nothing is below it.
fn skip_floor(base: f64, dom: f64, scale: f64) -> f64 {
    let far = (base + 0.5).max(dom - 0.5 - base);
    (-far / scale).exp() * (1.0 - GUARD)
}

/// Draws `base + Lap(scale)`, rounded to a code and rejected into the
/// domain (the paper's "perturbation result is still within the domain value
/// range"): a draw that rounds outside `[0, dom)` is redrawn, up to
/// [`MAX_ATTEMPTS`] times; then one more draw is clamped to the nearest
/// edge (likely when the noise scale dwarfs the domain, as at the paper's
/// low ε).
///
/// Every attempt consumes exactly one [`StarRng::open01`]. A draw whose
/// `t = 1 − 2|u − ½|` (exact for an `open01` draw) is below [`skip_floor`]
/// is rejected there, before its logarithm, so a miss costs one RNG step
/// and one compare. The codes and the RNG stream are those of drawing every
/// attempt in full.
fn draw_in_domain(base: u32, lap: &Laplace, domain: &Domain, rng: &mut StarRng) -> u32 {
    let (base, dom) = (f64::from(base), f64::from(domain.size()));
    let floor = skip_floor(base, dom, lap.scale());
    for _ in 0..MAX_ATTEMPTS {
        let u = rng.open01();
        if 1.0 - 2.0 * (u - 0.5).abs() >= floor {
            if let Some(code) = in_domain(base, dom, lap.inverse_cdf(u)) {
                return code;
            }
        }
    }
    domain.clamp((base + lap.sample(rng)).round() as i64)
}

/// Applies PMA to one constraint under budget `epsilon`.
///
/// Set constraints (IN-lists) are not covered by Algorithm 2; contiguous
/// sets are treated as ranges and general sets perturb each member as a
/// point under an even ε split (documented interpretation).
pub fn perturb_constraint(
    constraint: &Constraint,
    domain: &Domain,
    epsilon: f64,
    rng: &mut StarRng,
) -> Result<Constraint, CoreError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(CoreError::Invalid(format!("epsilon must be positive, got {epsilon}")));
    }
    constraint.validate(domain)?;
    let dom = f64::from(domain.size());

    match constraint {
        Constraint::Point(v) => {
            let lap = Laplace::new(dom / epsilon)?;
            Ok(Constraint::Point(draw_in_domain(*v, &lap, domain, rng)))
        }
        Constraint::Range { lo, hi } => {
            let lap = Laplace::new(2.0 * dom / epsilon)?;
            // Width-faithful strictness: Algorithm 2's guard is the *strict*
            // `while l̂ < r̂`, so a true range of width ≥ 1 must stay
            // non-degenerate; a degenerate range (lo == hi) only needs
            // l̂ ≤ r̂.
            let need_strict = hi > lo && domain.size() > 1;
            let valid = |l: u32, r: u32| if need_strict { l < r } else { l <= r };
            let draw = |rng: &mut StarRng| {
                (draw_in_domain(*lo, &lap, domain, rng), draw_in_domain(*hi, &lap, domain, rng))
            };
            let (mut l, mut r) = draw(rng);
            for _ in 0..RANGE_REDRAWS {
                if valid(l, r) {
                    break;
                }
                (l, r) = draw(rng);
            }
            // Still invalid after every redraw: swap, then widen a strict
            // range that came out a single code minimally inside the domain.
            // Both steps are no-ops on a valid range.
            if l > r {
                std::mem::swap(&mut l, &mut r);
            }
            if need_strict && l == r {
                if r + 1 < domain.size() {
                    r += 1;
                } else {
                    l = l.saturating_sub(1);
                }
            }
            Ok(Constraint::Range { lo: l, hi: r })
        }
        Constraint::Set(values) => {
            // Contiguous sets are ranges in disguise.
            let mut sorted = values.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let contiguous = sorted.windows(2).all(|w| w[1] == w[0] + 1);
            if contiguous {
                let as_range =
                    Constraint::Range { lo: sorted[0], hi: *sorted.last().expect("non-empty") };
                return perturb_constraint(&as_range, domain, epsilon, rng);
            }
            // General set: each member perturbed as a point under ε/|set|.
            let eps_each = epsilon / sorted.len() as f64;
            let mut noisy: Vec<u32> = Vec::with_capacity(sorted.len());
            for v in &sorted {
                match perturb_constraint(&Constraint::Point(*v), domain, eps_each, rng)? {
                    Constraint::Point(p) => noisy.push(p),
                    _ => unreachable!("point perturbation returns a point"),
                }
            }
            noisy.sort_unstable();
            noisy.dedup();
            Ok(Constraint::Set(noisy))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain(size: u32) -> Domain {
        Domain::numeric("attr", size).unwrap()
    }

    /// The continuous arm of `draw_in_domain` before the skip threshold:
    /// the full transform on every attempt. Also says whether it clamped.
    fn retired_draw_in_domain(
        base: u32,
        scale: f64,
        domain: &Domain,
        rng: &mut StarRng,
    ) -> (u32, bool) {
        let shift = |rng: &mut StarRng| {
            let u = rng.open01() - 0.5;
            -scale * u.signum() * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln()
        };
        for _ in 0..128 {
            let candidate = (f64::from(base) + shift(rng)).round();
            if candidate >= 0.0 && candidate < f64::from(domain.size()) {
                return (candidate as u32, false);
            }
        }
        (domain.clamp((f64::from(base) + shift(rng)).round() as i64), true)
    }

    #[test]
    fn skip_threshold_matches_the_full_transform() {
        // Scales from 1e-9 (the threshold underflows to 0, nothing is
        // skipped) to 1e17 (on small domains its `exp` rounds to 1, nearly
        // every draw is skipped and the clamp fallback runs).
        let scales = [1e-9, 1e-3, 0.3, 1.0, 3.0, 16.0, 56.0, 1e3, 1e5, 1e9, 1e17];
        let (mut exits, mut clamps) = (0, 0);
        for size in [1, 2, 5, 7, 12, 25, 250, 10_000] {
            let d = domain(size);
            for base in [0, size / 2, size - 1] {
                for &scale in &scales {
                    let noise = Laplace::new(scale).unwrap();
                    for seed in 0..300 {
                        let mut old = StarRng::from_seed(seed).derive_index(u64::from(size));
                        let mut new = old.clone();
                        let (want, clamped) = retired_draw_in_domain(base, scale, &d, &mut old);
                        let got = draw_in_domain(base, &noise, &d, &mut new);
                        assert_eq!(
                            got, want,
                            "dom {size}, base {base}, scale {scale}, seed {seed}"
                        );
                        assert_eq!(
                            new.open01().to_bits(),
                            old.open01().to_bits(),
                            "RNG words consumed differ"
                        );
                        if clamped {
                            clamps += 1;
                        } else {
                            exits += 1;
                        }
                    }
                }
            }
        }
        assert!(exits > 0 && clamps > 0, "{exits} in-domain exits, {clamps} clamps");
    }

    #[test]
    fn draws_just_below_the_skip_floor_miss_the_domain() {
        // The sweep above rarely draws next to the threshold; here the
        // largest few `t` below it, on both signs, must round outside.
        const STEP: f64 = f64::EPSILON; // `t` is a multiple of 2⁻⁵²
        let mut probed = 0;
        for size in [1, 2, 5, 7, 12, 25, 250, 10_000] {
            let dom = f64::from(size);
            for base in [0, size / 2, size - 1].map(f64::from) {
                for scale in [1e-3, 0.3, 1.0, 3.0, 16.0, 56.0, 1e3, 1e5, 1e9] {
                    let floor = skip_floor(base, dom, scale);
                    let lap = Laplace::new(scale).unwrap();
                    let top = (floor / STEP).ceil() - 1.0;
                    for t in (0..4).map(|j| (top - f64::from(j)) * STEP).filter(|&t| t > 0.0) {
                        for u in [t / 2.0, 1.0 - t / 2.0] {
                            assert_eq!(1.0 - 2.0 * (u - 0.5).abs(), t, "t is exact");
                            let shift = lap.inverse_cdf(u);
                            assert_eq!(
                                in_domain(base, dom, shift),
                                None,
                                "dom {size}, base {base}, scale {scale}: t = {t} lands"
                            );
                            probed += 1;
                        }
                    }
                }
            }
        }
        assert!(probed > 1_000, "{probed} draws probed");
    }

    #[test]
    fn sets_draw_the_noise_of_their_range_or_points() {
        let d = domain(20);
        let draw = |c: Constraint, eps: f64| {
            let mut rng = StarRng::from_seed(34);
            let out = perturb_constraint(&c, &d, eps, &mut rng).unwrap();
            (out, rng.open01().to_bits())
        };
        // A contiguous set is its range.
        let (set, set_next) = draw(Constraint::Set(vec![5, 3, 4]), 0.5);
        let (range, range_next) = draw(Constraint::Range { lo: 3, hi: 5 }, 0.5);
        assert_eq!(set, range);
        assert_eq!(set_next, range_next, "the set drew different noise than its range");
        // A general set's members are points under ε/|set|.
        let (set, set_next) = draw(Constraint::Set(vec![2, 9, 15]), 1.5);
        let mut rng = StarRng::from_seed(34);
        let mut members: Vec<u32> = [2, 9, 15]
            .iter()
            .map(|&v| match perturb_constraint(&Constraint::Point(v), &d, 0.5, &mut rng).unwrap() {
                Constraint::Point(p) => p,
                other => panic!("got {other:?}"),
            })
            .collect();
        members.sort_unstable();
        members.dedup();
        assert_eq!(set, Constraint::Set(members));
        assert_eq!(set_next, rng.open01().to_bits());
    }

    #[test]
    fn rejects_bad_inputs() {
        let d = domain(10);
        let mut rng = StarRng::from_seed(1);
        assert!(perturb_constraint(&Constraint::Point(3), &d, 0.0, &mut rng).is_err());
        assert!(
            perturb_constraint(&Constraint::Point(99), &d, 1.0, &mut rng).is_err(),
            "constraint must lie in the domain"
        );
    }

    #[test]
    fn point_output_stays_in_domain() {
        let d = domain(5);
        let mut rng = StarRng::from_seed(2);
        for _ in 0..2_000 {
            match perturb_constraint(&Constraint::Point(2), &d, 0.1, &mut rng).unwrap() {
                Constraint::Point(v) => assert!(v < 5),
                other => panic!("point must stay a point, got {other:?}"),
            }
        }
    }

    #[test]
    fn range_output_is_valid_and_in_domain() {
        // At ε = 0.2 on 100 codes about half the first draws are invalid,
        // so the redraw loop runs often.
        let d = domain(100);
        let mut rng = StarRng::from_seed(3);
        for _ in 0..2_000 {
            match perturb_constraint(&Constraint::Range { lo: 20, hi: 60 }, &d, 0.2, &mut rng)
                .unwrap()
            {
                Constraint::Range { lo, hi } => {
                    assert!(lo < hi, "a range of width ≥ 1 stays non-degenerate");
                    assert!(hi < 100);
                }
                other => panic!("range must stay a range, got {other:?}"),
            }
        }
    }

    #[test]
    fn large_epsilon_barely_moves_constants() {
        let d = domain(1_000);
        let mut rng = StarRng::from_seed(4);
        let mut max_shift = 0i64;
        for _ in 0..500 {
            if let Constraint::Point(v) =
                perturb_constraint(&Constraint::Point(500), &d, 1e6, &mut rng).unwrap()
            {
                max_shift = max_shift.max((i64::from(v) - 500).abs());
            }
        }
        assert!(max_shift <= 1, "ε → ∞ means no perturbation, saw shift {max_shift}");
    }

    #[test]
    fn small_epsilon_moves_constants_a_lot() {
        let d = domain(1_000);
        let mut rng = StarRng::from_seed(5);
        let mut total_shift = 0f64;
        let n = 500;
        for _ in 0..n {
            if let Constraint::Point(v) =
                perturb_constraint(&Constraint::Point(500), &d, 0.01, &mut rng).unwrap()
            {
                total_shift += (f64::from(v) - 500.0).abs();
            }
        }
        assert!(total_shift / n as f64 > 100.0, "tiny ε must move constants far");
    }

    #[test]
    fn noise_scale_tracks_domain_size() {
        // Same ε, larger domain ⇒ larger average displacement (the paper's
        // Figure 8 effect).
        let shift = |size: u32| {
            let d = domain(size);
            let mut rng = StarRng::from_seed(6);
            let v = size / 2;
            let mut acc = 0.0;
            for _ in 0..2_000 {
                if let Constraint::Point(p) =
                    perturb_constraint(&Constraint::Point(v), &d, 1.0, &mut rng).unwrap()
                {
                    acc += (f64::from(p) - f64::from(v)).abs();
                }
            }
            acc / 2_000.0
        };
        assert!(shift(1_000) > 5.0 * shift(10));
    }

    #[test]
    fn contiguous_set_is_perturbed_as_range() {
        let d = domain(5);
        let mut rng = StarRng::from_seed(7);
        // {0,1} — Qc4's mfgr IN-list — must come back as a range.
        let out = perturb_constraint(&Constraint::Set(vec![1, 0]), &d, 1.0, &mut rng).unwrap();
        assert!(matches!(out, Constraint::Range { .. }), "got {out:?}");
    }

    #[test]
    fn general_set_stays_a_set_within_domain() {
        let d = domain(10);
        let mut rng = StarRng::from_seed(8);
        for _ in 0..500 {
            match perturb_constraint(&Constraint::Set(vec![0, 4, 9]), &d, 0.5, &mut rng).unwrap() {
                Constraint::Set(vs) => {
                    assert!(!vs.is_empty() && vs.len() <= 3);
                    assert!(vs.iter().all(|&v| v < 10));
                    assert!(vs.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
                }
                other => panic!("non-contiguous set must stay a set, got {other:?}"),
            }
        }
    }
}
