//! Unaligned-case Monte-Carlo at the graph-model level — exactly the
//! abstraction the paper's own Section V-B simulations use: a background
//! G(n, p₁) plus a planted G(n₁, p₂) among the pattern vertices.

use dcs_graph::component_sizes;
use dcs_graph::er::{gnp, gnp_planted, PlantedConfig};
use dcs_stats::{hypergeom_tail_quantile, Ecdf};
use dcs_unaligned::corefind::precision_recall;
use dcs_unaligned::lambda::p_star_for_edge_prob;
use dcs_unaligned::{find_pattern, CoreFindConfig, MatchModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives the pattern edge probability p₂ for content of `g` packets at
/// an operating point with group-edge probability `p1` (k = 10 offsets,
/// 100 row pairs per group pair, paper geometry).
pub fn p2_for(g: usize, p1: f64) -> f64 {
    let model = MatchModel::paper_default(g);
    let p_star = p_star_for_edge_prob(p1, model.k * model.k);
    let w = model.row_weight as u64;
    let lam = hypergeom_tail_quantile(p_star, model.n_bits as u64, w, w) as u32;
    model.pattern_edge_prob(lam, p_star)
}

/// Largest-component sizes over `reps` trials of the (possibly planted)
/// graph model — the raw material of Figure 13's CDFs.
pub fn largest_component_samples(
    base_seed: u64,
    n: usize,
    p1: f64,
    n1: usize,
    p2: f64,
    reps: usize,
) -> Ecdf {
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(base_seed ^ ((i as u64) << 24));
            let largest = if n1 == 0 {
                let g = gnp(&mut rng, n, p1);
                component_sizes(&g)[0]
            } else {
                let (g, _) = gnp_planted(&mut rng, PlantedConfig { n, p1, n1, p2 });
                component_sizes(&g)[0]
            };
            largest as f64
        })
        .collect();
    Ecdf::new(samples)
}

/// False-negative probability of the ER test at a component threshold:
/// the fraction of *planted* trials whose largest component stays at or
/// under the threshold.
pub fn er_false_negative(planted: &Ecdf, threshold: usize) -> f64 {
    planted.cdf(threshold as f64)
}

/// False-positive probability: the fraction of *null* trials whose
/// largest component exceeds the threshold.
pub fn er_false_positive(null: &Ecdf, threshold: usize) -> f64 {
    null.exceed(threshold as f64)
}

/// Per-trial core-finding statistics (Table I's columns).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Mean reported-set size `|V_core ∪ V_2nd_core|`.
    pub avg_core_size: f64,
    /// Mean per-router false-negative rate (pattern vertices missed).
    pub avg_false_negative: f64,
    /// Mean per-router false-positive rate (reported vertices that never
    /// saw the content).
    pub avg_false_positive: f64,
}

/// Runs `reps` core-finding trials on the planted graph model.
pub fn core_finding_stats(
    base_seed: u64,
    n: usize,
    p1_detect: f64,
    n1: usize,
    p2: f64,
    cfg: CoreFindConfig,
    reps: usize,
) -> CoreStats {
    assert!(reps > 0, "need at least one trial");
    let mut acc = CoreStats::default();
    for i in 0..reps {
        let mut rng = StdRng::seed_from_u64(base_seed ^ ((i as u64) << 24));
        let (g, pattern) = gnp_planted(
            &mut rng,
            PlantedConfig {
                n,
                p1: p1_detect,
                n1,
                p2,
            },
        );
        let result = find_pattern(&g, cfg);
        let reported = result.vertices();
        let (precision, recall) = precision_recall(&reported, &pattern);
        acc.avg_core_size += reported.len() as f64;
        acc.avg_false_negative += 1.0 - recall;
        acc.avg_false_positive += 1.0 - precision;
    }
    acc.avg_core_size /= reps as f64;
    acc.avg_false_negative /= reps as f64;
    acc.avg_false_positive /= reps as f64;
    acc
}

/// Finds the minimum n₁ whose average recovery (`1 − FN`) reaches
/// `target_recovery`, scanning upward in steps then refining — the search
/// behind Table I's n₁ columns and Table III's detectable thresholds.
///
/// `cfg_for` maps a candidate n₁ to core-finding parameters — the paper
/// tunes β by Monte-Carlo per operating point, and a β that scales with
/// the expected pattern size (e.g. `n1/2`) is needed for the 75 %/90 %
/// recovery tiers (a fixed β caps the reported set at `2β`).
#[allow(clippy::too_many_arguments)] // flat args mirror the experiment factors
pub fn min_n1_for_recovery(
    base_seed: u64,
    n: usize,
    p1_detect: f64,
    p2: f64,
    cfg_for: &dyn Fn(usize) -> CoreFindConfig,
    target_recovery: f64,
    reps: usize,
    n1_max: usize,
) -> Option<usize> {
    assert!(
        (0.0..=1.0).contains(&target_recovery),
        "recovery target in [0,1]"
    );
    let recovery = |n1: usize| {
        let s = core_finding_stats(base_seed, n, p1_detect, n1, p2, cfg_for(n1), reps);
        1.0 - s.avg_false_negative
    };
    // Coarse upward scan (recovery is monotone in n1 up to MC noise).
    let step = (n1_max / 16).max(4);
    let mut hi = None;
    let mut n1 = step;
    while n1 <= n1_max {
        if recovery(n1) >= target_recovery {
            hi = Some(n1);
            break;
        }
        n1 += step;
    }
    let hi = hi?;
    // Refine downward in half-steps.
    let mut lo = hi.saturating_sub(step).max(1);
    let mut hi = hi;
    while hi - lo > (hi / 50).max(2) {
        let mid = (lo + hi) / 2;
        if recovery(mid) >= target_recovery {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2_is_physical_and_monotone_in_g() {
        let p1 = 0.8e-4;
        let p100 = p2_for(100, p1);
        let p120 = p2_for(120, p1);
        let p150 = p2_for(150, p1);
        assert!(p100 > p1, "p2 {p100} must exceed background");
        assert!(p100 < 0.2, "p2 {p100} bounded by the match probability");
        assert!(p100 < p120 && p120 < p150);
    }

    #[test]
    fn fig13_shape_null_vs_planted() {
        let n = 20_000;
        let p1 = 0.65 / n as f64;
        let p2 = 0.12;
        let null = largest_component_samples(1, n, p1, 0, 0.0, 12);
        let planted = largest_component_samples(2, n, p1, 120, p2, 12);
        // Null max stays small; planted mostly exceeds it.
        assert!(null.max() < 100.0, "null max {}", null.max());
        assert!(
            planted.quantile(0.5) > null.max(),
            "planted median {} vs null max {}",
            planted.quantile(0.5),
            null.max()
        );
        let threshold = 80;
        assert!(er_false_positive(&null, threshold) < 0.2);
        assert!(er_false_negative(&planted, threshold) < 0.4);
    }

    #[test]
    fn fn_decreases_with_n1() {
        let n = 20_000;
        let p1 = 0.65 / n as f64;
        let p2 = 0.05;
        let small = largest_component_samples(3, n, p1, 60, p2, 10);
        let large = largest_component_samples(4, n, p1, 200, p2, 10);
        let threshold = 80;
        assert!(
            er_false_negative(&large, threshold) <= er_false_negative(&small, threshold),
            "FN must not grow with n1"
        );
    }

    #[test]
    fn core_stats_recover_dense_pattern() {
        let n = 20_000;
        let stats = core_finding_stats(
            5,
            n,
            2.0 / n as f64,
            100,
            0.15,
            CoreFindConfig { beta: 50, d: 2 },
            4,
        );
        assert!(
            stats.avg_false_negative < 0.5,
            "FN {} too high",
            stats.avg_false_negative
        );
        assert!(
            stats.avg_false_positive < 0.2,
            "FP {} too high",
            stats.avg_false_positive
        );
        assert!(stats.avg_core_size >= 50.0);
    }

    #[test]
    fn min_n1_search_finds_a_threshold() {
        let n = 10_000;
        let p1 = 2.0 / n as f64;
        let found = min_n1_for_recovery(
            6,
            n,
            p1,
            0.15,
            &|n1| CoreFindConfig {
                beta: (n1 / 2).max(10),
                d: 2,
            },
            0.5,
            3,
            400,
        );
        let n1 = found.expect("a 50% threshold must exist at p2 = 0.15");
        assert!(
            (20..=300).contains(&n1),
            "threshold n1 = {n1} out of plausible band"
        );
        // Verify: recovery at the found point indeed meets the target.
        let cfg = CoreFindConfig {
            beta: (n1 / 2).max(10),
            d: 2,
        };
        let s = core_finding_stats(6, n, p1, n1, 0.15, cfg, 6);
        assert!(
            1.0 - s.avg_false_negative >= 0.35,
            "refound recovery too low"
        );
    }
}
