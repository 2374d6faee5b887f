//! The Kruskal–Weiss completion-time model (§4.1).
//!
//! For `r` independent subtasks with mean `μ` and standard deviation `σ`
//! allocated `r/p` at a time to `p` processors:
//!
//! ```text
//! T_p ≈ (r/p)·μ + σ·sqrt(2·(r/p)·log p)
//! ```
//!
//! The first term is essential computation, the second the load-imbalance
//! overhead. Requiring the second to grow no faster than the first yields
//! the paper's cluster-count rule `r ≳ p·log p` — "we can balance load among
//! processors by allocating Θ(log p) clusters to each processor".
//! Experiment A1 checks the model against measured cluster loads.

/// Expected completion time of `r` subtasks (mean `mu`, std-dev `sigma`) on
/// `p` processors.
pub fn kruskal_weiss_time(r: usize, p: usize, mu: f64, sigma: f64) -> f64 {
    assert!(r > 0 && p > 0);
    let rp = r as f64 / p as f64;
    let lg = (p as f64).ln().max(0.0);
    rp * mu + sigma * (2.0 * rp * lg).sqrt()
}

/// Predicted efficiency: essential / (essential + overhead).
pub fn predicted_efficiency(r: usize, p: usize, mu: f64, sigma: f64) -> f64 {
    let essential = (r as f64 / p as f64) * mu;
    essential / kruskal_weiss_time(r, p, mu, sigma)
}

/// The minimum cluster count for the overhead to stay a bounded fraction of
/// essential work: `r ≥ p·log₂ p` (the paper's `r ≳ p log p`).
pub fn min_clusters_for_balance(p: usize) -> usize {
    let lg = (p as f64).log2().ceil().max(1.0) as usize;
    p * lg
}

/// Mean and standard deviation of a load sample.
pub fn mean_std(loads: &[f64]) -> (f64, f64) {
    assert!(!loads.is_empty());
    let n = loads.len() as f64;
    let mean = loads.iter().sum::<f64>() / n;
    let var = loads.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_tasks_have_no_overhead() {
        let t = kruskal_weiss_time(1024, 16, 2.0, 0.0);
        assert!((t - 128.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_increases_with_r() {
        // §4.1: "on increasing r, essential computation grows faster than
        // the overhead and consequently, the efficiency of the system
        // increases."
        let p = 64;
        let e1 = predicted_efficiency(p * 2, p, 1.0, 1.0);
        let e2 = predicted_efficiency(p * 8, p, 1.0, 1.0);
        let e3 = predicted_efficiency(p * 64, p, 1.0, 1.0);
        assert!(e1 < e2 && e2 < e3, "{e1} {e2} {e3}");
    }

    #[test]
    fn efficiency_decreases_with_p_at_fixed_r() {
        let r = 4096;
        let e1 = predicted_efficiency(r, 16, 1.0, 1.0);
        let e2 = predicted_efficiency(r, 256, 1.0, 1.0);
        assert!(e2 < e1);
    }

    #[test]
    fn min_cluster_rule() {
        assert_eq!(min_clusters_for_balance(16), 64);
        assert_eq!(min_clusters_for_balance(256), 2048);
        // At the rule's r the efficiency is bounded away from zero and
        // stays constant as p grows (σ = μ case): r/p = log₂ p makes both
        // terms scale together — that is the point of the r ≳ p log p rule.
        let base = predicted_efficiency(min_clusters_for_balance(16), 16, 1.0, 1.0);
        assert!(base > 0.4, "efficiency {base}");
        for p in [64usize, 256, 1024] {
            let e = predicted_efficiency(min_clusters_for_balance(p), p, 1.0, 1.0);
            assert!((e - base).abs() < 0.1, "p={p}: efficiency {e} vs base {base}");
        }
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 2.0, 2.0]);
        assert_eq!((m, s), (2.0, 0.0));
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
    }
}
