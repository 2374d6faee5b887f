//! The cost of the phase instrumentation (DESIGN.md §3b): the threaded
//! executor's force sweep with and without its per-worker span profile.
//!
//! ```text
//! cargo bench -p bhut-bench --bench overhead
//! ```
//!
//! One warmed `ThreadSim` on `p_63192` at scale 0.7912 (n = 50 000) runs ten
//! pairs of `compute_forces` / `compute_forces_profiled`, alternating which
//! of the two goes first, and prints the median wall clock of each and their
//! ratio. Both calls return the same bits; only clock reads are added.

use bhut_geom::dataset_scaled;
use bhut_threads::{ThreadConfig, ThreadSim};
use std::time::Instant;

const PAIRS: usize = 10;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        0.5 * (xs[m - 1] + xs[m])
    } else {
        xs[m]
    }
}

fn main() {
    let set = dataset_scaled("p_63192", 0.7912);
    let config = ThreadConfig::default();
    let threads = config.threads;
    let mut sim = ThreadSim::new(config);
    let _ = sim.compute_forces(&set.particles); // warm the zone weights
    let mut timed = |profiled: bool| {
        let start = Instant::now();
        let result = if profiled {
            sim.compute_forces_profiled(&set.particles)
        } else {
            sim.compute_forces(&set.particles)
        };
        std::hint::black_box(result);
        start.elapsed().as_secs_f64() * 1e3
    };
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let first_profiled = pair % 2 == 1;
        let a = timed(first_profiled);
        let b = timed(!first_profiled);
        let (p, q) = if first_profiled { (b, a) } else { (a, b) };
        plain.push(p);
        profiled.push(q);
    }
    let (plain, profiled) = (median(plain), median(profiled));
    println!(
        "n = {}, threads = {threads}, {PAIRS} pairs: compute_forces median {plain:.1} ms, \
         compute_forces_profiled median {profiled:.1} ms, ratio {:.3}",
        set.len(),
        profiled / plain
    );
}
