//! Snapshots end to end: a 2-thread run on a 500-body Plummer sphere saves
//! its state after k steps, loads it back from disk, and runs m more steps;
//! its positions and velocities equal those of the uninterrupted k + m step
//! run bit for bit. Once under a global timestep, once under block
//! timesteps, whose rung assignment the snapshot carries.

use barnes_hut::geom::{plummer, ParticleSet, PlummerSpec};
use barnes_hut::sim::snapshot::{load_snapshot, save_snapshot_state};
use barnes_hut::sim::{Simulation, SimulationConfig};
use barnes_hut::timestep::{BlockConfig, TimestepMode};

const K: usize = 3;
const M: usize = 4;

fn bits(set: &ParticleSet) -> Vec<[u64; 6]> {
    set.iter()
        .map(|p| [p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z].map(f64::to_bits))
        .collect()
}

/// Run `config` k + m steps straight through, and k steps, a snapshot
/// round trip through `name` in a temp directory, then m steps; the two
/// end states must be the same bits. Returns the rungs the snapshot held.
fn resumes_bitwise(name: &str, config: SimulationConfig) -> Option<Vec<u32>> {
    let set = plummer(PlummerSpec { n: 500, seed: 61, ..Default::default() });
    let mut straight = Simulation::new(set.clone(), config);
    straight.run(K + M);

    let mut first = Simulation::new(set, config);
    first.run(K);
    let dir = std::env::temp_dir().join(format!("bhut-snapshot-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.json"));
    save_snapshot_state(&path, &first.snapshot()).unwrap();
    let snap = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let saved_rungs = snap.rungs.clone();
    let mut resumed = Simulation::from_snapshot(snap);
    assert_eq!(resumed.time.to_bits(), first.time.to_bits(), "{name}: clock");
    resumed.run(M);

    assert_eq!(resumed.time.to_bits(), straight.time.to_bits(), "{name}: clock");
    assert_eq!(resumed.rungs(), straight.rungs(), "{name}: rungs");
    let (got, want) = (bits(&resumed.particles), bits(&straight.particles));
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{name}: particle {i} after {K} + {M} steps");
    }
    std::fs::remove_dir(&dir).ok();
    saved_rungs
}

#[test]
fn a_global_run_resumes_from_its_snapshot_bitwise() {
    let config = SimulationConfig { eps: 0.02, threads: 2, ..Default::default() };
    assert_eq!(resumes_bitwise("global", config), None);
}

#[test]
fn a_block_run_resumes_from_its_snapshot_bitwise() {
    let block = BlockConfig { dt_max: 8e-3, max_rung: 3, eta: 0.05, eps: 0.02 };
    let config = SimulationConfig {
        eps: 0.02,
        threads: 2,
        timestep: TimestepMode::Block(block),
        ..Default::default()
    };
    let rungs = resumes_bitwise("block", config).expect("a block snapshot carries rungs");
    assert!(rungs.iter().any(|&r| r > 0), "the hierarchy must be populated past rung 0");
}
