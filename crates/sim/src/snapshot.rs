//! Snapshot and figure-data I/O.
//!
//! Snapshots are self-describing JSON (particle set + time), so experiment
//! records in `EXPERIMENTS.md` are regenerable and diffable. Position dumps
//! are CSV for plotting (Fig. 8 emits one of these).

use crate::simulation::SimulationConfig;
use bhut_geom::ParticleSet;
use serde::{Deserialize, Serialize, Value};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

/// A saved simulation state. The rung assignment and configuration are
/// optional so snapshots written before the block-timestep subsystem (and
/// global-dt snapshots, which have no rungs) stay loadable.
#[derive(Debug, Clone, Serialize)]
pub struct Snapshot {
    pub time: f64,
    pub particles: ParticleSet,
    /// Per-particle rung assignment (block-timestep runs only).
    pub rungs: Option<Vec<u32>>,
    /// The configuration that produced this state, for faithful resumes.
    pub config: Option<SimulationConfig>,
}

// Hand-written so the two new fields default to `None` when absent — the
// vendored serde derive rejects missing fields, which would break loading
// pre-S12 snapshot files.
impl Deserialize for Snapshot {
    fn from_value(v: &Value) -> Result<Self, String> {
        let time = f64::from_value(v.get_field("time").ok_or("missing field `time` in Snapshot")?)?;
        let particles = ParticleSet::from_value(
            v.get_field("particles").ok_or("missing field `particles` in Snapshot")?,
        )?;
        let rungs = match v.get_field("rungs") {
            Some(x) => Option::<Vec<u32>>::from_value(x)?,
            None => None,
        };
        let config = match v.get_field("config") {
            Some(x) => Option::<SimulationConfig>::from_value(x)?,
            None => None,
        };
        Ok(Snapshot { time, particles, rungs, config })
    }
}

/// Write a snapshot as JSON.
pub fn save_snapshot(path: &Path, time: f64, particles: &ParticleSet) -> io::Result<()> {
    save_snapshot_state(
        path,
        &Snapshot { time, particles: particles.clone(), rungs: None, config: None },
    )
}

/// Write a full snapshot (see [`crate::Simulation::snapshot`]) as JSON.
///
/// The write is crash-safe: the JSON goes to a temp file in the same
/// directory which is fsynced and renamed over `path`, so a crash mid-write
/// can never leave a truncated file at the final name.
pub fn save_snapshot_state(path: &Path, snap: &Snapshot) -> io::Result<()> {
    write_atomically(path, |w| serde_json::to_writer(&mut *w, snap).map_err(io::Error::other))
}

/// Read a snapshot back.
pub fn load_snapshot(path: &Path) -> io::Result<Snapshot> {
    let file = BufReader::new(File::open(path)?);
    serde_json::from_reader(file).map_err(io::Error::other)
}

/// Trailing marker appended to checkpoint files. JSON parsers ignore
/// trailing whitespace-prefixed garbage only if we never write any — so the
/// marker doubles as a completeness witness: a torn write loses the tail of
/// the file first, and with it the marker.
pub const CHECKPOINT_MARKER: &str = "\n#bhut-checkpoint-v1-end\n";

/// Write `snap` as a checkpoint: atomic (temp file + rename) *and*
/// self-validating (trailing [`CHECKPOINT_MARKER`]).
pub fn save_checkpoint(path: &Path, snap: &Snapshot) -> io::Result<()> {
    write_atomically(path, |w| {
        serde_json::to_writer(&mut *w, snap).map_err(io::Error::other)?;
        w.write_all(CHECKPOINT_MARKER.as_bytes())
    })
}

/// Load a checkpoint, refusing any file whose trailing marker is missing —
/// i.e. a torn or partial write that a plain JSON parse might still accept.
pub fn load_checkpoint(path: &Path) -> io::Result<Snapshot> {
    let text = std::fs::read_to_string(path)?;
    let body = text.strip_suffix(CHECKPOINT_MARKER).ok_or_else(|| {
        io::Error::other(format!(
            "checkpoint {} is missing its trailing marker (torn write?)",
            path.display()
        ))
    })?;
    serde_json::from_str(body).map_err(io::Error::other)
}

/// Run `write` against a temp file next to `path`, fsync, and rename into
/// place. The temp name includes the pid so concurrent writers of different
/// ranks in one directory never collide.
///
/// Public because every long-running producer of reports in the workspace
/// (bench bins, examples) routes its periodic writes through this: a crash
/// or SIGKILL mid-write must leave either the old file or the new one,
/// never a truncated hybrid.
pub fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot");
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let mut file = BufWriter::new(File::create(&tmp)?);
    let result = write(&mut file).and_then(|()| file.flush()).and_then(|()| {
        file.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// [`write_atomically`] specialized to a ready-made string payload — the
/// common case for JSON reports.
pub fn write_text_atomically(path: &Path, text: &str) -> io::Result<()> {
    write_atomically(path, |w| w.write_all(text.as_bytes()))
}

/// Dump particle positions as `x,y,z` CSV (with header) for plotting.
pub fn write_positions_csv(out: &mut impl Write, particles: &ParticleSet) -> io::Result<()> {
    writeln!(out, "x,y,z")?;
    for p in particles.iter() {
        writeln!(out, "{},{},{}", p.pos.x, p.pos.y, p.pos.z)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use bhut_geom::{plummer, PlummerSpec};

    /// A fresh, empty scratch directory, removed when the guard drops.
    fn scratch_dir(name: &str) -> ScratchDir {
        let dir = ScratchDir::new(name);
        std::fs::create_dir_all(dir.path()).unwrap();
        dir
    }

    #[test]
    fn snapshot_roundtrip() {
        let set = plummer(PlummerSpec { n: 50, seed: 3, ..Default::default() });
        let dir = scratch_dir("snapshot_test");
        let path = dir.path().join("snap.json");
        save_snapshot(&path, 1.25, &set).unwrap();
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.time, 1.25);
        assert_eq!(snap.particles.len(), set.len());
        // JSON float formatting can differ by an ULP; demand near-identity.
        for (a, b) in snap.particles.iter().zip(set.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.mass, b.mass);
            assert!(a.pos.dist(b.pos) < 1e-12 * (1.0 + b.pos.norm()));
            assert!(a.vel.dist(b.vel) < 1e-12 * (1.0 + b.vel.norm()));
        }
    }

    #[test]
    fn full_snapshot_roundtrips_rungs_and_config() {
        use bhut_timestep::{BlockConfig, TimestepMode};
        let set = plummer(PlummerSpec { n: 20, seed: 5, ..Default::default() });
        let cfg = SimulationConfig {
            timestep: TimestepMode::Block(BlockConfig {
                dt_max: 0.05,
                max_rung: 3,
                eta: 0.08,
                eps: 0.02,
            }),
            threads: 2,
            ..Default::default()
        };
        let rungs: Vec<u32> = (0..set.len() as u32).map(|i| i % 4).collect();
        let snap =
            Snapshot { time: 0.75, particles: set, rungs: Some(rungs.clone()), config: Some(cfg) };
        let dir = scratch_dir("snapshot_test");
        let path = dir.path().join("snap_full.json");
        save_snapshot_state(&path, &snap).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.time, snap.time);
        assert_eq!(back.rungs.as_deref(), Some(&rungs[..]));
        let got = back.config.expect("config survives the round trip");
        assert_eq!(got.timestep, cfg.timestep);
        assert_eq!(got.threads, cfg.threads);
    }

    #[test]
    fn pre_s12_snapshots_still_load() {
        // A file written before the rungs/config fields existed must load
        // with both defaulted to None.
        let set = plummer(PlummerSpec { n: 4, seed: 9, ..Default::default() });
        // Serialize only the legacy fields by hand.
        let old = serde::Value::Obj(vec![
            ("time".to_string(), serde::Value::Float(2.5)),
            ("particles".to_string(), set.to_value()),
        ])
        .to_json();
        let snap: Snapshot = serde_json::from_str(&old).unwrap();
        assert_eq!(snap.time, 2.5);
        assert_eq!(snap.particles.len(), 4);
        assert!(snap.rungs.is_none());
        assert!(snap.config.is_none());
    }

    /// A degree past `MAX_DEGREE`, or an α that is not finite and positive,
    /// would load and then panic at the first force evaluation, and a block
    /// `max_rung` past `MAX_RUNG` would overflow (or round) the tick
    /// arithmetic of the first block step, so all three are refused where
    /// they enter: in a bare config and in a snapshot's embedded one alike.
    #[test]
    fn a_degree_or_rung_past_its_bound_does_not_load() {
        use bhut_multipole::MAX_DEGREE;
        use bhut_timestep::{BlockConfig, TimestepMode, MAX_RUNG};
        let with_degree = |degree| SimulationConfig { degree, ..Default::default() };
        let with_alpha = |alpha| SimulationConfig { alpha, ..Default::default() };
        let with_rung = |max_rung| SimulationConfig {
            timestep: TimestepMode::Block(BlockConfig { max_rung, ..Default::default() }),
            ..Default::default()
        };
        let parse = |config: SimulationConfig| {
            serde_json::from_str::<SimulationConfig>(&config.to_value().to_json())
        };
        assert_eq!(parse(with_degree(MAX_DEGREE)).unwrap().degree, MAX_DEGREE);
        assert_eq!(parse(with_rung(MAX_RUNG)).unwrap().timestep, with_rung(MAX_RUNG).timestep);
        let set = plummer(PlummerSpec { n: 4, seed: 9, ..Default::default() });
        let dir = scratch_dir("snapshot_degree_test");
        let path = dir.path().join("snap.json");
        for (config, names) in [
            (with_degree(MAX_DEGREE + 1), format!("degree {}", MAX_DEGREE + 1)),
            (with_rung(MAX_RUNG + 1), format!("`max_rung` {}", MAX_RUNG + 1)),
            (with_rung(64), "`max_rung` 64".to_string()),
            (with_rung(u32::MAX), format!("`max_rung` {}", u32::MAX)),
            (with_alpha(-1.0), "`alpha` -1".to_string()),
            (with_alpha(0.0), "`alpha` 0".to_string()),
            (with_alpha(-0.0), "`alpha` -0".to_string()),
            // Written as null: JSON has no Inf or NaN.
            (with_alpha(f64::INFINITY), "`alpha`".to_string()),
            (with_alpha(f64::NAN), "`alpha`".to_string()),
        ] {
            let err = parse(config).unwrap_err().to_string();
            assert!(err.contains(&names), "{err}");
            let particles = set.clone();
            let snap = Snapshot { time: 0.0, particles, rungs: None, config: Some(config) };
            save_snapshot_state(&path, &snap).unwrap();
            let err = load_snapshot(&path).unwrap_err().to_string();
            assert!(err.contains(&names), "{err}");
        }
        // A number too large for an f64 parses as +inf.
        let json = with_alpha(0.5).to_value().to_json();
        let huge = json.replace("\"alpha\":0.5", "\"alpha\":1e999");
        assert_ne!(huge, json);
        let err = serde_json::from_str::<SimulationConfig>(&huge).unwrap_err().to_string();
        assert!(err.contains("`alpha` inf"), "{err}");
    }

    #[test]
    fn checkpoint_roundtrips_and_leaves_no_temp_files() {
        let set = plummer(PlummerSpec { n: 12, seed: 7, ..Default::default() });
        let dir = scratch_dir("ckpt_marker_test");
        let path = dir.path().join("epoch.ckpt");
        let snap = Snapshot { time: 0.5, particles: set, rungs: None, config: None };
        save_checkpoint(&path, &snap).unwrap();
        let back = load_checkpoint(&path).unwrap();
        assert_eq!(back.time, 0.5);
        assert_eq!(back.particles.len(), 12);
        // Bitwise: checkpoints must survive the JSON round trip exactly.
        for (a, b) in back.particles.iter().zip(snap.particles.iter()) {
            assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
            assert_eq!(a.vel.z.to_bits(), b.vel.z.to_bits());
            assert_eq!(a.mass.to_bits(), b.mass.to_bits());
        }
        let leftovers: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
    }

    #[test]
    fn torn_checkpoint_is_refused() {
        let set = plummer(PlummerSpec { n: 6, seed: 11, ..Default::default() });
        let dir = scratch_dir("ckpt_torn_test");
        let path = dir.path().join("torn.ckpt");
        let snap = Snapshot { time: 0.25, particles: set, rungs: None, config: None };
        save_checkpoint(&path, &snap).unwrap();
        // Simulate a torn write: truncate the tail (losing the marker, and
        // for good measure part of the JSON).
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - CHECKPOINT_MARKER.len() - 3]).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("marker"), "got: {err}");
        // Even a file that is valid JSON but lacks the marker is refused.
        save_snapshot_state(&path, &snap).unwrap();
        assert!(load_checkpoint(&path).is_err());
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_snapshot(Path::new("/definitely/not/here.json")).is_err());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let set = plummer(PlummerSpec { n: 5, seed: 1, ..Default::default() });
        let mut buf = Vec::new();
        write_positions_csv(&mut buf, &set).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], "x,y,z");
        assert_eq!(lines[1].split(',').count(), 3);
    }
}
