//! Rung-hierarchy parameters and the driver-facing timestep mode.

use serde::{Deserialize, Serialize, Value};

/// Deepest rung a [`BlockConfig`] may name: 53, the bits of an f64
/// significand. A big step spans `2^max_rung` ticks, and a drift of `δ`
/// ticks lasts `δ · dt_tick`; every tick count up to `2^53` converts to f64
/// exactly, so that product is exact and the rung-0 path stays bitwise the
/// global leapfrog. Past 63, `1 << max_rung` would not fit the u64 tick
/// counter at all. Configs, snapshots and checkpoints naming a deeper rung
/// are refused when they load.
pub const MAX_RUNG: u32 = f64::MANTISSA_DIGITS;

/// Parameters of the power-of-two rung hierarchy.
///
/// Rung `r` steps at `dt_r = dt_max / 2^r`; the finest rung is `max_rung`.
/// A particle's target rung comes from the acceleration criterion
/// `dt = η·√(ε/|a|)`, rounded **down** to the next rung boundary (the
/// assigned `dt_r` never exceeds the criterion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BlockConfig {
    /// The big-step length — rung 0's dt, and the synchronization period.
    pub dt_max: f64,
    /// Deepest rung; the finest dt is `dt_max / 2^max_rung`. At most
    /// [`MAX_RUNG`].
    pub max_rung: u32,
    /// Accuracy parameter of the timestep criterion `dt = η·√(ε/|a|)`.
    pub eta: f64,
    /// Softening length used in the criterion (normally the force softening).
    pub eps: f64,
}

// Hand-written so `max_rung` is bounded where it enters the program.
impl Deserialize for BlockConfig {
    fn from_value(v: &Value) -> Result<Self, String> {
        fn req<T: Deserialize>(v: &Value, name: &str) -> Result<T, String> {
            T::from_value(
                v.get_field(name)
                    .ok_or_else(|| format!("missing field `{name}` in BlockConfig"))?,
            )
        }
        let max_rung = req(v, "max_rung")?;
        if max_rung > MAX_RUNG {
            return Err(format!("`max_rung` {max_rung} exceeds the deepest rung, {MAX_RUNG}"));
        }
        Ok(BlockConfig {
            dt_max: req(v, "dt_max")?,
            max_rung,
            eta: req(v, "eta")?,
            eps: req(v, "eps")?,
        })
    }
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig { dt_max: 0.1, max_rung: 4, eta: 0.1, eps: 1e-2 }
    }
}

impl BlockConfig {
    /// Ticks per big step: `2^max_rung`. Rung `r` steps span `2^(max_rung-r)`
    /// ticks, so every rung boundary lands on an integer tick.
    pub fn ticks(&self) -> u64 {
        1u64 << self.max_rung
    }

    /// Duration of one tick. Powers-of-two division is exact in binary
    /// floating point, so `rung_len(r) as f64 * dt_tick() == dt_of_rung(r)`
    /// bit-for-bit — the scheduler relies on this to make the rung-0 path
    /// identical to a global-dt leapfrog.
    pub fn dt_tick(&self) -> f64 {
        self.dt_max / self.ticks() as f64
    }

    /// `dt_r = dt_max / 2^r`.
    pub fn dt_of_rung(&self, r: u32) -> f64 {
        self.dt_max / (1u64 << r) as f64
    }

    /// Step length of rung `r` in ticks: `2^(max_rung - r)`.
    pub fn rung_len(&self, r: u32) -> u64 {
        1u64 << (self.max_rung - r)
    }

    /// The criterion timestep for acceleration magnitude `a_norm`.
    pub fn criterion_dt(&self, a_norm: f64) -> f64 {
        if a_norm > 0.0 {
            self.eta * (self.eps / a_norm).sqrt()
        } else {
            f64::INFINITY
        }
    }

    /// The rung whose `dt_r` is the largest not exceeding the criterion dt
    /// for `a_norm` — clamped to `[0, max_rung]`, so a particle demanding a
    /// dt above `dt_max` sits on rung 0 and one demanding less than the
    /// finest dt saturates at `max_rung`.
    pub fn rung_for(&self, a_norm: f64) -> u32 {
        // One rung leaves nothing to choose; returning early spares the
        // global timestep the criterion's square root per particle.
        if self.max_rung == 0 {
            return 0;
        }
        let dt = self.criterion_dt(a_norm);
        for r in 0..=self.max_rung {
            if self.dt_of_rung(r) <= dt {
                return r;
            }
        }
        self.max_rung
    }

    /// The coarsest (smallest) rung a particle may move to at tick `t` of
    /// the big step: its next boundary must align, so `2^(max_rung - r)`
    /// must divide `t`. At `t ≡ 0 (mod ticks)` every rung is allowed.
    pub fn coarsest_allowed(&self, t: u64) -> u32 {
        let t = t % self.ticks();
        if t == 0 {
            0
        } else {
            self.max_rung.saturating_sub(t.trailing_zeros())
        }
    }
}

/// How the simulation driver advances time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TimestepMode {
    /// One global dt for every particle: the classic leapfrog, which the
    /// simulation driver runs as the one-rung hierarchy of `dt`.
    #[default]
    Global,
    /// Hierarchical block timesteps over a rung hierarchy.
    Block(BlockConfig),
}

// The vendored serde derive handles named-field structs only, so the enum's
// conversions are written out: a tagged object `{"mode": "global"}` or
// `{"mode": "block", "block": {...}}`.
impl Serialize for TimestepMode {
    fn to_value(&self) -> Value {
        match self {
            TimestepMode::Global => {
                Value::Obj(vec![("mode".to_string(), Value::Str("global".to_string()))])
            }
            TimestepMode::Block(cfg) => Value::Obj(vec![
                ("mode".to_string(), Value::Str("block".to_string())),
                ("block".to_string(), cfg.to_value()),
            ]),
        }
    }
}

impl Deserialize for TimestepMode {
    fn from_value(v: &Value) -> Result<Self, String> {
        let mode = v.get_field("mode").ok_or("missing field `mode` in TimestepMode")?;
        match String::from_value(mode)?.as_str() {
            "global" => Ok(TimestepMode::Global),
            "block" => {
                let cfg = v.get_field("block").ok_or("missing field `block` in TimestepMode")?;
                Ok(TimestepMode::Block(BlockConfig::from_value(cfg)?))
            }
            other => Err(format!("unknown timestep mode {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_geometry() {
        let cfg = BlockConfig { dt_max: 0.4, max_rung: 3, eta: 0.1, eps: 1e-2 };
        assert_eq!(cfg.ticks(), 8);
        assert_eq!(cfg.dt_of_rung(0), 0.4);
        assert_eq!(cfg.dt_of_rung(3), 0.05);
        assert_eq!(cfg.rung_len(0), 8);
        assert_eq!(cfg.rung_len(3), 1);
        // Power-of-two arithmetic is exact.
        assert_eq!(cfg.rung_len(1) as f64 * cfg.dt_tick(), cfg.dt_of_rung(1));
        assert_eq!(cfg.ticks() as f64 * cfg.dt_tick(), cfg.dt_max);
    }

    #[test]
    fn rung_assignment_rounds_down() {
        let cfg = BlockConfig { dt_max: 0.4, max_rung: 3, eta: 1.0, eps: 1.0 };
        // criterion_dt = 1/sqrt(a); dt never exceeds the criterion.
        for a in [0.1, 1.0, 7.0, 30.0, 1e4] {
            let r = cfg.rung_for(a);
            let dt = cfg.dt_of_rung(r);
            let want = cfg.criterion_dt(a);
            assert!(dt <= want || r == cfg.max_rung, "a={a}: dt {dt} > criterion {want}");
            // One rung coarser would violate the criterion (unless pinned at 0).
            if r > 0 {
                assert!(cfg.dt_of_rung(r - 1) > want, "a={a}: rung {r} too fine");
            }
        }
        // Zero acceleration → infinite criterion dt → rung 0.
        assert_eq!(cfg.rung_for(0.0), 0);
        // Monstrous acceleration saturates at max_rung.
        assert_eq!(cfg.rung_for(1e30), cfg.max_rung);
    }

    #[test]
    fn coarsening_respects_alignment() {
        let cfg = BlockConfig { max_rung: 3, ..Default::default() };
        // t = 0 (or a multiple of 8): everything is synchronized.
        assert_eq!(cfg.coarsest_allowed(0), 0);
        assert_eq!(cfg.coarsest_allowed(8), 0);
        assert_eq!(cfg.coarsest_allowed(16), 0);
        // Odd ticks admit only the finest rung.
        assert_eq!(cfg.coarsest_allowed(1), 3);
        assert_eq!(cfg.coarsest_allowed(5), 3);
        // t = 2 aligns with rung 2 (len 2); t = 4 with rung 1 (len 4).
        assert_eq!(cfg.coarsest_allowed(2), 2);
        assert_eq!(cfg.coarsest_allowed(4), 1);
        assert_eq!(cfg.coarsest_allowed(6), 2);
        // An allowed rung's next boundary always lands on an integer tick.
        for t in 1..8u64 {
            let r = cfg.coarsest_allowed(t);
            assert_eq!(t % cfg.rung_len(r), 0, "tick {t} rung {r}");
        }
    }

    #[test]
    fn timestep_mode_json_roundtrip() {
        let modes = [
            TimestepMode::Global,
            TimestepMode::Block(BlockConfig { dt_max: 0.25, max_rung: 5, eta: 0.05, eps: 0.02 }),
        ];
        for mode in modes {
            let v = mode.to_value();
            let back = TimestepMode::from_value(&v).unwrap();
            assert_eq!(back, mode);
        }
        assert!(TimestepMode::from_value(&Value::Obj(vec![(
            "mode".to_string(),
            Value::Str("nope".to_string())
        )]))
        .is_err());
        assert!(TimestepMode::from_value(&Value::Null).is_err());
    }
}
