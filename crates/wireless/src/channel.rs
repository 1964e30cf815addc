//! Path-loss channel model and decibel helpers.

/// Deterministic distance-power path loss: `G(d) = k / d^alpha`.
///
/// The paper's eq. (1) uses abstract path gains `G_i`; a `d^-α` law is
/// the standard instantiation (α≈2 free space, α≈4 urban). The paper's
/// testbed simulated the wireless channel the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Reference gain at 1 m.
    pub k: f64,
    /// Path-loss exponent.
    pub alpha: f64,
    /// Log-normal shadowing standard deviation in dB (0 = disabled).
    /// Shadowing is deterministic per `(client id, epoch)` so runs stay
    /// reproducible; bump [`PathLossModel::epoch`] to redraw fades.
    pub shadowing_sigma_db: f64,
    /// Shadowing epoch: one draw per client per epoch.
    pub epoch: u64,
    /// Receiver noise floor at the base station, milliwatts.
    ///
    /// The paper computes the noise factor σ² "based on the
    /// transmitting power of client" with a divisor garbled in the
    /// source text. A power-*proportional* noise makes the SIR of
    /// eq. (1) invariant under power scaling, which would defeat both
    /// power control and the Figure 9 experiment, so we instantiate
    /// σ² = P_ref / 10^10 with P_ref = 100 mW — a fixed floor 100 dB
    /// below the reference transmit power.
    pub noise_floor_mw: f64,
}

impl Default for PathLossModel {
    fn default() -> Self {
        // Urban-ish exponent; k normalises gain to 1 at 1 m.
        PathLossModel {
            k: 1.0,
            alpha: 4.0,
            shadowing_sigma_db: 0.0,
            epoch: 0,
            noise_floor_mw: 1e-8,
        }
    }
}

impl PathLossModel {
    /// Enable log-normal shadowing with the given σ (dB).
    pub fn with_shadowing(mut self, sigma_db: f64) -> Self {
        assert!(sigma_db >= 0.0);
        self.shadowing_sigma_db = sigma_db;
        self
    }

    /// Path gain at distance `d` metres.
    ///
    /// # Panics
    /// Panics on non-positive distance.
    pub fn gain(&self, d: f64) -> f64 {
        assert!(d > 0.0, "distance must be positive");
        self.k / d.powf(self.alpha)
    }
}

/// Deterministic standard-normal draw keyed by a label and epoch
/// (splitmix64 hash → Box–Muller). Used for shadowing.
fn keyed_standard_normal(key: &str, epoch: u64) -> f64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ epoch.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut next = move || {
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // Map to (0, 1], avoiding exactly zero for the log below.
        ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    };
    let u1 = next();
    let u2 = next();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Shadowing gain multiplier (linear) for `key` at the model's epoch.
pub fn shadowing_gain(model: &PathLossModel, key: &str) -> f64 {
    if model.shadowing_sigma_db <= 0.0 {
        return 1.0;
    }
    let db = model.shadowing_sigma_db * keyed_standard_normal(key, model.epoch);
    from_db(db)
}

/// Linear ratio → decibels.
pub fn to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Decibels → linear ratio.
pub fn from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_monotone_decreasing() {
        let m = PathLossModel::default();
        assert!(m.gain(10.0) > m.gain(20.0));
        assert!(m.gain(20.0) > m.gain(100.0));
    }

    #[test]
    fn alpha_controls_slope() {
        let fs = PathLossModel {
            alpha: 2.0,
            ..PathLossModel::default()
        };
        let urban = PathLossModel::default();
        // Doubling distance: -6 dB at α=2, -12 dB at α=4.
        let fs_drop = to_db(fs.gain(1.0) / fs.gain(2.0));
        let urban_drop = to_db(urban.gain(1.0) / urban.gain(2.0));
        assert!((fs_drop - 6.02).abs() < 0.1);
        assert!((urban_drop - 12.04).abs() < 0.1);
    }

    #[test]
    fn db_round_trip() {
        for v in [0.001, 0.5, 1.0, 7.0, 1e6] {
            assert!((from_db(to_db(v)) - v).abs() / v < 1e-12);
        }
        assert_eq!(to_db(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn zero_distance_rejected() {
        PathLossModel::default().gain(0.0);
    }

    #[test]
    fn shadowing_is_deterministic_and_varies_by_key_and_epoch() {
        let m = PathLossModel::default().with_shadowing(8.0);
        let a1 = shadowing_gain(&m, "client-a");
        let a2 = shadowing_gain(&m, "client-a");
        assert_eq!(a1, a2, "same key+epoch: same fade");
        let b = shadowing_gain(&m, "client-b");
        assert_ne!(a1, b, "different clients fade independently");
        let mut m2 = m;
        m2.epoch = 1;
        assert_ne!(a1, shadowing_gain(&m2, "client-a"), "epoch redraws");
    }

    #[test]
    fn shadowing_disabled_is_unity() {
        let m = PathLossModel::default();
        assert_eq!(shadowing_gain(&m, "anyone"), 1.0);
    }

    #[test]
    fn shadowing_distribution_is_roughly_log_normal() {
        // Mean of the dB fades over many keys should be near 0, and the
        // spread near sigma.
        let m = PathLossModel::default().with_shadowing(6.0);
        let fades_db: Vec<f64> = (0..2000)
            .map(|i| to_db(shadowing_gain(&m, &format!("c{i}"))))
            .collect();
        let mean = fades_db.iter().sum::<f64>() / fades_db.len() as f64;
        let var = fades_db.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / fades_db.len() as f64;
        assert!(mean.abs() < 0.6, "mean {mean}");
        assert!((var.sqrt() - 6.0).abs() < 0.6, "sigma {}", var.sqrt());
    }
}
