//! Configuration for the fast traffic synthesizer.

/// Parameters of the direct per-tower traffic synthesis.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// RNG seed (per-tower streams are derived from it, so results
    /// don't depend on iteration order or thread count).
    pub seed: u64,
    /// Mean per-bin byte volume of a tower at intensity 1.0.
    pub base_bytes_per_bin: f64,
    /// σ of the log-normal per-tower scale factor (towers serve very
    /// different subscriber counts — the "large variation of traffic
    /// … because the absolute traffic depends on the number of mobile
    /// users served" the paper calls out).
    pub tower_scale_sigma: f64,
    /// σ of the log-normal *per-bin* multiplicative noise.
    pub bin_noise_sigma: f64,
    /// σ of the log-normal *per-day* multiplicative noise (bursty
    /// days).
    pub day_noise_sigma: f64,
    /// Number of worker threads for city-wide synthesis
    /// (0 = available parallelism).
    pub threads: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 42,
            base_bytes_per_bin: 1.0e6,
            tower_scale_sigma: 0.8,
            bin_noise_sigma: 0.06,
            day_noise_sigma: 0.02,
            threads: 0,
        }
    }
}

impl SynthConfig {
    /// A noise-free configuration (canonical profiles only) — useful
    /// for tests that need exact shapes.
    pub fn noiseless(seed: u64) -> Self {
        SynthConfig {
            seed,
            tower_scale_sigma: 0.0,
            bin_noise_sigma: 0.0,
            day_noise_sigma: 0.0,
            ..SynthConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SynthConfig::default();
        assert!(c.base_bytes_per_bin > 0.0);
        assert!(c.bin_noise_sigma > 0.0);
        let n = SynthConfig::noiseless(7);
        assert_eq!(n.seed, 7);
        assert_eq!(n.bin_noise_sigma, 0.0);
        assert_eq!(n.tower_scale_sigma, 0.0);
    }
}
