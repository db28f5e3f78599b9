//! City-generation configuration and presets.

use crate::error::CityError;
use crate::geo::GeoPoint;

/// Configuration of the synthetic city generator.
///
/// The defaults are the *paper-scale* preset: 9,600 towers over a
/// Shanghai-sized monocentric city, with the Table 1 region mixture as
/// the tower-placement prior. Smaller presets keep tests and examples
/// fast.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// RNG seed: two configs with equal fields generate identical
    /// cities.
    pub seed: u64,
    /// Number of cellular towers.
    pub n_towers: usize,
    /// City centre (defaults to a Shanghai-like coordinate).
    pub center: GeoPoint,
    /// City radius in metres (towers and zones fall inside this disc).
    pub radius_m: f64,
    /// Prior shares of towers per region kind, in canonical
    /// [`RegionKind`](crate::zone::RegionKind) order
    /// (resident, transport, office, entertainment, comprehensive).
    /// Must sum to ≈1. Defaults to the paper's Table 1.
    pub region_shares: [f64; 5],
    /// Average number of towers seated per zone (controls zone count).
    pub towers_per_zone: f64,
    /// Mean POI counts per zone, indexed
    /// `[region kind][poi kind]` — calibrated to the relative
    /// magnitudes of the paper's Table 2.
    pub poi_intensity: [[f64; 4]; 5],
    /// Gaussian scatter of a tower around its zone centre, as a
    /// fraction of the zone radius (relative scatter keeps towers of
    /// small zones — transport hubs — inside their zone).
    pub tower_scatter_rel: f64,
    /// The function blend a comprehensive zone contributes, in
    /// canonical POI order (resident, transport, office,
    /// entertainment). Mixed-use districts are predominantly
    /// live/work space — residences and offices with some commerce —
    /// so the default leans that way; it is *not* uniform, which is
    /// what makes comprehensive areas a coherent fifth pattern rather
    /// than a smear between the pure ones.
    pub comprehensive_blend: [f64; 4],
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig::paper_scale(42)
    }
}

impl CityConfig {
    /// Full paper scale: 9,600 towers.
    pub fn paper_scale(seed: u64) -> Self {
        CityConfig {
            seed,
            n_towers: 9_600,
            center: GeoPoint::new(121.47, 31.23),
            radius_m: 25_000.0,
            region_shares: PAPER_TABLE1_SHARES,
            // A city's functional districts don't multiply with tower
            // density: ~300 zones over the 25 km disc at every scale
            // (the medium preset overrides this to keep 300 zones at
            // 2,400 towers).
            towers_per_zone: 32.0,
            poi_intensity: POI_INTENSITY,
            tower_scatter_rel: 0.35,
            comprehensive_blend: [0.45, 0.10, 0.25, 0.20],
        }
    }

    /// Medium scale (default for the repro harness): the full analysis
    /// in seconds rather than minutes.
    pub fn medium(seed: u64) -> Self {
        CityConfig {
            n_towers: 2_400,
            towers_per_zone: 8.0,
            ..CityConfig::paper_scale(seed)
        }
    }

    /// Small scale for integration tests and examples.
    pub fn small(seed: u64) -> Self {
        CityConfig {
            n_towers: 600,
            radius_m: 12_000.0,
            towers_per_zone: 8.0,
            ..CityConfig::paper_scale(seed)
        }
    }

    /// Tiny scale for unit tests.
    pub fn tiny(seed: u64) -> Self {
        CityConfig {
            n_towers: 120,
            radius_m: 6_000.0,
            towers_per_zone: 4.0,
            ..CityConfig::paper_scale(seed)
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// [`CityError::NoTowers`], [`CityError::BadExtent`], or
    /// [`CityError::BadShares`].
    pub fn validate(&self) -> Result<(), CityError> {
        if self.n_towers == 0 {
            return Err(CityError::NoTowers);
        }
        if self.radius_m <= 0.0
            || self.towers_per_zone <= 0.0
            || self.radius_m.is_nan()
            || self.towers_per_zone.is_nan()
        {
            return Err(CityError::BadExtent);
        }
        let sum: f64 = self.region_shares.iter().sum();
        if (sum - 1.0).abs() > 1e-6 || self.region_shares.iter().any(|&s| s < 0.0) {
            return Err(CityError::BadShares);
        }
        Ok(())
    }
}

/// The paper's Table 1 cluster shares, used as the default tower
/// mixture: resident 17.55%, transport 2.58%, office 45.72%,
/// entertainment 9.35%, comprehensive 24.81% (rounded to sum to 1).
pub const PAPER_TABLE1_SHARES: [f64; 5] = [0.1755, 0.0258, 0.4572, 0.0935, 0.2480];

/// Mean POI counts per zone by `[region][poi]`, echoing the relative
/// magnitudes of the paper's Table 2 (points A–E), scaled down to a
/// zone-sized neighbourhood. Transport POIs are rare in absolute terms
/// everywhere (as in the paper, where even the transport hub has only
/// 2), but relatively concentrated at transport hubs — the min-max
/// normalisation of Table 3 is what surfaces them.
pub const POI_INTENSITY: [[f64; 4]; 5] = [
    // resident zone: homes dominate by a wide margin
    [260.0, 0.06, 9.0, 22.0],
    // transport hub: some homes/offices nearby, *relatively* many stations
    [35.0, 2.2, 25.0, 16.0],
    // office zone: office towers dominate
    [40.0, 0.5, 420.0, 65.0],
    // entertainment zone: malls and restaurants dominate
    [10.0, 0.3, 45.0, 900.0],
    // comprehensive: a balanced blend
    [60.0, 0.18, 75.0, 12.0],
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            CityConfig::paper_scale(1),
            CityConfig::medium(1),
            CityConfig::small(1),
            CityConfig::tiny(1),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let sum: f64 = PAPER_TABLE1_SHARES.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = CityConfig::tiny(0);
        cfg.n_towers = 0;
        assert_eq!(cfg.validate(), Err(CityError::NoTowers));

        let mut cfg = CityConfig::tiny(0);
        cfg.radius_m = -5.0;
        assert_eq!(cfg.validate(), Err(CityError::BadExtent));

        let mut cfg = CityConfig::tiny(0);
        cfg.region_shares = [0.5, 0.5, 0.5, 0.0, 0.0];
        assert_eq!(cfg.validate(), Err(CityError::BadShares));
    }

    #[test]
    fn office_intensity_dominates_office_zone() {
        // Guard the calibration: each pure zone's native POI type must
        // be its max — that's what makes Table 3's diagonal possible.
        use crate::zone::RegionKind;
        for kind in RegionKind::PURE {
            let row = POI_INTENSITY[kind.index()];
            let native = kind.native_poi().unwrap().index();
            // Transport is the exception: its absolute counts are small
            // by design; dominance there is *relative* (min-max).
            if kind != RegionKind::Transport {
                let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(row[native], max, "{kind:?}: {row:?}");
            }
        }
    }
}
