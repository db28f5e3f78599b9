//! Urban functional regions and POI taxonomy.

use crate::geo::GeoPoint;

/// The five urban functional region kinds the paper identifies
/// (§3.3). Order matters: it is the canonical index used across the
/// workspace (shares arrays, mixture vectors, tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Residential area — homes; traffic peaks in the evening and
    /// stays high at night.
    Resident,
    /// Transport hub — stations, overpasses; double rush-hour peaks.
    Transport,
    /// Office / business district — single midday peak, dead weekends.
    Office,
    /// Entertainment — shopping malls, nightlife; evening/weekend
    /// peaks.
    Entertainment,
    /// Comprehensive — mixed-function area; a blend of the other four.
    Comprehensive,
}

impl RegionKind {
    /// All five kinds in canonical order (the paper's cluster order:
    /// resident, transport, office, entertainment, comprehensive).
    pub const ALL: [RegionKind; 5] = [
        RegionKind::Resident,
        RegionKind::Transport,
        RegionKind::Office,
        RegionKind::Entertainment,
        RegionKind::Comprehensive,
    ];

    /// The four *pure* (single-function) kinds — the paper's "four
    /// primary components".
    pub const PURE: [RegionKind; 4] = [
        RegionKind::Resident,
        RegionKind::Transport,
        RegionKind::Office,
        RegionKind::Entertainment,
    ];

    /// Canonical index into 5-element arrays.
    pub fn index(self) -> usize {
        match self {
            RegionKind::Resident => 0,
            RegionKind::Transport => 1,
            RegionKind::Office => 2,
            RegionKind::Entertainment => 3,
            RegionKind::Comprehensive => 4,
        }
    }

    /// Inverse of [`RegionKind::index`]; `None` for out-of-range.
    pub fn from_index(i: usize) -> Option<RegionKind> {
        RegionKind::ALL.get(i).copied()
    }

    /// Human-readable label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            RegionKind::Resident => "Resident",
            RegionKind::Transport => "Transport",
            RegionKind::Office => "Office",
            RegionKind::Entertainment => "Entertainment",
            RegionKind::Comprehensive => "Comprehensive",
        }
    }

    /// The POI kind this region kind natively produces, `None` for
    /// comprehensive (which mixes all four).
    pub fn native_poi(self) -> Option<PoiKind> {
        match self {
            RegionKind::Resident => Some(PoiKind::Resident),
            RegionKind::Transport => Some(PoiKind::Transport),
            RegionKind::Office => Some(PoiKind::Office),
            RegionKind::Entertainment => Some(PoiKind::Entertainment),
            RegionKind::Comprehensive => None,
        }
    }
}

impl std::fmt::Display for RegionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The four POI types the paper counts within 200 m of each tower
/// (§3.3.1): resident, transport, office, entertainment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoiKind {
    /// Residential buildings.
    Resident,
    /// Stations, bus stops, overpasses.
    Transport,
    /// Office buildings, company registrations.
    Office,
    /// Restaurants, malls, cinemas, parks.
    Entertainment,
}

impl PoiKind {
    /// All four POI kinds in canonical order.
    pub const ALL: [PoiKind; 4] = [
        PoiKind::Resident,
        PoiKind::Transport,
        PoiKind::Office,
        PoiKind::Entertainment,
    ];

    /// Canonical index into 4-element arrays.
    pub fn index(self) -> usize {
        match self {
            PoiKind::Resident => 0,
            PoiKind::Transport => 1,
            PoiKind::Office => 2,
            PoiKind::Entertainment => 3,
        }
    }

    /// Inverse of [`PoiKind::index`].
    pub fn from_index(i: usize) -> Option<PoiKind> {
        PoiKind::ALL.get(i).copied()
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            PoiKind::Resident => "Resident",
            PoiKind::Transport => "Transport",
            PoiKind::Office => "Office",
            PoiKind::Entertainment => "Entertain",
        }
    }
}

impl std::fmt::Display for PoiKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A functional zone: a disc of a single region kind.
#[derive(Debug, Clone)]
pub struct Zone {
    /// Zone id (index into the city's zone list).
    pub id: usize,
    /// What the zone is.
    pub kind: RegionKind,
    /// Disc centre.
    pub center: GeoPoint,
    /// Disc radius in metres.
    pub radius_m: f64,
}

impl Zone {
    /// Whether a point falls inside the zone disc.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        self.center.distance_m(p) <= self.radius_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for kind in RegionKind::ALL {
            assert_eq!(RegionKind::from_index(kind.index()), Some(kind));
        }
        for kind in PoiKind::ALL {
            assert_eq!(PoiKind::from_index(kind.index()), Some(kind));
        }
        assert_eq!(RegionKind::from_index(5), None);
        assert_eq!(PoiKind::from_index(4), None);
    }

    #[test]
    fn canonical_order_matches_paper_cluster_numbers() {
        // The paper numbers clusters 1..5 as resident, transport,
        // office, entertainment, comprehensive.
        assert_eq!(RegionKind::ALL[0], RegionKind::Resident);
        assert_eq!(RegionKind::ALL[1], RegionKind::Transport);
        assert_eq!(RegionKind::ALL[2], RegionKind::Office);
        assert_eq!(RegionKind::ALL[3], RegionKind::Entertainment);
        assert_eq!(RegionKind::ALL[4], RegionKind::Comprehensive);
    }

    #[test]
    fn native_poi_mapping() {
        assert_eq!(RegionKind::Office.native_poi(), Some(PoiKind::Office));
        assert_eq!(RegionKind::Comprehensive.native_poi(), None);
    }

    #[test]
    fn zone_containment() {
        let z = Zone {
            id: 0,
            kind: RegionKind::Resident,
            center: GeoPoint::new(121.47, 31.23),
            radius_m: 500.0,
        };
        assert!(z.contains(&z.center));
        assert!(z.contains(&z.center.offset_m(300.0, 0.0)));
        assert!(!z.contains(&z.center.offset_m(600.0, 0.0)));
    }
}
