//! Points of interest and a grid-bucketed spatial index.
//!
//! The paper "measures the number of four main types of POI … within
//! 200m of each cell tower" for thousands of towers; a linear scan per
//! tower would be O(towers × POIs). The index buckets POIs into a
//! uniform degree grid so radius queries touch only nearby buckets.

use std::collections::HashMap;

use crate::geo::GeoPoint;
use crate::zone::PoiKind;

/// A single point of interest.
#[derive(Debug, Clone)]
pub struct Poi {
    /// Location.
    pub position: GeoPoint,
    /// Type.
    pub kind: PoiKind,
    /// Id of the zone that spawned it.
    pub zone_id: usize,
}

/// A uniform-grid spatial index over POIs supporting radius counting.
#[derive(Debug, Clone)]
pub struct PoiIndex {
    cell_deg: f64,
    buckets: HashMap<(i64, i64), Vec<usize>>,
    pois: Vec<Poi>,
}

impl PoiIndex {
    /// Builds an index. `cell_deg` is the grid pitch in degrees; the
    /// default used by [`PoiIndex::build`] is 0.005° (~500 m), a good
    /// fit for 200 m queries.
    pub fn with_cell(pois: Vec<Poi>, cell_deg: f64) -> Self {
        let cell_deg = if cell_deg > 0.0 { cell_deg } else { 0.005 };
        let mut buckets: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, poi) in pois.iter().enumerate() {
            buckets
                .entry(Self::key(cell_deg, &poi.position))
                .or_default()
                .push(i);
        }
        PoiIndex {
            cell_deg,
            buckets,
            pois,
        }
    }

    /// Builds an index with the default cell size.
    pub fn build(pois: Vec<Poi>) -> Self {
        Self::with_cell(pois, 0.005)
    }

    fn key(cell_deg: f64, p: &GeoPoint) -> (i64, i64) {
        (
            (p.lon / cell_deg).floor() as i64,
            (p.lat / cell_deg).floor() as i64,
        )
    }

    /// Total POI count.
    pub fn len(&self) -> usize {
        self.pois.len()
    }

    /// `true` if the index holds no POIs.
    pub fn is_empty(&self) -> bool {
        self.pois.is_empty()
    }

    /// All POIs (insertion order).
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// Counts POIs of each kind within `radius_m` of `center`,
    /// returned in canonical [`PoiKind`] order.
    pub fn counts_within(&self, center: &GeoPoint, radius_m: f64) -> [usize; 4] {
        let mut counts = [0usize; 4];
        self.for_each_within(center, radius_m, |poi| {
            counts[poi.kind.index()] += 1;
        });
        counts
    }

    /// Visits every POI within `radius_m` of `center`.
    pub fn for_each_within<F: FnMut(&Poi)>(&self, center: &GeoPoint, radius_m: f64, mut f: F) {
        if radius_m <= 0.0 {
            return;
        }
        // Conservative cell span: metres → degrees, padded for
        // longitude shrink at high latitude.
        let lat_rad = center.lat.to_radians();
        let deg_per_m_lat = 1.0 / 111_320.0;
        let deg_per_m_lon = deg_per_m_lat / lat_rad.cos().abs().max(0.1);
        let span_lon = (radius_m * deg_per_m_lon / self.cell_deg).ceil() as i64 + 1;
        let span_lat = (radius_m * deg_per_m_lat / self.cell_deg).ceil() as i64 + 1;
        let (ci, cj) = Self::key(self.cell_deg, center);
        for di in -span_lon..=span_lon {
            for dj in -span_lat..=span_lat {
                if let Some(bucket) = self.buckets.get(&(ci + di, cj + dj)) {
                    for &idx in bucket {
                        let poi = &self.pois[idx];
                        if center.distance_m(&poi.position) <= radius_m {
                            f(poi);
                        }
                    }
                }
            }
        }
    }

    /// Counts POIs of each kind within `radius_m` as `f64` (convenient
    /// for the TF-IDF layer).
    pub fn counts_within_f64(&self, center: &GeoPoint, radius_m: f64) -> [f64; 4] {
        let c = self.counts_within(center, radius_m);
        [c[0] as f64, c[1] as f64, c[2] as f64, c[3] as f64]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poi(lon: f64, lat: f64, kind: PoiKind) -> Poi {
        Poi {
            position: GeoPoint::new(lon, lat),
            kind,
            zone_id: 0,
        }
    }

    #[test]
    fn counts_respect_radius() {
        let center = GeoPoint::new(121.47, 31.23);
        let pois = vec![
            Poi {
                position: center.offset_m(100.0, 0.0),
                kind: PoiKind::Office,
                zone_id: 0,
            },
            Poi {
                position: center.offset_m(0.0, 150.0),
                kind: PoiKind::Office,
                zone_id: 0,
            },
            Poi {
                position: center.offset_m(0.0, 500.0),
                kind: PoiKind::Office,
                zone_id: 0,
            },
            Poi {
                position: center.offset_m(-50.0, 50.0),
                kind: PoiKind::Resident,
                zone_id: 0,
            },
        ];
        let idx = PoiIndex::build(pois);
        let counts = idx.counts_within(&center, 200.0);
        assert_eq!(counts[PoiKind::Office.index()], 2);
        assert_eq!(counts[PoiKind::Resident.index()], 1);
        assert_eq!(counts[PoiKind::Transport.index()], 0);
    }

    #[test]
    fn index_matches_linear_scan() {
        // Pseudo-random cloud; grid query must equal brute force.
        let center = GeoPoint::new(121.5, 31.2);
        let mut pois = Vec::new();
        for i in 0..500u64 {
            let dx = (((i * 48271) % 2001) as f64 - 1000.0) * 2.0;
            let dy = (((i * 16807) % 2001) as f64 - 1000.0) * 2.0;
            let kind = PoiKind::ALL[(i % 4) as usize];
            pois.push(Poi {
                position: center.offset_m(dx, dy),
                kind,
                zone_id: 0,
            });
        }
        let idx = PoiIndex::build(pois.clone());
        for radius in [100.0, 200.0, 750.0, 2_000.0] {
            let fast = idx.counts_within(&center, radius);
            let mut slow = [0usize; 4];
            for p in &pois {
                if center.distance_m(&p.position) <= radius {
                    slow[p.kind.index()] += 1;
                }
            }
            assert_eq!(fast, slow, "radius {radius}");
        }
    }

    #[test]
    fn empty_index_and_zero_radius() {
        let idx = PoiIndex::build(Vec::new());
        assert!(idx.is_empty());
        assert_eq!(
            idx.counts_within(&GeoPoint::new(0.0, 0.0), 200.0),
            [0, 0, 0, 0]
        );
        let idx = PoiIndex::build(vec![poi(0.0, 0.0, PoiKind::Office)]);
        assert_eq!(
            idx.counts_within(&GeoPoint::new(0.0, 0.0), 0.0),
            [0, 0, 0, 0]
        );
    }

    #[test]
    fn boundary_pois_counted_inclusively() {
        let center = GeoPoint::new(121.47, 31.23);
        let pois = vec![Poi {
            position: center.offset_m(0.0, 200.0),
            kind: PoiKind::Transport,
            zone_id: 0,
        }];
        let idx = PoiIndex::build(pois);
        // offset_m → haversine roundtrip error is sub-metre.
        let counts = idx.counts_within(&center, 201.0);
        assert_eq!(counts[PoiKind::Transport.index()], 1);
    }
}
