//! Geographic primitives: points, distances, bounding boxes, and the
//! block-grid address convention shared with the synthetic geocoder.

/// Mean Earth radius in metres (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Side length (in degrees) of one address block in the synthetic
/// `BLK-<i>-<j>` addressing scheme. Roughly 110 m of latitude — the
/// quantisation error a real geocoder would introduce.
pub const BLOCK_DEG: f64 = 0.001;

/// A WGS84-style coordinate (degrees).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Longitude in degrees.
    pub lon: f64,
    /// Latitude in degrees.
    pub lat: f64,
}

impl GeoPoint {
    /// Creates a point from longitude/latitude degrees.
    pub const fn new(lon: f64, lat: f64) -> Self {
        GeoPoint { lon, lat }
    }

    /// Great-circle distance to another point, in metres (haversine).
    pub fn distance_m(&self, other: &GeoPoint) -> f64 {
        let phi1 = self.lat.to_radians();
        let phi2 = other.lat.to_radians();
        let dphi = (other.lat - self.lat).to_radians();
        let dlambda = (other.lon - self.lon).to_radians();
        let a =
            (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Offsets this point by metres east (`dx`) and north (`dy`) using
    /// the local metric (accurate for city-scale offsets).
    pub fn offset_m(&self, dx: f64, dy: f64) -> GeoPoint {
        let lat_rad = self.lat.to_radians();
        let dlat = dy / EARTH_RADIUS_M;
        let dlon = dx / (EARTH_RADIUS_M * lat_rad.cos());
        GeoPoint {
            lon: self.lon + dlon.to_degrees(),
            lat: self.lat + dlat.to_degrees(),
        }
    }

    /// The `BLK-<i>-<j>` address string of this point — the convention
    /// the synthetic geocoder in `towerlens-trace` parses back. `i`
    /// indexes longitude blocks, `j` latitude blocks.
    pub fn block_address(&self) -> String {
        let i = (self.lon / BLOCK_DEG).floor() as i64;
        let j = (self.lat / BLOCK_DEG).floor() as i64;
        format!("BLK-{i}-{j}")
    }

    /// The centre of the named block, if `address` follows the
    /// `BLK-<i>-<j>` convention (possibly followed by free text after
    /// a space, as real addresses carry street names).
    pub fn from_block_address(address: &str) -> Option<GeoPoint> {
        let token = address.split_whitespace().next()?;
        let rest = token.strip_prefix("BLK-")?;
        let (i_str, j_str) = rest.split_once('-')?;
        // A leading '-' on i was consumed by split_once if lon < 0;
        // handle negatives by re-splitting carefully.
        let (i, j) = parse_signed_pair(i_str, j_str, rest)?;
        Some(GeoPoint {
            lon: (i as f64 + 0.5) * BLOCK_DEG,
            lat: (j as f64 + 0.5) * BLOCK_DEG,
        })
    }
}

/// Parses the `i`/`j` block indices, tolerating negative values whose
/// minus sign collides with the `-` separators.
fn parse_signed_pair(i_str: &str, j_str: &str, rest: &str) -> Option<(i64, i64)> {
    if let (Ok(i), Ok(j)) = (i_str.parse::<i64>(), j_str.parse::<i64>()) {
        return Some((i, j));
    }
    // Negative indices: find the split point by scanning possible
    // separator positions in `rest` (e.g. "-12--34").
    for (pos, ch) in rest.char_indices().skip(1) {
        if ch == '-' {
            let (a, b) = rest.split_at(pos);
            let b = &b[1..];
            if let (Ok(i), Ok(j)) = (a.parse::<i64>(), b.parse::<i64>()) {
                return Some((i, j));
            }
        }
    }
    None
}

/// An axis-aligned bounding box in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// West edge (min longitude).
    pub min_lon: f64,
    /// East edge (max longitude).
    pub max_lon: f64,
    /// South edge (min latitude).
    pub min_lat: f64,
    /// North edge (max latitude).
    pub max_lat: f64,
}

impl BoundingBox {
    /// The degenerate box containing nothing; growing it with
    /// [`BoundingBox::include`] builds a hull.
    pub fn empty() -> Self {
        BoundingBox {
            min_lon: f64::INFINITY,
            max_lon: f64::NEG_INFINITY,
            min_lat: f64::INFINITY,
            max_lat: f64::NEG_INFINITY,
        }
    }

    /// Expands the box to contain `p`.
    pub fn include(&mut self, p: &GeoPoint) {
        self.min_lon = self.min_lon.min(p.lon);
        self.max_lon = self.max_lon.max(p.lon);
        self.min_lat = self.min_lat.min(p.lat);
        self.max_lat = self.max_lat.max(p.lat);
    }

    /// Whether `p` lies inside (inclusive).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lon >= self.min_lon
            && p.lon <= self.max_lon
            && p.lat >= self.min_lat
            && p.lat <= self.max_lat
    }

    /// Centre point of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint {
            lon: (self.min_lon + self.max_lon) / 2.0,
            lat: (self.min_lat + self.max_lat) / 2.0,
        }
    }

    /// Width and height in degrees.
    pub fn span(&self) -> (f64, f64) {
        (self.max_lon - self.min_lon, self.max_lat - self.min_lat)
    }

    /// Approximate area in km², using the local metric at the box
    /// centre. Zero for empty/degenerate boxes.
    pub fn area_km2(&self) -> f64 {
        if self.min_lon > self.max_lon || self.min_lat > self.max_lat {
            return 0.0;
        }
        let lat_rad = self.center().lat.to_radians();
        let width_km =
            (self.max_lon - self.min_lon).to_radians() * EARTH_RADIUS_M * lat_rad.cos() / 1000.0;
        let height_km = (self.max_lat - self.min_lat).to_radians() * EARTH_RADIUS_M / 1000.0;
        width_km * height_km
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shanghai People's Square, roughly.
    const SHANGHAI: GeoPoint = GeoPoint::new(121.47, 31.23);

    #[test]
    fn haversine_known_distance() {
        // ~0.01° of latitude ≈ 1.11 km.
        let a = SHANGHAI;
        let b = GeoPoint::new(121.47, 31.24);
        let d = a.distance_m(&b);
        assert!((d - 1112.0).abs() < 5.0, "got {d}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = SHANGHAI;
        let b = GeoPoint::new(121.52, 31.30);
        assert!((a.distance_m(&b) - b.distance_m(&a)).abs() < 1e-9);
        assert_eq!(a.distance_m(&a), 0.0);
    }

    #[test]
    fn offset_roundtrips_through_distance() {
        let p = SHANGHAI.offset_m(300.0, -400.0);
        let d = SHANGHAI.distance_m(&p);
        assert!((d - 500.0).abs() < 1.0, "got {d}");
    }

    #[test]
    fn block_address_roundtrip() {
        let p = GeoPoint::new(121.4712, 31.2345);
        let addr = p.block_address();
        assert!(addr.starts_with("BLK-"));
        let back = GeoPoint::from_block_address(&addr).unwrap();
        // Quantisation keeps us within one block diagonal (~157 m).
        assert!(p.distance_m(&back) < 160.0);
    }

    #[test]
    fn block_address_with_street_suffix() {
        let p = GeoPoint::new(121.4712, 31.2345);
        let addr = format!("{} Nanjing Rd", p.block_address());
        let back = GeoPoint::from_block_address(&addr).unwrap();
        assert!(p.distance_m(&back) < 160.0);
    }

    #[test]
    fn negative_coordinates_roundtrip() {
        let p = GeoPoint::new(-0.1277, 51.5074); // London
        let back = GeoPoint::from_block_address(&p.block_address()).unwrap();
        assert!(p.distance_m(&back) < 160.0);
        let q = GeoPoint::new(-70.66, -33.45); // Santiago
        let back = GeoPoint::from_block_address(&q.block_address()).unwrap();
        assert!(q.distance_m(&back) < 160.0);
    }

    #[test]
    fn malformed_addresses_rejected() {
        assert_eq!(GeoPoint::from_block_address(""), None);
        assert_eq!(GeoPoint::from_block_address("People's Square"), None);
        assert_eq!(GeoPoint::from_block_address("BLK-12"), None);
        assert_eq!(GeoPoint::from_block_address("BLK-a-b"), None);
    }

    #[test]
    fn bounding_box_hull_and_queries() {
        let mut bb = BoundingBox::empty();
        bb.include(&GeoPoint::new(121.4, 31.1));
        bb.include(&GeoPoint::new(121.6, 31.3));
        assert!(bb.contains(&GeoPoint::new(121.5, 31.2)));
        assert!(!bb.contains(&GeoPoint::new(121.7, 31.2)));
        let c = bb.center();
        assert!((c.lon - 121.5).abs() < 1e-12);
        assert!((c.lat - 31.2).abs() < 1e-12);
        let (w, h) = bb.span();
        assert!((w - 0.2).abs() < 1e-12 && (h - 0.2).abs() < 1e-12);
    }

    #[test]
    fn area_of_known_box() {
        let bb = BoundingBox {
            min_lon: 121.0,
            max_lon: 121.0 + 0.1,
            min_lat: 31.0,
            max_lat: 31.0 + 0.1,
        };
        // 0.1° lat ≈ 11.1 km; 0.1° lon at 31° ≈ 9.5 km ⇒ ~106 km².
        let area = bb.area_km2();
        assert!((area - 106.0).abs() < 3.0, "got {area}");
        assert_eq!(BoundingBox::empty().area_km2(), 0.0);
    }
}
