//! A raster of values over the city — used for the spatial traffic
//! density of Fig 2 (bytes per km²) and the per-cluster tower density
//! maps of Fig 7.

use crate::geo::{BoundingBox, GeoPoint};

/// A uniform raster over a bounding box accumulating point weights.
#[derive(Debug, Clone)]
pub struct DensityGrid {
    bounds: BoundingBox,
    cols: usize,
    rows: usize,
    cells: Vec<f64>,
}

impl DensityGrid {
    /// Creates an all-zero grid of `cols × rows` cells over `bounds`.
    /// Degenerate inputs (zero dimension or inverted bounds) fall back
    /// to a 1×1 grid so accumulation never panics.
    pub fn new(bounds: BoundingBox, cols: usize, rows: usize) -> Self {
        let cols = cols.max(1);
        let rows = rows.max(1);
        DensityGrid {
            bounds,
            cols,
            rows,
            cells: vec![0.0; cols * rows],
        }
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The bounding box the grid covers.
    pub fn bounds(&self) -> &BoundingBox {
        &self.bounds
    }

    /// Cell index of a point, if inside the bounds.
    pub fn cell_of(&self, p: &GeoPoint) -> Option<(usize, usize)> {
        if !self.bounds.contains(p) {
            return None;
        }
        let (w, h) = self.bounds.span();
        if w <= 0.0 || h <= 0.0 {
            return Some((0, 0));
        }
        let col = (((p.lon - self.bounds.min_lon) / w) * self.cols as f64) as usize;
        let row = (((p.lat - self.bounds.min_lat) / h) * self.rows as f64) as usize;
        Some((col.min(self.cols - 1), row.min(self.rows - 1)))
    }

    /// Adds `weight` at a point (no-op outside the bounds).
    pub fn add(&mut self, p: &GeoPoint, weight: f64) {
        if let Some((c, r)) = self.cell_of(p) {
            self.cells[r * self.cols + c] += weight;
        }
    }

    /// Raw accumulated value of a cell.
    pub fn get(&self, col: usize, row: usize) -> f64 {
        if col < self.cols && row < self.rows {
            self.cells[row * self.cols + col]
        } else {
            0.0
        }
    }

    /// The grid normalised to per-km² densities (each cell divided by
    /// its area).
    pub fn to_density_per_km2(&self) -> Vec<f64> {
        let total_area = self.bounds.area_km2();
        let cell_area = if total_area > 0.0 {
            total_area / (self.cols * self.rows) as f64
        } else {
            1.0
        };
        self.cells.iter().map(|&v| v / cell_area).collect()
    }

    /// Sum over all cells.
    pub fn total(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// The cell with the largest value, as `(col, row, value)`.
    pub fn argmax(&self) -> (usize, usize, f64) {
        let mut best = (0, 0, f64::NEG_INFINITY);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.cells[r * self.cols + c];
                if v > best.2 {
                    best = (c, r, v);
                }
            }
        }
        best
    }

    /// Geographic centre of a cell.
    pub fn cell_center(&self, col: usize, row: usize) -> GeoPoint {
        let (w, h) = self.bounds.span();
        GeoPoint {
            lon: self.bounds.min_lon + (col as f64 + 0.5) * w / self.cols as f64,
            lat: self.bounds.min_lat + (row as f64 + 0.5) * h / self.rows as f64,
        }
    }

    /// Renders the grid as a coarse ASCII heat map (for the repro
    /// harness's textual "figures"). `levels` maps quantile buckets to
    /// characters, dark to bright.
    pub fn ascii_heatmap(&self, levels: &str) -> String {
        let glyphs: Vec<char> = if levels.is_empty() {
            " .:-=+*#%@".chars().collect()
        } else {
            levels.chars().collect()
        };
        let max = self.cells.iter().cloned().fold(0.0f64, f64::max);
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        // Render north-up.
        for r in (0..self.rows).rev() {
            for c in 0..self.cols {
                let v = self.cells[r * self.cols + c];
                let idx = if max > 0.0 {
                    (((v / max).sqrt() * (glyphs.len() - 1) as f64).round() as usize)
                        .min(glyphs.len() - 1)
                } else {
                    0
                };
                out.push(glyphs[idx]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> BoundingBox {
        BoundingBox {
            min_lon: 121.0,
            max_lon: 122.0,
            min_lat: 31.0,
            max_lat: 32.0,
        }
    }

    #[test]
    fn accumulates_in_right_cell() {
        let mut g = DensityGrid::new(bounds(), 10, 10);
        g.add(&GeoPoint::new(121.05, 31.05), 2.0);
        g.add(&GeoPoint::new(121.05, 31.05), 3.0);
        g.add(&GeoPoint::new(121.95, 31.95), 7.0);
        assert_eq!(g.get(0, 0), 5.0);
        assert_eq!(g.get(9, 9), 7.0);
        assert_eq!(g.total(), 12.0);
    }

    #[test]
    fn out_of_bounds_ignored() {
        let mut g = DensityGrid::new(bounds(), 4, 4);
        g.add(&GeoPoint::new(120.0, 31.5), 1.0);
        g.add(&GeoPoint::new(121.5, 30.0), 1.0);
        assert_eq!(g.total(), 0.0);
    }

    #[test]
    fn edge_points_clamp_to_last_cell() {
        let mut g = DensityGrid::new(bounds(), 4, 4);
        g.add(&GeoPoint::new(122.0, 32.0), 1.0);
        assert_eq!(g.get(3, 3), 1.0);
    }

    #[test]
    fn argmax_finds_hotspot() {
        let mut g = DensityGrid::new(bounds(), 5, 5);
        g.add(&GeoPoint::new(121.5, 31.5), 10.0);
        g.add(&GeoPoint::new(121.1, 31.1), 3.0);
        let (c, r, v) = g.argmax();
        assert_eq!((c, r), (2, 2));
        assert_eq!(v, 10.0);
        let center = g.cell_center(c, r);
        assert!((center.lon - 121.5).abs() < 0.1);
    }

    #[test]
    fn density_normalisation() {
        let mut g = DensityGrid::new(bounds(), 2, 2);
        g.add(&GeoPoint::new(121.25, 31.25), 100.0);
        let density = g.to_density_per_km2();
        let cell_area = g.bounds().area_km2() / 4.0;
        assert!((density[0] - 100.0 / cell_area).abs() < 1e-9);
    }

    #[test]
    fn ascii_heatmap_shape_and_extremes() {
        let mut g = DensityGrid::new(bounds(), 6, 3);
        g.add(&GeoPoint::new(121.9, 31.9), 9.0);
        let art = g.ascii_heatmap("");
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.chars().count() == 6));
        // Hotspot is top-right (north-up rendering).
        assert_eq!(lines[0].chars().last(), Some('@'));
        // An empty grid renders without panicking.
        let empty = DensityGrid::new(bounds(), 2, 2).ascii_heatmap("ab");
        assert_eq!(empty, "aa\naa\n");
    }

    #[test]
    fn degenerate_dimensions_fall_back() {
        let g = DensityGrid::new(bounds(), 0, 0);
        assert_eq!(g.shape(), (1, 1));
    }
}
