//! Phase-two normalisation: z-score every tower's row, dropping
//! towers whose traffic a z-score cannot represent.

use towerlens_dsp::normalize::zscore;
use towerlens_dsp::DspError;
use towerlens_obs::LazyCounter;

/// Towers z-scored and kept, across all normalisation passes.
static TOWERS_KEPT: LazyCounter = LazyCounter::new("pipeline.normalize.towers_kept");
/// Zero-variance towers dropped, across all normalisation passes.
static TOWERS_DROPPED: LazyCounter = LazyCounter::new("pipeline.normalize.towers_dropped");

/// A normalised traffic matrix with provenance: which original rows
/// survived.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedMatrix {
    /// Z-scored vectors, one per kept tower, in ascending tower id.
    pub vectors: Vec<Vec<f64>>,
    /// Original row index (tower id) of each kept vector.
    pub kept_ids: Vec<usize>,
    /// Tower ids dropped because their traffic had zero variance
    /// (dead or constant towers).
    pub dropped: Vec<usize>,
    /// Imputed-bin provenance: for each kept vector (same order as
    /// [`NormalizedMatrix::vectors`]), the ascending bin indices whose
    /// raw values were repaired by outage imputation before
    /// normalisation. All-empty when imputation is off.
    pub imputed: Vec<Vec<usize>>,
}

impl NormalizedMatrix {
    /// Number of kept vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` when no tower survived.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Total imputed bins across all kept vectors.
    pub fn imputed_bins(&self) -> usize {
        self.imputed.iter().map(Vec::len).sum()
    }
}

/// Z-scores every row of a raw traffic matrix.
///
/// Rows with zero variance are *dropped* (and listed in
/// [`NormalizedMatrix::dropped`]) rather than erroring: a real trace
/// contains registered-but-dead stations and the paper's cleaning step
/// removes them. Rows containing non-finite samples are an error —
/// that's corruption, not a dead tower.
///
/// # Errors
/// [`DspError::NonFinite`] or [`DspError::EmptyInput`] from row
/// validation.
pub fn normalize_matrix(raw: &[Vec<f64>]) -> Result<NormalizedMatrix, DspError> {
    let mut vectors = Vec::with_capacity(raw.len());
    let mut kept_ids = Vec::with_capacity(raw.len());
    let mut dropped = Vec::new();
    for (id, row) in raw.iter().enumerate() {
        match zscore(row) {
            Ok(v) => {
                vectors.push(v);
                kept_ids.push(id);
            }
            Err(DspError::ZeroVariance) => dropped.push(id),
            Err(e) => return Err(e),
        }
    }
    TOWERS_KEPT.add(kept_ids.len() as u64);
    TOWERS_DROPPED.add(dropped.len() as u64);
    let imputed = vec![Vec::new(); kept_ids.len()];
    Ok(NormalizedMatrix {
        vectors,
        kept_ids,
        dropped,
        imputed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_and_drops_dead_rows() {
        let raw = vec![
            vec![1.0, 2.0, 3.0],
            vec![5.0, 5.0, 5.0], // dead
            vec![0.0, 10.0, 0.0],
        ];
        let out = normalize_matrix(&raw).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.kept_ids, vec![0, 2]);
        assert_eq!(out.dropped, vec![1]);
        for v in &out.vectors {
            let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
            assert!(mean.abs() < 1e-12);
        }
    }

    #[test]
    fn corruption_is_an_error_not_a_drop() {
        let raw = vec![vec![1.0, f64::NAN]];
        assert!(matches!(
            normalize_matrix(&raw),
            Err(DspError::NonFinite { .. })
        ));
    }

    #[test]
    fn empty_matrix_is_fine() {
        let out = normalize_matrix(&[]).unwrap();
        assert!(out.is_empty());
        assert!(out.dropped.is_empty());
    }

    #[test]
    fn empty_row_is_an_error() {
        assert!(matches!(
            normalize_matrix(&[vec![]]),
            Err(DspError::EmptyInput)
        ));
    }
}
