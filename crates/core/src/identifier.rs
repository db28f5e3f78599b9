//! The pattern identifier and metric tuner (§3.2).
//!
//! Takes the z-scored traffic vectors produced by the vectorizer, runs
//! bottom-up hierarchical clustering (Euclidean distance, average
//! linkage — the paper's choices), and selects the cut by minimising
//! the Davies–Bouldin index over a candidate range of cluster counts.
//! The selected cut's threshold is reported the way the paper quotes
//! its 16.33.
//!
//! The representation the clustering sees is a [`FeatureSpace`]
//! choice: the raw 4,032-dim traffic vector (the paper's setting,
//! materialised distance matrix) or the 6-dim spectral projection at
//! the window's principal bins (matrix-free distances through the
//! exact-pruning spatial index — the path that carries the paper's
//! 9,600 towers and beyond). `Auto`, the default, keeps small studies
//! on the raw reference path and switches large ones to spectral. A
//! golden test below pins the two spaces to agreement by Adjusted Rand
//! Index on separable data.

use towerlens_cluster::agglomerative::{
    agglomerative_points, agglomerative_points_indexed, Engine, Linkage,
};
use towerlens_cluster::dendrogram::{Clustering, Dendrogram};
use towerlens_cluster::validity::{best_by_dbi, dbi_sweep, DbiPoint};
use towerlens_pipeline::feature::{spectral_project, FeatureSpace};
use towerlens_trace::time::TraceWindow;

use crate::error::CoreError;

/// Configuration of the identifier.
#[derive(Debug, Clone, Copy)]
pub struct IdentifierConfig {
    /// Linkage criterion (the paper uses average linkage).
    pub linkage: Linkage,
    /// Clustering engine.
    pub engine: Engine,
    /// Smallest cluster count the metric tuner considers.
    pub k_min: usize,
    /// Largest cluster count the metric tuner considers.
    pub k_max: usize,
    /// Worker threads for the distance matrix / spectral projection
    /// (0 = auto).
    pub threads: usize,
    /// Representation towers are clustered in (default
    /// [`FeatureSpace::Auto`]: raw below
    /// [`towerlens_pipeline::SPECTRAL_AUTO_MIN`] towers, spectral at
    /// or above).
    pub feature_space: FeatureSpace,
}

impl Default for IdentifierConfig {
    fn default() -> Self {
        IdentifierConfig {
            linkage: Linkage::Average,
            engine: Engine::NnChain,
            k_min: 2,
            k_max: 12,
            threads: 0,
            feature_space: FeatureSpace::Auto,
        }
    }
}

/// The identifier's output: the chosen flat clustering plus everything
/// needed to reproduce Fig 6 and Table 1.
#[derive(Debug, Clone)]
pub struct IdentifiedPatterns {
    /// The DBI-optimal flat clustering (labels index the *input
    /// vectors*, i.e. kept towers).
    pub clustering: Clustering,
    /// Number of patterns found (`clustering.k`).
    pub k: usize,
    /// The stop threshold that yields this clustering (the paper's
    /// "16.33").
    pub threshold: f64,
    /// The DBI-vs-k curve the tuner minimised (Fig 6(a)).
    pub dbi_curve: Vec<DbiPoint>,
    /// Cluster centroids in the traffic-vector space (the pattern
    /// profiles of Fig 6(c–g)).
    pub centroids: Vec<Vec<f64>>,
    /// Per-cluster member→centroid distances (Fig 6(b) CDFs).
    pub member_distances: Vec<Vec<f64>>,
    /// The full dendrogram, for callers that want other cuts.
    pub dendrogram: Dendrogram,
}

/// The pattern identifier.
#[derive(Debug, Clone, Default)]
pub struct PatternIdentifier {
    config: IdentifierConfig,
}

impl PatternIdentifier {
    /// Creates an identifier with the given configuration.
    pub fn new(config: IdentifierConfig) -> Self {
        PatternIdentifier { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IdentifierConfig {
        &self.config
    }

    /// Runs clustering + metric tuning over z-scored traffic vectors,
    /// always in the raw feature space's terms: equivalent to
    /// [`PatternIdentifier::identify_in`] with no window, so a
    /// configuration that resolves to the spectral space errors here.
    ///
    /// # Errors
    /// As for [`PatternIdentifier::identify_in`].
    pub fn identify(&self, vectors: &[Vec<f64>]) -> Result<IdentifiedPatterns, CoreError> {
        self.identify_in(vectors, None)
    }

    /// Runs clustering + metric tuning over z-scored traffic vectors
    /// in the configured [`FeatureSpace`].
    ///
    /// In the raw space the towers are clustered as-is over a
    /// materialised distance matrix (bit-identical to the
    /// pre-feature-space pipeline). In the spectral space each tower
    /// is first projected onto its six principal-component features
    /// for `window` — clustering and the DBI sweep then run in that
    /// 6-dim space, matrix-free — while centroids and member→centroid
    /// distances are still reported in the traffic-vector space, so
    /// Fig 6's pattern profiles keep their meaning in either space.
    ///
    /// # Errors
    /// * [`CoreError::NotEnoughData`] if fewer than `k_min + 1`
    ///   vectors are supplied, if the spectral space is selected
    ///   without a window, or if the window does not span whole weeks,
    /// * wrapped [`towerlens_cluster::ClusterError`] /
    ///   [`towerlens_dsp::DspError`] for validation failures.
    pub fn identify_in(
        &self,
        vectors: &[Vec<f64>],
        window: Option<&TraceWindow>,
    ) -> Result<IdentifiedPatterns, CoreError> {
        let cfg = &self.config;
        if vectors.len() <= cfg.k_min {
            return Err(CoreError::NotEnoughData {
                what: "traffic vectors",
                needed: cfg.k_min + 1,
                got: vectors.len(),
            });
        }
        // The space the dendrogram and the DBI sweep live in: the
        // towers themselves, or their 6-dim spectral projections.
        let projected = match cfg.feature_space.resolve(vectors.len()) {
            FeatureSpace::Raw => None,
            FeatureSpace::Spectral => {
                let window = window.ok_or(CoreError::NotEnoughData {
                    what: "trace window for spectral feature space",
                    needed: 1,
                    got: 0,
                })?;
                let bins =
                    towerlens_pipeline::principal_bins(window).ok_or(CoreError::NotEnoughData {
                        what: "whole weeks in window",
                        needed: 1,
                        got: 0,
                    })?;
                Some(spectral_project(vectors, bins, cfg.threads)?)
            }
            FeatureSpace::Auto => unreachable!("resolve() never returns Auto"),
        };
        let dendrogram = match &projected {
            // Raw: expensive high-dim leaf distances, computed once
            // into the materialised matrix.
            None => agglomerative_points(vectors, cfg.linkage, cfg.engine, cfg.threads)?,
            // Spectral: 6-dim leaf distances, recomputed on demand
            // through the exact-pruning spatial index — no O(n²)
            // buffer, and nearest-neighbour scans collapse to pruned
            // descents. Bit-identical to the materialised matrix over
            // the same features (a test below pins it).
            Some(features) => agglomerative_points_indexed(features, cfg.linkage, cfg.engine)?,
        };
        let space: &[Vec<f64>] = projected.as_deref().unwrap_or(vectors);
        let k_max = cfg.k_max.min(vectors.len());
        let dbi_curve = dbi_sweep(space, &dendrogram, cfg.k_min, k_max)?;
        let best = best_by_dbi(&dbi_curve).ok_or(CoreError::NotEnoughData {
            what: "DBI sweep points",
            needed: 1,
            got: 0,
        })?;
        let clustering = dendrogram.cut_k(best.k)?;
        let centroids = clustering.centroids(vectors)?;
        let member_distances = clustering.member_centroid_distances(vectors)?;
        Ok(IdentifiedPatterns {
            k: best.k,
            threshold: best.threshold,
            clustering,
            dbi_curve,
            centroids,
            member_distances,
            dendrogram,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_city::zone::PoiKind;
    use towerlens_mobility::config::SynthConfig;
    use towerlens_mobility::profiles::pure_mix;
    use towerlens_mobility::synth::tower_vector;
    use towerlens_pipeline::normalize::normalize_matrix;
    use towerlens_trace::time::TraceWindow;

    /// Synthesises towers of the four pure kinds (noisy) and checks the
    /// identifier recovers the structure.
    fn pure_kind_vectors(per_kind: usize, window: &TraceWindow) -> (Vec<Vec<f64>>, Vec<usize>) {
        let cfg = SynthConfig {
            bin_noise_sigma: 0.15,
            day_noise_sigma: 0.05,
            ..SynthConfig::default()
        };
        let mut raw = Vec::new();
        let mut truth = Vec::new();
        for (g, kind) in PoiKind::ALL.iter().enumerate() {
            let mix = pure_mix(*kind);
            for i in 0..per_kind {
                raw.push(tower_vector(&mix, window, &cfg, g * per_kind + i));
                truth.push(g);
            }
        }
        let normalized = normalize_matrix(&raw).unwrap();
        assert_eq!(normalized.len(), raw.len());
        (normalized.vectors, truth)
    }

    #[test]
    fn recovers_four_pure_patterns() {
        let window = TraceWindow::days(7);
        let (vectors, truth) = pure_kind_vectors(12, &window);
        let id = PatternIdentifier::new(IdentifierConfig {
            k_max: 8,
            ..IdentifierConfig::default()
        });
        let found = id.identify(&vectors).unwrap();
        assert_eq!(found.k, 4, "dbi curve: {:?}", found.dbi_curve);
        // Clusters must align with ground truth (pairwise agreement).
        for i in 0..truth.len() {
            for j in 0..truth.len() {
                assert_eq!(
                    truth[i] == truth[j],
                    found.clustering.labels[i] == found.clustering.labels[j],
                    "towers {i},{j}"
                );
            }
        }
        assert!(found.threshold > 0.0);
        assert_eq!(found.centroids.len(), 4);
        assert_eq!(found.member_distances.len(), 4);
    }

    #[test]
    fn dbi_curve_covers_requested_range() {
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(8, &window);
        let id = PatternIdentifier::new(IdentifierConfig {
            k_min: 2,
            k_max: 6,
            ..IdentifierConfig::default()
        });
        let found = id.identify(&vectors).unwrap();
        let ks: Vec<usize> = found.dbi_curve.iter().map(|p| p.k).collect();
        assert_eq!(ks, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn too_few_vectors_is_an_error() {
        let id = PatternIdentifier::default();
        let vectors = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(matches!(
            id.identify(&vectors),
            Err(CoreError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn spectral_space_agrees_with_raw_reference_by_ari() {
        // The golden test the feature-space refactor hangs on: on
        // separable data, clustering the 6-dim spectral projections
        // must recover (essentially) the same partition as the raw
        // 4,032-dim reference. Pinned by Adjusted Rand Index — 1.0 is
        // identical partitions, 0 is chance.
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(12, &window);
        let raw = PatternIdentifier::new(IdentifierConfig {
            k_max: 8,
            feature_space: FeatureSpace::Raw,
            ..IdentifierConfig::default()
        })
        .identify_in(&vectors, Some(&window))
        .unwrap();
        let spectral = PatternIdentifier::new(IdentifierConfig {
            k_max: 8,
            feature_space: FeatureSpace::Spectral,
            ..IdentifierConfig::default()
        })
        .identify_in(&vectors, Some(&window))
        .unwrap();
        let ari =
            towerlens_cluster::adjusted_rand_index(&raw.clustering, &spectral.clustering).unwrap();
        assert!(
            ari >= 0.9,
            "spectral vs raw ARI {ari} (raw k={}, spectral k={})",
            raw.k,
            spectral.k
        );
    }

    #[test]
    fn spectral_space_requires_a_window() {
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(2, &window);
        let id = PatternIdentifier::new(IdentifierConfig {
            feature_space: FeatureSpace::Spectral,
            ..IdentifierConfig::default()
        });
        assert!(matches!(
            id.identify(&vectors),
            Err(CoreError::NotEnoughData {
                what: "trace window for spectral feature space",
                ..
            })
        ));
        // A window without whole weeks is just as unusable.
        assert!(id
            .identify_in(&vectors, Some(&TraceWindow::days(5)))
            .is_err());
    }

    #[test]
    fn auto_space_is_bit_identical_to_raw_at_small_n() {
        // The compatibility contract: the default (Auto) resolves to
        // the raw reference below the switch-over, window or not.
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(6, &window);
        let auto = PatternIdentifier::default()
            .identify_in(&vectors, Some(&window))
            .unwrap();
        let raw = PatternIdentifier::new(IdentifierConfig {
            feature_space: FeatureSpace::Raw,
            ..IdentifierConfig::default()
        })
        .identify(&vectors)
        .unwrap();
        assert_eq!(auto.k, raw.k);
        assert_eq!(auto.clustering.labels, raw.clustering.labels);
        assert_eq!(auto.threshold.to_bits(), raw.threshold.to_bits());
    }

    #[test]
    fn spectral_dendrogram_is_bit_identical_to_the_materialised_matrix() {
        // The spectral path clusters through the exact-pruning index;
        // the materialised matrix over the same projected features is
        // its oracle. On a tiny spectral study the two dendrograms must
        // agree merge for merge, heights compared at the bit level.
        let mut config = crate::StudyConfig::tiny(42);
        config.identifier.feature_space = FeatureSpace::Spectral;
        let cfg = config.identifier;
        let report = crate::Study::new(config).run().unwrap();
        let bins = towerlens_pipeline::principal_bins(&report.window).unwrap();
        let features = spectral_project(&report.vectors, bins, 1).unwrap();
        let oracle = agglomerative_points(&features, cfg.linkage, cfg.engine, 1).unwrap();
        let got = report.patterns.dendrogram.merges();
        assert_eq!(got.len(), oracle.merges().len());
        assert_eq!(got.len(), report.vectors.len() - 1);
        for (step, (x, y)) in got.iter().zip(oracle.merges()).enumerate() {
            assert_eq!((x.a, x.b, x.size), (y.a, y.b, y.size), "merge {step}");
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "merge {step}: {} vs {}",
                x.distance,
                y.distance
            );
        }
    }

    #[test]
    fn naive_and_nnchain_agree() {
        let window = TraceWindow::days(3);
        let (vectors, _) = pure_kind_vectors(6, &window);
        let a = PatternIdentifier::new(IdentifierConfig {
            engine: Engine::Naive,
            ..IdentifierConfig::default()
        })
        .identify(&vectors)
        .unwrap();
        let b = PatternIdentifier::new(IdentifierConfig {
            engine: Engine::NnChain,
            ..IdentifierConfig::default()
        })
        .identify(&vectors)
        .unwrap();
        assert_eq!(a.k, b.k);
        for i in 0..vectors.len() {
            for j in 0..vectors.len() {
                assert_eq!(
                    a.clustering.labels[i] == a.clustering.labels[j],
                    b.clustering.labels[i] == b.clustering.labels[j]
                );
            }
        }
    }
}
