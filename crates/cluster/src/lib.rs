//! # towerlens-cluster
//!
//! Unsupervised-learning substrate: the machinery behind the paper's
//! *pattern identifier* and *metric tuner* (§3.2).
//!
//! * [`mod@agglomerative`] — bottom-up hierarchical clustering with
//!   single/complete/average/Ward linkage. Two engines produce
//!   identical dendrograms: a naive O(n³) reference and an O(n²)
//!   nearest-neighbour-chain implementation (the one the benchmarks
//!   ablate).
//! * [`dendrogram`] — the merge tree; cut it at a distance threshold
//!   (the paper stops "when the distance between two clusters is above
//!   the threshold value", 16.33 in their data) or at a target cluster
//!   count.
//! * [`validity`] — Davies–Bouldin index (the paper's stop-condition
//!   tuner) and silhouette score as a second opinion.
//! * [`distance`] — Euclidean metrics (runtime-dispatched AVX kernel,
//!   bit-identical to its scalar reference) and a cache-tiled parallel
//!   pairwise-distance matrix builder (std scoped threads; no runtime
//!   dependency).
//! * [`index`] — an exact-pruning spatial index over low-dimensional
//!   feature spaces: a static bounding-box k-d tree whose
//!   nearest-neighbour and top-k answers are bit-identical to the
//!   linear scan, plus [`IndexedMetric`], the indexed
//!   [`DistanceSource`] the nn-chain engine runs over at scale.
//!
//! All APIs are fallible ([`ClusterError`]) rather than panicking, and
//! deterministic given their inputs.

// `deny`, not `forbid`: the one sanctioned exception is the AVX
// distance kernel in [`distance`], a leaf function pinned bit-for-bit
// to its safe scalar reference by test. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod agglomerative;
pub mod compare;
pub mod dendrogram;
pub mod distance;
pub mod error;
pub mod index;
pub mod source;
pub mod validity;

pub use agglomerative::{
    agglomerative, agglomerative_points_indexed, agglomerative_source, Engine, Linkage,
};
pub use compare::{adjusted_rand_index, purity, rand_index};
pub use dendrogram::{Clustering, Dendrogram, Merge};
pub use distance::DistanceMatrix;
pub use error::ClusterError;
pub use index::{IndexedMetric, PointSet, SearchStats, SpatialIndex};
pub use source::{top_k_nearest, DistanceSource, TopK};
