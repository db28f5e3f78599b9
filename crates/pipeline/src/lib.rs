//! # towerlens-pipeline
//!
//! The parallel *traffic vectorizer* — the stand-in for the paper's
//! Hadoop deployment (§3.2).
//!
//! The paper's vectorizer is "a parallel transformer, which takes the
//! time-domain traffic logs of thousands of cellular towers as its
//! input and converts each cell tower's logs into a time-domain
//! traffic vector" in two phases: **aggregation** (10-minute chunks)
//! and **normalisation** (z-score). This crate reproduces both phases
//! over scoped worker threads:
//!
//! 1. a single cheap pass partitions record indices by tower shard,
//! 2. workers aggregate their shards into dense per-tower rows
//!    (the semantics are defined by — and tested for exact equality
//!    against — the single-threaded reference in
//!    `towerlens_trace::binning`),
//! 3. workers z-score the rows; towers with zero variance (dead
//!    towers, which a z-score cannot represent) are dropped and
//!    reported, mirroring the paper's data cleaning.
//!
//! Output is bit-identical for any worker count.
//!
//! On top of the two phases, [`vectorizer::Vectorizer::run_with`]
//! adds fault tolerance: unknown-cell records are quarantined under a
//! [`towerlens_trace::quarantine::FaultPolicy`] instead of aborting,
//! and [`impute`] detects per-tower outage windows (long zero runs on
//! an otherwise-live tower) and repairs them from the tower's own
//! daily/weekly periodicity, threading imputed-bin provenance through
//! [`NormalizedMatrix::imputed`].
//!
//! Downstream of normalisation, [`feature`] names the representation
//! the clustering stage sees — the raw traffic vector or its 6-dim
//! spectral projection ([`FeatureSpace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod feature;
pub mod impute;
pub mod normalize;
pub mod vectorizer;

pub use feature::{principal_bins, spectral_project, FeatureSpace, SPECTRAL_AUTO_MIN};
pub use impute::{impute_outages, ImputeConfig, ImputeReport};
pub use normalize::{normalize_matrix, NormalizedMatrix};
pub use vectorizer::{Vectorizer, VectorizerOptions, VectorizerOutput, VectorizerReport};
