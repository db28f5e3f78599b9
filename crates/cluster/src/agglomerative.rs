//! Agglomerative (bottom-up) hierarchical clustering.
//!
//! The paper's pattern identifier "first considers each input point as
//! a cluster and then bottom-up iteratively merges the nearest two
//! clusters", with Euclidean distance and **average linkage**. We
//! provide that plus the other classic linkages, via two engines:
//!
//! * [`Engine::Naive`] — textbook O(n³): repeatedly scan the distance
//!   matrix for the closest pair. Kept as the reference implementation.
//! * [`Engine::NnChain`] — nearest-neighbour chain, O(n²) time, which
//!   produces the *same dendrogram* for every reducible linkage (all
//!   four offered here are reducible). This is what the benchmarks run
//!   at scale.
//!
//! Both engines share the Lance–Williams cluster-distance update, so
//! agreement between them is a real cross-check of the bookkeeping,
//! not of a shared code path for neighbour selection.
//!
//! Neither engine knows where distances live: both are generic over
//! [`DistanceSource`], so the same code runs against the materialised
//! [`DistanceMatrix`] and the matrix-free [`IndexedMetric`] — and a
//! golden test pins the two sources to bit-identical dendrograms.

use towerlens_obs::LazyCounter;

use crate::dendrogram::{Dendrogram, Merge};
use crate::distance::DistanceMatrix;
use crate::error::{validate_points, ClusterError};
use crate::index::IndexedMetric;
use crate::source::DistanceSource;

/// Merge steps performed, across all clustering runs (n−1 per run).
static MERGES: LazyCounter = LazyCounter::new("cluster.agglomerative.merges");

/// How the distance between two clusters is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Unweighted average pairwise distance (UPGMA) — the paper's
    /// "average-linkage distance".
    Average,
    /// Ward's minimum-variance criterion (on Euclidean distances).
    Ward,
}

impl Linkage {
    /// Lance–Williams update: the distance from cluster `k` to the
    /// merge of clusters `i` and `j`, given the three pairwise
    /// distances and the cluster sizes.
    ///
    /// For [`Linkage::Ward`] the recurrence operates on *squared*
    /// distances; callers of this function pass plain distances and we
    /// square/unsquare internally so every linkage exposes the same
    /// units (plain Euclidean) to the dendrogram.
    #[inline]
    fn update(self, dik: f64, djk: f64, dij: f64, ni: f64, nj: f64, nk: f64) -> f64 {
        match self {
            Linkage::Single => dik.min(djk),
            Linkage::Complete => dik.max(djk),
            Linkage::Average => (ni * dik + nj * djk) / (ni + nj),
            Linkage::Ward => {
                let s = ni + nj + nk;
                let d2 = ((ni + nk) * dik * dik + (nj + nk) * djk * djk - nk * dij * dij) / s;
                d2.max(0.0).sqrt()
            }
        }
    }
}

/// Which agglomeration algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// O(n³) closest-pair scan (reference).
    Naive,
    /// O(n²) nearest-neighbour chain.
    NnChain,
}

/// Runs agglomerative clustering over a precomputed distance matrix.
///
/// Consumes the matrix (both engines update it in place as clusters
/// merge). Returns the full merge history as a [`Dendrogram`]; cut it
/// with [`Dendrogram::cut_at`] / [`Dendrogram::cut_k`].
///
/// # Errors
/// [`ClusterError::EmptyInput`] for a zero-point matrix.
pub fn agglomerative(
    mut dist: DistanceMatrix,
    linkage: Linkage,
    engine: Engine,
) -> Result<Dendrogram, ClusterError> {
    agglomerative_source(&mut dist, linkage, engine)
}

/// Runs agglomerative clustering over any [`DistanceSource`] — the
/// materialised matrix or a matrix-free metric. The engines perform
/// the same `get`/`set` sequence either way, so two sources that agree
/// on leaf distances produce bit-identical dendrograms.
///
/// # Errors
/// [`ClusterError::EmptyInput`] for a zero-point source.
pub fn agglomerative_source<S: DistanceSource>(
    source: &mut S,
    linkage: Linkage,
    engine: Engine,
) -> Result<Dendrogram, ClusterError> {
    let n = source.len();
    if n == 0 {
        return Err(ClusterError::EmptyInput);
    }
    if n == 1 {
        return Dendrogram::new(1, Vec::new());
    }
    let merges = match engine {
        Engine::Naive => naive(source, linkage),
        Engine::NnChain => nn_chain(source, linkage),
    };
    MERGES.add(merges.len() as u64);
    Dendrogram::new(n, merges)
}

/// Matrix-free counterpart of [`agglomerative_points`]: the same
/// engines over an [`IndexedMetric`], which recomputes leaf distances
/// from the rows instead of materialising the O(n²) condensed matrix
/// and answers the nn-chain's nearest-neighbour queries by
/// branch-and-bound instead of a linear scan. Bit-identical to the
/// materialised path on the same points (a golden test pins it). Right
/// when leaf distances are cheap relative to memory — the 6-dim
/// spectral feature space at paper scale and beyond.
///
/// # Errors
/// Propagates point-set validation failures; see [`ClusterError`].
pub fn agglomerative_points_indexed(
    points: &[Vec<f64>],
    linkage: Linkage,
    engine: Engine,
) -> Result<Dendrogram, ClusterError> {
    validate_points(points)?;
    agglomerative_source(&mut IndexedMetric::new(points, linkage), linkage, engine)
}

/// Convenience: build the distance matrix (with `threads` workers) and
/// cluster in one call.
///
/// ```
/// use towerlens_cluster::{agglomerative::agglomerative_points, Engine, Linkage};
///
/// let points = vec![vec![0.0], vec![0.1], vec![9.0], vec![9.1]];
/// let tree = agglomerative_points(&points, Linkage::Average, Engine::NnChain, 1)?;
/// let two = tree.cut_k(2)?;
/// assert_eq!(two.labels[0], two.labels[1]);
/// assert_ne!(two.labels[0], two.labels[2]);
/// # Ok::<(), towerlens_cluster::ClusterError>(())
/// ```
pub fn agglomerative_points(
    points: &[Vec<f64>],
    linkage: Linkage,
    engine: Engine,
    threads: usize,
) -> Result<Dendrogram, ClusterError> {
    let dist = DistanceMatrix::build(points, threads)?;
    agglomerative(dist, linkage, engine)
}

/// Shared merge bookkeeping: active-cluster set, sizes, and the
/// creation-order cluster ids the dendrogram expects.
struct MergeState {
    /// `active[slot]` is true while the cluster seated at `slot`
    /// (a row/col of the distance matrix) still exists.
    active: Vec<bool>,
    /// Current member count per slot.
    size: Vec<usize>,
    /// Creation-order cluster id seated at each slot.
    id: Vec<usize>,
    /// Next fresh cluster id.
    next_id: usize,
    merges: Vec<Merge>,
}

impl MergeState {
    fn new(n: usize) -> Self {
        MergeState {
            active: vec![true; n],
            size: vec![1; n],
            id: (0..n).collect(),
            next_id: n,
            merges: Vec::with_capacity(n.saturating_sub(1)),
        }
    }

    /// Merges slot `j` into slot `i` at the given linkage distance and
    /// updates row `i` of the source by Lance–Williams; slot `j` is
    /// retired so the source can reclaim its storage.
    fn merge<S: DistanceSource>(
        &mut self,
        dist: &mut S,
        linkage: Linkage,
        i: usize,
        j: usize,
        d: f64,
    ) {
        let n = dist.len();
        let (ni, nj) = (self.size[i] as f64, self.size[j] as f64);
        for k in 0..n {
            if k == i || k == j || !self.active[k] {
                continue;
            }
            let dik = dist.get(i, k);
            let djk = dist.get(j, k);
            let nk = self.size[k] as f64;
            dist.set(i, k, linkage.update(dik, djk, d, ni, nj, nk));
        }
        self.merges.push(Merge {
            a: self.id[i].min(self.id[j]),
            b: self.id[i].max(self.id[j]),
            distance: d,
            size: self.size[i] + self.size[j],
        });
        self.size[i] += self.size[j];
        self.active[j] = false;
        self.id[i] = self.next_id;
        self.next_id += 1;
        dist.promote(i, j);
        dist.retire(j);
    }
}

/// O(n³) reference: scan all active pairs for the minimum each round.
fn naive<S: DistanceSource>(dist: &mut S, linkage: Linkage) -> Vec<Merge> {
    let n = dist.len();
    let mut st = MergeState::new(n);
    for _ in 0..n - 1 {
        let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
        for i in 0..n {
            if !st.active[i] {
                continue;
            }
            for j in (i + 1)..n {
                if !st.active[j] {
                    continue;
                }
                let d = dist.get(i, j);
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        let (i, j, d) = best;
        st.merge(dist, linkage, i, j, d);
    }
    st.merges
}

/// O(n²) nearest-neighbour chain.
///
/// Grows a chain `c₁ → c₂ → …` where each element is a nearest
/// neighbour of its predecessor; when two consecutive elements are
/// mutual nearest neighbours they are merged immediately. Valid for
/// reducible linkages (all four here), producing the same tree as the
/// naive engine up to tie order.
fn nn_chain<S: DistanceSource>(dist: &mut S, linkage: Linkage) -> Vec<Merge> {
    let n = dist.len();
    let mut st = MergeState::new(n);
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 1 {
        if chain.is_empty() {
            // Seat the chain on the lowest-indexed active cluster.
            let start = (0..n).find(|&i| st.active[i]).expect("active cluster");
            chain.push(start);
        }
        loop {
            let top = *chain.last().expect("chain non-empty");
            // Nearest active neighbour of `top`, preferring the
            // previous chain element on ties (guarantees termination).
            // The source decides how: linear scan by default, pruned
            // index descent for spatial sources — same answer either
            // way (the `nearest_active` contract).
            let prev = chain.len().checked_sub(2).map(|i| chain[i]);
            let (nearest, best) = dist
                .nearest_active(top, &st.active, prev)
                .expect("an active neighbour besides the chain top");
            if Some(nearest) == prev {
                // Mutual nearest neighbours: merge the top two.
                let j = chain.pop().expect("top");
                let i = chain.pop().expect("prev");
                // Keep the lower slot as the surviving row for
                // deterministic output.
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                st.merge(dist, linkage, lo, hi, best);
                remaining -= 1;
                // The merged cluster may invalidate chain tail
                // assumptions only if it was referenced; we popped both,
                // so the rest of the chain is still a valid NN chain.
                break;
            }
            chain.push(nearest);
        }
    }
    st.merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean;

    /// Three tight groups on a line: {0,1} near 0, {2,3} near 10,
    /// {4,5} near 30.
    fn grouped_points() -> Vec<Vec<f64>> {
        vec![
            vec![0.0],
            vec![0.5],
            vec![10.0],
            vec![10.4],
            vec![30.0],
            vec![30.3],
        ]
    }

    fn tree(points: &[Vec<f64>], linkage: Linkage, engine: Engine) -> Dendrogram {
        agglomerative_points(points, linkage, engine, 1).unwrap()
    }

    #[test]
    fn recovers_obvious_groups_all_linkages() {
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            for engine in [Engine::Naive, Engine::NnChain] {
                let d = tree(&grouped_points(), linkage, engine);
                let c = d.cut_k(3).unwrap();
                assert_eq!(c.labels[0], c.labels[1], "{linkage:?}/{engine:?}");
                assert_eq!(c.labels[2], c.labels[3], "{linkage:?}/{engine:?}");
                assert_eq!(c.labels[4], c.labels[5], "{linkage:?}/{engine:?}");
                assert_eq!(c.k, 3);
            }
        }
    }

    #[test]
    fn engines_agree_on_merge_heights() {
        // Random-ish points without ties: the two engines must produce
        // identical sorted height sequences.
        let points: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.7).sin() * 10.0, (t * 1.3).cos() * 7.0, t % 5.0]
            })
            .collect();
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let a = tree(&points, linkage, Engine::Naive);
            let b = tree(&points, linkage, Engine::NnChain);
            for (x, y) in a.merges().iter().zip(b.merges()) {
                assert!(
                    (x.distance - y.distance).abs() < 1e-9,
                    "{linkage:?}: {} vs {}",
                    x.distance,
                    y.distance
                );
            }
        }
    }

    #[test]
    fn engines_agree_on_flat_cut() {
        let points: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let t = i as f64;
                vec![
                    (t * 0.9).sin() * 3.0 + (i % 3) as f64 * 20.0,
                    (t * 0.4).cos(),
                ]
            })
            .collect();
        let a = tree(&points, Linkage::Average, Engine::Naive)
            .cut_k(3)
            .unwrap();
        let b = tree(&points, Linkage::Average, Engine::NnChain)
            .cut_k(3)
            .unwrap();
        // Same partition (labels may permute): compare co-membership.
        for i in 0..points.len() {
            for j in 0..points.len() {
                assert_eq!(
                    a.labels[i] == a.labels[j],
                    b.labels[i] == b.labels[j],
                    "pair ({i},{j}) disagrees"
                );
            }
        }
    }

    #[test]
    fn single_linkage_first_merge_is_global_min_pair() {
        let points = grouped_points();
        let d = tree(&points, Linkage::Single, Engine::NnChain);
        let mut min_pair = f64::INFINITY;
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                min_pair = min_pair.min(euclidean(&points[i], &points[j]));
            }
        }
        assert!((d.merges()[0].distance - min_pair).abs() < 1e-12);
    }

    #[test]
    fn average_linkage_heights_are_monotone() {
        let points: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i as f64 * 2.17).sin() * 5.0, (i as f64 * 0.33).cos() * 5.0])
            .collect();
        let d = tree(&points, Linkage::Average, Engine::NnChain);
        let mut prev = 0.0;
        for m in d.merges() {
            assert!(m.distance >= prev - 1e-12);
            prev = m.distance;
        }
    }

    #[test]
    fn ward_merges_minimum_variance_pairs_first() {
        // Two pairs with equal gaps but different cluster spreads: Ward
        // prefers merging points before absorbing into bigger clusters.
        let points = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let d = tree(&points, Linkage::Ward, Engine::Naive);
        let c = d.cut_k(2).unwrap();
        assert_eq!(c.labels[0], c.labels[1]);
        assert_eq!(c.labels[2], c.labels[3]);
    }

    #[test]
    fn singleton_input() {
        let d =
            agglomerative_points(&[vec![1.0, 2.0]], Linkage::Average, Engine::NnChain, 1).unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.merges().is_empty());
        assert_eq!(d.cut_at(1.0).k, 1);
    }

    #[test]
    fn empty_input_errors() {
        assert!(matches!(
            agglomerative_points(&[], Linkage::Average, Engine::Naive, 1),
            Err(ClusterError::EmptyInput)
        ));
    }

    #[test]
    fn duplicate_points_merge_at_zero() {
        let points = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![5.0, 5.0]];
        for engine in [Engine::Naive, Engine::NnChain] {
            let d = tree(&points, Linkage::Average, engine);
            assert_eq!(d.merges()[0].distance, 0.0);
        }
    }

    #[test]
    fn matrix_free_engines_are_bit_identical_to_the_materialised_path() {
        // The golden test the matrix-free path hangs on: both engines,
        // all four linkages, merge-for-merge equality with distances
        // compared at the bit level against the materialised matrix.
        // The indexed source recomputes every leaf distance from the
        // rows; any drift (kernel mismatch, stale Lance–Williams row,
        // wrong fallthrough, an unsound prune) shows up here. Two
        // inputs: a loose 3-dim cloud, and clustered 6-dim data where
        // the index actually prunes (Ward exercises the
        // no-merged-prune fallback, average the deflated bound).
        let loose: Vec<Vec<f64>> = (0..48)
            .map(|i| {
                let t = i as f64;
                vec![
                    (t * 0.7).sin() * 10.0,
                    (t * 1.3).cos() * 7.0,
                    (t * 0.29).sin() * 3.0 + (i % 4) as f64,
                ]
            })
            .collect();
        let clustered: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                let t = i as f64;
                (0..6)
                    .map(|d| {
                        ((i % 5) * 6 + d) as f64 * 1.3 + (t * 0.7 + d as f64 * 1.1).sin() * 2.0
                    })
                    .collect()
            })
            .collect();
        for points in [&loose, &clustered] {
            for linkage in [
                Linkage::Single,
                Linkage::Complete,
                Linkage::Average,
                Linkage::Ward,
            ] {
                for engine in [Engine::Naive, Engine::NnChain] {
                    let built = agglomerative_points(points, linkage, engine, 1).unwrap();
                    let fast = agglomerative_points_indexed(points, linkage, engine).unwrap();
                    let what = format!("n={} {linkage:?}/{engine:?}", points.len());
                    assert_eq!(built.merges().len(), fast.merges().len(), "{what}");
                    for (step, (x, y)) in built.merges().iter().zip(fast.merges()).enumerate() {
                        assert_eq!(x.a, y.a, "{what} merge {step}");
                        assert_eq!(x.b, y.b, "{what} merge {step}");
                        assert_eq!(x.size, y.size, "{what} merge {step}");
                        assert_eq!(
                            x.distance.to_bits(),
                            y.distance.to_bits(),
                            "{what} merge {step}: {} vs {}",
                            x.distance,
                            y.distance
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_nn_chain_prunes_scan_evaluations() {
        // The point of the index: the nn-chain's nearest-neighbour
        // scans descend the tree instead of reading every active slot.
        // The count is deterministic, so it is pinned exactly: the
        // C(400,2) = 79,800 Lance–Williams floor plus 1,612 evaluations
        // from the pruned descents.
        let points: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                (0..6)
                    .map(|d| ((i % 8) * 6 + d) as f64 * 2.0 + ((i * 6 + d) as f64 * 0.37).sin())
                    .collect()
            })
            .collect();
        let mut fast = IndexedMetric::new(&points, Linkage::Average);
        let merges = nn_chain(&mut fast, Linkage::Average);
        assert_eq!(merges.len(), points.len() - 1);
        assert_eq!(fast.evaluations(), 81_412);
        assert!(fast.stats().pruned_subtrees > 0);
    }

    #[test]
    fn on_demand_rows_are_freed_as_clusters_retire() {
        // Memory contract: after the final merge a single root cluster
        // survives, so at most one Lance–Williams row may remain live.
        let points: Vec<Vec<f64>> = (0..32).map(|i| vec![(i as f64 * 1.37).sin()]).collect();
        let mut metric = IndexedMetric::new(&points, Linkage::Average);
        let merges = nn_chain(&mut metric, Linkage::Average);
        assert_eq!(merges.len(), points.len() - 1);
        assert!(
            metric.live_rows() <= 1,
            "{} rows still live after full agglomeration",
            metric.live_rows()
        );
    }

    #[test]
    fn total_merge_count_is_n_minus_1() {
        let points: Vec<Vec<f64>> = (0..23).map(|i| vec![i as f64 * 1.1]).collect();
        let d = tree(&points, Linkage::Complete, Engine::NnChain);
        assert_eq!(d.merges().len(), 22);
        assert_eq!(d.cut_k(1).unwrap().k, 1);
    }
}
