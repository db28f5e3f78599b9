//! Distance sources: where the agglomerative engines read cluster
//! distances from.
//!
//! Both engines in [`crate::agglomerative`] touch distances through
//! exactly three operations — `len`, `get`, `set` — plus a `retire`
//! notification when a cluster slot dies. [`DistanceSource`] names
//! that seam, with two implementations:
//!
//! * [`DistanceMatrix`] — the materialised condensed matrix: every
//!   pair precomputed, O(n²) memory. Right when leaf distances are
//!   expensive (the raw 4,032-dim traffic vectors) and will be read
//!   repeatedly, and the bit-level oracle for the matrix-free source.
//! * [`IndexedMetric`](crate::index::IndexedMetric) — matrix-free:
//!   leaf distances are recomputed from the feature rows on every
//!   read, only the Lance–Williams rows of *merged* clusters are
//!   stored (`LwRows`), and nearest-neighbour queries descend a
//!   spatial index. Memory follows the number of live internal
//!   clusters instead of n²/2 — the enabler for clustering the
//!   paper's 9,600 towers (and beyond) in the 6-dim spectral feature
//!   space.
//!
//! The two sources are *bit-identical* under the same engine and
//! metric: leaf reads call the same [`euclidean`] kernel the matrix
//! builder uses (symmetric at the bit level — the squared differences
//! erase operand order), and merged-cluster reads return the exact
//! values the engine stored. Golden tests in
//! [`crate::agglomerative`] pin this.

use crate::distance::{euclidean, DistanceMatrix};

/// What the agglomerative engines need from distance storage.
///
/// `get`/`set` address unordered pairs of *slots* (initially one point
/// per slot); the engines guarantee `i ≠ j` slots are only read while
/// both are active. `set` is only ever called by the Lance–Williams
/// update with the surviving merge slot as its first index.
pub trait DistanceSource {
    /// Number of slots (points) the source was built over.
    fn len(&self) -> usize;

    /// `true` when built over zero points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current distance between the clusters seated at `i` and `j`
    /// (0 when `i == j`).
    fn get(&mut self, i: usize, j: usize) -> f64;

    /// Overwrites the distance of a pair (Lance–Williams update; `i`
    /// is the surviving merge slot).
    fn set(&mut self, i: usize, j: usize, v: f64);

    /// The cluster seated at `slot` has been merged away; its
    /// distances will never be read again. Storage may reclaim.
    fn retire(&mut self, slot: usize) {
        let _ = slot;
    }

    /// Notification that `survivor` absorbed `absorbed` in a merge:
    /// `survivor` now seats an internal cluster. Called after the
    /// Lance–Williams updates and before `retire(absorbed)`. Sources
    /// with spatial acceleration structures use this to maintain
    /// cluster extents; the default does nothing.
    fn promote(&mut self, survivor: usize, absorbed: usize) {
        let _ = (survivor, absorbed);
    }

    /// The nearest active neighbour of `top` as `(slot, distance)`,
    /// or `None` when no other slot is active. On exact distance ties
    /// the result must prefer `prev` if it participates in the tie,
    /// and the lowest slot index otherwise — the contract the nn-chain
    /// engine's termination proof and deterministic output rest on.
    ///
    /// The default is the reference linear scan; indexed sources
    /// override it with a pruned search that returns the identical
    /// answer.
    fn nearest_active(
        &mut self,
        top: usize,
        active: &[bool],
        prev: Option<usize>,
    ) -> Option<(usize, f64)> {
        let mut nearest = usize::MAX;
        let mut best = f64::INFINITY;
        for (k, &alive) in active.iter().enumerate().take(self.len()) {
            if k == top || !alive {
                continue;
            }
            let d = self.get(top, k);
            if d < best || (d == best && Some(k) == prev) {
                best = d;
                nearest = k;
            }
        }
        (nearest != usize::MAX).then_some((nearest, best))
    }
}

impl DistanceSource for DistanceMatrix {
    fn len(&self) -> usize {
        DistanceMatrix::len(self)
    }
    fn get(&mut self, i: usize, j: usize) -> f64 {
        DistanceMatrix::get(self, i, j)
    }
    fn set(&mut self, i: usize, j: usize, v: f64) {
        DistanceMatrix::set(self, i, j, v);
    }
}

/// The `k` nearest neighbours of row `query` among `points`,
/// computed by a single linear scan — no distance matrix is ever
/// materialised, so memory stays O(k) regardless of `points.len()`.
///
/// Returns `(index, distance)` pairs sorted ascending by
/// `(distance, index)`; ties therefore break to the lower index and
/// the result is fully deterministic. `query` itself is excluded.
/// Fewer than `k` pairs come back when the set is small.
pub fn top_k_nearest(points: &[Vec<f64>], query: usize, k: usize) -> Vec<(usize, f64)> {
    let n = points.len();
    if k == 0 || query >= n {
        return Vec::new();
    }
    let mut top = TopK::new(k);
    for (j, p) in points.iter().enumerate() {
        if j == query {
            continue;
        }
        top.offer(j, euclidean(&points[query], p));
    }
    top.into_sorted()
}

/// A bounded max-heap keeping the `k` smallest `(distance, index)`
/// candidates seen so far, ordered lexicographically by
/// `(distance, index)` so ties are fully deterministic.
///
/// Replacing a full heap's root is O(log k) against the O(k) shift of
/// sorted insertion, and [`TopK::worst`] gives the pruning threshold
/// the spatial index's top-k descent needs in O(1). Offering every
/// candidate of a linear scan yields exactly the `k` smallest by
/// `(distance, index)` — the same set, in the same order, as the
/// sorted-buffer implementation this replaced.
#[derive(Debug, Clone, Default)]
pub struct TopK {
    k: usize,
    /// Max-heap: `heap[0]` is the worst (largest) retained candidate.
    heap: Vec<(f64, usize)>,
}

impl TopK {
    /// An empty accumulator retaining at most `k` candidates.
    #[must_use]
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: Vec::with_capacity(k.min(1 << 12)),
        }
    }

    /// `true` once `k` candidates are retained (the threshold in
    /// [`TopK::worst`] is now meaningful for pruning).
    #[must_use]
    pub fn full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The retention bound `k`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// The worst retained candidate as `(distance, index)`, only once
    /// the accumulator is full — a candidate set that isn't full yet
    /// admits everything, so there is no threshold to prune against.
    #[must_use]
    pub fn worst(&self) -> Option<(f64, usize)> {
        (self.k > 0 && self.full()).then(|| self.heap[0])
    }

    /// Offers a candidate; it is retained iff it is among the `k`
    /// smallest by `(distance, index)` seen so far.
    pub fn offer(&mut self, index: usize, distance: f64) {
        if self.k == 0 {
            return;
        }
        let entry = (distance, index);
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else if lex_less(entry, self.heap[0]) {
            self.heap[0] = entry;
            self.sift_down(0);
        }
    }

    /// Consumes the accumulator, returning `(index, distance)`
    /// ascending by `(distance, index)`.
    #[must_use]
    pub fn into_sorted(mut self) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.heap.len());
        self.sorted_into(&mut out);
        out
    }

    /// Empties the accumulator into `out` (appended, ascending by
    /// `(distance, index)`) and re-arms it for `reset`/reuse — the
    /// allocation-free counterpart of [`TopK::into_sorted`] for
    /// callers that keep scratch buffers across queries.
    pub fn sorted_into(&mut self, out: &mut Vec<(usize, f64)>) {
        self.heap
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.extend(self.heap.drain(..).map(|(d, i)| (i, d)));
    }

    /// Clears retained candidates and sets a new retention bound,
    /// keeping the heap's allocation for reuse.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if lex_less(self.heap[parent], self.heap[at]) {
                self.heap.swap(parent, at);
                at = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut largest = at;
            if l < n && lex_less(self.heap[largest], self.heap[l]) {
                largest = l;
            }
            if r < n && lex_less(self.heap[largest], self.heap[r]) {
                largest = r;
            }
            if largest == at {
                break;
            }
            self.heap.swap(at, largest);
            at = largest;
        }
    }
}

/// Strict lexicographic `(distance, index)` order (total: distances
/// compare via `total_cmp`, though the kernels never produce NaN).
#[inline]
fn lex_less(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
}

/// The Lance–Williams row store behind the matrix-free
/// [`IndexedMetric`](crate::index::IndexedMetric): rows are allocated
/// lazily at a merged slot's first `set` and freed by `retire`; `NaN`
/// marks entries whose value lives on the *other* endpoint's row, or —
/// for leaf pairs — is recomputed from the metric. Peak memory is `(live internal clusters) × n` entries; an
/// agglomeration that pairs every point first peaks at n²/4 — half the
/// condensed matrix — while typical incremental merge orders stay far
/// below. Either way the O(n²) *leaf* triangle, which dominates at raw
/// dimensionality, is never stored.
#[derive(Debug)]
pub(crate) struct LwRows {
    rows: Vec<Option<Box<[f64]>>>,
}

impl LwRows {
    /// An empty store over `n` slots; no rows are allocated yet.
    pub(crate) fn new(n: usize) -> LwRows {
        LwRows {
            rows: vec![None; n],
        }
    }

    /// The stored cluster distance of the pair, if either endpoint's
    /// row holds one. A stored value wins over any leaf metric: once a
    /// slot holds a merged cluster, its distances are defined by the
    /// linkage recurrence, not the underlying points.
    #[inline]
    pub(crate) fn read(&self, i: usize, j: usize) -> Option<f64> {
        if let Some(row) = self.rows[i].as_deref() {
            let v = row[j];
            if !v.is_nan() {
                return Some(v);
            }
        }
        if let Some(row) = self.rows[j].as_deref() {
            let v = row[i];
            if !v.is_nan() {
                return Some(v);
            }
        }
        None
    }

    /// Stores a pair's distance, keeping every live copy coherent and
    /// allocating on the first index (the surviving merge slot) only
    /// when no row exists yet.
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        if i == j {
            return;
        }
        debug_assert!(!v.is_nan(), "cluster distances must be numbers");
        let mut stored = false;
        if let Some(row) = self.rows[i].as_deref_mut() {
            row[j] = v;
            stored = true;
        }
        if let Some(row) = self.rows[j].as_deref_mut() {
            row[i] = v;
            stored = true;
        }
        if !stored {
            let mut row = vec![f64::NAN; self.rows.len()].into_boxed_slice();
            row[j] = v;
            self.rows[i] = Some(row);
        }
    }

    /// Frees a retired slot's row.
    pub(crate) fn retire(&mut self, slot: usize) {
        self.rows[slot] = None;
    }

    /// Rows currently allocated (live merged clusters).
    pub(crate) fn live(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_values_stay_coherent_and_retire_frees_rows() {
        let mut rows = LwRows::new(4);
        assert_eq!(rows.read(0, 2), None, "leaf pairs are not stored");
        rows.set(0, 2, 42.0);
        assert_eq!(rows.live(), 1);
        assert_eq!(rows.read(0, 2), Some(42.0));
        assert_eq!(rows.read(2, 0), Some(42.0));
        // An unset pair on the same row is still a leaf pair.
        assert_eq!(rows.read(0, 1), None);
        // Updates through the other endpoint stay coherent.
        rows.set(2, 0, 7.0);
        assert_eq!(rows.live(), 1, "no second row for the same pair");
        assert_eq!(rows.read(0, 2), Some(7.0));
        rows.retire(0);
        assert_eq!(rows.live(), 0);
        // With the row gone the pair is a leaf pair again.
        assert_eq!(rows.read(0, 2), None);
    }

    #[test]
    fn top_k_matches_brute_force_reference() {
        // Deterministic pseudo-random points, then pin the scan
        // against the O(n²) sort-everything reference.
        let n = 37;
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..6)
                    .map(|d| (((i * 6 + d) as f64) * 0.7315).sin() * 3.0)
                    .collect()
            })
            .collect();
        for query in 0..n {
            for k in [0, 1, 3, n - 1, n + 5] {
                let fast = top_k_nearest(&points, query, k);
                let mut brute: Vec<(usize, f64)> = (0..n)
                    .filter(|&j| j != query)
                    .map(|j| (j, euclidean(&points[query], &points[j])))
                    .collect();
                brute.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
                brute.truncate(k);
                assert_eq!(fast, brute, "query {query} k {k}");
            }
        }
    }

    #[test]
    fn top_k_breaks_distance_ties_to_the_lower_index() {
        // Four points equidistant from the origin point.
        let points = [
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![-1.0, 0.0],
            vec![0.0, -1.0],
        ];
        let got = top_k_nearest(&points[..], 0, 2);
        assert_eq!(got, vec![(1, 1.0), (2, 1.0)]);
    }
}
