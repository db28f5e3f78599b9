//! Exact-pruning spatial index over low-dimensional feature spaces.
//!
//! [`SpatialIndex`] is a static bounding-box k-d tree built once over a
//! point set (the 6-dim amplitude–phase spectral features at paper
//! scale). It answers nearest-neighbour and top-k queries by
//! branch-and-bound: a subtree is skipped only when a *provable* lower
//! bound on every distance inside it exceeds the current best — so the
//! result (indices, distances, tie order) is bit-identical to the
//! brute-force linear scan over the same kernel.
//!
//! The exactness argument (DESIGN.md §16, in brief): the per-dimension
//! box gap `max(0, blo−qhi, qlo−bhi)` is computed with the same
//! floating-point ops and termwise-dominated inputs as the kernel's
//! per-dimension difference, and the gaps are squared and summed in
//! the *identical lane structure* as [`sq_euclidean`]'s scalar
//! reference. IEEE-754 rounding is monotone, so every intermediate of
//! the bound is ≤ the corresponding intermediate of the kernel applied
//! to any point in the box — the computed bound never exceeds any
//! computed distance. Pruning is strict (`bound > best`); on equality
//! the subtree is descended, which preserves the lowest-index
//! tie-break of the linear scan.
//!
//! [`IndexedMetric`] wires the tree into the nn-chain engine as a
//! [`DistanceSource`]: leaf-level nearest-neighbour queries become
//! pruned descents, while Lance–Williams rows for merged clusters are
//! maintained by the same writes and reads the materialised
//! [`DistanceMatrix`](crate::distance::DistanceMatrix) sees, so
//! dendrograms are bit-identical.
//! Merged clusters are tracked with axis-aligned bounding boxes (the
//! O(1) union of their members' boxes); for the linkages whose
//! cluster distance provably dominates the box gap (single, complete,
//! average — not Ward, whose recurrence subtracts), queries *from* a
//! merged cluster also prune through the tree, with a deflation guard
//! on the bound that covers the linkage recurrence's rounding (see
//! [`MERGED_DEFLATE`]).
//!
//! Note the information-theoretic floor this module does *not* (and
//! cannot) cross: every average-linkage merge height depends on all
//! leaf distances crossing that merge, so any exact algorithm must
//! evaluate all n(n−1)/2 leaf pairs — the Lance–Williams loop already
//! performs exactly that floor, once per pair. What the index removes
//! is the *other* half of the work: the nearest-neighbour rescans,
//! which dominate wall time and evaluations at scale.

use towerlens_obs::LazyCounter;

use crate::agglomerative::Linkage;
use crate::distance::{sq_euclidean, sq_euclidean6_batch, BATCH6};
use crate::source::{DistanceSource, LwRows, TopK};

/// Tree nodes touched by index queries, across all runs.
static INDEX_NODES_VISITED: LazyCounter = LazyCounter::new("cluster.index.nodes_visited");
/// Subtrees skipped because their lower bound exceeded the best
/// candidate, across all runs.
static INDEX_PRUNED: LazyCounter = LazyCounter::new("cluster.index.pruned_subtrees");
/// Leaf-distance evaluations performed by [`IndexedMetric`].
static INDEX_LEAF_EVALS: LazyCounter = LazyCounter::new("cluster.index.leaf_evaluations");

/// Points per k-d tree leaf bucket: small enough that a bucket scan is
/// a handful of kernel calls, large enough to amortise the descent
/// (and to fill the batched 6-dim kernel, [`BATCH6`] lanes at a time).
const LEAF_BUCKET: usize = 8;

/// Deflation factor applied to box lower bounds when the *query* side
/// is a merged cluster, i.e. when candidate values come from the
/// Lance–Williams recurrence instead of the kernel. Each recurrence
/// level of the average linkage performs ≤ 3 rounded ops on values
/// that are termwise ≥ the bound, so a cluster of depth `h` can sit
/// below the real bound by at most a relative `3·h·ε`. With ε = 2⁻⁵³
/// and h < 2²⁶/3 (far beyond any practical n), multiplying the bound
/// by `1 − 2⁻²⁶` provably re-establishes `bound ≤ value`. Single and
/// complete linkage (min/max, exact in floating point) need no slack
/// but share the same guard for simplicity.
const MERGED_DEFLATE: f64 = 1.0 - 1.0 / (1u64 << 26) as f64;

/// Sentinel for "no node" / "no candidate".
const NONE: u32 = u32::MAX;

/// Row-major access to point coordinates — the minimal surface the
/// index needs. Implemented for the pipeline's `[Vec<f64>]` feature
/// matrices and the artifact snapshot's `[[f64; 6]]` rows.
pub trait PointSet {
    /// Number of points.
    fn len(&self) -> usize;
    /// `true` when the set has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Coordinates of point `i`.
    fn row(&self, i: usize) -> &[f64];
}

impl PointSet for [Vec<f64>] {
    fn len(&self) -> usize {
        <[Vec<f64>]>::len(self)
    }
    fn row(&self, i: usize) -> &[f64] {
        &self[i]
    }
}

impl PointSet for [[f64; 6]] {
    fn len(&self) -> usize {
        <[[f64; 6]]>::len(self)
    }
    fn row(&self, i: usize) -> &[f64] {
        &self[i]
    }
}

/// Query-side work counters, accumulated per search and flushed to the
/// `cluster.index.*` counters by the owning structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes examined (root counts once per search).
    pub nodes_visited: u64,
    /// Subtrees skipped by the lower-bound test.
    pub pruned_subtrees: u64,
}

impl SearchStats {
    /// Adds another stats record into this one.
    pub fn absorb(&mut self, other: SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.pruned_subtrees += other.pruned_subtrees;
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Axis-aligned bounding box of the subtree's points.
    lo: Box<[f64]>,
    hi: Box<[f64]>,
    /// Child node ids; `NONE` marks a leaf.
    left: u32,
    right: u32,
    /// Leaf bucket range in `order` (leaves only).
    start: u32,
    end: u32,
}

/// A static bounding-box k-d tree with point deactivation.
///
/// Built once over a point set; points are removed (never added) as
/// cluster slots merge away, and empty subtrees are skipped in O(1)
/// via live counts. Queries take the candidate evaluator as a closure,
/// so the same tree serves kernel-valued leaf queries and
/// row-valued merged-cluster queries.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    dim: usize,
    nodes: Vec<Node>,
    /// Point ids in leaf-bucket-contiguous order.
    order: Vec<u32>,
    /// Leaf bucket coordinates, transposed per bucket for the batched
    /// kernel: for a bucket at `order[s..e]`, `coords[s*dim..e*dim]`
    /// holds dimension-major lanes (`d*width + lane`).
    coords: Vec<f64>,
    /// Untransposed point rows by id (generic-dimension query path).
    flat: Vec<f64>,
    /// Leaf node id holding each point.
    leaf_of: Vec<u32>,
    /// Parent node id per node (`NONE` at the root).
    parent: Vec<u32>,
    active: Vec<bool>,
    /// Active points per subtree.
    live: Vec<u32>,
}

impl SpatialIndex {
    /// Builds the tree over a point set. Deterministic: splits choose
    /// the widest axis and the exact median of `(coordinate, index)`,
    /// so the structure is a pure function of the input.
    pub fn build<P: PointSet + ?Sized>(points: &P) -> SpatialIndex {
        let n = points.len();
        let dim = if n == 0 { 0 } else { points.row(0).len() };
        let mut flat = Vec::with_capacity(n * dim);
        for i in 0..n {
            flat.extend_from_slice(points.row(i));
        }
        let mut index = SpatialIndex {
            dim,
            nodes: Vec::new(),
            order: Vec::with_capacity(n),
            coords: Vec::with_capacity(n * dim),
            flat,
            leaf_of: vec![NONE; n],
            parent: Vec::new(),
            active: vec![true; n],
            live: Vec::new(),
        };
        if n == 0 {
            return index;
        }
        let mut ids: Vec<u32> = (0..n as u32).collect();
        index.split(points, &mut ids, NONE);
        index
    }

    /// Recursively builds the subtree over `ids`, returning its node id.
    fn split<P: PointSet + ?Sized>(&mut self, points: &P, ids: &mut [u32], parent: u32) -> u32 {
        let node_id = self.nodes.len() as u32;
        let mut lo = vec![f64::INFINITY; self.dim].into_boxed_slice();
        let mut hi = vec![f64::NEG_INFINITY; self.dim].into_boxed_slice();
        for &p in ids.iter() {
            for (d, &c) in points.row(p as usize).iter().enumerate() {
                lo[d] = lo[d].min(c);
                hi[d] = hi[d].max(c);
            }
        }
        self.nodes.push(Node {
            lo,
            hi,
            left: NONE,
            right: NONE,
            start: 0,
            end: 0,
        });
        self.parent.push(parent);
        self.live.push(ids.len() as u32);
        if ids.len() <= LEAF_BUCKET {
            let start = self.order.len() as u32;
            for &p in ids.iter() {
                self.order.push(p);
                self.leaf_of[p as usize] = node_id;
            }
            let end = self.order.len() as u32;
            // Transposed bucket lanes for the batched kernel.
            let width = ids.len();
            let base = self.coords.len();
            self.coords.resize(base + width * self.dim, 0.0);
            for (lane, &p) in ids.iter().enumerate() {
                for (d, &c) in points.row(p as usize).iter().enumerate() {
                    self.coords[base + d * width + lane] = c;
                }
            }
            let node = &mut self.nodes[node_id as usize];
            node.start = start;
            node.end = end;
            return node_id;
        }
        // Widest axis, median split; ties in the sort break by point
        // index so the permutation is deterministic.
        let node = &self.nodes[node_id as usize];
        let axis = (0..self.dim)
            .max_by(|&a, &b| (node.hi[a] - node.lo[a]).total_cmp(&(node.hi[b] - node.lo[b])))
            .unwrap_or(0);
        ids.sort_unstable_by(|&a, &b| {
            points.row(a as usize)[axis]
                .total_cmp(&points.row(b as usize)[axis])
                .then(a.cmp(&b))
        });
        let mid = ids.len() / 2;
        let (left_ids, right_ids) = ids.split_at_mut(mid);
        let left = self.split(points, left_ids, node_id);
        let right = self.split(points, right_ids, node_id);
        let node = &mut self.nodes[node_id as usize];
        node.left = left;
        node.right = right;
        node_id
    }

    /// Number of points the tree was built over.
    #[must_use]
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// `true` when built over zero points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Active (not yet deactivated) points.
    #[must_use]
    pub fn live(&self) -> usize {
        if self.nodes.is_empty() {
            0
        } else {
            self.live[0] as usize
        }
    }

    /// Removes point `i` from all future query results. Idempotent.
    pub fn deactivate(&mut self, i: usize) {
        if !self.active[i] {
            return;
        }
        self.active[i] = false;
        let mut node = self.leaf_of[i];
        while node != NONE {
            self.live[node as usize] -= 1;
            node = self.parent[node as usize];
        }
    }

    /// The nearest active point to the query box `[qlo, qhi]`
    /// (a point query passes the same slice twice), excluding point
    /// `exclude`, as `(index, value)` minimising `(value, index)`
    /// lexicographically — exactly the candidate an ascending linear
    /// scan with `<` updates would keep.
    ///
    /// `value` produces the candidate's distance; `deflate` scales the
    /// box lower bound before the prune test (`1.0` when values come
    /// straight from the kernel, [`MERGED_DEFLATE`] when they come
    /// from a linkage recurrence, `0.0` to disable pruning).
    pub fn nearest(
        &self,
        qlo: &[f64],
        qhi: &[f64],
        deflate: f64,
        exclude: usize,
        stats: &mut SearchStats,
        value: &mut dyn FnMut(usize) -> f64,
    ) -> Option<(usize, f64)> {
        if self.nodes.is_empty() || self.live() == 0 {
            return None;
        }
        let mut best = (f64::INFINITY, NONE);
        self.nearest_in(0, qlo, qhi, deflate, exclude, stats, value, &mut best);
        (best.1 != NONE).then_some((best.1 as usize, best.0))
    }

    #[allow(clippy::too_many_arguments)]
    fn nearest_in(
        &self,
        node_id: u32,
        qlo: &[f64],
        qhi: &[f64],
        deflate: f64,
        exclude: usize,
        stats: &mut SearchStats,
        value: &mut dyn FnMut(usize) -> f64,
        best: &mut (f64, u32),
    ) {
        stats.nodes_visited += 1;
        let node = &self.nodes[node_id as usize];
        if node.left == NONE {
            for &p in &self.order[node.start as usize..node.end as usize] {
                if p as usize == exclude || !self.active[p as usize] {
                    continue;
                }
                let v = value(p as usize);
                if v < best.0 || (v == best.0 && p < best.1) {
                    *best = (v, p);
                }
            }
            return;
        }
        // Visit the nearer child first so `best` tightens before the
        // other side's prune test; result is order-independent because
        // the selection minimises (value, index) over all survivors.
        let children = [node.left, node.right];
        let bounds = children.map(|c| {
            let child = &self.nodes[c as usize];
            sq_box_gap(qlo, qhi, &child.lo, &child.hi).sqrt() * deflate
        });
        let nearer = usize::from(bounds[1] < bounds[0]);
        for side in [nearer, 1 - nearer] {
            let child = children[side];
            if self.live[child as usize] == 0 {
                continue;
            }
            if bounds[side] > best.0 {
                stats.pruned_subtrees += 1;
                continue;
            }
            self.nearest_in(child, qlo, qhi, deflate, exclude, stats, value, best);
        }
    }

    /// The `k` nearest active points to query point `q` (excluding
    /// `exclude`), pruned through the tree and evaluated with the
    /// batched 6-dim kernel where the dimension allows — bit-identical
    /// to [`crate::source::top_k_nearest`] over the same points.
    /// Returns `(index, distance)` ascending by `(distance, index)`.
    pub fn top_k(
        &self,
        q: &[f64],
        k: usize,
        exclude: usize,
        stats: &mut SearchStats,
    ) -> Vec<(usize, f64)> {
        let mut top = TopK::new(k);
        self.top_k_into(q, exclude, stats, &mut top);
        top.into_sorted()
    }

    /// [`SpatialIndex::top_k`] into a caller-owned accumulator (reset
    /// beforehand with [`TopK::reset`]); lets batch servers reuse
    /// scratch buffers across queries. The accumulator's retention
    /// bound is its `k`.
    pub fn top_k_into(&self, q: &[f64], exclude: usize, stats: &mut SearchStats, top: &mut TopK) {
        if top.capacity() == 0 || self.nodes.is_empty() || self.live() == 0 {
            return;
        }
        self.top_k_in(0, q, exclude, stats, top);
    }

    fn top_k_in(
        &self,
        node_id: u32,
        q: &[f64],
        exclude: usize,
        stats: &mut SearchStats,
        top: &mut TopK,
    ) {
        stats.nodes_visited += 1;
        let node = &self.nodes[node_id as usize];
        if node.left == NONE {
            self.scan_bucket(node, q, exclude, top);
            return;
        }
        let children = [node.left, node.right];
        let bounds = children.map(|c| {
            let child = &self.nodes[c as usize];
            sq_box_gap(q, q, &child.lo, &child.hi).sqrt()
        });
        let nearer = usize::from(bounds[1] < bounds[0]);
        for side in [nearer, 1 - nearer] {
            let child = children[side];
            if self.live[child as usize] == 0 {
                continue;
            }
            if let Some((worst, _)) = top.worst() {
                if bounds[side] > worst {
                    stats.pruned_subtrees += 1;
                    continue;
                }
            }
            self.top_k_in(child, q, exclude, stats, top);
        }
    }

    /// Evaluates one leaf bucket against a point query, offering every
    /// active candidate to the accumulator. Uses the transposed-lane
    /// batched kernel for 6-dim points; each lane reproduces the
    /// sequential scalar sum bit-for-bit.
    fn scan_bucket(&self, node: &Node, q: &[f64], exclude: usize, top: &mut TopK) {
        let (start, end) = (node.start as usize, node.end as usize);
        let bucket = &self.order[start..end];
        let width = end - start;
        if self.dim == 6 && width > 0 {
            let q6: &[f64; 6] = q.try_into().expect("6-dim query");
            let lanes = &self.coords[start * 6..end * 6];
            let mut offset = 0;
            while offset < width {
                let take = (width - offset).min(BATCH6);
                let sq = sq_euclidean6_batch(q6, lanes, width, offset, take);
                for (lane, &sqd) in sq.iter().enumerate().take(take) {
                    let p = bucket[offset + lane];
                    if p as usize == exclude || !self.active[p as usize] {
                        continue;
                    }
                    top.offer(p as usize, sqd.sqrt());
                }
                offset += take;
            }
            return;
        }
        for &p in bucket {
            if p as usize == exclude || !self.active[p as usize] {
                continue;
            }
            let d = sq_euclidean(q, self.row_of(p as usize)).sqrt();
            top.offer(p as usize, d);
        }
    }

    /// A point's coordinates (untransposed copy kept for the generic
    /// non-6-dim query path; 6 × 8 bytes per point, negligible next to
    /// the tree itself).
    fn row_of(&self, p: usize) -> &[f64] {
        &self.flat[p * self.dim..(p + 1) * self.dim]
    }
}

/// Lower bound on the squared distance between any point of box
/// `[qlo, qhi]` and any point of box `[blo, bhi]`, computed with the
/// exact lane structure of the scalar kernel so that every
/// intermediate is ≤ the kernel's intermediate for any realised pair
/// (IEEE-754 rounding is monotone; see the module docs).
fn sq_box_gap(qlo: &[f64], qhi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    let dim = qlo.len();
    let gap = |d: usize| -> f64 {
        let c = (blo[d] - qhi[d]).max(qlo[d] - bhi[d]).max(0.0);
        c * c
    };
    let m = dim - dim % 8;
    let mut lanes = [0.0f64; 8];
    let mut k = 0;
    while k < m {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += gap(k + l);
        }
        k += 8;
    }
    let mut tail = 0.0f64;
    while k < dim {
        tail += gap(k);
        k += 1;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// The indexed matrix-free distance source: leaf distances on demand
/// through the kernel, Lance–Williams rows (`LwRows`) stored only
/// for merged clusters, and nearest-neighbour queries answered through
/// the [`SpatialIndex`] instead of a linear scan. Bit-identical
/// dendrograms to the materialised matrix; orders of magnitude fewer
/// scan evaluations.
#[derive(Debug)]
pub struct IndexedMetric<'a> {
    points: &'a [Vec<f64>],
    rows: LwRows,
    tree: SpatialIndex,
    /// Active merged slots, ascending. These are scanned linearly per
    /// query (they are few — live Lance–Williams rows) with their own
    /// box pre-check when the linkage allows it.
    merged: Vec<usize>,
    /// Bounding box per merged slot (`lo ++ hi`, `2·dim` values).
    boxes: Vec<Option<Box<[f64]>>>,
    /// Whether merged-cluster values provably dominate the box gap
    /// (true for single/complete/average; false for Ward, whose
    /// recurrence subtracts and can cancel below any a-priori bound).
    merged_prunable: bool,
    evaluations: u64,
    stats: SearchStats,
}

impl<'a> IndexedMetric<'a> {
    /// Builds the index over the point set. `linkage` gates whether
    /// queries from merged clusters may prune (see module docs).
    pub fn new(points: &'a [Vec<f64>], linkage: Linkage) -> IndexedMetric<'a> {
        let n = points.len();
        IndexedMetric {
            points,
            rows: LwRows::new(n),
            tree: SpatialIndex::build(points),
            merged: Vec::new(),
            boxes: vec![None; n],
            merged_prunable: !matches!(linkage, Linkage::Ward),
            evaluations: 0,
            stats: SearchStats::default(),
        }
    }

    /// Leaf-distance evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Query-side work counters accumulated so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Lance–Williams rows currently allocated (live merged clusters).
    pub fn live_rows(&self) -> usize {
        self.rows.live()
    }
}

impl DistanceSource for IndexedMetric<'_> {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn get(&mut self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        if let Some(v) = self.rows.read(i, j) {
            return v;
        }
        self.evaluations += 1;
        sq_euclidean(&self.points[i], &self.points[j]).sqrt()
    }

    fn set(&mut self, i: usize, j: usize, v: f64) {
        self.rows.set(i, j, v);
    }

    fn retire(&mut self, slot: usize) {
        self.rows.retire(slot);
        if self.boxes[slot].take().is_some() {
            if let Ok(at) = self.merged.binary_search(&slot) {
                self.merged.remove(at);
            }
        } else {
            self.tree.deactivate(slot);
        }
    }

    fn promote(&mut self, survivor: usize, absorbed: usize) {
        let dim = self.points.first().map_or(0, Vec::len);
        let mut joined = match self.boxes[survivor].take() {
            Some(b) => b,
            None => {
                // A leaf becomes an internal cluster: leave the tree,
                // seed the box from the point.
                self.tree.deactivate(survivor);
                if let Err(at) = self.merged.binary_search(&survivor) {
                    self.merged.insert(at, survivor);
                }
                let row = &self.points[survivor];
                let mut b = vec![0.0; 2 * dim].into_boxed_slice();
                b[..dim].copy_from_slice(row);
                b[dim..].copy_from_slice(row);
                b
            }
        };
        match &self.boxes[absorbed] {
            Some(other) => {
                for d in 0..dim {
                    joined[d] = joined[d].min(other[d]);
                    joined[dim + d] = joined[dim + d].max(other[dim + d]);
                }
            }
            None => {
                for (d, &c) in self.points[absorbed].iter().enumerate() {
                    joined[d] = joined[d].min(c);
                    joined[dim + d] = joined[dim + d].max(c);
                }
            }
        }
        self.boxes[survivor] = Some(joined);
    }

    fn nearest_active(
        &mut self,
        top: usize,
        active: &[bool],
        prev: Option<usize>,
    ) -> Option<(usize, f64)> {
        let dim = self.points.first().map_or(0, Vec::len);
        let IndexedMetric {
            points,
            rows,
            tree,
            merged,
            boxes,
            merged_prunable,
            evaluations,
            stats,
        } = self;
        let top_box = boxes[top].as_deref();
        let (qlo, qhi, deflate) = match top_box {
            Some(b) => (
                &b[..dim],
                &b[dim..],
                if *merged_prunable {
                    MERGED_DEFLATE
                } else {
                    0.0
                },
            ),
            None => (&points[top][..], &points[top][..], 1.0),
        };
        // Leaf candidates, pruned through the tree. Values: kernel
        // evaluations from a leaf query; Lance–Williams row reads from
        // a merged query (the row covers every active slot).
        let mut leaf_value = |k: usize| -> f64 {
            if top_box.is_some() {
                rows.read(top, k)
                    .expect("merged cluster has a row entry for every active slot")
            } else {
                *evaluations += 1;
                sq_euclidean(&points[top], &points[k]).sqrt()
            }
        };
        let mut best = tree
            .nearest(qlo, qhi, deflate, top, stats, &mut leaf_value)
            .map_or((f64::INFINITY, usize::MAX), |(k, v)| (v, k));
        // Merged candidates: a short ascending scan over live
        // Lance–Williams rows, with the same box pre-check when the
        // linkage admits one.
        for &k in merged.iter() {
            if k == top {
                continue;
            }
            debug_assert!(active[k], "merged list only holds active slots");
            if *merged_prunable {
                if let Some(b) = boxes[k].as_deref() {
                    let lb = sq_box_gap(qlo, qhi, &b[..dim], &b[dim..]).sqrt() * MERGED_DEFLATE;
                    if lb > best.0 {
                        stats.pruned_subtrees += 1;
                        continue;
                    }
                }
            }
            let v = rows
                .read(top, k)
                .expect("merged cluster has a row entry for every active slot");
            if v < best.0 || (v == best.0 && k < best.1) {
                best = (v, k);
            }
        }
        if best.1 == usize::MAX {
            return None;
        }
        // The linear scan prefers the previous chain element on exact
        // ties; reproduce that with one direct comparison.
        if let Some(p) = prev {
            let vp = match rows.read(top, p) {
                Some(v) => v,
                None => {
                    *evaluations += 1;
                    sq_euclidean(&points[top], &points[p]).sqrt()
                }
            };
            if vp == best.0 {
                return Some((p, vp));
            }
        }
        Some((best.1, best.0))
    }
}

impl Drop for IndexedMetric<'_> {
    fn drop(&mut self) {
        if self.evaluations > 0 {
            INDEX_LEAF_EVALS.add(self.evaluations);
        }
        if self.stats.nodes_visited > 0 {
            INDEX_NODES_VISITED.add(self.stats.nodes_visited);
        }
        if self.stats.pruned_subtrees > 0 {
            INDEX_PRUNED.add(self.stats.pruned_subtrees);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean;
    use crate::source::top_k_nearest;

    fn mixture(n: usize, blobs: usize, dim: usize) -> Vec<Vec<f64>> {
        let mut s = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| {
                        let c = (((i % blobs) * dim + d) as f64 * 0.77).sin() * 8.0;
                        c + (rng() - 0.5) * 2.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn top_k_matches_brute_force_bit_for_bit() {
        let points = mixture(137, 7, 6);
        let tree = SpatialIndex::build(&points[..]);
        let mut stats = SearchStats::default();
        for q in 0..points.len() {
            for k in [1, 3, 8, 137, 200] {
                let fast = tree.top_k(&points[q], k, q, &mut stats);
                let brute = top_k_nearest(&points[..], q, k);
                assert_eq!(fast.len(), brute.len(), "q={q} k={k}");
                for (a, b) in fast.iter().zip(&brute) {
                    assert_eq!(a.0, b.0, "q={q} k={k}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "q={q} k={k}");
                }
            }
        }
        assert!(stats.pruned_subtrees > 0, "no pruning on clustered data");
    }

    #[test]
    fn nearest_matches_a_linear_scan_with_deactivation() {
        let points = mixture(90, 5, 6);
        let mut tree = SpatialIndex::build(&points[..]);
        let mut dead = vec![false; points.len()];
        // Deactivate a deterministic third of the points.
        for i in (0..points.len()).step_by(3) {
            tree.deactivate(i);
            dead[i] = true;
        }
        let mut stats = SearchStats::default();
        for (q, point) in points.iter().enumerate() {
            let mut value = |k: usize| euclidean(point, &points[k]);
            let got = tree.nearest(point, point, 1.0, q, &mut stats, &mut value);
            let mut best = (f64::INFINITY, usize::MAX);
            for (k, &gone) in dead.iter().enumerate() {
                if k == q || gone {
                    continue;
                }
                let d = euclidean(point, &points[k]);
                if d < best.0 {
                    best = (d, k);
                }
            }
            let (k, v) = got.expect("live candidates remain");
            assert_eq!(k, best.1, "q={q}");
            assert_eq!(v.to_bits(), best.0.to_bits(), "q={q}");
        }
    }

    #[test]
    fn duplicate_points_tie_to_the_lowest_index() {
        // Five coincident points plus one far away: nearest of any
        // coincident point must be the lowest-indexed other duplicate.
        let mut points = vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; 5];
        points.push(vec![50.0; 6]);
        let tree = SpatialIndex::build(&points[..]);
        let mut stats = SearchStats::default();
        for (q, point) in points.iter().enumerate().take(5) {
            let mut value = |k: usize| euclidean(point, &points[k]);
            let (k, v) = tree
                .nearest(point, point, 1.0, q, &mut stats, &mut value)
                .unwrap();
            assert_eq!(k, usize::from(q == 0), "q={q}");
            assert_eq!(v, 0.0);
        }
        let top = tree.top_k(&points[0], 3, 0, &mut stats);
        assert_eq!(
            top.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn empty_and_singleton_trees_answer_gracefully() {
        let none: Vec<Vec<f64>> = Vec::new();
        let tree = SpatialIndex::build(&none[..]);
        let mut stats = SearchStats::default();
        assert!(tree
            .nearest(&[], &[], 1.0, 0, &mut stats, &mut |_| 0.0)
            .is_none());
        assert!(tree.top_k(&[], 3, 0, &mut stats).is_empty());

        let one = [vec![1.0; 6]];
        let tree = SpatialIndex::build(&one[..]);
        assert!(tree.top_k(&one[0], 3, 0, &mut stats).is_empty());
    }

    #[test]
    fn box_gap_never_exceeds_the_kernel() {
        // The exactness core: for random boxes and points inside them,
        // the computed bound must be ≤ the computed kernel distance.
        let points = mixture(64, 3, 6);
        let tree = SpatialIndex::build(&points[..]);
        for node in &tree.nodes {
            for &p in &tree.order[node.start as usize..node.end as usize] {
                for q in 0..points.len() {
                    let lb = sq_box_gap(&points[q], &points[q], &node.lo, &node.hi);
                    let d = sq_euclidean(&points[q], &points[p as usize]);
                    assert!(
                        lb.sqrt() <= d.sqrt(),
                        "bound {lb} exceeds kernel {d} (q={q}, p={p})"
                    );
                }
            }
        }
    }
}
