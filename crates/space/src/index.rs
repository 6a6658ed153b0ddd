//! Nearest-neighbour building blocks over the TypeSpace (L1 metric).
//!
//! The paper uses Annoy for sub-linear kNN queries. This module holds
//! the pieces the sharded on-disk index ([`crate::SpaceIndex`]) is made
//! of — the Annoy-style random-projection tree builder, the
//! priority-search [`QueryScratch`] and the bounded top-k kernel — plus
//! [`ExactIndex`], the brute-force reference used in tests and
//! benchmarks. The in-memory `RpForest` that the on-disk index is
//! defined against is a test-only oracle.
//!
//! Points live in a [`PointStore`]: one contiguous row-major `Vec<f32>`
//! rather than a `Vec<Vec<f32>>`, so the distance kernel streams
//! cache-friendly memory instead of chasing a pointer per point. Top-k
//! selection keeps a bounded max-heap of the current best `k` hits
//! (`O(n log k)` instead of a full `O(n log n)` sort), and the L1 kernel
//! early-exits as soon as a partial sum proves a point cannot beat the
//! current k-th best distance.
//!
//! Serving is allocation-free at steady state: every index exposes
//! `query_into(&self, q, k, scratch, out)` writing into a reusable
//! [`QueryScratch`] (frontier heap, visited stamps, candidate list,
//! top-k heap) — the allocating `query` wrappers remain for tests and
//! one-off callers. The priority-search frontier is ordered by
//! `(margin, insertion sequence)`, a total order independent of how
//! tree nodes are addressed, so the in-memory oracle forest and the
//! zero-copy on-disk view visit candidates in exactly the same order.

use crate::error::SpaceError;
pub use crate::kernel::{l1, l1_pruned, l1_pruned_reference, l1_reference};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Contiguous row-major point storage.
///
/// All coordinates live in a single allocation; row `i` occupies
/// `[i * dim, (i + 1) * dim)`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PointStore {
    data: Vec<f32>,
    dim: usize,
    len: usize,
}

impl PointStore {
    /// Creates an empty store for `dim`-wide points.
    pub fn new(dim: usize) -> PointStore {
        PointStore {
            data: Vec::new(),
            dim,
            len: 0,
        }
    }

    /// Packs nested rows into contiguous storage.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing widths.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> PointStore {
        let dim = rows.first().map(Vec::len).unwrap_or(0);
        let mut store = PointStore {
            data: Vec::with_capacity(rows.len() * dim),
            dim,
            len: 0,
        };
        for row in &rows {
            store.push(row);
        }
        store
    }

    /// Appends one point, validating its width: a mismatched row would
    /// otherwise shear every later row's `[i * dim, (i + 1) * dim)`
    /// slice and silently corrupt the contiguous buffer.
    ///
    /// # Errors
    ///
    /// [`SpaceError::DimensionMismatch`] if `row`'s width differs from
    /// the store's dimension; the store is left unchanged.
    pub fn try_push(&mut self, row: &[f32]) -> Result<(), SpaceError> {
        if row.len() != self.dim {
            return Err(SpaceError::DimensionMismatch {
                expected: self.dim,
                found: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        self.len += 1;
        Ok(())
    }

    /// Appends one point.
    ///
    /// # Panics
    ///
    /// Panics if `row`'s width differs from the store's dimension
    /// (infallible version of [`PointStore::try_push`]).
    pub fn push(&mut self, row: &[f32]) {
        if let Err(e) = self.try_push(row) {
            panic!("{e}");
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One point as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over the points in order.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// The whole contiguous coordinate buffer (the on-disk writer
    /// copies it out verbatim).
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }
}

/// A `(point index, distance)` search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Index of the point in the indexed collection.
    pub index: usize,
    /// L1 distance to the query.
    pub distance: f32,
}

/// Heap entry ordered worst-first: greater distance, then greater index,
/// so the max-heap's top is the hit that drops out next and ties keep
/// the lowest index (matching a `(distance, index)` sort).
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct Worst(pub(crate) f32, pub(crate) usize);

impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl std::fmt::Debug for Worst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Worst({}, {})", self.0, self.1)
    }
}

/// Row access shared by the top-k kernel: implemented by the owned
/// [`PointStore`] and by the zero-copy on-disk point block.
pub(crate) trait PointSource {
    /// Point `i` as a slice.
    fn row(&self, i: usize) -> &[f32];
}

impl PointSource for PointStore {
    fn row(&self, i: usize) -> &[f32] {
        PointStore::row(self, i)
    }
}

/// Borrowed row-major points (the on-disk point block).
pub(crate) struct SliceRows<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) dim: usize,
}

impl PointSource for SliceRows<'_> {
    fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

// --- manual binary heaps over reusable Vec storage -----------------------
//
// `std::collections::BinaryHeap` owns its buffer, so a per-query heap
// means a per-query allocation. These sift helpers run the same
// algorithm over caller-owned Vecs that live in `QueryScratch`.

fn worst_sift_up(heap: &mut [Worst], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[i] <= heap[parent] {
            break;
        }
        heap.swap(i, parent);
        i = parent;
    }
}

fn worst_sift_down(heap: &mut [Worst], mut i: usize) {
    loop {
        let mut largest = i;
        let l = 2 * i + 1;
        let r = l + 1;
        if l < heap.len() && heap[l] > heap[largest] {
            largest = l;
        }
        if r < heap.len() && heap[r] > heap[largest] {
            largest = r;
        }
        if largest == i {
            break;
        }
        heap.swap(i, largest);
        i = largest;
    }
}

/// Priority-search frontier entry: `(margin, insertion sequence,
/// node address)`. The sequence number makes the order total and
/// representation-independent — two traversals that push the same
/// logical nodes in the same order pop them in the same order, whether
/// a node is addressed as an in-memory index or an on-disk offset.
#[derive(Debug, Clone, Copy)]
struct FrontierEntry {
    margin: f32,
    seq: u32,
    payload: u64,
}

#[inline]
fn frontier_less(a: &FrontierEntry, b: &FrontierEntry) -> bool {
    a.margin
        .total_cmp(&b.margin)
        .then(a.seq.cmp(&b.seq))
        .is_lt()
}

/// Reusable buffers for the serve-critical query path: the priority
/// frontier, the visited-point stamp set, the candidate list, and the
/// bounded top-k heap. One scratch per thread makes `query_into`
/// allocation-free at steady state; `begin` resets it in O(1) (the
/// stamp set uses an epoch counter instead of clearing).
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    pub(crate) heap: Vec<Worst>,
    pub(crate) candidates: Vec<u32>,
    stamps: Vec<u32>,
    epoch: u32,
    frontier: Vec<FrontierEntry>,
    seq: u32,
    pub(crate) aux: Vec<Hit>,
}

impl QueryScratch {
    /// Creates an empty scratch; buffers grow to steady-state sizes on
    /// first use.
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// Starts a query over `points` points: clears per-query state and
    /// advances the visited epoch.
    pub(crate) fn begin(&mut self, points: usize) {
        self.candidates.clear();
        self.frontier.clear();
        self.seq = 0;
        if self.stamps.len() < points {
            self.stamps.resize(points, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks point `p` visited; `true` when it had not been seen in
    /// this query yet.
    pub(crate) fn mark_new(&mut self, p: usize) -> bool {
        if self.stamps[p] == self.epoch {
            false
        } else {
            self.stamps[p] = self.epoch;
            true
        }
    }

    /// Pushes a node onto the priority frontier.
    pub(crate) fn frontier_push(&mut self, margin: f32, payload: u64) {
        self.frontier.push(FrontierEntry {
            margin,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
        let mut i = self.frontier.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if !frontier_less(&self.frontier[i], &self.frontier[parent]) {
                break;
            }
            self.frontier.swap(i, parent);
            i = parent;
        }
    }

    /// Pops the frontier node with the smallest `(margin, seq)`.
    pub(crate) fn frontier_pop(&mut self) -> Option<u64> {
        if self.frontier.is_empty() {
            return None;
        }
        let top = self.frontier.swap_remove(0);
        let mut i = 0;
        loop {
            let mut smallest = i;
            let l = 2 * i + 1;
            let r = l + 1;
            if l < self.frontier.len() && frontier_less(&self.frontier[l], &self.frontier[smallest])
            {
                smallest = l;
            }
            if r < self.frontier.len() && frontier_less(&self.frontier[r], &self.frontier[smallest])
            {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.frontier.swap(i, smallest);
            i = smallest;
        }
        Some(top.payload)
    }
}

/// The `k` candidates nearest to `query`, in ascending `(distance,
/// index)` order, written into `out`. A bounded max-heap (caller-owned
/// `heap` storage, cleared here) carries the best `k` seen so far; its
/// worst distance prunes every later [`l1_pruned`] scan.
pub(crate) fn top_k_into<P: PointSource + ?Sized>(
    points: &P,
    candidates: impl Iterator<Item = usize>,
    query: &[f32],
    k: usize,
    heap: &mut Vec<Worst>,
    out: &mut Vec<Hit>,
) {
    out.clear();
    heap.clear();
    if k == 0 {
        return;
    }
    for i in candidates {
        let bound = if heap.len() == k {
            heap[0].0
        } else {
            f32::INFINITY
        };
        let d = l1_pruned(query, points.row(i), bound);
        let cand = Worst(d, i);
        if heap.len() < k {
            heap.push(cand);
            let last = heap.len() - 1;
            worst_sift_up(heap, last);
        } else if cand < heap[0] {
            heap[0] = cand;
            worst_sift_down(heap, 0);
        }
    }
    out.extend(
        heap.iter()
            .map(|&Worst(distance, index)| Hit { index, distance }),
    );
    out.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then(a.index.cmp(&b.index))
    });
}

/// Allocating convenience wrapper over [`top_k_into`].
pub(crate) fn top_k(
    store: &PointStore,
    candidates: impl Iterator<Item = usize>,
    query: &[f32],
    k: usize,
) -> Vec<Hit> {
    let mut heap = Vec::new();
    let mut out = Vec::new();
    top_k_into(store, candidates, query, k, &mut heap, &mut out);
    out
}

/// Brute-force exact kNN.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExactIndex {
    points: PointStore,
}

impl ExactIndex {
    /// Creates an index over `points`.
    pub fn new(points: Vec<Vec<f32>>) -> ExactIndex {
        ExactIndex {
            points: PointStore::from_rows(points),
        }
    }

    /// Creates an index over already-contiguous points.
    pub fn from_store(points: PointStore) -> ExactIndex {
        ExactIndex { points }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The `k` nearest points to `query` in ascending distance.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<Hit> {
        top_k(&self.points, 0..self.points.len(), query, k)
    }

    /// Allocation-free [`ExactIndex::query`]: identical hits written
    /// into `out`, reusing `scratch`'s buffers.
    pub fn query_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Hit>,
    ) {
        top_k_into(
            &self.points,
            0..self.points.len(),
            query,
            k,
            &mut scratch.heap,
            out,
        );
    }
}

/// Construction and search options for the random-projection trees of
/// the sharded index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RpForestConfig {
    /// Number of trees; more trees, better recall.
    pub trees: usize,
    /// Maximum points per leaf.
    pub leaf_size: usize,
    /// Number of candidate points examined per query (`search_k`); more
    /// candidates, better recall.
    pub search_k: usize,
}

impl Default for RpForestConfig {
    fn default() -> Self {
        RpForestConfig {
            trees: 12,
            leaf_size: 16,
            search_k: 384,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum TreeNode {
    Leaf {
        points: Vec<usize>,
    },
    Split {
        /// Random projection direction.
        direction: Vec<f32>,
        /// Split threshold on the projection.
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// Builds random-projection trees over a borrowed [`PointStore`],
/// accumulating nodes into one arena. Children are pushed before their
/// parent, so node `i`'s subtree lives entirely in `nodes[..=i]` — the
/// on-disk writer relies on this to emit blocks in a single pass.
pub(crate) struct TreeBuilder<'a> {
    points: &'a PointStore,
    config: RpForestConfig,
    pub(crate) nodes: Vec<TreeNode>,
    pub(crate) roots: Vec<usize>,
}

impl<'a> TreeBuilder<'a> {
    pub(crate) fn new(points: &'a PointStore, config: RpForestConfig) -> TreeBuilder<'a> {
        TreeBuilder {
            points,
            config,
            nodes: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// Builds `trees` trees from one RNG stream seeded with `seed`.
    pub(crate) fn build_trees(&mut self, trees: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let all: Vec<usize> = (0..self.points.len()).collect();
        for _ in 0..trees {
            let root = self.build_node(&all, &mut rng, 0);
            self.roots.push(root);
        }
    }

    fn build_node(&mut self, points: &[usize], rng: &mut StdRng, depth: usize) -> usize {
        if points.len() <= self.config.leaf_size || depth > 24 {
            self.nodes.push(TreeNode::Leaf {
                points: points.to_vec(),
            });
            return self.nodes.len() - 1;
        }
        // Annoy-style split: the hyperplane between two random points of
        // the subset, which adapts to the data's local geometry. Falls
        // back to a random ±1 direction when the two points coincide.
        let dim = self.points.dim();
        let a = points[rng.gen_range(0..points.len())];
        let b = points[rng.gen_range(0..points.len())];
        let mut direction: Vec<f32> = self
            .points
            .row(a)
            .iter()
            .zip(self.points.row(b))
            .map(|(x, y)| x - y)
            .collect();
        if direction.iter().all(|&d| d == 0.0) {
            direction = (0..dim)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
        }
        let mut projections: Vec<f32> = points
            .iter()
            .map(|&i| dot(self.points.row(i), &direction))
            .collect();
        let mut sorted = projections.clone();
        sorted.sort_by(f32::total_cmp);
        let threshold = sorted[sorted.len() / 2];
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (&idx, &proj) in points.iter().zip(&projections) {
            if proj < threshold {
                left.push(idx);
            } else {
                right.push(idx);
            }
        }
        // Degenerate split (all projections equal): make a leaf.
        if left.is_empty() || right.is_empty() {
            self.nodes.push(TreeNode::Leaf {
                points: points.to_vec(),
            });
            return self.nodes.len() - 1;
        }
        projections.clear();
        let l = self.build_node(&left, rng, depth + 1);
        let r = self.build_node(&right, rng, depth + 1);
        self.nodes.push(TreeNode::Split {
            direction,
            threshold,
            left: l,
            right: r,
        });
        self.nodes.len() - 1
    }
}

/// An Annoy-style forest of random-projection trees under L1, held in
/// memory: the test oracle the zero-copy on-disk index must reproduce.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct RpForest {
    points: PointStore,
    nodes: Vec<TreeNode>,
    roots: Vec<usize>,
    config: RpForestConfig,
}

#[cfg(test)]
impl RpForest {
    /// Builds the forest over `points`.
    pub fn build(points: Vec<Vec<f32>>, config: RpForestConfig, seed: u64) -> RpForest {
        let points = PointStore::from_rows(points);
        let mut builder = TreeBuilder::new(&points, config);
        builder.build_trees(config.trees, seed);
        let TreeBuilder { nodes, roots, .. } = builder;
        RpForest {
            points,
            nodes,
            roots,
            config,
        }
    }

    /// Assembles a forest from pre-built parts (the sharded builder's
    /// merged tree sets).
    pub(crate) fn from_parts(
        points: PointStore,
        nodes: Vec<TreeNode>,
        roots: Vec<usize>,
        config: RpForestConfig,
    ) -> RpForest {
        RpForest {
            points,
            nodes,
            roots,
            config,
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The approximate `k` nearest points in ascending distance.
    ///
    /// Performs a priority search across all trees, examining at least
    /// `search_k` candidate points, then ranks candidates by true L1.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.query_into(query, k, &mut scratch, &mut out);
        out
    }

    /// Allocation-free [`RpForest::query`]: identical hits written into
    /// `out`, reusing `scratch`'s buffers.
    pub fn query_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Hit>,
    ) {
        out.clear();
        if self.points.is_empty() {
            return;
        }
        scratch.begin(self.points.len());
        for &root in &self.roots {
            scratch.frontier_push(0.0, root as u64);
        }
        while let Some(payload) = scratch.frontier_pop() {
            match &self.nodes[payload as usize] {
                TreeNode::Leaf { points } => {
                    for &p in points {
                        if scratch.mark_new(p) {
                            scratch.candidates.push(p as u32);
                        }
                    }
                    if scratch.candidates.len() >= self.config.search_k {
                        break;
                    }
                }
                TreeNode::Split {
                    direction,
                    threshold,
                    left,
                    right,
                } => {
                    let margin = dot(query, direction) - *threshold;
                    let (near, far) = if margin < 0.0 {
                        (*left, *right)
                    } else {
                        (*right, *left)
                    };
                    scratch.frontier_push(0.0, near as u64);
                    scratch.frontier_push(margin.abs(), far as u64);
                }
            }
        }
        let QueryScratch {
            heap, candidates, ..
        } = scratch;
        top_k_into(
            &self.points,
            candidates.iter().map(|&c| c as usize),
            query,
            k,
            heap,
            out,
        );
    }
}

pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    /// The old full-sort selection, kept as the reference the pruned
    /// heap-based kernel must reproduce exactly.
    fn naive_query(points: &[Vec<f32>], query: &[f32], k: usize) -> Vec<Hit> {
        let mut hits: Vec<Hit> = points
            .iter()
            .enumerate()
            .map(|(i, p)| Hit {
                index: i,
                distance: l1(query, p),
            })
            .collect();
        hits.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then(a.index.cmp(&b.index))
        });
        hits.truncate(k);
        hits
    }

    #[test]
    fn exact_index_orders_by_distance() {
        let points = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.1, 0.0]];
        let idx = ExactIndex::new(points);
        let hits = idx.query(&[0.0, 0.0], 2);
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 2);
        assert!((hits[1].distance - 0.1).abs() < 1e-6);
    }

    #[test]
    fn pruned_query_matches_naive_reference() {
        let points = random_points(400, 19, 11);
        let idx = ExactIndex::new(points.clone());
        let mut rng = StdRng::seed_from_u64(13);
        for k in [1, 3, 10, 400, 500] {
            for _ in 0..10 {
                let q: Vec<f32> = (0..19).map(|_| rng.gen_range(-1.0..1.0)).collect();
                assert_eq!(idx.query(&q, k), naive_query(&points, &q, k));
            }
        }
    }

    #[test]
    fn pruned_query_breaks_ties_by_index() {
        // Duplicate points at several distances force ties everywhere.
        let mut points = Vec::new();
        for _ in 0..4 {
            points.push(vec![1.0, 0.0]);
            points.push(vec![0.0, 0.0]);
            points.push(vec![2.0, 2.0]);
        }
        let idx = ExactIndex::new(points.clone());
        for k in 1..=points.len() {
            assert_eq!(
                idx.query(&[0.0, 0.0], k),
                naive_query(&points, &[0.0, 0.0], k)
            );
        }
    }

    #[test]
    fn l1_pruned_is_exact_within_bound() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32) * 0.17 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.71).cos()).collect();
        let exact = l1(&a, &b);
        assert_eq!(l1_pruned(&a, &b, f32::INFINITY).to_bits(), exact.to_bits());
        assert_eq!(l1_pruned(&a, &b, exact).to_bits(), exact.to_bits());
        // Below the true distance the partial sum must still exceed the bound.
        assert!(l1_pruned(&a, &b, exact * 0.5) > exact * 0.5);
    }

    #[test]
    fn point_store_round_trips_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let store = PointStore::from_rows(rows.clone());
        assert_eq!(store.len(), 3);
        assert_eq!(store.dim(), 2);
        assert_eq!(store.row(1), &[3.0, 4.0]);
        let back: Vec<Vec<f32>> = store.rows().map(<[f32]>::to_vec).collect();
        assert_eq!(back, rows);
        let mut grown = PointStore::new(2);
        grown.push(&[7.0, 8.0]);
        assert_eq!(grown.len(), 1);
        assert_eq!(grown.row(0), &[7.0, 8.0]);
    }

    #[test]
    fn try_push_rejects_width_mismatch_without_corrupting() {
        let mut store = PointStore::new(3);
        store.push(&[1.0, 2.0, 3.0]);
        let err = store.try_push(&[4.0, 5.0]).unwrap_err();
        assert_eq!(
            err,
            SpaceError::DimensionMismatch {
                expected: 3,
                found: 2
            }
        );
        // The failed push left the buffer untouched.
        assert_eq!(store.len(), 1);
        assert_eq!(store.row(0), &[1.0, 2.0, 3.0]);
        store.try_push(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(store.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn query_into_matches_query_and_reuses_buffers() {
        let points = random_points(300, 9, 21);
        let exact = ExactIndex::new(points.clone());
        let forest = RpForest::build(points, RpForestConfig::default(), 5);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let q: Vec<f32> = (0..9).map(|_| rng.gen_range(-1.0..1.0)).collect();
            exact.query_into(&q, 7, &mut scratch, &mut out);
            assert_eq!(out, exact.query(&q, 7));
            forest.query_into(&q, 7, &mut scratch, &mut out);
            assert_eq!(out, forest.query(&q, 7));
        }
    }

    #[test]
    fn forest_exact_recall_on_small_data() {
        // With search_k >= n the forest must return exact results.
        let points = random_points(200, 8, 1);
        let exact = ExactIndex::new(points.clone());
        let forest = RpForest::build(
            points,
            RpForestConfig {
                trees: 8,
                leaf_size: 8,
                search_k: 200,
            },
            7,
        );
        let query = vec![0.05; 8];
        let e: Vec<usize> = exact.query(&query, 10).iter().map(|h| h.index).collect();
        let f: Vec<usize> = forest.query(&query, 10).iter().map(|h| h.index).collect();
        assert_eq!(e, f);
    }

    #[test]
    fn forest_high_recall_with_partial_search() {
        let points = random_points(2000, 16, 2);
        let exact = ExactIndex::new(points.clone());
        let forest = RpForest::build(points, RpForestConfig::default(), 3);
        let mut rng = StdRng::seed_from_u64(9);
        let mut recall_hits = 0;
        let mut total = 0;
        for _ in 0..20 {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let e: std::collections::HashSet<usize> =
                exact.query(&q, 10).iter().map(|h| h.index).collect();
            let f = forest.query(&q, 10);
            recall_hits += f.iter().filter(|h| e.contains(&h.index)).count();
            total += 10;
        }
        let recall = recall_hits as f32 / total as f32;
        assert!(recall >= 0.8, "recall too low: {recall}");
    }

    #[test]
    fn empty_forest_returns_nothing() {
        let forest = RpForest::build(Vec::new(), RpForestConfig::default(), 0);
        assert!(forest.query(&[0.0], 5).is_empty());
        assert!(forest.is_empty());
    }

    #[test]
    fn identical_points_degenerate_split() {
        let points = vec![vec![1.0, 2.0]; 100];
        let forest = RpForest::build(
            points,
            RpForestConfig {
                trees: 4,
                leaf_size: 4,
                search_k: 10,
            },
            5,
        );
        let hits = forest.query(&[1.0, 2.0], 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn l1_metric() {
        assert_eq!(l1(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
    }
}
