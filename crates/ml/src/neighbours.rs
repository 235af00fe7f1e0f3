//! Bucketed kd-tree neighbour index over the standardized feature space.
//!
//! [`NeighbourIndex`] accelerates the k-nearest-neighbour search of
//! [`crate::IbK`] from a full O(n) scan to an indexed candidate search over
//! squared Euclidean distances, while staying **bit-identical** to the linear
//! scan it replaces:
//!
//! * the result set is the `k` lexicographically smallest `(distance, row)`
//!   pairs — equal distances resolve to the lowest row index, exactly like
//!   the linear scan's insertion order;
//! * per-point distances are accumulated dimension-by-dimension in the same
//!   order and with the same floating-point expressions as the linear scan,
//!   with the same early-abandon rule (abandon only when the partial sum is
//!   *strictly* greater than the current k-th best);
//! * subtrees are pruned only when the minimum possible distance to them is
//!   *strictly* greater than the current k-th best, so an equal-distance
//!   lower-index point can never be pruned away.
//!
//! The tree is built once per fit and extended in place on append; a full
//! rebuild is amortized in when appended points outnumber half of the built
//! structure, keeping the tree balanced under the self-optimizing loop's
//! one-record-at-a-time growth.


/// Points per leaf before a build splits further. Leaves run the same
/// early-abandon scan as the linear search, so small leaves only add tree
/// overhead.
const LEAF_SIZE: usize = 16;

#[derive(Debug, Clone)]
enum Node {
    Split {
        dim: usize,
        value: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        points: Vec<u32>,
    },
}

/// A bucketed kd-tree over externally owned points.
///
/// The index stores only structure (node layout and row indices); the point
/// coordinates live with the fitted model and are passed into every call, so
/// the rows are never duplicated.
#[derive(Debug, Clone)]
pub struct NeighbourIndex {
    nodes: Vec<Node>,
    root: usize,
    /// Number of points the current tree structure was *built* over.
    built_len: usize,
    /// Points appended into leaves since the last build.
    pending: usize,
}

impl NeighbourIndex {
    /// Builds an index over `points` (row `i` gets identity `i`).
    pub fn build(points: &[Vec<f64>]) -> Self {
        let mut idx = NeighbourIndex {
            nodes: Vec::new(),
            root: 0,
            built_len: points.len(),
            pending: 0,
        };
        let mut ids: Vec<u32> = (0..points.len() as u32).collect();
        idx.root = idx.build_node(points, &mut ids);
        idx
    }

    /// Number of points the index currently covers.
    pub fn len(&self) -> usize {
        self.built_len + self.pending
    }

    /// Returns `true` when the index covers no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn build_node(&mut self, points: &[Vec<f64>], ids: &mut [u32]) -> usize {
        if ids.len() <= LEAF_SIZE {
            return self.push_node(Node::Leaf {
                points: ids.to_vec(),
            });
        }
        // Split on the dimension with the largest spread (lowest dimension on
        // ties); all-zero spreads mean every point is identical — keep a leaf.
        let dim_count = points[ids[0] as usize].len();
        let mut best_dim = 0;
        let mut best_spread = 0.0;
        // `d` picks a coordinate of each point, not a point.
        #[allow(clippy::needless_range_loop)]
        for d in 0..dim_count {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &i in ids.iter() {
                let v = points[i as usize][d];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let spread = hi - lo;
            if spread > best_spread {
                best_spread = spread;
                best_dim = d;
            }
        }
        if best_spread == 0.0 {
            return self.push_node(Node::Leaf {
                points: ids.to_vec(),
            });
        }
        // Positional median split on (coordinate, row) keeps both halves
        // non-empty even under heavy duplication: left coords ≤ value and
        // right coords ≥ value by construction, which is all pruning needs.
        ids.sort_by(|&a, &b| {
            let ca = points[a as usize][best_dim];
            let cb = points[b as usize][best_dim];
            ca.partial_cmp(&cb)
                .expect("finite coordinates")
                .then(a.cmp(&b))
        });
        let mid = ids.len() / 2;
        let value = points[ids[mid] as usize][best_dim];
        let slot = self.push_node(Node::Leaf { points: Vec::new() });
        let (left_ids, right_ids) = ids.split_at_mut(mid);
        let left = self.build_node(points, left_ids);
        let right = self.build_node(points, right_ids);
        self.nodes[slot] = Node::Split {
            dim: best_dim,
            value,
            left,
            right,
        };
        slot
    }

    fn push_node(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Appends the points `points[from..]` to the index. `points` must be the
    /// same slice the index was built over plus the new rows at the end.
    ///
    /// New points descend to their owning leaf (ties on the split value go
    /// right, preserving the left ≤ value ≤ right invariant); once appended
    /// points outnumber half the built structure the tree is rebuilt, which
    /// amortizes to O(log n) per append.
    pub fn append(&mut self, points: &[Vec<f64>], from: usize) {
        debug_assert_eq!(from, self.len(), "append must continue the point set");
        for (id, p) in points.iter().enumerate().skip(from) {
            let mut node = self.root;
            loop {
                match &mut self.nodes[node] {
                    Node::Split {
                        dim, value, left, right,
                    } => {
                        node = if p[*dim] < *value { *left } else { *right };
                    }
                    Node::Leaf { points: leaf } => {
                        leaf.push(id as u32);
                        break;
                    }
                }
            }
            self.pending += 1;
        }
        if self.pending > self.built_len / 2 {
            *self = NeighbourIndex::build(points);
        }
    }

    /// Writes the `k` lexicographically smallest `(distance, row)` pairs
    /// into `out` (cleared first), sorted ascending — bit-identical (same
    /// rows, same distance values, same order) to the early-abandon linear
    /// scan over all points. A reused `out` stops allocating once warm.
    pub fn nearest_into(
        &self,
        points: &[Vec<f64>],
        q: &[f64],
        k: usize,
        out: &mut Vec<(f64, usize)>,
    ) {
        out.clear();
        if k > 0 && !self.is_empty() {
            let mut best = Best { k, items: out };
            self.search(self.root, points, q, &mut best);
        }
    }

    fn search(&self, node: usize, points: &[Vec<f64>], q: &[f64], best: &mut Best<'_>) {
        match &self.nodes[node] {
            Node::Leaf { points: leaf } => {
                for &i in leaf {
                    let threshold = best.threshold();
                    let mut d = 0.0;
                    let mut abandoned = false;
                    for (a, b) in points[i as usize].iter().zip(q) {
                        d += (a - b) * (a - b);
                        if d > threshold {
                            abandoned = true;
                            break;
                        }
                    }
                    if !abandoned {
                        best.insert(d, i as usize);
                    }
                }
            }
            Node::Split {
                dim, value, left, right,
            } => {
                let (near, far) = if q[*dim] < *value {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.search(near, points, q, best);
                // Prune the far child only when its minimum possible distance
                // is strictly greater than the current k-th best — on equality
                // a lower-index tie could still displace the current k-th.
                let gap = q[*dim] - *value;
                if gap * gap <= best.threshold() {
                    self.search(far, points, q, best);
                }
            }
        }
    }
}

/// The running k-best list: the k lexicographically smallest
/// `(distance, row)` pairs seen so far, sorted ascending, written into a
/// caller-owned buffer so batched queries reuse one allocation.
struct Best<'a> {
    k: usize,
    items: &'a mut Vec<(f64, usize)>,
}

impl Best<'_> {
    /// Early-abandon / pruning threshold: the k-th best distance once the
    /// list is full, +∞ before.
    #[inline]
    fn threshold(&self) -> f64 {
        if self.items.len() < self.k {
            f64::INFINITY
        } else {
            self.items[self.k - 1].0
        }
    }

    #[inline]
    fn insert(&mut self, d: f64, i: usize) {
        if self.items.len() == self.k {
            let (ld, li) = self.items[self.k - 1];
            if !(d < ld || (d == ld && i < li)) {
                return;
            }
        }
        let pos = self
            .items
            .partition_point(|&(bd, bi)| bd < d || (bd == d && bi < i));
        self.items.insert(pos, (d, i));
        self.items.truncate(self.k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_math::rng::stream_rng;

    /// The reference the index must reproduce bit-for-bit: the linear scan's
    /// kept set, i.e. the k lexicographically smallest (distance, row) pairs
    /// with distances accumulated in dimension order.
    fn brute_force(points: &[Vec<f64>], q: &[f64], k: usize) -> Vec<(f64, usize)> {
        let mut all: Vec<(f64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut d = 0.0;
                for (a, b) in p.iter().zip(q) {
                    d += (a - b) * (a - b);
                }
                (d, i)
            })
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        all.truncate(k);
        all
    }

    /// [`NeighbourIndex::nearest_into`] into a fresh buffer.
    fn k_nearest(
        index: &NeighbourIndex,
        points: &[Vec<f64>],
        q: &[f64],
        k: usize,
    ) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        index.nearest_into(points, q, k, &mut out);
        out
    }

    fn random_points(n: usize, dim: usize, seed: u64, grid: bool) -> Vec<Vec<f64>> {
        let mut rng = stream_rng(seed, 0x4D7E);
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        if grid {
                            // Coarse grid → heavy distance ties.
                            rng.gen_range(0..4) as f64 / 3.0
                        } else {
                            rng.gen_range(0.0..1.0)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_brute_force() {
        for (n, dim, grid) in [(1, 1, false), (7, 2, false), (100, 3, false), (200, 2, true)] {
            let points = random_points(n, dim, 42 + n as u64, grid);
            let index = NeighbourIndex::build(&points);
            let queries = random_points(20, dim, 7, grid);
            for q in &queries {
                for k in [1, 3, n] {
                    let got = k_nearest(&index, &points, q, k);
                    let want = brute_force(&points, q, k);
                    assert_eq!(got, want, "n {n} k {k}");
                }
            }
        }
    }

    #[test]
    fn ties_resolve_to_lowest_row_index() {
        // Four identical points: the 2 nearest must be rows 0 and 1.
        let points = vec![vec![1.0, 2.0]; 4];
        let index = NeighbourIndex::build(&points);
        let got = k_nearest(&index, &points, &[0.0, 0.0], 2);
        assert_eq!(got, vec![(5.0, 0), (5.0, 1)]);
    }

    #[test]
    fn append_matches_fresh_build() {
        let points = random_points(120, 3, 9, false);
        let mut grown = NeighbourIndex::build(&points[..40]);
        for from in 40..120 {
            grown.append(&points[..=from], from);
        }
        assert_eq!(grown.len(), 120);
        let queries = random_points(10, 3, 11, false);
        for q in &queries {
            let got = k_nearest(&grown, &points, q, 5);
            let want = brute_force(&points, q, 5);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_and_zero_k() {
        let points: Vec<Vec<f64>> = Vec::new();
        let index = NeighbourIndex::build(&points);
        assert!(index.is_empty());
        assert!(k_nearest(&index, &points, &[0.0], 3).is_empty());
        let points = vec![vec![0.0]];
        let index = NeighbourIndex::build(&points);
        assert!(k_nearest(&index, &points, &[0.0], 0).is_empty());
    }

    #[test]
    fn nearest_into_reuses_its_buffer_and_matches_brute_force() {
        let points = random_points(80, 3, 5, true);
        let index = NeighbourIndex::build(&points);
        let queries = random_points(12, 3, 13, false);
        let mut buf = Vec::new();
        for q in &queries {
            for k in [80, 4, 1] {
                index.nearest_into(&points, q, k, &mut buf);
                assert_eq!(buf, brute_force(&points, q, k), "k {k}");
            }
        }
    }
}
