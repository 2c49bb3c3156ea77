//! Memory-pressure timelines.
//!
//! The eviction algorithm (§4.3) tracks the estimated GPU memory pressure —
//! the total size of non-evicted live tensors — as a step function over the
//! kernels of the iteration, and equivalently tracks how much host memory
//! its decisions have consumed over time.  Both are instances of
//! [`MemoryTimeline`]: one value per kernel, lowered and raised over kernel
//! ranges and range-tested against a capacity.  Only eviction selection
//! weighs kernels by their durations, to price "area above the capacity
//! limit" (the benefit measure of Figure 7) in byte·seconds; it does so on
//! its own index, [`AboveCapacity`].
//!
//! # Complexity
//!
//! [`MemoryTimeline`] is a bottom-up range-add/range-max tree over the
//! per-kernel occupancies, replacing the flat-`Vec` implementation that made
//! the planner O(evictions × kernels).  No operation recurses: a range-add
//! walks up from the range's two ends, a range-max does the same while
//! adding the pending adds of the covering nodes' ancestors, and
//! `latest_fit` descends from the root on a fixed-size stack.  With `n`
//! kernels and `r` the length of the queried range:
//!
//! | operation                           | flat `Vec` | tree                  |
//! |-------------------------------------|------------|-----------------------|
//! | [`MemoryTimeline::max_value`]       | O(n)       | O(1)                  |
//! | [`MemoryTimeline::fits_extra`]      | O(r)       | O(log n)              |
//! | [`MemoryTimeline::add`]             | O(r)       | O(log n)              |
//! | [`MemoryTimeline::latest_fit`]      | O(r²)¹     | O(log n)              |
//! | [`MemoryTimeline::values`]          | O(n)       | O(n)                  |
//! | memory, in 8-byte words             | n          | 3N⁵                   |
//! | [`AboveCapacity::reduction`]        | O(r)       | O((1 + k) log n)²     |
//! | [`AboveCapacity::sub`]              | O(r)       | O(log n) amortised³   |
//! | [`AboveCapacity::any_above`]        | O(n)       | O(1)                  |
//! | [`pressure_after`], `e` evictions   | O(n + e·r) | O(n + e)⁴             |
//!
//! ¹ as open-coded by the eager-prefetch backward walk: O(r) `fits_extra`
//!   probes of an O(r) suffix each.
//! ² `k` is the number of kernels in the range that are above capacity by
//!   less than `bytes`; every other subtree is answered in one step, as 0
//!   (nothing above capacity) or as `bytes × Σ duration` (everything at
//!   least `bytes` above it).  The descent tests each child before calling
//!   into it, so no call lands outside the range or in a subtree with
//!   nothing above capacity.
//! ³ per range, plus O(log n) for each kernel the update lowers to the
//!   capacity or below, which happens at most once per kernel.
//! ⁴ the flat column is one `add` per eviction; the indexed column is one
//!   difference-array pass and one O(n) build, where `e` range-adds
//!   would cost O(n + e log n).  Both schedulers build their post-eviction
//!   curve this way, once per plan.
//! ⁵ `N` is `n` rounded up to a power of two, so at most `2n`: `2N` node
//!   maxima and `N` pending adds.  The recursive lazy-propagation tree
//!   this replaced kept three arrays of `4n` words (maxima, minima that
//!   nothing read, and pending adds), 12n words.
//!
//! [`AboveCapacity`] is eviction selection's view of the pressure curve:
//! fixed to one capacity and only ever lowered.  Its benefit accumulates
//! exactly in integer byte·nanoseconds and converts to byte·seconds once at
//! the end, so the result is independent of the traversal grouping — the
//! flat reference in `crates/g10-core/tests/support/naive.rs` produces
//! bit-identical benefits, which the planner-equivalence tests rely on.  On the paper models at
//! eval batch a CELF re-score visits half the nodes that a pruned descent
//! of the range-max tree above needs (23 against 47 on average); the
//! README's planner section has the measured planning times.
//!
//! Measured on the BERT Figure-11 plan (1073 kernels, 335 evictions) the
//! first, recursive segment tree dropped `G10Scheduler::plan` from ~72 ms
//! to ~11 ms, and on the synthetic 10k-kernel StressGPT workload from ~22 s
//! to ~0.7 s (29×), against the flat `Vec`.

use g10_time::Nanos;

/// The operations the eviction and prefetch schedulers need from a
/// per-kernel memory-occupancy step function.
///
/// Implemented by the range-max tree [`MemoryTimeline`] (the default) and by
/// the flat-`Vec` reference in `crates/g10-core/tests/support/naive.rs`,
/// which the planner-equivalence tests substitute through this trait.
pub trait PressureTimeline {
    /// Creates a timeline from initial per-kernel occupancy.
    fn from_values(values: &[u64]) -> Self;

    /// Creates an all-zero timeline over `kernels` kernels.
    fn zeroed(kernels: usize) -> Self;

    /// The peak occupancy across the whole iteration.
    fn max_value(&self) -> u64;

    /// Adds `delta` bytes to every kernel inside the given half-open ranges.
    fn add(&mut self, ranges: &[(usize, usize)], delta: i64);

    /// Returns `true` if adding `bytes` over the given ranges keeps the
    /// occupancy at or below `capacity`.
    fn fits_extra(&self, ranges: &[(usize, usize)], bytes: u64, capacity: u64) -> bool;

    /// The earliest kernel `j` in `[floor, end]` such that adding `bytes`
    /// over the suffix `[j, end)` keeps the occupancy at or below
    /// `capacity` (the eager-prefetch backward walk of §4.4 as one query).
    fn latest_fit(&self, floor: usize, end: usize, bytes: u64, capacity: u64) -> usize;
}

/// A per-kernel memory-occupancy step function on a bottom-up range-add,
/// range-max tree.
///
/// The tree is perfect over `N = len.next_power_of_two()` leaves: node `p`
/// has children `2p` and `2p + 1`, and leaf `i` is node `N + i`.  Leaves
/// past `len` hold `i64::MIN`, so they never win a max, and no range-add
/// covers them.  A range-add adds its delta to the O(log n) nodes that
/// cover the range exactly, in both `max_v` and (for inner nodes)
/// `pending`, and re-derives the maxima on the two boundary paths; nothing
/// is ever pushed down.  So a node's true maximum is `max_v[p]` plus the
/// pending adds of its strict ancestors, and every query accumulates those
/// on its way.
#[derive(Debug, Clone)]
pub struct MemoryTimeline {
    len: usize,
    /// Per-node subtree maxima, excluding the pending adds of the node's
    /// strict ancestors (`2N` words; index 0 unused).
    max_v: Vec<i64>,
    /// Per-inner-node adds that apply to the whole subtree and are not in
    /// the descendants' `max_v` (`N` words; index 0 unused and zero).
    pending: Vec<i64>,
}

/// Room for one pending sibling per tree level, plus the node in hand.
const DESCENT_STACK: usize = usize::BITS as usize + 1;

impl MemoryTimeline {
    /// Creates a timeline from initial per-kernel occupancy.
    pub fn new(values: &[u64]) -> Self {
        let len = values.len();
        let leaves = len.next_power_of_two();
        let mut max_v = vec![i64::MIN; 2 * leaves];
        for (leaf, &v) in max_v[leaves..].iter_mut().zip(values) {
            *leaf = v as i64;
        }
        for p in (1..leaves).rev() {
            max_v[p] = max_v[2 * p].max(max_v[2 * p + 1]);
        }
        MemoryTimeline {
            len,
            max_v,
            pending: vec![0; leaves],
        }
    }

    /// Creates an all-zero timeline over `kernels` kernels (used for
    /// host-memory occupancy, which starts empty).
    pub fn zeroed(kernels: usize) -> Self {
        MemoryTimeline::new(&vec![0; kernels])
    }

    /// Number of leaves of the perfect tree, `N`.
    fn leaves(&self) -> usize {
        self.pending.len()
    }

    /// Adds `delta` to the whole subtree of `node`.
    fn apply(&mut self, node: usize, delta: i64) {
        self.max_v[node] += delta;
        if node < self.leaves() {
            self.pending[node] += delta;
        }
    }

    /// Re-derives the maxima of every strict ancestor of `node`.
    fn rebuild_above(&mut self, mut node: usize) {
        while node > 1 {
            node >>= 1;
            self.max_v[node] =
                self.max_v[2 * node].max(self.max_v[2 * node + 1]) + self.pending[node];
        }
    }

    /// Adds `delta` to kernels `[l, r)`, `l < r <= len`.
    fn range_add(&mut self, l: usize, r: usize, delta: i64) {
        let n = self.leaves();
        let (mut lo, mut hi) = (l + n, r + n);
        while lo < hi {
            if lo & 1 == 1 {
                self.apply(lo, delta);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                self.apply(hi, delta);
            }
            lo >>= 1;
            hi >>= 1;
        }
        self.rebuild_above(l + n);
        self.rebuild_above(r - 1 + n);
    }

    /// The pending adds of `node` and each of its ancestors.
    fn pending_from(&self, mut node: usize) -> i64 {
        let mut sum = 0;
        while node >= 1 {
            sum += self.pending[node];
            node >>= 1;
        }
        sum
    }

    /// The maximum over kernels `[l, r)`, `l < r <= len`.
    ///
    /// The bottom-up walk takes the covering nodes from both ends.  Every
    /// node taken from the left has its parent at `lo - 1` one level up,
    /// and every node taken from the right has it at `hi`; from there on
    /// both sides share their ancestors, the chains `lo - 1` and `hi`.  So
    /// each side adds the pending add of its chain node once per level,
    /// and then those of the chain's remaining ancestors.  A side that has
    /// taken no node adds nothing: its chain may start past the tree, as
    /// `hi` does when the range ends at `N`.
    fn range_max(&self, l: usize, r: usize) -> i64 {
        let n = self.leaves();
        let (mut lo, mut hi) = (l + n, r + n);
        let (mut left, mut right) = (None::<i64>, None::<i64>);
        while lo < hi {
            if lo & 1 == 1 {
                left = Some(left.map_or(self.max_v[lo], |m| m.max(self.max_v[lo])));
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                right = Some(right.map_or(self.max_v[hi], |m| m.max(self.max_v[hi])));
            }
            lo >>= 1;
            hi >>= 1;
            if let Some(m) = left.as_mut() {
                *m += self.pending[lo - 1];
            }
            if let Some(m) = right.as_mut() {
                *m += self.pending[hi];
            }
        }
        let left = left.map(|m| m + self.pending_from((lo - 1) >> 1));
        let right = right.map(|m| m + self.pending_from(hi >> 1));
        left.max(right).expect("a non-empty range covers a node")
    }

    /// Rightmost kernel in `[l, r)` whose occupancy exceeds `threshold`: a
    /// top-down descent, right child first, that carries the pending adds
    /// of the ancestors of each node it visits.  It enters only nodes that
    /// overlap the range and whose maximum exceeds `threshold`, so past
    /// the two boundary paths the first node it enters holds the answer.
    fn rightmost_above(&self, l: usize, r: usize, threshold: i64) -> Option<usize> {
        let n = self.leaves();
        // (node, pending adds of its strict ancestors)
        let mut stack = [(0usize, 0i64); DESCENT_STACK];
        stack[0] = (1, 0);
        let mut depth = 1;
        while depth > 0 {
            depth -= 1;
            let (node, above) = stack[depth];
            let level = node.ilog2();
            let width = n >> level;
            let start = (node - (1 << level)) * width;
            if start + width <= l || r <= start || self.max_v[node] + above <= threshold {
                continue;
            }
            if node >= n {
                return Some(start);
            }
            let above = above + self.pending[node];
            stack[depth] = (2 * node, above);
            stack[depth + 1] = (2 * node + 1, above);
            depth += 2;
        }
        None
    }

    fn raw_values(&self) -> Vec<i64> {
        let n = self.leaves();
        // through[p]: the pending adds of `p` and all of its ancestors.
        let mut through = vec![0i64; n];
        for p in 1..n {
            through[p] = through[p >> 1] + self.pending[p];
        }
        (0..self.len)
            .map(|i| self.max_v[n + i] + through[(n + i) >> 1])
            .collect()
    }

    /// Number of kernels covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the timeline covers no kernels.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All per-kernel occupancies, clamped at zero.
    pub fn values(&self) -> Vec<u64> {
        self.raw_values()
            .into_iter()
            .map(|v| v.max(0) as u64)
            .collect()
    }

    /// The peak occupancy across the whole iteration.
    pub fn max_value(&self) -> u64 {
        if self.len == 0 {
            return 0;
        }
        self.max_v[1].max(0) as u64
    }

    /// Adds `delta` bytes to every kernel inside the given half-open ranges
    /// (negative deltas model evictions).
    pub fn add(&mut self, ranges: &[(usize, usize)], delta: i64) {
        for &(lo, hi) in ranges {
            let hi = hi.min(self.len);
            if lo < hi {
                self.range_add(lo, hi, delta);
            }
        }
    }

    /// Returns `true` if adding `bytes` to every kernel in the given ranges
    /// keeps the occupancy at or below `capacity` (used by both the host
    /// destination check and the eager-prefetch search).
    pub fn fits_extra(&self, ranges: &[(usize, usize)], bytes: u64, capacity: u64) -> bool {
        for &(lo, hi) in ranges {
            let hi = hi.min(self.len);
            if lo < hi {
                let max = self.range_max(lo, hi);
                if max as i128 + bytes as i128 > capacity as i128 {
                    return false;
                }
            }
        }
        true
    }

    /// The earliest kernel `j ∈ [floor, end]` such that `[j, end)` can hold
    /// `bytes` extra everywhere without exceeding `capacity`; equivalently
    /// the result of the eager-prefetch backward walk.  Returns `end` when
    /// even the last kernel has no room.
    pub fn latest_fit(&self, floor: usize, end: usize, bytes: u64, capacity: u64) -> usize {
        if floor >= end {
            return end;
        }
        let hi = end.min(self.len);
        if floor >= hi {
            // The whole suffix lies past the timeline: trivially fits.
            return floor;
        }
        // threshold: value > capacity - bytes  ⟺  value + bytes > capacity.
        // Clamp the i128 difference into i64 saturating bounds; occupancy
        // values always fit i64 so the comparison is exact.
        let threshold =
            ((capacity as i128) - (bytes as i128)).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        match self.rightmost_above(floor, hi, threshold) {
            Some(k) => k + 1,
            None => floor,
        }
    }
}

impl PressureTimeline for MemoryTimeline {
    fn from_values(values: &[u64]) -> Self {
        MemoryTimeline::new(values)
    }
    fn zeroed(kernels: usize) -> Self {
        MemoryTimeline::zeroed(kernels)
    }
    fn max_value(&self) -> u64 {
        MemoryTimeline::max_value(self)
    }
    fn add(&mut self, ranges: &[(usize, usize)], delta: i64) {
        MemoryTimeline::add(self, ranges, delta)
    }
    fn fits_extra(&self, ranges: &[(usize, usize)], bytes: u64, capacity: u64) -> bool {
        MemoryTimeline::fits_extra(self, ranges, bytes, capacity)
    }
    fn latest_fit(&self, floor: usize, end: usize, bytes: u64, capacity: u64) -> usize {
        MemoryTimeline::latest_fit(self, floor, end, bytes, capacity)
    }
}

/// The curve `values` after each `(ranges, bytes)` eviction is subtracted
/// from it, as one timeline: a per-kernel difference array over every
/// eviction's ranges, a prefix sum over `values`, then one
/// [`PressureTimeline::from_values`].
///
/// The result's values equal `P::from_values(values)` followed
/// by one `add(ranges, -bytes)` per eviction: the arithmetic is integer, so
/// the order of the subtractions does not matter.  Ranges are clipped to the
/// timeline, as [`PressureTimeline::add`] clips them.  It costs O(n + e)
/// for `n` kernels and `e` evictions, against O(e log n) range-adds
/// into an O(n) build.
///
/// # Panics
///
/// Panics if the evictions lower a kernel below zero.  That never happens
/// for the planner's evictions: a tensor is live, and so counted in
/// `values`, over each of its inactive periods, and at most one of its
/// periods covers any kernel.
pub fn pressure_after<P, R>(values: &[u64], evictions: impl IntoIterator<Item = (R, u64)>) -> P
where
    P: PressureTimeline,
    R: AsRef<[(usize, usize)]>,
{
    let len = values.len();
    let mut diff = vec![0i64; len + 1];
    for (ranges, bytes) in evictions {
        for &(lo, hi) in ranges.as_ref() {
            let hi = hi.min(len);
            if lo < hi {
                diff[lo] -= bytes as i64;
                diff[hi] += bytes as i64;
            }
        }
    }
    let mut delta = 0i64;
    let lowered: Vec<u64> = values
        .iter()
        .zip(&diff)
        .map(|(&v, &d)| {
            delta += d;
            u64::try_from(v as i64 + delta).expect("evictions lower a kernel below zero")
        })
        .collect();
    P::from_values(&lowered)
}

/// `min_over` of a subtree with no kernel above capacity.
const NONE_ABOVE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct AboveNode {
    /// Smallest excess over capacity among the subtree's kernels that are
    /// above it, or [`NONE_ABOVE`].
    min_over: u64,
    /// Summed duration, in nanoseconds, of the subtree's kernels above
    /// capacity.
    dur_ns: u64,
    /// Bytes subtracted from the whole subtree and not yet pushed to the
    /// children.
    lazy: u64,
}

const EMPTY_NODE: AboveNode = AboveNode {
    min_over: NONE_ABOVE,
    dur_ns: 0,
    lazy: 0,
};

/// The pressure curve as eviction *selection* sees it: fixed to the one
/// capacity it packs under, and only ever lowered.
///
/// A segment tree over the kernels that sit above `capacity`.  Each node
/// keeps the smallest excess over capacity among them and their summed
/// duration.  Because pressure only falls, a kernel leaves the
/// above-capacity set at most once, so [`sub`](Self::sub) costs amortised
/// O(log n) per kernel.  A [`reduction`](Self::reduction) query stops at any
/// covered node whose smallest excess is at least `bytes` (every kernel in
/// it earns the full `bytes`), so it descends only toward kernels within
/// `bytes` of capacity, instead of into every subtree straddling it as a
/// range-max tree must.
#[derive(Debug)]
pub struct AboveCapacity {
    len: usize,
    nodes: Vec<AboveNode>,
}

impl AboveCapacity {
    /// Indexes the kernels of `values` above `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn new(values: &[u64], durations: &[Nanos], capacity: u64) -> Self {
        assert_eq!(
            values.len(),
            durations.len(),
            "one value per kernel required"
        );
        let len = values.len();
        let mut index = AboveCapacity {
            len,
            nodes: vec![EMPTY_NODE; 2 * len.next_power_of_two().max(1)],
        };
        if len > 0 {
            index.build(1, 0, len, values, durations, capacity);
        }
        index
    }

    fn build(
        &mut self,
        node: usize,
        nl: usize,
        nr: usize,
        values: &[u64],
        durations: &[Nanos],
        capacity: u64,
    ) {
        if nr - nl == 1 {
            if values[nl] > capacity {
                self.nodes[node] = AboveNode {
                    min_over: values[nl] - capacity,
                    dur_ns: durations[nl].as_nanos(),
                    lazy: 0,
                };
            }
            return;
        }
        let mid = nl + (nr - nl) / 2;
        self.build(2 * node, nl, mid, values, durations, capacity);
        self.build(2 * node + 1, mid, nr, values, durations, capacity);
        self.pull(node);
    }

    fn pull(&mut self, node: usize) {
        let (left, right) = (self.nodes[2 * node], self.nodes[2 * node + 1]);
        self.nodes[node].min_over = left.min_over.min(right.min_over);
        self.nodes[node].dur_ns = left.dur_ns + right.dur_ns;
    }

    /// Lowers a whole subtree whose kernels all stay above capacity.
    fn apply(&mut self, node: usize, bytes: u64) {
        let n = &mut self.nodes[node];
        if n.min_over != NONE_ABOVE {
            n.min_over -= bytes;
            n.lazy += bytes;
        }
    }

    fn push(&mut self, node: usize) {
        let bytes = self.nodes[node].lazy;
        if bytes != 0 {
            self.apply(2 * node, bytes);
            self.apply(2 * node + 1, bytes);
            self.nodes[node].lazy = 0;
        }
    }

    fn sub_range(&mut self, node: usize, nl: usize, nr: usize, l: usize, r: usize, bytes: u64) {
        if r <= nl || nr <= l || self.nodes[node].min_over == NONE_ABOVE {
            return;
        }
        if l <= nl && nr <= r && self.nodes[node].min_over > bytes {
            self.apply(node, bytes);
            return;
        }
        if nr - nl == 1 {
            // The kernel falls to capacity or below, for good.
            self.nodes[node] = EMPTY_NODE;
            return;
        }
        self.push(node);
        let mid = nl + (nr - nl) / 2;
        self.sub_range(2 * node, nl, mid, l, r, bytes);
        self.sub_range(2 * node + 1, mid, nr, l, r, bytes);
        self.pull(node);
    }

    /// Exact byte·nanoseconds of removing `bytes` over `[l, r)`, which
    /// overlaps `[nl, nr)`, a subtree holding a kernel above capacity: each
    /// call tests both conditions for a child before descending into it.
    /// `pending` is the ancestors' lazy subtraction not yet pushed to
    /// `node`.
    #[allow(clippy::too_many_arguments)]
    fn byte_ns(
        &self,
        node: usize,
        nl: usize,
        nr: usize,
        l: usize,
        r: usize,
        bytes: u64,
        pending: u64,
    ) -> u128 {
        let n = self.nodes[node];
        let min_over = n.min_over - pending;
        if l <= nl && nr <= r {
            if min_over >= bytes {
                return bytes as u128 * n.dur_ns as u128;
            }
            if nr - nl == 1 {
                return min_over as u128 * n.dur_ns as u128;
            }
        }
        let mid = nl + (nr - nl) / 2;
        let pending = pending + n.lazy;
        let mut sum = 0;
        if l < mid && self.nodes[2 * node].min_over != NONE_ABOVE {
            sum += self.byte_ns(2 * node, nl, mid, l, r, bytes, pending);
        }
        if mid < r && self.nodes[2 * node + 1].min_over != NONE_ABOVE {
            sum += self.byte_ns(2 * node + 1, mid, nr, l, r, bytes, pending);
        }
        sum
    }

    /// Returns `true` while any kernel, of any duration, is above capacity.
    pub fn any_above(&self) -> bool {
        self.nodes[1].min_over != NONE_ABOVE
    }

    /// Subtracts `bytes` from every kernel inside the given half-open
    /// ranges (ranges are clipped to the timeline).
    pub fn sub(&mut self, ranges: &[(usize, usize)], bytes: u64) {
        for &(lo, hi) in ranges {
            let hi = hi.min(self.len);
            if lo < hi {
                self.sub_range(1, 0, self.len, lo, hi, bytes);
            }
        }
    }

    /// The benefit (in byte·seconds) of removing `bytes` over the given
    /// ranges: only the part of the pressure *above* capacity counts,
    /// exactly as in Figure 7(2) of the paper.  Accumulated in integer
    /// byte·nanoseconds and converted once, so it is bit-identical to the
    /// flat reference, `NaiveMemoryTimeline::reduction_above` in
    /// `crates/g10-core/tests/support/naive.rs`.
    pub fn reduction(&self, ranges: &[(usize, usize)], bytes: u64) -> f64 {
        if !self.any_above() {
            return 0.0;
        }
        let mut byte_ns: u128 = 0;
        for &(lo, hi) in ranges {
            let hi = hi.min(self.len);
            if lo < hi {
                byte_ns += self.byte_ns(1, 0, self.len, lo, hi, bytes, 0);
            }
        }
        byte_ns as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> MemoryTimeline {
        MemoryTimeline::new(&[10, 50, 90, 90, 40, 10])
    }

    #[test]
    fn peak_and_per_kernel_queries() {
        let t = timeline();
        assert_eq!(t.len(), 6);
        assert_eq!(t.max_value(), 90);
        assert_eq!(t.values(), vec![10, 50, 90, 90, 40, 10]);
    }

    #[test]
    fn add_and_clamp() {
        let mut t = timeline();
        t.add(&[(1, 4)], -60);
        // Kernel 1 is clamped from -10; kernel 4 is outside the range.
        assert_eq!(t.values(), vec![10, 0, 30, 30, 40, 10]);
        t.add(&[(1, 4)], 60);
        assert_eq!(t.values(), vec![10, 50, 90, 90, 40, 10]);
    }

    #[test]
    fn reduction_saturates_at_the_overflow() {
        let durations = vec![Nanos::from_micros(10); 6];
        let index = AboveCapacity::new(&[10, 50, 90, 90, 40, 10], &durations, 60);
        // Removing 100 bytes only earns credit for the 30 above capacity.
        let r = index.reduction(&[(2, 4)], 100);
        assert!((r - 2.0 * 30.0 * 10e-6).abs() < 1e-12);
        // Removing 10 bytes earns exactly 10 per kernel.
        let r = index.reduction(&[(2, 4)], 10);
        assert!((r - 2.0 * 10.0 * 10e-6).abs() < 1e-12);
        // No credit below capacity.
        assert_eq!(index.reduction(&[(0, 1)], 100), 0.0);
    }

    #[test]
    fn kernels_leave_the_index_once_lowered_to_capacity() {
        let durations = vec![Nanos::from_micros(10); 6];
        let mut index = AboveCapacity::new(&[10, 50, 90, 90, 40, 10], &durations, 60);
        assert!(index.any_above());
        index.sub(&[(2, 3)], 30);
        assert!((index.reduction(&[(0, 6)], 100) - 30.0 * 10e-6).abs() < 1e-12);
        index.sub(&[(3, 100)], 10);
        assert!(index.any_above());
        assert!((index.reduction(&[(0, 6)], 100) - 20.0 * 10e-6).abs() < 1e-12);
        index.sub(&[(3, 4)], 20);
        assert!(!index.any_above());
        assert!(!AboveCapacity::new(&[], &[], 0).any_above());
    }

    #[test]
    fn fits_extra_checks_every_kernel_in_range() {
        let t = timeline();
        assert!(t.fits_extra(&[(0, 2)], 40, 90));
        assert!(!t.fits_extra(&[(0, 3)], 40, 90));
        assert!(t.fits_extra(&[], 1_000_000, 0));
    }

    #[test]
    fn zeroed_timeline_starts_empty() {
        let t = MemoryTimeline::zeroed(4);
        assert_eq!(t.max_value(), 0);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn ranges_past_the_end_are_clipped() {
        let mut t = timeline();
        t.add(&[(4, 100)], 5);
        assert_eq!(t.values(), vec![10, 50, 90, 90, 45, 15]);
        assert!(t.fits_extra(&[(5, 100)], 75, 90));
        assert!(!t.fits_extra(&[(5, 100)], 76, 90));
    }

    #[test]
    fn latest_fit_matches_the_backward_walk() {
        let t = timeline(); // values [10, 50, 90, 90, 40, 10]
                            // Walking back from kernel 6 with 40 extra under capacity 90:
                            // kernels 5 (10) and 4 (40) fit, kernel 3 (90) does not.
        assert_eq!(t.latest_fit(0, 6, 40, 90), 4);
        // Everything fits: the walk reaches the floor.
        assert_eq!(t.latest_fit(2, 6, 0, 90), 2);
        // Nothing fits: stays at the end.
        assert_eq!(t.latest_fit(0, 6, 100, 90), 6);
        // Degenerate window.
        assert_eq!(t.latest_fit(4, 4, 1, 90), 4);
        // Suffix past the end of the timeline trivially fits.
        assert_eq!(t.latest_fit(6, 8, 1_000, 0), 6);
    }

    #[test]
    fn empty_timeline_is_well_behaved() {
        let t = MemoryTimeline::new(&[]);
        assert!(t.is_empty());
        assert_eq!(t.max_value(), 0);
        assert!(t.fits_extra(&[(0, 5)], 10, 0));
        assert_eq!(t.values(), Vec::<u64>::new());
    }
}
