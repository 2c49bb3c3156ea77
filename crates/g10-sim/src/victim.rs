//! Incrementally-maintained eviction-victim index.
//!
//! The replay engine's victim selection used to be a full scan over
//! [`crate::engine::EngineState::evictable_tensors`] per eviction — O(R) in
//! the number of GPU-resident tensors, and quadratic over a replay that
//! evicts continuously.  [`VictimIndex`] replaces the scan with two orders
//! over the evictable residents, keyed so that their extremal elements are
//! *exactly* the tensors the linear scans would have picked:
//!
//! * **Recency**, keyed by `(last_touch, tensor_id)`: the linear LRU scan
//!   (`min_by_key` over id-ordered iteration) returns the first tensor with
//!   the minimal `last_touch`, i.e. the lexicographic minimum of
//!   `(last_touch, tensor_id)` — the head of this order.
//! * **Size**, keyed by `(bytes, tensor_id)`: FlashNeuron's largest-victim
//!   scan (`max_by_key` over id-ordered iteration) returns the *last*
//!   tensor with the maximal size, i.e. the lexicographic maximum of
//!   `(bytes, tensor_id)` — the last element of this order.
//!
//! Membership mirrors the engine's GPU resident set (tensors resident and
//! not in flight); the per-kernel *protected* working set stays in the index
//! and is skipped at query time instead, so protection changes cost nothing.
//! The index covers a fixed universe of tensor ids whose sizes it is given
//! at construction; sizes never change.
//!
//! # Recency list
//!
//! The recency order is an intrusive doubly-linked list over tensor ids
//! (flat per-id `prev` / `next` links plus each member's stamp), sorted by
//! `(last_touch, tensor_id)` with the head at the LRU end.  `insert` and
//! `touch` link an entry by walking back from the tail past the entries
//! with a larger key, so the list is exact for any stamp sequence; `remove`
//! unlinks in O(1).  The engine stamps a kernel's working set with the
//! kernel's index *before* any of it becomes resident (see
//! `ReplayEngine::step`), so every entry linked during a step carries the
//! newest stamp and the walk passes only the entries that same kernel
//! already touched.  [`VictimIndex::from_residents`] links a resident set
//! in sorted order, so each entry lands at the tail and the result is the
//! list that inserts and touches from the start would have kept.
//!
//! # Size order
//!
//! The first [`VictimIndex::largest`] query sorts the whole id universe
//! once by `(bytes, tensor_id)` into ranks and marks the members' ranks in
//! a bitset; from then on `insert` and `remove` set or clear one bit.
//! `largest` scans down from the highest set rank past protected members.
//! Only FlashNeuron asks for the largest victim, so every other design
//! never pays for it.
//!
//! | operation | cost |
//! |---|---|
//! | `insert`, `touch` | O(1 + entries with a larger key); O(1 + this kernel's entries) in the engine |
//! | `remove` | O(1) |
//! | `lru` | O(1 + protected) |
//! | `largest` | O(N / 64 + protected) over a universe of N ids, after a one-time O(N log N) rank sort |
//! | `from_residents` | O(N + R log R) |
//!
//! The pre-index linear scans live on in [`crate::naive`] as the
//! property-tested reference (`crates/g10-sim/tests/victim_props.rs` pins
//! the two against each other on randomized touch/evict sequences).

use std::cell::OnceCell;

/// End-of-list marker for the recency links.
const NIL: u32 = u32::MAX;

/// `(key, id)` as one integer with the same order, so sorts compare
/// contiguous integers instead of looking keys up per comparison.
fn pack(key: u64, id: u32) -> u128 {
    u128::from(key) << 32 | u128::from(id)
}

/// One tensor id's slot in the recency list.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
    /// The `last_touch` the entry is ordered by.
    stamp: usize,
    bytes: u64,
    linked: bool,
}

/// The size order: every id of the universe ranked by `(bytes, id)`, and
/// one membership bit per rank.
#[derive(Debug, Clone)]
struct SizeRanks {
    /// Tensor id at each rank, smallest `(bytes, id)` first.
    ids: Vec<u32>,
    /// Rank of each tensor id.
    rank: Vec<u32>,
    /// Bit `r` is set when the id at rank `r` is a member.
    members: Vec<u64>,
}

impl SizeRanks {
    fn set(&mut self, idx: u32, member: bool) {
        let rank = self.rank[idx as usize] as usize;
        let bit = 1u64 << (rank % 64);
        if member {
            self.members[rank / 64] |= bit;
        } else {
            self.members[rank / 64] &= !bit;
        }
    }
}

/// Ordered index over evictable GPU-resident tensors.
#[derive(Debug, Clone)]
pub struct VictimIndex {
    /// Recency-list slots, indexed by tensor id.
    links: Vec<Link>,
    /// Least-recently-used end of the list.
    head: u32,
    /// Most-recently-used end of the list.
    tail: u32,
    len: usize,
    /// The size order, built on the first [`VictimIndex::largest`] query.
    by_size: OnceCell<SizeRanks>,
}

impl VictimIndex {
    /// Creates an empty index over the tensor ids `0..sizes.len()`, where
    /// tensor `i` is `sizes[i]` bytes.
    pub fn new(sizes: impl IntoIterator<Item = u64>) -> Self {
        let links = sizes
            .into_iter()
            .map(|bytes| Link {
                prev: NIL,
                next: NIL,
                stamp: 0,
                bytes,
                linked: false,
            })
            .collect();
        VictimIndex {
            links,
            head: NIL,
            tail: NIL,
            len: 0,
            by_size: OnceCell::new(),
        }
    }

    /// Builds the index of a resident set: `residents` yields each member's
    /// `(tensor_id, last_touch)`, in any order.  Answers exactly like an
    /// index that saw every insert, touch and remove that led there.
    pub fn from_residents(
        sizes: impl IntoIterator<Item = u64>,
        residents: impl IntoIterator<Item = (u32, usize)>,
    ) -> Self {
        let mut index = VictimIndex::new(sizes);
        let mut order: Vec<u128> = residents
            .into_iter()
            .map(|(idx, last_touch)| pack(last_touch as u64, idx))
            .collect();
        order.sort_unstable();
        for key in order {
            index.insert(key as u32, (key >> 32) as usize);
        }
        index
    }

    /// Adds a tensor that just became an evictable resident.
    pub fn insert(&mut self, idx: u32, last_touch: usize) {
        let slot = &mut self.links[idx as usize];
        debug_assert!(!slot.linked, "tensor {idx} is already indexed");
        slot.stamp = last_touch;
        self.link(idx);
        self.len += 1;
        if let Some(by_size) = self.by_size.get_mut() {
            by_size.set(idx, true);
        }
    }

    /// Removes a tensor that is no longer an evictable resident.  A no-op
    /// for tensors not currently in the index.
    pub fn remove(&mut self, idx: u32) {
        if !self.contains(idx) {
            return;
        }
        self.unlink(idx);
        self.len -= 1;
        if let Some(by_size) = self.by_size.get_mut() {
            by_size.set(idx, false);
        }
    }

    /// Re-keys a tensor after its `last_touch` changed.  A no-op for tensors
    /// not currently in the index (size keys are unaffected: tensor sizes
    /// are immutable).
    pub fn touch(&mut self, idx: u32, last_touch: usize) {
        if !self.contains(idx) || self.links[idx as usize].stamp == last_touch {
            return;
        }
        self.unlink(idx);
        self.links[idx as usize].stamp = last_touch;
        self.link(idx);
    }

    /// The least-recently-used unprotected resident: minimal
    /// `(last_touch, tensor_id)`, skipping protected entries.
    pub fn lru(&self, is_protected: impl Fn(u32) -> bool) -> Option<u32> {
        let mut cur = self.head;
        while cur != NIL {
            if !is_protected(cur) {
                return Some(cur);
            }
            cur = self.links[cur as usize].next;
        }
        None
    }

    /// The largest unprotected resident: maximal `(bytes, tensor_id)`,
    /// skipping protected entries.  The first call builds the size order.
    pub fn largest(&self, is_protected: impl Fn(u32) -> bool) -> Option<u32> {
        let by_size = self.by_size.get_or_init(|| self.rank_by_size());
        for (word, &bits) in by_size.members.iter().enumerate().rev() {
            let mut bits = bits;
            while bits != 0 {
                let top = 63 - bits.leading_zeros() as usize;
                let idx = by_size.ids[word * 64 + top];
                if !is_protected(idx) {
                    return Some(idx);
                }
                bits &= !(1u64 << top);
            }
        }
        None
    }

    /// Number of evictable residents in the index.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no evictable residents are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn contains(&self, idx: u32) -> bool {
        self.links.get(idx as usize).is_some_and(|link| link.linked)
    }

    /// Ranks the whole universe by `(bytes, id)` and marks the members.
    fn rank_by_size(&self) -> SizeRanks {
        let mut keys: Vec<u128> = self
            .links
            .iter()
            .enumerate()
            .map(|(idx, link)| pack(link.bytes, idx as u32))
            .collect();
        keys.sort_unstable();
        let ids: Vec<u32> = keys.iter().map(|&key| key as u32).collect();
        let mut rank = vec![0u32; ids.len()];
        for (r, &idx) in ids.iter().enumerate() {
            rank[idx as usize] = r as u32;
        }
        let mut ranks = SizeRanks {
            members: vec![0; ids.len().div_ceil(64)],
            ids,
            rank,
        };
        for (idx, link) in self.links.iter().enumerate() {
            if link.linked {
                ranks.set(idx as u32, true);
            }
        }
        ranks
    }

    /// Members in recency order, LRU first.
    #[cfg(test)]
    fn members(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), |&idx| {
            let next = self.links[idx as usize].next;
            (next != NIL).then_some(next)
        })
    }

    /// Links an unlinked slot (its stamp already set) into its place: after
    /// the last entry whose `(stamp, id)` is smaller, found by walking back
    /// from the tail.
    fn link(&mut self, idx: u32) {
        let key = (self.links[idx as usize].stamp, idx);
        let mut before = self.tail;
        while before != NIL && (self.links[before as usize].stamp, before) > key {
            before = self.links[before as usize].prev;
        }
        let after = if before == NIL {
            std::mem::replace(&mut self.head, idx)
        } else {
            std::mem::replace(&mut self.links[before as usize].next, idx)
        };
        if after == NIL {
            self.tail = idx;
        } else {
            self.links[after as usize].prev = idx;
        }
        let link = &mut self.links[idx as usize];
        link.prev = before;
        link.next = after;
        link.linked = true;
    }

    /// Unlinks a linked slot in O(1).
    fn unlink(&mut self, idx: u32) {
        let Link { prev, next, .. } = self.links[idx as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
        let link = &mut self.links[idx as usize];
        link.prev = NIL;
        link.next = NIL;
        link.linked = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_breaks_ties_by_smallest_id() {
        let mut index = VictimIndex::new([100; 10]);
        index.insert(5, 3);
        index.insert(2, 3);
        index.insert(9, 7);
        assert_eq!(index.lru(|_| false), Some(2));
        index.remove(2);
        assert_eq!(index.lru(|_| false), Some(5));
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn largest_breaks_ties_by_largest_id() {
        let mut sizes = [100; 10];
        sizes[9] = 50;
        let mut index = VictimIndex::new(sizes);
        index.insert(5, 0);
        index.insert(2, 0);
        index.insert(9, 0);
        assert_eq!(index.largest(|_| false), Some(5));
        index.remove(5);
        assert_eq!(index.largest(|_| false), Some(2));
    }

    #[test]
    fn touch_rekeys_only_present_tensors() {
        let mut index = VictimIndex::new([10, 10, 20, 0, 0, 0, 0, 0]);
        index.insert(1, 0);
        index.insert(2, 0);
        index.touch(1, 5);
        assert_eq!(index.lru(|_| false), Some(2));
        // Touching an absent tensor must not resurrect it.
        index.touch(7, 5);
        assert_eq!(index.len(), 2);
        assert_eq!(index.lru(|idx| idx == 2), Some(1));
    }

    #[test]
    fn touching_the_tail_with_an_equal_stamp_keeps_id_order() {
        let mut index = VictimIndex::new([10; 8]);
        index.insert(7, 4);
        index.insert(3, 4);
        index.insert(5, 1);
        assert_eq!(index.members().collect::<Vec<_>>(), vec![5, 3, 7]);
        // 7 is the tail: (4, 3) < (4, 7), and re-stamping it with 4 keeps it
        // there.
        index.touch(7, 4);
        assert_eq!(index.members().collect::<Vec<_>>(), vec![5, 3, 7]);
        // Moving 5 up to the tail's stamp links it between 3 and 7.
        index.touch(5, 4);
        assert_eq!(index.members().collect::<Vec<_>>(), vec![3, 5, 7]);
        assert_eq!(index.lru(|_| false), Some(3));
        assert_eq!(index.lru(|idx| idx == 3), Some(5));
    }

    #[test]
    fn protected_entries_are_skipped_not_removed() {
        let mut index = VictimIndex::new([0, 10, 30]);
        index.insert(1, 0);
        index.insert(2, 1);
        assert_eq!(index.lru(|idx| idx == 1), Some(2));
        assert_eq!(index.largest(|idx| idx == 2), Some(1));
        assert_eq!(index.lru(|_| true), None);
        assert_eq!(index.largest(|_| true), None);
    }

    #[test]
    fn size_order_built_late_tracks_later_changes() {
        let mut index = VictimIndex::new([0, 10, 30, 50]);
        index.insert(1, 0);
        index.insert(2, 0);
        index.touch(2, 3);
        assert_eq!(index.largest(|_| false), Some(2));
        index.insert(3, 3);
        assert_eq!(index.largest(|_| false), Some(3));
        index.remove(3);
        index.remove(2);
        assert_eq!(index.largest(|_| false), Some(1));
        index.remove(1);
        assert_eq!(index.largest(|_| false), None);
        assert_eq!(index.lru(|_| false), None);
        assert!(index.is_empty());
    }

    #[test]
    fn size_ranks_span_several_words() {
        // 200 ids of 7 distinct sizes: ranks cross three bitset words and
        // equal sizes rank by id.
        let sizes: Vec<u64> = (0..200).map(|i| (i * 37 % 7) as u64).collect();
        let mut index = VictimIndex::new(sizes.iter().copied());
        for idx in (0..200).step_by(3) {
            index.insert(idx, 0);
        }
        let scan = |index: &VictimIndex, protected: &dyn Fn(u32) -> bool| {
            index
                .members()
                .filter(|&idx| !protected(idx))
                .max_by_key(|&idx| (sizes[idx as usize], idx))
        };
        for cut in [0, 1, 50, 150, 199, 200] {
            let protected = |idx: u32| idx >= cut;
            assert_eq!(index.largest(protected), scan(&index, &protected), "{cut}");
        }
    }

    #[test]
    fn from_residents_matches_incremental_maintenance() {
        let sizes = [5, 9, 9, 1, 7, 3];
        let mut kept = VictimIndex::new(sizes);
        kept.insert(4, 0);
        kept.insert(0, 0);
        kept.insert(2, 1);
        kept.insert(1, 1);
        kept.touch(4, 2);
        kept.insert(5, 2);
        kept.remove(2);
        let built = VictimIndex::from_residents(sizes, [(5, 2), (1, 1), (4, 2), (0, 0)]);
        assert_eq!(
            built.members().collect::<Vec<_>>(),
            kept.members().collect::<Vec<_>>()
        );
        assert_eq!(built.len(), kept.len());
        assert_eq!(built.largest(|_| false), kept.largest(|_| false));
    }
}
