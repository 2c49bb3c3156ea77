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
//! already touched.
//!
//! # Size order
//!
//! The size order is an ordered set built from the list on the first
//! [`VictimIndex::largest`] query and maintained from then on.  Only
//! FlashNeuron asks for the largest victim, so every other design never
//! pays for it.
//!
//! | operation | cost |
//! |---|---|
//! | `insert`, `touch` | O(1 + entries with a larger key); O(1 + this kernel's entries) in the engine, plus O(log R) once the size order exists |
//! | `remove` | O(1), plus O(log R) once the size order exists |
//! | `lru` | O(1 + protected) |
//! | `largest` | O(log R + protected), after a one-time O(R log R) build |
//!
//! The pre-index linear scans live on in [`crate::naive`] as the
//! property-tested reference (`crates/g10-sim/tests/victim_props.rs` pins
//! the two against each other on randomized touch/evict sequences).

use std::cell::OnceCell;
use std::collections::BTreeSet;

/// End-of-list marker for the recency links.
const NIL: u32 = u32::MAX;

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

impl Link {
    const UNLINKED: Link = Link {
        prev: NIL,
        next: NIL,
        stamp: 0,
        bytes: 0,
        linked: false,
    };
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
    /// Members keyed by `(bytes, tensor_id)`, built on the first
    /// [`VictimIndex::largest`] query.
    by_size: OnceCell<BTreeSet<(u64, u32)>>,
}

impl Default for VictimIndex {
    fn default() -> Self {
        VictimIndex {
            links: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            by_size: OnceCell::new(),
        }
    }
}

impl VictimIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        VictimIndex::default()
    }

    /// Adds a tensor that just became an evictable resident.
    pub fn insert(&mut self, idx: u32, last_touch: usize, bytes: u64) {
        let slot = idx as usize;
        if slot >= self.links.len() {
            self.links.resize(slot + 1, Link::UNLINKED);
        }
        debug_assert!(!self.links[slot].linked, "tensor {idx} is already indexed");
        self.links[slot].stamp = last_touch;
        self.links[slot].bytes = bytes;
        self.link(idx);
        self.len += 1;
        if let Some(by_size) = self.by_size.get_mut() {
            by_size.insert((bytes, idx));
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
        let bytes = self.links[idx as usize].bytes;
        if let Some(by_size) = self.by_size.get_mut() {
            by_size.remove(&(bytes, idx));
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
        self.by_size
            .get_or_init(|| {
                self.members()
                    .map(|idx| (self.links[idx as usize].bytes, idx))
                    .collect()
            })
            .iter()
            .rev()
            .map(|&(_, idx)| idx)
            .find(|&idx| !is_protected(idx))
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

    /// Members in recency order, LRU first.
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
        let mut index = VictimIndex::new();
        index.insert(5, 3, 100);
        index.insert(2, 3, 100);
        index.insert(9, 7, 100);
        assert_eq!(index.lru(|_| false), Some(2));
        index.remove(2);
        assert_eq!(index.lru(|_| false), Some(5));
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn largest_breaks_ties_by_largest_id() {
        let mut index = VictimIndex::new();
        index.insert(5, 0, 100);
        index.insert(2, 0, 100);
        index.insert(9, 0, 50);
        assert_eq!(index.largest(|_| false), Some(5));
        index.remove(5);
        assert_eq!(index.largest(|_| false), Some(2));
    }

    #[test]
    fn touch_rekeys_only_present_tensors() {
        let mut index = VictimIndex::new();
        index.insert(1, 0, 10);
        index.insert(2, 0, 20);
        index.touch(1, 5);
        assert_eq!(index.lru(|_| false), Some(2));
        // Touching an absent tensor must not resurrect it.
        index.touch(7, 5);
        assert_eq!(index.len(), 2);
        assert_eq!(index.lru(|idx| idx == 2), Some(1));
    }

    #[test]
    fn touching_the_tail_with_an_equal_stamp_keeps_id_order() {
        let mut index = VictimIndex::new();
        index.insert(7, 4, 10);
        index.insert(3, 4, 10);
        index.insert(5, 1, 10);
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
        let mut index = VictimIndex::new();
        index.insert(1, 0, 10);
        index.insert(2, 1, 30);
        assert_eq!(index.lru(|idx| idx == 1), Some(2));
        assert_eq!(index.largest(|idx| idx == 2), Some(1));
        assert_eq!(index.lru(|_| true), None);
        assert_eq!(index.largest(|_| true), None);
    }

    #[test]
    fn size_order_built_late_tracks_later_changes() {
        let mut index = VictimIndex::new();
        index.insert(1, 0, 10);
        index.insert(2, 0, 30);
        index.touch(2, 3);
        assert_eq!(index.largest(|_| false), Some(2));
        index.insert(3, 3, 50);
        assert_eq!(index.largest(|_| false), Some(3));
        index.remove(3);
        index.remove(2);
        assert_eq!(index.largest(|_| false), Some(1));
        index.remove(1);
        assert_eq!(index.largest(|_| false), None);
        assert_eq!(index.lru(|_| false), None);
        assert!(index.is_empty());
    }
}
