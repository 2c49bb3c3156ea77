//! Property tests: the incremental victim index
//! ([`g10_sim::victim::VictimIndex`]) must agree with the linear-scan
//! reference semantics of [`g10_sim::naive`] on random residency /
//! touch / eviction / protection sequences.
//!
//! The model mirrors the engine exactly: each tensor has an immutable size,
//! a mutable `last_touch`, GPU residency, and a protection flag.  The
//! reference selections replicate the id-ordered linear scans —
//! `min_by_key` keeps the *first* minimum (LRU) and `max_by_key` keeps the
//! *last* maximum (largest victim) — which is precisely the tie-breaking
//! the index's `(last_touch, id)` / `(bytes, id)` keys encode.
//!
//! The engine builds its index from the resident set on the first victim
//! query ([`VictimIndex::from_residents`]), so an index built mid-sequence
//! must answer exactly like one maintained from the start.

use g10_sim::victim::VictimIndex;
use proptest::prelude::*;

#[derive(Clone, Copy)]
struct Slot {
    resident: bool,
    protected: bool,
    last_touch: usize,
    bytes: u64,
}

/// Reference LRU: first evictable resident with minimal `last_touch`, in
/// tensor-id order (the `evictable_tensors().min_by_key(..)` scan).
fn scan_lru(slots: &[Slot]) -> Option<u32> {
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.resident && !s.protected)
        .min_by_key(|(_, s)| s.last_touch)
        .map(|(i, _)| i as u32)
}

/// Reference largest victim: last evictable resident with maximal size, in
/// tensor-id order (the `evictable_tensors().max_by_key(..)` scan).
fn scan_largest(slots: &[Slot]) -> Option<u32> {
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.resident && !s.protected)
        .max_by_key(|(_, s)| s.bytes)
        .map(|(i, _)| i as u32)
}

/// An index over the slots' sizes.
fn empty_index(slots: &[Slot]) -> VictimIndex {
    VictimIndex::new(slots.iter().map(|s| s.bytes))
}

/// An index built from the slots' current resident set, as the engine
/// builds one on its first victim query.
fn built_index(slots: &[Slot]) -> VictimIndex {
    let residents = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.resident)
        .map(|(i, s)| (i as u32, s.last_touch));
    VictimIndex::from_residents(slots.iter().map(|s| s.bytes), residents)
}

/// Asserts the index's size and LRU answer (and, with `with_largest`, its
/// largest-victim answer) against the linear scans.
fn assert_agrees(index: &VictimIndex, slots: &[Slot], with_largest: bool) {
    let resident = slots.iter().filter(|s| s.resident).count();
    assert_eq!(index.len(), resident);
    assert_eq!(
        index.lru(|i| slots[i as usize].protected),
        scan_lru(slots),
        "LRU selection diverged from the linear scan"
    );
    if with_largest {
        assert_eq!(
            index.largest(|i| slots[i as usize].protected),
            scan_largest(slots),
            "largest-victim selection diverged from the linear scan"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_linear_scans_on_random_sequences(
        // Few distinct sizes / touch stamps, so ties are common and the
        // tie-breaking rules are actually exercised.
        sizes in proptest::collection::vec(1u64..8, 2..24),
        ops in proptest::collection::vec((0u8..4, 0usize..24, 0usize..6), 1..200),
    ) {
        let n = sizes.len();
        let mut slots: Vec<Slot> = sizes
            .iter()
            .map(|&bytes| Slot { resident: false, protected: false, last_touch: 0, bytes })
            .collect();
        let mut index = empty_index(&slots);

        for (op, raw_idx, stamp) in ops {
            let idx = raw_idx % n;
            let slot = &mut slots[idx];
            match op {
                // A tensor arrives in GPU memory (prefetch/birth settles).
                0 => {
                    if !slot.resident {
                        slot.resident = true;
                        index.insert(idx as u32, slot.last_touch);
                    }
                }
                // A tensor leaves GPU memory (eviction/free).
                1 => {
                    if slot.resident {
                        slot.resident = false;
                        index.remove(idx as u32);
                    }
                }
                // A kernel used the tensor: last_touch moves, index re-keys
                // only if the tensor is currently an evictable resident.
                2 => {
                    let old = slot.last_touch;
                    if old != stamp {
                        slot.last_touch = stamp;
                        index.touch(idx as u32, stamp);
                    }
                }
                // The working-set protection flag flips: a query-time
                // filter, invisible to the index structure.
                _ => slot.protected = !slot.protected,
            }

            let resident = slots.iter().filter(|s| s.resident).count();
            prop_assert_eq!(index.len(), resident);
            prop_assert_eq!(index.is_empty(), resident == 0);
            prop_assert_eq!(
                index.lru(|i| slots[i as usize].protected),
                scan_lru(&slots),
                "LRU selection diverged from the linear scan"
            );
            prop_assert_eq!(
                index.largest(|i| slots[i as usize].protected),
                scan_largest(&slots),
                "largest-victim selection diverged from the linear scan"
            );
        }
    }

    /// The engine's access pattern: kernel stamps never decrease and stay
    /// equal for a whole working set (and across kernels, when the stamp
    /// does not advance), each working set is stamped and then made
    /// resident in scrambled id order, and hundreds of ids keep the list
    /// long.  The first largest-victim query comes after a random number
    /// of operations, so the size order is built mid-sequence and must
    /// then track every later change.  A second index is built from the
    /// slots after another random number of operations and maintained from
    /// then on, like the engine's; it must answer exactly like the first.
    #[test]
    fn index_matches_linear_scans_on_engine_like_sequences(
        sizes in proptest::collection::vec(1u64..6, 50..500),
        initial in proptest::collection::vec(0u8..2, 500..501),
        kernels in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(0usize..500, 0..40), 0usize..6, 0usize..4),
            1..60,
        ),
        first_largest in 0usize..1_500,
        build_at in 0usize..1_500,
        late_first_largest in 0usize..1_500,
    ) {
        let n = sizes.len();
        let mut slots: Vec<Slot> = sizes
            .iter()
            .map(|&bytes| Slot { resident: false, protected: false, last_touch: 0, bytes })
            .collect();
        let mut index = Indexes { kept: empty_index(&slots), late: None };
        for (idx, slot) in slots.iter_mut().enumerate() {
            if initial[idx] == 1 {
                slot.resident = true;
                index.insert(idx as u32, 0);
            }
        }

        let mut ops = 0usize;
        let mut check = |index: &mut Indexes, slots: &[Slot]| {
            ops += 1;
            if ops == build_at {
                index.late = Some(built_index(slots));
            }
            assert_agrees(&index.kept, slots, ops > first_largest);
            if let Some(late) = &index.late {
                // The late index's size order is built on its own first
                // query, which may come before or after the kept one's.
                assert_agrees(late, slots, ops > late_first_largest);
            }
        };

        let mut stamp = 0usize;
        for (advance, raw_working_set, evictions, deaths) in kernels {
            stamp += advance;
            let mut working_set: Vec<usize> = Vec::new();
            for raw in raw_working_set {
                if !working_set.contains(&(raw % n)) {
                    working_set.push(raw % n);
                }
            }
            // Protect and stamp the working set, then make it resident.
            for &idx in &working_set {
                let slot = &mut slots[idx];
                slot.protected = true;
                if slot.last_touch != stamp {
                    slot.last_touch = stamp;
                    index.touch(idx as u32, stamp);
                }
                check(&mut index, &slots);
            }
            for &idx in &working_set {
                if !slots[idx].resident {
                    slots[idx].resident = true;
                    index.insert(idx as u32, stamp);
                    check(&mut index, &slots);
                }
            }
            // Evict the LRU victim to make room.
            for _ in 0..evictions {
                let Some(victim) = scan_lru(&slots) else { break };
                slots[victim as usize].resident = false;
                index.remove(victim);
                check(&mut index, &slots);
            }
            // Release, then unprotect, the working set; the first `deaths`
            // members die.
            for &idx in working_set.iter().take(deaths) {
                slots[idx].resident = false;
                index.remove(idx as u32);
                check(&mut index, &slots);
            }
            for &idx in &working_set {
                slots[idx].protected = false;
            }
            check(&mut index, &slots);
        }
    }

    /// The size ranks cover the whole id universe, so ids that join the
    /// index only after the first largest-victim query rank exactly where
    /// the scan puts them.
    #[test]
    fn size_ranks_place_ids_inserted_after_the_first_query(
        sizes in proptest::collection::vec(1u64..6, 2..200),
        first in proptest::collection::vec(0usize..200, 0..20),
        later in proptest::collection::vec((0usize..200, 0u8..3), 1..200),
    ) {
        let n = sizes.len();
        let mut slots: Vec<Slot> = sizes
            .iter()
            .map(|&bytes| Slot { resident: false, protected: false, last_touch: 0, bytes })
            .collect();
        let mut index = empty_index(&slots);
        for raw in first {
            let slot = &mut slots[raw % n];
            if !slot.resident {
                slot.resident = true;
                index.insert((raw % n) as u32, 0);
            }
        }
        // The first query builds the ranks while most ids are outside.
        assert_agrees(&index, &slots, true);
        for (stamp, (raw, op)) in later.into_iter().enumerate() {
            let idx = raw % n;
            let slot = &mut slots[idx];
            match op {
                0 if !slot.resident => {
                    slot.resident = true;
                    slot.last_touch = stamp;
                    index.insert(idx as u32, stamp);
                }
                1 if slot.resident => {
                    slot.resident = false;
                    index.remove(idx as u32);
                }
                _ => slot.protected = !slot.protected,
            }
            assert_agrees(&index, &slots, true);
        }
    }
}

/// The index maintained from the start, and the one built from the slots
/// partway through (once built, both see every change).
struct Indexes {
    kept: VictimIndex,
    late: Option<VictimIndex>,
}

impl Indexes {
    fn each(&mut self, mut apply: impl FnMut(&mut VictimIndex)) {
        apply(&mut self.kept);
        if let Some(late) = &mut self.late {
            apply(late);
        }
    }

    fn insert(&mut self, idx: u32, last_touch: usize) {
        self.each(|index| index.insert(idx, last_touch));
    }

    fn remove(&mut self, idx: u32) {
        self.each(|index| index.remove(idx));
    }

    fn touch(&mut self, idx: u32, last_touch: usize) {
        self.each(|index| index.touch(idx, last_touch));
    }
}
