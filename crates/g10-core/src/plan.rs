//! Migration plans: the `g10_pre_evict` / `g10_prefetch` instructions
//! produced by the scheduler and executed by the runtime (or the replay
//! simulator).
//!
//! A [`MigrationPlan`] holds only what the runtime executes.  Its
//! instructions live in one CSR table over two slots per kernel: slot `2k`
//! holds the prefetches issued before kernel `k`, slot `2k + 1` the
//! pre-evictions issued after it.  A plan is therefore three heap blocks
//! (offsets, instructions, initial placements) whatever its kernel count,
//! and the scheduler fills the table in one counting pass.  The
//! `g10_alloc` / `g10_free` lines of the instrumented program (Figure 9)
//! are not stored: they follow from each intermediate tensor's first and
//! last use, which the graph's `GraphIndex` already holds, and
//! [`crate::instrument::Program`] derives them when a program is rendered.

use crate::config::Destination;
use g10_dnn::graph::KernelId;
use g10_dnn::tensor::TensorId;
use g10_time::Nanos;
use serde::{Deserialize, Serialize};

/// One instruction inserted into the instrumented GPU program (§4.4, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instruction {
    /// `g10_alloc(tensor, size)`: allocate GPU space for a tensor that is
    /// about to be born.  Derived by [`crate::instrument::Program`]; never
    /// stored in a [`MigrationPlan`].
    Alloc {
        /// Tensor being allocated.
        tensor: TensorId,
        /// Size in bytes.
        bytes: u64,
    },
    /// `g10_free(tensor)`: release a dead intermediate tensor.  Derived
    /// like `Alloc`.
    Free {
        /// Tensor being freed.
        tensor: TensorId,
    },
    /// `g10_pre_evict(tensor, size, target)`: start migrating a tensor out of
    /// GPU memory.
    PreEvict {
        /// Tensor being evicted.
        tensor: TensorId,
        /// Size in bytes.
        bytes: u64,
        /// Destination memory.
        destination: Destination,
    },
    /// `g10_prefetch(tensor, size)`: start migrating a tensor back into GPU
    /// memory.
    Prefetch {
        /// Tensor being prefetched.
        tensor: TensorId,
        /// Size in bytes.
        bytes: u64,
        /// Where the tensor currently lives.
        source: Destination,
    },
}

impl Instruction {
    /// The tensor the instruction operates on.
    pub fn tensor(&self) -> TensorId {
        match *self {
            Instruction::Alloc { tensor, .. }
            | Instruction::Free { tensor }
            | Instruction::PreEvict { tensor, .. }
            | Instruction::Prefetch { tensor, .. } => tensor,
        }
    }
}

/// A tensor that starts the iteration outside GPU memory (steady-state
/// consequence of a wrap-around eviction in the previous iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InitialPlacement {
    /// The tensor.
    pub tensor: TensorId,
    /// Where it lives at the start of the iteration.
    pub location: Destination,
}

/// Instructions in two slots per kernel, as one CSR table: slot `2k` runs
/// before kernel `k` launches and slot `2k + 1` after it completes; slot
/// `s` is `instructions[offsets[s]..offsets[s + 1]]`.  Slots run in kernel
/// order, so the flat table is the whole stream in execution order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct KernelSlots {
    offsets: Vec<usize>,
    instructions: Vec<Instruction>,
}

impl KernelSlots {
    /// Builds the table for `num_kernels` kernels from the instructions
    /// issued before a kernel and those issued after one.  Each slot keeps
    /// its instructions in the order given: a counting sort over the two
    /// passes the iterators allow.
    ///
    /// # Panics
    ///
    /// Panics if a kernel id is out of range.
    pub(crate) fn new(
        num_kernels: usize,
        before: impl Iterator<Item = (KernelId, Instruction)> + Clone,
        after: impl Iterator<Item = (KernelId, Instruction)> + Clone,
    ) -> Self {
        let slots = 2 * num_kernels;
        let entries = || {
            let before = before.clone().map(|(k, i)| (2 * k.index(), i));
            let after = after.clone().map(|(k, i)| (2 * k.index() + 1, i));
            before.chain(after)
        };
        let mut offsets = vec![0; slots + 1];
        for (slot, _) in entries() {
            offsets[slot + 1] += 1;
        }
        for s in 0..slots {
            offsets[s + 1] += offsets[s];
        }
        // Place each entry at its slot's cursor, `offsets[slot]` (so every
        // placeholder is overwritten); the cursors end one slot on, so
        // shifting them back restores the slots.
        let placeholder = Instruction::Free {
            tensor: TensorId::new(0),
        };
        let mut instructions = vec![placeholder; offsets[slots]];
        for (slot, instruction) in entries() {
            instructions[offsets[slot]] = instruction;
            offsets[slot] += 1;
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        KernelSlots {
            offsets,
            instructions,
        }
    }

    pub(crate) fn num_kernels(&self) -> usize {
        self.offsets.len().saturating_sub(1) / 2
    }

    fn slot(&self, slot: usize) -> &[Instruction] {
        &self.instructions[self.offsets[slot]..self.offsets[slot + 1]]
    }

    pub(crate) fn before(&self, kernel: KernelId) -> &[Instruction] {
        self.slot(2 * kernel.index())
    }

    pub(crate) fn after(&self, kernel: KernelId) -> &[Instruction] {
        self.slot(2 * kernel.index() + 1)
    }

    pub(crate) fn all(&self) -> &[Instruction] {
        &self.instructions
    }
}

/// A complete migration plan for one training iteration: the migrations
/// the runtime executes, in one table of two slots per kernel.  Before each
/// kernel come its prefetches, in the prefetch scheduler's order; after it
/// come its pre-evictions, in the order the eviction scheduler selected
/// them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    slots: KernelSlots,
    initial_placements: Vec<InitialPlacement>,
    planned_peak_pressure: u64,
    planned_ssd_evict_bytes: u64,
    planned_host_evict_bytes: u64,
    planned_ideal_time: Nanos,
}

impl MigrationPlan {
    /// Builds the plan for `num_kernels` kernels from each pre-eviction
    /// with the kernel it follows and each prefetch with the kernel it
    /// precedes; each kernel keeps them in the order given.
    ///
    /// # Panics
    ///
    /// Panics if a kernel id is out of range.
    pub fn new(
        num_kernels: usize,
        pre_evictions: impl Iterator<Item = (KernelId, Instruction)> + Clone,
        prefetches: impl Iterator<Item = (KernelId, Instruction)> + Clone,
    ) -> Self {
        let mut plan = MigrationPlan {
            slots: KernelSlots::new(num_kernels, prefetches, pre_evictions),
            ..MigrationPlan::default()
        };
        for instruction in plan.slots.all() {
            if let Instruction::PreEvict {
                bytes, destination, ..
            } = *instruction
            {
                match destination {
                    Destination::Ssd => plan.planned_ssd_evict_bytes += bytes,
                    Destination::Host => plan.planned_host_evict_bytes += bytes,
                }
            }
        }
        plan
    }

    /// Number of kernels covered.
    pub fn len(&self) -> usize {
        self.slots.num_kernels()
    }

    /// Returns `true` if the plan covers no kernels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The prefetches issued before the given kernel launches.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn before(&self, kernel: KernelId) -> &[Instruction] {
        self.slots.before(kernel)
    }

    /// The pre-evictions issued after the given kernel completes.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn after(&self, kernel: KernelId) -> &[Instruction] {
        self.slots.after(kernel)
    }

    /// Declares that a tensor starts the iteration outside GPU memory.
    pub fn add_initial_placement(&mut self, tensor: TensorId, location: Destination) {
        self.initial_placements
            .push(InitialPlacement { tensor, location });
    }

    /// Tensors that start the iteration outside GPU memory.
    pub fn initial_placements(&self) -> &[InitialPlacement] {
        &self.initial_placements
    }

    /// Records the planner's post-eviction peak pressure estimate.
    pub fn set_planned_peak_pressure(&mut self, bytes: u64) {
        self.planned_peak_pressure = bytes;
    }

    /// The planner's post-eviction peak pressure estimate.
    pub fn planned_peak_pressure(&self) -> u64 {
        self.planned_peak_pressure
    }

    /// Records the ideal (stall-free) iteration time the plan was built for.
    pub fn set_planned_ideal_time(&mut self, time: Nanos) {
        self.planned_ideal_time = time;
    }

    /// The ideal iteration time the plan was built for.
    pub fn planned_ideal_time(&self) -> Nanos {
        self.planned_ideal_time
    }

    /// Total number of pre-eviction instructions.
    pub fn eviction_count(&self) -> usize {
        self.instructions()
            .filter(|i| matches!(i, Instruction::PreEvict { .. }))
            .count()
    }

    /// Total number of prefetch instructions.
    pub fn prefetch_count(&self) -> usize {
        self.instructions()
            .filter(|i| matches!(i, Instruction::Prefetch { .. }))
            .count()
    }

    /// Bytes planned to be evicted to the SSD.
    pub fn planned_ssd_evict_bytes(&self) -> u64 {
        self.planned_ssd_evict_bytes
    }

    /// Bytes planned to be evicted to host memory.
    pub fn planned_host_evict_bytes(&self) -> u64 {
        self.planned_host_evict_bytes
    }

    /// Every instruction in kernel order (per kernel, the prefetches before
    /// it, then the pre-evictions after it).
    pub fn instructions(&self) -> impl Iterator<Item = &Instruction> + '_ {
        self.slots.all().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evict(tensor: u32, bytes: u64, destination: Destination) -> Instruction {
        Instruction::PreEvict {
            tensor: TensorId::new(tensor),
            bytes,
            destination,
        }
    }

    fn prefetch(tensor: u32) -> Instruction {
        Instruction::Prefetch {
            tensor: TensorId::new(tensor),
            bytes: 1,
            source: Destination::Ssd,
        }
    }

    fn at(kernel: u32, instruction: Instruction) -> (KernelId, Instruction) {
        (KernelId::new(kernel), instruction)
    }

    #[test]
    fn plan_accounting_tracks_instruction_kinds() {
        let pre_evictions = [
            at(0, evict(1, 100, Destination::Ssd)),
            at(3, evict(2, 50, Destination::Host)),
        ];
        let prefetches = [at(2, prefetch(1))];
        let plan = MigrationPlan::new(4, pre_evictions.into_iter(), prefetches.into_iter());
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.eviction_count(), 2);
        assert_eq!(plan.prefetch_count(), 1);
        assert_eq!(plan.planned_ssd_evict_bytes(), 100);
        assert_eq!(plan.planned_host_evict_bytes(), 50);
        assert_eq!(plan.after(KernelId::new(0)).len(), 1);
        assert_eq!(plan.before(KernelId::new(2)).len(), 1);
        assert!(plan.before(KernelId::new(0)).is_empty());
        assert!(plan.after(KernelId::new(2)).is_empty());
        assert_eq!(plan.instructions().count(), 3);
        assert!(MigrationPlan::default().is_empty());
    }

    /// Several pre-evictions after one kernel keep their selection order,
    /// several prefetches before one kernel keep their prefetch order, and
    /// the flat stream runs kernel by kernel, prefetches before
    /// pre-evictions, whatever order the kernels were given in.
    #[test]
    fn each_slot_keeps_the_order_its_instructions_were_given_in() {
        let pre_evictions = [
            at(1, evict(5, 1, Destination::Ssd)),
            at(0, evict(3, 1, Destination::Host)),
            at(1, evict(2, 1, Destination::Host)),
            at(2, evict(8, 1, Destination::Ssd)),
            at(1, evict(9, 1, Destination::Ssd)),
        ];
        let prefetches = [
            at(2, prefetch(3)),
            at(1, prefetch(7)),
            at(2, prefetch(5)),
            at(3, prefetch(4)),
            at(2, prefetch(1)),
        ];
        let plan = MigrationPlan::new(4, pre_evictions.into_iter(), prefetches.into_iter());
        let tensors = |slice: &[Instruction]| -> Vec<u32> {
            slice.iter().map(|i| i.tensor().index() as u32).collect()
        };
        let k = KernelId::new;
        assert_eq!(tensors(plan.after(k(1))), [5, 2, 9]);
        assert_eq!(tensors(plan.before(k(2))), [3, 5, 1]);
        assert_eq!(tensors(plan.before(k(1))), [7]);
        assert_eq!(tensors(plan.after(k(0))), [3]);
        assert!(plan.before(k(0)).is_empty());
        assert!(plan.after(k(3)).is_empty());
        let stream: Vec<Instruction> = plan.instructions().copied().collect();
        let expected = [
            evict(3, 1, Destination::Host),
            prefetch(7),
            evict(5, 1, Destination::Ssd),
            evict(2, 1, Destination::Host),
            evict(9, 1, Destination::Ssd),
            prefetch(3),
            prefetch(5),
            prefetch(1),
            evict(8, 1, Destination::Ssd),
            prefetch(4),
        ];
        assert_eq!(stream, expected);
    }

    #[test]
    fn initial_placements_and_metadata_round_trip() {
        let mut plan = MigrationPlan::new(1, std::iter::empty(), std::iter::empty());
        plan.add_initial_placement(TensorId::new(7), Destination::Ssd);
        plan.set_planned_peak_pressure(123);
        plan.set_planned_ideal_time(Nanos::from_micros(10));
        assert_eq!(plan.initial_placements().len(), 1);
        assert_eq!(plan.planned_peak_pressure(), 123);
        assert_eq!(plan.planned_ideal_time(), Nanos::from_micros(10));
    }

    #[test]
    fn instruction_tensor_accessor_covers_all_variants() {
        let t = TensorId::new(9);
        for i in [
            Instruction::Alloc {
                tensor: t,
                bytes: 1,
            },
            Instruction::Free { tensor: t },
            Instruction::PreEvict {
                tensor: t,
                bytes: 1,
                destination: Destination::Ssd,
            },
            Instruction::Prefetch {
                tensor: t,
                bytes: 1,
                source: Destination::Host,
            },
        ] {
            assert_eq!(i.tensor(), t);
        }
    }
}
