//! Smart tensor eviction scheduling (Algorithm 1, §4.3).
//!
//! The planner iteratively selects the inactive period with the best
//! benefit/cost ratio — the GPU memory-pressure area above the capacity
//! limit that evicting the tensor removes, divided by the migration latency
//! it costs — chooses between the SSD and host memory as the destination
//! based on channel saturation and host capacity, updates its three pieces
//! of global state (pressure timeline, host occupancy, bandwidth
//! reservations), and repeats until the pressure curve fits under the GPU
//! capacity or no beneficial candidate remains.
//!
//! Because every eviction only ever *lowers* the pressure curve, candidate
//! benefits are non-increasing over the course of the search.  The
//! implementation exploits this with a lazy-greedy (CELF-style) priority
//! queue keyed on (score, period index): the top candidate is re-scored and
//! accepted if its fresh score comes within `1e-12` of the runner-up's key;
//! otherwise it is re-keyed and the loop goes on.  Keys are upper bounds on
//! fresh scores, so every accepted score is the best fresh score up to that
//! tolerance.  Among candidates tied at the best score, though, the winner is
//! the one popped first: the largest key, stale or not, with equal keys going
//! to the higher period index.  Which tied candidate wins therefore depends
//! on which keys are still stale, and re-sorting every iteration (as written
//! in Algorithm 1) could pick another.  Exact ties are common — most
//! acceptances on the paper models tie with the runner-up's key — and
//! `tests/golden_plans.rs` pins this rule, not the re-sort's.
//!
//! Each heap key is one `u128`: the score's IEEE-754 bits in the high 64
//! bits and the period index in the low 64.  Every score in the heap is
//! positive and finite: seeding keeps only candidates with benefit > 0 and
//! cost ≥ 1e-12 s, and a fresh score ≤ 0 pops its candidate instead of
//! re-keying it.  A positive finite float has its sign bit clear and its
//! exponent above its mantissa, so its bits, read as an unsigned integer,
//! order exactly as the float does.  Integer order on keys is therefore
//! exactly `(score.total_cmp, period index)` order, and the heap's sifts
//! compare two integers instead of a float and then a tie-break.
//!
//! Benefits come from [`AboveCapacity`], an index of the kernels above the
//! GPU capacity that only ever loses pressure, so a re-score descends only
//! toward kernels within the candidate's size of the capacity.
//!
//! # Select, then assign
//!
//! The scheduler is split into two steps that share one copy of the lazy
//! greedy loop:
//!
//! * **Select** ranks candidates by benefit over the *SSD* migration cost and
//!   subtracts every accepted eviction from the pressure curve, whatever its
//!   destination turns out to be.  The order it accepts periods in therefore
//!   reads only the analysis, the planning trace, `gpu_memory_bytes` and the
//!   SSD/PCIe fields of [`SystemConfig::migration_cost`].  Host capacity and
//!   the G10 variant (GDS, Host, Full) never enter it.
//! * **Assign** replays that order through the destination choice of
//!   Algorithm 1 (lines 7–17) and the channel reservations, which is where
//!   host capacity and `allow_host` come in.  It asks whether the host has
//!   room only when the answer decides something: on a saturated SSD
//!   channel, or when planning is host-only.
//!
//! Assign never reads the post-eviction pressure curve, so both entries
//! build it once, after the last placement, with [`pressure_after`].
//!
//! [`schedule_evictions`] memoises the selected order process-wide, so the
//! three variants of one cell and every point of a host-memory sweep share
//! one selection.  The key is exactly what selection reads:
//!
//! * the identity of the analysis's shared [`GraphIndex`], held as a
//!   [`Weak`] so an entry dies with its graph and its address is never
//!   reused while the entry exists;
//! * the planning [`KernelTrace`], compared exactly;
//! * `gpu_memory_bytes` and the fields `migration_cost(_, Ssd)` reads.
//!
//! [`schedule_evictions_with`] is the un-memoised entry: it runs the same
//! select loop with the assign step inline, on any timeline pair.
//! `bench_planner`, `bench_scheduler` and `tests/planner_scaling.rs` use it,
//! so their numbers measure planning, not memo hits.
//! Host-only planning (`allow_ssd: false`) skips candidates the host cannot
//! hold, which feeds back into selection, so it always takes that path.

use crate::bandwidth::{BandwidthReservation, BandwidthTimeline};
use crate::config::{Destination, SystemConfig};
use crate::pressure::{pressure_after, AboveCapacity, MemoryTimeline, PressureTimeline};
use crate::vitality::{InactivePeriod, PeriodId, PeriodRanges, VitalityAnalysis};
use g10_dnn::graph::KernelId;
use g10_dnn::index::GraphIndex;
use g10_dnn::tensor::TensorId;
use g10_dnn::trace::KernelTrace;
use g10_time::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

/// Which eviction destinations the planner may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictionOptions {
    /// Allow evicting to the SSD over the GPUDirect-Storage path.
    pub allow_ssd: bool,
    /// Allow evicting to host memory over PCIe.
    pub allow_host: bool,
}

impl EvictionOptions {
    /// Both destinations available (the full G10 design and G10-Host).
    pub fn both() -> Self {
        EvictionOptions {
            allow_ssd: true,
            allow_host: true,
        }
    }

    /// The destination used for nominal cost estimates.
    fn nominal_destination(&self) -> Destination {
        if self.allow_ssd {
            Destination::Ssd
        } else {
            Destination::Host
        }
    }
}

/// One scheduled pre-eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictionDecision {
    /// The inactive period being exploited.
    pub period: PeriodId,
    /// The tensor to evict.
    pub tensor: TensorId,
    /// Its size in bytes.
    pub bytes: u64,
    /// Where it goes.
    pub destination: Destination,
    /// The kernel after which the eviction is issued.
    pub evict_kernel: KernelId,
    /// When the eviction is issued in the ideal schedule.
    pub evict_start: Nanos,
    /// When the planner expects the eviction to complete, accounting for the
    /// bandwidth already reserved by earlier decisions.
    pub evict_complete: Nanos,
}

/// The full result of the eviction-scheduling pass.
///
/// Generic over the timeline implementations so the same algorithm runs on
/// the indexed structures (the default) and on the flat references that
/// `tests/planner_scaling.rs` plans with.
#[derive(Debug, Clone)]
pub struct EvictionSchedule<P = MemoryTimeline, B = BandwidthTimeline> {
    /// The scheduled evictions, in the order they were selected.
    pub decisions: Vec<EvictionDecision>,
    /// GPU memory pressure after applying every eviction.
    pub pressure: P,
    /// Host-memory occupancy created by host-destination evictions.
    pub host_occupancy: P,
    /// Reservation state of the GPU→SSD channel.
    pub to_ssd: B,
    /// Reservation state of the GPU→host channel.
    pub to_host: B,
}

impl<P: PressureTimeline, B> EvictionSchedule<P, B> {
    /// Bytes scheduled for eviction to host memory.
    pub fn host_bytes(&self) -> u64 {
        self.decisions
            .iter()
            .filter(|d| d.destination == Destination::Host)
            .map(|d| d.bytes)
            .sum()
    }

    /// The planned peak GPU memory pressure after the evictions.
    pub fn planned_peak_pressure(&self) -> u64 {
        self.pressure.max_value()
    }
}

/// A CELF heap key: the score's bits above the period index (see the
/// module doc for why integer order is `(score, period index)` order).
type Key = u128;

fn key(score: f64, period: PeriodId) -> Key {
    debug_assert!(
        score > 0.0 && score.is_finite(),
        "CELF scores are positive and finite, got {score}"
    );
    (u128::from(score.to_bits()) << 64) | period.index() as u128
}

fn key_score(key: Key) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

fn key_period(key: Key) -> PeriodId {
    PeriodId(key as u64 as usize)
}

/// Runs the smart eviction scheduling algorithm on the indexed timelines,
/// reusing the selected eviction order of any earlier call with the same
/// graph, planning trace, GPU capacity and SSD/PCIe costs.
///
/// `analysis` must be `VitalityAnalysis::analyze(graph, trace)` for this
/// `trace`.  An analysis whose period timings disagree with `trace` is
/// planned without the memo.
pub fn schedule_evictions(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
    options: EvictionOptions,
) -> EvictionSchedule {
    if !options.allow_ssd || !analysed_under(analysis, trace) {
        return schedule_evictions_with(analysis, trace, config, options);
    }
    let order = memoised_order(analysis, trace, config);
    let n_kernels = trace.len();
    let mut assign = Assign::new(trace, config, options);
    for &id in order.iter() {
        let period = analysis.period(id);
        // SSD-capable planning places every selected period.
        assign.place(period, period.ranges(n_kernels).as_slice());
    }
    assign.finish(analysis, trace)
}

/// Runs the smart eviction scheduling algorithm on explicit timeline
/// implementations, without the selection memo: every call plans from
/// scratch.
pub fn schedule_evictions_with<P: PressureTimeline, B: BandwidthReservation>(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
    options: EvictionOptions,
) -> EvictionSchedule<P, B> {
    let mut assign = Assign::new(trace, config, options);
    let nominal = options.nominal_destination();
    select(analysis, trace, config, nominal, |p, r| assign.place(p, r));
    assign.finish(analysis, trace)
}

/// The CELF lazy greedy of Algorithm 1 over the pressure curve
/// `analysis.live_bytes()`, with kernels timed by `trace`.  Each candidate
/// it selects, in order, is offered to `accept`, which returns whether the
/// eviction was placed; placed evictions are subtracted from the curve.
fn select(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
    nominal_dest: Destination,
    mut accept: impl FnMut(&InactivePeriod, &[(usize, usize)]) -> bool,
) {
    let capacity = config.gpu_memory_bytes;
    let mut above = AboveCapacity::new(analysis.live_bytes(), trace.durations(), capacity);
    // Interior ranges and migration costs are fixed per period: compute them
    // once instead of per candidate evaluation.
    let ranges_arena: Vec<PeriodRanges> = analysis.period_ranges(trace.len());
    let mut cost_s = vec![0.0; analysis.periods().len()];

    // Seed the lazy-greedy heap with every candidate whose inactive period is
    // long enough to cover the round-trip migration and whose eviction would
    // currently relieve pressure above the capacity limit.
    let mut heap: BinaryHeap<Key> = BinaryHeap::new();
    for period in analysis.periods() {
        let cost = config.migration_cost(period.bytes, nominal_dest);
        if period.length() <= cost {
            continue;
        }
        let ranges = ranges_arena[period.id.index()].as_slice();
        if ranges.is_empty() {
            continue;
        }
        let benefit = above.reduction(ranges, period.bytes);
        if benefit <= 0.0 {
            continue;
        }
        let cost = cost.as_secs_f64().max(1e-12);
        cost_s[period.id.index()] = cost;
        heap.push(key(benefit / cost, period.id));
    }

    while above.any_above() {
        let runner_up = runner_up_score(&heap);
        let Some(mut top) = heap.peek_mut() else {
            break;
        };
        let id = key_period(*top);
        let period = analysis.period(id);
        let ranges = ranges_arena[id.index()].as_slice();
        let fresh_score = above.reduction(ranges, period.bytes) / cost_s[id.index()];
        if fresh_score <= 0.0 {
            // Benefits only shrink, so this candidate is permanently useless.
            PeekMut::pop(top);
            continue;
        }
        if runner_up.is_some_and(|next| fresh_score + 1e-12 < next) {
            // Re-key in place; the heap sifts it down when `top` drops.
            // Keys are distinct (each period is in the heap at most once),
            // so the pop order matches a pop followed by a push.
            *top = key(fresh_score, id);
            continue;
        }
        PeekMut::pop(top);
        if accept(period, ranges) {
            above.sub(ranges, period.bytes);
        }
    }
}

/// The key of the heap's second-best candidate: the larger of the root's
/// two children in `BinaryHeap`'s array layout.
fn runner_up_score(heap: &BinaryHeap<Key>) -> Option<f64> {
    heap.as_slice()
        .iter()
        .skip(1)
        .take(2)
        .max()
        .map(|&k| key_score(k))
}

/// The assign step: destination choice and channel reservations for each
/// selected period, in selection order.
struct Assign<'a, P, B> {
    config: &'a SystemConfig,
    options: EvictionOptions,
    host_occupancy: P,
    to_ssd: B,
    to_host: B,
    decisions: Vec<EvictionDecision>,
}

impl<'a, P: PressureTimeline, B: BandwidthReservation> Assign<'a, P, B> {
    fn new(trace: &KernelTrace, config: &'a SystemConfig, options: EvictionOptions) -> Self {
        let horizon = trace.total_duration();
        let bin = BandwidthTimeline::default_bin_width();
        Assign {
            config,
            options,
            host_occupancy: P::zeroed(trace.len()),
            to_ssd: B::with_rate(config.evict_bytes_per_sec(Destination::Ssd), horizon, bin),
            to_host: B::with_rate(config.evict_bytes_per_sec(Destination::Host), horizon, bin),
            decisions: Vec::new(),
        }
    }

    /// Picks the destination of one selected period (Algorithm 1, lines
    /// 7–17), reserves its channel and records the decision.  Returns
    /// `false` only for host-only planning with no host room left, in which
    /// case nothing is recorded.
    fn place(&mut self, period: &InactivePeriod, ranges: &[(usize, usize)]) -> bool {
        let config = self.config;
        let t_r = period.start_time;
        let ssd_window = config.evict_time(period.bytes, Destination::Ssd);
        // A range query, so it runs only when its answer decides something:
        // on a saturated SSD channel or when planning is host-only.
        let host_fits = || {
            self.options.allow_host
                && self
                    .host_occupancy
                    .fits_extra(ranges, period.bytes, config.host_memory_bytes)
        };
        let destination = if self.options.allow_ssd {
            if self.to_ssd.is_saturated(period.bytes, t_r, ssd_window) && host_fits() {
                Destination::Host
            } else {
                Destination::Ssd
            }
        } else if host_fits() {
            Destination::Host
        } else {
            return false;
        };

        let evict_complete = match destination {
            Destination::Ssd => self.to_ssd.reserve(period.bytes, t_r),
            Destination::Host => {
                self.host_occupancy.add(ranges, period.bytes as i64);
                self.to_host.reserve(period.bytes, t_r)
            }
        };
        self.decisions.push(EvictionDecision {
            period: period.id,
            tensor: period.tensor,
            bytes: period.bytes,
            destination,
            evict_kernel: period.start_kernel,
            evict_start: t_r,
            evict_complete,
        });
        true
    }

    /// The schedule, with the pressure curve after every placed eviction
    /// built in one pass.
    fn finish(self, analysis: &VitalityAnalysis, trace: &KernelTrace) -> EvictionSchedule<P, B> {
        let n_kernels = trace.len();
        let pressure = pressure_after(
            analysis.live_bytes(),
            self.decisions
                .iter()
                .map(|d| (analysis.period(d.period).ranges(n_kernels), d.bytes)),
        );
        EvictionSchedule {
            decisions: self.decisions,
            pressure,
            host_occupancy: self.host_occupancy,
            to_ssd: self.to_ssd,
            to_host: self.to_host,
        }
    }
}

/// Whether every period of `analysis` is timed by `trace`, i.e. the
/// analysis was derived from the trace it is planned against.
fn analysed_under(analysis: &VitalityAnalysis, trace: &KernelTrace) -> bool {
    analysis.live_bytes().len() == trace.len()
        && analysis.iteration_time() == trace.total_duration()
        && analysis.periods().iter().all(|p| {
            let end = if p.wraps_iteration {
                trace.total_duration() + trace.start_time(p.end_kernel)
            } else {
                trace.start_time(p.end_kernel)
            };
            p.start_time == trace.end_time(p.start_kernel) && p.end_time == end
        })
}

/// Every [`SystemConfig`] field selection reads: the capacity it packs
/// under, and the inputs of `migration_cost(_, Destination::Ssd)`.
fn selection_config(config: &SystemConfig) -> [u64; 6] {
    [
        config.gpu_memory_bytes,
        config.pcie_bytes_per_sec.to_bits(),
        config.ssd_read_bytes_per_sec.to_bits(),
        config.ssd_write_bytes_per_sec.to_bits(),
        config.ssd_read_latency.as_nanos(),
        config.ssd_write_latency.as_nanos(),
    ]
}

/// One memoised selection.  `order` is filled once by whichever thread
/// looks the key up first; concurrent lookups of the same key wait for it
/// instead of selecting twice.  Entries over one graph and one trace share
/// that trace's copy.
struct Selection {
    graph: Weak<GraphIndex>,
    config: [u64; 6],
    trace: Arc<KernelTrace>,
    order: Arc<OnceLock<Arc<[PeriodId]>>>,
}

static SELECTIONS: Mutex<Vec<Selection>> = Mutex::new(Vec::new());

/// The selected eviction order for this key, computed on first use.
fn memoised_order(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
) -> Arc<[PeriodId]> {
    let graph = Arc::downgrade(analysis.graph_index());
    let key = selection_config(config);
    let slot = {
        // A panicking holder cannot leave the list half-updated (`retain`
        // and `push` keep it valid at every step), so a poisoned lock is
        // safe to reuse.
        let mut memo = SELECTIONS.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = memo
            .iter()
            .find(|s| s.graph.ptr_eq(&graph) && s.config == key && *s.trace == *trace);
        match hit {
            Some(selection) => Arc::clone(&selection.order),
            None => {
                memo.retain(|s| s.graph.strong_count() > 0);
                let shared = memo
                    .iter()
                    .find(|s| s.graph.ptr_eq(&graph) && *s.trace == *trace)
                    .map(|s| Arc::clone(&s.trace));
                let order = Arc::new(OnceLock::new());
                memo.push(Selection {
                    graph,
                    config: key,
                    trace: shared.unwrap_or_else(|| Arc::new(trace.clone())),
                    order: Arc::clone(&order),
                });
                order
            }
        }
    };
    Arc::clone(slot.get_or_init(|| {
        let mut order = Vec::new();
        select(analysis, trace, config, Destination::Ssd, |p, _| {
            order.push(p.id);
            true
        });
        order.into()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use g10_dnn::cost::GpuCostModel;
    use g10_dnn::graph::DnnGraph;
    use g10_dnn::models::{build_model, ModelKind};

    fn setup(gpu_bytes: u64) -> (VitalityAnalysis, KernelTrace, SystemConfig) {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let analysis = VitalityAnalysis::analyze(&graph, &trace);
        let config = SystemConfig::table2().with_gpu_memory(gpu_bytes);
        (analysis, trace, config)
    }

    #[test]
    fn no_evictions_when_memory_is_plentiful() {
        let (analysis, trace, config) = setup(1 << 40);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(schedule.decisions.is_empty());
        assert_eq!(schedule.planned_peak_pressure(), analysis.peak_live_bytes());
    }

    #[test]
    fn evictions_reduce_peak_pressure_under_a_small_gpu() {
        let (analysis, trace, config) = setup(64 << 20);
        assert!(analysis.peak_live_bytes() > config.gpu_memory_bytes);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(!schedule.decisions.is_empty());
        assert!(schedule.planned_peak_pressure() < analysis.peak_live_bytes());
        // Every decision respects its period's timing.
        for d in &schedule.decisions {
            let p = analysis.period(d.period);
            assert_eq!(d.tensor, p.tensor);
            assert_eq!(d.evict_start, p.start_time);
            assert!(d.evict_complete >= d.evict_start);
        }
    }

    #[test]
    fn no_tensor_is_evicted_twice_in_the_same_period() {
        let (analysis, trace, config) = setup(64 << 20);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        let mut seen = std::collections::HashSet::new();
        for d in &schedule.decisions {
            assert!(seen.insert(d.period), "period scheduled twice");
        }
    }

    #[test]
    fn gds_only_never_uses_host_memory() {
        let (analysis, trace, config) = setup(64 << 20);
        let ssd_only = EvictionOptions {
            allow_ssd: true,
            allow_host: false,
        };
        let schedule = schedule_evictions(&analysis, &trace, &config, ssd_only);
        assert!(!schedule.decisions.is_empty());
        assert_eq!(schedule.host_bytes(), 0);
        assert_eq!(schedule.host_occupancy.max_value(), 0);
    }

    #[test]
    fn host_traffic_appears_when_the_ssd_channel_saturates() {
        // Shrink the SSD bandwidth so the planner is forced to spill to host.
        let (analysis, trace, mut config) = setup(48 << 20);
        config = config.with_ssd_bandwidth(50e6);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(
            schedule.host_bytes() > 0,
            "a saturated SSD channel should push evictions to host memory"
        );
    }

    #[test]
    fn host_occupancy_respects_the_host_capacity() {
        let (analysis, trace, mut config) = setup(48 << 20);
        config = config.with_ssd_bandwidth(50e6).with_host_memory(32 << 20);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(schedule.host_occupancy.max_value() <= config.host_memory_bytes);
    }

    #[test]
    fn decisions_prefer_long_beneficial_periods_first() {
        let (analysis, trace, config) = setup(64 << 20);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(schedule.decisions.len() >= 2);
        // The first selected candidate must have at least as large an initial
        // benefit/cost score as the second (greedy order).
        let fresh = AboveCapacity::new(
            analysis.live_bytes(),
            trace.durations(),
            config.gpu_memory_bytes,
        );
        let score = |d: &EvictionDecision| {
            let p = analysis.period(d.period);
            fresh.reduction(p.ranges(trace.len()).as_slice(), p.bytes)
                / config
                    .migration_cost(p.bytes, Destination::Ssd)
                    .as_secs_f64()
        };
        assert!(score(&schedule.decisions[0]) + 1e-9 >= score(&schedule.decisions[1]));
    }

    #[test]
    fn packed_keys_order_as_score_then_period() {
        let scores = [
            f64::from_bits(1), // the smallest subnormal
            f64::from_bits(2),
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_up(),
            1e-12,
            0.5,
            1.0,
            1.0f64.next_up(),
            1.0f64.next_up().next_up(),
            3.0,
            1e300,
            f64::MAX.next_down(),
            f64::MAX,
        ];
        let periods = [
            0,
            1,
            2,
            u32::MAX as usize,
            u32::MAX as usize + 1,
            (u64::MAX >> 1) as usize,
            u64::MAX as usize,
        ];
        let cases: Vec<(f64, PeriodId)> = scores
            .iter()
            .flat_map(|&s| periods.iter().map(move |&p| (s, PeriodId(p))))
            .collect();
        for &(s, p) in &cases {
            assert_eq!(key_score(key(s, p)).to_bits(), s.to_bits());
            assert_eq!(key_period(key(s, p)), p);
            for &(t, q) in &cases {
                let expected = s.total_cmp(&t).then(p.index().cmp(&q.index()));
                assert_eq!(
                    key(s, p).cmp(&key(t, q)),
                    expected,
                    "({s:e}, {p:?}) vs ({t:e}, {q:?})"
                );
            }
        }
    }

    #[test]
    fn the_runner_up_is_the_best_key_after_the_top() {
        // `runner_up_score` reads the root's children of `BinaryHeap`'s
        // array layout; check it against popping, with tied scores.
        let mut heap = BinaryHeap::new();
        assert_eq!(runner_up_score(&heap), None);
        for i in 0..200u64 {
            heap.push(key(((i * 7919) % 37 + 1) as f64, PeriodId(i as usize)));
        }
        while !heap.is_empty() {
            let mut rest = heap.clone();
            rest.pop();
            assert_eq!(runner_up_score(&heap), rest.peek().map(|&k| key_score(k)));
            // Re-key the top in place, as selection does, then drop the
            // new top.
            if let Some(mut top) = heap.peek_mut() {
                let lowered = key_score(*top) - 3.0;
                if lowered > 0.0 {
                    *top = key(lowered, key_period(*top));
                }
            }
            heap.pop();
        }
    }

    /// Memo entries whose graph is `graph`.
    fn entries_for(graph: &Weak<GraphIndex>) -> usize {
        let memo = SELECTIONS.lock().unwrap_or_else(PoisonError::into_inner);
        memo.iter().filter(|s| s.graph.ptr_eq(graph)).count()
    }

    fn plan(graph: &DnnGraph, trace: &KernelTrace, config: &SystemConfig) -> EvictionSchedule {
        let analysis = VitalityAnalysis::analyze(graph, trace);
        schedule_evictions(&analysis, trace, config, EvictionOptions::both())
    }

    #[test]
    fn the_memo_key_is_graph_trace_gpu_capacity_and_ssd_costs() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(64 << 20);
        let key = Arc::downgrade(&graph.shared_index());
        plan(&graph, &trace, &config);
        assert_eq!(entries_for(&key), 1);

        // Host capacity and variant are not in the key: hits.
        plan(&graph, &trace, &config.with_host_memory(0));
        let analysis = VitalityAnalysis::analyze(&graph, &trace);
        let ssd_only = EvictionOptions {
            allow_ssd: true,
            allow_host: false,
        };
        schedule_evictions(&analysis, &trace, &config, ssd_only);
        assert_eq!(entries_for(&key), 1);

        // Everything selection reads is: misses.
        plan(&graph, &trace, &config.with_ssd_bandwidth(6.4e9));
        assert_eq!(entries_for(&key), 2);
        plan(&graph, &trace.with_noise(0.2, 7), &config);
        assert_eq!(entries_for(&key), 3);
        plan(&graph, &trace, &config.with_gpu_memory(48 << 20));
        assert_eq!(entries_for(&key), 4);
        let rebuilt = build_model(ModelKind::TinyCnn, 64);
        plan(&rebuilt, &trace, &config);
        assert_eq!(entries_for(&key), 4);
        assert_eq!(entries_for(&Arc::downgrade(&rebuilt.shared_index())), 1);
    }

    #[test]
    fn entries_over_one_graph_and_trace_share_one_trace() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(64 << 20);
        let key = Arc::downgrade(&graph.shared_index());
        plan(&graph, &trace, &config);
        plan(&graph, &trace, &config.with_gpu_memory(48 << 20));
        let memo = SELECTIONS.lock().unwrap_or_else(PoisonError::into_inner);
        let traces: Vec<&Arc<KernelTrace>> = memo
            .iter()
            .filter(|s| s.graph.ptr_eq(&key))
            .map(|s| &s.trace)
            .collect();
        assert_eq!(traces.len(), 2);
        assert!(Arc::ptr_eq(traces[0], traces[1]));
    }

    #[test]
    fn an_analysis_of_another_trace_bypasses_the_memo() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let noisy = VitalityAnalysis::analyze(&graph, &trace.with_noise(0.2, 7));
        let config = SystemConfig::table2().with_gpu_memory(64 << 20);
        let options = EvictionOptions::both();
        let memoised = schedule_evictions(&noisy, &trace, &config, options);
        let direct = schedule_evictions_with::<MemoryTimeline, BandwidthTimeline>(
            &noisy, &trace, &config, options,
        );
        assert_eq!(memoised.decisions, direct.decisions);
        assert_eq!(entries_for(&Arc::downgrade(&graph.shared_index())), 0);
    }

    #[test]
    fn entries_are_pruned_once_their_graph_is_dropped() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(64 << 20);
        // Holding a `Weak` of our own keeps the address from being reused.
        let key = Arc::downgrade(&graph.shared_index());
        plan(&graph, &trace, &config);
        assert_eq!(entries_for(&key), 1);
        drop(graph);
        assert_eq!(key.strong_count(), 0);
        // The next insertion sweeps dead entries.
        let other = build_model(ModelKind::TinyCnn, 32);
        plan(
            &other,
            &KernelTrace::profile(&other, &GpuCostModel::a100()),
            &config,
        );
        assert_eq!(entries_for(&key), 0);
    }
}
