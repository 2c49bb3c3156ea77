//! Smart tensor prefetching (§4.4).
//!
//! For every evicted inactive period the planner first computes the *latest
//! safe prefetch time* — the point at which the prefetch must start so the
//! data is back exactly when the tensor turns active again.  It then
//! reschedules prefetches *eagerly*: processing periods in order of their
//! latest safe time, it walks backwards from the tensor's next use while the
//! GPU still has room to hold it, and schedules the prefetch at the earliest
//! such point.  Eager prefetching is what makes G10 robust to profiling
//! error (§7.6): data tends to be resident well before it is needed.

use crate::config::{Destination, SystemConfig};
use crate::eviction::EvictionDecision;
use crate::pressure::PressureTimeline;
use crate::vitality::{PeriodId, VitalityAnalysis};
use g10_dnn::graph::KernelId;
use g10_dnn::tensor::TensorId;
use g10_dnn::trace::KernelTrace;
use g10_time::Nanos;
use serde::{Deserialize, Serialize};

/// One scheduled prefetch, paired 1:1 with an [`EvictionDecision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchDecision {
    /// The inactive period whose eviction this prefetch undoes.
    pub period: PeriodId,
    /// The tensor to bring back.
    pub tensor: TensorId,
    /// Its size in bytes.
    pub bytes: u64,
    /// Where it currently lives.
    pub source: Destination,
    /// The kernel before which the prefetch is issued.
    pub prefetch_kernel: KernelId,
    /// When the prefetch is issued in the ideal schedule.
    pub prefetch_time: Nanos,
    /// The latest time the prefetch could have started without stalling the
    /// consuming kernel (assuming an uncontended channel).
    pub latest_safe_time: Nanos,
}

impl PrefetchDecision {
    /// How much earlier than strictly necessary the prefetch was scheduled —
    /// the slack that absorbs profiling error.
    pub fn slack(&self) -> Nanos {
        self.latest_safe_time.saturating_sub(self.prefetch_time)
    }
}

/// Schedules a prefetch for every eviction, applying the eager rescheduling
/// of §4.4, and updates `pressure` to account for tensors becoming resident
/// earlier than strictly necessary.
pub fn schedule_prefetches<P: PressureTimeline>(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
    evictions: &[EvictionDecision],
    pressure: &mut P,
) -> Vec<PrefetchDecision> {
    let capacity = config.gpu_memory_bytes;

    // Latest-safe prefetch times, computed per eviction.
    let mut order: Vec<(Nanos, usize)> = evictions
        .iter()
        .enumerate()
        .map(|(idx, ev)| {
            let period = analysis.period(ev.period);
            let prefetch_cost = config.prefetch_time(ev.bytes, ev.destination);
            let latest_safe = period.end_time.saturating_sub(prefetch_cost);
            (latest_safe, idx)
        })
        .collect();
    // Traverse in order of latest safe prefetch time (§4.4).
    order.sort_by_key(|(t, _)| *t);

    let mut decisions = vec![None; evictions.len()];
    for (latest_safe, idx) in order {
        let ev = &evictions[idx];
        let period = analysis.period(ev.period);
        let end_kernel = period.end_kernel.index();

        // Eager rescheduling: the backward walk from the consuming kernel —
        // "while the GPU can hold the tensor for the entire tail
        // [j, end_kernel), step j down" — answered in one O(log n)
        // `latest_fit` query instead of O(K) suffix scans.  Wrap-around
        // periods (weights coming back at the top of the next iteration)
        // keep their latest-safe schedule.
        let (prefetch_kernel, resident_from) = if period.wraps_iteration {
            (period.end_kernel, end_kernel)
        } else {
            let floor = period.start_kernel.index() + 1;
            let j = pressure.latest_fit(floor, end_kernel, ev.bytes, capacity);
            (KernelId::new(j as u32), j)
        };

        // The prefetch cannot start before its eviction finished.
        let eager_time = trace.start_time(prefetch_kernel);
        let prefetch_time = eager_time.min(latest_safe).max(ev.evict_complete);

        if resident_from < end_kernel {
            pressure.add(&[(resident_from, end_kernel)], ev.bytes as i64);
        }

        decisions[idx] = Some(PrefetchDecision {
            period: ev.period,
            tensor: ev.tensor,
            bytes: ev.bytes,
            source: ev.destination,
            prefetch_kernel,
            prefetch_time,
            latest_safe_time: latest_safe,
        });
    }

    decisions
        .into_iter()
        .map(|d| d.expect("every eviction gets a prefetch"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::{schedule_evictions, EvictionOptions};
    use g10_dnn::cost::GpuCostModel;
    use g10_dnn::models::{build_model, ModelKind};

    fn planned(
        gpu_bytes: u64,
    ) -> (
        VitalityAnalysis,
        KernelTrace,
        SystemConfig,
        Vec<EvictionDecision>,
        Vec<PrefetchDecision>,
    ) {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let analysis = VitalityAnalysis::analyze(&graph, &trace);
        let config = SystemConfig::table2().with_gpu_memory(gpu_bytes);
        let mut schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        let prefetches = schedule_prefetches(
            &analysis,
            &trace,
            &config,
            &schedule.decisions,
            &mut schedule.pressure,
        );
        (analysis, trace, config, schedule.decisions, prefetches)
    }

    #[test]
    fn every_eviction_gets_exactly_one_prefetch() {
        let (_, _, _, evictions, prefetches) = planned(64 << 20);
        assert!(!evictions.is_empty());
        assert_eq!(evictions.len(), prefetches.len());
        for (e, p) in evictions.iter().zip(&prefetches) {
            assert_eq!(e.period, p.period);
            assert_eq!(e.tensor, p.tensor);
            assert_eq!(e.destination, p.source);
        }
    }

    #[test]
    fn prefetches_are_scheduled_no_later_than_the_latest_safe_time() {
        let (analysis, trace, _, evictions, prefetches) = planned(64 << 20);
        for (e, p) in evictions.iter().zip(&prefetches) {
            let period = analysis.period(e.period);
            // The prefetch must target the kernel that needs the tensor (or
            // an earlier one).
            if !period.wraps_iteration {
                assert!(p.prefetch_kernel <= period.end_kernel);
                assert!(p.prefetch_kernel > period.start_kernel);
                // Issued no earlier than the eviction completes.
                assert!(p.prefetch_time >= e.evict_complete);
                // Either it meets the latest-safe deadline, or the deadline
                // was already missed because the eviction itself finished too
                // late (the runtime will absorb that as a stall).
                assert!(
                    p.prefetch_time <= p.latest_safe_time || e.evict_complete > p.latest_safe_time
                );
            }
            let _ = trace.len();
        }
    }

    #[test]
    fn eager_prefetching_creates_slack() {
        let (_, _, _, _, prefetches) = planned(64 << 20);
        let with_slack = prefetches
            .iter()
            .filter(|p| p.slack() > Nanos::ZERO)
            .count();
        assert!(
            with_slack > 0,
            "eager rescheduling should move at least some prefetches earlier"
        );
    }

    #[test]
    fn pressure_after_prefetch_stays_under_capacity_when_evictions_sufficed() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let analysis = VitalityAnalysis::analyze(&graph, &trace);
        // Generous capacity: half the peak, which the tiny model can satisfy.
        let config = SystemConfig::table2().with_gpu_memory(analysis.peak_live_bytes() / 2);
        let mut schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        let planned_peak = schedule.pressure.max_value();
        let _ = schedule_prefetches(
            &analysis,
            &trace,
            &config,
            &schedule.decisions,
            &mut schedule.pressure,
        );
        // Eager prefetching never pushes the planned pressure beyond capacity
        // (it only fills head-room), unless evictions already failed to fit.
        if planned_peak <= config.gpu_memory_bytes {
            assert!(schedule.pressure.max_value() <= config.gpu_memory_bytes);
        }
    }
}
