//! The [`Lab`]: one owner for everything the experiment pipeline reuses —
//! the profiled workloads, one report slot per canonical simulation cell,
//! the optional persistent [`RunStore`] and the lookup counters.
//!
//! The `experiments` binary builds one per process from `--cache-dir`,
//! `G10_CACHE_DIR` and `--no-cache` and hands it to every driver; the
//! serve daemon's workers share it through an `Arc`; each test builds its
//! own, so tests share no cache and no counter.  Cell lookups never wait
//! on each other: the figure grid deduplicates its cells up front.  The
//! one process-wide `static` here is the store-less default `Lab` behind
//! the shims perfbench calls ([`crate::experiments::cached_run`] and its
//! siblings); it goes with them under ROADMAP item 4b, and CI fails if
//! anything else in this crate calls it.

use crate::store::{RunKey, RunStore};
use g10_core::config::SystemConfig;
use g10_dnn::models::ModelKind;
use g10_sim::{
    CancelRecord, Experiment, OnPolicyFault, PolicyKind, PolicySpec, RuntimeOptions, SimError,
    SimReport, Validate, Workload,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-cell once-init slots: the map lock is held only to hand out a slot.
/// A workload builds inside its slot, so racers wait for one build; a
/// report replays first, and its slot keeps the first one stored.
type SlotMap<K, T> = Mutex<HashMap<K, Arc<OnceLock<T>>>>;

fn cell_slot<K: Hash + Eq, T>(slots: &SlotMap<K, T>, key: K) -> Arc<OnceLock<T>> {
    let mut slots = slots.lock().expect("cell cache poisoned");
    slots.entry(key).or_default().clone()
}

/// Where a cell lookup was served from; the serve daemon's `source` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Both caches missed: the cell was simulated (and persisted).
    Replayed,
    /// Served from the `Lab`'s in-memory cell map.
    MemoryHit,
    /// Served from the persistent on-disk store.
    DiskHit,
}

/// A `Lab`'s cumulative cell-lookup counters — see [`Lab::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCacheStats {
    /// Cells actually simulated (in-memory and disk caches both missed).
    pub replayed: u64,
    /// Lookups served by the in-memory cell map.
    pub memory_hits: u64,
    /// First touches served from the persistent on-disk store.
    pub disk_hits: u64,
}

impl RunCacheStats {
    /// The one-line summary the `experiments` binary prints.
    pub fn summary(&self) -> String {
        format!(
            "simulation cells: {} replayed, {} memory hits, {} disk hits",
            self.replayed, self.memory_hits, self.disk_hits
        )
    }
}

/// The workloads, cell reports, store and counters of one experiment
/// session — see the [module docs](self).
#[derive(Debug, Default)]
pub struct Lab {
    workloads: SlotMap<(ModelKind, u64), Arc<Workload>>,
    /// Keyed by model, batch, policy and [`SystemConfig::cache_key`].
    reports: SlotMap<(ModelKind, u64, PolicyKind, [u64; 12]), Arc<SimReport>>,
    store: Option<RunStore>,
    replayed: AtomicU64,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
}

impl Lab {
    /// An empty `Lab`; with a `store`, cell misses consult it before
    /// replaying and persist what they replay.
    pub fn new(store: Option<RunStore>) -> Lab {
        Lab {
            store,
            ..Lab::default()
        }
    }

    /// The persistent store, if this `Lab` has one.
    pub fn store(&self) -> Option<&RunStore> {
        self.store.as_ref()
    }

    /// The lookup counters so far.
    pub fn stats(&self) -> RunCacheStats {
        RunCacheStats {
            replayed: self.replayed.load(Ordering::Relaxed),
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }

    /// The profiled workload of `model` at `batch`, built once: a graph
    /// build costs far more than a replay, and the drivers revisit the same
    /// (model, batch) cells.
    pub fn workload(&self, model: ModelKind, batch: u64) -> Arc<Workload> {
        let slot = cell_slot(&self.workloads, (model, batch));
        slot.get_or_init(|| Arc::new(Workload::new(model, batch)))
            .clone()
    }

    /// The canonical report of a built-in cell: [`Lab::cell`] under default
    /// options, so it cannot fail.
    pub fn run(
        &self,
        model: ModelKind,
        batch: u64,
        policy: PolicyKind,
        config: &SystemConfig,
    ) -> Arc<SimReport> {
        let spec = PolicySpec::Builtin(policy);
        let options = RuntimeOptions::default();
        let cell = self.cell(model, batch, &spec, config, &options);
        cell.expect("built-in policies always resolve").0
    }

    /// Looks up one cell, reporting where it came from (`None` for a
    /// direct replay).
    ///
    /// Only canonical runs are cached: a built-in design with no fault
    /// plan, no fallback and no forced audit.  Hardened reports would
    /// poison the key, and custom policies are process-local, so both
    /// replay directly under `options`.  A canonical lookup tries the cell
    /// map, then the store, then replays under default options plus
    /// `options.cancel`.  It never blocks, so no lookup waits on another's
    /// replay or budget: racers each replay and the first to finish fills
    /// the slot; a cancelled run neither memoises nor persists anything;
    /// an already-fired token refuses even a hit.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] of a direct replay; [`SimError::DeadlineExceeded`]
    /// or [`SimError::Cancelled`] when the token fires.
    pub fn cell(
        &self,
        model: ModelKind,
        batch: u64,
        spec: &PolicySpec,
        config: &SystemConfig,
        options: &RuntimeOptions,
    ) -> Result<(Arc<SimReport>, Option<CacheOutcome>), SimError> {
        let canonical = options.fault_plan.is_none()
            && matches!(options.on_policy_fault, OnPolicyFault::Fail)
            && !matches!(options.validate, Validate::Always);
        let policy = match spec {
            PolicySpec::Builtin(policy) if canonical => *policy,
            _ => {
                return Experiment::new(&self.workload(model, batch))
                    .config(*config)
                    .policy(spec.clone())
                    .options(options.clone())
                    .run()
                    .map(|report| (Arc::new(report), None))
            }
        };
        let cancel = options.cancel.as_ref();
        if let Some(kind) = cancel.and_then(|token| token.fired(0)) {
            let policy = policy.label().to_string();
            return Err(CancelRecord {
                policy,
                step: 0,
                kind,
            }
            .into());
        }
        let config_key = config.cache_key();
        let slot = cell_slot(&self.reports, (model, batch, policy, config_key));
        if let Some(report) = slot.get() {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((report.clone(), Some(CacheOutcome::MemoryHit)));
        }
        // A miss: the store's entry, else a replay, persisted on success (a
        // failed write only warns).
        let key = RunKey {
            model: model.name().to_string(),
            batch,
            policy: policy.label().to_string(),
            config: config_key,
        };
        let stored = self.store.as_ref().and_then(|store| store.load(&key));
        let (report, outcome, counter) = match stored {
            Some(report) => (report, CacheOutcome::DiskHit, &self.disk_hits),
            None => {
                let report = Experiment::new(&self.workload(model, batch))
                    .policy(policy)
                    .config(*config)
                    .options(RuntimeOptions {
                        cancel: cancel.cloned(),
                        ..RuntimeOptions::default()
                    })
                    .run()?;
                if let Some(store) = &self.store {
                    if let Err(err) = store.save(&key, &report) {
                        let path = store.entry_path(&key);
                        eprintln!(
                            "warning: could not persist run-cache entry {}: {err}",
                            path.display()
                        );
                    }
                }
                (report, CacheOutcome::Replayed, &self.replayed)
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok((slot.get_or_init(|| Arc::new(report)).clone(), Some(outcome)))
    }
}

/// The store-less process-default `Lab` behind perfbench's shims.
pub(crate) fn default_lab() -> &'static Lab {
    static DEFAULT: OnceLock<Lab> = OnceLock::new();
    DEFAULT.get_or_init(Lab::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_labs_keep_independent_caches_and_counters() {
        let (a, b) = (Lab::default(), Lab::default());
        let config = SystemConfig::table2().with_gpu_memory(48 << 20);
        let run = |lab: &Lab| lab.run(ModelKind::TinyCnn, 8, PolicyKind::Ideal, &config);
        let tally = |lab: &Lab| (lab.stats().replayed, lab.stats().memory_hits);
        assert_eq!(run(&a), run(&b), "each Lab replays the same report");
        assert_eq!((tally(&a), tally(&b)), ((1, 0), (1, 0)));
        run(&a);
        assert_eq!((tally(&a), tally(&b)), ((1, 1), (1, 0)), "b sees none of a");
        assert_eq!(a.stats().disk_hits + b.stats().disk_hits, 0);
    }
}
