//! Persistent on-disk run-cache store.
//!
//! A [`Lab`](crate::lab::Lab) deduplicates the experiment grid within one
//! process; this module extends that across processes: each
//! `(model, batch, policy, config cache key, schema version)`
//! cell is a content-addressed file under the store root, so a repeated
//! `experiments` invocation — or a CI job rerunning the grid — serves every
//! previously-computed [`SimReport`] from disk instead of replaying it.
//!
//! Robustness rules, in order of importance:
//!
//! * **Never serve a wrong report.** Every entry embeds a magic header, the
//!   schema version, a full echo of its key, and a trailing FNV-1a checksum
//!   over everything before it.  A load that fails any of those checks —
//!   truncated file, garbage bytes, version mismatch, or a (vanishingly
//!   unlikely) filename-hash collision — returns `None` and the caller
//!   replays; corruption can cost time, never correctness.
//! * **Safe under concurrency.** Writers serialise to a process+sequence
//!   unique temp file in the store directory and `rename` it into place, so
//!   readers — in this process or another — only ever observe complete
//!   entries.  Two processes racing on the same cell both write valid files
//!   for the same deterministic report; last rename wins.  The sequence is
//!   the module's one process-wide `static`, `TMP_SEQ` in
//!   [`RunStore::save`]: temp names must be unique across every store open
//!   on one directory in the process, not only within one `RunStore`.
//! * **Invalidation is structural.** The key embeds
//!   [`SystemConfig::cache_key`](g10_core::config::SystemConfig::cache_key)
//!   (which fails to compile if `SystemConfig`
//!   grows a field) and [`SCHEMA_VERSION`], which must be bumped whenever
//!   the entry layout *or* simulator behaviour changes (a golden-report
//!   re-bless is the signal); stale entries then miss cleanly.

use g10_sim::{FaultRecord, PolicyFaultKind, SimReport};
use g10_time::Nanos;
use g10_uvm::TrafficStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{fs, io, process};

/// Leading bytes of every store entry.
pub const MAGIC: &[u8; 8] = b"G10RUNS\n";

/// Layout + behaviour version of store entries.  Bump on any change to the
/// encoding below **or** to simulator output (see the golden-report
/// snapshots); old entries are then ignored rather than misread.
///
/// v2: `SimReport` gained the `policy_fault` field (fallback-degradation
/// provenance), appended to the entry payload.
pub const SCHEMA_VERSION: u32 = 2;

/// File extension of store entries.
pub const ENTRY_EXTENSION: &str = "g10run";

/// FNV-1a over a byte stream — the store's checksum (same family as the
/// golden-snapshot fingerprints, but over bytes rather than `u64` words).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// The identity of one cached simulation cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Model display name (`ModelKind::name`).
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// Policy display label (`PolicyKind::label`).
    pub policy: String,
    /// Hardware fingerprint ([`g10_core::config::SystemConfig::cache_key`]).
    pub config: [u64; 12],
}

impl RunKey {
    /// Content hash of the key (schema version included), used as the
    /// distinguishing part of the entry's filename.
    pub fn content_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&(SCHEMA_VERSION as u64).to_le_bytes());
        push_str(&mut bytes, &self.model);
        bytes.extend_from_slice(&self.batch.to_le_bytes());
        push_str(&mut bytes, &self.policy);
        for word in self.config {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        checksum(&bytes)
    }

    /// The entry filename: a human-scannable prefix plus the content hash.
    pub fn file_name(&self) -> String {
        format!(
            "{}_b{}_{}_{:016x}.{ENTRY_EXTENSION}",
            slug(&self.model),
            self.batch,
            slug(&self.policy),
            self.content_hash()
        )
    }
}

/// Lowercases and maps non-alphanumerics to `-` for use in filenames
/// (`"Base UVM"` → `"base-uvm"`).
fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// A directory of content-addressed [`SimReport`] entries.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<RunStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(RunStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: &RunKey) -> PathBuf {
        self.root.join(key.file_name())
    }

    /// Loads the report cached for `key`, or `None` if the entry is absent,
    /// truncated, corrupt, from another schema version, or keyed to a
    /// different cell (the caller should replay and [`RunStore::save`]).
    pub fn load(&self, key: &RunKey) -> Option<SimReport> {
        let bytes = fs::read(self.entry_path(key)).ok()?;
        decode_entry(&bytes, key)
    }

    /// Atomically persists `report` as the entry for `key`.
    ///
    /// The entry is staged in a uniquely named temp file in the store
    /// directory and renamed into place, so concurrent readers (and
    /// writers, in this process or another) never observe a partial entry.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if staging or renaming fails; the caller
    /// already holds the report, so a failed save only costs future hits.
    pub fn save(&self, key: &RunKey, report: &SimReport) -> io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let bytes = encode_entry(key, report);
        let final_path = self.entry_path(key);
        let tmp_path = self.root.join(format!(
            ".{:016x}.{}.{}.tmp",
            key.content_hash(),
            process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp_path, &bytes)?;
        let renamed = fs::rename(&tmp_path, &final_path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp_path);
        }
        renamed
    }

    /// Number of (plausible) entries currently in the store — files with
    /// the entry extension; used by smoke checks and tests.
    pub fn entry_count(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.path()
                    .extension()
                    .is_some_and(|ext| ext == ENTRY_EXTENSION)
            })
            .count()
    }

    /// Prunes the store down to at most `max_bytes` of entry data, removing
    /// oldest-modification-time entries first (ties broken by filename, so
    /// a gc pass is deterministic for a given directory state).  Orphaned
    /// staging files older than [`STALE_TMP_AGE`] — left behind by a
    /// crashed writer — are removed too; fresh ones may still be renamed
    /// into place and are left alone.
    ///
    /// Safe against concurrent readers and writers: entries are complete
    /// files (writers rename into place), so a reader either opens the
    /// full entry before the unlink or misses it and replays — never a
    /// torn read.  An entry that vanishes mid-gc (another gc, a concurrent
    /// writer's rename) is simply skipped.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store directory itself cannot be read;
    /// per-entry races (entry removed or replaced underneath the pass) are
    /// tolerated, not errors.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcOutcome> {
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut outcome = GcOutcome::default();
        let now = std::time::SystemTime::now();
        for dirent in fs::read_dir(&self.root)? {
            let Ok(dirent) = dirent else { continue };
            let path = dirent.path();
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            if !meta.is_file() {
                continue;
            }
            let is_entry = path.extension().is_some_and(|ext| ext == ENTRY_EXTENSION);
            if is_entry {
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                entries.push((mtime, path, meta.len()));
            } else if is_stale_tmp(&path, &meta, now) && fs::remove_file(&path).is_ok() {
                outcome.stale_tmp_removed += 1;
            }
        }
        // Newest first; the prefix that fits under the cap is kept.
        entries.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for (_, path, len) in entries {
            if outcome.kept_bytes + len <= max_bytes {
                outcome.kept += 1;
                outcome.kept_bytes += len;
            } else {
                // A concurrent writer may have renamed over (or another gc
                // removed) the entry; losing that race is fine either way.
                if fs::remove_file(&path).is_ok() {
                    outcome.removed += 1;
                    outcome.removed_bytes += len;
                }
            }
        }
        Ok(outcome)
    }
}

/// Age past which an orphaned staging (`.tmp`) file is considered dead.
/// Generous: a live writer stages and renames within milliseconds.
pub const STALE_TMP_AGE: std::time::Duration = std::time::Duration::from_secs(3600);

fn is_stale_tmp(path: &Path, meta: &fs::Metadata, now: std::time::SystemTime) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if !(name.starts_with('.') && name.ends_with(".tmp")) {
        return false;
    }
    match meta.modified() {
        Ok(mtime) => now
            .duration_since(mtime)
            .is_ok_and(|age| age >= STALE_TMP_AGE),
        Err(_) => false,
    }
}

/// Tally of one [`RunStore::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries left in the store.
    pub kept: usize,
    /// Bytes of entry data left in the store.
    pub kept_bytes: u64,
    /// Entries removed.
    pub removed: usize,
    /// Bytes of entry data removed.
    pub removed_bytes: u64,
    /// Orphaned staging files removed.
    pub stale_tmp_removed: usize,
}

impl GcOutcome {
    /// The one-line tally the `experiments cache gc` command prints.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "cache gc: removed {} entries ({:.1} MiB), kept {} entries ({:.1} MiB)",
            self.removed,
            self.removed_bytes as f64 / (1u64 << 20) as f64,
            self.kept,
            self.kept_bytes as f64 / (1u64 << 20) as f64,
        );
        if self.stale_tmp_removed > 0 {
            line.push_str(&format!(", {} stale staging files", self.stale_tmp_removed));
        }
        line
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Serialises one entry: magic, version, key echo, report payload, and the
/// trailing checksum over everything before it.
pub fn encode_entry(key: &RunKey, report: &SimReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + report.kernel_slowdowns.len() * 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    // Key echo: detects filename-hash collisions and misfiled entries.
    push_str(&mut out, &key.model);
    out.extend_from_slice(&key.batch.to_le_bytes());
    push_str(&mut out, &key.policy);
    for word in key.config {
        out.extend_from_slice(&word.to_le_bytes());
    }
    // Report payload.  Floats are stored by bit pattern, so a loaded
    // report formats (and fingerprints) byte-identically to a replayed one.
    push_str(&mut out, &report.model);
    out.extend_from_slice(&report.batch.to_le_bytes());
    push_str(&mut out, &report.policy);
    out.extend_from_slice(&report.total_time.as_nanos().to_le_bytes());
    out.extend_from_slice(&report.ideal_time.as_nanos().to_le_bytes());
    out.extend_from_slice(&report.stall_time.as_nanos().to_le_bytes());
    // Slowdowns stay dense on disk, one word per kernel: the sparse
    // in-memory form changed no entry byte.
    out.extend_from_slice(&(report.kernel_slowdowns.len() as u64).to_le_bytes());
    for s in report.kernel_slowdowns.iter() {
        out.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    for word in [
        report.traffic.gpu_to_ssd_bytes,
        report.traffic.ssd_to_gpu_bytes,
        report.traffic.gpu_to_host_bytes,
        report.traffic.host_to_gpu_bytes,
        report.fault_count,
        report.prefetches_issued,
        report.prefetches_dropped,
        report.evictions_issued,
    ] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.push(report.oversubscribed as u8);
    out.push(report.working_set_exceeds_gpu as u8);
    match &report.policy_fault {
        None => out.push(0),
        Some(fault) => {
            out.push(1);
            encode_fault(&mut out, fault);
        }
    }
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Serialises a fallback-degradation fault record: the quarantined policy,
/// the faulting step, the fault kind's stable tag, and the kind's payload
/// fields (strings length-prefixed, integers little-endian).
fn encode_fault(out: &mut Vec<u8>, fault: &FaultRecord) {
    push_str(out, &fault.policy);
    out.extend_from_slice(&(fault.step as u64).to_le_bytes());
    push_str(out, fault.kind.tag());
    match &fault.kind {
        PolicyFaultKind::BuildPanic { message } | PolicyFaultKind::StepPanic { message } => {
            push_str(out, message);
        }
        PolicyFaultKind::TensorOutOfRange { tensor, universe } => {
            out.extend_from_slice(&(*tensor as u64).to_le_bytes());
            out.extend_from_slice(&(*universe as u64).to_le_bytes());
        }
        PolicyFaultKind::EvictNonResident { tensor }
        | PolicyFaultKind::PrefetchResident { tensor } => {
            out.extend_from_slice(&(*tensor as u64).to_le_bytes());
        }
        PolicyFaultKind::CapacityExceeded {
            used_bytes,
            allowed_bytes,
        } => {
            out.extend_from_slice(&used_bytes.to_le_bytes());
            out.extend_from_slice(&allowed_bytes.to_le_bytes());
        }
        PolicyFaultKind::LedgerCorrupt {
            ledger_bytes,
            prefix_bytes,
        } => {
            out.extend_from_slice(&ledger_bytes.to_le_bytes());
            out.extend_from_slice(&prefix_bytes.to_le_bytes());
        }
        PolicyFaultKind::TimeRegression { from, to } => {
            out.extend_from_slice(&from.as_nanos().to_le_bytes());
            out.extend_from_slice(&to.as_nanos().to_le_bytes());
        }
        PolicyFaultKind::NonFiniteSlowdown { kernel } => {
            out.extend_from_slice(&(*kernel as u64).to_le_bytes());
        }
        PolicyFaultKind::ResidencyDesync {
            tracked_bytes,
            allocated_bytes,
        } => {
            out.extend_from_slice(&tracked_bytes.to_le_bytes());
            out.extend_from_slice(&allocated_bytes.to_le_bytes());
        }
        // `PolicyFaultKind` is non-exhaustive; a kind this build does not
        // know cannot be constructed by it either.
        _ => unreachable!("unencodable policy fault kind"),
    }
}

fn decode_fault(r: &mut Reader<'_>) -> Option<FaultRecord> {
    let policy = r.str()?.to_string();
    let step = r.u64()? as usize;
    let tag = r.str()?.to_string();
    let kind = match tag.as_str() {
        "build-panic" => PolicyFaultKind::BuildPanic {
            message: r.str()?.to_string(),
        },
        "step-panic" => PolicyFaultKind::StepPanic {
            message: r.str()?.to_string(),
        },
        "tensor-out-of-range" => PolicyFaultKind::TensorOutOfRange {
            tensor: u32::try_from(r.u64()?).ok()?,
            universe: r.u64()? as usize,
        },
        "evict-non-resident" => PolicyFaultKind::EvictNonResident {
            tensor: u32::try_from(r.u64()?).ok()?,
        },
        "prefetch-resident" => PolicyFaultKind::PrefetchResident {
            tensor: u32::try_from(r.u64()?).ok()?,
        },
        "capacity-exceeded" => PolicyFaultKind::CapacityExceeded {
            used_bytes: r.u64()?,
            allowed_bytes: r.u64()?,
        },
        "ledger-corrupt" => PolicyFaultKind::LedgerCorrupt {
            ledger_bytes: r.u64()?,
            prefix_bytes: r.u64()?,
        },
        "time-regression" => PolicyFaultKind::TimeRegression {
            from: Nanos::from_nanos(r.u64()?),
            to: Nanos::from_nanos(r.u64()?),
        },
        "non-finite-slowdown" => PolicyFaultKind::NonFiniteSlowdown {
            kernel: r.u64()? as usize,
        },
        "residency-desync" => PolicyFaultKind::ResidencyDesync {
            tracked_bytes: r.u64()?,
            allocated_bytes: r.u64()?,
        },
        _ => return None,
    };
    Some(FaultRecord { policy, step, kind })
}

/// Decodes one entry, verifying magic, schema version, checksum, key echo
/// and exact length.  Any mismatch yields `None`.
pub fn decode_entry(bytes: &[u8], key: &RunKey) -> Option<SimReport> {
    // Checksum first: everything after this reads known-good bytes.
    let payload_len = bytes.len().checked_sub(8)?;
    let (payload, sum_bytes) = bytes.split_at(payload_len);
    let stored_sum = u64::from_le_bytes(sum_bytes.try_into().ok()?);
    if checksum(payload) != stored_sum {
        return None;
    }
    let mut r = Reader { bytes: payload };
    if r.take(MAGIC.len())? != MAGIC.as_slice() {
        return None;
    }
    let version = u32::from_le_bytes(r.take(4)?.try_into().ok()?);
    if version != SCHEMA_VERSION {
        return None;
    }
    // Key echo must match the cell we were asked for.
    if r.str()? != key.model || r.u64()? != key.batch || r.str()? != key.policy {
        return None;
    }
    for expected in key.config {
        if r.u64()? != expected {
            return None;
        }
    }
    let report = SimReport {
        model: r.str()?.to_string(),
        batch: r.u64()?,
        policy: r.str()?.to_string(),
        total_time: Nanos::from_nanos(r.u64()?),
        ideal_time: Nanos::from_nanos(r.u64()?),
        stall_time: Nanos::from_nanos(r.u64()?),
        kernel_slowdowns: {
            let len = r.u64()? as usize;
            // A corrupt length cannot pass the checksum, but stay defensive
            // about allocation anyway.
            if len > r.bytes.len() / 8 {
                return None;
            }
            (0..len)
                .map(|_| r.u64().map(f64::from_bits))
                .collect::<Option<_>>()?
        },
        traffic: TrafficStats {
            gpu_to_ssd_bytes: r.u64()?,
            ssd_to_gpu_bytes: r.u64()?,
            gpu_to_host_bytes: r.u64()?,
            host_to_gpu_bytes: r.u64()?,
        },
        fault_count: r.u64()?,
        prefetches_issued: r.u64()?,
        prefetches_dropped: r.u64()?,
        evictions_issued: r.u64()?,
        oversubscribed: r.bool()?,
        working_set_exceeds_gpu: r.bool()?,
        policy_fault: match r.bool()? {
            false => None,
            true => Some(decode_fault(&mut r)?),
        },
    };
    // Exactly consumed: trailing bytes mean a layout drift.
    if !r.bytes.is_empty() {
        return None;
    }
    Some(report)
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Some(head)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn bool(&mut self) -> Option<bool> {
        match self.take(1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u64()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> RunKey {
        RunKey {
            model: "TinyCNN".to_string(),
            batch: 16,
            policy: "Base UVM".to_string(),
            config: [7; 12],
        }
    }

    #[test]
    fn filenames_are_stable_and_slugged() {
        let name = key().file_name();
        assert!(name.starts_with("tinycnn_b16_base-uvm_"));
        assert!(name.ends_with(".g10run"));
        assert_eq!(name, key().file_name(), "hashing must be deterministic");
        let mut other = key();
        other.config[3] ^= 1;
        assert_ne!(name, other.file_name(), "config must change the address");
    }

    #[test]
    fn checksum_matches_the_fingerprint_family() {
        // Same FNV-1a constants as `g10_sim::ReportFingerprint`.
        let mut fp = g10_sim::ReportFingerprint::new();
        fp.push(0xDEADBEEF);
        assert_eq!(checksum(&0xDEADBEEFu64.to_le_bytes()), fp.finish());
    }
}
