//! The content-addressed summary store: an in-memory tier shared by all
//! worker threads, backed by an optional JSON persistent tier on disk.
//!
//! Keys are [`Fingerprint`]s of the element's behaviour + engine
//! configuration, so the store never confuses summaries across element
//! edits: change one element and only its key changes — re-verifying a
//! pipeline then re-explores exactly that element, every other summary is a
//! hit. That is the paper's "embarrassingly cacheable" property made
//! operational.

use crate::codec::record;
use crate::fingerprint::{fingerprint_bytes, Fingerprint};
use crate::json::Json;
use crate::persist::ManifestEntry;
use crate::persist::{manifest_from_json, manifest_to_json, summary_from_json, summary_to_json};
use dataplane_verifier::{ElementSummary, RecordTable};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default size bound for the persistent tier's directory (the JSON summary
/// files; the manifest itself is not counted). Summaries are a few KiB to a
/// few hundred KiB each, so this comfortably holds thousands of element
/// behaviours while bounding a long-lived cache directory.
pub const DEFAULT_PERSIST_BYTES: u64 = 64 * 1024 * 1024;

/// File name of the cache-directory manifest.
pub(crate) const MANIFEST_FILE: &str = "manifest.json";

/// Counters describing how the store served lookups.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-memory tier.
    pub memory_hits: u64,
    /// Lookups served by decoding a persisted JSON summary.
    pub disk_hits: u64,
    /// Lookups that found nothing (the element must be explored).
    pub misses: u64,
    /// Summaries written to the persistent tier.
    pub persisted: u64,
    /// Persistent-tier files that failed to read or decode, or whose content
    /// hash did not match the manifest checksum (treated as misses; the
    /// summary is recomputed and rewritten).
    pub disk_errors: u64,
    /// Summary files evicted to keep the persistent directory under its size
    /// bound (least-recently-used first).
    pub evicted: u64,
    /// Step-2 records (suspect checks and edge decisions) the requests'
    /// record tables computed.
    pub records_computed: u64,
    /// Step-2 questions answered from a request's record table instead of
    /// the solver.
    pub records_reused: u64,
}

// The `cache` object of the matrix report's operational document.
record!(CacheStats {
    memory_hits => "memory_hits",
    disk_hits => "disk_hits",
    misses => "misses",
    persisted => "persisted",
    disk_errors => "disk_errors",
    evicted => "evicted",
    records_computed => "records_computed",
    records_reused => "records_reused",
});

impl CacheStats {
    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// The activity between two snapshots of a store's counters
    /// (`after - before`, field-wise) — what one run contributed.
    pub fn delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
        CacheStats {
            memory_hits: after.memory_hits - before.memory_hits,
            disk_hits: after.disk_hits - before.disk_hits,
            misses: after.misses - before.misses,
            persisted: after.persisted - before.persisted,
            disk_errors: after.disk_errors - before.disk_errors,
            evicted: after.evicted - before.evicted,
            records_computed: after.records_computed - before.records_computed,
            records_reused: after.records_reused - before.records_reused,
        }
    }
}

/// A thread-safe, two-tier, content-addressed summary cache.
#[derive(Debug, Default)]
pub struct SummaryStore {
    memory: Mutex<HashMap<Fingerprint, Arc<ElementSummary>>>,
    persist_dir: Option<PathBuf>,
    /// Size bound for the persistent directory's summary files.
    max_persist_bytes: u64,
    /// The persistent directory's manifest, least-recently-used first.
    /// Every summary file the tier trusts has an entry with the content
    /// hash it was written with; the on-disk copy (`manifest.json`) is
    /// rewritten atomically whenever the entries change.
    manifest: Mutex<Vec<ManifestEntry>>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    persisted: AtomicU64,
    disk_errors: AtomicU64,
    evicted: AtomicU64,
    records_computed: AtomicU64,
    records_reused: AtomicU64,
}

/// Read and decode `dir`'s manifest (empty on any failure — every file then
/// counts as unvouched and is recomputed rather than trusted).
fn read_manifest(dir: &Path) -> Vec<ManifestEntry> {
    std::fs::read_to_string(dir.join(MANIFEST_FILE))
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|json| manifest_from_json(&json).ok())
        .unwrap_or_default()
}

/// Insert `disk` entries for files `manifest` does not track at the
/// least-recently-used end (their true recency is unknown, so they are the
/// first eviction candidates).
fn adopt_unknown_entries(manifest: &mut Vec<ManifestEntry>, disk: &[ManifestEntry]) {
    for entry in disk {
        if !manifest.iter().any(|e| e.file == entry.file) {
            manifest.insert(0, entry.clone());
        }
    }
}

impl SummaryStore {
    /// A store with only the in-memory tier.
    pub fn in_memory() -> Self {
        SummaryStore::default()
    }

    /// A store that additionally persists summaries as JSON files under
    /// `dir` (one file per fingerprint), creating the directory if needed.
    /// The directory is bounded at [`DEFAULT_PERSIST_BYTES`]; see
    /// [`SummaryStore::persistent_with_limit`].
    pub fn persistent(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        SummaryStore::persistent_with_limit(dir, DEFAULT_PERSIST_BYTES)
    }

    /// A persistent store whose summary files are bounded at `max_bytes`
    /// total: when an insert pushes the directory over the bound, the
    /// least-recently-used files are evicted (the manifest records use
    /// order across processes). An existing `manifest.json` under `dir` is
    /// loaded; files the manifest does not vouch for — or whose content
    /// hash no longer matches — are never trusted, so a corrupted or
    /// half-written cache directory degrades to recomputation, not to
    /// wrong summaries.
    pub fn persistent_with_limit(dir: impl Into<PathBuf>, max_bytes: u64) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let manifest = read_manifest(&dir);
        Ok(SummaryStore {
            persist_dir: Some(dir),
            max_persist_bytes: max_bytes,
            manifest: Mutex::new(manifest),
            ..SummaryStore::default()
        })
    }

    /// The persistent directory, if the store has one.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist_dir.as_deref()
    }

    fn file_for(&self, fingerprint: Fingerprint) -> Option<PathBuf> {
        self.persist_dir
            .as_ref()
            .map(|d| d.join(format!("{fingerprint}.json")))
    }

    /// Look up the summary for `fingerprint`, trying memory then disk.
    pub fn get(&self, fingerprint: Fingerprint) -> Option<Arc<ElementSummary>> {
        if let Some(summary) = self
            .memory
            .lock()
            .expect("summary store lock")
            .get(&fingerprint)
        {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some(summary.clone());
        }
        if let Some(path) = self.file_for(fingerprint) {
            let file_name = format!("{fingerprint}.json");
            match std::fs::read_to_string(&path) {
                // The manifest vouches (by content hash) for every file the
                // tier trusts; a mismatching or unknown file is corrupt or
                // stale — drop it and recompute rather than decode blindly.
                Ok(text) if !self.manifest_vouches(&file_name, &text) => {
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = std::fs::remove_file(&path);
                    self.forget_manifest_entry(&file_name);
                }
                Ok(text) => match Json::parse(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|j| summary_from_json(&j).map_err(|e| e.to_string()))
                {
                    Ok(summary) => {
                        let summary = Arc::new(summary);
                        self.memory
                            .lock()
                            .expect("summary store lock")
                            .insert(fingerprint, summary.clone());
                        self.touch_manifest_entry(&file_name);
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        return Some(summary);
                    }
                    Err(_) => {
                        // Corrupt file: drop it so the rewrite below is clean.
                        self.disk_errors.fetch_add(1, Ordering::Relaxed);
                        let _ = std::fs::remove_file(&path);
                        self.forget_manifest_entry(&file_name);
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => {
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// True if a manifest — this process's, or the one currently on disk —
    /// has an entry for `file_name` whose checksum matches `text`.
    ///
    /// Consulting the on-disk manifest handles concurrent orchestrators
    /// sharing a cache directory: a file written by another process after
    /// our snapshot is vouched for by *its* manifest write, and must not be
    /// destroyed as untrusted. (A process racing exactly between a peer's
    /// file rename and manifest write can still drop that one file — the
    /// peer recomputes it; cross-process locking is a ROADMAP item.)
    fn manifest_vouches(&self, file_name: &str, text: &str) -> bool {
        let checksum = fingerprint_bytes(text).to_string();
        let vouched = |entries: &[ManifestEntry]| {
            entries
                .iter()
                .any(|e| e.file == file_name && e.checksum == checksum)
        };
        let mut manifest = self.manifest.lock().expect("manifest lock");
        if vouched(&manifest) {
            return true;
        }
        let disk = self.read_disk_manifest();
        adopt_unknown_entries(&mut manifest, &disk);
        if vouched(&manifest) {
            return true;
        }
        if vouched(&disk) {
            // A peer rewrote a file we also track; its record describes the
            // bytes now on disk.
            if let Some(ours) = manifest.iter_mut().find(|e| e.file == file_name) {
                ours.checksum = checksum;
                ours.bytes = text.len() as u64;
            }
            return true;
        }
        false
    }

    /// The manifest currently on disk (empty on any read/parse failure).
    fn read_disk_manifest(&self) -> Vec<ManifestEntry> {
        self.persist_dir
            .as_deref()
            .map(read_manifest)
            .unwrap_or_default()
    }

    /// Move `file_name`'s entry to the most-recently-used end. In-memory
    /// only — use order is best-effort across crashes; the next insert
    /// persists it.
    fn touch_manifest_entry(&self, file_name: &str) {
        let mut manifest = self.manifest.lock().expect("manifest lock");
        if let Some(pos) = manifest.iter().position(|e| e.file == file_name) {
            let entry = manifest.remove(pos);
            manifest.push(entry);
        }
    }

    /// Drop `file_name`'s manifest entry (its file is gone or untrusted)
    /// and persist the change. Takes the directory's advisory lock: the
    /// manifest rewrite must not lose a peer's concurrent entry.
    fn forget_manifest_entry(&self, file_name: &str) {
        let _dir_lock = self
            .persist_dir
            .as_deref()
            .and_then(crate::persist::DirLock::acquire);
        self.forget_manifest_entry_locked(file_name);
    }

    /// [`SummaryStore::forget_manifest_entry`] for callers already holding
    /// the directory lock.
    fn forget_manifest_entry_locked(&self, file_name: &str) {
        let mut manifest = self.manifest.lock().expect("manifest lock");
        if let Some(pos) = manifest.iter().position(|e| e.file == file_name) {
            manifest.remove(pos);
            let disk = self.read_disk_manifest();
            adopt_unknown_entries(&mut manifest, &disk);
            manifest.retain(|e| e.file != file_name);
            self.write_manifest(&manifest);
        }
    }

    /// Atomically rewrite `manifest.json` (callers hold the manifest lock).
    fn write_manifest(&self, manifest: &[ManifestEntry]) {
        let Some(dir) = &self.persist_dir else {
            return;
        };
        let temp = dir.join(format!("manifest.tmp-{}", std::process::id()));
        let text = manifest_to_json(manifest).to_text();
        let ok = std::fs::write(&temp, text)
            .and_then(|()| std::fs::rename(&temp, dir.join(MANIFEST_FILE)));
        if ok.is_err() {
            let _ = std::fs::remove_file(&temp);
            self.disk_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Install a freshly computed summary under `fingerprint`, writing the
    /// persistent tier when configured. The file is written to a unique
    /// temporary name and renamed into place, so concurrent readers (or a
    /// crash mid-write) never observe a torn document. The rename +
    /// `manifest.json` write pair runs under the directory's advisory
    /// [`crate::persist::DirLock`], so a concurrent orchestrator can no
    /// longer sample the directory between a peer's two writes and drop the
    /// not-yet-vouched file (if the lock cannot be had, the old best-effort
    /// merge-on-demand path still applies). Disk failures are counted but
    /// do not fail the insert — the in-memory tier is authoritative for
    /// this process.
    pub fn insert(&self, fingerprint: Fingerprint, summary: Arc<ElementSummary>) {
        if let (Some(path), Some(dir)) = (self.file_for(fingerprint), &self.persist_dir) {
            let _dir_lock = crate::persist::DirLock::acquire(dir);
            static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
            let temp = dir.join(format!(
                "{fingerprint}.tmp-{}-{}",
                std::process::id(),
                TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let text = summary_to_json(&summary).to_text();
            let entry = ManifestEntry {
                file: format!("{fingerprint}.json"),
                bytes: text.len() as u64,
                checksum: fingerprint_bytes(&text).to_string(),
            };
            // Register the entry *before* the rename makes the file
            // visible: a concurrent `get` of the same fingerprint must
            // never observe a file the manifest does not vouch for (it
            // would delete it as untrusted). The reverse window — entry
            // without file — is a clean NotFound miss and merely recomputes.
            let file_name = entry.file.clone();
            self.record_and_evict(dir.clone(), entry);
            let written = std::fs::write(&temp, text).and_then(|()| std::fs::rename(&temp, &path));
            match written {
                Ok(()) => {
                    self.persisted.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    let _ = std::fs::remove_file(&temp);
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                    // The insert path already holds the directory lock.
                    self.forget_manifest_entry_locked(&file_name);
                }
            }
        }
        self.memory
            .lock()
            .expect("summary store lock")
            .insert(fingerprint, summary);
    }

    /// Record a freshly written summary file in the manifest, evict
    /// least-recently-used files while the directory exceeds its size
    /// bound (the newest entry is never evicted), and persist the manifest.
    fn record_and_evict(&self, dir: PathBuf, entry: ManifestEntry) {
        let mut manifest = self.manifest.lock().expect("manifest lock");
        // Adopt entries a concurrent orchestrator added since our snapshot,
        // so the rewrite below does not drop its records.
        let disk = self.read_disk_manifest();
        adopt_unknown_entries(&mut manifest, &disk);
        if let Some(pos) = manifest.iter().position(|e| e.file == entry.file) {
            manifest.remove(pos);
        }
        manifest.push(entry);
        let mut total: u64 = manifest.iter().map(|e| e.bytes).sum();
        while total > self.max_persist_bytes && manifest.len() > 1 {
            let victim = manifest.remove(0);
            total -= victim.bytes;
            let _ = std::fs::remove_file(dir.join(&victim.file));
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        self.write_manifest(&manifest);
    }

    /// Number of summaries resident in memory.
    pub fn len(&self) -> usize {
        self.memory.lock().expect("summary store lock").len()
    }

    /// True if the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop the in-memory tier (persisted files are kept); used by tests to
    /// force the disk path.
    pub fn clear_memory(&self) {
        self.memory.lock().expect("summary store lock").clear();
    }

    /// Total bytes of summary files the manifest currently tracks.
    pub fn persisted_bytes(&self) -> u64 {
        self.manifest
            .lock()
            .expect("manifest lock")
            .iter()
            .map(|e| e.bytes)
            .sum()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            records_computed: self.records_computed.load(Ordering::Relaxed),
            records_reused: self.records_reused.load(Ordering::Relaxed),
        }
    }

    /// Add a finished request's record-table counters to this store's.
    pub fn count_records(&self, table: &RecordTable) {
        self.records_computed
            .fetch_add(table.computed(), Ordering::Relaxed);
        self.records_reused
            .fetch_add(table.reused(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane_pipeline::elements::DecTTL;
    use dataplane_pipeline::Element;
    use dataplane_symbex::{explore, EngineConfig};
    use std::time::Duration;

    fn dec_ttl_summary() -> Arc<ElementSummary> {
        let element = DecTTL::new();
        let exploration = explore(&element.model(), &EngineConfig::decomposed()).unwrap();
        Arc::new(ElementSummary {
            type_name: element.type_name().to_string(),
            config_key: element.config_key(),
            exploration,
            explore_time: Duration::from_millis(1),
        })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vericlick-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_hits_and_misses() {
        let store = SummaryStore::in_memory();
        let fp = Fingerprint(1, 2);
        assert!(store.get(fp).is_none());
        store.insert(fp, dec_ttl_summary());
        let summary = store.get(fp).expect("hit");
        assert_eq!(summary.type_name, "DecTTL");
        let stats = store.stats();
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.persisted, 0);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn persistent_tier_survives_memory_loss() {
        let dir = temp_dir("persist");
        let store = SummaryStore::persistent(&dir).unwrap();
        assert_eq!(store.persist_dir(), Some(dir.as_path()));
        let fp = Fingerprint(3, 4);
        store.insert(fp, dec_ttl_summary());
        assert_eq!(store.stats().persisted, 1);

        // Same store, memory dropped: served from disk.
        store.clear_memory();
        let summary = store.get(fp).expect("disk hit");
        assert!(summary.segment_count() >= 2);
        assert_eq!(store.stats().disk_hits, 1);

        // A brand-new store over the same directory also sees it.
        let fresh = SummaryStore::persistent(&dir).unwrap();
        assert!(fresh.get(fp).is_some());
        assert_eq!(fresh.stats().disk_hits, 1);
        assert_eq!(fresh.stats().misses, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_bounds_the_directory_size() {
        let dir = temp_dir("evict");
        // A limit that holds roughly two DecTTL summaries.
        let summary = dec_ttl_summary();
        let one_file = crate::persist::summary_to_json(&summary).to_text().len() as u64;
        let store = SummaryStore::persistent_with_limit(&dir, one_file * 2).unwrap();
        for i in 0..5 {
            store.insert(Fingerprint(100 + i, 1), summary.clone());
        }
        let stats = store.stats();
        assert_eq!(stats.persisted, 5);
        assert!(stats.evicted >= 3, "expected evictions, got {stats:?}");
        assert!(
            store.persisted_bytes() <= one_file * 2,
            "directory over its bound: {} > {}",
            store.persisted_bytes(),
            one_file * 2
        );
        // The newest entry survives, the oldest were evicted from disk.
        store.clear_memory();
        assert!(store.get(Fingerprint(104, 1)).is_some());
        assert!(store.get(Fingerprint(100, 1)).is_none());
        // Use order matters: a disk hit refreshes an entry's recency.
        let lru = SummaryStore::persistent_with_limit(&dir, one_file * 2).unwrap();
        lru.clear_memory();
        assert!(lru.get(Fingerprint(103, 1)).is_some()); // touch the older one
        lru.insert(Fingerprint(200, 1), summary.clone()); // evicts 104, not 103
        lru.clear_memory();
        assert!(lru.get(Fingerprint(103, 1)).is_some());
        assert!(lru.get(Fingerprint(104, 1)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_files_fail_the_manifest_checksum() {
        let dir = temp_dir("tamper");
        let store = SummaryStore::persistent(&dir).unwrap();
        let fp = Fingerprint(7, 8);
        store.insert(fp, dec_ttl_summary());
        // Tamper with the file in a way that still parses and decodes: a
        // trailing space changes no JSON semantics, so only the manifest
        // checksum can catch it.
        let path = dir.join(format!("{fp}.json"));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push(' ');
        std::fs::write(&path, text).unwrap();
        store.clear_memory();
        assert!(store.get(fp).is_none(), "tampered file must not be trusted");
        let stats = store.stats();
        assert_eq!(stats.disk_errors, 1);
        assert!(!path.exists(), "tampered file must be dropped");
        // A file the manifest never vouched for is equally untrusted.
        let stray = Fingerprint(9, 9);
        std::fs::write(
            dir.join(format!("{stray}.json")),
            crate::persist::summary_to_json(&dec_ttl_summary()).to_text(),
        )
        .unwrap();
        assert!(store.get(stray).is_none());
        assert_eq!(store.stats().disk_errors, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_do_not_destroy_each_others_files() {
        let dir = temp_dir("concurrent");
        // Both "processes" snapshot the (empty) manifest at startup.
        let a = SummaryStore::persistent(&dir).unwrap();
        let b = SummaryStore::persistent(&dir).unwrap();
        let fp_a = Fingerprint(21, 1);
        let fp_b = Fingerprint(22, 1);
        a.insert(fp_a, dec_ttl_summary());
        b.insert(fp_b, dec_ttl_summary());
        // B must trust A's file (vouched by the on-disk manifest A wrote),
        // not delete it as unknown — and vice versa.
        b.clear_memory();
        assert!(b.get(fp_a).is_some(), "B destroyed A's valid summary");
        a.clear_memory();
        assert!(a.get(fp_b).is_some(), "A destroyed B's valid summary");
        assert_eq!(a.stats().disk_errors, 0);
        assert_eq!(b.stats().disk_errors, 0);
        // Neither manifest rewrite dropped the other's entry.
        let fresh = SummaryStore::persistent(&dir).unwrap();
        assert!(fresh.get(fp_a).is_some());
        assert!(fresh.get(fp_b).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_survives_a_fresh_process() {
        let dir = temp_dir("manifest-restart");
        let store = SummaryStore::persistent(&dir).unwrap();
        let fp = Fingerprint(11, 12);
        store.insert(fp, dec_ttl_summary());
        drop(store);
        let fresh = SummaryStore::persistent(&dir).unwrap();
        assert!(fresh.persisted_bytes() > 0, "manifest entries reloaded");
        assert!(fresh.get(fp).is_some(), "checksum verifies after reload");
        assert_eq!(fresh.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_dropped_and_recomputed() {
        let dir = temp_dir("corrupt");
        let store = SummaryStore::persistent(&dir).unwrap();
        let fp = Fingerprint(5, 6);
        std::fs::write(dir.join(format!("{fp}.json")), "{not json").unwrap();
        assert!(store.get(fp).is_none());
        let stats = store.stats();
        assert_eq!(stats.disk_errors, 1);
        assert_eq!(stats.misses, 1);
        // The corrupt file was removed; inserting rewrites it cleanly.
        store.insert(fp, dec_ttl_summary());
        store.clear_memory();
        assert!(store.get(fp).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
