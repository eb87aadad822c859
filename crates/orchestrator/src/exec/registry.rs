//! The worker registry: who joined the fleet, with what capacity, who
//! died, and how the pull-based queue behaved — the operational record of
//! a distributed execution, surfaced as [`DispatchStats`] in
//! `MatrixReport`.

use crate::codec::record;
use std::sync::Mutex;

/// Aggregate registry/queue statistics of a dispatch (operational data:
/// excluded from deterministic report documents).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Workers that completed the hello handshake.
    pub workers: usize,
    /// Workers that died (connection lost, handshake rejected) during the
    /// run.
    pub workers_lost: usize,
    /// Total advertised capacity (maximum jobs in flight fleet-wide).
    pub capacity: usize,
    /// Job frames sent (a requeued job counts once per send).
    pub jobs_dispatched: usize,
    /// Results received.
    pub jobs_completed: usize,
    /// Jobs requeued after their worker died.
    pub jobs_requeued: usize,
    /// Step-1 exploration jobs offered to the queue.
    pub explore_jobs: usize,
    /// Step-2 composition jobs offered to the queue.
    pub compose_jobs: usize,
    /// Temporal (LTL) jobs offered to the queue — compose-shaped work
    /// decided by the Büchi-product search.
    pub temporal_jobs: usize,
    /// Step-2 compose shards offered to the queue (contiguous slices of a
    /// scenario's check enumeration).
    pub compose_shards: usize,
    /// Conformance fuzz shards offered to the queue.
    pub fuzz_jobs: usize,
    /// Handshaken workers that returned no result at all — a fleet-shape
    /// smell (more workers than shards, or a dispatch imbalance).
    pub workers_idle: usize,
    /// Full summary documents shipped in job frames (protocol v4 ships a
    /// summary only to workers that do not already hold it).
    pub summaries_shipped: usize,
    /// Summary slots satisfied by a worker's held set instead of a wire
    /// transfer — the dedup win of protocol v4.
    pub summaries_deduped: usize,
    /// Serialised bytes of the summaries actually shipped.
    pub summary_bytes_shipped: u64,
    /// Workers marked suspect: connected but silent past the heartbeat
    /// deadline (SIGSTOP, silent partition). Suspect workers also count
    /// in `workers_lost`.
    pub workers_suspect: usize,
}

// The `dispatch` object of the matrix report's operational document and
// of a daemon response frame.
record!(DispatchStats {
    workers => "workers",
    workers_lost => "workers_lost",
    capacity => "capacity",
    jobs_dispatched => "jobs_dispatched",
    jobs_completed => "jobs_completed",
    jobs_requeued => "jobs_requeued",
    explore_jobs => "explore_jobs",
    compose_jobs => "compose_jobs",
    temporal_jobs => "temporal_jobs",
    compose_shards => "compose_shards",
    fuzz_jobs => "fuzz_jobs",
    workers_idle => "workers_idle",
    summaries_shipped => "summaries_shipped",
    summaries_deduped => "summaries_deduped",
    summary_bytes_shipped => "summary_bytes_shipped",
    workers_suspect => "workers_suspect",
});

/// One worker's registry entry.
#[derive(Clone, Debug)]
pub struct WorkerEntry {
    /// Peer description (pid or socket address).
    pub peer: String,
    /// Advertised capacity (jobs it keeps in flight).
    pub capacity: usize,
    /// Still connected (or cleanly drained).
    pub alive: bool,
    /// Results this worker returned.
    pub jobs_done: usize,
    /// Why the worker was marked dead, if it was.
    pub note: Option<String>,
}

#[derive(Default)]
struct RegistryInner {
    entries: Vec<WorkerEntry>,
    dispatched: usize,
    completed: usize,
    requeued: usize,
    explore_jobs: usize,
    compose_jobs: usize,
    temporal_jobs: usize,
    compose_shards: usize,
    fuzz_jobs: usize,
    summaries_shipped: usize,
    summaries_deduped: usize,
    summary_bytes_shipped: u64,
    suspects: usize,
}

/// The shared registry a fleet's dispatch threads report into. Lives for
/// the lifetime of the fleet, accumulating across dispatch phases (explore,
/// then compose), so the stats describe the whole plan execution.
#[derive(Default)]
pub struct WorkerRegistry {
    inner: Mutex<RegistryInner>,
}

impl WorkerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        WorkerRegistry::default()
    }

    /// Record a worker that completed its handshake; returns its id.
    pub(crate) fn register(&self, peer: String, capacity: usize) -> usize {
        let mut inner = self.inner.lock().expect("registry");
        inner.entries.push(WorkerEntry {
            peer,
            capacity,
            alive: true,
            jobs_done: 0,
            note: None,
        });
        inner.entries.len() - 1
    }

    /// Record a worker that never joined (connect or handshake failure).
    pub(crate) fn register_dead(&self, peer: String, note: String) {
        let mut inner = self.inner.lock().expect("registry");
        inner.entries.push(WorkerEntry {
            peer,
            capacity: 0,
            alive: false,
            jobs_done: 0,
            note: Some(note),
        });
    }

    /// Record how many jobs of each kind a dispatch phase offered.
    pub(crate) fn record_offered(&self, explore: usize, compose: usize, fuzz: usize) {
        let mut inner = self.inner.lock().expect("registry");
        inner.explore_jobs += explore;
        inner.compose_jobs += compose;
        inner.fuzz_jobs += fuzz;
    }

    /// Record temporal (LTL) jobs offered to the queue.
    pub(crate) fn record_temporal_offered(&self, temporal: usize) {
        self.inner.lock().expect("registry").temporal_jobs += temporal;
    }

    /// Record compose shards offered to the queue.
    pub(crate) fn record_shards_offered(&self, shards: usize) {
        self.inner.lock().expect("registry").compose_shards += shards;
    }

    /// A job frame went out.
    pub(crate) fn record_dispatched(&self) {
        self.inner.lock().expect("registry").dispatched += 1;
    }

    /// Worker `id` returned a result.
    pub(crate) fn record_completed(&self, id: usize) {
        let mut inner = self.inner.lock().expect("registry");
        inner.completed += 1;
        inner.entries[id].jobs_done += 1;
    }

    /// Worker `id` died with `requeued` jobs put back on the queue.
    pub(crate) fn mark_dead(&self, id: usize, requeued: usize, note: String) {
        let mut inner = self.inner.lock().expect("registry");
        inner.requeued += requeued;
        let entry = &mut inner.entries[id];
        entry.alive = false;
        entry.note = Some(note);
    }

    /// Worker `id` went silent past the heartbeat deadline: still
    /// connected as far as the kernel knows, but not answering. Treated
    /// like a death (its jobs are requeued) and additionally counted as a
    /// suspect.
    pub(crate) fn mark_suspect(&self, id: usize, requeued: usize, note: String) {
        let mut inner = self.inner.lock().expect("registry");
        inner.requeued += requeued;
        inner.suspects += 1;
        let entry = &mut inner.entries[id];
        entry.alive = false;
        entry.note = Some(note);
    }

    /// Record a job frame's summary-transfer split: `shipped` full
    /// documents (costing `shipped_bytes` on the wire) and `deduped` slots
    /// the receiving worker already held.
    pub(crate) fn record_summaries(&self, shipped: usize, shipped_bytes: u64, deduped: usize) {
        let mut inner = self.inner.lock().expect("registry");
        inner.summaries_shipped += shipped;
        inner.summary_bytes_shipped += shipped_bytes;
        inner.summaries_deduped += deduped;
    }

    /// Snapshot of every entry.
    pub fn workers(&self) -> Vec<WorkerEntry> {
        self.inner.lock().expect("registry").entries.clone()
    }

    /// Total advertised capacity of the workers currently alive, each
    /// peer counted once by its latest handshaken registration — what the
    /// service sizes fleet shards by. Zero when no worker has handshaken
    /// yet (a fresh fleet before its first dispatch).
    pub fn live_capacity(&self) -> usize {
        let inner = self.inner.lock().expect("registry");
        total_capacity(latest_per_peer(&inner.entries).filter(|e| e.alive))
    }

    /// The aggregate statistics.
    pub fn stats(&self) -> DispatchStats {
        let inner = self.inner.lock().expect("registry");
        // A worker that reconnects each phase re-registers; count distinct
        // peers so the fleet size reads as configured, not × phases.
        let mut peers: Vec<&str> = inner.entries.iter().map(|e| e.peer.as_str()).collect();
        peers.sort_unstable();
        peers.dedup();
        let mut lost: Vec<&str> = inner
            .entries
            .iter()
            .filter(|e| !e.alive)
            .map(|e| e.peer.as_str())
            .collect();
        lost.sort_unstable();
        lost.dedup();
        let latest: Vec<&WorkerEntry> = latest_per_peer(&inner.entries).collect();
        let capacity = total_capacity(latest.iter().copied());
        // A handshaken peer none of whose registrations returned a single
        // result sat idle for the whole run. Derived as total minus active
        // with a saturating subtraction: a worker that joins mid-batch
        // registers extra entries for an already-counted peer, so the
        // active tally is clamped to the distinct peer count and the
        // difference can never underflow.
        let active = latest
            .iter()
            .filter(|peer| {
                inner
                    .entries
                    .iter()
                    .filter(|e| e.peer == peer.peer)
                    .any(|e| e.jobs_done > 0)
            })
            .count()
            .min(latest.len());
        let idle = latest.len().saturating_sub(active);
        DispatchStats {
            workers: peers.len(),
            workers_lost: lost.len(),
            capacity,
            jobs_dispatched: inner.dispatched,
            jobs_completed: inner.completed,
            jobs_requeued: inner.requeued,
            explore_jobs: inner.explore_jobs,
            compose_jobs: inner.compose_jobs,
            temporal_jobs: inner.temporal_jobs,
            compose_shards: inner.compose_shards,
            fuzz_jobs: inner.fuzz_jobs,
            workers_idle: idle,
            summaries_shipped: inner.summaries_shipped,
            summaries_deduped: inner.summaries_deduped,
            summary_bytes_shipped: inner.summary_bytes_shipped,
            workers_suspect: inner.suspects,
        }
    }
}

/// The most recent *handshaken* registration of each peer, latest peer
/// first. A worker that reconnects each dispatch phase re-registers with
/// the same capacity, so only its latest entry counts; a `register_dead`
/// entry has capacity 0 and must not shadow what the peer advertised.
fn latest_per_peer(entries: &[WorkerEntry]) -> impl Iterator<Item = &WorkerEntry> {
    let mut seen: Vec<&str> = Vec::new();
    entries.iter().rev().filter(move |e| {
        let first = e.capacity > 0 && !seen.contains(&e.peer.as_str());
        if first {
            seen.push(&e.peer);
        }
        first
    })
}

/// The summed capacity of `entries`, saturating: a capacity is whatever a
/// peer's hello advertised, so the sum must not overflow while the
/// registry lock is held.
fn total_capacity<'a>(entries: impl Iterator<Item = &'a WorkerEntry>) -> usize {
    entries.fold(0, |sum, e| sum.saturating_add(e.capacity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advertised_capacities_saturate_instead_of_overflowing() {
        let registry = WorkerRegistry::new();
        registry.register("w1".into(), usize::MAX / 2 + 1);
        registry.register("w2".into(), usize::MAX / 2 + 1);
        assert_eq!(registry.live_capacity(), usize::MAX);
        assert_eq!(registry.stats().capacity, usize::MAX);
    }

    #[test]
    fn registry_aggregates_across_phases() {
        let registry = WorkerRegistry::new();
        registry.record_offered(3, 0, 0);
        let a = registry.register("w1".into(), 2);
        let b = registry.register("w2".into(), 1);
        registry.record_dispatched();
        registry.record_dispatched();
        registry.record_dispatched();
        registry.record_completed(a);
        registry.record_completed(a);
        registry.mark_dead(b, 1, "connection closed".into());
        // Second phase: w1 reconnects and composes with partial dedup.
        registry.record_offered(0, 2, 4);
        registry.record_shards_offered(3);
        let a2 = registry.register("w1".into(), 2);
        registry.record_dispatched();
        registry.record_dispatched();
        registry.record_summaries(3, 900, 1);
        registry.record_completed(a2);
        registry.record_completed(a2);

        let stats = registry.stats();
        assert_eq!(stats.workers, 2, "distinct peers");
        assert_eq!(stats.workers_lost, 1);
        // Capacity counts each peer's latest advertisement, whether the
        // peer later died or not: w1's 2 plus the late w2's 1.
        assert_eq!(stats.capacity, 3);
        assert_eq!(stats.jobs_dispatched, 5);
        assert_eq!(stats.jobs_completed, 4);
        assert_eq!(stats.jobs_requeued, 1);
        assert_eq!(stats.explore_jobs, 3);
        assert_eq!(stats.compose_jobs, 2);
        assert_eq!(stats.compose_shards, 3);
        assert_eq!(stats.fuzz_jobs, 4);
        assert_eq!(stats.workers_idle, 1, "w2 joined but returned nothing");
        assert_eq!(stats.summaries_shipped, 3);
        assert_eq!(stats.summaries_deduped, 1);
        assert_eq!(stats.summary_bytes_shipped, 900);
        assert_eq!(stats.workers_suspect, 0);
    }

    #[test]
    fn workers_idle_clamps_at_zero_when_worker_joins_mid_batch() {
        let registry = WorkerRegistry::new();
        let a = registry.register("w1".into(), 2);
        registry.record_offered(0, 3, 0);
        registry.record_temporal_offered(2);
        registry.record_dispatched();
        registry.record_completed(a);
        // w2 joins mid-batch — and w1's reconnect re-registers the same
        // peer, so entries outnumber distinct peers while every peer is
        // active. The idle derivation must clamp at zero, never wrap.
        let b = registry.register("w2".into(), 1);
        let a2 = registry.register("w1".into(), 2);
        registry.record_dispatched();
        registry.record_dispatched();
        registry.record_completed(b);
        registry.record_completed(a2);
        let stats = registry.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.workers_idle, 0, "every peer returned results");
        assert!(stats.workers_idle <= stats.workers);
        assert_eq!(stats.temporal_jobs, 2);
        assert_eq!(stats.compose_jobs, 3);
    }

    #[test]
    fn suspect_workers_count_as_lost_and_as_suspect() {
        let registry = WorkerRegistry::new();
        let a = registry.register("w1".into(), 2);
        registry.register("w2".into(), 2);
        registry.mark_suspect(a, 2, "suspect: no heartbeat".into());
        let stats = registry.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.workers_lost, 1);
        assert_eq!(stats.workers_suspect, 1);
        assert_eq!(stats.jobs_requeued, 2);
        let entry = &registry.workers()[a];
        assert!(!entry.alive);
        assert!(entry.note.as_deref().unwrap().contains("suspect"));
    }

    #[test]
    fn live_capacity_counts_each_peer_once() {
        let registry = WorkerRegistry::new();
        registry.register("w1".into(), 2);
        // The next dispatch phase re-registers the same peer.
        let again = registry.register("w1".into(), 2);
        assert_eq!(registry.live_capacity(), 2);
        assert_eq!(registry.stats().capacity, 2);
        // A dead latest registration takes the peer out of live capacity,
        // whatever its older entries say; a failed reconnect does not
        // shadow what the peer advertised.
        registry.register("w2".into(), 1);
        registry.mark_dead(again, 0, "connection closed".into());
        registry.register_dead("w2".into(), "connection refused".into());
        assert_eq!(registry.live_capacity(), 1);
        assert_eq!(registry.stats().capacity, 3);
    }
}
