//! The Step-2 record table: what the safety fold already decided for one
//! pipeline, so a question asked again within the same request is answered
//! from the table instead of the solver.
//!
//! A fold node's computation is a pure function of its path (every
//! namespace is depth-indexed), so a record is fully identified by an exact
//! key that hashes no terms:
//!
//! * the **context class** — how the walk contextualises a composed
//!   constraint: the identity for every property but reachability, which
//!   binds its destination `(dst, dst_offset)`;
//! * the **route** — the node's forwarding-edge indices from the root;
//! * the **slot** — an edge index, or a check's suspect segment index plus
//!   its **confirm class**: `crash` for a crash segment under crash freedom
//!   or the instruction bound (both give it the same constraint, hints,
//!   replay confirmation and description), the property itself otherwise.
//!
//! The value is the [`ShardEdge`] or [`CheckRecord`] itself. Records carry
//! their own bookkeeping, so a reused record counts in a report's statistics
//! exactly like the call it replaces, and reports stay byte-identical.
//!
//! Beside the two shelves, the table keeps Step 1's local pre-checks:
//! whether the solver's refuting half refutes a segment on its own, keyed by
//! (element index, segment index). The answer depends only on the segment
//! and the solver options, so every property that finds the segment suspect
//! asks once per table; the caller still counts each question as a solver
//! call. Pre-checks stay out of [`RecordTable::computed`] and
//! [`RecordTable::reused`], which count Step-2 records only.

use crate::property::Property;
use crate::verifier::{CheckRecord, ShardEdge};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How a walk contextualises a composed constraint before deciding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Context {
    /// The constraint is decided as composed.
    Identity,
    /// The reachability destination is bound into the packet bytes.
    Destination(Ipv4Addr, u32),
}

impl Context {
    /// The context class of `property`'s walk.
    pub(crate) fn of(property: &Property) -> Context {
        match property {
            Property::Reachability {
                dst, dst_offset, ..
            } => Context::Destination(*dst, *dst_offset),
            _ => Context::Identity,
        }
    }
}

/// Which checks of the same context, route and segment decide alike.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Confirm {
    /// A crash segment under crash freedom or the instruction bound.
    Crash,
    /// Any other check: only the same property asks the same question.
    Property(Property),
}

impl Confirm {
    /// The confirm class of a check of a `crash` (or non-crash) segment
    /// under `property`.
    pub(crate) fn of(property: &Property, crash: bool) -> Confirm {
        match property {
            Property::CrashFreedom | Property::BoundedInstructions { .. } if crash => {
                Confirm::Crash
            }
            _ => Confirm::Property(property.clone()),
        }
    }
}

/// A node's forwarding-edge indices from the root, and a slot within it.
type Slot = (Vec<u32>, usize);

/// Records of one value type, grouped by class. A request asks a handful of
/// classes per pipeline, so a class is found by a linear scan.
struct Shelf<K, V>(Vec<(K, HashMap<Slot, V>)>);

impl<K: PartialEq, V: Clone> Shelf<K, V> {
    fn get(&self, class: &K, slot: &Slot) -> Option<V> {
        let (_, records) = self.0.iter().find(|(k, _)| k == class)?;
        records.get(slot).cloned()
    }

    fn insert(&mut self, class: K, slot: Slot, value: V) {
        match self.0.iter_mut().find(|(k, _)| *k == class) {
            Some((_, records)) => {
                records.insert(slot, value);
            }
            None => self.0.push((class, HashMap::from([(slot, value)]))),
        }
    }
}

/// The Step-2 records of one pipeline, shared by every fold over it within
/// one request (see the module docs). Thread-safe: folds of different
/// properties may run concurrently; whichever computes a record first
/// stores it, and every copy is the same value.
///
/// Every fold answered from one table must be over the same pipeline —
/// the same element behaviours, instance names and wiring — under the same
/// verifier options.
pub struct RecordTable {
    edges: Mutex<Shelf<Context, ShardEdge>>,
    checks: Mutex<Shelf<(Context, Confirm), CheckRecord>>,
    /// Step 1's pre-checks: (element, segment) → refuted.
    prechecks: Mutex<HashMap<(usize, usize), bool>>,
    computed: AtomicU64,
    reused: AtomicU64,
}

impl Default for RecordTable {
    fn default() -> Self {
        RecordTable::new()
    }
}

impl RecordTable {
    /// An empty table.
    pub fn new() -> Self {
        RecordTable {
            edges: Mutex::new(Shelf(Vec::new())),
            checks: Mutex::new(Shelf(Vec::new())),
            prechecks: Mutex::new(HashMap::new()),
            computed: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// Step-2 records the folds computed and stored.
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Step-2 questions the folds answered from the table.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// The pruning outcome of edge `edge` of the node at `route`.
    pub(crate) fn edge(
        &self,
        context: Context,
        route: &[u32],
        edge: usize,
        compute: impl FnOnce() -> ShardEdge,
    ) -> ShardEdge {
        self.recall(&self.edges, context, (route.to_vec(), edge), compute)
    }

    /// The check of suspect segment `segment` of the node at `route`.
    pub(crate) fn check(
        &self,
        class: (Context, Confirm),
        route: &[u32],
        segment: usize,
        compute: impl FnOnce() -> CheckRecord,
    ) -> CheckRecord {
        self.recall(&self.checks, class, (route.to_vec(), segment), compute)
    }

    /// Whether Step 1's local pre-check refutes segment `segment` of the
    /// element at index `element` on its own.
    pub(crate) fn precheck(
        &self,
        element: usize,
        segment: usize,
        compute: impl FnOnce() -> bool,
    ) -> bool {
        let key = (element, segment);
        if let Some(&refuted) = self.prechecks.lock().expect("record table").get(&key) {
            return refuted;
        }
        let refuted = compute();
        self.prechecks
            .lock()
            .expect("record table")
            .insert(key, refuted);
        refuted
    }

    /// The stored record, or `compute`'s, stored. The lock is not held
    /// while computing, so concurrent folds never wait on a solver call.
    fn recall<K: PartialEq, V: Clone>(
        &self,
        shelf: &Mutex<Shelf<K, V>>,
        class: K,
        slot: Slot,
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(value) = shelf.lock().expect("record table").get(&class, &slot) {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        let value = compute();
        self.computed.fetch_add(1, Ordering::Relaxed);
        shelf
            .lock()
            .expect("record table")
            .insert(class, slot, value.clone());
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::Verifier;
    use dataplane_pipeline::presets::linear_router_pipeline;
    use std::sync::Arc;

    #[test]
    fn a_second_fold_reads_its_step1_prechecks_from_the_table() {
        // Crash segments are suspect under crash freedom and under the
        // instruction bound: with one table, the second fold asks none of
        // their local pre-checks again, and neither report moves.
        let pipeline = linear_router_pipeline();
        let bound = Property::BoundedInstructions {
            max_instructions: 1_000_000,
        };
        let table = Arc::new(RecordTable::new());
        let stored = || table.prechecks.lock().expect("record table").len();
        let shared = |property: &Property| {
            Verifier::new()
                .with_records(table.clone())
                .verify(&pipeline, property)
        };
        let mut sizes = Vec::new();
        for property in [&Property::CrashFreedom, &bound] {
            let (shared, alone) = (
                shared(property),
                Verifier::new().verify(&pipeline, property),
            );
            assert_eq!(shared.verdict, alone.verdict, "{property:?}");
            assert_eq!(shared.counterexamples, alone.counterexamples);
            assert_eq!(shared.unproven, alone.unproven);
            assert_eq!(shared.stats, alone.stats);
            assert!(shared.stats.suspects > 0, "{property:?}");
            sizes.push(stored());
        }
        assert!(sizes[0] > 0, "{sizes:?}");
        assert_eq!(sizes[1], sizes[0], "the second fold computes no pre-check");
        // The stored answers are the ones read: once every one says
        // "refuted", a fold finds no suspect at all. Its pre-checks all
        // come from the table, and none counts as a Step-2 record.
        let counters = (table.computed(), table.reused());
        table
            .prechecks
            .lock()
            .expect("record table")
            .values_mut()
            .for_each(|refuted| *refuted = true);
        let refuted = shared(&bound);
        assert_eq!(refuted.stats.suspects, 0, "{refuted}");
        assert_eq!(stored(), sizes[0]);
        assert_eq!((table.computed(), table.reused()), counters);
    }
}
