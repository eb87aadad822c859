//! Byte-identity of the shard fold under adversarial fleet shapes.
//!
//! `fold_composition_shards` promises the same report as an unsharded
//! `Verifier::verify`, whatever the shard boundaries or fleet behaviour
//! were. This property test throws randomized tilings at that promise:
//! cut points landing *inside* a suspect node's unit block (intra-suspect
//! splits), shards whose worker "dies" mid-slice and ships nothing, and
//! shards cancelled before they start. The fold must reproduce the baseline verdict, counterexamples, unproven paths,
//! and stats field for field — field identity of the deterministic report
//! is byte identity of its serialised form.

use dataplane_pipeline::presets::{
    buggy_pipeline, firewall_pipeline, ip_router_pipeline, linear_router_pipeline,
    middlebox_pipeline,
};
use dataplane_pipeline::Pipeline;
use dataplane_symbex::CancelToken;
use dataplane_verifier::{Property, Verifier};
use proptest::prelude::*;

/// The preset pipelines the random tilings are checked against.
fn presets() -> Vec<(&'static str, Pipeline)> {
    vec![
        ("ip_router", ip_router_pipeline()),
        ("linear_router", linear_router_pipeline()),
        ("middlebox", middlebox_pipeline()),
        ("firewall", firewall_pipeline(vec![])),
        ("buggy", buggy_pipeline()),
    ]
}

/// Random cut points mapped into `(0, total)`: the resulting ranges tile
/// `[0, total)` but ignore node boundaries entirely, so multi-unit
/// suspects routinely end up split across shards.
fn ranges_from_cuts(total: usize, cuts: &[u64]) -> Vec<(usize, usize)> {
    let mut points: Vec<usize> = cuts
        .iter()
        .filter(|_| total > 1)
        .map(|&c| 1 + (c as usize) % (total - 1))
        .collect();
    points.sort_unstable();
    points.dedup();
    points.push(total);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    for end in points {
        if end > start {
            ranges.push((start, end));
            start = end;
        }
    }
    ranges
}

/// What the randomized fleet does with one shard.
#[derive(Clone, Copy, Debug)]
enum Fate {
    /// The worker computes the slice and ships every record.
    Normal,
    /// The worker dies mid-slice: nothing ships, the fold computes the
    /// uncovered units inline.
    Dead,
    /// The shard's token fired before the walk started; whatever
    /// complete slots survived (none, for a pre-fired token) still ship.
    Cancelled,
}

fn fate(pick: u64) -> Fate {
    match pick % 3 {
        0 => Fate::Normal,
        1 => Fate::Dead,
        _ => Fate::Cancelled,
    }
}

/// Run one shard under its fate, appending whatever records "arrive" at
/// the coordinator.
fn run_shard(
    pipeline: &Pipeline,
    property: &Property,
    range: (usize, usize),
    fate: Fate,
    records: &mut Vec<dataplane_verifier::ShardNodeRecord>,
) {
    let (start, end) = range;
    match fate {
        Fate::Normal => {
            let mut worker = Verifier::new();
            let shard = worker.decide_composition_shard(
                pipeline,
                property,
                Vec::new(),
                start,
                end,
                &CancelToken::new(),
            );
            assert!(!shard.cancelled);
            records.extend(shard.records);
        }
        Fate::Dead => {
            // The worker's partial results are lost with the connection.
        }
        Fate::Cancelled => {
            let cancel = CancelToken::new();
            cancel.cancel();
            let mut worker = Verifier::new();
            let shard = worker.decide_composition_shard(
                pipeline,
                property,
                Vec::new(),
                start,
                end,
                &cancel,
            );
            records.extend(shard.records);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the tiling and however the fleet misbehaves, the fold
    /// matches the unsharded baseline field for field.
    #[test]
    fn fold_is_byte_identical_under_random_tilings(
        preset in 0usize..5,
        cuts in proptest::collection::vec(any::<u64>(), 0..6),
        fates in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let (_name, pipeline) = presets().swap_remove(preset);
        let property = Property::CrashFreedom;

        let mut baseline = Verifier::new();
        let base = baseline.verify(&pipeline, &property);

        let mut outliner = Verifier::new();
        let Some(outline) =
            outliner.outline_composition(&pipeline, &property, Vec::new())
        else {
            // No suspects: the sharded path is never taken for this scenario.
            return Ok(());
        };
        let total = outline.total_weight();
        prop_assert!(total > 0);
        let ranges = ranges_from_cuts(total, &cuts);
        prop_assert_eq!(ranges.last().copied(), Some((ranges[ranges.len() - 1].0, total)));

        let mut records = Vec::new();
        for (i, &range) in ranges.iter().enumerate() {
            run_shard(
                &pipeline,
                &property,
                range,
                fate(fates[i % fates.len()]),
                &mut records,
            );
        }

        let mut folder = Verifier::new();
        let folded = folder.fold_composition_shards(
            &pipeline,
            &property,
            Vec::new(),
            &outline,
            records,
        );
        prop_assert_eq!(folded.verdict, base.verdict);
        prop_assert_eq!(folded.counterexamples, base.counterexamples);
        prop_assert_eq!(folded.unproven, base.unproven);
        prop_assert_eq!(folded.stats, base.stats);
    }

    /// A cut inside every multi-unit node: one-unit shards with random
    /// fates are the most fragmented fleet possible, and the fold still
    /// reproduces the baseline.
    #[test]
    fn unit_granular_tiling_survives_random_fates(
        preset in 0usize..5,
        fates in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let (_name, pipeline) = presets().swap_remove(preset);
        let property = Property::CrashFreedom;

        let mut baseline = Verifier::new();
        let base = baseline.verify(&pipeline, &property);

        let mut outliner = Verifier::new();
        let Some(outline) =
            outliner.outline_composition(&pipeline, &property, Vec::new())
        else {
            return Ok(());
        };

        let mut records = Vec::new();
        for (i, range) in outline.shards(1).into_iter().enumerate() {
            run_shard(
                &pipeline,
                &property,
                range,
                fate(fates[i % fates.len()]),
                &mut records,
            );
        }

        let mut folder = Verifier::new();
        let folded = folder.fold_composition_shards(
            &pipeline,
            &property,
            Vec::new(),
            &outline,
            records,
        );
        prop_assert_eq!(folded.verdict, base.verdict);
        prop_assert_eq!(folded.counterexamples, base.counterexamples);
        prop_assert_eq!(folded.unproven, base.unproven);
        prop_assert_eq!(folded.stats, base.stats);
    }
}
