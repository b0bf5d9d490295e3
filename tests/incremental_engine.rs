//! Cross-layer tests of the incremental engine: edit scripts across
//! modes and thread counts differentially asserted against a fresh full
//! recompute, plus fault-driven pending/repair flows.
//!
//! Failpoints are process-global; every test that arms one (or that
//! depends on none being armed) holds `SERIAL`. This file is its own
//! test binary, so no other suite can race it.

use cardir::engine::{
    BatchEngine, CompletionStatus, Edit, EngineMode, EngineSnapshot, IncrementalEngine,
    IncrementalError, PairRelation, RegionCache, RunPolicy,
};
use cardir::faults::{self, sites, FaultAction, Trigger};
use cardir::geometry::{BoundingBox, Point, Region};
use cardir::telemetry::Registry;
use cardir::workloads::{random_map, SplitMix64};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn extent() -> BoundingBox {
    BoundingBox::new(Point::new(0.0, 0.0), Point::new(400.0, 300.0))
}

fn map(seed: u64, n: usize) -> Vec<Region> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    random_map(&mut rng, n, extent()).into_iter().map(|m| m.region).collect()
}

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
}

/// The oracle: a fresh prefilter-on spatial-join run over the engine's
/// live geometry, fully materialized.
fn full_recompute(engine: &IncrementalEngine) -> Vec<PairRelation> {
    let regions: Vec<&Region> = engine.live_regions().map(|(_, r)| r).collect();
    let cache = RegionCache::build(regions);
    let batch = BatchEngine::new().with_mode(engine.mode()).with_threads(1);
    let outcome = batch.run_join(&cache, &RunPolicy::default()).materialize(&cache);
    outcome.pairs.iter().map(|p| p.ok().expect("clean oracle run").clone()).collect()
}

fn assert_matches_full(engine: &IncrementalEngine, context: &str) {
    let materialized = engine.materialize().expect("no pending pairs");
    let oracle = full_recompute(engine);
    assert_eq!(materialized.len(), oracle.len(), "{context}: pair count");
    for (got, want) in materialized.iter().zip(&oracle) {
        assert_eq!(got, want, "{context}: pair ({}, {})", got.primary, got.reference);
    }
}

/// A deterministic mixed edit script, bit-compared against the oracle
/// after every step, across both modes and several thread counts.
#[test]
fn edit_scripts_match_full_recompute_across_modes_and_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
        for threads in [1usize, 2, 4] {
            let mut engine =
                IncrementalEngine::bootstrap(mode, threads, map(601, 20), &RunPolicy::default());
            assert_matches_full(&engine, "bootstrap");
            let mut rng = SplitMix64::seed_from_u64(602);
            for (step, replacement) in map(603, 10).into_iter().enumerate() {
                let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
                let edit = match step % 4 {
                    0 | 1 => {
                        let victim = live[rng.random_range(0..live.len() as u64) as usize];
                        Edit::Replace(victim, replacement)
                    }
                    2 => Edit::Insert(replacement),
                    _ => {
                        let victim = live[rng.random_range(0..live.len() as u64) as usize];
                        Edit::Remove(victim)
                    }
                };
                let delta = engine.apply(edit).expect("edit applies");
                assert_eq!(delta.status, CompletionStatus::Complete);
                assert_matches_full(
                    &engine,
                    &format!("mode {mode:?} threads {threads} step {step}"),
                );
            }
        }
    }
}

/// Faulted edits park pairs as pending — never as wrong relations —
/// and a repair after disarming converges to the exact state.
#[test]
fn faulted_edits_park_pending_then_repair_converges() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let mut engine = IncrementalEngine::bootstrap(
        EngineMode::Quantitative,
        2,
        map(611, 15),
        &RunPolicy::default(),
    );

    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Error("injected".into()),
        Trigger::Probability { num: 1, den: 2, seed: 611 },
    );
    let mut pending_seen = 0;
    for replacement in map(613, 6) {
        let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
        let victim = live[(replacement.mbb().min.x as u64 % live.len() as u64) as usize];
        let delta = engine.apply(Edit::Replace(victim, replacement)).expect("edit applies");
        pending_seen += delta.pending_added.len();
    }
    drop(guard);
    assert!(pending_seen > 0, "the 1-in-2 fault never fired across 6 edits");

    if engine.pending_count() > 0 {
        // Reads exclude pending pairs rather than serving stale values.
        let (a, b) = engine.pending_pairs()[0];
        assert_eq!(engine.relation(a, b), None);
        assert!(matches!(
            engine.materialize(),
            Err(IncrementalError::PendingPairs(_))
        ));
    }

    let repaired = engine.repair();
    assert_eq!(repaired.still_pending, 0, "disarmed repair must clear the backlog");
    assert_eq!(repaired.status, CompletionStatus::Complete);
    assert_matches_full(&engine, "after repair");
}

/// A repair that faults again keeps the unlucky pairs pending; a second
/// clean repair finishes the job.
#[test]
fn repair_under_fire_keeps_failures_pending() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let mut engine = IncrementalEngine::bootstrap(
        EngineMode::Qualitative,
        1,
        vec![
            rect(0.0, 0.0, 10.0, 10.0),
            rect(5.0, 5.0, 15.0, 15.0),
            rect(8.0, 2.0, 18.0, 8.0),
        ],
        &RunPolicy::default(),
    );

    // Fault every compute: the replace parks all its pairs.
    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Error("injected".into()),
        Trigger::Always,
    );
    let delta = engine.apply(Edit::Replace(1, rect(6.0, 6.0, 16.0, 16.0))).expect("applies");
    assert!(delta.installed.is_empty());
    assert!(!delta.pending_added.is_empty());

    // Repair under the same fault: everything stays pending.
    let repaired = engine.repair();
    assert_eq!(repaired.installed.len(), 0);
    assert_eq!(repaired.still_pending, engine.pending_count());
    assert!(repaired.still_pending > 0);
    drop(guard);

    // Clean repair converges.
    let repaired = engine.repair();
    assert_eq!(repaired.still_pending, 0);
    assert_matches_full(&engine, "after second repair");
}

/// Pending pairs of an edited slot are dropped by the invalidation (the
/// new geometry supersedes the failed computation) rather than repaired
/// against stale geometry.
#[test]
fn invalidation_supersedes_pending_pairs_of_the_edited_slot() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let mut engine = IncrementalEngine::bootstrap(
        EngineMode::Qualitative,
        1,
        vec![rect(0.0, 0.0, 10.0, 10.0), rect(5.0, 5.0, 15.0, 15.0)],
        &RunPolicy::default(),
    );
    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Error("injected".into()),
        Trigger::Always,
    );
    engine.apply(Edit::Replace(1, rect(6.0, 6.0, 16.0, 16.0))).expect("applies");
    assert!(engine.pending_count() > 0);
    drop(guard);

    // Removing the slot drops its pending pairs with it.
    engine.apply(Edit::Remove(1)).expect("applies");
    assert_eq!(engine.pending_count(), 0);
    assert_matches_full(&engine, "after remove of faulted slot");
}

/// Panic isolation holds through the incremental recompute path: an
/// injected panic in a pair computation is absorbed as a failed pair,
/// not an unwind through `apply`.
#[test]
fn injected_panic_is_isolated_as_a_pending_pair() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let mut engine = IncrementalEngine::bootstrap(
        EngineMode::Quantitative,
        1,
        vec![rect(0.0, 0.0, 10.0, 10.0), rect(5.0, 5.0, 15.0, 15.0)],
        &RunPolicy::default(),
    );
    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Panic("injected".into()),
        Trigger::Times(1),
    );
    let delta = faults::with_silent_panics(|| {
        engine.apply(Edit::Replace(1, rect(6.0, 6.0, 16.0, 16.0)))
    })
    .expect("apply absorbs the panic");
    drop(guard);
    assert_eq!(delta.pending_added.len(), 1, "the panicked pair parks as pending");
    let repaired = engine.repair();
    assert_eq!(repaired.still_pending, 0);
    assert_matches_full(&engine, "after panic repair");
}

/// The engine's export and the fault registry's per-site counters land
/// in one registry snapshot.
#[test]
fn incremental_and_fault_site_counters_share_a_registry() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let mut engine = IncrementalEngine::bootstrap(
        EngineMode::Qualitative,
        1,
        map(631, 6),
        &RunPolicy::default(),
    );
    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Error("injected".into()),
        Trigger::Times(1),
    );
    for replacement in map(633, 3) {
        let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
        engine.apply(Edit::Replace(live[0], replacement)).expect("applies");
    }
    drop(guard);
    engine.repair();

    let registry = Registry::new();
    engine.export(&registry);
    faults::export(&registry);
    let snap = registry.snapshot();
    assert!(snap.counter("incremental.edits_applied").unwrap_or(0) >= 3);
    assert!(snap.counter("incremental.pairs_invalidated").unwrap_or(0) > 0);
    // The injected fault fired at least once somewhere in the script;
    // its per-site counter reports under the same registry.
    assert!(snap.counter("faults.site.engine.pair.compute").unwrap_or(0) >= 1);
}

/// A published snapshot equals a fresh bootstrap over its own live
/// regions, bit for bit.
fn assert_matches_bootstrap(snapshot: &EngineSnapshot, context: &str) {
    let regions: Vec<Region> = snapshot.live_regions().map(|(_, r)| r.clone()).collect();
    let fresh = IncrementalEngine::bootstrap(snapshot.mode(), 1, regions, &RunPolicy::default());
    assert_eq!(
        snapshot.materialize().expect("published snapshot has no pending pairs"),
        fresh.materialize().expect("clean bootstrap"),
        "{context}"
    );
}

/// Snapshots share regions, pair rows and the pending set with the
/// engine, so a writer that failed to copy before mutating would leak
/// its edits into published epochs. A snapshot held from the start must
/// materialize bit-identically across a 200-step seeded script of
/// inserts, replaces, removes and zero-deadline edits (whose parked
/// pairs a repair then clears), and every newly published snapshot must
/// equal a bootstrap over its own live regions.
#[test]
fn held_snapshot_is_stable_while_published_snapshots_track_bootstrap() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let mut engine = IncrementalEngine::bootstrap(
        EngineMode::Quantitative,
        1,
        map(641, 30),
        &RunPolicy::default(),
    );
    let held = engine.snapshot();
    let held_pairs = held.materialize().expect("clean bootstrap");
    let zero_deadline = RunPolicy::default().with_deadline(Duration::ZERO);
    let mut rng = SplitMix64::seed_from_u64(642);
    let mut parked_total = 0;
    // The previous epoch stays alive too, as a server's readers keep it,
    // and must not move either.
    let (mut previous, mut previous_pairs) = (held.clone(), held_pairs.clone());
    for (step, replacement) in map(643, 200).into_iter().enumerate() {
        let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
        let victim = live[rng.random_range(0..live.len() as u64) as usize];
        let context = format!("step {step}");
        match step % 5 {
            0 | 1 => {
                engine.apply(Edit::Replace(victim, replacement)).expect("replace applies");
            }
            2 => {
                engine.apply(Edit::Insert(replacement)).expect("insert applies");
            }
            3 => {
                engine.apply(Edit::Remove(victim)).expect("remove applies");
            }
            _ => {
                let delta = engine
                    .apply_with(Edit::Replace(victim, replacement), &zero_deadline)
                    .expect("zero-deadline replace lands");
                let parked = engine.snapshot();
                assert_eq!(parked.pending_count(), delta.pending_added.len(), "{context}");
                parked_total += delta.pending_added.len();
                let repaired = engine.repair();
                assert_eq!(repaired.still_pending, 0, "{context}");
                // The repair graduated the pairs in the engine, not in
                // the snapshot published before it.
                assert_eq!(parked.pending_count(), delta.pending_added.len(), "{context}");
                if !delta.pending_added.is_empty() {
                    assert!(parked.materialize().is_err(), "{context}");
                }
            }
        }
        assert_eq!(previous.materialize().expect("previous epoch"), previous_pairs, "{context}");
        assert_eq!(held.materialize().expect("held snapshot"), held_pairs, "{context}");
        let published = engine.snapshot();
        assert_matches_bootstrap(&published, &context);
        previous_pairs = published.materialize().expect("checked above");
        previous = published;
    }
    assert!(parked_total > 0, "no zero-deadline edit ever parked a pair");
    assert_eq!(held.live_count(), 30);
}
