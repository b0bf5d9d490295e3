//! Fault-injection checks: seeded failpoint arming during differential
//! runs. The properties are the robustness contract of the stack —
//!
//! * however many pairs a fault kills, the accounting must close
//!   (`succeeded + failed + skipped == total`),
//! * every *surviving* pair must be bit-identical to the fault-free
//!   baseline,
//! * after the faults are disarmed, a clean run must be fully `Complete`
//!   and bit-identical again (no poisoned state left behind),
//! * a torn or killed configuration write must leave a loadable file on
//!   disk, recovering from the `.bak` generation when needed.
//!
//! Failpoints are process-global, so these checks must not run
//! concurrently with other failpoint users; the fuzz CLI and the smoke
//! tests serialize them.

use crate::checks::{ordered_pairs, same_answer, Failure};
use cardir_cardirect::xml::{backup_path, load_config, save_xml_atomic, temp_path, LoadSource};
use cardir_cardirect::Configuration;
use cardir_engine::{BatchEngine, EngineMode, PairOutcome, PairRelation, RegionCache, RunPolicy};
use cardir_faults::{sites, FaultAction, Trigger};
use cardir_geometry::Region;
use std::path::PathBuf;

fn fail(check: &'static str, detail: String) -> Option<Failure> {
    Some(Failure { check, detail })
}

/// Seeded fault sweep over the batch engine: arms `engine.pair.compute`
/// with a probabilistic panic (and, second pass, an injected error with
/// retries), and checks accounting plus bit-identical survivors at
/// several thread counts.
pub fn check_engine_faults(regions: &[Region], seed: u64) -> Option<Failure> {
    if regions.len() < 2 {
        return None;
    }
    cardir_faults::disarm_all();
    let cache = RegionCache::build(regions);
    let n = regions.len();
    let total = n * (n - 1);
    // Every ordered pair is a work item, so faults can hit any of them.
    let all_pairs = ordered_pairs(n);

    // Fault-free baseline, default policy, through the whole-map path.
    let engine = BatchEngine::new().with_mode(EngineMode::Quantitative);
    let baseline: Vec<PairRelation> = engine
        .run_join(&cache, &RunPolicy::default())
        .materialize(&cache)
        .relations()
        .cloned()
        .collect();
    if baseline.len() != total {
        return fail(
            "faults-engine-baseline",
            format!("fault-free run produced {} of {total} pairs", baseline.len()),
        );
    }

    let scenarios: [(&str, FaultAction, u32); 2] = [
        ("faults-engine-panic", FaultAction::Panic("injected".into()), 0),
        ("faults-engine-error", FaultAction::Error("injected".into()), 1),
    ];
    for (check, action, retries) in scenarios {
        for threads in [1usize, 2, 4] {
            let guard = cardir_faults::arm(
                sites::ENGINE_PAIR_COMPUTE,
                action.clone(),
                // Roughly one pair in four, re-rolled per hit from the
                // run seed, so every iteration exercises a different
                // failure pattern.
                Trigger::Probability { num: 1, den: 4, seed: seed ^ threads as u64 },
            );
            let outcome = cardir_faults::with_silent_panics(|| {
                BatchEngine::new()
                    .with_mode(EngineMode::Quantitative)
                    .with_threads(threads)
                    .run_pairs(&cache, &all_pairs, &RunPolicy::default().with_retries(retries))
                    .expect("every ordered pair indexes into the cache")
            });
            drop(guard);

            if outcome.succeeded + outcome.failed + outcome.skipped != total {
                return fail(
                    check,
                    format!(
                        "threads={threads}: accounting broken: {} + {} + {} != {total}",
                        outcome.succeeded, outcome.failed, outcome.skipped
                    ),
                );
            }
            if outcome.skipped != 0 {
                return fail(
                    check,
                    format!("threads={threads}: {} pairs skipped with no deadline/cancel", outcome.skipped),
                );
            }
            if outcome.pairs.len() != total {
                return fail(
                    check,
                    format!("threads={threads}: {} outcome slots for {total} pairs", outcome.pairs.len()),
                );
            }
            for (k, (pair, want)) in outcome.pairs.iter().zip(&baseline).enumerate() {
                match pair {
                    PairOutcome::Ok(pr) => {
                        if !same_answer(pr, want) {
                            return fail(
                                check,
                                format!(
                                    "threads={threads} pair {k}: survivor diverged: \
                                     engine ({}, {}) {} vs baseline ({}, {}) {}",
                                    pr.primary, pr.reference, pr.relation,
                                    want.primary, want.reference, want.relation
                                ),
                            );
                        }
                    }
                    PairOutcome::Failed(e) => {
                        if (e.primary, e.reference) != (want.primary, want.reference) {
                            return fail(
                                check,
                                format!(
                                    "threads={threads} pair {k}: failure attributed to \
                                     ({}, {}), slot belongs to ({}, {})",
                                    e.primary, e.reference, want.primary, want.reference
                                ),
                            );
                        }
                    }
                    PairOutcome::Skipped { .. } => unreachable!("skipped == 0 was checked"),
                }
            }
        }
    }

    // A clean run after disarming must be fully complete and
    // bit-identical — injected faults must leave no residue.
    let clean = BatchEngine::new()
        .with_mode(EngineMode::Quantitative)
        .with_threads(2)
        .run_pairs(&cache, &all_pairs, &RunPolicy::default())
        .expect("every ordered pair indexes into the cache");
    if !clean.is_complete() || clean.failed != 0 {
        return fail(
            "faults-engine-residue",
            format!("clean run after disarm: status {:?}, {} failed", clean.status, clean.failed),
        );
    }
    for (pair, want) in clean.pairs.iter().zip(&baseline) {
        match pair {
            PairOutcome::Ok(pr) if same_answer(pr, want) => {}
            other => {
                return fail(
                    "faults-engine-residue",
                    format!("clean run diverged from baseline at {other:?}"),
                )
            }
        }
    }
    None
}

/// Scratch file for one persistence check, unique per process and seed.
fn scratch_path(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("cardir-fuzz-faults-{}-{seed}.xml", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(backup_path(path));
    let _ = std::fs::remove_file(temp_path(path));
}

/// Seeded torn-write / recovery check on the persistence layer: a save
/// killed mid-stream must leave the previous generation loadable, and a
/// primary corrupted in place must recover from the `.bak` generation.
pub fn check_persistence_faults(regions: &[Region], seed: u64) -> Option<Failure> {
    if regions.is_empty() {
        return None;
    }
    cardir_faults::disarm_all();
    let mut config = Configuration::new("fault fuzz v1", "fuzz.png");
    // A handful of regions is plenty; persistence cost is linear.
    for (i, r) in regions.iter().take(4).enumerate() {
        if let Err(e) = config.add_region(format!("r{i}"), format!("R{i}"), "red", r.clone()) {
            return fail("faults-persist-build", format!("add_region r{i}: {e}"));
        }
    }
    config.compute_all_relations();
    let path = scratch_path(seed);
    cleanup(&path);

    let result = (|| {
        if let Err(e) = save_xml_atomic(&config, &path) {
            return fail("faults-persist-save", format!("clean save failed: {e}"));
        }

        // Tear the next save mid-stream at a seed-derived byte offset.
        let torn_at = (seed % 200) as usize + 1;
        let guard = cardir_faults::arm(
            sites::XML_WRITE_DATA,
            FaultAction::TornWrite(torn_at),
            Trigger::Times(1),
        );
        let mut v2 = config.clone();
        v2.name = "fault fuzz v2".to_string();
        let torn = save_xml_atomic(&v2, &path);
        drop(guard);
        if torn.is_ok() {
            return fail("faults-persist-torn", "torn write reported success".to_string());
        }
        match load_config(&path) {
            Ok(loaded) => {
                if loaded.config.name != "fault fuzz v1" {
                    return fail(
                        "faults-persist-torn",
                        format!("after torn save, loaded generation {:?}", loaded.config.name),
                    );
                }
            }
            Err(e) => {
                return fail(
                    "faults-persist-torn",
                    format!("configuration unloadable after torn save: {e}"),
                )
            }
        }

        // Now a clean v2 save, then corrupt the primary in place — the
        // `.bak` generation (v1) must satisfy the load.
        if let Err(e) = save_xml_atomic(&v2, &path) {
            return fail("faults-persist-save", format!("v2 save failed: {e}"));
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail("faults-persist-recover", format!("read back failed: {e}")),
        };
        let cut = (seed % text.len().max(1) as u64) as usize;
        if std::fs::write(&path, &text[..cut]).is_err() {
            return fail("faults-persist-recover", "could not corrupt the primary".to_string());
        }
        match load_config(&path) {
            // A short truncation can leave a still-valid document (the
            // tail may be trailing whitespace), in which case the primary
            // (v2) wins; otherwise the `.bak` generation (v1) must.
            Ok(loaded) => {
                let want = match loaded.source {
                    LoadSource::Primary => "fault fuzz v2",
                    LoadSource::Backup => "fault fuzz v1",
                };
                if loaded.config.name != want {
                    return fail(
                        "faults-persist-recover",
                        format!(
                            "{:?} recovery produced generation {:?}, expected {want:?}",
                            loaded.source, loaded.config.name
                        ),
                    );
                }
                None
            }
            Err(e) => fail(
                "faults-persist-recover",
                format!("no generation loadable after corruption: {e}"),
            ),
        }
    })();
    cleanup(&path);
    result
}
