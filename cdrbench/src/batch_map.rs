//! `batch_map`: Compute-CDR% over a whole 10 000-region map, the way a
//! batch analyst runs it — load the CARDIRECT XML, build the region
//! cache, run the spatial join.

use crate::common::{extent, nproc, peak_rss_mb, percentages_match, reset_peak_rss};
use crate::report::Report;
use crate::stats::{median, Tally};
use crate::Ctx;
use cardir_cardirect::{load_config, to_xml, Configuration};
use cardir_core::{compute_cdr, CardinalRelation};
use cardir_engine::{
    decided_tile, BatchEngine, CompletionStatus, EngineMode, JoinOutcome, PairOutcome, RegionCache,
    RunPolicy,
};
use cardir_geometry::Region;
use cardir_telemetry::trace::MAIN_TID;
use cardir_telemetry::Tracer;
use cardir_workloads::{random_map, SplitMix64};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Regions in the batch map.
pub const REGIONS: usize = 10_000;
/// Times the set-up (XML load plus cache build) is repeated per run.
const SETUP_REPEATS: usize = 31;
/// Exact and mask-emitted pairs checked against the oracle per join.
const SAMPLE: usize = 200;

/// Writes the seeded map as CARDIRECT XML under `dir` (not timed).
pub fn write_map(dir: &Path, seed: u64) -> PathBuf {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut config = Configuration::new("batch_map", "batch_map.img");
    for m in random_map(&mut rng, REGIONS, extent(REGIONS)) {
        config
            .add_region(m.id.clone(), m.id, m.color, m.region)
            .expect("generated ids are XML names");
    }
    let path = dir.join(format!("batch_map-{seed}.xml"));
    std::fs::write(&path, to_xml(&config)).expect("write the batch map");
    path
}

/// Loads the map (the XML layer of set-up).
pub fn load_regions(path: &Path) -> Vec<Region> {
    let loaded = load_config(path).expect("load the batch map");
    loaded
        .config
        .regions()
        .iter()
        .map(|r| r.region.clone())
        .collect()
}

/// The engine the workload runs: quantitative, one thread per CPU.
pub fn engine() -> BatchEngine {
    BatchEngine::new()
        .with_mode(EngineMode::Quantitative)
        .with_threads(nproc())
}

/// Checks one join outcome: the full pair accounting, then a seeded
/// sample of exact and mask-emitted pairs against Compute-CDR and
/// Compute-CDR% on the region path. Returns `true` when all hold.
pub fn check_outcome(
    outcome: &JoinOutcome,
    regions: &[Region],
    cache: &RegionCache<'_>,
    rng: &mut SplitMix64,
) -> bool {
    let n = regions.len();
    let mut ok = outcome.status == CompletionStatus::Complete
        && outcome.failed == 0
        && outcome.skipped == 0
        && outcome.succeeded == n * (n - 1)
        && outcome.interacting.len() == outcome.join.exact_pairs
        && outcome.join.exact_pairs + outcome.join.mask_emitted == n * (n - 1);
    for _ in 0..SAMPLE.min(outcome.interacting.len()) {
        let k = rng.random_range(0..outcome.interacting.len());
        ok &= match &outcome.interacting[k] {
            PairOutcome::Ok(pr) => {
                let (a, b) = (&regions[pr.primary], &regions[pr.reference]);
                pr.relation == compute_cdr(a, b)
                    && pr
                        .percentages
                        .as_ref()
                        .is_some_and(|p| percentages_match(p, a, b))
            }
            _ => false,
        };
    }
    let mut checked = 0;
    while checked < SAMPLE {
        let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
        let interacting = outcome
            .interacting
            .binary_search_by_key(&(i, j), |p| p.indices())
            .is_ok();
        if i == j || interacting {
            continue;
        }
        checked += 1;
        // A mask-emitted pair's answer is the single tile its box lies in.
        ok &= match decided_tile(cache.mbb(i), cache.mbb(j)) {
            Some(tile) => {
                let (a, b) = (&regions[i], &regions[j]);
                compute_cdr(a, b) == CardinalRelation::single(tile)
                    && percentages_match(&cardir_core::PercentageMatrix::single_tile(tile), a, b)
            }
            None => false,
        };
    }
    ok
}

/// One run of the workload; `tracer` records a span per join when
/// enabled. Returns the join wall times in seconds.
fn join_loop(
    ctx: &Ctx,
    regions: &[Region],
    cache: &RegionCache<'_>,
    tracer: &Tracer,
    tally: &mut Tally,
    rng: &mut SplitMix64,
) -> Vec<f64> {
    let engine = engine();
    let policy = RunPolicy::default();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut trace = tracer.thread(MAIN_TID);
        let t0 = trace.begin();
        let begun = Instant::now();
        let outcome = std::hint::black_box(engine.run_join(cache, &policy));
        times.push(begun.elapsed().as_secs_f64());
        trace.end(t0, "batch.run_join", None);
        tally.record(check_outcome(&outcome, regions, cache, rng));
    }
    times
}

/// Runs `batch_map` and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let path = write_map(&ctx.work, ctx.seed);
    report.context("regions", REGIONS);
    report.context("engine_threads", nproc());
    report.context("mode", "quantitative");
    reset_peak_rss();

    let mut setups = Vec::new();
    let mut regions = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut regions));
        let start = Instant::now();
        regions = load_regions(&path);
        let cache = RegionCache::build(&regions);
        std::hint::black_box(&cache);
        setups.push(start.elapsed().as_secs_f64());
    }
    let cache = RegionCache::build(&regions);
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0xba7c);

    let mut tally = Tally::default();
    let times = join_loop(
        ctx,
        &regions,
        &cache,
        &Tracer::disabled(),
        &mut tally,
        &mut rng,
    );
    let pairs = (REGIONS * (REGIONS - 1)) as f64;
    let join_p50 = median(&times).expect("at least one join");
    report.metric(
        "setup_s",
        median(&setups).expect("set-up ran"),
        "s",
        setups.len(),
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    report.metric("pairs_per_s", pairs / join_p50, "pairs/s", times.len());
    report.metric("op_p50_ms", join_p50 * 1e3, "ms", times.len());
    report.tally.merge(tally);

    if ctx.trace {
        let tracer = Tracer::enabled();
        let mut traced = Tally::default();
        let began = Instant::now();
        let traced_times = join_loop(ctx, &regions, &cache, &tracer, &mut traced, &mut rng);
        let wall = began.elapsed();
        report.tally.merge(traced);
        let traced_p50 = median(&traced_times).expect("at least one join");
        crate::layers::record_overhead(
            report,
            ctx,
            "batch_map client",
            &tracer,
            wall,
            join_p50,
            traced_p50,
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_core::Tile;

    #[test]
    fn join_check_passes_the_engine_and_catches_wrong_answers() {
        let mut rng = SplitMix64::seed_from_u64(6);
        let regions: Vec<Region> = random_map(&mut rng, 64, extent(64))
            .into_iter()
            .map(|m| m.region)
            .collect();
        let cache = RegionCache::build(&regions);
        let outcome = engine().run_join(&cache, &RunPolicy::default());
        assert!(!outcome.interacting.is_empty());
        assert!(check_outcome(&outcome, &regions, &cache, &mut rng));

        // Every exact answer replaced by a wrong one.
        let mut wrong = outcome.clone();
        for pair in &mut wrong.interacting {
            if let PairOutcome::Ok(pr) = pair {
                let right = pr.relation;
                pr.relation = [Tile::N, Tile::S]
                    .into_iter()
                    .map(CardinalRelation::single)
                    .find(|&r| r != right)
                    .expect("two distinct candidates");
            }
        }
        assert!(!check_outcome(&wrong, &regions, &cache, &mut rng));

        // A pair missing from the accounting.
        let mut short = outcome;
        short.succeeded -= 1;
        assert!(!check_outcome(&short, &regions, &cache, &mut rng));
    }
}
