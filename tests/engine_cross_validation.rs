//! Cross-validation of the batch engine (the parallel pair pipeline
//! behind the MBB spatial join) against the naive per-pair algorithms:
//! outputs must be
//! **bit-identical** — relations equal and percentage matrices equal as
//! raw f64s, not approximately — on every workload family, at every
//! thread count, with every pair in the naive double loop's order.

use cardir::core::{compute_cdr, compute_cdr_pct};
use cardir::engine::{BatchEngine, BatchOutcome, EngineMode, RegionCache, RunPolicy};
use cardir::geometry::{BoundingBox, Point, Region};
use cardir::workloads::{archipelago, random_map, RegionSpec, SplitMix64};

/// Checks one region family: engine output at 1, 2, and 4 threads — with
/// the box decision (the materialized spatial join) *and* without it
/// (`run_pairs` over every ordered pair, all on the exact path) — is
/// bit-identical to the naive loop, in both modes.
fn assert_engine_matches_naive(regions: &[Region], family: &str) {
    let cache = RegionCache::build(regions);
    for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
        // The naive reference: the plain double loop in primary-major
        // order, straight through compute_cdr / compute_cdr_pct.
        let mut naive = Vec::new();
        for (i, a) in regions.iter().enumerate() {
            for (j, b) in regions.iter().enumerate() {
                if i != j {
                    let pct = (mode == EngineMode::Quantitative).then(|| compute_cdr_pct(a, b));
                    naive.push((i, j, compute_cdr(a, b), pct));
                }
            }
        }
        let all_pairs: Vec<(usize, usize)> = naive.iter().map(|&(i, j, _, _)| (i, j)).collect();
        for threads in [1usize, 2, 4] {
            for path in ["join", "exact"] {
                let label = format!("{family}, {mode:?}, {threads} threads, path={path}");
                let engine = BatchEngine::new().with_mode(mode).with_threads(threads);
                let result: BatchOutcome = if path == "join" {
                    engine.run_join(&cache, &RunPolicy::default()).materialize(&cache)
                } else {
                    engine.run_pairs(&cache, &all_pairs, &RunPolicy::default()).unwrap()
                };
                assert_eq!(result.pairs.len(), naive.len(), "{label}");
                assert_eq!(result.stats.pairs, naive.len());
                if path == "exact" {
                    assert_eq!(result.stats.prefilter_hits, 0, "{label}");
                    assert_eq!(result.stats.exact_pairs, naive.len(), "{label}");
                }
                let relations: Vec<_> = result.relations().collect();
                assert_eq!(relations.len(), naive.len(), "{label}: every pair computes");
                for (got, (i, j, rel, pct)) in relations.iter().zip(&naive) {
                    assert_eq!(
                        (got.primary, got.reference),
                        (*i, *j),
                        "{label}: order must be primary-major"
                    );
                    assert_eq!(got.relation, *rel, "{label}, pair ({i}, {j})");
                    assert_eq!(
                        got.percentages, *pct,
                        "{label}, pair ({i}, {j}): \
                         percentage matrices must be bit-identical"
                    );
                }
            }
        }
    }
}

/// Family 1: jittered-grid star maps — mostly disjoint boxes, so the
/// prefilter carries most pairs, at several sizes.
#[test]
fn grid_maps_bit_identical_across_threads() {
    let mut rng = SplitMix64::seed_from_u64(601);
    for n in [5usize, 17, 40] {
        let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(600.0, 450.0));
        let regions: Vec<Region> =
            random_map(&mut rng, n, extent).into_iter().map(|m| m.region).collect();
        assert_engine_matches_naive(&regions, &format!("grid map n={n}"));
    }
}

/// Family 2: the Ancient-Greece scenario — real composite coastlines with
/// touching and straddling boxes that defeat the prefilter.
#[test]
fn greece_scenario_bit_identical_across_threads() {
    let regions: Vec<Region> =
        cardir::workloads::greece_scenario().into_iter().map(|r| r.region).collect();
    assert!(regions.len() >= 5, "scenario should exercise a real pair matrix");
    assert_engine_matches_naive(&regions, "greece scenario");
}

/// Family 3: composite archipelagos whose members interleave, keeping the
/// exact path dominant (the prefilter rarely fires).
#[test]
fn archipelagos_bit_identical_across_threads() {
    let mut rng = SplitMix64::seed_from_u64(602);
    let regions: Vec<Region> = (0..8)
        .map(|i| {
            let spec = RegionSpec {
                polygons: 1 + i % 4,
                vertices_per_polygon: 8,
                center: Point::new((i % 3) as f64 * 9.0, (i / 3) as f64 * 7.0),
                spread: 12.0,
            };
            archipelago(&mut rng, spec)
        })
        .collect();
    assert_engine_matches_naive(&regions, "archipelago");
}

/// Family 4: MBB boundary contact — every pair shares a grid line or a
/// corner with some neighbour, the exact configurations where the
/// box decision must *decline* to decide. The join and the all-exact
/// path must agree bit for bit (the strictness of the short-circuit is
/// what this pins).
#[test]
fn shared_mbb_edges_and_corners_bit_identical_with_and_without_prefilter() {
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    };
    let regions = vec![
        rect(0.0, 0.0, 4.0, 4.0),   // the reference square
        rect(4.0, 0.0, 8.0, 4.0),   // shares the full east edge
        rect(0.0, 4.0, 4.0, 8.0),   // shares the full north edge
        rect(4.0, 4.0, 8.0, 8.0),   // touches only the NE corner
        rect(-4.0, -4.0, 0.0, 0.0), // touches only the SW corner
        rect(1.0, 4.0, 3.0, 6.0),   // sits on the north line, inside its span
        rect(-2.0, 2.0, 0.0, 3.0),  // sits on the west line
        rect(0.0, 0.0, 4.0, 4.0),   // exact duplicate of the reference
        rect(2.0, 2.0, 6.0, 6.0),   // straddles the NE corner
    ];
    assert_engine_matches_naive(&regions, "shared mbb edges/corners");
}

/// The engine's selected-pairs entry point agrees with the naive
/// computation on a random pair list, in list order, at several thread
/// counts.
#[test]
fn selected_pairs_bit_identical() {
    let mut rng = SplitMix64::seed_from_u64(603);
    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(500.0, 500.0));
    let regions: Vec<Region> =
        random_map(&mut rng, 30, extent).into_iter().map(|m| m.region).collect();
    let cache = RegionCache::build(&regions);
    let pairs: Vec<(usize, usize)> = (0..200)
        .map(|_| (rng.random_range(0..regions.len()), rng.random_range(0..regions.len())))
        .collect();
    for threads in [1usize, 2, 4] {
        let result = BatchEngine::new()
            .with_mode(EngineMode::Quantitative)
            .with_threads(threads)
            .run_pairs(&cache, &pairs, &RunPolicy::default())
            .unwrap();
        let relations: Vec<_> = result.relations().collect();
        assert_eq!(relations.len(), pairs.len());
        for (got, &(i, j)) in relations.iter().zip(&pairs) {
            assert_eq!((got.primary, got.reference), (i, j), "{threads} threads");
            assert_eq!(got.relation, compute_cdr(&regions[i], &regions[j]), "{threads} threads");
            assert_eq!(
                got.percentages,
                Some(compute_cdr_pct(&regions[i], &regions[j])),
                "{threads} threads, pair ({i}, {j})"
            );
        }
    }
}

/// `Configuration::compute_all_relations` (now engine-backed) stores the
/// same relations in the same order as the naive double loop over the
/// annotated regions — the XML output depends on both.
#[test]
fn configuration_relations_match_naive_order() {
    let mut rng = SplitMix64::seed_from_u64(604);
    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0));
    let map = random_map(&mut rng, 20, extent);
    let mut config = cardir::cardirect::Configuration::new("engine-check", "gen.png");
    for r in &map {
        config.add_region(r.id.clone(), r.id.clone(), r.color, r.region.clone()).unwrap();
    }
    config.compute_all_relations();
    let mut expected = Vec::new();
    for p in &map {
        for q in &map {
            if p.id != q.id {
                expected.push((p.id.clone(), q.id.clone(), compute_cdr(&p.region, &q.region)));
            }
        }
    }
    assert_eq!(config.relations().len(), expected.len());
    for (got, (p, q, rel)) in config.relations().iter().zip(&expected) {
        assert_eq!(&got.primary, p);
        assert_eq!(&got.reference, q);
        assert_eq!(&got.relation, rel, "{p} vs {q}");
    }
}
