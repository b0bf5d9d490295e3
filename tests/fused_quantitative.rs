//! Differential lockdown of the fused quantitative pipeline: the single
//! SoA sweep that now computes a pair's relation *and* tile areas must be
//! **bit-identical** — relations equal and percentage matrices equal as
//! raw f64s — to the legacy two-pass per-pair path
//! (`compute_cdr_with_mbb` then `tile_areas_with_mbb`, which re-flattens
//! and re-divides every primary edge twice) *and* to the fully naive
//! entry points, across threads {1, 2, 8} × both engine paths (the
//! materialized spatial join, and `run_pairs` over every ordered pair).
//!
//! It also pins the `fused_pairs` accounting: every exact computation —
//! and only exact computations — runs over the fused SoA kernels.

use cardir::core::{
    cdr_areas_from_soa, cdr_from_soa, cdr_from_soa_hooked, compute_cdr, compute_cdr_hooked,
    compute_cdr_pct, compute_cdr_with_mbb, tile_areas_with_mbb, CardinalRelation, CountingHook,
    PercentageMatrix, SoaStore,
};
use cardir::engine::{BatchEngine, EngineMode, RegionCache, RunPolicy};
use cardir::geometry::{BoundingBox, Point, Polygon, Region};
use cardir::workloads::{archipelago, random_map, RegionSpec, SplitMix64};
use cardir_fuzz::checks::ordered_pairs;

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
}

/// Three independent computations of every ordered pair, all of which the
/// engine output is checked against:
///
/// * `naive` — `compute_cdr` / `compute_cdr_pct`, recomputing `mbb(b)`
///   from scratch (the paper's algorithms verbatim);
/// * `legacy` — the retired engine inner loop: cached MBB, then two
///   separate sweeps over `Region` edge iterators;
/// * `fused` — the SoA kernel called directly on the cache's edge store.
struct Oracle {
    relations: Vec<CardinalRelation>,
    percentages: Vec<PercentageMatrix>,
}

fn oracle(regions: &[Region], cache: &RegionCache<'_>) -> Oracle {
    let mut relations = Vec::new();
    let mut percentages = Vec::new();
    for (i, a) in regions.iter().enumerate() {
        for (j, b) in regions.iter().enumerate() {
            if i == j {
                continue;
            }
            let mbb = cache.mbb(j);

            let naive_rel = compute_cdr(a, b);
            let naive_pct = compute_cdr_pct(a, b);

            let legacy_rel = compute_cdr_with_mbb(a, mbb);
            let legacy_pct = tile_areas_with_mbb(a, mbb).percentages();

            let soa = cache.soa(i);
            let fused_rel_only = cdr_from_soa(&soa, mbb);
            let (fused_rel, fused_areas) = cdr_areas_from_soa(&soa, mbb);
            let fused_pct = fused_areas.percentages();

            assert_eq!(naive_rel, legacy_rel, "pair ({i}, {j}): naive vs legacy relation");
            assert_eq!(legacy_rel, fused_rel, "pair ({i}, {j}): legacy vs fused relation");
            assert_eq!(fused_rel, fused_rel_only, "pair ({i}, {j}): fused modes disagree");
            assert_eq!(naive_pct, legacy_pct, "pair ({i}, {j}): naive vs legacy percentages");
            assert_eq!(legacy_pct, fused_pct, "pair ({i}, {j}): legacy vs fused percentages");

            relations.push(fused_rel);
            percentages.push(fused_pct);
        }
    }
    Oracle { relations, percentages }
}

/// Runs both engine paths over the triple oracle at every thread count
/// and checks the outputs bit for bit, plus the
/// `fused_pairs == exact_pairs` accounting invariant.
fn assert_fused_pipeline_cross_validates(regions: &[Region], family: &str) {
    let cache = RegionCache::build(regions);
    let truth = oracle(regions, &cache);

    let all_pairs = ordered_pairs(regions.len());
    for threads in [1usize, 2, 8] {
        let label = format!("{family}, {threads} threads");
        let engine =
            BatchEngine::new().with_mode(EngineMode::Quantitative).with_threads(threads);

        let all = engine.run_pairs(&cache, &all_pairs, &RunPolicy::default()).unwrap();
        assert_eq!(all.pairs.len(), truth.relations.len(), "{label}");
        for (k, got) in all.pairs.iter().enumerate() {
            let got = got.ok().unwrap_or_else(|| panic!("{label}: pair #{k} failed"));
            assert_eq!(got.relation, truth.relations[k], "{label}, pair #{k}");
            assert_eq!(
                got.percentages.as_ref(),
                Some(&truth.percentages[k]),
                "{label}, pair #{k}: percentage matrices must be bit-identical"
            );
        }
        // Every exact computation runs over the fused SoA kernels, and
        // `run_pairs` takes the exact path for every pair.
        assert_eq!(all.stats.fused_pairs, all.stats.exact_pairs, "{label}: accounting");
        assert_eq!(all.stats.fused_pairs, all.stats.pairs, "{label}: accounting");

        let joined = engine.run_join(&cache, &RunPolicy::default());
        let out = joined.materialize(&cache);
        assert_eq!(out.pairs.len(), all.pairs.len(), "{label} (join)");
        for (k, got) in out.pairs.iter().enumerate() {
            let got = got.ok().unwrap_or_else(|| panic!("{label}: join pair #{k} failed"));
            assert_eq!(got.relation, truth.relations[k], "{label} (join), pair #{k}");
            assert_eq!(
                got.percentages.as_ref(),
                Some(&truth.percentages[k]),
                "{label} (join), pair #{k}"
            );
        }
        // Including the quantitative N-tile fallback, and nothing else.
        assert_eq!(out.stats.fused_pairs, out.stats.exact_pairs, "{label} (join): accounting");
    }
}

/// Family 1: jittered-grid star maps at several sizes — mostly disjoint
/// boxes, so the prefilter decides most pairs and the N-tile fallback
/// fires for vertically stacked neighbours.
#[test]
fn grid_maps_fused_bit_identical() {
    let mut rng = SplitMix64::seed_from_u64(801);
    for n in [6usize, 19, 36] {
        let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(600.0, 450.0));
        let regions: Vec<Region> =
            random_map(&mut rng, n, extent).into_iter().map(|m| m.region).collect();
        assert_fused_pipeline_cross_validates(&regions, &format!("grid map n={n}"));
    }
}

/// Family 2: composite archipelagos whose members interleave — the exact
/// path dominates, so nearly every pair exercises the fused sweep.
#[test]
fn archipelagos_fused_bit_identical() {
    let mut rng = SplitMix64::seed_from_u64(802);
    let regions: Vec<Region> = (0..7)
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
    assert_fused_pipeline_cross_validates(&regions, "archipelago");
}

/// Family 3: the Ancient-Greece scenario — real composite coastlines with
/// touching boxes, grid-line contacts, and B/N-boundary area splits.
#[test]
fn greece_scenario_fused_bit_identical() {
    let regions: Vec<Region> =
        cardir::workloads::greece_scenario().into_iter().map(|r| r.region).collect();
    assert!(regions.len() >= 5, "scenario should exercise a real pair matrix");
    assert_fused_pipeline_cross_validates(&regions, "greece scenario");
}

/// Family 4: MBB boundary contact and vertical stacking — exact
/// configurations where the prefilter must decline, plus strictly-north
/// primaries that force the quantitative N-tile fallback (the one decided
/// pair class that still runs a fused area sweep).
#[test]
fn boundary_contact_and_north_stack_fused_bit_identical() {
    let regions = vec![
        rect(0.0, 0.0, 4.0, 4.0),   // the reference square
        rect(1.0, 6.0, 3.0, 8.0),   // strictly north: N-tile fallback
        rect(0.5, 9.0, 3.5, 11.0),  // strictly north of both
        rect(4.0, 0.0, 8.0, 4.0),   // shares the full east edge
        rect(0.0, 4.0, 4.0, 8.0),   // shares the full north edge
        rect(4.0, 4.0, 8.0, 8.0),   // touches only the NE corner
        rect(2.0, 2.0, 6.0, 6.0),   // straddles the NE corner
        rect(0.0, 0.0, 4.0, 4.0),   // exact duplicate of the reference
    ];
    assert_fused_pipeline_cross_validates(&regions, "boundary contact + north stack");
}

/// Regions around the reference square `[0, 4]²` (region 0) that drive
/// both kernel shortcuts to their edges: vertices and whole edges on its
/// grid lines (the single-tile path must decline them), and primaries
/// whose box has the square's centre `(2, 2)` on its boundary, around a
/// ring that does not hold it, or in the hole of a frame (the box-gated
/// centre test must still answer exactly).
fn shortcut_regions() -> Vec<Region> {
    let tri = |pts: &[(f64, f64)]| Region::from_coords(pts.iter().copied()).unwrap();
    vec![
        rect(0.0, 0.0, 4.0, 4.0),
        rect(0.0, 1.0, 2.0, 3.0),  // west edge on x = 0
        rect(-2.0, 1.0, 0.0, 3.0), // east edge on x = 0, outside
        rect(-2.0, 4.0, 2.0, 6.0), // south edge on y = 4
        rect(4.0, 4.0, 6.0, 6.0),  // corner contact
        tri(&[(-2.0, 1.0), (0.0, 2.0), (-2.0, 3.0)]), // vertex on x = 0
        tri(&[(2.0, 5.0), (6.0, 5.0), (6.0, -1.0)]),  // box west side through (2, 2)
        tri(&[(-3.0, -3.0), (5.0, -3.0), (-3.0, 2.0)]), // box north side through (2, 2)
        tri(&[
            (-2.0, -2.0), (6.0, -2.0), (6.0, 6.0), (5.0, 6.0),
            (5.0, -1.0), (-1.0, -1.0), (-1.0, 6.0), (-2.0, 6.0),
        ]), // a U whose box holds (2, 2)
        rect(-2.0, -2.0, 6.0, 6.0), // covers the square: the centre test adds B
        Region::from_rings([
            vec![(-4.0, -4.0), (8.0, -4.0), (8.0, -2.0), (-4.0, -2.0)],
            vec![(-4.0, 6.0), (8.0, 6.0), (8.0, 8.0), (-4.0, 8.0)],
            vec![(-4.0, -2.0), (-2.0, -2.0), (-2.0, 6.0), (-4.0, 6.0)],
            vec![(6.0, -2.0), (8.0, -2.0), (8.0, 6.0), (6.0, 6.0)],
        ])
        .unwrap(), // a frame whose hole holds (2, 2)
        tri(&[(2.0, 2.0), (5.0, 3.0), (4.0, -1.0)]), // a vertex on the centre
    ]
}

fn scaled(regions: &[Region], f: f64) -> Vec<Region> {
    regions
        .iter()
        .map(|r| {
            Region::new(r.polygons().iter().map(|p| {
                Polygon::new(p.vertices().iter().map(|v| Point::new(v.x * f, v.y * f))).unwrap()
            }))
            .unwrap()
        })
        .collect()
}

/// Direct kernel-vs-region-path check of every ordered pair (self-pairs
/// included) and of extra reference boxes: the relation, the bits of all
/// nine areas (so infinities and NaNs from huge coordinates compare too),
/// and, where a reference region exists, the hook event stream.
fn assert_kernel_bits(regions: &[Region], extra_boxes: &[BoundingBox], family: &str) {
    for (i, a) in regions.iter().enumerate() {
        let mut store = SoaStore::new();
        store.push_region(a);
        let soa = store.view(0);
        let references = regions.iter().map(|b| (Some(b), b.mbb()));
        let boxes = extra_boxes.iter().map(|&m| (None, m));
        for (j, (b, mbb)) in references.chain(boxes).enumerate() {
            let label = format!("{family}: primary {i}, reference {j}");
            let want = compute_cdr_with_mbb(a, mbb);
            let want_areas = tile_areas_with_mbb(a, mbb).as_array().map(f64::to_bits);
            let (rel, areas) = cdr_areas_from_soa(&soa, mbb);
            assert_eq!(rel, want, "{label}");
            assert_eq!(areas.as_array().map(f64::to_bits), want_areas, "{label}: area bits");
            if let Some(b) = b {
                let mut legacy = CountingHook::new();
                let mut fused = CountingHook::new();
                assert_eq!(compute_cdr_hooked(a, b, &mut legacy), want, "{label}");
                assert_eq!(cdr_from_soa_hooked(&soa, mbb, &mut fused), want, "{label}");
                assert_eq!(fused, legacy, "{label}: hook event streams");
            }
        }
    }
}

/// Family 5: the fused kernel's single-tile edge path and box-gated
/// centre test, at unit scale, at 2^±40, against degenerate reference
/// boxes, and with grid lines near `f64::MAX / 2`.
#[test]
fn kernel_shortcuts_bit_identical() {
    let degenerate = [
        BoundingBox::new(Point::new(2.0, 0.0), Point::new(2.0, 4.0)),
        BoundingBox::new(Point::new(0.0, 2.0), Point::new(4.0, 2.0)),
        BoundingBox::new(Point::new(2.0, 2.0), Point::new(2.0, 2.0)),
    ];
    let base = shortcut_regions();
    for f in [1.0, 2f64.powi(40), 2f64.powi(-40)] {
        let regions = scaled(&base, f);
        let boxes: Vec<BoundingBox> = degenerate
            .iter()
            .map(|m| BoundingBox::new(Point::new(m.min.x * f, m.min.y * f), Point::new(m.max.x * f, m.max.y * f)))
            .collect();
        assert_kernel_bits(&regions, &boxes, &format!("scale {f:e}"));
        assert_fused_pipeline_cross_validates(&regions, &format!("shortcuts, scale {f:e}"));
    }
    // Coordinates near f64::MAX / 2: areas overflow to infinity (so no
    // percentage comparison), but every bit still matches. Only the
    // axis-parallel shapes go this far: for a slanted edge the products
    // inside `orient2d` overflow too, and the region path's centre test
    // stops being exact there, so it is no oracle for the kernel.
    let h = f64::MAX / 2.0;
    let axis_parallel: Vec<Region> = [0, 1, 2, 3, 4, 9, 10].map(|k| base[k].clone()).to_vec();
    let huge = scaled(&axis_parallel, h / 16.0);
    let far = [BoundingBox::new(Point::new(-h, -h), Point::new(h, h))];
    assert_kernel_bits(&huge, &far, "near MAX / 2");
}
