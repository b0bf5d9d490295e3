//! Fused `Compute-CDR` / `Compute-CDR%` over cached struct-of-arrays
//! edges — one sweep, no per-pair re-flattening.
//!
//! The batch engine computes relations for every ordered pair `(a, b)`,
//! so the same primary region `a` is scanned against hundreds of
//! reference boxes. The entry points in [`crate::compute`] and
//! [`crate::percent`] each take `&Region` and call `Polygon::edges()`,
//! which materialises `Segment`s from the vertex lists on every call —
//! and the quantitative engine path used to call *both*, scanning every
//! edge twice per pair. This module removes both costs:
//!
//! * [`SoaStore`] flattens every region's edges **once** into contiguous
//!   `x0/y0/x1/y1` arrays (plus per-polygon extents), in exactly the
//!   order `Polygon::edges()` yields them;
//! * one generic kernel walks those arrays a single time per pair and
//!   computes — depending on which outputs the caller asked for — the
//!   tile-membership bits of `Compute-CDR` (paper Fig. 5) *and* the
//!   `E_l` / `E'_m` signed-area accumulators of `Compute-CDR%` (paper
//!   Fig. 10) in the same pass.
//!
//! Bit-identity with the `&Region` entry points is a hard invariant, not
//! an aspiration: the SoA stores the identical edge sequence, sub-edge
//! division and classification are shared code, the area accumulators
//! add the identical terms in the identical order, and the per-polygon
//! centre test replicates `Polygon::contains` decision-for-decision via
//! the same exact predicates. The kernel's two shortcuts — emitting an
//! edge that lies inside one tile without dividing it, and skipping the
//! centre test when the centre lies outside the polygon's box — are
//! exact, not approximations (see [`fused_scan`]). The differential
//! tests below (and the engine's suites) pin `==` on every output,
//! including the sign of every rounding.

use crate::divide::{classify_subedge, for_each_division};
use crate::hook::{MetricsHook, NoopHook};
use crate::matrix::TileAreas;
use crate::relation::CardinalRelation;
use crate::tile::{Tile, ALL_TILES};
use cardir_geometry::area::{e_l, e_m};
use cardir_geometry::{orient2d_sign, Band, BoundingBox, Point, Region, Segment, Sign};

/// A borrowed view of one region's edges in struct-of-arrays layout.
///
/// Edge `e` is the directed segment `(x0[e], y0[e]) → (x1[e], y1[e])`.
/// Edges are stored polygon-major in the exact order
/// `Region::polygons()` × `Polygon::edges()` produces them;
/// `polygon_ends[k]` is the exclusive end (relative to this view) of
/// polygon `k`'s edge range, so polygon `k` owns edges
/// `polygon_ends[k-1] .. polygon_ends[k]`.
#[derive(Debug, Clone, Copy)]
pub struct EdgeSoa<'a> {
    /// Start x of each edge.
    pub x0: &'a [f64],
    /// Start y of each edge.
    pub y0: &'a [f64],
    /// End x of each edge.
    pub x1: &'a [f64],
    /// End y of each edge.
    pub y1: &'a [f64],
    /// Exclusive per-polygon edge-range ends, relative to this view.
    pub polygon_ends: &'a [u32],
}

impl EdgeSoa<'_> {
    /// Number of edges in the view.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.x0.len()
    }

    /// Number of polygons in the view.
    #[inline]
    pub fn polygon_count(&self) -> usize {
        self.polygon_ends.len()
    }

    /// Reconstructs edge `e` as a [`Segment`] (bit-identical to the one
    /// `Polygon::edges()` would yield at the same position).
    #[inline]
    fn segment(&self, e: usize) -> Segment {
        Segment::new(
            Point::new(self.x0[e], self.y0[e]),
            Point::new(self.x1[e], self.y1[e]),
        )
    }
}

/// Owned struct-of-arrays edge storage for a whole map of regions.
///
/// Built once (by `RegionCache` in the engine crate), then borrowed per
/// pair via [`SoaStore::view`] — the exact loops never touch `Region` /
/// `Polygon` again, which [`cardir_geometry::flatten::events`] makes
/// checkable.
#[derive(Debug, Clone, Default)]
pub struct SoaStore {
    x0: Vec<f64>,
    y0: Vec<f64>,
    x1: Vec<f64>,
    y1: Vec<f64>,
    polygon_ends: Vec<u32>,
    /// Per-region prefix into the edge arrays; `edge_start.len()` is
    /// `regions + 1`.
    edge_start: Vec<usize>,
    /// Per-region prefix into `polygon_ends`; same shape.
    poly_start: Vec<usize>,
}

impl SoaStore {
    /// An empty store.
    pub fn new() -> Self {
        SoaStore {
            edge_start: vec![0],
            poly_start: vec![0],
            ..SoaStore::default()
        }
    }

    /// Appends one region's edges, in exactly the order
    /// `Region::polygons()` × `Polygon::edges()` yields them
    /// (`v[i] → v[(i+1) mod n]` per clockwise-stored polygon).
    pub fn push_region(&mut self, region: &Region) {
        let base = self.x0.len();
        for polygon in region.polygons() {
            let vs = polygon.vertices();
            let n = vs.len();
            for i in 0..n {
                let a = vs[i];
                let b = vs[(i + 1) % n];
                self.x0.push(a.x);
                self.y0.push(a.y);
                self.x1.push(b.x);
                self.y1.push(b.y);
            }
            let rel_end = self.x0.len() - base;
            self.polygon_ends.push(
                u32::try_from(rel_end).expect("region exceeds u32::MAX edges"),
            );
        }
        self.edge_start.push(self.x0.len());
        self.poly_start.push(self.polygon_ends.len());
    }

    /// Borrowed SoA view of region `i` (insertion order).
    #[inline]
    pub fn view(&self, i: usize) -> EdgeSoa<'_> {
        let es = self.edge_start[i]..self.edge_start[i + 1];
        EdgeSoa {
            x0: &self.x0[es.clone()],
            y0: &self.y0[es.clone()],
            x1: &self.x1[es.clone()],
            y1: &self.y1[es],
            polygon_ends: &self.polygon_ends[self.poly_start[i]..self.poly_start[i + 1]],
        }
    }

    /// Number of regions pushed.
    #[inline]
    pub fn regions(&self) -> usize {
        self.edge_start.len() - 1
    }

    /// Total edges across all regions.
    #[inline]
    pub fn total_edges(&self) -> usize {
        self.x0.len()
    }
}

/// Replicates [`cardir_geometry::Polygon::contains`] over one polygon's
/// SoA edge range `[start, end)`: exact boundary membership first, then
/// exact ray-cast parity. Decision-for-decision identical because the
/// stored edges *are* `v[i] → v[(i+1) mod n]` in order, and every sign
/// goes through the same robust predicates.
fn polygon_contains(soa: &EdgeSoa<'_>, start: usize, end: usize, p: Point) -> bool {
    for e in start..end {
        if soa.segment(e).contains_point(p) {
            return true;
        }
    }
    let mut inside = false;
    for e in start..end {
        let a = Point::new(soa.x0[e], soa.y0[e]);
        let b = Point::new(soa.x1[e], soa.y1[e]);
        if (a.y > p.y) != (b.y > p.y) {
            let crossing_east = if b.y > a.y {
                orient2d_sign(a, b, p) == Sign::Positive
            } else {
                orient2d_sign(a, b, p) == Sign::Negative
            };
            if crossing_east {
                inside = !inside;
            }
        }
    }
    inside
}

/// The largest box coordinate for which the single-tile edge path is
/// exact: with every grid line in `[−HALF_MAX, HALF_MAX]`, the sum of two
/// coordinates in the same open band cannot overflow towards another
/// band (see [`single_tile`]).
const HALF_MAX: f64 = f64::MAX / 2.0;

/// The open band of `v` against the lines `lo ≤ hi`: strictly below,
/// strictly between, or strictly above. `None` when `v` lies on a line.
#[inline(always)]
fn open_band(v: f64, lo: f64, hi: f64) -> Option<Band> {
    if v < lo {
        Some(Band::Lower)
    } else if v > hi {
        Some(Band::Upper)
    } else if v > lo && v < hi {
        Some(Band::Middle)
    } else {
        None
    }
}

/// The tile of an edge whose endpoints lie strictly inside the same open
/// band on both axes, or `None` when it needs the division path.
///
/// Such an edge is crossed by no grid line, so division emits it whole,
/// and its midpoint is in that band too: `fl(fl(a + b) / 2)` lies in
/// `[min(a, b), max(a, b)]` because rounding is monotone, unless `a + b`
/// overflows. The caller only takes this path when every line of the
/// box is within `±HALF_MAX`; then two coordinates of the middle band
/// are below `HALF_MAX` in magnitude and cannot overflow, and two of an
/// outer band can only overflow to the infinity on their own side. So
/// the tile equals `classify_subedge(edge, mbb)`, and the hint, which
/// only breaks ties on a line, never matters.
#[inline(always)]
fn single_tile(edge: Segment, mbb: BoundingBox) -> Option<Tile> {
    let xb = open_band(edge.a.x, mbb.min.x, mbb.max.x)?;
    let yb = open_band(edge.a.y, mbb.min.y, mbb.max.y)?;
    let same = open_band(edge.b.x, mbb.min.x, mbb.max.x) == Some(xb)
        && open_band(edge.b.y, mbb.min.y, mbb.max.y) == Some(yb);
    same.then(|| Tile::from_bands(xb, yb))
}

/// The per-pair accumulators of the fused sweep.
struct Accumulators {
    /// Union of the tiles of every sub-edge (`Compute-CDR`).
    bits: u16,
    /// Signed `E_l` / `E'_m` sums, indexed by canonical tile index; the B
    /// slot is unused (B is derived from `acc_bn` by the caller).
    acc: [f64; 9],
    /// Signed `E_l(l1)` sum over the B and N sub-edges.
    acc_bn: f64,
}

impl Accumulators {
    /// Adds one classified sub-edge. The terms and their order are those
    /// of `Compute-CDR%` (paper Fig. 10), so the sums are bit-identical.
    #[inline(always)]
    fn add<const RELATION: bool, const AREAS: bool>(
        &mut self,
        sub: Segment,
        t: Tile,
        mbb: BoundingBox,
    ) {
        if RELATION {
            self.bits |= t.bit();
        }
        if AREAS {
            let acc = &mut self.acc;
            match t {
                Tile::NW | Tile::W | Tile::SW => acc[t.index()] += e_m(mbb.min.x, sub),
                Tile::NE | Tile::E | Tile::SE => acc[t.index()] += e_m(mbb.max.x, sub),
                Tile::S => acc[t.index()] += e_l(mbb.min.y, sub),
                Tile::N => acc[t.index()] += e_l(mbb.max.y, sub),
                Tile::B => {}
            }
            if t == Tile::N || t == Tile::B {
                self.acc_bn += e_l(mbb.min.y, sub);
            }
        }
    }
}

/// The fused sweep. `RELATION` enables the tile-bit union and the
/// per-polygon centre test of `Compute-CDR`; `AREAS` enables the
/// `E_l` / `E'_m` accumulators of `Compute-CDR%`. Both const flags
/// monomorphise away: the three public shapes compile to exactly the
/// loop they need, with no runtime branches on the configuration.
///
/// Two shortcuts keep every output bit-identical to the region path:
///
/// * an edge inside one tile skips division ([`single_tile`]);
/// * the centre test runs only when the centre of `mbb(b)` lies in the
///   polygon's closed box, accumulated in the same loop. Outside it the
///   test is false: the centre is on no edge, and its eastward ray
///   crosses either no straddling edge (east of the box) or every one of
///   them (west of it), which is an even number for a closed ring;
///   above or below the box no edge straddles its `y`.
fn fused_scan<H: MetricsHook, const RELATION: bool, const AREAS: bool>(
    soa: &EdgeSoa<'_>,
    mbb: BoundingBox,
    hook: &mut H,
) -> (u16, [f64; 9], f64) {
    let center = mbb.center();
    let one_tile_path = [mbb.min.x, mbb.min.y, mbb.max.x, mbb.max.y]
        .iter()
        .all(|v| v.abs() <= HALF_MAX);
    let mut sums = Accumulators { bits: 0, acc: [0.0; 9], acc_bn: 0.0 };

    let mut start = 0usize;
    for &rel_end in soa.polygon_ends {
        let end = rel_end as usize;
        let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
        let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for e in start..end {
            let edge = soa.segment(e);
            hook.edge_scanned();
            if RELATION {
                lo = Point::new(lo.x.min(edge.a.x), lo.y.min(edge.a.y));
                hi = Point::new(hi.x.max(edge.a.x), hi.y.max(edge.a.y));
            }
            let whole = if one_tile_path { single_tile(edge, mbb) } else { None };
            if let Some(t) = whole {
                hook.sub_edge(t);
                sums.add::<RELATION, AREAS>(edge, t, mbb);
                continue;
            }
            let mut parts = 0usize;
            for_each_division(edge, mbb, |sub| {
                parts += 1;
                let t = classify_subedge(sub, mbb);
                hook.sub_edge(t);
                sums.add::<RELATION, AREAS>(sub, t, mbb);
            });
            if parts > 1 {
                hook.edge_divided(parts);
            }
        }
        // Fig. 5: "If the center of mbb(b) is in p then R = tile-union(R, B)".
        if RELATION
            && sums.bits & Tile::B.bit() == 0
            && (lo.x..=hi.x).contains(&center.x)
            && (lo.y..=hi.y).contains(&center.y)
            && polygon_contains(soa, start, end, center)
        {
            sums.bits |= Tile::B.bit();
            hook.b_center_hit();
        }
        start = end;
    }
    (sums.bits, sums.acc, sums.acc_bn)
}

/// Finalises the signed accumulators exactly as `Compute-CDR%` does:
/// peripheral tiles take `|acc|`, and `area(B) = |a_{B+N}| − |a_N|`
/// clamped against round-off.
fn finalize_areas(acc: &[f64; 9], acc_bn: f64) -> TileAreas {
    let mut areas = TileAreas::default();
    for t in ALL_TILES {
        if t != Tile::B {
            *areas.get_mut(t) = acc[t.index()].abs();
        }
    }
    *areas.get_mut(Tile::B) = (acc_bn.abs() - acc[Tile::N.index()].abs()).max(0.0);
    areas
}

#[inline]
fn relation_from_bits(bits: u16) -> CardinalRelation {
    CardinalRelation::from_bits(bits)
        .expect("a valid region always produces at least one sub-edge tile")
}

/// `Compute-CDR` over cached SoA edges — bit-identical to
/// [`crate::compute_cdr_with_mbb`] on the region the SoA was built from.
pub fn cdr_from_soa(soa: &EdgeSoa<'_>, mbb: BoundingBox) -> CardinalRelation {
    cdr_from_soa_hooked(soa, mbb, &mut NoopHook)
}

/// [`cdr_from_soa`] observed by a [`MetricsHook`] (hooks only observe;
/// the result is bit-identical for any hook).
pub fn cdr_from_soa_hooked<H: MetricsHook>(
    soa: &EdgeSoa<'_>,
    mbb: BoundingBox,
    hook: &mut H,
) -> CardinalRelation {
    let (bits, _, _) = fused_scan::<H, true, false>(soa, mbb, hook);
    relation_from_bits(bits)
}

/// The fused quantitative pass: `Compute-CDR` *and* `Compute-CDR%` in
/// one sweep over cached SoA edges. The relation is bit-identical to
/// [`crate::compute_cdr_with_mbb`] and the areas to
/// [`crate::tile_areas_with_mbb`] — each edge is divided and classified
/// once instead of twice.
pub fn cdr_areas_from_soa(soa: &EdgeSoa<'_>, mbb: BoundingBox) -> (CardinalRelation, TileAreas) {
    cdr_areas_from_soa_hooked(soa, mbb, &mut NoopHook)
}

/// [`cdr_areas_from_soa`] observed by a [`MetricsHook`].
pub fn cdr_areas_from_soa_hooked<H: MetricsHook>(
    soa: &EdgeSoa<'_>,
    mbb: BoundingBox,
    hook: &mut H,
) -> (CardinalRelation, TileAreas) {
    let (bits, acc, acc_bn) = fused_scan::<H, true, true>(soa, mbb, hook);
    (relation_from_bits(bits), finalize_areas(&acc, acc_bn))
}

/// `Compute-CDR%` alone over cached SoA edges — bit-identical to
/// [`crate::tile_areas_with_mbb`]. No centre test runs (areas never
/// needed it), so the per-pair work matches the legacy areas-only call
/// exactly.
pub fn areas_from_soa(soa: &EdgeSoa<'_>, mbb: BoundingBox) -> TileAreas {
    areas_from_soa_hooked(soa, mbb, &mut NoopHook)
}

/// [`areas_from_soa`] observed by a [`MetricsHook`].
pub fn areas_from_soa_hooked<H: MetricsHook>(
    soa: &EdgeSoa<'_>,
    mbb: BoundingBox,
    hook: &mut H,
) -> TileAreas {
    let (_, acc, acc_bn) = fused_scan::<H, false, true>(soa, mbb, hook);
    finalize_areas(&acc, acc_bn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_cdr_hooked, compute_cdr_with_mbb};
    use crate::hook::CountingHook;
    use crate::percent::tile_areas_with_mbb;
    use cardir_geometry::{Polygon, Region};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    /// Regions that exercise every kernel branch: single tile, straddles,
    /// corner straddles, grid-line edges, a covering slab (centre test),
    /// a frame whose hole covers the box (centre test must *fail* per
    /// polygon), a disconnected pair, and an all-nine-tiles triangle.
    fn adversarial_regions() -> Vec<Region> {
        vec![
            rect(1.0, 1.0, 3.0, 3.0),
            rect(5.0, -3.0, 7.0, -1.0),
            rect(3.0, 1.0, 5.0, 3.0),
            rect(3.0, 3.0, 5.0, 5.0),
            rect(-2.0, 1.0, 6.0, 3.0),
            rect(0.0, 1.0, 2.0, 3.0),
            rect(0.0, -4.0, 4.0, 0.0),
            rect(-2.0, -2.0, 6.0, 6.0),
            Region::new([
                Polygon::from_coords([(-4.0, -4.0), (8.0, -4.0), (8.0, -2.0), (-4.0, -2.0)])
                    .unwrap(),
                Polygon::from_coords([(-4.0, 6.0), (8.0, 6.0), (8.0, 8.0), (-4.0, 8.0)]).unwrap(),
                Polygon::from_coords([(-4.0, -2.0), (-2.0, -2.0), (-2.0, 6.0), (-4.0, 6.0)])
                    .unwrap(),
                Polygon::from_coords([(6.0, -2.0), (8.0, -2.0), (8.0, 6.0), (6.0, 6.0)]).unwrap(),
            ])
            .unwrap(),
            Region::new([
                Polygon::from_coords([(1.0, 5.0), (3.0, 5.0), (3.0, 7.0), (1.0, 7.0)]).unwrap(),
                Polygon::from_coords([(5.0, -3.0), (7.0, -3.0), (7.0, -1.0), (5.0, -1.0)])
                    .unwrap(),
            ])
            .unwrap(),
            Region::from_coords([(-2.0, 2.0), (-3.0, 5.0), (-1.0, 6.0), (5.0, 4.0)]).unwrap(),
            Region::from_coords([(-6.0, -3.0), (3.0, 10.0), (10.0, -5.0)]).unwrap(),
        ]
    }

    #[test]
    fn store_layout_matches_edge_iterators() {
        let regions = adversarial_regions();
        let mut store = SoaStore::new();
        for r in &regions {
            store.push_region(r);
        }
        assert_eq!(store.regions(), regions.len());
        assert_eq!(
            store.total_edges(),
            regions.iter().map(Region::edge_count).sum::<usize>()
        );
        for (i, r) in regions.iter().enumerate() {
            let soa = store.view(i);
            assert_eq!(soa.edge_count(), r.edge_count());
            assert_eq!(soa.polygon_count(), r.polygons().len());
            let flat: Vec<_> = r.edges().collect();
            for (e, expect) in flat.iter().enumerate() {
                assert_eq!(soa.segment(e), *expect, "region {i} edge {e}");
            }
        }
    }

    #[test]
    fn fused_is_bit_identical_to_the_region_entry_points() {
        let regions = adversarial_regions();
        let mut store = SoaStore::new();
        for r in &regions {
            store.push_region(r);
        }
        let mbb = rect(0.0, 0.0, 4.0, 4.0).mbb();
        for (i, r) in regions.iter().enumerate() {
            let soa = store.view(i);
            let want_rel = compute_cdr_with_mbb(r, mbb);
            let want_areas = tile_areas_with_mbb(r, mbb);
            assert_eq!(cdr_from_soa(&soa, mbb), want_rel, "region {i}");
            let (rel, areas) = cdr_areas_from_soa(&soa, mbb);
            assert_eq!(rel, want_rel, "region {i}");
            assert_eq!(areas, want_areas, "region {i} (fused areas)");
            assert_eq!(areas_from_soa(&soa, mbb), want_areas, "region {i} (areas only)");
        }
    }

    #[test]
    fn fused_is_bit_identical_across_reference_boxes() {
        // The same primary scanned against every other region's mbb —
        // the engine's actual access pattern.
        let regions = adversarial_regions();
        let mut store = SoaStore::new();
        for r in &regions {
            store.push_region(r);
        }
        for (i, a) in regions.iter().enumerate() {
            let soa = store.view(i);
            for b in &regions {
                let mbb = b.mbb();
                let (rel, areas) = cdr_areas_from_soa(&soa, mbb);
                assert_eq!(rel, compute_cdr_with_mbb(a, mbb));
                assert_eq!(areas, tile_areas_with_mbb(a, mbb));
                assert_eq!(
                    areas.percentages(),
                    tile_areas_with_mbb(a, mbb).percentages()
                );
            }
        }
    }

    fn bbox(x0: f64, y0: f64, x1: f64, y1: f64) -> BoundingBox {
        BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn area_bits(areas: &TileAreas) -> [u64; 9] {
        areas.as_array().map(f64::to_bits)
    }

    /// Pins all three kernel shapes on `a` against `mbb` to the region
    /// path: the relation, the bits of all nine areas, and the hook event
    /// streams. Returns the relation-path hook for case-specific checks.
    fn assert_pinned(a: &Region, mbb: BoundingBox, label: &str) -> CountingHook {
        let mut store = SoaStore::new();
        store.push_region(a);
        let soa = store.view(0);
        let mut want_hook = CountingHook::new();
        let want_rel = crate::compute::cdr_over_mbb_hooked(a, mbb, &mut want_hook).0;
        let mut want_area_hook = CountingHook::new();
        let want_areas = crate::percent::areas_over_mbb_hooked(a, mbb, &mut want_area_hook).0;
        assert_eq!(want_rel, compute_cdr_with_mbb(a, mbb), "{label}");
        assert_eq!(area_bits(&want_areas), area_bits(&tile_areas_with_mbb(a, mbb)), "{label}");

        let mut hook = CountingHook::new();
        assert_eq!(cdr_from_soa_hooked(&soa, mbb, &mut hook), want_rel, "{label}: relation");
        assert_eq!(hook, want_hook, "{label}: relation hook stream");
        let mut hook = CountingHook::new();
        let (rel, areas) = cdr_areas_from_soa_hooked(&soa, mbb, &mut hook);
        assert_eq!(rel, want_rel, "{label}: fused relation");
        assert_eq!(area_bits(&areas), area_bits(&want_areas), "{label}: fused areas");
        assert_eq!(hook, want_hook, "{label}: fused hook stream");
        let mut hook = CountingHook::new();
        let areas = areas_from_soa_hooked(&soa, mbb, &mut hook);
        assert_eq!(area_bits(&areas), area_bits(&want_areas), "{label}: areas only");
        assert_eq!(hook, want_area_hook, "{label}: areas-only hook stream");
        want_hook
    }

    /// Primaries that put vertices and whole edges on the lines of
    /// `[0, 4]²`, touch its corners, or straddle nothing at all.
    fn on_line_regions() -> Vec<Region> {
        vec![
            rect(0.0, 1.0, 2.0, 3.0),   // west edge on x = 0, inside
            rect(-2.0, 1.0, 0.0, 3.0),  // east edge on x = 0, outside
            rect(-2.0, 4.0, 2.0, 6.0),  // south edge on y = 4
            rect(0.0, 0.0, 4.0, 4.0),   // every edge on a line
            rect(4.0, 4.0, 6.0, 6.0),   // corner contact
            Region::from_coords([(-2.0, 1.0), (0.0, 2.0), (-2.0, 3.0)]).unwrap(), // vertex on x = 0
            Region::from_coords([(4.0, 4.0), (5.0, 5.0), (6.0, 4.0), (5.0, 3.0)]).unwrap(),
            Region::from_coords([(-1.0, 4.0), (5.0, 4.0), (2.0, 7.0)]).unwrap(),
            Region::from_coords([(0.0, -2.0), (4.0, 6.0), (6.0, -2.0)]).unwrap(),
            Region::from_coords([(-2.0, -2.0), (6.0, 6.0), (6.0, -2.0)]).unwrap(), // through two corners
        ]
    }

    #[test]
    fn single_tile_path_is_pinned_on_grid_lines() {
        let mbb = bbox(0.0, 0.0, 4.0, 4.0);
        for (k, a) in on_line_regions().iter().chain(&adversarial_regions()).enumerate() {
            assert_pinned(a, mbb, &format!("region {k}"));
        }
        // An edge strictly inside one tile is its own sub-edge; one that
        // ends on a line is not divided either, but takes the division
        // path — the hook sees one sub-edge per edge in both cases.
        let inside = assert_pinned(&rect(1.0, 1.0, 3.0, 3.0), mbb, "inside");
        assert_eq!((inside.sub_edges, inside.edges_divided), (4, 0));
        let on_line = assert_pinned(&rect(0.0, 1.0, 2.0, 3.0), mbb, "on line");
        assert_eq!((on_line.sub_edges, on_line.edges_divided), (4, 0));
    }

    #[test]
    fn degenerate_reference_boxes_are_pinned() {
        let boxes = [
            ("zero width", bbox(2.0, 0.0, 2.0, 4.0)),
            ("zero height", bbox(0.0, 2.0, 4.0, 2.0)),
            ("point", bbox(2.0, 2.0, 2.0, 2.0)),
        ];
        let mut primaries = on_line_regions();
        primaries.extend(adversarial_regions());
        primaries.extend([
            rect(2.0, 1.0, 3.0, 3.0), // an edge on the zero-width line
            rect(1.0, 2.0, 3.0, 5.0), // an edge on the zero-height line
            Region::from_coords([(2.0, 2.0), (5.0, 3.0), (4.0, -1.0)]).unwrap(), // vertex on the point
        ]);
        for (name, mbb) in boxes {
            for (k, a) in primaries.iter().enumerate() {
                assert_pinned(a, mbb, &format!("{name} box, region {k}"));
            }
        }
    }

    #[test]
    fn box_gated_centre_test_is_pinned() {
        let square = bbox(0.0, 0.0, 4.0, 4.0); // centre (2, 2)
        let cases = [
            // The centre on the primary box's west and north sides, off
            // the polygon itself.
            ("box west side", Region::from_coords([(2.0, 5.0), (6.0, 5.0), (6.0, -1.0)]).unwrap()),
            ("box north side", Region::from_coords([(-3.0, -3.0), (5.0, -3.0), (-3.0, 2.0)]).unwrap()),
            // A U whose box holds the centre but whose ring does not: the
            // gate passes and the exact test answers "outside".
            (
                "U around the centre",
                Region::from_coords([
                    (-2.0, -2.0), (6.0, -2.0), (6.0, 6.0), (5.0, 6.0),
                    (5.0, -1.0), (-1.0, -1.0), (-1.0, 6.0), (-2.0, 6.0),
                ])
                .unwrap(),
            ),
            ("covering slab", rect(-2.0, -2.0, 6.0, 6.0)),
            // A frame of four polygons whose hole holds the centre: no
            // member's box contains it.
            ("frame", adversarial_regions()[8].clone()),
        ];
        for (name, a) in &cases {
            assert_pinned(a, square, name);
        }
        let slab = assert_pinned(&cases[3].1, square, "slab");
        assert_eq!(slab.b_center_hits, 1, "the covering slab adds B through the centre test");

        // With a zero-width box the centre lies on the B line, so it can
        // sit on a vertex or an edge of a primary without any sub-edge in
        // B: the centre test itself must add B, exactly as the region
        // path does.
        let thin = bbox(2.0, 0.0, 2.0, 4.0);
        let on_vertex = Region::from_coords([(2.0, 2.0), (5.0, 3.0), (4.0, -1.0)]).unwrap();
        let on_edge = rect(2.0, 1.0, 3.0, 3.0);
        for (name, a) in [("centre on a vertex", &on_vertex), ("centre on an edge", &on_edge)] {
            assert_eq!(assert_pinned(a, thin, name).b_center_hits, 1, "{name}");
        }
    }

    fn scaled(r: &Region, f: f64) -> Region {
        Region::new(r.polygons().iter().map(|p| {
            Polygon::new(p.vertices().iter().map(|v| Point::new(v.x * f, v.y * f))).unwrap()
        }))
        .unwrap()
    }

    #[test]
    fn scaled_and_huge_coordinates_are_pinned() {
        let mut primaries = on_line_regions();
        primaries.extend(adversarial_regions());
        for f in [2f64.powi(40), 2f64.powi(-40)] {
            let mbb = bbox(0.0, 0.0, 4.0 * f, 4.0 * f);
            for (k, a) in primaries.iter().enumerate() {
                assert_pinned(&scaled(a, f), mbb, &format!("scale {f:e}, region {k}"));
            }
        }
        // Grid lines at ±f64::MAX / 2 still take the single-tile path;
        // middle-band coordinates there cannot overflow when summed.
        let h = HALF_MAX;
        let edge_box = bbox(-h, -h, h, h);
        let near = rect(0.5 * h, 0.25 * h, 0.75 * h, 0.5 * h);
        assert_pinned(&near, edge_box, "lines at ±MAX/2");
        assert_pinned(&rect(-0.9 * h, -0.9 * h, 0.9 * h, 0.9 * h), edge_box, "near ±MAX/2");
    }

    /// The overflow guard: past `f64::MAX / 2` two middle-band
    /// coordinates can sum to infinity, so the region path's midpoint
    /// leaves the band and the edge is classified elsewhere. The kernel
    /// must take the division path there and agree.
    #[test]
    fn single_tile_path_is_guarded_against_midpoint_overflow() {
        let big = f64::MAX;
        let mbb = bbox(0.5 * big, 0.5 * big, 0.9 * big, 0.9 * big);
        let a = rect(0.6 * big, 0.6 * big, 0.8 * big, 0.8 * big);
        let edge = a.edges().next().unwrap();
        assert!(edge.midpoint().x.is_infinite() || edge.midpoint().y.is_infinite());
        assert_eq!(single_tile(edge, mbb), Some(Tile::B), "both endpoints lie inside B");
        assert_ne!(classify_subedge(edge, mbb), Tile::B, "the overflowed midpoint does not");
        assert_pinned(&a, mbb, "midpoint overflow");
    }

    #[test]
    fn hook_counts_match_the_region_entry_points() {
        let b = rect(0.0, 0.0, 4.0, 4.0);
        for a in adversarial_regions() {
            let mut store = SoaStore::new();
            store.push_region(&a);
            let soa = store.view(0);
            let mut legacy = CountingHook::new();
            let mut fused = CountingHook::new();
            let want = compute_cdr_hooked(&a, &b, &mut legacy);
            let got = cdr_from_soa_hooked(&soa, b.mbb(), &mut fused);
            assert_eq!(got, want);
            assert_eq!(fused, legacy, "hook event streams must agree");
            // The fused quantitative pass scans each edge once — the same
            // counts again, not double.
            let mut quant = CountingHook::new();
            cdr_areas_from_soa_hooked(&soa, b.mbb(), &mut quant);
            assert_eq!(quant.edges_scanned, legacy.edges_scanned);
            assert_eq!(quant.sub_edges, legacy.sub_edges);
        }
    }
}
