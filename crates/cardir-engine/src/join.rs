//! The MBB spatial join: sub-quadratic batch relations, and the engine's
//! only whole-map path.
//!
//! Enumerating all `N·(N−1)` ordered pairs is quadratic even when the
//! boxes decide ~95 % of them, and at 100k regions the enumeration loop
//! itself is the ceiling. The join never enumerates the decided pairs.
//! Two plane sweeps over the region MBBs (see
//! [`cardir_index::sweep_stabs`]) discover the *interacting* pairs — the
//! ones a grid-line contact sends down the exact pipeline — in
//! `O(N log N + K)` for `K` interacting pairs. That partitions the pair
//! space in two:
//!
//! - **mask-emitted** — the `N·(N−1) − K` non-interacting pairs. Their
//!   primary box lies strictly inside one tile of the reference grid, so
//!   their relation is the single-tile relation, emitted by
//!   [`emit_decided`]. These pairs are never enumerated as work items.
//! - **exact** — the `K` interacting pairs, which flow through the
//!   chunked worker pipeline (retries, panic isolation, deadline/cancel).
//!
//! [`BatchEngine::run_join`] returns the compact [`JoinOutcome`]: the `K`
//! exact outcomes plus counters, with memory bounded by the interacting
//! set, so a 100k-region map never materialises ten billion pairs.
//! [`JoinOutcome::materialize`] expands to the full [`BatchOutcome`] when
//! the caller really wants every ordered pair, in the primary-major order
//! of a naive double loop.
//!
//! ## Equivalence with `decided_tile`
//!
//! `decided_tile(mbb(i), mbb(j))` is `None` exactly when `i`'s closed
//! x-interval contains `j.min.x` or `j.max.x`, or `i`'s closed y-interval
//! contains `j.min.y` or `j.max.y` (strict-band case analysis: touching
//! or straddling an endpoint on an axis is precisely closed containment
//! of that endpoint). Each sweep reports exactly those containments, so
//! the union of the two sweeps, deduplicated, is exactly the set of
//! ordered pairs `i ≠ j` that `decided_tile` cannot decide. The
//! `join.candidates` counter counts one contact per (interval, grid
//! coordinate) containment, self-contacts included.
//!
//! ## Fault semantics
//!
//! `RunPolicy` applies to the exact subset, which is the only part that
//! does real work. Mask-emitted pairs cost `O(1)` each and are emitted
//! regardless of deadline or cancellation — a cancelled join still
//! reports them as succeeded. Likewise the `engine.pair.compute`
//! failpoint only fires for exact work items: emitted pairs never were
//! work items. Panic isolation still covers emission itself (each emit
//! runs under `catch_unwind` during materialisation when the policy
//! isolates).

use crate::batch::{emit_decided, BatchEngine, BatchStats, EngineMode, PairRelation, Tally};
use crate::cache::RegionCache;
use crate::metrics::EngineMetrics;
use crate::policy::{
    BatchOutcome, CompletionStatus, PairError, PairFailure, PairOutcome, RunPolicy,
};
use crate::prefilter::decided_tile;
use cardir_index::{sweep_stabs, Interval};
use cardir_telemetry::trace::{phases, MAIN_TID};
use cardir_telemetry::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The join's partition counters, exported as `join.*` telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinStats {
    /// Interval/grid-coordinate contacts visited by the two sweeps,
    /// self-contacts included.
    pub candidates: usize,
    /// Ordered pairs answered straight from the box mask, never
    /// enumerated as work items: `N·(N−1) − K`.
    pub mask_emitted: usize,
    /// Ordered pairs routed to the exact per-pair pipeline: `K`.
    pub exact_pairs: usize,
}

/// Discovers every interacting ordered pair `(i, j)`, `i ≠ j` — the
/// pairs whose relation the boxes alone cannot decide
/// ([`decided_tile`] is `None`) — with one plane sweep per axis, plus
/// the total contact count (the `join.candidates` counter).
///
/// The pairs come back sorted primary-major (ascending `i`, then `j`),
/// each exactly once. Cost: `O(N log N + K)` time, `O(K)` memory.
pub fn interacting_pairs(cache: &RegionCache<'_>) -> (Vec<(u32, u32)>, usize) {
    let n = cache.len();
    assert!(u32::try_from(n).is_ok(), "the join packs region indices into u32 pairs");
    let mut candidates = 0usize;
    // Packed (i << 32 | j) so sort + dedup run on plain u64s. A pair can
    // be reported up to four times (each of j's two grid coordinates per
    // axis), so dedup is required, not just cosmetic.
    let mut packed: Vec<u64> = Vec::new();
    let mut axis = |coord: &dyn Fn(usize) -> (f64, f64)| {
        let intervals: Vec<Interval> =
            (0..n).map(|i| { let (lo, hi) = coord(i); Interval::new(lo, hi) }).collect();
        let mut points = Vec::with_capacity(2 * n);
        for iv in &intervals {
            points.push(iv.lo);
            points.push(iv.hi);
        }
        sweep_stabs(&intervals, &points, &mut |i, p| {
            candidates += 1;
            let j = p / 2;
            if i != j {
                packed.push(((i as u64) << 32) | j as u64);
            }
        });
    };
    axis(&|i| { let b = cache.mbb(i); (b.min.x, b.max.x) });
    axis(&|i| { let b = cache.mbb(i); (b.min.y, b.max.y) });
    packed.sort_unstable();
    packed.dedup();
    let pairs = packed.into_iter().map(|w| ((w >> 32) as u32, (w & 0xFFFF_FFFF) as u32)).collect();
    (pairs, candidates)
}

/// Result of [`BatchEngine::run_join`]: the exact subset's outcomes plus
/// the partition accounting, *without* the mask-emitted pairs — memory
/// is bounded by the interacting set, not by `N²`.
///
/// The mask-emitted pairs are counted as succeeded (their relation is
/// proven by the boxes; producing it is `O(1)`); call
/// [`materialize`](JoinOutcome::materialize) to actually expand them.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// Number of regions in the cache.
    pub regions: usize,
    /// One outcome per interacting pair, sorted primary-major — the
    /// exact subset only.
    pub interacting: Vec<PairOutcome>,
    /// The partition counters (also in `metrics.join`).
    pub join: JoinStats,
    /// How the exact pass ended; mask emission cannot fail or stop.
    pub status: CompletionStatus,
    /// Mask-emitted pairs plus exact successes.
    pub succeeded: usize,
    /// Exact pairs that failed permanently.
    pub failed: usize,
    /// Exact pairs skipped by deadline/cancel.
    pub skipped: usize,
    /// Counter block over the whole pair space (`stats.pairs == N·(N−1)`).
    pub stats: BatchStats,
    /// Stage timings of the run; `metrics.join` is `Some`.
    pub metrics: EngineMetrics,
    mode: EngineMode,
    panic_isolation: bool,
    tracer: Tracer,
}

impl JoinOutcome {
    /// Total ordered pairs of the configuration
    /// (`succeeded + failed + skipped`).
    pub fn total(&self) -> usize {
        ordered_pair_count(self.regions)
    }

    /// Expands to the full [`BatchOutcome`]: every ordered pair in
    /// primary-major order, mask-emitted relations produced by
    /// [`emit_decided`]. The expansion's wall time adds to
    /// `metrics.assemble`. Allocates `O(N²)`; large maps should consume
    /// [`JoinOutcome::interacting`] directly instead.
    pub fn materialize(self, cache: &RegionCache<'_>) -> BatchOutcome {
        let JoinOutcome {
            regions: n,
            interacting,
            join: _,
            status,
            succeeded,
            failed,
            skipped,
            mut stats,
            mut metrics,
            mode,
            panic_isolation,
            tracer,
        } = self;
        let mut trace = tracer.thread(MAIN_TID);
        let trace_start = trace.begin();
        let start = Instant::now();
        let mut pairs = Vec::with_capacity(ordered_pair_count(n));
        let mut tally = Tally::default();
        let mut exact = interacting.into_iter().peekable();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // The exact subset is sorted primary-major like this
                // double loop, so one peek decides which side owns (i, j).
                if exact.peek().is_some_and(|p| p.indices() == (i, j)) {
                    pairs.push(exact.next().expect("peeked"));
                } else {
                    pairs.push(emit_pair(cache, i, j, mode, panic_isolation, &mut tally));
                }
            }
        }
        debug_assert!(exact.peek().is_none(), "every interacting pair was consumed");
        metrics.assemble += start.elapsed();
        trace.end(trace_start, phases::MATERIALIZE, None);
        drop(trace);

        // Emission can itself fail (an isolated panic in the quantitative
        // N-tile fallback): move those pairs from succeeded to failed.
        let emit_failed = tally.faults.failed_pairs;
        let succeeded = succeeded - emit_failed;
        let failed = failed + emit_failed;
        let status = if emit_failed > 0 && status == CompletionStatus::Complete {
            CompletionStatus::PartialPanics
        } else {
            status
        };
        stats.prefilter_hits += tally.hits;
        stats.edges_scanned += tally.edges_scanned;
        stats.fused_pairs += tally.fused;
        stats.exact_pairs = succeeded - stats.prefilter_hits;
        metrics.faults.merge(&tally.faults);
        BatchOutcome { pairs, status, succeeded, failed, skipped, stats, metrics }
    }
}

/// Emits one mask-decided pair during materialisation, under the same
/// panic-isolation contract as the worker pipeline.
fn emit_pair(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    isolate: bool,
    tally: &mut Tally,
) -> PairOutcome {
    if !isolate {
        return PairOutcome::Ok(emit_checked(cache, i, j, mode, tally));
    }
    match catch_unwind(AssertUnwindSafe(|| emit_checked(cache, i, j, mode, tally))) {
        Ok(pr) => PairOutcome::Ok(pr),
        Err(payload) => {
            tally.faults.panics_caught += 1;
            tally.faults.failed_pairs += 1;
            PairOutcome::Failed(PairError {
                primary: i,
                reference: j,
                failure: PairFailure::Panicked(cardir_faults::panic_message(payload)),
                attempts: 1,
            })
        }
    }
}

/// Re-derives the decided tile and emits: the sweep already proved the
/// pair non-interacting, so `decided_tile` cannot be `None` here.
fn emit_checked(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    tally: &mut Tally,
) -> PairRelation {
    let tile = decided_tile(cache.mbb(i), cache.mbb(j))
        .expect("the sweep routed every interacting pair to the exact set");
    emit_decided(cache, i, j, tile, mode, tally)
}

/// `N·(N−1)`, the number of ordered pairs of distinct regions.
fn ordered_pair_count(n: usize) -> usize {
    n * n.saturating_sub(1)
}

impl BatchEngine {
    /// Computes every ordered pair under `policy` via the spatial join,
    /// returning the compact [`JoinOutcome`]: exact outcomes for the `K`
    /// interacting pairs, counters for the rest. Memory is `O(K)`, not
    /// `O(N²)`.
    pub fn run_join(&self, cache: &RegionCache<'_>, policy: &RunPolicy) -> JoinOutcome {
        let start = Instant::now();
        let n = cache.len();
        let mut trace = self.tracer().thread(MAIN_TID);
        let trace_start = trace.begin();
        let (work, candidates) = interacting_pairs(cache);
        let discover = start.elapsed();
        trace.end(trace_start, phases::SWEEP_PARTITION, None);
        drop(trace);
        let total = ordered_pair_count(n);
        let join = JoinStats {
            candidates,
            mask_emitted: total - work.len(),
            exact_pairs: work.len(),
        };
        let sub = self.run(
            cache,
            work.len(),
            |k| (work[k].0 as usize, work[k].1 as usize),
            policy,
        );
        drop(work);
        let stats = BatchStats { pairs: total, ..sub.stats };
        let mut metrics = EngineMetrics { discover, join: Some(join), ..sub.metrics };
        // Freeing the work list and the bookkeeping after the exact pass
        // count as assembly, so the three phases cover the whole call.
        metrics.assemble = start.elapsed().saturating_sub(discover + metrics.exact_pass);
        JoinOutcome {
            regions: n,
            interacting: sub.pairs,
            join,
            status: sub.status,
            succeeded: join.mask_emitted + sub.succeeded,
            failed: sub.failed,
            skipped: sub.skipped,
            stats,
            metrics,
            mode: self.mode(),
            panic_isolation: policy.panic_isolation,
            tracer: self.tracer().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_geometry::{BoundingBox, Point, Region};
    use cardir_workloads::SplitMix64;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    /// Quadratic oracle: the interacting set is exactly the undecided
    /// ordered pairs.
    fn oracle(cache: &RegionCache<'_>) -> Vec<(u32, u32)> {
        let n = cache.len();
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && decided_tile(cache.mbb(i), cache.mbb(j)).is_none() {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// Brute-force contact count: for every ordered `(i, j)`, `i = j`
    /// included, the number of `j`'s four grid coordinates that lie in
    /// `i`'s closed interval on their axis.
    fn brute_force_candidates(cache: &RegionCache<'_>) -> usize {
        let n = cache.len();
        let mut count = 0;
        for i in 0..n {
            let a = cache.mbb(i);
            for j in 0..n {
                let b = cache.mbb(j);
                let on_x = [b.min.x, b.max.x].into_iter().filter(|&x| a.min.x <= x && x <= a.max.x);
                let on_y = [b.min.y, b.max.y].into_iter().filter(|&y| a.min.y <= y && y <= a.max.y);
                count += on_x.count() + on_y.count();
            }
        }
        count
    }

    fn assert_join_matches_oracle(regions: &[Region]) {
        let cache = RegionCache::build(regions);
        let (got, candidates) = interacting_pairs(&cache);
        assert_eq!(got, oracle(&cache), "interacting set must match the quadratic oracle");
        // Exactly once: strictly increasing packed order proves no dups.
        assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
        assert_eq!(candidates, brute_force_candidates(&cache), "sweep contacts ≡ brute force");
    }

    /// Random lattice rectangles: half-integer endpoints force plenty of
    /// exact ties (shared grid lines, corner contact).
    fn lattice_regions(seed: u64, n: usize) -> Vec<Region> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x0 = rng.random_range(-20i64..20) as f64 / 2.0;
                let y0 = rng.random_range(-20i64..20) as f64 / 2.0;
                let w = rng.random_range(1i64..12) as f64 / 2.0;
                let h = rng.random_range(1i64..12) as f64 / 2.0;
                rect(x0, y0, x0 + w, y0 + h)
            })
            .collect()
    }

    #[test]
    fn interacting_pairs_matches_oracle_on_lattice_maps() {
        for seed in 0..30 {
            let n = 2 + (seed as usize % 11);
            assert_join_matches_oracle(&lattice_regions(seed, n));
        }
    }

    #[test]
    fn interacting_pairs_matches_oracle_on_slivers_and_contacts() {
        // Degenerate-ish geometry: hairline slivers, shared edges, corner
        // touches, one box containing everything.
        let regions = vec![
            rect(0.0, 0.0, 4.0, 4.0),
            rect(4.0, 4.0, 6.0, 6.0),   // corner contact with 0
            rect(0.0, 4.0, 4.0, 8.0),   // edge contact with 0
            rect(1.0, 1.0, 3.0, 1.001), // sliver inside 0
            rect(-10.0, -10.0, 20.0, 20.0), // contains everything
            rect(30.0, 30.0, 31.0, 31.0),   // far away, decided vs most
        ];
        assert_join_matches_oracle(&regions);
    }

    #[test]
    fn interacting_pairs_empty_and_single() {
        let cache = RegionCache::build(std::iter::empty());
        assert_eq!(interacting_pairs(&cache), (Vec::new(), 0));
        let one = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let cache = RegionCache::build(&one);
        let (pairs, candidates) = interacting_pairs(&cache);
        assert!(pairs.is_empty(), "a single region has no ordered pairs");
        assert_eq!(candidates, 4, "the region still contacts its own four grid coordinates");
    }

    fn map_regions(seed: u64, n: usize) -> Vec<Region> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let extent =
            BoundingBox::new(Point::new(0.0, 0.0), Point::new(400.0, 300.0));
        cardir_workloads::random_map(&mut rng, n, extent).into_iter().map(|m| m.region).collect()
    }

    /// The materialized join agrees with computing every ordered pair on
    /// the exact path, relation and percentage bits alike; only the
    /// mask-emitted pairs skip the edge work.
    #[test]
    fn materialized_join_matches_the_exact_path_on_every_pair() {
        let regions = map_regions(11, 30);
        let cache = RegionCache::build(&regions);
        let all: Vec<(usize, usize)> =
            (0..30).flat_map(|i| (0..30).filter(move |&j| j != i).map(move |j| (i, j))).collect();
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let engine = BatchEngine::new().with_mode(mode).with_threads(2);
            let exact = engine.run_pairs(&cache, &all, &RunPolicy::default()).unwrap();
            let joined = engine.run_join(&cache, &RunPolicy::default()).materialize(&cache);
            assert_eq!(joined.status, exact.status);
            assert_eq!(
                (joined.succeeded, joined.failed, joined.skipped),
                (exact.succeeded, exact.failed, exact.skipped)
            );
            for (got, want) in joined.relations().zip(exact.relations()) {
                assert_eq!((got.primary, got.reference), (want.primary, want.reference));
                assert_eq!(got.relation, want.relation, "mode {mode:?}");
                assert_eq!(got.percentages, want.percentages, "mode {mode:?}");
            }
            assert_eq!(joined.stats.pairs, exact.stats.pairs);
            assert_eq!(exact.stats.exact_pairs, exact.stats.pairs, "run_pairs is all exact");
            assert!(joined.stats.prefilter_hits > 0, "a scattered map has decided pairs");
            assert_eq!(
                joined.stats.prefilter_hits + joined.stats.exact_pairs,
                joined.stats.pairs
            );
            assert!(joined.stats.edges_scanned < exact.stats.edges_scanned);
        }
    }

    #[test]
    fn join_outcome_accounting_closes_without_materializing() {
        let regions = map_regions(23, 40);
        let cache = RegionCache::build(&regions);
        let outcome = BatchEngine::new()
            .with_threads(2)
            .run_join(&cache, &RunPolicy::default());
        let total = 40 * 39;
        assert_eq!(outcome.total(), total);
        assert_eq!(outcome.join.mask_emitted + outcome.join.exact_pairs, total);
        assert_eq!(outcome.succeeded + outcome.failed + outcome.skipped, total);
        assert_eq!(outcome.interacting.len(), outcome.join.exact_pairs);
        assert_eq!(outcome.status, CompletionStatus::Complete);
        assert!(
            outcome.join.mask_emitted > outcome.join.exact_pairs,
            "a scattered map is mostly mask-emitted: {:?}",
            outcome.join
        );
        // Every interacting outcome really is an undecided pair.
        for p in &outcome.interacting {
            let (i, j) = p.indices();
            assert_eq!(decided_tile(cache.mbb(i), cache.mbb(j)), None, "pair ({i}, {j})");
        }
    }

    #[test]
    fn run_join_on_tiny_maps() {
        let cache = RegionCache::build(std::iter::empty());
        let outcome = BatchEngine::new().run_join(&cache, &RunPolicy::default());
        assert_eq!(outcome.total(), 0);
        assert_eq!(outcome.join, JoinStats::default());
        let materialized = outcome.materialize(&cache);
        assert!(materialized.pairs.is_empty());
        assert_eq!(materialized.status, CompletionStatus::Complete);
    }
}
