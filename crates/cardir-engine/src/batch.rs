//! The batch engine: chunked, multi-threaded pair computation with
//! deterministic assembly.
//!
//! The engine has two entry points over one chunked work queue:
//!
//! - [`BatchEngine::run_join`] computes every ordered pair of a map. An
//!   MBB sweep finds the interacting pairs; only those become work
//!   items, and [`JoinOutcome::materialize`](crate::JoinOutcome::materialize)
//!   emits the box-decided rest (see [`crate::join`]).
//! - [`BatchEngine::run_pairs`] computes an explicit pair list, such as
//!   the pairs an incremental edit invalidated. Every listed pair takes
//!   the exact path.
//!
//! The output vector is allocated once, with a `Skipped` outcome in
//! every slot, and cut into fixed chunks. Scoped worker threads claim
//! the next chunk slice from one queue, compute each pair with the fused
//! SoA kernels, and write the outcomes into that slice in place. Every
//! pair's slot is fixed by its input position, so the output is
//! bit-identical no matter how many workers ran or how the scheduler
//! interleaved them, and nothing is reordered or copied afterwards.
//!
//! Every run executes under a [`RunPolicy`]: each pair attempt is wrapped
//! in `catch_unwind` (so one poisoned pair becomes a
//! [`PairOutcome::Failed`] instead of aborting the batch), transient
//! failures retry with bounded deterministic backoff, and deadline /
//! cancellation checks run cooperatively between chunks. The outcome
//! reports every pair as `Ok`, `Failed` or `Skipped`. Fault injection for
//! tests rides on `cardir-faults` failpoints (`engine.pair.compute`,
//! `engine.chunk.claim`, and `engine.cache.insert` in
//! [`RegionCache::build`]), which compile to a single relaxed atomic load
//! when unarmed.

use crate::cache::RegionCache;
use crate::metrics::EngineMetrics;
use crate::policy::{
    BatchOutcome, CompletionStatus, FaultTally, PairError, PairFailure, PairOutcome, RunPolicy,
};
use cardir_core::{
    areas_from_soa, cdr_areas_from_soa, cdr_from_soa, CardinalRelation, PercentageMatrix, Tile,
};
use cardir_faults::{sites, FaultAction};
use cardir_telemetry::trace::{phases, MAIN_TID};
use cardir_telemetry::{Histogram, Tracer, DURATION_BOUNDS_NS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What the engine computes per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Qualitative relations only (`Compute-CDR`).
    Qualitative,
    /// Qualitative relations plus percentage matrices (`Compute-CDR%`).
    Quantitative,
}

/// One computed ordered pair: `primary R reference`.
#[derive(Debug, Clone, PartialEq)]
pub struct PairRelation {
    /// Index of the primary region in the cache.
    pub primary: usize,
    /// Index of the reference region in the cache.
    pub reference: usize,
    /// The qualitative relation — bit-identical to
    /// `compute_cdr(primary, reference)`.
    pub relation: CardinalRelation,
    /// The percentage matrix — bit-identical to
    /// `compute_cdr_pct(primary, reference)`. `None` in
    /// [`EngineMode::Qualitative`].
    pub percentages: Option<PercentageMatrix>,
    /// `true` when the boxes alone decided the pair, without any edge
    /// work (a mask-emitted pair of the spatial join).
    pub via_prefilter: bool,
}

/// Aggregate statistics of one batch run — the always-on counter block.
/// Collecting it costs a handful of adds per chunk, so there is no off
/// switch; stage timings live in [`EngineMetrics`](crate::EngineMetrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Ordered pairs computed.
    pub pairs: usize,
    /// Pairs decided from the boxes alone, without any edge work. Only
    /// [`JoinOutcome::materialize`](crate::JoinOutcome::materialize)
    /// emits such pairs.
    pub prefilter_hits: usize,
    /// Worker threads used for the exact pass.
    pub threads: usize,
    /// Pairs that took the exact edge-division path
    /// (`pairs − prefilter_hits`; includes the quantitative N-tile
    /// fallback, which recomputes areas exactly).
    pub exact_pairs: usize,
    /// Primary-region edges scanned across all exact computations — the
    /// paper's `Σ k_a` cost term that the box decision exists to avoid.
    /// Each edge counts once per exact pair in *both* modes: the fused
    /// quantitative kernel computes relation and areas in one sweep, so
    /// quantitative runs no longer double this count.
    pub edges_scanned: usize,
    /// Exact computations served by the fused SoA kernels — pairs whose
    /// edge scan ran over the cache's struct-of-arrays store instead of
    /// re-flattening `Region` geometry. Invariant: equals
    /// [`BatchStats::exact_pairs`] (which already counts the quantitative
    /// N-tile fallbacks), because no other exact path exists.
    pub fused_pairs: usize,
}

impl BatchStats {
    /// Fraction of pairs decided from the boxes, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.prefilter_hits as f64 / self.pairs as f64
        }
    }
}

/// The batch pairwise-relation engine.
///
/// ```
/// use cardir_engine::{BatchEngine, EngineMode, RegionCache, RunPolicy};
/// use cardir_geometry::Region;
///
/// let regions = vec![
///     Region::from_coords([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]).unwrap(),
///     Region::from_coords([(1.0, 6.0), (3.0, 6.0), (3.0, 8.0), (1.0, 8.0)]).unwrap(),
/// ];
/// let cache = RegionCache::build(&regions);
/// let outcome = BatchEngine::new()
///     .with_mode(EngineMode::Qualitative)
///     .with_threads(2)
///     .run_join(&cache, &RunPolicy::default())
///     .materialize(&cache);
/// let pairs: Vec<_> = outcome.relations().collect();
/// assert_eq!(pairs.len(), 2);
/// assert_eq!(pairs[0].primary, 0);
/// assert_eq!(pairs[0].reference, 1);
/// // Region 0 is south of region 1 but wider, so it spans three tiles.
/// assert_eq!(pairs[0].relation.to_string(), "S:SW:SE");
/// // Region 1 sits strictly inside N(0): the boxes decide it.
/// assert_eq!(pairs[1].relation.to_string(), "N");
/// assert!(pairs[1].via_prefilter);
/// ```
#[derive(Debug, Clone)]
pub struct BatchEngine {
    threads: usize,
    mode: EngineMode,
    tracer: Tracer,
}

/// Errors from [`BatchEngine::run_pairs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A requested pair referenced a region index outside the cache.
    PairOutOfBounds {
        /// The offending `(primary, reference)` pair.
        pair: (usize, usize),
        /// Number of regions in the cache.
        len: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::PairOutOfBounds { pair: (i, j), len } => write!(
                f,
                "pair ({i}, {j}) index out of bounds for a cache of {len} regions"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl Default for BatchEngine {
    fn default() -> Self {
        BatchEngine::new()
    }
}

/// Chunk size of the work queue: big enough to amortise the queue lock,
/// small enough to load-balance maps where a few regions carry most
/// edges.
const CHUNK: usize = 256;

impl BatchEngine {
    /// An engine using every available core, in qualitative mode, with
    /// tracing off.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        BatchEngine { threads, mode: EngineMode::Qualitative, tracer: Tracer::disabled() }
    }

    /// Sets the number of worker threads (clamped to at least 1). The
    /// output is identical for every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets what to compute per pair.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches an execution [`Tracer`]: every stage of the pipeline —
    /// sweep discovery, per-worker queue-wait and chunk compute, assembly,
    /// join materialisation — records timeline spans into it, tagged with
    /// thread and chunk ids, ready for
    /// [`ChromeTrace`](cardir_telemetry::ChromeTrace) export. The default
    /// is [`Tracer::disabled`], which costs one branch per would-be span
    /// and allocates nothing; computed pairs are bit-identical either way
    /// — tracing only observes.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled unless [`BatchEngine::with_tracer`]
    /// was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Worker threads this engine will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Computes an explicit list of ordered pairs under `policy`,
    /// preserving list order and reporting one [`PairOutcome`] per pair
    /// plus the completion status. Every pair, self-pairs included, takes
    /// the exact path. Returns [`EngineError::PairOutOfBounds`] instead
    /// of panicking when a pair indexes outside the cache, so one
    /// malformed request cannot take down a batch service.
    pub fn run_pairs(
        &self,
        cache: &RegionCache<'_>,
        pairs: &[(usize, usize)],
        policy: &RunPolicy,
    ) -> Result<BatchOutcome, EngineError> {
        let n = cache.len();
        if let Some(&pair) = pairs.iter().find(|&&(i, j)| i >= n || j >= n) {
            return Err(EngineError::PairOutOfBounds { pair, len: n });
        }
        Ok(self.run(cache, pairs.len(), |k| pairs[k], policy))
    }

    /// The chunked parallel pass shared by both entry points. Every
    /// work item takes the exact path.
    ///
    /// The output is pre-sized with a [`PairOutcome::Skipped`] in every
    /// input-order slot. Workers claim `(chunk index, chunk slice)` pairs
    /// from one queue and overwrite their slice in place, re-checking the
    /// cancel token and the deadline before each claim; a chunk never
    /// claimed simply stays `Skipped`, so the output always has one entry
    /// per requested pair with no reorder or copy. The prefill counts in
    /// the exact pass, so the phases still add up to the wall time.
    pub(crate) fn run<F>(
        &self,
        cache: &RegionCache<'_>,
        total: usize,
        pair_at: F,
        policy: &RunPolicy,
    ) -> BatchOutcome
    where
        F: Fn(usize) -> (usize, usize) + Sync,
    {
        let exact_start = Instant::now();
        let deadline_at = policy.deadline.and_then(|d| exact_start.checked_add(d));
        let n_chunks = total.div_ceil(CHUNK).max(1);
        let workers = self.threads.min(n_chunks);
        let per_thread: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        let chunk_hist = Histogram::new_detached(&DURATION_BOUNDS_NS);
        let mode = self.mode;
        let deadline_hits = AtomicUsize::new(0);
        let cancel_hits = AtomicUsize::new(0);
        let totals = Mutex::new(Tally::default());
        let mut pairs: Vec<PairOutcome> = (0..total)
            .map(|k| {
                let (primary, reference) = pair_at(k);
                PairOutcome::Skipped { primary, reference }
            })
            .collect();
        {
            let queue = Mutex::new(pairs.chunks_mut(CHUNK).enumerate());
            let queue = &queue;
            let totals = &totals;
            let per_thread = &per_thread[..];
            let chunk_hist = &chunk_hist;
            let pair_at = &pair_at;
            let deadline_hits = &deadline_hits;
            let cancel_hits = &cancel_hits;
            let tracer = &self.tracer;
            std::thread::scope(|s| {
                for (slot, my_pairs) in per_thread.iter().enumerate() {
                    s.spawn(move || {
                        // Worker tids are 1-based; MAIN_TID is the
                        // coordinator. The buffer merges on drop, once.
                        let mut trace = tracer.thread(slot as u32 + 1);
                        let mut worker_pairs = 0usize;
                        let mut tally = Tally::default();
                        loop {
                            // A queue_wait span covers everything between
                            // chunks: the stop checks, the claim, and any
                            // injected claim stall.
                            let wait_start = trace.begin();
                            // Cooperative stop checks, between chunks only
                            // — claimed chunks always run to completion.
                            if let Some(token) = &policy.cancel {
                                if token.is_cancelled() {
                                    cancel_hits.fetch_add(1, Ordering::Relaxed);
                                    trace.end(wait_start, phases::QUEUE_WAIT, None);
                                    break;
                                }
                            }
                            if let Some(t) = deadline_at {
                                if Instant::now() >= t {
                                    deadline_hits.fetch_add(1, Ordering::Relaxed);
                                    trace.end(wait_start, phases::QUEUE_WAIT, None);
                                    break;
                                }
                            }
                            let claimed = queue
                                .lock()
                                .expect("the queue lock is held only for next(), which cannot panic")
                                .next();
                            let Some((c, chunk)) = claimed else {
                                trace.end(wait_start, phases::QUEUE_WAIT, None);
                                break;
                            };
                            // Failpoint: a slow tenant stalling a worker.
                            if let Some(FaultAction::Delay(d)) =
                                cardir_faults::hit(sites::ENGINE_CHUNK_CLAIM)
                            {
                                std::thread::sleep(d);
                            }
                            trace.end(wait_start, phases::QUEUE_WAIT, Some(c as u64));
                            let compute_start = trace.begin();
                            let chunk_start = Instant::now();
                            for (out, k) in chunk.iter_mut().zip(c * CHUNK..) {
                                let (i, j) = pair_at(k);
                                *out = run_pair(cache, i, j, mode, policy, &mut tally);
                            }
                            worker_pairs += chunk.len();
                            chunk_hist.record(duration_ns(chunk_start.elapsed()));
                            trace.end(compute_start, phases::CHUNK_COMPUTE, Some(c as u64));
                        }
                        my_pairs.store(worker_pairs, Ordering::Relaxed);
                        totals.lock().expect("merging counters cannot panic").merge(&tally);
                    });
                }
            });
        }
        let assemble_start = Instant::now();
        let exact_pass = assemble_start - exact_start;

        let mut main_trace = self.tracer.thread(MAIN_TID);
        let trace_start = main_trace.begin();
        let mut totals = totals.into_inner().expect("merging counters cannot panic");
        let per_thread_pairs: Vec<usize> =
            per_thread.iter().map(|p| p.load(Ordering::Relaxed)).collect();
        let skipped = total - per_thread_pairs.iter().sum::<usize>();
        let failed = totals.faults.failed_pairs;
        let succeeded = total - failed - skipped;
        totals.faults.skipped_pairs = skipped;
        totals.faults.deadline_hits = deadline_hits.load(Ordering::Relaxed);
        totals.faults.cancel_hits = cancel_hits.load(Ordering::Relaxed);

        let status = if skipped > 0 {
            if totals.faults.cancel_hits > 0 {
                CompletionStatus::Cancelled
            } else {
                CompletionStatus::DeadlineExceeded
            }
        } else if failed > 0 {
            CompletionStatus::PartialPanics
        } else {
            CompletionStatus::Complete
        };

        let stats = BatchStats {
            pairs: total,
            prefilter_hits: 0,
            threads: workers,
            // Successful pairs; failed and skipped pairs count in neither
            // bucket.
            exact_pairs: succeeded,
            edges_scanned: totals.edges_scanned,
            fused_pairs: totals.fused,
        };
        let metrics = EngineMetrics {
            cache_build: cache.build_time(),
            discover: Duration::ZERO,
            exact_pass,
            assemble: assemble_start.elapsed(),
            per_thread_pairs,
            chunk_durations_ns: chunk_hist.snapshot(),
            faults: totals.faults,
            join: None,
        };
        main_trace.end(trace_start, phases::ASSEMBLE, None);
        BatchOutcome { pairs, status, succeeded, failed, skipped, stats, metrics }
    }
}

/// A duration in whole nanoseconds, saturating at `u64::MAX`.
pub(crate) fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Runs one pair under the policy: failpoint injection, panic isolation,
/// and the bounded retry loop. Never panics while isolation is on.
fn run_pair(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    policy: &RunPolicy,
    tally: &mut Tally,
) -> PairOutcome {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let result = if policy.panic_isolation {
            match catch_unwind(AssertUnwindSafe(|| attempt_pair(cache, i, j, mode, tally))) {
                Ok(r) => r,
                Err(payload) => {
                    tally.faults.panics_caught += 1;
                    Err(PairFailure::Panicked(cardir_faults::panic_message(payload)))
                }
            }
        } else {
            attempt_pair(cache, i, j, mode, tally)
        };
        match result {
            Ok(pr) => return PairOutcome::Ok(pr),
            Err(failure) => {
                if matches!(failure, PairFailure::Injected(_)) {
                    tally.faults.injected_failures += 1;
                }
                if attempt <= policy.retries {
                    tally.faults.retries += 1;
                    let delay = policy.backoff_delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                } else {
                    tally.faults.failed_pairs += 1;
                    return PairOutcome::Failed(PairError {
                        primary: i,
                        reference: j,
                        failure,
                        attempts: attempt,
                    });
                }
            }
        }
    }
}

/// One pair attempt: the `engine.pair.compute` failpoint, then the real
/// computation. Runs inside the isolation boundary, so an injected panic
/// behaves exactly like a real one.
fn attempt_pair(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    tally: &mut Tally,
) -> Result<PairRelation, PairFailure> {
    match cardir_faults::hit(sites::ENGINE_PAIR_COMPUTE) {
        Some(FaultAction::Panic(msg)) => {
            panic!("injected panic at {}: {msg}", sites::ENGINE_PAIR_COMPUTE)
        }
        Some(FaultAction::Error(msg)) | Some(FaultAction::IoError(msg)) => {
            return Err(PairFailure::Injected(msg))
        }
        Some(FaultAction::TornWrite(_)) => {
            return Err(PairFailure::Injected("torn write at a compute site".into()))
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        None => {}
    }
    Ok(compute_pair(cache, i, j, mode, tally))
}

/// Per-worker counter block, merged once when the worker finishes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Pairs decided from the boxes alone.
    pub(crate) hits: usize,
    /// Primary edges scanned by exact computations.
    pub(crate) edges_scanned: usize,
    /// Exact computations that ran over the fused SoA kernels.
    pub(crate) fused: usize,
    /// Fault events observed while computing.
    pub(crate) faults: FaultTally,
}

impl Tally {
    /// Adds `other`'s counters into this block.
    fn merge(&mut self, other: &Tally) {
        self.hits += other.hits;
        self.edges_scanned += other.edges_scanned;
        self.fused += other.fused;
        self.faults.merge(&other.faults);
    }
}

/// Computes one ordered pair on the exact path — the fused SoA kernels
/// over the primary's edges and the reference's cached MBB — and tallies
/// the edge scan into `tally`.
fn compute_pair(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    mode: EngineMode,
    tally: &mut Tally,
) -> PairRelation {
    let mbb = cache.mbb(j);
    tally.edges_scanned += cache.edge_count(i);
    tally.fused += 1;
    let soa = cache.soa(i);
    let (relation, percentages) = match mode {
        EngineMode::Qualitative => (cdr_from_soa(&soa, mbb), None),
        EngineMode::Quantitative => {
            // One fused sweep computes the relation and the areas
            // together, instead of one pass for the relation and a
            // second for the areas.
            let (relation, areas) = cdr_areas_from_soa(&soa, mbb);
            (relation, Some(areas.percentages()))
        }
    };
    PairRelation { primary: i, reference: j, relation, percentages, via_prefilter: false }
}

/// Emits the relation for a pair the boxes alone decide: the primary's
/// MBB lies strictly inside `tile` of the reference's grid. Shared by the
/// spatial join's materialisation and the incremental engine's, so both
/// emit the same bits for decided pairs by construction.
pub(crate) fn emit_decided(
    cache: &RegionCache<'_>,
    i: usize,
    j: usize,
    tile: Tile,
    mode: EngineMode,
    tally: &mut Tally,
) -> PairRelation {
    let relation = CardinalRelation::single(tile);
    match mode {
        EngineMode::Qualitative => {
            tally.hits += 1;
            PairRelation { primary: i, reference: j, relation, percentages: None, via_prefilter: true }
        }
        EngineMode::Quantitative => {
            if tile != Tile::N {
                // A primary strictly inside one tile puts 100 % there.
                // `PercentageMatrix::from_areas` normalises x/x to exactly
                // 100.0, so the single-tile matrix has the same bits as
                // the full accumulation.
                tally.hits += 1;
                PairRelation {
                    primary: i,
                    reference: j,
                    relation,
                    percentages: Some(PercentageMatrix::single_tile(tile)),
                    via_prefilter: true,
                }
            } else {
                // The B tile's area is derived from the N accumulator
                // (area(B) = |a_{B+N}| − |a_N|), so an all-N primary
                // can leave last-ulp residue in B. Take the exact path
                // for the matrix to stay bit-identical; the relation
                // is still the boxes' decision.
                tally.edges_scanned += cache.edge_count(i);
                tally.fused += 1;
                let m = areas_from_soa(&cache.soa(i), cache.mbb(j)).percentages();
                PairRelation {
                    primary: i,
                    reference: j,
                    relation,
                    percentages: Some(m),
                    via_prefilter: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_core::{compute_cdr, compute_cdr_pct};
    use cardir_geometry::Region;
    use cardir_workloads::SplitMix64;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    }

    /// Every ordered pair `(i, j)`, `i ≠ j`, in primary-major order.
    fn ordered_pairs(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))).collect()
    }

    /// The whole-map path: the spatial join, materialized.
    fn join_all(engine: &BatchEngine, cache: &RegionCache<'_>) -> BatchOutcome {
        engine.run_join(cache, &RunPolicy::default()).materialize(cache)
    }

    fn naive_all(regions: &[Region], quantitative: bool) -> Vec<PairRelation> {
        ordered_pairs(regions.len())
            .into_iter()
            .map(|(i, j)| PairRelation {
                primary: i,
                reference: j,
                relation: compute_cdr(&regions[i], &regions[j]),
                percentages: quantitative.then(|| compute_cdr_pct(&regions[i], &regions[j])),
                via_prefilter: false,
            })
            .collect()
    }

    fn assert_matches_naive(engine: &BatchOutcome, naive: &[PairRelation]) {
        let pairs: Vec<&PairRelation> = engine.relations().collect();
        assert_eq!(pairs.len(), naive.len());
        for (got, want) in pairs.iter().zip(naive) {
            assert_eq!((got.primary, got.reference), (want.primary, want.reference));
            assert_eq!(got.relation, want.relation, "pair ({}, {})", got.primary, got.reference);
            assert_eq!(
                got.percentages, want.percentages,
                "pair ({}, {}) percentages must be bit-identical",
                got.primary, got.reference
            );
        }
    }

    #[test]
    fn materialized_order_is_primary_major() {
        let regions =
            vec![rect(0.0, 0.0, 1.0, 1.0), rect(3.0, 0.0, 4.0, 1.0), rect(0.0, 3.0, 1.0, 4.0)];
        let cache = RegionCache::build(&regions);
        let result = join_all(&BatchEngine::new().with_threads(1), &cache);
        let order: Vec<(usize, usize)> = result.pairs.iter().map(PairOutcome::indices).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
    }

    #[test]
    fn matches_naive_on_random_map_both_modes() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let extent = cardir_geometry::BoundingBox::new(
            cardir_geometry::Point::new(0.0, 0.0),
            cardir_geometry::Point::new(400.0, 300.0),
        );
        let map = cardir_workloads::random_map(&mut rng, 25, extent);
        let regions: Vec<Region> = map.into_iter().map(|m| m.region).collect();
        let cache = RegionCache::build(&regions);
        for quantitative in [false, true] {
            let mode =
                if quantitative { EngineMode::Quantitative } else { EngineMode::Qualitative };
            let naive = naive_all(&regions, quantitative);
            for threads in [1, 2, 4] {
                let engine = BatchEngine::new().with_mode(mode).with_threads(threads);
                assert_matches_naive(&join_all(&engine, &cache), &naive);
                let listed = engine
                    .run_pairs(&cache, &ordered_pairs(regions.len()), &RunPolicy::default())
                    .unwrap();
                assert_matches_naive(&listed, &naive);
            }
        }
    }

    #[test]
    fn prefilter_hits_on_scattered_map() {
        // Widely scattered small boxes: every pair is MBB-decided.
        let regions: Vec<Region> = (0..6)
            .map(|i| {
                let x = (i as f64) * 100.0;
                rect(x, x, x + 1.0, x + 1.0)
            })
            .collect();
        let cache = RegionCache::build(&regions);
        let result = join_all(&BatchEngine::new().with_threads(2), &cache);
        assert_eq!(result.stats.pairs, 30);
        assert_eq!(result.stats.prefilter_hits, 30, "all pairs are strictly diagonal");
        assert!((result.stats.hit_rate() - 1.0).abs() < 1e-12);
        for p in result.relations() {
            assert!(p.via_prefilter);
            let expect = if p.primary < p.reference { "SW" } else { "NE" };
            assert_eq!(p.relation.to_string(), expect);
        }
    }

    #[test]
    fn explicit_pairs_preserve_order_and_allow_self() {
        let regions = vec![rect(0.0, 0.0, 4.0, 4.0), rect(1.0, 6.0, 3.0, 8.0)];
        let cache = RegionCache::build(&regions);
        let wanted = [(1usize, 0usize), (0, 1), (0, 0), (1, 0)];
        let result =
            BatchEngine::new().with_threads(4).run_pairs(&cache, &wanted, &RunPolicy::default());
        let result = result.unwrap();
        let pairs: Vec<&PairRelation> = result.relations().collect();
        let order: Vec<(usize, usize)> = pairs.iter().map(|p| (p.primary, p.reference)).collect();
        assert_eq!(order, wanted);
        assert_eq!(pairs[0].relation.to_string(), "N");
        assert_eq!(pairs[1].relation.to_string(), "S:SW:SE", "wider primary spans 3 tiles");
        assert_eq!(pairs[2].relation.to_string(), "B", "self pair");
        assert_eq!(pairs[3], pairs[0]);
        assert!(pairs.iter().all(|p| !p.via_prefilter), "listed pairs are all exact");
        assert_eq!(result.stats.exact_pairs, wanted.len());
    }

    #[test]
    fn empty_and_single_region_maps() {
        let cache = RegionCache::build(std::iter::empty());
        assert!(join_all(&BatchEngine::new(), &cache).pairs.is_empty());
        let one = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let cache = RegionCache::build(&one);
        let result = join_all(&BatchEngine::new(), &cache);
        assert!(result.pairs.is_empty());
        assert!(result.is_complete());
        let result = BatchEngine::new().run_pairs(&cache, &[], &RunPolicy::default()).unwrap();
        assert!(result.pairs.is_empty());
    }

    #[test]
    fn run_pairs_reports_out_of_bounds() {
        let regions = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let cache = RegionCache::build(&regions);
        let policy = RunPolicy::default();
        let err = BatchEngine::new().run_pairs(&cache, &[(0, 0), (0, 1)], &policy).unwrap_err();
        assert_eq!(err, EngineError::PairOutOfBounds { pair: (0, 1), len: 1 });
        assert!(err.to_string().contains("out of bounds"));
        let ok = BatchEngine::new().run_pairs(&cache, &[(0, 0)], &policy).unwrap();
        assert_eq!(ok.pairs.len(), 1);
    }

    fn random_regions(seed: u64, n: usize) -> Vec<Region> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let extent = cardir_geometry::BoundingBox::new(
            cardir_geometry::Point::new(0.0, 0.0),
            cardir_geometry::Point::new(500.0, 400.0),
        );
        cardir_workloads::random_map(&mut rng, n, extent).into_iter().map(|m| m.region).collect()
    }

    #[test]
    fn traced_run_is_bit_identical_and_covers_every_chunk() {
        let regions = random_regions(13, 20);
        let cache = RegionCache::build(&regions);
        let pairs = ordered_pairs(regions.len());
        let policy = RunPolicy::default();
        let plain = BatchEngine::new().with_threads(2).run_pairs(&cache, &pairs, &policy).unwrap();
        let tracer = Tracer::enabled();
        let traced = BatchEngine::new()
            .with_threads(2)
            .with_tracer(tracer.clone())
            .run_pairs(&cache, &pairs, &policy)
            .unwrap();
        assert_eq!(plain.pairs, traced.pairs, "tracing must only observe");

        let events = tracer.drain();
        assert!(
            events.iter().any(|e| e.name == phases::ASSEMBLE && e.tid == MAIN_TID),
            "the coordinator records the assembly"
        );
        // Every chunk appears exactly once as a compute span, attributed
        // to a worker tid, and every worker also records queue waits.
        let total: usize = 20 * 19;
        let n_chunks = total.div_ceil(CHUNK);
        let mut chunks: Vec<u64> = events
            .iter()
            .filter(|e| e.name == phases::CHUNK_COMPUTE)
            .map(|e| {
                assert!((1..=2).contains(&e.tid), "compute on worker tids only: {e:?}");
                e.chunk.expect("compute spans carry their chunk id")
            })
            .collect();
        chunks.sort_unstable();
        assert_eq!(chunks, (0..n_chunks as u64).collect::<Vec<_>>());
        assert!(
            events.iter().any(|e| e.name == phases::QUEUE_WAIT),
            "workers record time between chunks"
        );
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn traced_join_records_sweep_and_materialize() {
        let regions = random_regions(29, 25);
        let cache = RegionCache::build(&regions);
        let tracer = Tracer::enabled();
        let plain = join_all(&BatchEngine::new().with_threads(2), &cache);
        let traced =
            join_all(&BatchEngine::new().with_threads(2).with_tracer(tracer.clone()), &cache);
        assert_eq!(plain.pairs, traced.pairs);
        let events = tracer.drain();
        for phase in [phases::SWEEP_PARTITION, phases::ASSEMBLE, phases::MATERIALIZE] {
            let spans: Vec<_> = events.iter().filter(|e| e.name == phase).collect();
            assert_eq!(spans.len(), 1, "exactly one {phase} span");
            assert_eq!(spans[0].tid, MAIN_TID, "{phase} runs on the coordinator");
        }
    }

    /// Pins the worker_balance investigation's no-reuse half: the
    /// per-thread pair counts are rebuilt from fresh atomics on every
    /// run — one slot per worker, summing to the full pair total — so
    /// identical summaries across thread counts can only be summary
    /// collisions (see `EngineMetrics` for the arithmetic).
    #[test]
    fn per_thread_pairs_is_fresh_per_run_and_sums_to_total() {
        // 47 regions → 2162 ordered pairs → 9 chunks, enough for 8 workers.
        let regions = random_regions(3, 47);
        let cache = RegionCache::build(&regions);
        let pairs = ordered_pairs(47);
        let total = 47 * 46;
        for threads in [4usize, 8] {
            let engine = BatchEngine::new().with_threads(threads);
            let result = engine.run_pairs(&cache, &pairs, &RunPolicy::default()).unwrap();
            assert_eq!(
                result.metrics.per_thread_pairs.len(),
                threads,
                "one slot per worker at {threads} threads"
            );
            assert_eq!(
                result.metrics.per_thread_pairs.iter().sum::<usize>(),
                total,
                "claimed pairs account for the whole batch"
            );
            assert_eq!(
                result.metrics.chunk_durations_ns.count as usize,
                total.div_ceil(CHUNK),
                "one duration sample per chunk"
            );
            // A second run on the same engine starts from zeroed slots.
            let again = engine.run_pairs(&cache, &pairs, &RunPolicy::default()).unwrap();
            assert_eq!(again.metrics.per_thread_pairs.iter().sum::<usize>(), total);
        }
    }

    /// The phases of a join are contiguous: discovery, the exact pass
    /// (the output prefill included) and the assembly account for the
    /// whole wall time of `run_join`.
    #[test]
    fn run_join_phases_sum_to_its_wall_time() {
        let regions = random_regions(31, 300);
        let cache = RegionCache::build(&regions);
        for threads in [1, 2] {
            let engine = BatchEngine::new().with_mode(EngineMode::Quantitative).with_threads(threads);
            let start = Instant::now();
            let outcome = engine.run_join(&cache, &RunPolicy::default());
            let wall = start.elapsed();
            let m = &outcome.metrics;
            let phases = m.discover + m.exact_pass + m.assemble;
            assert!(outcome.join.exact_pairs > CHUNK, "several chunks: {:?}", outcome.join);
            assert!(phases <= wall, "{phases:?} > {wall:?}");
            assert!(
                phases.as_secs_f64() >= 0.9 * wall.as_secs_f64(),
                "phases {phases:?} leave too much of {wall:?} unaccounted"
            );
        }
    }

    /// A stop before any claim leaves the pre-sized output as it was
    /// filled: one `Skipped` per requested pair, in input order.
    #[test]
    fn unclaimed_pairs_stay_skipped_in_input_order() {
        let regions = random_regions(5, 30);
        let cache = RegionCache::build(&regions);
        // Reference-major and reversed, so input order is not sorted order.
        let mut wanted: Vec<(usize, usize)> =
            ordered_pairs(regions.len()).into_iter().map(|(i, j)| (j, i)).collect();
        wanted.reverse();
        let token = crate::policy::CancelToken::new();
        token.cancel();
        let policies = [
            (RunPolicy::default().with_deadline(Duration::ZERO), CompletionStatus::DeadlineExceeded),
            (RunPolicy::default().with_cancel(token), CompletionStatus::Cancelled),
        ];
        for (policy, status) in policies {
            for threads in [1, 3] {
                let engine = BatchEngine::new().with_threads(threads);
                let listed = engine.run_pairs(&cache, &wanted, &policy).unwrap();
                assert_eq!(listed.status, status);
                assert_eq!((listed.skipped, listed.succeeded), (wanted.len(), 0));
                let got: Vec<_> = listed.pairs.iter().map(PairOutcome::indices).collect();
                assert_eq!(got, wanted, "{status:?}, {threads} threads");
                assert!(listed.pairs.iter().all(|p| matches!(p, PairOutcome::Skipped { .. })));
                assert_eq!(listed.metrics.per_thread_pairs.iter().sum::<usize>(), 0);

                let joined = engine.run_join(&cache, &policy);
                let (work, _) = crate::join::interacting_pairs(&cache);
                let got: Vec<_> = joined.interacting.iter().map(PairOutcome::indices).collect();
                let want: Vec<_> = work.iter().map(|&(i, j)| (i as usize, j as usize)).collect();
                assert_eq!(got, want, "join, {status:?}, {threads} threads");
                assert_eq!(joined.skipped, want.len());
                assert!(joined.interacting.iter().all(|p| matches!(p, PairOutcome::Skipped { .. })));
            }
        }
    }

    #[test]
    fn quantitative_fast_path_is_bit_identical_including_n_tile() {
        // A primary strictly inside each of the nine tiles of the
        // reference; N exercises the exact-path fallback for percentages.
        let b = rect(0.0, 0.0, 4.0, 4.0);
        let primaries = [
            rect(1.7, 1.2, 2.5, 2.8),    // B
            rect(1.0, -3.0, 3.0, -1.0),  // S
            rect(-3.0, -3.0, -1.0, -1.0),// SW
            rect(-3.0, 1.0, -1.0, 3.0),  // W
            rect(-3.0, 5.0, -1.0, 7.0),  // NW
            rect(1.3, 5.0, 2.9, 7.0),    // N
            rect(5.0, 5.0, 7.0, 7.0),    // NE
            rect(5.0, 1.0, 7.0, 3.0),    // E
            rect(5.0, -3.0, 7.0, -1.0),  // SE
        ];
        let mut regions = vec![b];
        regions.extend(primaries);
        let cache = RegionCache::build(&regions);
        let engine = BatchEngine::new().with_mode(EngineMode::Quantitative).with_threads(1);
        let result = join_all(&engine, &cache);
        for p in result.relations().filter(|p| p.reference == 0) {
            let naive = compute_cdr_pct(&regions[p.primary], &regions[0]);
            assert_eq!(p.percentages, Some(naive), "primary {}", p.primary);
            assert_eq!(p.relation, compute_cdr(&regions[p.primary], &regions[0]));
        }
    }
}
