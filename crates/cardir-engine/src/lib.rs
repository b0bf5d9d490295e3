//! Batch pairwise cardinal-direction engine.
//!
//! The paper's `Compute-CDR` / `Compute-CDR%` algorithms answer one
//! ordered pair at a time. Real workloads — materialising every relation
//! of a map, evaluating a query over many candidate pairs — repeat the
//! per-region work (`mbb(b)`, edge scans) thousands of times. This crate
//! batches that work in three layers:
//!
//! 1. [`RegionCache`] — per-region derived data (MBB, edge count, area,
//!    flattened SoA edges) computed once per map.
//! 2. [Spatial join](join) — two plane sweeps over the MBBs find the
//!    pairs the boxes cannot decide ([`decided_tile`]); every other pair
//!    is emitted from the boxes without ever becoming a work item.
//! 3. [`BatchEngine`] — the exact computations fan out across scoped
//!    worker threads over a chunked work queue, and the finished chunks
//!    reassemble in input order, so results are bit-identical to the
//!    naive per-pair loop at any thread count.
//!
//! The engine has two entry points: [`BatchEngine::run_join`] for a
//! whole map (expanded by [`JoinOutcome::materialize`] when every pair is
//! wanted) and [`BatchEngine::run_pairs`] for an explicit pair list.
//!
//! Everything is standard library only: the thread pool is
//! `std::thread::scope`, the queue an `AtomicUsize`.
//!
//! Every run also reports its own cost: the always-on counter block
//! [`BatchStats`] plus the stage-timing layer [`EngineMetrics`]
//! (discover, exact pass, assemble), which exports into a
//! `cardir-telemetry` registry for rendering.
//!
//! Runs are fault tolerant: a [`RunPolicy`] adds per-pair panic
//! isolation, bounded deterministic retries, and cooperative
//! deadline/cancellation, and [`BatchOutcome`] reports per-pair
//! success/failure plus a [`CompletionStatus`] instead of promising a
//! relation for every pair. Failure paths are testable deterministically
//! through the `cardir-faults` failpoint registry.

pub mod batch;
pub mod cache;
pub mod incremental;
pub mod join;
pub mod metrics;
pub mod policy;
pub mod prefilter;

pub use batch::{BatchEngine, BatchStats, EngineError, EngineMode, PairRelation};
pub use cache::RegionCache;
pub use incremental::{
    ApplyDelta, Edit, EditError, EditKind, EngineSnapshot, IncrementalEngine, IncrementalError,
    IncrementalStats, InstalledPair, RepairDelta,
};
pub use join::{interacting_pairs, JoinOutcome, JoinStats};
pub use metrics::EngineMetrics;
pub use policy::{
    BatchOutcome, CancelToken, CompletionStatus, FaultTally, PairError, PairFailure, PairOutcome,
    RunPolicy,
};
pub use prefilter::decided_tile;
