//! The traced run's per-layer passes.
//!
//! Each layer is driven in its own pass through its crate's public
//! functions, with a span around every call. Self times that subtract
//! one pass from another (the journal's share of an edit, the session's
//! publish, the transport's share of a request) are reported as derived.
//! Every traced run drives every pass, so every per-layer metric appears
//! whatever the workload: the batch passes run the seed's `batch_map`
//! inputs, and the serving passes replay a serving workload's [`Plan`]
//! (`batch_map`, which has none, replays `serve_edit`'s). The passes
//! run one call at a time, so no pass sees a concurrent writer.

use crate::batch_map::{engine, load_regions, write_map};
use crate::common::{ms, next_edit, random_pair, relation_path, Plan, Server, Slot, SESSION};
use crate::report::Report;
use crate::serve_query::QUERIES;
use crate::stats::median;
use crate::Ctx;
use cardir_cardirect::{evaluate_with_stats, parse_query, RelationStore, StoreOptions};
use cardir_core::cdr_areas_from_soa;
use cardir_engine::{
    interacting_pairs, Edit, EngineMode, IncrementalEngine, RegionCache, RunPolicy,
};
use cardir_telemetry::{Json, TraceEvent, Tracer};
use cardir_workloads::SplitMix64;
use cardird::api::pair_to_json;
use cardird::{RegionMeta, SessionRegistry};
use std::time::{Duration, Instant};

/// Edits replayed through each serving layer.
const EDITS: usize = 24;
/// Point reads replayed after each edit.
const READS_PER_EDIT: usize = 20;
/// Epochs whose configuration, queries and encoding are timed.
const QUERY_EPOCHS: usize = 3;
/// Epochs whose `/relations` body is encoded.
const ENCODE_EPOCHS: usize = 2;
/// Interacting pairs the kernel is timed over.
const KERNEL_SAMPLE: usize = 2000;
/// Client spans of a workload written to the Chrome trace.
const EXPORTED_CLIENT_SPANS: usize = 1000;

/// Times `f` inside a span named `name`; returns its result and wall time.
fn span<T>(
    trace: &mut cardir_telemetry::ThreadTrace,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let t0 = trace.begin();
    let begun = Instant::now();
    let out = std::hint::black_box(f());
    let took = begun.elapsed();
    trace.end(t0, name, None);
    (out, took)
}

fn secs(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(Duration::as_secs_f64).collect()
}

fn millis(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(|d| ms(*d)).collect()
}

/// Length of the union of the events' intervals.
pub fn covered_ns(events: &[TraceEvent]) -> u64 {
    let mut spans: Vec<(u64, u64)> = events.iter().map(|e| (e.start_ns, e.end_ns())).collect();
    spans.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in spans {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Records a workload's tracing overhead (the traced run's headline
/// latency against the untraced run's) and the share of the traced
/// run's wall time that no client span covers, and keeps its spans.
pub fn record_overhead(
    report: &mut Report,
    ctx: &Ctx,
    label: &str,
    tracer: &Tracer,
    wall: Duration,
    untraced_p50: f64,
    traced_p50: f64,
) {
    let events = tracer.drain();
    let wall_ns = wall.as_nanos().max(1) as f64;
    let uncovered = (1.0 - covered_ns(&events) as f64 / wall_ns).max(0.0);
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        "%",
        2,
    );
    report.metric("trace.uncovered_share", uncovered, "ratio", events.len());
    // `ChromeTrace::parse` is quadratic in the file size, so only the
    // first spans are exported; the rest count as dropped.
    let kept: Vec<TraceEvent> = events.iter().take(EXPORTED_CLIENT_SPANS).cloned().collect();
    let dropped = tracer.dropped() + (events.len() - kept.len()) as u64;
    ctx.trace_doc.borrow_mut().add_events(label, kept, dropped);
}

/// Runs every layer pass and fills `report`; the serving passes replay
/// the first operations of `plan`.
pub fn run(ctx: &Ctx, report: &mut Report, plan: Plan) {
    batch_layers(ctx, report);
    serve_layers(ctx, report, plan);
}

fn batch_layers(ctx: &Ctx, report: &mut Report) {
    let tracer = Tracer::enabled();
    let mut trace = tracer.thread(0);
    let path = write_map(&ctx.work, ctx.seed);

    let mut loads = Vec::new();
    let mut regions = Vec::new();
    for _ in 0..2 {
        let (r, took) = span(&mut trace, "xml.load_config", || load_regions(&path));
        regions = r;
        loads.push(took);
    }
    report.metric(
        "xml.load_s",
        median(&secs(&loads)).expect("ran"),
        "s",
        loads.len(),
    );

    let mut builds = Vec::new();
    for _ in 0..2 {
        let (cache, took) = span(&mut trace, "cache.build", || RegionCache::build(&regions));
        drop(cache);
        builds.push(took);
    }
    report.metric(
        "cache.build_s",
        median(&secs(&builds)).expect("ran"),
        "s",
        builds.len(),
    );
    let cache = RegionCache::build(&regions);

    let mut discovers = Vec::new();
    for _ in 0..3 {
        let (_, took) = span(&mut trace, "join.interacting_pairs", || {
            interacting_pairs(&cache)
        });
        discovers.push(took);
    }
    report.metric(
        "join.discover_s",
        median(&secs(&discovers)).expect("ran"),
        "s",
        discovers.len(),
    );

    let engine = engine();
    let policy = RunPolicy::default();
    let mut runs = Vec::new();
    let mut outcome = None;
    for _ in 0..2 {
        let (o, took) = span(&mut trace, "join.run_join", || {
            engine.run_join(&cache, &policy)
        });
        outcome = Some(o);
        runs.push(took);
    }
    let outcome = outcome.expect("ran");
    report.metric(
        "join.run_s",
        median(&secs(&runs)).expect("ran"),
        "s",
        runs.len(),
    );
    report.metric(
        "join.candidates",
        outcome.join.candidates as f64,
        "count",
        0,
    );
    report.metric(
        "join.exact_pairs",
        outcome.join.exact_pairs as f64,
        "count",
        0,
    );
    report.metric(
        "join.exact_per_candidate",
        outcome.join.exact_pairs as f64 / outcome.join.candidates.max(1) as f64,
        "ratio",
        0,
    );
    report.metric(
        "join.thread_balance",
        outcome.metrics.worker_balance(),
        "ratio",
        0,
    );
    report.metric(
        "kernel.edges_scanned",
        outcome.stats.edges_scanned as f64,
        "count",
        0,
    );

    // The kernel alone, single-threaded, over a seeded sample of
    // interacting pairs: one span per pass over the sample, because a
    // span per call would cost a noticeable share of a call.
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0x4e7);
    let sample: Vec<(usize, usize)> = (0..KERNEL_SAMPLE.min(outcome.interacting.len()))
        .map(|_| outcome.interacting[rng.random_range(0..outcome.interacting.len())].indices())
        .collect();
    let edges: usize = sample.iter().map(|&(i, _)| cache.edge_count(i)).sum();
    let mut per_edge = Vec::new();
    for _ in 0..5 {
        let (_, took) = span(&mut trace, "kernel.cdr_areas_from_soa", || {
            for &(i, j) in &sample {
                std::hint::black_box(cdr_areas_from_soa(&cache.soa(i), cache.mbb(j)));
            }
        });
        per_edge.push(took.as_nanos() as f64 / edges.max(1) as f64);
    }
    report.metric(
        "kernel.ns_per_edge",
        median(&per_edge).expect("ran"),
        "ns",
        per_edge.len(),
    );
    drop(trace);
    ctx.trace_doc
        .borrow_mut()
        .add_process("layers: xml, cache, join, kernel", &tracer);
    let _ = std::fs::remove_file(&path);
}

fn serve_layers(ctx: &Ctx, report: &mut Report, mut plan: Plan) {
    let n = plan.map.len();
    let map = &plan.map;
    let edits: Vec<(u32, Slot)> = (0..EDITS)
        .map(|_| next_edit(&mut plan.edits, n, &plan.subset))
        .collect();
    let reads: Vec<(u32, u32)> = (0..EDITS * READS_PER_EDIT)
        .map(|_| random_pair(&mut plan.reads, n))
        .collect();
    let opts = StoreOptions {
        mode: EngineMode::Quantitative,
        threads: 1,
        ..StoreOptions::default()
    };
    let policy = RunPolicy::default();
    let dir = ctx.work.join("layers");
    let sess_dir = dir.join("session");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&sess_dir).expect("create the layer pass directory");
    let journal = dir.join("journal.cdj");
    let tracer = Tracer::enabled();

    // Seed one journal with the map's geometry (the journal keeps no
    // annotations).
    let seed_compactions = {
        let mut store = RelationStore::open(&journal, &[], opts);
        for s in map {
            store
                .apply(Edit::Insert(s.region.clone()), &policy)
                .expect("seed insert");
        }
        store.stats().compactions
    };

    // cardir-cardirect::journal — replay.
    let mut trace = tracer.thread(2);
    let mut replays = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        drop(store.take());
        let (s, took) = span(&mut trace, "journal.open", || {
            RelationStore::open(&journal, &[], opts)
        });
        if s.engine().live_count() != n {
            report.problem("journal replay lost regions");
        }
        store = Some(s);
        replays.push(took);
    }
    let mut store = store.expect("ran");
    report.metric(
        "journal.replay_s",
        median(&secs(&replays)).expect("ran"),
        "s",
        replays.len(),
    );

    // cardir-engine::incremental.
    let mut trace_inc = tracer.thread(1);
    let regions: Vec<_> = map.iter().map(|s| s.region.clone()).collect();
    let mut engine = IncrementalEngine::bootstrap(EngineMode::Quantitative, 1, regions, &policy);
    let (mut inc_apply, mut snapshots, mut materializes, mut recomputed) =
        (vec![], vec![], vec![], vec![]);
    for (k, (slot, edit)) in edits.iter().enumerate() {
        let (delta, took) = span(&mut trace_inc, "incremental.apply_with", || {
            engine.apply_with(Edit::Replace(*slot, edit.region.clone()), &policy)
        });
        let delta = delta.expect("in-cell replace applies");
        inc_apply.push(took);
        recomputed.push((delta.installed.len() + delta.pending_added.len()) as f64);
        let (snap, took) = span(&mut trace_inc, "incremental.snapshot", || engine.snapshot());
        snapshots.push(took);
        if k < QUERY_EPOCHS {
            let (pairs, took) = span(&mut trace_inc, "incremental.materialize", || {
                snap.materialize()
            });
            if pairs.map_or(true, |p| p.len() != n * (n - 1)) {
                report.problem("materialize did not return every ordered pair");
            }
            materializes.push(took);
        }
    }
    report.metric(
        "incremental.apply_ms",
        median(&millis(&inc_apply)).expect("ran"),
        "ms",
        EDITS,
    );
    report.metric(
        "incremental.pairs_recomputed",
        median(&recomputed).expect("ran"),
        "count",
        EDITS,
    );
    report.metric(
        "incremental.snapshot_ms",
        median(&millis(&snapshots)).expect("ran"),
        "ms",
        EDITS,
    );
    let materialize_ms = median(&millis(&materializes)).expect("ran");
    report.metric(
        "incremental.materialize_ms",
        materialize_ms,
        "ms",
        materializes.len(),
    );

    // cardir-cardirect::journal — appends, same edits from the same state.
    let compactions_before = store.stats().compactions;
    let (mut journal_apply, mut bytes) = (vec![], vec![]);
    for (slot, edit) in &edits {
        let (before, compacted) = (store.journal_bytes(), store.stats().compactions);
        let (delta, took) = span(&mut trace, "journal.apply", || {
            store.apply(Edit::Replace(*slot, edit.region.clone()), &policy)
        });
        delta.expect("in-cell replace applies");
        journal_apply.push(took);
        if store.stats().compactions == compacted {
            bytes.push(store.journal_bytes().saturating_sub(before) as f64);
        }
    }
    if store.engine().exact_entries() != engine.exact_entries() {
        report.problem("journaled store and bare engine disagree after the same edits");
    }
    let compactions = seed_compactions + store.stats().compactions - compactions_before;
    drop(store);
    report.metric(
        "journal.apply_ms",
        median(&millis(&journal_apply)).expect("ran"),
        "ms",
        EDITS,
    );
    report.derived(
        "journal.self_ms",
        median_diff(&journal_apply, &inc_apply),
        "ms",
    );
    report.metric(
        "journal.bytes_per_edit",
        median(&bytes).unwrap_or(0.0),
        "B",
        bytes.len(),
    );
    report.metric("journal.compactions", compactions as f64, "count", 0);

    // cardird::session, cardir-cardirect::query, cardird::api. The
    // session is seeded the way the workload seeds it, colours included,
    // so the queries see the workload's map.
    let registry = SessionRegistry::new(&sess_dir, opts).expect("session registry");
    let session = registry.open(SESSION).expect("create the session");
    for s in map {
        let meta = RegionMeta {
            id: None,
            color: Some(s.color.clone()),
        };
        session
            .apply(Edit::Insert(s.region.clone()), meta, &policy)
            .expect("seed insert");
    }
    let mut trace_sess = tracer.thread(3);
    let mut trace_query = tracer.thread(4);
    let mut trace_api = tracer.thread(5);
    let (mut sess_apply, mut read_us, mut configs) = (vec![], vec![], vec![]);
    let (mut parses, mut evals, mut candidates, mut bindings) = (vec![], vec![], vec![], vec![]);
    let (mut encodes, mut body_bytes) = (vec![], vec![]);
    for (k, ((slot, edit), pairs)) in edits.iter().zip(reads.chunks(READS_PER_EDIT)).enumerate() {
        let meta = RegionMeta {
            id: None,
            color: Some(edit.color.clone()),
        };
        let (delta, took) = span(&mut trace_sess, "session.apply", || {
            session.apply(Edit::Replace(*slot, edit.region.clone()), meta, &policy)
        });
        delta.expect("in-cell replace applies");
        sess_apply.push(took);
        for &(p, r) in pairs {
            let (_, took) = span(&mut trace_sess, "session.read", || {
                session.snapshot().engine.relation(p, r)
            });
            read_us.push(took.as_secs_f64() * 1e6);
        }
        if k < QUERY_EPOCHS {
            let snapshot = session.snapshot();
            let (config, took) = span(&mut trace_sess, "session.configuration", || {
                snapshot.configuration().map(|_| ())
            });
            config.expect("session configuration builds");
            configs.push(took);
            let config = snapshot.configuration().expect("built above");
            let (mut eval, mut cands, mut answers) = (Duration::ZERO, 0, 0);
            for text in QUERIES {
                let (query, took) =
                    span(&mut trace_query, "query.parse_query", || parse_query(text));
                parses.push(took.as_secs_f64() * 1e6);
                let query = query.expect("benchmark queries parse");
                let (result, took) = span(&mut trace_query, "query.evaluate_with_stats", || {
                    evaluate_with_stats(&query, config)
                });
                let (_, stats) = result.expect("benchmark queries evaluate");
                eval += took;
                cands += stats.candidates_considered;
                answers += stats.answers;
            }
            evals.push(eval);
            candidates.push(cands as f64);
            bindings.push(answers as f64);
        }
        if k < ENCODE_EPOCHS {
            let snapshot = session.snapshot();
            let pairs = snapshot.engine.materialize().expect("no pending pairs");
            let (body, took) = span(&mut trace_api, "api.encode_relations", || {
                let slots: Vec<u32> = snapshot.engine.live_regions().map(|(id, _)| id).collect();
                let pairs = pairs
                    .iter()
                    .map(|p| pair_to_json(slots[p.primary], slots[p.reference], p))
                    .collect();
                Json::obj([
                    ("epoch", Json::from(snapshot.epoch)),
                    ("pairs", Json::Arr(pairs)),
                ])
                .to_string()
            });
            encodes.push(took);
            body_bytes.push(body.len() as f64);
        }
    }
    drop(session);
    drop(registry);
    report.metric(
        "session.apply_ms",
        median(&millis(&sess_apply)).expect("ran"),
        "ms",
        EDITS,
    );
    report.derived(
        "session.publish_ms",
        median_diff(&sess_apply, &journal_apply),
        "ms",
    );
    let read_us_p50 = median(&read_us).expect("ran");
    report.metric("session.read_us", read_us_p50, "us", read_us.len());
    report.metric(
        "session.config_build_ms",
        median(&millis(&configs)).expect("ran"),
        "ms",
        configs.len(),
    );
    report.metric(
        "query.parse_us",
        median(&parses).expect("ran"),
        "us",
        parses.len(),
    );
    report.metric(
        "query.eval_ms",
        median(&millis(&evals)).expect("ran"),
        "ms",
        evals.len(),
    );
    report.metric(
        "query.candidates",
        median(&candidates).expect("ran"),
        "count",
        candidates.len(),
    );
    report.metric(
        "query.bindings",
        median(&bindings).expect("ran"),
        "count",
        bindings.len(),
    );
    let encode_ms = median(&millis(&encodes)).expect("ran");
    report.metric("api.encode_ms", encode_ms, "ms", encodes.len());
    report.metric(
        "api.body_bytes",
        median(&body_bytes).expect("ran"),
        "B",
        body_bytes.len(),
    );

    // cardird::http — the same session, reopened from its journal, behind
    // the transport.
    let mut trace_http = tracer.thread(6);
    let server = Server::boot(&sess_dir);
    let mut client = server.connect();
    let (mut relation_ms, mut bulk_ms) = (vec![], vec![]);
    for &(p, r) in &reads {
        let (resp, took) = span(&mut trace_http, "http.relation", || {
            client.get(&relation_path(p, r))
        });
        report.tally.record(resp.is_ok_and(|r| r.status == 200));
        relation_ms.push(ms(took));
    }
    for _ in 0..2 {
        let (resp, took) = span(&mut trace_http, "http.relations", || {
            client.get(&format!("/sessions/{SESSION}/relations"))
        });
        report.tally.record(resp.is_ok_and(|r| r.status == 200));
        bulk_ms.push(ms(took));
    }
    drop(client);
    server.handle.shutdown();
    report.derived(
        "http.relation_self_ms",
        median(&relation_ms).expect("ran") - read_us_p50 / 1e3,
        "ms",
    );
    report.derived(
        "http.bulk_self_ms",
        median(&bulk_ms).expect("ran") - materialize_ms - encode_ms,
        "ms",
    );
    drop((
        trace,
        trace_inc,
        trace_sess,
        trace_query,
        trace_api,
        trace_http,
    ));
    ctx.trace_doc.borrow_mut().add_process(
        "layers: incremental(1) journal(2) session(3) query(4) api(5) http(6)",
        &tracer,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Median over edits of `outer[k] − inner[k]`, in milliseconds: the
/// outer layer's self time for the same edit replayed in two passes.
fn median_diff(outer: &[Duration], inner: &[Duration]) -> f64 {
    let diffs: Vec<f64> = outer
        .iter()
        .zip(inner)
        .map(|(o, i)| ms(*o) - ms(*i))
        .collect();
    median(&diffs).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_telemetry::ChromeTrace;
    use std::borrow::Cow;
    use std::cell::RefCell;

    fn event(start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed("client.relation"),
            tid: 1,
            chunk: None,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn covered_time_is_the_union_of_spans() {
        assert_eq!(covered_ns(&[]), 0);
        // [0,10) ∪ [5,15) ∪ [20,30) ∪ [22,25) = 15 + 10
        let events = [event(20, 10), event(0, 10), event(5, 10), event(22, 3)];
        assert_eq!(covered_ns(&events), 25);
    }

    #[test]
    fn the_trace_export_parses_back_with_every_kept_span() {
        let ctx = Ctx {
            seed: 1,
            seconds: 1.0,
            trace: true,
            work: std::env::temp_dir(),
            trace_doc: RefCell::new(ChromeTrace::new()),
        };
        let tracer = Tracer::enabled();
        let mut trace = tracer.thread(1);
        for _ in 0..(EXPORTED_CLIENT_SPANS + 5) {
            let (_, _) = span(&mut trace, "client.relation", || {
                std::hint::black_box(3 + 4)
            });
        }
        drop(trace);
        let mut report = Report::default();
        record_overhead(
            &mut report,
            &ctx,
            "test client",
            &tracer,
            Duration::from_millis(50),
            2.0,
            2.5,
        );
        assert_eq!(
            report
                .metrics
                .iter()
                .find(|m| m.name == "trace.overhead_pct")
                .map(|m| m.value),
            Some(25.0)
        );
        let share = report
            .metrics
            .iter()
            .find(|m| m.name == "trace.uncovered_share")
            .map(|m| m.value);
        assert!(share.is_some_and(|s| (0.0..=1.0).contains(&s)));

        let mut bytes = Vec::new();
        ctx.trace_doc.borrow().write_to(&mut bytes).unwrap();
        let parsed = ChromeTrace::parse(&String::from_utf8(bytes).unwrap()).expect("export parses");
        assert_eq!(parsed.processes.len(), 1);
        assert_eq!(parsed.processes[0].label, "test client");
        assert_eq!(parsed.processes[0].events.len(), EXPORTED_CLIENT_SPANS);
        assert_eq!(
            parsed.processes[0].dropped, 5,
            "spans beyond the export cap count as dropped"
        );
        assert!(parsed.processes[0]
            .events
            .iter()
            .all(|e| e.name == "client.relation"));
    }
}
