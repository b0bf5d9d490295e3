//! `serve_edit`: an interactive editing session — one editor sending
//! single-edit `/apply` requests beside one reader sending `/relation`
//! point reads, then restarts on the same journal directory.

use crate::common::{
    ms, next_edit, parse_relation, peak_rss_mb, random_pair, relation_path, replace_body,
    reset_peak_rss, set_up_session, Plan, Server, Slot, SESSION, SETUP_REPEATS,
};
use crate::report::Report;
use crate::stats::{median, percentile, Tally};
use crate::Ctx;
use cardir_core::{compute_cdr, CardinalRelation};
use cardir_telemetry::Tracer;
use cardird::Client;
use std::time::{Duration, Instant};

/// Salt of the workload's random streams (see [`Plan`]).
pub const SALT: u64 = 0x5e1ec7;
/// Server restarts at the end of a run.
const RESTARTS: usize = 3;
/// Pairs checked after the load stops, and across each restart.
const CHECK_PAIRS: usize = 200;
/// Latency samples each series reserves up front. Growing a series
/// would copy it, and the copy would lift `peak_rss_mb` by an amount
/// that depends on how many requests the host managed to complete.
const SAMPLE_ROOM: usize = 1 << 20;

/// What one closed-loop measurement recorded.
struct Measured {
    apply_ms: Vec<f64>,
    relation_ms: Vec<f64>,
    elapsed: Duration,
    tally: Tally,
}

/// Runs the editor on `editor` and the reader on a connection of its own
/// until `seconds` have passed, drawing from the plan's edit and read
/// streams. The editor updates `model` as edits land.
fn closed_loop(
    server: &Server,
    editor: &mut Client,
    model: &mut [Slot],
    plan: &mut Plan,
    seconds: f64,
    tracer: &Tracer,
) -> Measured {
    let n = model.len();
    let (seeded, subset) = (&plan.map, &plan.subset);
    let (edit_rng, read_rng) = (&mut plan.edits, &mut plan.reads);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (editor, reader) = std::thread::scope(|scope| {
        let editor = scope.spawn(|| {
            let client = editor;
            let mut trace = tracer.thread(2);
            let mut lat = Vec::with_capacity(SAMPLE_ROOM);
            let mut tally = Tally::default();
            let path = format!("/sessions/{SESSION}/apply");
            while Instant::now() < deadline {
                let (slot, edit) = next_edit(edit_rng, n, subset);
                let body = replace_body(slot, &edit);
                let t0 = trace.begin();
                let begun = Instant::now();
                let resp = client.post(&path, &body);
                lat.push(ms(begun.elapsed()));
                trace.end(t0, "client.apply", None);
                let ok = resp.is_ok_and(|r| r.status == 200 && r.body.contains("\"applied\":1"));
                if ok {
                    model[slot as usize] = edit;
                }
                tally.record(ok);
            }
            (lat, tally)
        });
        let reader = scope.spawn(|| {
            let mut client = server.connect();
            let mut trace = tracer.thread(1);
            let mut lat = Vec::with_capacity(SAMPLE_ROOM);
            let mut tally = Tally::default();
            while Instant::now() < deadline {
                let (p, r) = random_pair(read_rng, n);
                let path = relation_path(p, r);
                let t0 = trace.begin();
                let begun = Instant::now();
                let resp = client.get(&path);
                lat.push(ms(begun.elapsed()));
                trace.end(t0, "client.relation", None);
                let ok = resp.is_ok_and(|resp| {
                    resp.status == 200
                        && unedited_read_ok(p, r, parse_relation(&resp.body), seeded, subset)
                });
                tally.record(ok);
            }
            (lat, tally)
        });
        (
            editor.join().expect("editor thread"),
            reader.join().expect("reader thread"),
        )
    });
    let elapsed = start.elapsed();
    let ((apply_ms, mut tally), (relation_ms, read_tally)) = (editor, reader);
    tally.merge(read_tally);
    Measured {
        apply_ms,
        relation_ms,
        elapsed,
        tally,
    }
}

/// Checks one read inline, after its latency is taken: a pair outside
/// the edited subset must match the oracle over the seeded map. A pair
/// touching an edited slot passes here and is checked once the load
/// stops.
fn unedited_read_ok(
    p: u32,
    r: u32,
    got: Option<CardinalRelation>,
    seeded: &[Slot],
    subset: &[u32],
) -> bool {
    let edited = |s: u32| subset.binary_search(&s).is_ok();
    edited(p)
        || edited(r)
        || got
            == Some(compute_cdr(
                &seeded[p as usize].region,
                &seeded[r as usize].region,
            ))
}

/// Reads `pairs` over a fresh connection; `None` for a failed request.
fn read_pairs(
    server: &Server,
    pairs: &[(u32, u32)],
    tally: &mut Tally,
) -> Vec<Option<CardinalRelation>> {
    let mut client = server.connect();
    pairs
        .iter()
        .map(|&(p, r)| {
            let got = client
                .get(&relation_path(p, r))
                .ok()
                .filter(|resp| resp.status == 200)
                .and_then(|resp| parse_relation(&resp.body));
            tally.record(got.is_some());
            got
        })
        .collect()
}

/// Runs `serve_edit` and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut plan = Plan::new(ctx.seed, SALT);
    let n = plan.map.len();
    report.context("regions", n);
    report.context("edited_slots", plan.subset.len());
    report.context("engine_threads", 1);
    report.context("mode", "quantitative");
    report.context("connections", 2);
    reset_peak_rss();

    let mut tally = Tally::default();
    // The editor keeps the connection that seeded the session, so the
    // writes run on the server worker whose allocator arena holds the
    // seeding's freed memory. On a fresh connection they ran on
    // whichever worker took it, and the peak was 46 or 64–75 MiB by
    // that draw.
    let (mut server, mut editor, mut setups) = set_up_session(&ctx.work, &plan.map, 1, &mut tally);

    let mut model = plan.map.clone();
    let run = closed_loop(
        &server,
        &mut editor,
        &mut model,
        &mut plan,
        ctx.seconds,
        &Tracer::disabled(),
    );
    tally.merge(run.tally);
    let requests = (run.apply_ms.len() + run.relation_ms.len()) as f64;
    let relation_p50 = median(&run.relation_ms).unwrap_or(f64::NAN);
    report.metric("relation_p50_ms", relation_p50, "ms", run.relation_ms.len());
    report.metric(
        "relation_p90_ms",
        percentile(&run.relation_ms, 90.0).unwrap_or(f64::NAN),
        "ms",
        run.relation_ms.len(),
    );
    report.metric(
        "apply_p50_ms",
        median(&run.apply_ms).unwrap_or(f64::NAN),
        "ms",
        run.apply_ms.len(),
    );
    report.metric(
        "apply_p90_ms",
        percentile(&run.apply_ms, 90.0).unwrap_or(f64::NAN),
        "ms",
        run.apply_ms.len(),
    );
    let rps = requests / run.elapsed.as_secs_f64();
    report.metric("requests_per_s", rps, "req/s", requests as usize);
    // The gated latency is the point read: across runs on a shared host
    // it spreads about half as much as the edit, whose cost (publication
    // and an fsync) shows in `setup_s` and `requests_per_s` as well.
    report.metric("op_p50_ms", relation_p50, "ms", run.relation_ms.len());

    if ctx.trace {
        let tracer = Tracer::enabled();
        let traced = closed_loop(
            &server,
            &mut editor,
            &mut model,
            &mut plan,
            ctx.seconds,
            &tracer,
        );
        tally.merge(traced.tally);
        let traced_p50 = median(&traced.relation_ms).unwrap_or(f64::NAN);
        crate::layers::record_overhead(
            report,
            ctx,
            "serve_edit client",
            &tracer,
            traced.elapsed,
            relation_p50,
            traced_p50,
        );
    }

    // Quiesced: half the sampled pairs touch an edited slot.
    let mut pairs = Vec::with_capacity(CHECK_PAIRS);
    while pairs.len() < CHECK_PAIRS {
        let (mut p, r) = random_pair(&mut plan.check, n);
        if pairs.len() % 2 == 0 {
            p = plan.subset[plan.check.random_range(0..plan.subset.len())];
        }
        if p != r {
            pairs.push((p, r));
        }
    }
    let before = read_pairs(&server, &pairs, &mut tally);
    for (&(p, r), got) in pairs.iter().zip(&before) {
        if got.is_some()
            && *got
                != Some(compute_cdr(
                    &model[p as usize].region,
                    &model[r as usize].region,
                ))
        {
            tally.fail_recorded();
        }
    }

    // The peak is taken before the restarts: an in-process restart boots
    // the new server beside the memory the old one left with the
    // allocator, which a restarted process would not have.
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    drop(editor);

    // Restarts: shut down, reopen the session from its journal, and time
    // until the first answer is correct; then every sampled answer must
    // be identical to the one before the restart.
    let mut restarts = Vec::new();
    for _ in 0..RESTARTS {
        let data_dir = server.data_dir.clone();
        let start = Instant::now();
        server.handle.shutdown();
        server = Server::boot(&data_dir);
        let mut client = server.connect();
        let opened = client.post("/sessions", &format!("{{\"name\":\"{SESSION}\"}}"));
        tally.record(opened.is_ok_and(|r| r.status == 200));
        let (p, r) = pairs[0];
        let first = client
            .get(&relation_path(p, r))
            .ok()
            .and_then(|resp| parse_relation(&resp.body));
        restarts.push(start.elapsed().as_secs_f64());
        tally.record(first.is_some() && first == before[0]);
        let after = read_pairs(&server, &pairs, &mut tally);
        if after != before {
            report.problem("a /relation answer changed across a restart");
        }
    }
    report.metric(
        "restart_s",
        median(&restarts).expect("restarts ran"),
        "s",
        restarts.len(),
    );
    server.handle.shutdown();
    let _ = std::fs::remove_dir_all(&server.data_dir);

    // The other set-ups run after the load: the memory each one leaves
    // with the allocator would otherwise lift the serving peak by an
    // amount that varies from run to run.
    let (last, _, more) = set_up_session(&ctx.work, &plan.map, SETUP_REPEATS - 1, &mut tally);
    last.handle.shutdown();
    let _ = std::fs::remove_dir_all(&last.data_dir);
    setups.extend(more);
    report.metric(
        "setup_s",
        median(&setups).expect("set-up ran"),
        "s",
        setups.len(),
    );
    report.tally.merge(tally);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::session_map;

    #[test]
    fn a_wrong_read_outside_the_edited_subset_is_counted() {
        let seeded = session_map(2, 9);
        let subset = vec![4u32];
        let right = |p: u32, r: u32| {
            Some(compute_cdr(
                &seeded[p as usize].region,
                &seeded[r as usize].region,
            ))
        };
        let ok = |p, r, got| unedited_read_ok(p, r, got, &seeded, &subset);
        assert!(ok(0, 1, right(0, 1)));
        assert!(ok(2, 3, right(2, 3)));
        // Reads touching an edited slot are checked after the load stops.
        assert!(ok(4, 0, None));
        // A wrong relation and a missing one are both caught.
        assert!(!ok(1, 0, right(0, 1)));
        assert!(!ok(5, 6, None));
    }
}
