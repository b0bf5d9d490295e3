//! `serve_query`: an analyst session on one connection — each cycle
//! sends one edit, three queries, and one bulk `/relations` read.

use crate::common::{
    ms, next_edit, peak_rss_mb, percentages_match, replace_body, reset_peak_rss, set_up_session,
    Plan, Slot, SESSION, SETUP_REPEATS,
};
use crate::report::Report;
use crate::stats::{median, Tally};
use crate::Ctx;
use cardir_cardirect::{evaluate_indexed, parse_query, Configuration, RegionIndex};
use cardir_core::{compute_cdr, CardinalRelation, PercentageMatrix};
use cardir_telemetry::{parse_json, Json, Tracer};
use cardir_workloads::SplitMix64;
use cardird::Client;
use std::time::{Duration, Instant};

/// Salt of the workload's random streams (see [`Plan`]).
pub const SALT: u64 = 0x9ce7;
/// Pairs of each `/relations` body checked against the oracle.
const BULK_SAMPLE: usize = 200;

/// The three query shapes, in their base order.
pub const QUERIES: [&str; 3] = [
    "{(x, y) | x N:NE y}",
    "{(x, y) | color(x) = blue, x S y}",
    "{(x, y) | y = r17, x {N, NW, NW:N} y}",
];

/// What one measurement recorded.
struct Measured {
    apply_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    bulk_ms: Vec<f64>,
    /// Peak resident memory of each cycle, MiB.
    peaks: Vec<f64>,
    /// Wall time spent in requests (oracle checks excluded).
    busy: Duration,
    requests: usize,
    tally: Tally,
    problems: Vec<String>,
}

/// The query shapes cycle `c` sends, first one cold.
pub fn cycle_order(c: usize) -> [usize; 3] {
    [c % 3, (c + 1) % 3, (c + 2) % 3]
}

/// A geometry-only configuration over `model`: no stored relations, so
/// the evaluator computes every relation it needs from the regions.
pub fn oracle_config(model: &[Slot]) -> Configuration {
    let mut config = Configuration::new("oracle", "oracle.img");
    for (slot, s) in model.iter().enumerate() {
        let id = format!("r{slot}");
        config
            .add_region(id.clone(), id, s.color.clone(), s.region.clone())
            .expect("r<slot> ids are XML names");
    }
    config
}

/// The oracle's bindings for `query` over `config`, sorted.
pub fn oracle_bindings(query: &str, config: &Configuration) -> Vec<Vec<String>> {
    let q = parse_query(query).expect("benchmark queries parse");
    let mut rows: Vec<Vec<String>> = evaluate_indexed(&q, config, &RegionIndex::build(config))
        .expect("benchmark queries evaluate")
        .into_iter()
        .map(|b| b.values)
        .collect();
    rows.sort();
    rows
}

/// The bindings of a `/query` response body, sorted.
pub fn response_bindings(body: &str) -> Option<Vec<Vec<String>>> {
    let json = parse_json(body).ok()?;
    let Some(Json::Arr(rows)) = json.get("bindings") else {
        return None;
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let Json::Arr(values) = row else { return None };
        out.push(
            values
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
        );
    }
    out.sort();
    Some(out)
}

/// Checks a `/relations` body: `N·(N−1)` pairs, and a seeded sample of
/// them against the region-path oracle over `model`. Returns a problem
/// description on failure.
pub fn check_bulk(body: &str, model: &[Slot], rng: &mut SplitMix64) -> Result<(), String> {
    let n = model.len();
    let starts: Vec<usize> = body
        .match_indices("{\"primary\":")
        .map(|(i, _)| i)
        .collect();
    if starts.len() != n * (n - 1) {
        return Err(format!(
            "/relations returned {} pairs, expected {}",
            starts.len(),
            n * (n - 1)
        ));
    }
    for _ in 0..BULK_SAMPLE {
        let start = starts[rng.random_range(0..starts.len())];
        let end = start + body[start..].find('}').ok_or("unterminated pair object")? + 1;
        let pair = parse_json(&body[start..end]).map_err(|e| format!("bad pair object: {e}"))?;
        let slot = |key: &str| {
            pair.get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .filter(|&v| v < n)
        };
        let (Some(p), Some(r)) = (slot("primary"), slot("reference")) else {
            return Err("pair object without valid slots".into());
        };
        let relation: Option<CardinalRelation> = pair
            .get("relation")
            .and_then(Json::as_str)
            .and_then(|s| s.parse().ok());
        let (a, b) = (&model[p].region, &model[r].region);
        if relation != Some(compute_cdr(a, b)) {
            return Err(format!(
                "/relations pair ({p}, {r}) differs from the oracle"
            ));
        }
        let pct = pair.get("percentages").and_then(matrix_from_json);
        if !pct.is_some_and(|m| percentages_match(&m, a, b)) {
            return Err(format!(
                "/relations percentages of ({p}, {r}) differ from the oracle"
            ));
        }
    }
    Ok(())
}

fn matrix_from_json(value: &Json) -> Option<PercentageMatrix> {
    let Json::Arr(rows) = value else { return None };
    let mut cells = [[0.0; 3]; 3];
    for (row, json) in cells.iter_mut().zip(rows) {
        let Json::Arr(values) = json else { return None };
        for (cell, v) in row.iter_mut().zip(values) {
            *cell = v.as_f64()?;
        }
    }
    Some(PercentageMatrix::from_rows(cells))
}

/// Timed request; the response only if it came back 2xx.
fn timed(
    client: &mut Client,
    post: Option<&str>,
    path: &str,
    trace: &mut cardir_telemetry::ThreadTrace,
    span: &'static str,
    lat: &mut Vec<f64>,
    busy: &mut Duration,
) -> Option<String> {
    let t0 = trace.begin();
    let begun = Instant::now();
    let resp = match post {
        Some(body) => client.post(path, body),
        None => client.get(path),
    };
    let took = begun.elapsed();
    trace.end(t0, span, None);
    *busy += took;
    lat.push(ms(took));
    resp.ok()
        .filter(|r| (200..300).contains(&r.status))
        .map(|r| r.body)
}

/// Runs whole rounds of three cycles on `client` until `seconds` have
/// passed, drawing edits from the plan's edit stream.
fn cycles(
    client: &mut Client,
    model: &mut [Slot],
    plan: &mut Plan,
    seconds: f64,
    tracer: &Tracer,
) -> Measured {
    let n = model.len();
    let mut trace = tracer.thread(1);
    let mut m = Measured {
        apply_ms: Vec::new(),
        cold_ms: Vec::new(),
        warm_ms: Vec::new(),
        bulk_ms: Vec::new(),
        peaks: Vec::new(),
        busy: Duration::ZERO,
        requests: 0,
        tally: Tally::default(),
        problems: Vec::new(),
    };
    let apply_path = format!("/sessions/{SESSION}/apply");
    let query_path = format!("/sessions/{SESSION}/query");
    let bulk_path = format!("/sessions/{SESSION}/relations");
    let start = Instant::now();
    let mut c = 0;
    while c % 3 != 0 || c == 0 || start.elapsed().as_secs_f64() < seconds {
        reset_peak_rss();
        let (slot, edit) = next_edit(&mut plan.edits, n, &plan.subset);
        let body = replace_body(slot, &edit);
        let applied = timed(
            client,
            Some(&body),
            &apply_path,
            &mut trace,
            "client.apply",
            &mut m.apply_ms,
            &mut m.busy,
        );
        m.tally.record(applied.is_some());
        if applied.is_some() {
            model[slot as usize] = edit;
        }
        // Every third cycle checks all three shapes against the oracle.
        let config = (c % 3 == 0).then(|| oracle_config(model));
        for (k, &shape) in cycle_order(c).iter().enumerate() {
            let body = format!("{{\"query\":{}}}", Json::from(QUERIES[shape]));
            let (lat, span) = if k == 0 {
                (&mut m.cold_ms, "client.query_cold")
            } else {
                (&mut m.warm_ms, "client.query_warm")
            };
            let answer = timed(
                client,
                Some(&body),
                &query_path,
                &mut trace,
                span,
                lat,
                &mut m.busy,
            );
            let ok = match (&answer, &config) {
                (Some(body), Some(config)) => {
                    response_bindings(body) == Some(oracle_bindings(QUERIES[shape], config))
                }
                (Some(_), None) => true,
                (None, _) => false,
            };
            m.tally.record(ok);
        }
        let bulk = timed(
            client,
            None,
            &bulk_path,
            &mut trace,
            "client.relations",
            &mut m.bulk_ms,
            &mut m.busy,
        );
        let ok = match bulk {
            Some(body) => match check_bulk(&body, model, &mut plan.check) {
                Ok(()) => true,
                Err(problem) => {
                    m.problems.push(problem);
                    false
                }
            },
            None => false,
        };
        m.tally.record(ok);
        m.peaks.push(peak_rss_mb());
        m.requests += 5;
        c += 1;
    }
    m
}

/// Runs `serve_query` and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut plan = Plan::new(ctx.seed, SALT);
    report.context("regions", plan.map.len());
    report.context("edited_slots", plan.subset.len());
    report.context("engine_threads", 1);
    report.context("mode", "quantitative");
    report.context("connections", 1);

    let mut tally = Tally::default();
    let (server, mut client, setups) =
        set_up_session(&ctx.work, &plan.map, SETUP_REPEATS, &mut tally);
    report.metric(
        "setup_s",
        median(&setups).expect("set-up ran"),
        "s",
        setups.len(),
    );

    let mut model = plan.map.clone();
    let run = cycles(
        &mut client,
        &mut model,
        &mut plan,
        ctx.seconds,
        &Tracer::disabled(),
    );
    tally.merge(run.tally);
    for p in run.problems {
        report.problem(p);
    }
    let cold_p50 = median(&run.cold_ms).unwrap_or(f64::NAN);
    report.metric("query_cold_p50_ms", cold_p50, "ms", run.cold_ms.len());
    report.metric(
        "query_warm_p50_ms",
        median(&run.warm_ms).unwrap_or(f64::NAN),
        "ms",
        run.warm_ms.len(),
    );
    report.metric(
        "bulk_read_p50_ms",
        median(&run.bulk_ms).unwrap_or(f64::NAN),
        "ms",
        run.bulk_ms.len(),
    );
    report.metric(
        "apply_p50_ms",
        median(&run.apply_ms).unwrap_or(f64::NAN),
        "ms",
        run.apply_ms.len(),
    );
    let rps = run.requests as f64 / run.busy.as_secs_f64();
    report.metric("requests_per_s", rps, "req/s", run.requests);
    report.metric("op_p50_ms", cold_p50, "ms", run.cold_ms.len());

    if ctx.trace {
        let tracer = Tracer::enabled();
        let began = Instant::now();
        let traced = cycles(&mut client, &mut model, &mut plan, ctx.seconds, &tracer);
        let wall = began.elapsed();
        tally.merge(traced.tally);
        for p in traced.problems {
            report.problem(p);
        }
        let traced_p50 = median(&traced.cold_ms).unwrap_or(f64::NAN);
        crate::layers::record_overhead(
            report,
            ctx,
            "serve_query client",
            &tracer,
            wall,
            cold_p50,
            traced_p50,
        );
    }
    report.metric(
        "peak_rss_mb",
        median(&run.peaks).unwrap_or(f64::NAN),
        "MiB",
        run.peaks.len(),
    );
    report.tally.merge(tally);
    server.handle.shutdown();
    let _ = std::fs::remove_dir_all(&server.data_dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::session_map;
    use cardir_core::tile_areas;
    use cardir_engine::PairRelation;
    use cardird::api::pair_to_json;

    /// A `/relations` body over `model` in the server's wire format, with
    /// the relation of `(0, 1)` replaced by `wrong` when given.
    fn bulk_body(model: &[Slot], wrong: Option<CardinalRelation>) -> String {
        let n = model.len();
        let mut pairs = Vec::new();
        for p in 0..n {
            for r in (0..n).filter(|&r| r != p) {
                let (a, b) = (&model[p].region, &model[r].region);
                let relation = match wrong {
                    Some(w) if (p, r) == (0, 1) => w,
                    _ => compute_cdr(a, b),
                };
                let pair = PairRelation {
                    primary: p,
                    reference: r,
                    relation,
                    percentages: Some(tile_areas(a, b).percentages()),
                    via_prefilter: false,
                };
                pairs.push(pair_to_json(p as u32, r as u32, &pair));
            }
        }
        Json::obj([("epoch", Json::from(7u64)), ("pairs", Json::Arr(pairs))]).to_string()
    }

    #[test]
    fn bulk_check_passes_right_answers_and_counts_a_wrong_one() {
        let model = session_map(4, 3);
        let mut rng = SplitMix64::seed_from_u64(1);
        assert_eq!(
            check_bulk(&bulk_body(&model, None), &model, &mut rng),
            Ok(())
        );
        let right = compute_cdr(&model[0].region, &model[1].region);
        let wrong = compute_cdr(&model[1].region, &model[0].region);
        assert_ne!(right, wrong);
        let err = check_bulk(&bulk_body(&model, Some(wrong)), &model, &mut rng).unwrap_err();
        assert!(err.contains("(0, 1)"), "{err}");
        // A missing pair is caught by the count alone.
        let short = bulk_body(&model[..2], None);
        assert!(check_bulk(&short, &model, &mut rng)
            .unwrap_err()
            .contains("pairs"));
    }

    #[test]
    fn query_check_compares_against_the_geometry_only_oracle() {
        let model = session_map(9, 20);
        let config = oracle_config(&model);
        for query in QUERIES {
            let rows = oracle_bindings(query, &config);
            let as_json = |rows: &[Vec<String>]| {
                let rows = rows
                    .iter()
                    .map(|r| Json::Arr(r.iter().map(|v| Json::from(v.as_str())).collect()));
                Json::obj([
                    ("epoch", Json::from(2u64)),
                    ("bindings", Json::Arr(rows.collect())),
                ])
                .to_string()
            };
            assert_eq!(
                response_bindings(&as_json(&rows)),
                Some(rows.clone()),
                "{query}"
            );
            // An injected extra binding is a wrong answer.
            let mut wrong = rows.clone();
            wrong.push(vec!["r0".to_string(), "r0".to_string()]);
            assert_ne!(response_bindings(&as_json(&wrong)), Some(rows), "{query}");
        }
        assert_eq!(cycle_order(0), [0, 1, 2]);
        assert_eq!(cycle_order(4), [1, 2, 0]);
    }
}
