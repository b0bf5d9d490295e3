//! Fused-kernel throughput: ns per scanned edge of `Compute-CDR` and
//! `Compute-CDR%` over cached struct-of-arrays edges, by mode × edge
//! count × share of edges that cross a grid line of the reference box.
//!
//! Theorem 1 makes the kernel linear in the primary's edge count, so a
//! batch join costs edges × ns/edge; this bench isolates the second
//! factor from the sweep, the chunk queue and the assembly. Each cell
//! scans one primary against one reference box:
//!
//! - the primary is a sawtooth polygon (a flat base at `y = −1`, teeth
//!   with valleys at `y = 0` and peaks at `y = 2` or `y = 0.5`) lying
//!   east of the reference box, so its edges fall in the `E` and `NE`
//!   tiles and never in `B` — the shape of most interacting pairs of a
//!   map, where the centre of `mbb(b)` lies outside the primary;
//! - the box's north line `y = 1` crosses exactly the edges of the tall
//!   teeth, and `crossing_pct` sets how many teeth are tall (0, 50 or
//!   100 %); `crossing_share` reports the measured share of divided
//!   edges (the base and the two sides never cross).
//!
//! A cell's time is the best of three calibrated means (about 20 ms
//! each). `orient2d_calls` counts the exact orientation predicates one
//! call evaluates.
//!
//! Usage: `kernel_throughput [--json PATH]`. `--json` writes one
//! JSON-lines record per cell with `"type": "kernel_cell"`, keyed by
//! `mode`, `edges` and `crossing_pct` for `bench_diff`.

use cardir_bench::{calibrate_iters, time_mean};
use cardir_core::{cdr_areas_from_soa, cdr_from_soa, cdr_from_soa_hooked, CountingHook, SoaStore};
use cardir_geometry::{robust, BoundingBox, Point, Polygon, Region};
use cardir_telemetry::{Json, JsonLines};
use std::hint::black_box;
use std::time::Duration;

/// The sawtooth primary with exactly `edges` edges; `share` of its teeth
/// reach above the reference box's north line.
fn sawtooth(edges: usize, share: f64) -> Region {
    assert!(
        edges >= 4,
        "a sawtooth needs a tooth edge plus base and sides"
    );
    let teeth_edges = edges - 3;
    let mut vertices = Vec::with_capacity(edges);
    for i in 0..=teeth_edges {
        let y = if i % 2 == 0 {
            0.0
        } else {
            let k = (i / 2) as f64;
            let tall = ((k + 1.0) * share).floor() > (k * share).floor();
            if tall {
                2.0
            } else {
                0.5
            }
        };
        vertices.push(Point::new(i as f64, y));
    }
    vertices.push(Point::new(teeth_edges as f64, -1.0));
    vertices.push(Point::new(0.0, -1.0));
    let region = Region::single(Polygon::new(vertices).expect("a sawtooth is a valid polygon"));
    assert_eq!(region.edge_count(), edges);
    region
}

/// Best of three calibrated means of `f`.
fn best_mean<F: FnMut()>(mut f: F) -> Duration {
    let iters = calibrate_iters(Duration::from_millis(20), &mut f);
    (0..3)
        .map(|_| time_mean(iters, &mut f))
        .min()
        .expect("three runs")
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--json requires a path");
                std::process::exit(2);
            }));
        } else {
            eprintln!("usage: kernel_throughput [--json PATH]");
            std::process::exit(2);
        }
    }
    let mut sink = json_path.as_deref().map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        JsonLines::new(std::io::BufWriter::new(file))
    });

    // West of every primary; its north line y = 1 cuts the tall teeth.
    let mbb = BoundingBox::new(Point::new(-100.0, -5.0), Point::new(-50.0, 1.0));
    println!("fused kernel ns/edge (best of 3 calibrated means, one thread)\n");
    println!(
        "| {:>12} | {:>6} | {:>9} | {:>8} | {:>10} | {:>8} |",
        "mode", "edges", "crossing", "measured", "ns/edge", "orient2d"
    );
    println!("|{}|", vec!["-".repeat(12); 6].join("|"));
    for mode in ["qualitative", "quantitative"] {
        for edges in [16usize, 256, 4096] {
            for crossing_pct in [0u32, 50, 100] {
                let region = sawtooth(edges, f64::from(crossing_pct) / 100.0);
                let mut store = SoaStore::new();
                store.push_region(&region);
                let soa = store.view(0);
                let mut hook = CountingHook::new();
                let before = robust::stats();
                cdr_from_soa_hooked(&soa, mbb, &mut hook);
                let orient_calls = robust::stats().since(&before).orient_calls;
                let share = hook.edges_divided as f64 / hook.edges_scanned as f64;
                let mean = if mode == "qualitative" {
                    best_mean(|| {
                        black_box(cdr_from_soa(black_box(&soa), black_box(mbb)));
                    })
                } else {
                    best_mean(|| {
                        black_box(cdr_areas_from_soa(black_box(&soa), black_box(mbb)));
                    })
                };
                let ns_per_edge = mean.as_nanos() as f64 / edges as f64;
                println!(
                    "| {mode:>12} | {edges:>6} | {crossing_pct:>8}% | {share:>8.3} | {ns_per_edge:>10.2} | {orient_calls:>8} |"
                );
                if let Some(sink) = &mut sink {
                    sink.emit(
                        "kernel_cell",
                        Json::obj([
                            ("mode", Json::from(mode)),
                            ("edges", Json::from(edges)),
                            ("crossing_pct", Json::from(crossing_pct as usize)),
                            ("crossing_share", Json::from(share)),
                            ("threads", Json::from(1usize)),
                            ("ns_per_edge", Json::from(ns_per_edge)),
                            ("orient2d_calls", Json::from(orient_calls)),
                        ]),
                    )
                    .expect("write JSON line");
                }
            }
        }
    }
    if let Some(sink) = &mut sink {
        sink.flush().expect("flush JSON sink");
        println!("\nwrote {}", json_path.as_deref().unwrap_or_default());
    }
}
