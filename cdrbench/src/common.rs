//! Inputs, server plumbing and oracles shared by the workloads.

use crate::stats::Tally;
use cardir_core::{tile_areas, CardinalRelation, PercentageMatrix};
use cardir_geometry::{BoundingBox, Point, Region};
use cardir_workloads::{random_map, random_region, SplitMix64};
use cardird::api::region_to_json;
use cardird::{serve, Client, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Regions per server session.
pub const SESSION_REGIONS: usize = 1000;
/// Inserts per `/apply` request while seeding a session.
pub const SEED_BATCH: usize = 50;
/// Times a server run sets up; the median is `setup_s`.
pub const SETUP_REPEATS: usize = 9;
/// Slots the editors may replace; every other slot stays as seeded.
pub const EDITED_SLOTS: usize = 256;
/// Name of the benchmark's server session.
pub const SESSION: &str = "bench";

/// The extent every generated map covers.
pub fn extent(n: usize) -> BoundingBox {
    let side = (n as f64).sqrt().ceil() * 1000.0;
    BoundingBox::new(Point::new(0.0, 0.0), Point::new(side, side))
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// One region of a session map: geometry plus colour annotation.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Current geometry.
    pub region: Region,
    /// Current colour.
    pub color: String,
}

/// The seeded map of `n` regions, laid out on `random_map`'s jittered grid.
pub fn session_map(seed: u64, n: usize) -> Vec<Slot> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    random_map(&mut rng, n, extent(n))
        .into_iter()
        .map(|m| Slot {
            region: m.region,
            color: m.color.to_string(),
        })
        .collect()
}

/// The grid cell `random_map` placed slot `i` of an `n`-region map in.
pub fn cell(n: usize, i: usize) -> BoundingBox {
    let ext = extent(n);
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let pitch_x = ext.width() / cols as f64;
    let pitch_y = ext.height() / rows as f64;
    let x = ext.min.x + (i % cols) as f64 * pitch_x;
    let y = ext.min.y + (i / cols) as f64 * pitch_y;
    BoundingBox::new(Point::new(x, y), Point::new(x + pitch_x, y + pitch_y))
}

/// A fresh star region in slot `i`'s own grid cell, so an edit keeps the
/// slot's neighbourhood — and the work one edit costs — the same over a
/// long run.
pub fn in_cell_edit(rng: &mut SplitMix64, n: usize, i: usize) -> Slot {
    let m = random_region(rng, cell(n, i));
    Slot {
        region: m.region,
        color: m.color.to_string(),
    }
}

/// `count` distinct slots out of `0..n`, drawn from `rng`.
pub fn pick_slots(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<u32> {
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < count.min(n) {
        chosen.insert(rng.random_range(0..n) as u32);
    }
    chosen.into_iter().collect()
}

/// A serving workload's seeded operation sequence: the map, the slots
/// its edits may replace, and independent streams for its edits, its
/// point reads and its oracle sampling. The workload and the traced
/// run's layer passes build the same plan from the same seed, so the
/// passes replay the operations the workload sends.
pub struct Plan {
    /// The seeded map, colours included.
    pub map: Vec<Slot>,
    /// The slots edits replace; every other slot stays as seeded.
    pub subset: Vec<u32>,
    /// Stream of edits, drawn with [`next_edit`].
    pub edits: SplitMix64,
    /// Stream of point-read pairs, drawn with [`random_pair`].
    pub reads: SplitMix64,
    /// Stream the oracle checks sample from.
    pub check: SplitMix64,
}

impl Plan {
    /// The plan of the workload whose streams are salted with `salt`.
    pub fn new(seed: u64, salt: u64) -> Plan {
        let n = SESSION_REGIONS;
        let mut check = SplitMix64::seed_from_u64(seed ^ salt);
        let subset = pick_slots(&mut check, n, EDITED_SLOTS);
        Plan {
            map: session_map(seed, n),
            subset,
            edits: SplitMix64::seed_from_u64(seed ^ salt ^ 0xed17),
            reads: SplitMix64::seed_from_u64(seed ^ salt ^ 0x2ead),
            check,
        }
    }
}

/// The next edit of an edit stream: a slot drawn from `subset`, replaced
/// by a fresh star in its own cell of the `n`-region grid.
pub fn next_edit(rng: &mut SplitMix64, n: usize, subset: &[u32]) -> (u32, Slot) {
    let slot = subset[rng.random_range(0..subset.len())];
    (slot, in_cell_edit(rng, n, slot as usize))
}

/// An ordered pair of distinct slots out of `0..n`.
pub fn random_pair(rng: &mut SplitMix64, n: usize) -> (u32, u32) {
    let p = rng.random_range(0..n);
    let mut r = rng.random_range(0..n - 1);
    if r >= p {
        r += 1;
    }
    (p as u32, r as u32)
}

/// The `/apply` body inserting `slots` (with their colours).
pub fn insert_body(slots: &[Slot]) -> String {
    let edits: Vec<String> = slots
        .iter()
        .map(|s| {
            format!(
                "{{\"op\":\"insert\",\"color\":\"{}\",\"region\":{}}}",
                s.color,
                region_to_json(&s.region)
            )
        })
        .collect();
    format!("{{\"edits\":[{}]}}", edits.join(","))
}

/// The `/apply` body replacing `slot` with `with`.
pub fn replace_body(slot: u32, with: &Slot) -> String {
    format!(
        "{{\"edits\":[{{\"op\":\"replace\",\"slot\":{slot},\"color\":\"{}\",\"region\":{}}}]}}",
        with.color,
        region_to_json(&with.region)
    )
}

/// Path of the `/relation` route for one ordered pair.
pub fn relation_path(p: u32, r: u32) -> String {
    format!("/sessions/{SESSION}/relation?primary={p}&reference={r}")
}

/// The relation a `/relation` body carries (`None` for a malformed body
/// or a `null` relation).
pub fn parse_relation(body: &str) -> Option<CardinalRelation> {
    let json = cardir_telemetry::parse_json(body).ok()?;
    json.get("relation")?.as_str()?.parse().ok()
}

/// `true` when `got` matches the Compute-CDR% oracle on the region path,
/// which is independent of the SoA kernel, the join and the engine.
pub fn percentages_match(got: &PercentageMatrix, a: &Region, b: &Region) -> bool {
    got.approx_eq(&tile_areas(a, b).percentages(), 1e-6)
}

/// A booted in-process server and its data directory.
pub struct Server {
    /// The running server.
    pub handle: ServerHandle,
    /// Its journal directory.
    pub data_dir: PathBuf,
}

impl Server {
    /// Boots `cardird` with `ServerConfig::ephemeral` defaults over
    /// `data_dir`.
    pub fn boot(data_dir: &Path) -> Server {
        let handle = serve(ServerConfig::ephemeral(data_dir)).expect("boot cardird");
        Server {
            handle,
            data_dir: data_dir.to_path_buf(),
        }
    }

    /// A fresh keep-alive connection.
    pub fn connect(&self) -> Client {
        Client::connect(self.handle.addr()).expect("connect to cardird")
    }
}

/// The server set-up, `repeats` times: boot over a fresh data directory
/// under `work`, create the session, seed `map` through `/apply` in
/// batches of [`SEED_BATCH`]. Each earlier server is shut down before
/// the next set-up starts. Returns the last server, the connection that
/// seeded it, and every set-up's wall time in seconds.
pub fn set_up_session(
    work: &Path,
    map: &[Slot],
    repeats: usize,
    tally: &mut Tally,
) -> (Server, Client, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut server: Option<(Server, Client)> = None;
    for k in 0..repeats {
        if let Some((old, _)) = server.take() {
            old.handle.shutdown();
            let _ = std::fs::remove_dir_all(&old.data_dir);
        }
        let data_dir = work.join(format!("setup-{k}"));
        let _ = std::fs::remove_dir_all(&data_dir);
        let start = Instant::now();
        let booted = Server::boot(&data_dir);
        let mut client = booted.connect();
        let body = format!("{{\"name\":\"{SESSION}\"}}");
        tally.record(
            client
                .post("/sessions", &body)
                .is_ok_and(|r| r.status == 200),
        );
        for chunk in map.chunks(SEED_BATCH) {
            let resp = client.post(&format!("/sessions/{SESSION}/apply"), &insert_body(chunk));
            tally.record(resp.is_ok_and(|r| r.status == 200));
        }
        times.push(start.elapsed().as_secs_f64());
        server = Some((booted, client));
    }
    let (server, client) = server.expect("at least one set-up");
    (server, client, times)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-memory mark, so a workload's peak excludes whatever
/// the process held before it (input generation, an earlier workload).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_core::compute_cdr;

    #[test]
    fn in_cell_edits_stay_in_their_cell() {
        let mut rng = SplitMix64::seed_from_u64(5);
        let map = session_map(5, 100);
        for i in [0usize, 7, 42, 99] {
            assert!(
                cell(100, i).contains_box(map[i].region.mbb()),
                "seeded slot {i}"
            );
            let edit = in_cell_edit(&mut rng, 100, i);
            assert!(
                cell(100, i).contains_box(edit.region.mbb()),
                "edited slot {i}"
            );
        }
    }

    #[test]
    fn a_plan_replays_the_same_operations_from_the_same_seed() {
        let draw = |plan: &mut Plan| {
            let n = plan.map.len();
            let edits: Vec<(u32, BoundingBox)> = (0..5)
                .map(|_| next_edit(&mut plan.edits, n, &plan.subset))
                .map(|(slot, s)| (slot, s.region.mbb()))
                .collect();
            let reads: Vec<(u32, u32)> = (0..5).map(|_| random_pair(&mut plan.reads, n)).collect();
            (plan.subset.clone(), edits, reads)
        };
        let (mut a, mut b) = (Plan::new(7, 0x11), Plan::new(7, 0x11));
        let first = draw(&mut a);
        assert_eq!(first, draw(&mut b));
        assert!(first.1.iter().all(|(slot, _)| a.subset.contains(slot)));
        assert_ne!(
            first,
            draw(&mut Plan::new(7, 0x22)),
            "salts separate workloads"
        );
    }

    #[test]
    fn wrong_relation_is_caught_by_the_oracle() {
        let map = session_map(3, 4);
        let right = compute_cdr(&map[0].region, &map[1].region);
        let wrong = compute_cdr(&map[1].region, &map[0].region);
        assert_ne!(right, wrong, "slot 0 and slot 1 sit on opposite sides");
        let body =
            format!("{{\"epoch\":3,\"primary\":0,\"reference\":1,\"relation\":\"{wrong}\"}}");
        assert_eq!(parse_relation(&body), Some(wrong));
        assert_ne!(parse_relation(&body), Some(right));
    }
}
