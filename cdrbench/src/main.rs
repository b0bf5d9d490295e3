//! The repository's benchmark: three workloads over the whole stack,
//! end to end with tracing off and split per layer with tracing on.
//!
//! ```text
//! cdrbench --workload batch_map|serve_edit|serve_query --seed N --seconds S --trace 0|1
//! cdrbench --spread K [--workload NAME|all] --seed N --seconds S [--trace 0|1]
//! ```
//!
//! A run prints its parameters and every metric by name, unit and sample
//! count, then one JSON result line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run
//! also writes a Chrome trace under `.bench_out/` that `trace_report`
//! reads. `--spread K` runs each workload K times with seeds N..N+K in
//! child processes and prints each metric's median, quartiles and
//! interquartile spread. All files are written under the current
//! directory.

mod batch_map;
mod common;
mod layers;
mod report;
mod serve_edit;
mod serve_query;
mod stats;

use cardir_telemetry::ChromeTrace;
use report::{Report, END_TO_END, PER_LAYER};
use std::cell::RefCell;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `--spread all` runs them.
const WORKLOADS: [&str; 3] = ["batch_map", "serve_edit", "serve_query"];

/// What every workload and layer pass runs under.
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time per closed loop.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Working directory of this run, removed at exit.
    pub work: PathBuf,
    /// Spans collected for the Chrome trace export.
    pub trace_doc: RefCell<ChromeTrace>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spread: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spread: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spread" => args.spread = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("cdrbench: {problem}");
    eprintln!(
        "usage: cdrbench --workload batch_map|serve_edit|serve_query --seed N --seconds S --trace 0|1\n       \
         cdrbench --spread K [--workload NAME|all] --seed N --seconds S [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    if let Some(k) = args.spread {
        return spread(&args, k);
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return usage(&format!("unknown workload {:?}", args.workload));
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cdrbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        trace_doc: RefCell::new(ChromeTrace::new()),
    };
    let mut report = Report::default();
    report.context("workload", &args.workload);
    report.context("seed", args.seed);
    report.context("seconds", args.seconds);
    report.context("trace", u8::from(args.trace));
    report.context("nproc", common::nproc());
    match args.workload.as_str() {
        "batch_map" => batch_map::run(&ctx, &mut report),
        "serve_edit" => serve_edit::run(&ctx, &mut report),
        _ => serve_query::run(&ctx, &mut report),
    }
    if args.trace {
        // The serving passes replay the workload's own plan; `batch_map`
        // sends no edits, so it replays `serve_edit`'s.
        let salt = match args.workload.as_str() {
            "serve_query" => serve_query::SALT,
            _ => serve_edit::SALT,
        };
        layers::run(&ctx, &mut report, common::Plan::new(args.seed, salt));
        export_trace(&ctx, &args, &mut report);
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    print!("{}", report.render());
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match report.result_line(wanted) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(problem) => {
            eprintln!("cdrbench: {problem}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the run's spans as a Chrome trace and checks that the file
/// parses back with every span.
fn export_trace(ctx: &Ctx, args: &Args, report: &mut Report) {
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let doc = ctx.trace_doc.borrow();
    let spans: usize = doc.processes.iter().map(|p| p.events.len()).sum();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| doc.write_to(&mut f));
    match written.map_err(|e| e.to_string()).and_then(|()| {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        ChromeTrace::parse(&text).map_err(|e| e.to_string())
    }) {
        Ok(parsed)
            if parsed
                .processes
                .iter()
                .map(|p| p.events.len())
                .sum::<usize>()
                == spans =>
        {
            report.context("trace_file", path.display());
        }
        Ok(_) => report.problem("the trace export lost spans"),
        Err(e) => report.problem(format!("the trace export does not parse: {e}")),
    }
}

/// Runs each workload `k` times in child processes and prints every
/// metric's median, quartiles and interquartile spread.
fn spread(args: &Args, k: usize) -> ExitCode {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&args.workload.as_str()) {
        vec![args.workload.as_str()]
    } else {
        return usage(&format!("unknown workload {:?}", args.workload));
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate this program: {e}")),
    };
    let mut all_ok = true;
    for workload in workloads {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        for i in 0..k as u64 {
            let seed = args.seed + i;
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if args.trace { "1" } else { "0" },
                ])
                .output();
            let stdout = match out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                _ => String::new(),
            };
            let result = stdout
                .lines()
                .last()
                .and_then(|l| cardir_telemetry::parse_json(l).ok());
            let Some(result) = result else {
                println!("{workload} seed {seed}: run failed");
                all_ok = false;
                continue;
            };
            let correct = result.get("correct") == Some(&cardir_telemetry::Json::Bool(true));
            all_ok &= correct;
            // Every printed `name = value unit` line, gated or not.
            for line in stdout.lines().filter(|l| !l.starts_with('#')) {
                let Some((name, rest)) = line.split_once(" = ") else {
                    continue;
                };
                let mut words = rest.split_whitespace();
                let (Some(value), Some(unit)) =
                    (words.next().and_then(|v| v.parse().ok()), words.next())
                else {
                    continue;
                };
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, v)) => v.push(value),
                    None => values.push((name.to_string(), unit.to_string(), vec![value])),
                }
            }
            println!("{workload} seed {seed}: correct={correct}");
        }
        for (name, unit, v) in &values {
            match (stats::quartiles(v), stats::relative_spread(v)) {
                (Some([q1, q2, q3]), Some(s)) => println!(
                    "{workload} {name}: median {q2:.6} {unit}  q1 {q1:.6}  q3 {q3:.6}  spread {s:.4}  (n={}) {v:?}",
                    v.len()
                ),
                _ => println!("{workload} {name}: {v:?} {unit}"),
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
