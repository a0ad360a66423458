//! Layered host-performance benchmark of the incline workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile_heavy|exec_heavy|fleet_server|ir_compile> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (the paper-program workloads check their
//! sessions against the checked-in `BENCH_compile.json` and
//! `BENCH_warmup.json`). One process drives a closed loop: the next job
//! starts when the previous one returns. Every job's answer is checked
//! against the interpreted tier. With `--trace 0` the last line of
//! standard output is a JSON object with the end-to-end metrics; with
//! `--trace 1` the run is split into an untraced and a traced half and
//! the object carries the per-layer metrics instead. Host times of the
//! end-to-end metrics are scaled to a reference host speed measured by a
//! calibration loop around each job, fleet serve and set-up (see
//! `calibrate`). The
//! process exits with 1 when any job failed or any check disagreed, and
//! with 2 on bad arguments. See README.md for the workloads and metric
//! definitions.

mod calibrate;
mod figures;
mod layers;
mod probe;
mod summary;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use incline_bench::alloc::{self, CountingAlloc};
use incline_bench::json::Json;
use incline_vm::stats::percentile;

use calibrate::Stopwatch;
use layers::{Acc, PER_LAYER};
use probe::nanos;
use summary::UnitSamples;
use workloads::{Modeled, Setup};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have taken
/// less than `SETUP_BUDGET` in all, up to `MAX_SETUPS`. `setup_s` is their
/// median at the reference speed. Over five set-ups, the `setup_s` of the
/// quick ones (the paper programs, 10–25 ms each) spread by 0.16 across
/// ten runs.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The end-to-end metrics, by name with their units, in the order `main`
/// computes them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("alloc_mb_per_job", "MB"),
    ("peak_heap_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let args = Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {:?})",
            args.workload,
            workloads::NAMES
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// What one timed loop observed.
struct LoopRun {
    /// Job host times at the reference speed.
    samples: UnitSamples,
    /// Every calibration sample taken, in host nanoseconds.
    calibration_ns: Vec<u64>,
    /// Per unit, the modeled observables of its first correct job.
    models: Vec<Option<Modeled>>,
    attempted: usize,
    failed: usize,
    acc: Acc,
}

/// Runs jobs round-robin over the units for `budget` (and at least one
/// full pass). Each job's host time and allocations are measured around
/// `Setup::run` only, less the calibration samples inside it; its answer
/// check runs after the window closes.
fn run_loop(setup: &Setup, budget: Duration, traced: bool, problems: &mut Vec<String>) -> LoopRun {
    let units = setup.units();
    let mut watch = Stopwatch::new();
    let mut run = LoopRun {
        samples: UnitSamples::new(units),
        calibration_ns: Vec::new(),
        models: vec![None; units],
        attempted: 0,
        failed: 0,
        acc: Acc::default(),
    };
    let started = Instant::now();
    let mut i = 0;
    while i < units || started.elapsed() < budget {
        let u = i % units;
        i += 1;
        run.attempted += 1;
        let mut acc = traced.then(Acc::default);
        let window = alloc::start_window();
        watch.start();
        let ran = setup.run(u, acc.as_mut(), &mut watch);
        let (elapsed, scaled) = watch.stop();
        let ns = nanos(elapsed);
        let allocs = window.finish();
        let checked = ran.and_then(|r| setup.check(u, r, acc.as_mut()));
        let outcome = checked.and_then(|model| match &run.models[u] {
            Some(first) if *first != model => Err(format!("unit {u}: modeled result changed")),
            Some(_) => Ok(()),
            None => {
                run.models[u] = Some(model);
                Ok(())
            }
        });
        match outcome {
            Ok(()) => {
                run.samples
                    .push(u, scaled, allocs.total_bytes, allocs.peak_bytes);
                if let Some(mut acc) = acc {
                    acc.add("job_ns", ns as f64);
                    run.acc.absorb(acc);
                }
            }
            Err(e) => {
                run.failed += 1;
                problems.push(e);
            }
        }
    }
    run.calibration_ns = watch.samples;
    run
}

fn json_value(v: f64, unit: &str) -> Json {
    let v = if v.is_finite() { v } else { 0.0 };
    Json::obj(vec![
        ("value", Json::Raw(format!("{v}"))),
        ("unit", unit.into()),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::path::Path::new(".");
    let mut setup_ns = Vec::with_capacity(MAX_SETUPS);
    let mut generate_ns = Vec::with_capacity(MAX_SETUPS);
    let mut setup = None;
    let mut watch = Stopwatch::new();
    let setups_started = Instant::now();
    while setup_ns.len() < MIN_SETUPS
        || (setup_ns.len() < MAX_SETUPS && setups_started.elapsed() < SETUP_BUDGET)
    {
        watch.start();
        let built = Setup::build(&args.workload, args.seed, root);
        let (_, scaled) = watch.stop();
        match built {
            Ok(s) => {
                setup_ns.push(scaled);
                generate_ns.push(s.generate_ns);
                setup = Some(s);
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let setup = setup.expect("at least one set-up ran");
    let setup_s = percentile(&setup_ns, 0.5) as f64 / 1e9;

    let mut problems = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    let (attempted, failed);
    if args.trace {
        let plain = run_loop(&setup, budget / 2, false, &mut problems);
        let traced = run_loop(&setup, budget / 2, true, &mut problems);
        // Layer timing only observes: both halves must model the same.
        let mut mismatched = 0;
        for (u, (a, b)) in plain.models.iter().zip(&traced.models).enumerate() {
            if a != b {
                mismatched += 1;
                problems.push(format!("unit {u}: traced and untraced runs differ"));
            }
        }
        let untraced = plain.samples.jobs_per_s();
        let overhead = (untraced - traced.samples.jobs_per_s()) / untraced;
        let models: Vec<Modeled> = traced.models.iter().flatten().cloned().collect();
        let values = layers::metrics(
            &traced.acc,
            traced.samples.jobs(),
            &models,
            percentile(&generate_ns, 0.5),
            overhead,
            percentile(&traced.calibration_ns, 0.5),
        );
        for (name, unit) in PER_LAYER {
            metrics.insert(name, (values.get(name).copied().unwrap_or(0.0), unit));
        }
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed + mismatched;
    } else {
        let run = run_loop(&setup, budget, false, &mut problems);
        let s = &run.samples;
        let values = [
            setup_s,
            s.jobs_per_s(),
            s.job_ms_p50(),
            s.job_ms_tail(0.9),
            s.alloc_mb_per_job(),
            s.peak_heap_mb(),
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.insert(name, (value, unit));
        }
        eprintln!(
            "calibration pass: median {:.4} ms over {} samples (reference {} ms)",
            percentile(&run.calibration_ns, 0.5) as f64 / 1e6,
            run.calibration_ns.len(),
            calibrate::REFERENCE_NS as f64 / 1e6
        );
        attempted = run.attempted;
        failed = run.failed;
    }

    for p in problems.iter().take(10) {
        eprintln!("perfbench: FAILED: {p}");
    }
    for (name, (value, unit)) in &metrics {
        eprintln!("{name:<32} {value:>16.6} {unit}");
    }
    let result = Json::obj(vec![
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, (v, unit))| (name.to_string(), json_value(*v, unit)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.compact());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // BENCHMARK.json at the repository root must name exactly the metrics
    // this command prints, with the same units.
    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let metrics: Vec<(&str, &str)> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (name, unit) in &metrics {
            let at = text
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
            let entry = &text[at..text[at..].find('}').map_or(text.len(), |e| at + e)];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: unit differs from {unit}"
            );
        }
        let names = text.matches("\"name\":").count();
        assert_eq!(names, metrics.len() + workloads::NAMES.len());
        for w in workloads::NAMES {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }
}
