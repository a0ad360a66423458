//! The `incline` command-line tool: parse, verify, optimize, compile, run
//! and explain programs written in the textual IR format.
//!
//! ```text
//! incline print   <file.ir> [--optimize]
//! incline run     <file.ir> [--entry main] [--input N] [--jit] [COMMON]
//! incline compile <file.ir> [--entry main] [--input N] [--inliner NAME] [--explain]
//!                           [--trace] [--trace-json FILE]
//! incline bench   <benchmark-name> [--input N] [COMMON]
//! incline server  [--tenants N] [--seed N] [--requests N] [COMMON]
//! incline dot     <file.ir> [--entry main] [--optimize]
//! incline list-benchmarks
//! ```
//!
//! `COMMON` is the shared flag surface parsed by [`incline::cli::CommonOpts`]
//! — identical across `run`, `bench`, and `server`:
//!
//! ```text
//! [--inliner NAME] [--trace] [--trace-json FILE] [--no-deopt]
//! [--compile-threads N] [--pipelined] [--no-trial-cache]
//! [--cache-budget BYTES] [--eviction POLICY]
//! [--icache-capacity BYTES] [--icache-scale BYTES]
//! [--snapshot-in FILE] [--snapshot-merge FILE ...] [--snapshot-out FILE]
//! [--replay eager|seed]
//! ```
//!
//! Inliner names: `incremental` (default), `greedy`, `c2`, `none`.
//!
//! `--snapshot-out` writes the run's profiles and compile decisions as a
//! versioned JSONL snapshot; `--snapshot-in` loads one before the first
//! iteration, eliminating warmup. `--snapshot-merge` (repeatable, mutually
//! exclusive with `--snapshot-in`) merges N replica snapshots — profile
//! union, decision majority vote, support check — before applying the
//! result like a single snapshot. `--replay eager` (default) recompiles the
//! snapshot's method set up front through the normal broker path; `--replay
//! seed` only pre-warms the hotness counters and lets decisions re-derive.
//! Stale, truncated or corrupt snapshots fall back to a cold start — never
//! an error.

use std::process::ExitCode;

use incline::cli::{flag, opt_value, CommonOpts};
use incline::prelude::*;
use incline::snapshot::{FileStore, Snapshot, SnapshotIo, SnapshotStore};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "print" => cmd_print(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "compile" => cmd_compile(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "server" => cmd_server(&args[1..]),
        "dot" => cmd_dot(&args[1..]),
        "list-benchmarks" => {
            for w in incline::workloads::all_benchmarks() {
                println!("{:<14} {}", w.name, w.suite.label());
            }
            for w in incline::workloads::extra_benchmarks() {
                println!("{:<14} extra", w.name);
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
incline — optimization-driven incremental inline substitution (CGO'19)

USAGE:
  incline print   <file.ir> [--optimize]
  incline run     <file.ir> [--entry main] [--input N] [--jit] [COMMON]
  incline compile <file.ir> [--entry main] [--input N] [--inliner NAME] [--explain]
                            [--trace] [--trace-json FILE]
  incline bench   <benchmark-name> [--input N] [COMMON]
  incline server  [--tenants N] [--seed N] [--requests N] [COMMON]
  incline dot     <file.ir> [--entry main] [--optimize]
  incline list-benchmarks

COMMON (identical across run, bench, server):
  [--inliner NAME] [--trace] [--trace-json FILE] [--no-deopt]
  [--compile-threads N] [--pipelined] [--no-trial-cache]
  [--cache-budget BYTES] [--eviction POLICY]
  [--icache-capacity BYTES] [--icache-scale BYTES]
  [--snapshot-in FILE] [--snapshot-merge FILE ...] [--snapshot-out FILE]
  [--replay eager|seed]

Inliners: incremental (default), greedy, c2, none.
Server: a seeded multi-tenant serving simulation (bursty arrivals, per-tenant
phase flips) printing request-latency and mutator-stall tails per tenant.
Tracing: --trace streams compile events to stderr; --trace-json FILE writes JSONL.
Deoptimization is on by default for run/bench: hot typeswitches may speculate
with uncommon traps, deoptimize, and recompile. --no-deopt restricts compiled
code to the always-correct virtual fallback.
Broker: --compile-threads N sizes the background worker pool (0 = compile on
the mutator thread); --pipelined installs at safepoints while the mutator
keeps interpreting (INCLINE_COMPILE_THREADS sets the pool from the env).
--no-trial-cache disables deep-inlining-trial memoization (results are
byte-identical either way; the cache only speeds compilation up).
Code cache: --cache-budget BYTES bounds installed code (0 = unbounded,
the default); --eviction picks the victim policy (lru or hotness).
--icache-capacity / --icache-scale tune the cost model's instruction-cache
pressure curve.
Snapshots: --snapshot-out FILE persists profiles + compile decisions after
the run; --snapshot-in FILE replays them before the first iteration
(--replay eager recompiles the decided set up front, --replay seed only
pre-warms hotness counters). --snapshot-merge FILE (repeatable, exclusive
with --snapshot-in) merges N divergent replica snapshots deterministically:
profile histograms union with summed counts, compile decisions go to a
majority vote (ties broken by observed hotness), and decisions the merged
profile no longer supports age out. Corrupt or stale snapshots (and
replicas) fall back to a cold start, counted in the compilation report.";

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = incline::ir::parse::parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
    for m in program.method_ids() {
        incline::ir::verify::verify(&program, program.method(m))
            .map_err(|e| format!("{path}: method `{}`: {e}", program.method(m).name))?;
    }
    Ok(program)
}

fn entry_of(program: &Program, args: &[String]) -> Result<incline::ir::MethodId, String> {
    let name = opt_value(args, "--entry").unwrap_or("main");
    program
        .function_by_name(name)
        .ok_or_else(|| format!("no function `{name}`"))
}

fn print_snapshot_stats(stats: &SnapshotStats) {
    if *stats == SnapshotStats::default() {
        return;
    }
    println!(
        "snapshot: {} loaded, {} fallbacks, {} replayed compiles, {} seeded methods, \
         {} written, {} write failures, {} merged, {} aged out, {} poisoned",
        stats.loaded,
        stats.fallbacks,
        stats.replayed_compiles,
        stats.seeded_methods,
        stats.written,
        stats.write_failures,
        stats.merged,
        stats.aged_out,
        stats.poisoned
    );
}

fn cmd_print(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.ir>")?;
    let mut program = load(path)?;
    if flag(args, "--optimize") {
        let snapshot = program.clone();
        for m in snapshot.method_ids() {
            let mut g = snapshot.method(m).graph.clone();
            let stats = incline::opt::optimize(&snapshot, &mut g);
            if stats.any() {
                eprintln!("# {}: {:?}", snapshot.method(m).name, stats);
            }
            program.define_method(m, g);
        }
    }
    print!("{}", incline::ir::print::program_str(&program));
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.ir>")?;
    let opts = CommonOpts::parse(args)?;
    let program = load(path)?;
    let entry = entry_of(&program, args)?;
    let input: i64 = opt_value(args, "--input")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--input: {e}"))?;
    let jit = flag(args, "--jit");
    let config = VmConfig {
        jit,
        ..opts.vm_config(5, true)
    };
    let mut vm = Machine::new(&program, opts.make_inliner()?, config);
    let trace = opts.trace_out()?;
    if let Some(sink) = trace.sink() {
        vm.set_trace_sink(sink);
    }
    if let Some(p) = &opts.snapshot_in {
        match FileStore::new(p.as_str()).read() {
            Ok(bytes) => {
                vm.load_snapshot_or_cold(&bytes);
            }
            Err(e) => vm.note_snapshot_fallback(&e.to_string()),
        }
    }
    if !opts.snapshot_merge.is_empty() {
        let mut replicas = Vec::new();
        for p in &opts.snapshot_merge {
            match FileStore::new(p.as_str()).read() {
                Ok(bytes) => match Snapshot::from_bytes(&bytes) {
                    Ok(s) => replicas.push(s),
                    Err(e) => vm.note_snapshot_fallback(&e.to_string()),
                },
                Err(e) => vm.note_snapshot_fallback(&e.to_string()),
            }
        }
        vm.load_merged_or_cold(&replicas);
    }
    let runs = if jit { 8 } else { 1 };
    let mut last = None;
    for _ in 0..runs {
        last = Some(
            vm.run(entry, vec![Value::Int(input)])
                .map_err(|e| e.to_string())?,
        );
    }
    if let Some(p) = &opts.snapshot_out {
        let snap = vm.snapshot();
        let bytes = snap.to_bytes();
        match FileStore::new(p.as_str()).write(&bytes) {
            Ok(()) => vm.note_snapshot_written(
                snap.methods.len() as u64,
                snap.decisions.len() as u64,
                bytes.len() as u64,
            ),
            Err(_) => vm.note_snapshot_write_failed(),
        }
    }
    let out = last.expect("ran at least once");
    print!("{}", out.output);
    println!("=> {:?}", out.value);
    println!(
        "cycles: {} exec + {} compile; {} methods compiled, {} code bytes",
        out.exec_cycles,
        out.compile_cycles,
        vm.compilations(),
        vm.installed_bytes()
    );
    print_snapshot_stats(&vm.snapshot_stats());
    trace.finish()
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.ir>")?;
    let opts = CommonOpts::parse(args)?;
    let program = load(path)?;
    let entry = entry_of(&program, args)?;
    let input: i64 = opt_value(args, "--input")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--input: {e}"))?;

    // Gather profiles by interpreting the entry once.
    let mut vm = Machine::new(
        &program,
        Box::new(NoInline),
        VmConfig {
            jit: false,
            ..VmConfig::default()
        },
    );
    vm.run(entry, vec![Value::Int(input)])
        .map_err(|e| format!("profiling run: {e}"))?;
    let profiles = vm.profiles().clone();
    let cx = CompileCx::new(&program, &profiles);

    // Optional structured tracing: JSONL to a file, or one-liners to
    // stderr (the replacement for the old INCLINE_TRACE env var).
    let json_path = opts.trace_json.as_deref();
    let json_sink = match json_path {
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            Some(JsonlSink::new(std::io::BufWriter::new(f)))
        }
        None => None,
    };
    let stderr_sink = StderrSink;
    let cx = match (&json_sink, opts.trace) {
        (Some(sink), _) => cx.with_trace(sink),
        (None, true) => cx.with_trace(&stderr_sink),
        (None, false) => cx,
    };

    if flag(args, "--explain") {
        if opts.inliner != "incremental" {
            return Err("--explain requires the incremental inliner".to_string());
        }
        let (out, explain) = IncrementalInliner::new()
            .compile_explain(entry, &cx)
            .map_err(|e| e.to_string())?;
        println!("=== call tree per round ===\n{explain}");
        println!(
            "=== compiled IR ===\n{}",
            incline::ir::print::graph_str(&program, &out.graph)
        );
        println!("stats: {:?}", out.stats);
    } else {
        let inliner = opts.make_inliner()?;
        let out = inliner.compile(entry, &cx).map_err(|e| e.to_string())?;
        println!("{}", incline::ir::print::graph_str(&program, &out.graph));
        eprintln!("stats: {:?}", out.stats);
    }
    if let Some(sink) = json_sink {
        use std::io::Write as _;
        let mut w = sink.into_inner();
        w.flush().map_err(|e| e.to_string())?;
        eprintln!("trace written to {}", json_path.expect("path set"));
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.ir>")?;
    let program = load(path)?;
    let entry = entry_of(&program, args)?;
    let mut g = program.method(entry).graph.clone();
    if flag(args, "--optimize") {
        incline::opt::optimize(&program, &mut g);
    }
    print!(
        "{}",
        incline::ir::dot::graph_to_dot(&program, &g, &program.method(entry).name)
    );
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("missing <benchmark-name>")?;
    let opts = CommonOpts::parse(args)?;
    let w = incline::workloads::by_name(name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (see `incline list-benchmarks`)"))?;
    let input: i64 = match opt_value(args, "--input") {
        Some(v) => v.parse().map_err(|e| format!("--input: {e}"))?,
        None => w.input,
    };
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(input)],
        iterations: w.iterations,
    };
    let mut session = RunSession::new(&w.program, spec)
        .inliner(opts.make_inliner()?)
        .config(opts.vm_config(5, true));
    if let Some(p) = &opts.snapshot_in {
        session = session.snapshot_in(p.as_str());
    }
    if !opts.snapshot_merge.is_empty() {
        session = session.snapshot_merge(
            opts.snapshot_merge
                .iter()
                .map(|p| SnapshotIo::from(p.as_str()))
                .collect(),
        );
    }
    if let Some(p) = &opts.snapshot_out {
        session = session.snapshot_out(p.as_str());
    }
    let trace = opts.trace_out()?;
    if let Some(sink) = trace.sink() {
        session = session.trace(sink);
    }
    let r = session.run().map_err(|e| e.to_string())?;
    trace.finish()?;
    println!("benchmark: {} ({})", w.name, w.suite.label());
    println!("per-iteration cycles: {:?}", r.per_iteration);
    println!(
        "steady state: {:.0} ± {:.0} cycles; code {} bytes; {} compilations",
        r.steady_state, r.std_dev, r.installed_bytes, r.compilations
    );
    println!(
        "compile: {} cycles total, {} stalling the mutator",
        r.compile_cycles, r.stall_cycles
    );
    println!(
        "warmup: {} iterations ({} cycles) to within 5% of steady state",
        r.warmup_within(0.05),
        r.warmup_cycles_within(0.05)
    );
    println!("answer digest: {:#018x}", r.answer_digest());
    if r.bailouts.total() > 0 {
        println!("bailouts: {:?}", r.bailouts);
    }
    if r.bailouts.deopts > 0 {
        println!(
            "deopt: {} deopts, {} invalidations, {} recompiles, {} pinned",
            r.bailouts.deopts, r.bailouts.invalidations, r.bailouts.recompiles, r.bailouts.pinned
        );
    }
    if r.cache.evictions > 0 || r.cache.admission_rejections > 0 {
        println!(
            "cache: {} evictions, {} admission rejections, {} degraded admissions, \
             {} re-tiered, {} aged, high water {} bytes",
            r.cache.evictions,
            r.cache.admission_rejections,
            r.cache.degraded_admissions,
            r.cache.re_tiered,
            r.cache.aged,
            r.cache.high_water_bytes
        );
    }
    print_snapshot_stats(&r.snapshot);
    Ok(())
}

fn cmd_server(args: &[String]) -> Result<(), String> {
    let opts = CommonOpts::parse(args)?;
    let tenants: usize = opt_value(args, "--tenants")
        .unwrap_or("6")
        .parse()
        .map_err(|e| format!("--tenants: {e}"))?;
    let seed: u64 = opt_value(args, "--seed")
        .unwrap_or("23")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let requests: usize = opt_value(args, "--requests")
        .unwrap_or("600")
        .parse()
        .map_err(|e| format!("--requests: {e}"))?;
    let mix = incline::workloads::tenants::build(seed, tenants);
    let spec = ServerSpec {
        requests,
        ..ServerSpec::default()
    };
    let mut session = ServerSession::new(
        &mix.program,
        incline::bench::server::tenant_specs(&mix),
        spec,
    )
    .inliner(opts.make_inliner()?)
    .config(opts.vm_config(4, false));
    if let Some(p) = &opts.snapshot_in {
        session = session.snapshot_in(p.as_str());
    }
    if !opts.snapshot_merge.is_empty() {
        session = session.snapshot_merge(
            opts.snapshot_merge
                .iter()
                .map(|p| SnapshotIo::from(p.as_str()))
                .collect(),
        );
    }
    if let Some(p) = &opts.snapshot_out {
        session = session.snapshot_out(p.as_str());
    }
    let trace = opts.trace_out()?;
    if let Some(sink) = trace.sink() {
        session = session.trace(sink);
    }
    let report = session.serve().map_err(|e| e.to_string())?;
    trace.finish()?;
    println!(
        "server: {} requests over {} tenants (seed {seed}), {} cycles total",
        report.requests,
        report.tenants.len(),
        report.total_cycles
    );
    println!(
        "latency: p50 {} p99 {} p999 {} max {} (mean {:.0})",
        report.latency.p50,
        report.latency.p99,
        report.latency.p999,
        report.latency.max,
        report.latency.mean
    );
    println!(
        "stall:   p50 {} p99 {} p999 {} worst pause {}",
        report.stall.p50, report.stall.p99, report.stall.p999, report.stall.max
    );
    println!(
        "fairness {:.4}; max queue depth {}; {} compilations, {} code bytes",
        report.fairness, report.max_queue_depth, report.compilations, report.installed_bytes
    );
    if report.cache.evictions > 0 || report.cache.admission_rejections > 0 {
        println!(
            "cache: {} evictions, {} admission rejections, {} re-tiered, high water {} bytes",
            report.cache.evictions,
            report.cache.admission_rejections,
            report.cache.re_tiered,
            report.cache.high_water_bytes
        );
    }
    print_snapshot_stats(&report.snapshot);
    for t in &report.tenants {
        println!(
            "  {:<14} {:>4} requests ({} failed)  latency p50 {:>6} p99 {:>7} | stall p99 {:>6}",
            t.name, t.requests, t.failed, t.latency.p50, t.latency.p99, t.stall.p99
        );
    }
    Ok(())
}
