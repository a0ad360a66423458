//! The four workloads: what each sets up, what one job runs, and how each
//! job's answer is checked against the interpreted tier.
//!
//! Why each workload and program was chosen is recorded in the README
//! next to this crate.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use incline_bench::server::{standard_mix, standard_spec, standard_vm, tenant_specs};
use incline_bench::{default_vm, Config};
use incline_ir::parse::parse_program;
use incline_ir::print::{graph_str, program_str};
use incline_ir::verify::verify;
use incline_ir::{MethodId, Program};
use incline_vm::snapshot::fnv1a;
use incline_vm::{
    BenchResult, BenchSpec, CompileCx, CompileOutcome, EvictionPolicy, Inliner, InstallPolicy,
    Machine, MemoryStore, MergePolicy, NoInline, RunOutcome, RunSession, ServerReport,
    ServerSession, ServerSpec, Snapshot, SnapshotIo, Value, VmConfig,
};
use incline_workloads::tenants::TenantMix;
use incline_workloads::{generate, GenConfig, Workload};

use crate::calibrate::Stopwatch;
use crate::figures::{FigureRow, Figures};
use crate::layers::Acc;
use crate::probe::{nanos, Probe, TimedInliner};
use crate::summary::{split_iterations, IterSample};

/// Paper programs whose compilation took 54–81% of session wall.
pub const COMPILE_HEAVY: [&str; 8] = [
    "batik", "fop", "jython", "pmd", "xalan", "scalac", "scaladoc", "dec-tree",
];
/// Paper programs whose compilation took 6–15% of session wall.
pub const EXEC_HEAVY: [&str; 7] = [
    "luindex",
    "lusearch",
    "factorie",
    "kiama",
    "scalap",
    "scalariform",
    "scalatest",
];
/// Arrival-schedule sets per `fleet_server` run. The seed changes how much
/// work a schedule asks for: across runs, job time followed allocation at
/// a correlation of 0.86–0.97, and with 16 sets `job_ms.p50` spread by
/// 0.078 over ten seeds. More sets average more of it out.
pub const FLEET_SCHEDULES: u64 = 32;
/// Requests per serve: `standard_spec()` serves 600, which makes a job
/// too long for a run to hold the 100 jobs a p90 needs.
pub const FLEET_REQUESTS: usize = 400;
/// Cold replica serves per `fleet_server` job.
pub const FLEET_REPLICAS: u64 = 2;
/// Generated programs per `ir_compile` run.
pub const IR_CORPUS: u64 = 256;
/// Entry argument of the `ir_compile` profiling run (the CLI default).
pub const IR_INPUT: i64 = 10;

/// The workloads by name.
pub const NAMES: [&str; 4] = ["compile_heavy", "exec_heavy", "fleet_server", "ir_compile"];

/// Synchronous compilation under the figure harness's VM configuration.
fn paper_vm() -> VmConfig {
    VmConfig {
        compile_threads: 0,
        ..default_vm()
    }
}

/// The interpreted tier: no JIT, so answers never come from compiled code.
fn interp_vm(base: VmConfig) -> VmConfig {
    VmConfig {
        jit: false,
        compile_threads: 0,
        ..base
    }
}

fn fleet_vm() -> VmConfig {
    standard_vm(InstallPolicy::Safepoint, EvictionPolicy::default(), 0)
}

/// The paper inliner, timed from outside when a layer probe is attached.
fn paper_inliner(probe: Option<&Arc<Probe>>) -> Box<dyn Inliner> {
    match probe {
        Some(p) => Box::new(TimedInliner::new(Config::paper().build(), Arc::clone(p))),
        None => Config::paper().build(),
    }
}

/// One unit of work a job runs.
enum Unit {
    Paper {
        workload: Box<Workload>,
        reference: u64,
        figure: FigureRow,
    },
    Fleet {
        mix: Arc<TenantMix>,
        /// Replica specs first, the warm serve's spec last.
        specs: Vec<ServerSpec>,
        /// Per serve, the interpreted tier's per-tenant digests.
        reference: Vec<Vec<u64>>,
    },
    Ir {
        text: String,
        entry: String,
        reference: u64,
    },
}

/// What a job produced, before its answer is checked.
pub enum Ran {
    Paper(BenchResult, u64, u64),
    Fleet(Vec<ServerReport>, Vec<Arc<MemoryStore>>),
    Ir(Program, MethodId, CompileOutcome),
}

/// Deterministic (modeled) observables of one unit. Every job of a unit,
/// traced or not, must reproduce them exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Modeled {
    /// `BenchResult::steady_state` (paper programs).
    pub steady: Option<f64>,
    /// `BenchResult::warmup_cycles_within(0.05)` (paper programs).
    pub warmup: Option<u64>,
    /// Modeled compile cycles.
    pub compile_cycles: Option<u64>,
    /// Modeled installed code bytes.
    pub code_bytes: Option<u64>,
    /// Warm serve latency p99 (fleet).
    pub latency_p99: Option<u64>,
    /// Warm serve stall p99 (fleet).
    pub stall_p99: Option<u64>,
    /// FNV-1a of the whole deterministic result.
    pub fingerprint: u64,
}

/// The generator seed of one unit, hashed from the run seed and the
/// unit's indices. Contiguous ranges of `Rng64` seeds gave correlated
/// arrival schedules: every unit of one run seed drew more work than every
/// unit of the next.
fn unit_seed(parts: &[u64]) -> u64 {
    let text: Vec<String> = parts.iter().map(u64::to_string).collect();
    fnv1a(text.join("/").as_bytes())
}

fn fingerprint(debug: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{debug:?}").as_bytes())
}

/// A workload's inputs and reference answers.
pub struct Setup {
    units: Vec<Unit>,
    /// Host nanoseconds spent in `incline_workloads::generate`.
    pub generate_ns: u64,
}

impl Setup {
    /// Builds the inputs of `workload` from `seed` and computes every
    /// reference answer on the interpreted tier. `root` holds the
    /// checked-in figures.
    pub fn build(workload: &str, seed: u64, root: &Path) -> Result<Setup, String> {
        match workload {
            "compile_heavy" => paper_setup(&COMPILE_HEAVY, root),
            "exec_heavy" => paper_setup(&EXEC_HEAVY, root),
            "fleet_server" => fleet_setup(seed),
            "ir_compile" => ir_setup(seed),
            other => Err(format!(
                "unknown workload `{other}` (expected one of {NAMES:?})"
            )),
        }
    }

    /// Number of units a pass over the workload runs.
    pub fn units(&self) -> usize {
        self.units.len()
    }

    /// Runs one job of unit `u`: the part the job's host time covers.
    /// `watch` is timing the job; long jobs split it between their parts.
    pub fn run(
        &self,
        u: usize,
        acc: Option<&mut Acc>,
        watch: &mut Stopwatch,
    ) -> Result<Ran, String> {
        match &self.units[u] {
            Unit::Paper { workload, .. } => match acc {
                None => paper_session(workload),
                Some(acc) => paper_session_traced(workload, acc),
            },
            Unit::Fleet { mix, specs, .. } => fleet_job(mix, specs, acc, watch),
            Unit::Ir { text, entry, .. } => ir_job(text, entry, acc),
        }
    }

    /// Checks a job's answers against the references and returns its
    /// modeled observables. Runs outside the job's timed window.
    pub fn check(&self, u: usize, ran: Ran, acc: Option<&mut Acc>) -> Result<Modeled, String> {
        match (&self.units[u], ran) {
            (
                Unit::Paper {
                    workload,
                    reference,
                    figure,
                },
                Ran::Paper(result, hits, misses),
            ) => check_paper(&workload.name, *reference, figure, &result, hits, misses),
            (Unit::Fleet { reference, .. }, Ran::Fleet(reports, stores)) => {
                if let Some(acc) = acc {
                    time_snapshots(&stores, acc)?;
                }
                check_fleet(reference, &reports)
            }
            (Unit::Ir { reference, .. }, Ran::Ir(program, entry, outcome)) => {
                check_ir(*reference, program, entry, outcome)
            }
            _ => Err("job result does not match its unit".to_string()),
        }
    }
}

// ---- paper programs (compile_heavy, exec_heavy) ------------------------------

fn paper_setup(names: &[&str], root: &Path) -> Result<Setup, String> {
    let figures = Figures::read(root)?;
    let mut all = incline_workloads::all_benchmarks();
    let mut units = Vec::with_capacity(names.len());
    for &name in names {
        let at = all
            .iter()
            .position(|w| w.name == name)
            .ok_or_else(|| format!("no paper program {name}"))?;
        let workload = all.swap_remove(at);
        let figure = figures.row(name)?;
        let spec = BenchSpec {
            entry: workload.entry,
            args: vec![Value::Int(workload.input)],
            iterations: 1,
        };
        let reference = RunSession::new(&workload.program, spec)
            .config(interp_vm(default_vm()))
            .run()
            .map_err(|e| format!("{name} interpreted: {e}"))?
            .answer_digest();
        units.push(Unit::Paper {
            workload: Box::new(workload),
            reference,
            figure,
        });
    }
    Ok(Setup {
        units,
        generate_ns: 0,
    })
}

fn paper_spec(w: &Workload) -> BenchSpec {
    BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(w.input)],
        iterations: w.iterations,
    }
}

/// The figure harness's session, through `RunSession::run_with_report`.
fn paper_session(w: &Workload) -> Result<Ran, String> {
    let (result, report) = RunSession::new(&w.program, paper_spec(w))
        .inliner(Config::paper().build())
        .config(paper_vm())
        .run_with_report()
        .map_err(|e| format!("{}: {e}", w.name))?;
    Ok(Ran::Paper(result, report.trial_hits, report.trial_misses))
}

/// The same session driven through `Machine::run` one repetition at a
/// time, so each repetition's host time can be split by tier. The result
/// is assembled exactly as `RunSession` assembles it; the determinism
/// check compares the two.
fn paper_session_traced(w: &Workload, acc: &mut Acc) -> Result<Ran, String> {
    let probe = Probe::new();
    let spec = paper_spec(w);
    let mut vm = Machine::new(&w.program, paper_inliner(Some(&probe)), paper_vm());
    let mut per_iteration = Vec::with_capacity(spec.iterations);
    let mut stall_per_iteration = Vec::with_capacity(spec.iterations);
    let mut iters = Vec::with_capacity(spec.iterations);
    let mut queue_max = 0u64;
    let mut last: Option<RunOutcome> = None;
    for _ in 0..spec.iterations {
        let compiled = !vm.compiled_methods().is_empty();
        let wall_before = vm.report().compile_wall_nanos;
        let started = Instant::now();
        let out = vm
            .run(spec.entry, spec.args.clone())
            .map_err(|e| format!("{}: {e}", w.name))?;
        let ns = nanos(started.elapsed());
        iters.push(IterSample {
            ns,
            compile_ns: vm.report().compile_wall_nanos - wall_before,
            cycles: out.exec_cycles,
            compiled,
        });
        queue_max = queue_max.max(vm.pending_compiles() as u64);
        per_iteration.push(out.total_cycles());
        stall_per_iteration.push(out.stall_cycles);
        last = Some(out);
    }
    let n = spec.iterations;
    let window = BenchResult::steady_window(n);
    let steady = &per_iteration[n - window..];
    let mean = steady.iter().copied().sum::<u64>() as f64 / window as f64;
    let var = steady
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / window as f64;
    let last = last.ok_or_else(|| format!("{}: zero iterations", w.name))?;
    let result = BenchResult {
        per_iteration,
        steady_state: mean,
        std_dev: var.sqrt(),
        installed_bytes: vm.installed_bytes(),
        compilations: vm.compilations(),
        compile_cycles: vm.total_compile_cycles(),
        stall_cycles: vm.total_stall_cycles(),
        final_output: last.output.lines().to_vec(),
        final_value: last.value.map(|v| format!("{v:?}")),
        bailouts: vm.bailouts(),
        stall_per_iteration,
        cache: vm.cache_stats(),
        snapshot: vm.snapshot_stats(),
    };
    let report = vm.report();
    let (interp, compiled) = split_iterations(&iters);
    acc.add("interp_ns", interp.ns as f64);
    acc.add("interp_cycles", interp.cycles as f64);
    acc.add("compiled_ns", compiled.ns as f64);
    acc.add("compiled_cycles", compiled.cycles as f64);
    acc.add("broker_wall_ns", report.compile_wall_nanos as f64);
    acc.add("broker_requests", report.compile_requests as f64);
    acc.max("queue_max", queue_max as f64);
    acc.add("trial_hits", report.trial_hits as f64);
    acc.add("trial_misses", report.trial_misses as f64);
    acc.add_machine(&report.bailouts, &report.cache);
    acc.add_compile(&probe.totals())?;
    Ok(Ran::Paper(result, report.trial_hits, report.trial_misses))
}

fn check_paper(
    name: &str,
    reference: u64,
    figure: &FigureRow,
    r: &BenchResult,
    hits: u64,
    misses: u64,
) -> Result<Modeled, String> {
    if r.answer_digest() != reference {
        return Err(format!("{name}: answer differs from the interpreted tier"));
    }
    let seen = FigureRow {
        answer: format!("{:016x}", r.answer_digest()),
        compile_cycles: r.compile_cycles,
        compilations: r.compilations,
        trial_hits: hits,
        trial_misses: misses,
        warmup_cycles: r.warmup_cycles_within(0.05),
        steady_state: format!("{:.1}", r.steady_state),
    };
    if &seen != figure {
        return Err(format!(
            "{name}: session differs from the checked-in figures: {seen:?} vs {figure:?}"
        ));
    }
    Ok(Modeled {
        steady: Some(r.steady_state),
        warmup: Some(seen.warmup_cycles),
        compile_cycles: Some(r.compile_cycles),
        code_bytes: Some(r.installed_bytes),
        latency_p99: None,
        stall_p99: None,
        fingerprint: fingerprint(r),
    })
}

// ---- fleet_server ------------------------------------------------------------

fn fleet_setup(seed: u64) -> Result<Setup, String> {
    let mix = Arc::new(standard_mix());
    let serves = FLEET_REPLICAS + 1;
    let mut units = Vec::new();
    for j in 0..FLEET_SCHEDULES {
        // The seed draws the arrival schedule of every serve; replicas get
        // their own schedules so their snapshots diverge before the merge.
        let specs: Vec<ServerSpec> = (0..serves)
            .map(|r| ServerSpec {
                seed: unit_seed(&[seed, j, r]),
                requests: FLEET_REQUESTS,
                ..standard_spec()
            })
            .collect();
        let mut reference = Vec::with_capacity(specs.len());
        for spec in &specs {
            let report = ServerSession::new(&mix.program, tenant_specs(&mix), spec.clone())
                .config(interp_vm(fleet_vm()))
                .serve()
                .map_err(|e| format!("interpreted serve: {e}"))?;
            reference.push(report.tenants.iter().map(|t| t.digest).collect());
        }
        units.push(Unit::Fleet {
            mix: Arc::clone(&mix),
            specs,
            reference,
        });
    }
    Ok(Setup {
        units,
        generate_ns: 0,
    })
}

/// Cold replica serves, each writing a snapshot, then one warm serve
/// merging them. The job is timed serve by serve.
fn fleet_job(
    mix: &TenantMix,
    specs: &[ServerSpec],
    acc: Option<&mut Acc>,
    watch: &mut Stopwatch,
) -> Result<Ran, String> {
    let probe = acc.as_ref().map(|_| Probe::new());
    let (replica_specs, warm_spec) = specs.split_at(specs.len() - 1);
    let mut reports = Vec::with_capacity(specs.len());
    let mut stores = Vec::with_capacity(replica_specs.len());
    let mut serve_ns = 0u64;
    for spec in replica_specs {
        let store = Arc::new(MemoryStore::new());
        let started = Instant::now();
        let report = ServerSession::new(&mix.program, tenant_specs(mix), spec.clone())
            .inliner(paper_inliner(probe.as_ref()))
            .config(fleet_vm())
            .snapshot_out(Arc::clone(&store))
            .serve()
            .map_err(|e| format!("replica serve: {e}"))?;
        serve_ns += nanos(started.elapsed());
        reports.push(report);
        stores.push(store);
        watch.split();
    }
    let replicas: Vec<SnapshotIo> = stores
        .iter()
        .map(|s| SnapshotIo::from(Arc::clone(s)))
        .collect();
    let started = Instant::now();
    let warm = ServerSession::new(&mix.program, tenant_specs(mix), warm_spec[0].clone())
        .inliner(paper_inliner(probe.as_ref()))
        .config(fleet_vm())
        .snapshot_merge(replicas)
        .serve()
        .map_err(|e| format!("warm serve: {e}"))?;
    serve_ns += nanos(started.elapsed());
    reports.push(warm);
    if let (Some(acc), Some(probe)) = (acc, probe) {
        acc.add("serve_ns", serve_ns as f64);
        for r in &reports {
            acc.add("requests", r.requests as f64);
            acc.max("queue_max", r.max_queue_depth as f64);
            acc.add_machine(&r.bailouts, &r.cache);
        }
        let warm = reports.last().expect("warm serve ran");
        acc.add("replayed", warm.snapshot.replayed_compiles as f64);
        let totals = probe.totals();
        acc.add("broker_requests", totals.calls as f64);
        acc.add("broker_wall_ns", totals.compile_ns as f64);
        acc.add_compile(&totals)?;
    }
    Ok(Ran::Fleet(reports, stores))
}

/// Times the benchmark's own `Snapshot` calls on the replicas' bytes:
/// the same decode and merge the warm serve performed, and the encode
/// each replica performed.
fn time_snapshots(stores: &[Arc<MemoryStore>], acc: &mut Acc) -> Result<(), String> {
    let mut decoded = Vec::with_capacity(stores.len());
    for store in stores {
        let bytes = store.bytes().ok_or("a replica wrote no snapshot")?;
        let started = Instant::now();
        let snap = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
        acc.add("decode_ns", nanos(started.elapsed()) as f64);
        let started = Instant::now();
        let again = snap.to_bytes();
        acc.add("encode_ns", nanos(started.elapsed()) as f64);
        if again != bytes {
            return Err("snapshot bytes do not round-trip".to_string());
        }
        acc.add("snapshot_bytes", bytes.len() as f64);
        decoded.push(snap);
    }
    let policy = MergePolicy::with_support(fleet_vm().hotness_threshold.max(1));
    let started = Instant::now();
    Snapshot::merge(&decoded, &policy).map_err(|e| e.to_string())?;
    acc.add("merge_ns", nanos(started.elapsed()) as f64);
    Ok(())
}

fn check_fleet(reference: &[Vec<u64>], reports: &[ServerReport]) -> Result<Modeled, String> {
    for (serve, (report, want)) in reports.iter().zip(reference).enumerate() {
        let got: Vec<u64> = report.tenants.iter().map(|t| t.digest).collect();
        if report.tenants.iter().any(|t| t.failed > 0) {
            return Err(format!("serve {serve}: failed requests"));
        }
        if &got != want {
            return Err(format!(
                "serve {serve}: tenant answers differ from the interpreted tier"
            ));
        }
    }
    let warm = reports.last().ok_or("no warm serve")?;
    Ok(Modeled {
        steady: None,
        warmup: None,
        compile_cycles: None,
        code_bytes: Some(warm.installed_bytes),
        latency_p99: Some(warm.latency.p99),
        stall_p99: Some(warm.stall.p99),
        fingerprint: fingerprint(&reports),
    })
}

// ---- ir_compile ----------------------------------------------------------------

fn ir_setup(seed: u64) -> Result<Setup, String> {
    let mut units = Vec::new();
    let mut generate_ns = 0u64;
    for j in 0..IR_CORPUS {
        let started = Instant::now();
        let w = generate(unit_seed(&[seed, j]), GenConfig::hardened());
        generate_ns += nanos(started.elapsed());
        let spec = BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(IR_INPUT)],
            iterations: 1,
        };
        let reference = RunSession::new(&w.program, spec)
            .config(interp_vm(default_vm()))
            .run()
            .map_err(|e| format!("corpus program {j} interpreted: {e}"))?
            .answer_digest();
        units.push(Unit::Ir {
            text: program_str(&w.program),
            entry: w.program.method(w.entry).name.clone(),
            reference,
        });
    }
    Ok(Setup { units, generate_ns })
}

/// The `incline compile <file.ir>` path: parse, verify every method,
/// profile once on the interpreted tier, compile the entry.
fn ir_job(text: &str, entry: &str, mut acc: Option<&mut Acc>) -> Result<Ran, String> {
    let started = Instant::now();
    let program = parse_program(text).map_err(|e| format!("parse: {e}"))?;
    let parsed = Instant::now();
    for m in program.method_ids() {
        verify(&program, program.method(m)).map_err(|e| format!("verify: {e}"))?;
    }
    let verified = Instant::now();
    let entry = program
        .function_by_name(entry)
        .ok_or_else(|| format!("no function `{entry}`"))?;
    let probe = acc.as_ref().map(|_| Probe::new());
    let (outcome, profiled, cycles) = {
        let mut vm = Machine::new(&program, Box::new(NoInline), interp_vm(default_vm()));
        let run = vm
            .run(entry, vec![Value::Int(IR_INPUT)])
            .map_err(|e| format!("profiling run: {e}"))?;
        let profiled = Instant::now();
        let cx = CompileCx::new(&program, vm.profiles());
        let outcome = paper_inliner(probe.as_ref())
            .compile(entry, &cx)
            .map_err(|e| format!("compile: {e}"))?;
        (outcome, profiled, run.exec_cycles)
    };
    if let (Some(acc), Some(probe)) = (acc.as_mut(), probe) {
        acc.add("parse_ns", nanos(parsed - started) as f64);
        acc.add("parse_bytes", text.len() as f64);
        acc.add("verify_ns", nanos(verified - parsed) as f64);
        acc.add("interp_ns", nanos(profiled - verified) as f64);
        acc.add("interp_cycles", cycles as f64);
        acc.add_compile(&probe.totals())?;
    }
    Ok(Ran::Ir(program, entry, outcome))
}

/// Runs the compiled entry graph on the interpreted tier: it must give
/// the generated program's interpreted answer.
fn check_ir(
    reference: u64,
    mut program: Program,
    entry: MethodId,
    outcome: CompileOutcome,
) -> Result<Modeled, String> {
    let cost = default_vm().cost;
    let modeled = Modeled {
        steady: None,
        warmup: None,
        compile_cycles: Some(cost.compile_cost(outcome.work_nodes)),
        code_bytes: Some(cost.code_bytes(outcome.graph.size())),
        latency_p99: None,
        stall_p99: None,
        fingerprint: fnv1a(
            format!("{}{:?}", graph_str(&program, &outcome.graph), outcome.stats).as_bytes(),
        ),
    };
    program.define_method(entry, outcome.graph);
    let spec = BenchSpec {
        entry,
        args: vec![Value::Int(IR_INPUT)],
        iterations: 1,
    };
    let answer = RunSession::new(&program, spec)
        .config(interp_vm(default_vm()))
        .run()
        .map_err(|e| format!("compiled graph: {e}"))?
        .answer_digest();
    if answer != reference {
        return Err("compiled graph's answer differs from the interpreted tier".to_string());
    }
    Ok(modeled)
}
