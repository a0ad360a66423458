//! Bounded code cache: budget enforcement, eviction policies, admission
//! control and graceful degradation, end to end.
//!
//! The contract under test (DESIGN.md §11): with a finite
//! `code_cache_budget` the installed-byte total never exceeds the budget
//! at any observable point, every policy picks victims deterministically,
//! admission control defers rather than blacklists, evicted methods
//! re-tier through the normal hotness path, and — the degenerate case —
//! `budget = 0` leaves every legacy behavior byte-identical, knobs and
//! all. Determinism is asserted wholesale across broker worker-pool
//! sizes, including the JSONL trace stream.

use std::sync::Arc;

use incline::prelude::*;
use incline::vm::BenchResult;
use incline::workloads::Workload;

fn pressure_workload() -> Workload {
    incline::workloads::by_name("cache_pressure").expect("extra workload exists")
}

/// Interpreted reference output (ground truth for graceful degradation:
/// whatever the cache does, results must not change).
fn reference(w: &Workload, input: i64) -> (Option<Value>, String) {
    let mut vm = Machine::new(
        &w.program,
        Box::new(NoInline),
        VmConfig {
            jit: false,
            ..VmConfig::default()
        },
    );
    let out = vm
        .run(w.entry, vec![Value::Int(input)])
        .expect("reference runs");
    (out.value, out.output.to_string())
}

fn budget_config(budget: u64, policy: EvictionPolicy, threads: usize) -> VmConfig {
    VmConfig {
        hotness_threshold: 2,
        compile_threads: threads,
        code_cache_budget: budget,
        eviction_policy: policy,
        ..VmConfig::default()
    }
}

fn bench_budget(w: &Workload, config: VmConfig) -> BenchResult {
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(w.input.min(48))],
        iterations: 8,
    };
    RunSession::new(&w.program, spec)
        .inliner(Box::new(IncrementalInliner::new()))
        .config(config)
        .run()
        .unwrap_or_else(|e| panic!("{}: benchmark failed: {e}", w.name))
}

#[test]
fn budget_is_never_exceeded_at_any_observable_point() {
    // The tentpole invariant, checked after every activation cycle for
    // every policy: installed bytes stay within the budget, and so does
    // the lifetime high-water mark.
    let w = pressure_workload();
    let input = w.input.min(48);
    let expected = reference(&w, input);
    for policy in EvictionPolicy::all() {
        for budget in [512u64, 3000] {
            let mut vm = Machine::new(
                &w.program,
                Box::new(IncrementalInliner::new()),
                budget_config(budget, policy, 0),
            );
            for cycle in 0..8 {
                let out = vm
                    .run(w.entry, vec![Value::Int(input)])
                    .unwrap_or_else(|e| panic!("budget {budget} under {policy}: {e}"));
                assert!(
                    vm.installed_bytes() <= budget,
                    "cycle {cycle}: {} bytes installed exceeds budget {budget} under {policy}",
                    vm.installed_bytes()
                );
                assert_eq!(out.value, expected.0, "results must not change");
                assert_eq!(out.output.to_string(), expected.1);
            }
            let stats = vm.cache_stats();
            assert!(
                stats.high_water_bytes <= budget,
                "high water {} exceeds budget {budget} under {policy}",
                stats.high_water_bytes
            );
            assert!(
                stats.evictions > 0,
                "a {budget}-byte budget must force evictions under {policy}"
            );
            assert_eq!(vm.report().cache, stats, "report must surface the stats");
        }
    }
}

#[test]
fn budget_zero_knobs_are_inert_on_all_workloads() {
    // budget = 0 is the compatibility contract: the whole BenchResult must
    // be byte-identical to the default configuration no matter how the
    // other cache knobs are set, on every paper and extra workload.
    let mut targets: Vec<Workload> = incline::workloads::all_benchmarks();
    targets.extend(incline::workloads::extra_benchmarks());
    for w in &targets {
        let spec = BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(w.input.min(8))],
            iterations: 6,
        };
        let base = VmConfig {
            hotness_threshold: 2,
            ..VmConfig::default()
        };
        let knobs = VmConfig {
            code_cache_budget: 0,
            eviction_policy: EvictionPolicy::HotnessDecay,
            cache_age_window: 1,
            ..base
        };
        let a = RunSession::new(&w.program, spec.clone())
            .inliner(Box::new(IncrementalInliner::new()))
            .config(base)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let b = RunSession::new(&w.program, spec)
            .inliner(Box::new(IncrementalInliner::new()))
            .config(knobs)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            a, b,
            "{}: cache knobs must be inert when the budget is 0",
            w.name
        );
        // The high-water gauge is passive accounting and ticks regardless
        // of budget; every *decision* counter must stay zero.
        let passive = CacheStats {
            high_water_bytes: a.cache.high_water_bytes,
            ..CacheStats::default()
        };
        assert_eq!(a.cache, passive, "{}: no cache decisions", w.name);
    }
}

/// A traced run: the full `BenchResult` plus the JSONL rendering of every
/// emitted compile event.
fn bench_traced(w: &Workload, config: VmConfig) -> (BenchResult, Vec<String>) {
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(w.input.min(48))],
        iterations: 8,
    };
    let sink = Arc::new(CollectingSink::new());
    let handle: Arc<dyn TraceSink> = sink.clone();
    let r = RunSession::new(&w.program, spec)
        .inliner(Box::new(IncrementalInliner::new()))
        .config(config)
        .trace(handle)
        .run()
        .unwrap_or_else(|e| panic!("{}: traced benchmark failed: {e}", w.name));
    let jsonl = sink.take().iter().map(|e| e.to_json()).collect();
    (r, jsonl)
}

#[test]
fn finite_budget_is_byte_identical_across_worker_pools() {
    // Evictions and admission decisions happen at install time on the
    // mutator in request-id order, so the worker-pool size must stay
    // invisible even under heavy cache churn: the whole BenchResult and
    // the whole JSONL trace stream, compared wholesale, per policy.
    let w = pressure_workload();
    for policy in EvictionPolicy::all() {
        let (reference, reference_jsonl) = bench_traced(&w, budget_config(3000, policy, 0));
        assert!(reference.cache.evictions > 0, "churn must be real");
        for threads in [1usize, 4] {
            let (r, jsonl) = bench_traced(&w, budget_config(3000, policy, threads));
            assert_eq!(
                reference, r,
                "BenchResult differs between compile_threads=0 and {threads} under {policy}"
            );
            assert_eq!(
                reference_jsonl, jsonl,
                "JSONL trace differs between compile_threads=0 and {threads} under {policy}"
            );
        }
    }
}

#[test]
fn evicted_methods_retier_through_the_normal_hotness_path() {
    let w = pressure_workload();
    let (r, jsonl) = bench_traced(&w, budget_config(3000, EvictionPolicy::Lru, 0));
    assert!(
        r.cache.re_tiered > 0,
        "cycling working set must re-heat evicted methods"
    );
    assert!(
        jsonl.iter().any(|l| l.contains("\"ev\":\"CodeEvicted\"")),
        "evictions must be traced"
    );
    assert!(
        jsonl.iter().any(|l| l.contains("\"ev\":\"ReTiered\"")),
        "re-tiering must be traced"
    );
}

#[test]
fn aging_floors_idle_methods_under_pressure() {
    let w = pressure_workload();
    let config = VmConfig {
        cache_age_window: 8,
        ..budget_config(3000, EvictionPolicy::HotnessDecay, 0)
    };
    let (r, jsonl) = bench_traced(&w, config);
    assert!(
        r.cache.aged > 0,
        "a cycling working set with an 8-tick window must age methods out"
    );
    assert!(
        jsonl.iter().any(|l| l.contains("\"ev\":\"MethodAged\"")),
        "aging must be traced"
    );
}

#[test]
fn tiny_budgets_degrade_gracefully_without_panics() {
    // Memory exhaustion: budgets below the smallest package must never
    // panic, livelock or change results — the VM simply stays (mostly)
    // interpreted and keeps deferring with backoff.
    let w = pressure_workload();
    let input = w.input.min(48);
    let expected = reference(&w, input);
    for policy in EvictionPolicy::all() {
        for budget in [4u64, 64, 256] {
            let mut vm = Machine::new(
                &w.program,
                Box::new(IncrementalInliner::new()),
                budget_config(budget, policy, 0),
            );
            for _ in 0..8 {
                let out = vm
                    .run(w.entry, vec![Value::Int(input)])
                    .unwrap_or_else(|e| panic!("budget {budget} under {policy}: {e}"));
                assert!(vm.installed_bytes() <= budget);
                assert_eq!(out.value, expected.0);
                assert_eq!(out.output.to_string(), expected.1);
            }
            assert!(
                vm.cache_stats().admission_rejections > 0,
                "a {budget}-byte budget must reject installs under {policy}"
            );
            assert_eq!(vm.blacklisted_methods().len(), 0, "deferral, not blacklist");
        }
    }
}

#[test]
fn admission_rejection_reasons_are_the_documented_vocabulary() {
    // A 64-byte budget fits no package at all (`no_evictable_victim`); on
    // scalariform a 512-byte budget under hotness also turns away a
    // candidate colder than the cheapest resident (`benefit_below_bar`).
    let mut reasons: Vec<&str> = Vec::new();
    for (name, budget) in [("cache_pressure", 64u64), ("scalariform", 512)] {
        let w = incline::workloads::by_name(name).expect("workload exists");
        let (r, jsonl) = bench_traced(&w, budget_config(budget, EvictionPolicy::HotnessDecay, 0));
        assert!(r.cache.admission_rejections > 0, "{name}: must reject");
        let before = reasons.len();
        reasons.extend(
            jsonl
                .iter()
                .filter(|l| l.contains("\"ev\":\"AdmissionRejected\""))
                .map(|l| {
                    if l.contains("\"reason\":\"no_evictable_victim\"") {
                        "no_evictable_victim"
                    } else if l.contains("\"reason\":\"benefit_below_bar\"") {
                        "benefit_below_bar"
                    } else {
                        panic!("undocumented admission-rejection reason in {l}")
                    }
                }),
        );
        assert!(
            reasons.len() > before,
            "{name}: rejections must be traced with reasons"
        );
    }
    assert!(
        reasons.contains(&"benefit_below_bar"),
        "the policy-score rejection must stay reachable end to end"
    );
}

#[test]
fn teardown_releases_every_byte_under_mixed_deopt_and_eviction() {
    // Regression for the accounting-drift hazard: after a run mixing
    // deoptimization-driven invalidation, pressure-driven eviction and a
    // forced eviction, invalidating everything must return the audited
    // accounting to exactly zero — every byte released exactly once.
    let w = incline::workloads::by_name("phase_change").expect("extra workload exists");
    let config = VmConfig {
        hotness_threshold: 2,
        deopt: true,
        code_cache_budget: 1024,
        eviction_policy: EvictionPolicy::Lru,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    vm.set_fault_plan(
        FaultPlan::new()
            .inject(0, FaultKind::ForceDeopt)
            .inject(1, FaultKind::ForceEvict),
    );
    for _ in 0..10 {
        vm.run(w.entry, vec![Value::Int(w.input)])
            .expect("run completes");
    }
    assert!(
        vm.bailouts().invalidations > 0 && vm.cache_stats().evictions > 0,
        "the scenario must actually mix invalidation and eviction"
    );
    for m in w.program.method_ids() {
        vm.invalidate_code(m);
    }
    assert_eq!(
        vm.installed_bytes(),
        0,
        "teardown must release every installed byte exactly once"
    );
}

#[test]
fn pipelined_installs_recheck_admission_at_the_safepoint() {
    // Safepoint-mode installs go through the same admission path on the
    // mutator; under a finite budget the mode stays deterministic and
    // within budget, and still beats the synchronous broker on stall.
    let w = pressure_workload();
    let pipelined = VmConfig {
        install_policy: InstallPolicy::Safepoint,
        ..budget_config(3000, EvictionPolicy::Lru, 4)
    };
    let a = bench_budget(&w, pipelined);
    let b = bench_budget(&w, pipelined);
    assert_eq!(a, b, "pipelined cache pressure must be reproducible");
    assert!(a.cache.evictions > 0);
    assert!(
        a.cache.high_water_bytes <= 3000,
        "safepoint installs must re-check the budget at install time"
    );
    let sync = bench_budget(&w, budget_config(3000, EvictionPolicy::Lru, 0));
    assert!(
        a.stall_cycles < sync.stall_cycles,
        "pipelining must still hide compile latency under cache pressure"
    );
}

#[test]
fn policies_are_observably_distinct_under_pressure() {
    // The two policies must actually disagree on victims somewhere. On
    // cache_pressure every group runs equally often, so decayed use count
    // orders residents exactly like recency and the policies coincide.
    // jython's call frequencies are skewed: hotness keeps its hot methods
    // resident, while LRU evicts them whenever a colder one ran later.
    let w = incline::workloads::by_name("jython").expect("paper workload exists");
    let lru = bench_budget(&w, budget_config(3000, EvictionPolicy::Lru, 0));
    let hot = bench_budget(&w, budget_config(3000, EvictionPolicy::HotnessDecay, 0));
    assert!(lru.cache.evictions > 0 && hot.cache.evictions > 0);
    assert!(
        hot.cache.evictions < lru.cache.evictions,
        "hotness must churn less than LRU on skewed frequencies: {:?} vs {:?}",
        hot.cache,
        lru.cache
    );
    assert_eq!(
        lru.final_output, hot.final_output,
        "policy choice must never change program semantics"
    );
}
