//! Allocation-regression gate: compiling and running every paper
//! workload under the tuned configuration (paper inliner, trial cache
//! on, synchronous broker) must stay within a checked-in per-workload
//! allocation budget.
//!
//! This test binary registers the in-repo counting allocator, so
//! [`incline_bench::compile::measure_cost`] observes real allocation
//! totals — the same protocol the `compile` bench bin uses to seed
//! `BENCH_compile.json`. Budgets are the measured totals with a 30%
//! margin: enough headroom for allocator-order jitter and small
//! legitimate growth, tight enough that a clone-heavy regression on the
//! inlining hot path (the thing the arena/trial-cache refactor removed)
//! trips the gate and names the offending workload.
//!
//! When an intentional change moves the totals, regenerate the table
//! from a fresh `BENCH_compile.json` (tuned `alloc_bytes` × 1.3).

use incline_bench::alloc::{counting_enabled, CountingAlloc};
use incline_bench::compile::measure_cost;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Per-workload allocation budgets in bytes (tuned run, 1.3× margin).
const BUDGETS: &[(&str, u64)] = &[
    ("avrora", 698_981),
    ("batik", 7_565_634),
    ("fop", 7_876_613),
    ("h2", 2_354_754),
    ("jython", 29_282_498),
    ("luindex", 776_115),
    ("lusearch", 1_009_652),
    ("pmd", 8_272_422),
    ("sunflow", 670_832),
    ("xalan", 7_879_493),
    ("actors", 2_301_467),
    ("apparat", 1_104_438),
    ("factorie", 260_571_661),
    ("kiama", 14_890_182),
    ("scalac", 16_995_861),
    ("scaladoc", 27_306_992),
    ("scalap", 10_850_554),
    ("scalariform", 13_384_362),
    ("scalatest", 1_204_969),
    ("scalaxb", 1_103_322),
    ("specs", 892_792),
    ("tmt", 2_074_943),
    ("gauss-mix", 50_925_609),
    ("dec-tree", 4_975_324),
    ("naive-bayes", 1_426_893),
    ("neo4j", 2_399_178),
    ("dotty", 1_401_254),
    ("stmbench7", 936_055),
];

#[test]
fn per_workload_allocations_stay_within_budget() {
    assert!(
        counting_enabled(),
        "counting allocator not registered — the budget test binary must \
         declare #[global_allocator] static ALLOC: CountingAlloc"
    );
    let benches = incline_workloads::all_benchmarks();
    assert_eq!(
        benches.len(),
        BUDGETS.len(),
        "budget table out of date: {} workloads, {} budgets — add the \
         missing rows from a fresh BENCH_compile.json",
        benches.len(),
        BUDGETS.len()
    );
    let mut over = Vec::new();
    for w in &benches {
        let budget = BUDGETS
            .iter()
            .find(|(name, _)| *name == w.name)
            .unwrap_or_else(|| panic!("no allocation budget for workload {}", w.name))
            .1;
        let cost = measure_cost(w, true);
        assert!(cost.alloc_bytes > 0, "{}: window observed nothing", w.name);
        if cost.alloc_bytes > budget {
            over.push(format!(
                "{}: allocated {} bytes, budget {} ({} calls, peak {})",
                w.name, cost.alloc_bytes, budget, cost.alloc_calls, cost.alloc_peak
            ));
        }
    }
    assert!(
        over.is_empty(),
        "allocation budget exceeded on {} workload(s):\n  {}",
        over.len(),
        over.join("\n  ")
    );
}
