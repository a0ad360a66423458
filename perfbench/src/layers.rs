//! Per-layer metrics of the traced run: named sums the traced jobs add
//! to, turned into per-job figures and shares of job wall time.

use std::collections::BTreeMap;

use incline_vm::{BailoutCounters, CacheStats};

use crate::probe::CompileTotals;
use crate::summary::{geomean, shares, TierTime};
use crate::workloads::Modeled;

/// Named sums (and maxima) over the traced jobs of one run.
#[derive(Clone, Debug, Default)]
pub struct Acc {
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
}

impl Acc {
    /// Adds `v` to the sum `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// Raises the maximum `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let m = self.maxes.entry(key).or_insert(0.0);
        *m = m.max(v);
    }

    /// Folds another job's sums and maxima into these.
    pub fn absorb(&mut self, other: Acc) {
        for (k, v) in other.sums {
            self.add(k, v);
        }
        for (k, v) in other.maxes {
            self.max(k, v);
        }
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn peak(&self, key: &str) -> f64 {
        self.maxes.get(key).copied().unwrap_or(0.0)
    }

    /// Adds a machine's bailout and code-cache counters.
    pub fn add_machine(&mut self, b: &BailoutCounters, c: &CacheStats) {
        self.add("bailouts", b.total() as f64);
        self.add("deopts", b.deopts as f64);
        self.add("evictions", c.evictions as f64);
        self.add("admission_rejections", c.admission_rejections as f64);
        self.add("re_tiered", c.re_tiered as f64);
        self.max("high_water", c.high_water_bytes as f64);
    }

    /// Adds one job's `Inliner::compile` totals, cross-checking the
    /// `OptPassStats` event stream against `InlineStats::opt_events`.
    pub fn add_compile(&mut self, t: &CompileTotals) -> Result<(), String> {
        if !t.opt_events_agree() {
            return Err(format!(
                "OptPassStats events sum to {} but InlineStats::opt_events is {}",
                t.opt_untrial, t.stats.opt_events
            ));
        }
        self.add("core_ns", t.compile_ns as f64);
        self.add("render_ns", t.render_ns as f64);
        self.add("scalar_ns", t.scalar_ns as f64);
        self.add("peel_ns", t.peel_ns as f64);
        self.add("rounds", t.stats.rounds as f64);
        self.add("expanded", t.expanded as f64);
        self.add("explored", t.stats.explored_nodes as f64);
        self.add("inlined", t.stats.inlined_calls as f64);
        self.add("final_size", t.stats.final_size as f64);
        let o = &t.opt;
        for (k, v) in [
            ("opt.events.const_fold", o.const_fold),
            ("opt.events.strength_red", o.strength_red),
            ("opt.events.branch_prune", o.branch_prune),
            ("opt.events.typecheck_fold", o.typecheck_fold),
            ("opt.events.devirt", o.devirt),
            ("opt.events.gvn", o.gvn),
            ("opt.events.rw_elim", o.rw_elim),
            ("opt.events.dce", o.dce),
            ("opt.events.blocks_merged", o.blocks_merged),
            ("opt.events.loops_peeled", o.loops_peeled),
        ] {
            self.add(k, v as f64);
        }
        Ok(())
    }
}

/// The per-layer metrics, by name with their units, in report order.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("core.compile.ms", "ms"),
    ("core.compile.share", "ratio"),
    ("core.rounds", "count"),
    ("core.expanded_nodes", "count"),
    ("core.explored_ir_nodes", "count"),
    ("core.inlined_calls", "count"),
    ("core.final_ir_size", "count"),
    ("core.inline_ratio", "ratio"),
    ("core.trial_hit_ratio", "ratio"),
    ("opt.scalar.ms", "ms"),
    ("opt.peel.ms", "ms"),
    ("opt.share", "ratio"),
    ("opt.events.const_fold", "count"),
    ("opt.events.strength_red", "count"),
    ("opt.events.branch_prune", "count"),
    ("opt.events.typecheck_fold", "count"),
    ("opt.events.devirt", "count"),
    ("opt.events.gvn", "count"),
    ("opt.events.rw_elim", "count"),
    ("opt.events.dce", "count"),
    ("opt.events.blocks_merged", "count"),
    ("opt.events.loops_peeled", "count"),
    ("vm.interp.ms", "ms"),
    ("vm.interp.ns_per_cycle", "ns/cycle"),
    ("vm.compiled.ms", "ms"),
    ("vm.compiled.ns_per_cycle", "ns/cycle"),
    ("vm.exec.share", "ratio"),
    ("vm.broker.requests", "count"),
    ("vm.broker.compile_ms", "ms"),
    ("vm.broker.queue_depth.max", "count"),
    ("vm.broker.bailouts", "count"),
    ("vm.broker.share", "ratio"),
    ("vm.deopt.count", "count"),
    ("vm.cache.evictions", "count"),
    ("vm.cache.admission_rejections", "count"),
    ("vm.cache.re_tiered", "count"),
    ("vm.cache.high_water_bytes", "bytes"),
    ("vm.snapshot.encode.ms", "ms"),
    ("vm.snapshot.decode.ms", "ms"),
    ("vm.snapshot.merge.ms", "ms"),
    ("vm.snapshot.bytes", "bytes"),
    ("vm.snapshot.replayed_compiles", "count"),
    ("vm.snapshot.share", "ratio"),
    ("vm.server.serve.ms", "ms"),
    ("vm.server.requests_per_s", "1/s"),
    ("vm.server.share", "ratio"),
    ("ir.parse.ms", "ms"),
    ("ir.parse.mb_per_s", "MB/s"),
    ("ir.verify.ms", "ms"),
    ("ir.parse.share", "ratio"),
    ("ir.verify.share", "ratio"),
    ("workloads.generate.ms", "ms"),
    ("other.share", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("steady_cycles.geomean", "cycles"),
    ("warmup_cycles.mean", "cycles"),
    ("compile_cycles.geomean", "cycles"),
    ("code_bytes.geomean", "bytes"),
    ("virt_latency.p99", "cycles"),
    ("virt_stall.p99", "cycles"),
    ("host.calibration.ms", "ms"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Computes every per-layer metric from the traced loop's sums.
///
/// `jobs` is the number of traced jobs, `models` the modeled observables
/// of each unit, `generate_ns` the setup's generator time and
/// `overhead` the traced-vs-untraced throughput loss and `calibration_ns`
/// the median calibration sample of the traced loop.
pub fn metrics(
    acc: &Acc,
    jobs: usize,
    models: &[Modeled],
    generate_ns: u64,
    overhead: f64,
    calibration_ns: u64,
) -> BTreeMap<&'static str, f64> {
    let per_job = |key: &str| ratio(acc.sum(key), jobs as f64);
    let job_ns = acc.sum("job_ns");
    let core = acc.sum("core_ns");
    let snapshot = acc.sum("encode_ns") + acc.sum("decode_ns") + acc.sum("merge_ns");
    let serve = acc.sum("serve_ns");
    // On the paper programs the broker's wall time covers the inliner
    // calls including the tree rendering a tracing sink triggers; that
    // overhead belongs to `other`. On the fleet the broker time is the
    // inliner time itself, so the broker's own share is 0.
    let broker_self = (acc.sum("broker_wall_ns") - core - acc.sum("render_ns")).max(0.0);
    let interp = TierTime {
        ns: acc.sum("interp_ns") as u64,
        cycles: acc.sum("interp_cycles") as u64,
    };
    let compiled = TierTime {
        ns: acc.sum("compiled_ns") as u64,
        cycles: acc.sum("compiled_cycles") as u64,
    };
    let server_self = if serve > 0.0 {
        (serve - core - snapshot).max(0.0)
    } else {
        0.0
    };
    // Disjoint layer times: opt is nested inside core and is reported on
    // its own, outside the partition.
    let (parts, other) = shares(
        job_ns as u64,
        &[
            ("core.compile.share", core as u64),
            ("vm.broker.share", broker_self as u64),
            ("vm.exec.share", interp.ns + compiled.ns),
            ("vm.snapshot.share", snapshot as u64),
            ("vm.server.share", server_self as u64),
            ("ir.parse.share", acc.sum("parse_ns") as u64),
            ("ir.verify.share", acc.sum("verify_ns") as u64),
        ],
    );
    let mut m: BTreeMap<&'static str, f64> = parts.into_iter().collect();
    m.insert("other.share", other);
    m.insert("core.compile.ms", ms(per_job("core_ns")));
    m.insert("core.rounds", per_job("rounds"));
    m.insert("core.expanded_nodes", per_job("expanded"));
    m.insert("core.explored_ir_nodes", per_job("explored"));
    m.insert("core.inlined_calls", per_job("inlined"));
    m.insert("core.final_ir_size", per_job("final_size"));
    m.insert(
        "core.inline_ratio",
        ratio(acc.sum("inlined"), acc.sum("expanded")),
    );
    m.insert(
        "core.trial_hit_ratio",
        ratio(
            acc.sum("trial_hits"),
            acc.sum("trial_hits") + acc.sum("trial_misses"),
        ),
    );
    m.insert("opt.scalar.ms", ms(per_job("scalar_ns")));
    m.insert("opt.peel.ms", ms(per_job("peel_ns")));
    m.insert(
        "opt.share",
        ratio(acc.sum("scalar_ns") + acc.sum("peel_ns"), job_ns),
    );
    for (name, _) in PER_LAYER {
        if name.starts_with("opt.events.") {
            m.insert(name, per_job(name));
        }
    }
    m.insert("vm.interp.ms", ms(interp.ns as f64) / jobs.max(1) as f64);
    m.insert("vm.interp.ns_per_cycle", interp.ns_per_cycle());
    m.insert(
        "vm.compiled.ms",
        ms(compiled.ns as f64) / jobs.max(1) as f64,
    );
    m.insert("vm.compiled.ns_per_cycle", compiled.ns_per_cycle());
    m.insert("vm.broker.requests", per_job("broker_requests"));
    m.insert("vm.broker.compile_ms", ms(per_job("broker_wall_ns")));
    m.insert("vm.broker.queue_depth.max", acc.peak("queue_max"));
    m.insert("vm.broker.bailouts", per_job("bailouts"));
    m.insert("vm.deopt.count", per_job("deopts"));
    m.insert("vm.cache.evictions", per_job("evictions"));
    m.insert(
        "vm.cache.admission_rejections",
        per_job("admission_rejections"),
    );
    m.insert("vm.cache.re_tiered", per_job("re_tiered"));
    m.insert("vm.cache.high_water_bytes", acc.peak("high_water"));
    m.insert("vm.snapshot.encode.ms", ms(per_job("encode_ns")));
    m.insert("vm.snapshot.decode.ms", ms(per_job("decode_ns")));
    m.insert("vm.snapshot.merge.ms", ms(per_job("merge_ns")));
    m.insert("vm.snapshot.bytes", per_job("snapshot_bytes"));
    m.insert("vm.snapshot.replayed_compiles", per_job("replayed"));
    m.insert("vm.server.serve.ms", ms(per_job("serve_ns")));
    m.insert(
        "vm.server.requests_per_s",
        ratio(acc.sum("requests"), serve / 1e9),
    );
    m.insert("ir.parse.ms", ms(per_job("parse_ns")));
    m.insert(
        "ir.parse.mb_per_s",
        ratio(acc.sum("parse_bytes") / 1e6, acc.sum("parse_ns") / 1e9),
    );
    m.insert("ir.verify.ms", ms(per_job("verify_ns")));
    m.insert("workloads.generate.ms", ms(generate_ns as f64));
    m.insert("trace.overhead_frac", overhead);
    m.insert("host.calibration.ms", ms(calibration_ns as f64));

    let pick =
        |f: fn(&Modeled) -> Option<f64>| -> Vec<f64> { models.iter().filter_map(f).collect() };
    let mean = |v: Vec<f64>| ratio(v.iter().sum(), v.len() as f64);
    m.insert("steady_cycles.geomean", geomean(&pick(|x| x.steady)));
    m.insert(
        "warmup_cycles.mean",
        mean(pick(|x| x.warmup.map(|v| v as f64))),
    );
    m.insert(
        "compile_cycles.geomean",
        geomean(&pick(|x| x.compile_cycles.map(|v| v as f64))),
    );
    m.insert(
        "code_bytes.geomean",
        geomean(&pick(|x| x.code_bytes.map(|v| v as f64))),
    );
    m.insert(
        "virt_latency.p99",
        mean(pick(|x| x.latency_p99.map(|v| v as f64))),
    );
    m.insert(
        "virt_stall.p99",
        mean(pick(|x| x.stall_p99.map(|v| v as f64))),
    );
    m
}
