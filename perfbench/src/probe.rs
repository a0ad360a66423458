//! Outside-in layer timing for the traced run.
//!
//! Nothing here reaches into the program: [`TimedInliner`] is an
//! [`Inliner`] that delegates to the real one and times each
//! `Inliner::compile` call, and [`StampSink`] is a [`TraceSink`] handed to
//! that call which timestamps each [`CompileEvent`] as it arrives before
//! forwarding it to the sink the broker passed in. The optimizer emits
//! [`CompileEvent::OptPassStats`] from its per-stage observer at the end of
//! every stage that changed the graph, so the host time between an event
//! and the `OptPassStats` that follows it is charged to that pipeline
//! stage. The gap that ends in a [`CompileEvent::TreeSnapshot`] is the
//! tree rendering an enabled sink triggers; it is tracing overhead, left
//! out of the compile time. Everything else inside the call is `core`.
//!
//! Known bias: a pipeline round that changes nothing emits no event, so
//! its time lands in the gap closed by the next event — usually a `core`
//! event. `opt.*.ms` is therefore a lower bound and `core` self time an
//! upper bound; the compile time they split is exact.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use incline_ir::MethodId;
use incline_opt::{OptStats, PipelineStage};
use incline_vm::trace::OptPhase;
use incline_vm::{
    CompileCx, CompileError, CompileEvent, CompileOutcome, InlineStats, Inliner, TraceSink,
};

/// What one stage gap of a compilation is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Gap {
    Core,
    Scalar,
    Peel,
    Render,
}

/// Compile-side counters and timings accumulated over a traced loop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompileTotals {
    /// `Inliner::compile` calls.
    pub calls: u64,
    /// Host nanoseconds inside `Inliner::compile`, less `render_ns`.
    pub compile_ns: u64,
    /// Call-tree rendering for `TreeSnapshot` events (tracing overhead).
    pub render_ns: u64,
    /// Of `compile_ns`: gaps closed by scalar-stage `OptPassStats`.
    pub scalar_ns: u64,
    /// Of `compile_ns`: gaps closed by peel-stage `OptPassStats`.
    pub peel_ns: u64,
    /// Summed [`InlineStats`] of the successful calls.
    pub stats: InlineStats,
    /// `NodeExpanded` events.
    pub expanded: u64,
    /// Summed `OptPassStats` deltas of every pipeline phase.
    pub opt: OptStats,
    /// Summed `OptPassStats` totals of the phases `InlineStats::opt_events`
    /// counts (everything but deep-inlining trials).
    pub opt_untrial: u64,
}

impl CompileTotals {
    fn add_stats(&mut self, s: &InlineStats) {
        let t = &mut self.stats;
        t.inlined_calls += s.inlined_calls;
        t.rounds += s.rounds;
        t.explored_nodes += s.explored_nodes;
        t.final_size += s.final_size;
        t.opt_events += s.opt_events;
        t.speculative_sites += s.speculative_sites;
    }

    /// Whether the `OptPassStats` stream agrees with the compilers' own
    /// `InlineStats::opt_events` counter.
    pub fn opt_events_agree(&self) -> bool {
        self.opt_untrial == self.stats.opt_events
    }
}

/// Shared accumulator the [`TimedInliner`] reports into.
#[derive(Debug, Default)]
pub struct Probe {
    totals: Mutex<CompileTotals>,
}

impl Probe {
    /// A fresh accumulator.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    /// The totals so far.
    pub fn totals(&self) -> CompileTotals {
        *self.totals.lock().expect("probe lock poisoned")
    }
}

/// What a [`StampSink`] saw during one compilation.
#[derive(Default)]
struct Stamps {
    marks: Vec<(Instant, Gap)>,
    expanded: u64,
    opt: OptStats,
    opt_untrial: u64,
}

/// Timestamps events on arrival and forwards them.
struct StampSink<'a> {
    inner: &'a dyn TraceSink,
    seen: Mutex<Stamps>,
}

impl TraceSink for StampSink<'_> {
    fn emit(&self, event: CompileEvent) {
        let now = Instant::now();
        let mut seen = self.seen.lock().expect("stamp lock poisoned");
        let gap = match &event {
            CompileEvent::OptPassStats {
                phase,
                stage,
                stats,
            } => {
                seen.opt += *stats;
                if *phase != OptPhase::Trial {
                    seen.opt_untrial += stats.total();
                }
                match stage {
                    PipelineStage::Scalar => Gap::Scalar,
                    PipelineStage::Peel => Gap::Peel,
                }
            }
            CompileEvent::TreeSnapshot { .. } => Gap::Render,
            CompileEvent::NodeExpanded { .. } => {
                seen.expanded += 1;
                Gap::Core
            }
            _ => Gap::Core,
        };
        seen.marks.push((now, gap));
        drop(seen);
        if self.inner.enabled() {
            self.inner.emit(event);
        }
    }
}

/// An [`Inliner`] that times the one it wraps (see the module docs).
pub struct TimedInliner {
    inner: Box<dyn Inliner>,
    probe: Arc<Probe>,
}

impl TimedInliner {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn Inliner>, probe: Arc<Probe>) -> Self {
        TimedInliner { inner, probe }
    }
}

impl Inliner for TimedInliner {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn compile(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
    ) -> Result<CompileOutcome, CompileError> {
        let stamps = StampSink {
            inner: cx.trace,
            seen: Mutex::new(Stamps::default()),
        };
        let start = Instant::now();
        let out = self.inner.compile(method, &cx.with_trace(&stamps));
        let end = Instant::now();
        let seen = stamps.seen.into_inner().expect("stamp lock poisoned");
        let mut t = self.probe.totals.lock().expect("probe lock poisoned");
        t.calls += 1;
        let mut render = 0;
        let mut prev = start;
        for (at, gap) in seen.marks {
            let ns = nanos(at - prev);
            match gap {
                Gap::Core => {}
                Gap::Scalar => t.scalar_ns += ns,
                Gap::Peel => t.peel_ns += ns,
                Gap::Render => render += ns,
            }
            prev = at;
        }
        t.render_ns += render;
        t.compile_ns += nanos(end - start) - render;
        t.expanded += seen.expanded;
        if let Ok(o) = &out {
            t.add_stats(&o.stats);
            t.opt += seen.opt;
            t.opt_untrial += seen.opt_untrial;
        }
        out
    }
}

/// A duration in whole nanoseconds.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
