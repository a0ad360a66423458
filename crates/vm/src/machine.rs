//! The tiered virtual machine: profiling interpreter, compile broker and
//! code cache.
//!
//! Execution starts in the interpreting tier, which records profiles
//! ([`ProfileTable`]) and pays a per-instruction dispatch premium. When a
//! method's hotness counters cross the threshold, the broker invokes the
//! configured [`Inliner`] and installs the returned graph in the code
//! cache; subsequent activations run in the compiled tier. Compilation
//! latency and instruction-cache pressure are charged per the
//! [`CostModel`], so both under- and over-inlining are measurably bad —
//! the terrain the paper's algorithm navigates.
//!
//! # Fault containment
//!
//! Compilation is treated as untrusted: a compiler failure must never take
//! the VM down or corrupt executing code. The broker runs a three-rung
//! **bailout ladder** per compilation request:
//!
//! 1. **Full tier** — the configured inliner, fenced by `catch_unwind`
//!    (panics become [`CompileError::Panicked`]) and metered by the
//!    [`VmConfig::compile_fuel`] budget. Every produced graph — in every
//!    build profile — passes `verify_graph` before installation; a
//!    rejected graph is never installed ([`CompileError::Rejected`]).
//! 2. **Degraded tier** — an inline-free compile of the root graph
//!    through the optimization pipeline, independent of the (possibly
//!    faulty) inliner.
//! 3. **Blacklist** — the method is pinned to the interpreter permanently;
//!    the broker never re-attempts it.
//!
//! Every rung failure is recorded in [`BailoutCounters`] and the
//! per-method [`BailoutRecord`] log, and the deterministic fault-injection
//! harness in [`crate::faults`] exercises all three rungs.
//!
//! # Background compilation
//!
//! The ladder itself lives in [`crate::broker`] as a pure function over a
//! [`CompileRequest`]: the machine *enqueues* requests (snapshotting fuel,
//! fault and speculation per request) and *drains* the queue through a pool
//! of [`VmConfig::compile_threads`] scoped worker threads — or inline when
//! the pool size is 0. [`InstallPolicy`] picks the drain points: `Barrier`
//! drains at the hotness trigger (observably identical to the synchronous
//! broker, cycle for cycle and event for event), `Safepoint` lets the
//! mutator keep interpreting and installs at activation boundaries, with
//! the compile latency hidden by a virtual-time worker model — only the
//! queue wait that outlives the mutator's progress is charged as
//! [`RunOutcome::stall_cycles`].

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use incline_ir::eval::{self, TrapKind};
use incline_ir::graph::{CallTarget, DeoptReason, Op, Terminator};
use incline_ir::loops::LoopForest;
use incline_ir::{BlockId, CmpOp, Graph, MethodId, Program, ValueId};
use incline_profile::{MethodProfile, ProfileTable};
use incline_trace::{BailoutStage, CodeTier, CompileEvent, NullSink, TraceSink};

use crate::broker::{
    self, CompileQueue, CompileRequest, CompileResponse, InstallPackage, QueueStats,
};
use crate::cache::{self, CacheEntry, CacheStats, EvictionPolicy};
use crate::cost::{CostModel, Tier};
use crate::faults::{FaultKind, FaultPlan};
use crate::inliner::{CompileError, InlineStats, Inliner, Speculation};
use crate::snapshot::{
    self, DecisionRecord, MergePolicy, ReplayMode, Snapshot, SnapshotError, SnapshotStats,
};
use crate::value::{Heap, HeapCell, HeapRef, Output, Value};

/// Maximum guest call depth. Each guest frame costs a host frame; stay well
/// inside the 2 MiB default stack of Rust test threads.
const MAX_DEPTH: usize = 400;
/// Minimum typeswitch profile coverage (summed receiver probabilities)
/// before the fallback becomes a `deopt` instead of a virtual call.
const DEOPT_CONFIDENCE: f64 = 0.95;
/// Drift monitor: a compiled method is invalidated once it executes more
/// than `DRIFT_RATE` fallback virtual dispatches per compiled invocation —
/// the speculated cases no longer cover the hot receivers.
const DRIFT_RATE: f64 = 2.0;
/// Drift monitor: minimum compiled invocations before the dispatch rate is
/// evaluated (avoids invalidating on startup noise).
const DRIFT_MIN_SAMPLES: u64 = 8;
/// Storm throttle: recompilations granted after invalidation before the
/// method is pinned to fallback-only (never `deopt`) code.
const MAX_RECOMPILES: u32 = 3;
/// Quarantine ladder probation window, in compiled activations: a decision
/// replayed from a snapshot that deoptimizes within its first
/// `POISON_WINDOW` activations is attributed as *poisoned* — its code is
/// dropped evict-style (no recompile-budget burn, no pinning), its seeded
/// profile contribution is rolled back, and the decision is excluded from
/// the next snapshot.
const POISON_WINDOW: u64 = 8;

/// VM configuration. Every field is public; override a few with
/// struct-update syntax:
///
/// ```
/// use incline_vm::VmConfig;
/// let config = VmConfig {
///     hotness_threshold: 5,
///     code_cache_budget: 8 * 1024,
///     deopt: true,
///     ..VmConfig::default()
/// };
/// assert_eq!(config.hotness_threshold, 5);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Cost model constants.
    pub cost: CostModel,
    /// Hotness threshold: a method compiles once
    /// `invocations + backedges/4` reaches this value.
    pub hotness_threshold: u64,
    /// Whether the JIT is enabled (false = pure interpreter).
    pub jit: bool,
    /// Maximum interpreter steps per `run` (runaway protection).
    pub fuel_steps: u64,
    /// Compile-work budget per compilation attempt, in IR-node units
    /// (`u64::MAX` = unmetered). An attempt that exhausts the budget bails
    /// out to the next rung of the ladder instead of running away.
    pub compile_fuel: u64,
    /// Whether deoptimization is enabled: typeswitches with enough profile
    /// coverage compile their fallback to an uncommon trap, and the broker
    /// runs the invalidate → reprofile → recompile machinery (including
    /// the drift monitor). Off by default so speculation stays
    /// always-correct; the CLI enables it unless `--no-deopt`.
    pub deopt: bool,
    /// Size of the background compile-worker pool. `0` compiles inline on
    /// the mutator thread (today's synchronous broker); `N >= 1` runs each
    /// queue drain on up to `N` scoped worker threads. In
    /// [`InstallPolicy::Barrier`] mode any value produces byte-identical
    /// observable behavior — the differential matrix tests assert it.
    /// Defaults to the `INCLINE_COMPILE_THREADS` environment variable
    /// (read once), or `0`.
    pub compile_threads: usize,
    /// Where compile-queue drains happen; see [`InstallPolicy`].
    pub install_policy: InstallPolicy,
    /// Code-cache budget in modeled machine-code bytes. `0` = unbounded —
    /// every pre-existing behavior is preserved bit for bit. A finite
    /// budget is enforced at install time: `installed_bytes` never exceeds
    /// it at any observable point; installs that don't fit evict victims
    /// under [`VmConfig::eviction_policy`], clear admission control, or
    /// are gracefully deferred (never a panic, never an overshoot).
    pub code_cache_budget: u64,
    /// Victim-selection policy under a finite budget; see
    /// [`EvictionPolicy`]. Ignored when the budget is 0.
    pub eviction_policy: EvictionPolicy,
    /// Aging window in compiled-entry ticks: a resident idle this long has
    /// its eviction score floored, making it the preferred victim under
    /// every policy. `0` disables aging. Only evaluated under a finite
    /// budget.
    pub cache_age_window: u64,
    /// How a loaded warmup snapshot is applied before the first run; see
    /// [`ReplayMode`]. Irrelevant unless a snapshot is actually loaded.
    pub replay: ReplayMode,
    /// Whether deep-inlining-trial results are memoized across rounds and
    /// compilations (see [`crate::trials::TrialCache`]). Trials are pure
    /// functions of (callee graph, argument specialization), so caching
    /// never changes an observable — the differential tests assert
    /// byte-identical results with the cache on and off. On by default;
    /// the CLI disables it with `--no-trial-cache`.
    pub trial_cache: bool,
}

/// When the compile queue drains and installed code becomes visible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InstallPolicy {
    /// **Deterministic mode**: the virtual-time barrier sits at the hotness
    /// trigger — the request is enqueued and the queue drained before the
    /// triggering invocation proceeds, so the mutator observes exactly the
    /// synchronous broker's behavior (cycles, trace stream, tier-up point)
    /// regardless of [`VmConfig::compile_threads`].
    #[default]
    Barrier,
    /// **Pipelined mode**: the triggering invocation keeps interpreting;
    /// in-flight compilations install at the next safepoint (an activation
    /// boundary of the method, or the start of the next `run`), and tier-up
    /// happens on the following invocation. Semantics are still exactly
    /// preserved — only the timeline differs: compile latency overlaps
    /// mutator progress, so [`RunOutcome::stall_cycles`] shrinks.
    Safepoint,
}

fn env_compile_threads() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("INCLINE_COMPILE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    })
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cost: CostModel::default(),
            hotness_threshold: 40,
            jit: true,
            fuel_steps: 500_000_000,
            compile_fuel: u64::MAX,
            deopt: false,
            compile_threads: env_compile_threads(),
            install_policy: InstallPolicy::Barrier,
            code_cache_budget: 0,
            eviction_policy: EvictionPolicy::default(),
            cache_age_window: 1024,
            replay: ReplayMode::default(),
            trial_cache: true,
        }
    }
}

/// Which rung of the bailout ladder a compilation attempt ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileStage {
    /// The configured inliner with the full pipeline.
    Full,
    /// Inline-free root-graph compile through the optimization pipeline.
    Degraded,
}

impl std::fmt::Display for CompileStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileStage::Full => write!(f, "full"),
            CompileStage::Degraded => write!(f, "degraded"),
        }
    }
}

impl CompileStage {
    pub(crate) fn bailout_stage(self) -> BailoutStage {
        match self {
            CompileStage::Full => BailoutStage::Full,
            CompileStage::Degraded => BailoutStage::Degraded,
        }
    }

    fn code_tier(self) -> CodeTier {
        match self {
            CompileStage::Full => CodeTier::Full,
            CompileStage::Degraded => CodeTier::Degraded,
        }
    }
}

/// One recorded bailout: a compilation attempt that failed and fell
/// through to the next rung of the ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BailoutRecord {
    /// The method whose compilation failed.
    pub method: MethodId,
    /// The rung that failed.
    pub stage: CompileStage,
    /// Why it failed.
    pub error: CompileError,
}

/// Aggregate bailout counters over the machine's lifetime.
///
/// The same run (same program, config, inliner, fault plan) always
/// produces the same counters — the fault-injection tests assert this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BailoutCounters {
    /// Failed full-tier compilation attempts.
    pub full_tier: u64,
    /// Failed degraded-tier compilation attempts.
    pub degraded_tier: u64,
    /// Methods permanently pinned to the interpreter.
    pub blacklisted: u64,
    /// Compiler panics contained by the `catch_unwind` fence.
    pub contained_panics: u64,
    /// Graphs rejected by the pre-install verifier.
    pub verifier_rejections: u64,
    /// Attempts that ran out of compile fuel.
    pub fuel_exhaustions: u64,
    /// Compiled activations that deoptimized back to the interpreter
    /// (uncommon trap, drift, or injected).
    pub deopts: u64,
    /// Installed graphs removed from the code cache by deoptimization.
    pub invalidations: u64,
    /// Recompilations performed after an invalidation.
    pub recompiles: u64,
    /// Methods pinned to fallback-only code by the storm throttle.
    pub pinned: u64,
}

impl BailoutCounters {
    /// Total failed compilation attempts across both tiers.
    pub fn total(&self) -> u64 {
        self.full_tier + self.degraded_tier
    }

    fn record(&mut self, stage: CompileStage, error: &CompileError) {
        match stage {
            CompileStage::Full => self.full_tier += 1,
            CompileStage::Degraded => self.degraded_tier += 1,
        }
        match error {
            CompileError::Panicked(_) => self.contained_panics += 1,
            CompileError::Rejected(_) => self.verifier_rejections += 1,
            CompileError::OutOfFuel { .. } => self.fuel_exhaustions += 1,
        }
    }
}

/// Consolidated compilation telemetry, the one-stop alternative to the
/// individual `Machine` getters (which remain as thin delegates).
#[derive(Clone, Debug, Default)]
pub struct CompilationReport {
    /// Compilation requests the broker handled (each runs the full ladder).
    pub compile_requests: u64,
    /// Compilations that installed code.
    pub compilations: u64,
    /// Cycles spent compiling over the machine's lifetime.
    pub total_compile_cycles: u64,
    /// Mutator-visible compilation stall cycles over the machine's
    /// lifetime (== `total_compile_cycles` unless the broker is pipelined).
    pub total_stall_cycles: u64,
    /// Machine-code bytes currently installed.
    pub installed_bytes: u64,
    /// Aggregate bailout counters.
    pub bailouts: BailoutCounters,
    /// Code-cache statistics (evictions, admissions, re-tiers, aging).
    pub cache: CacheStats,
    /// Every recorded bailout, in occurrence order.
    pub bailout_log: Vec<BailoutRecord>,
    /// Per-compilation inliner statistics, in compilation order.
    pub compile_log: Vec<(MethodId, InlineStats)>,
    /// Methods permanently pinned to the interpreter, sorted.
    pub blacklisted: Vec<MethodId>,
    /// Methods pinned to fallback-only code by the storm throttle, sorted.
    pub pinned: Vec<MethodId>,
    /// Warmup-snapshot counters (loads, graceful fallbacks, replays,
    /// writes).
    pub snapshot: SnapshotStats,
    /// Host wall-clock nanoseconds spent inside the compile ladder over
    /// the machine's lifetime. Real time (not virtual cycles): the
    /// compiler-throughput figures read it; it never feeds a
    /// deterministic observable.
    pub compile_wall_nanos: u64,
    /// Deep-inlining-trial cache hits (0 when the cache is disabled).
    /// Under worker threads concurrent misses on one key may both count,
    /// so treat these as telemetry, not exact dedup counts.
    pub trial_hits: u64,
    /// Deep-inlining-trial cache misses (0 when the cache is disabled).
    pub trial_misses: u64,
}

/// Why execution stopped abnormally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A runtime trap (the program's own fault).
    Trap(TrapKind),
    /// Guest call depth exceeded the 400-frame limit.
    StackOverflow,
    /// Step budget exceeded [`VmConfig::fuel_steps`].
    OutOfFuel,
    /// An instruction read a value that no executed instruction or edge
    /// defined. Verified graphs cannot do this; hand-built ones can.
    UndefinedRegister {
        /// The executing method.
        method: MethodId,
        /// The value read before its definition.
        value: ValueId,
    },
    /// A virtual call's receiver class neither declares nor inherits the
    /// selector. Verified graphs cannot do this; hand-built ones can.
    NoImplementation {
        /// The selector, as printed in IR text.
        selector: String,
        /// The receiver's class name.
        class: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Trap(t) => write!(f, "trap: {t}"),
            ExecError::StackOverflow => write!(f, "stack overflow"),
            ExecError::OutOfFuel => write!(f, "out of fuel"),
            ExecError::UndefinedRegister { method, value } => {
                write!(f, "use of undefined register {value} in {method}")
            }
            ExecError::NoImplementation { selector, class } => {
                write!(f, "no implementation of {selector} on {class}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The result of one `run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Return value of the entry method.
    pub value: Option<Value>,
    /// Cycles spent executing code this run.
    pub exec_cycles: u64,
    /// Cycles of compile work performed for requests applied this run
    /// (wherever the work ran — mutator or worker pool).
    pub compile_cycles: u64,
    /// Cycles the mutator was stalled on compilation this run. With the
    /// synchronous broker (`compile_threads == 0`) or in
    /// [`InstallPolicy::Barrier`] mode this equals `compile_cycles`; in
    /// pipelined mode it is only the portion of compile latency that was
    /// not hidden behind mutator progress (see the virtual-time model in
    /// the broker docs).
    pub stall_cycles: u64,
    /// Observable output of the run.
    pub output: Output,
}

impl RunOutcome {
    /// Execution plus mutator-visible compilation stall (what an iteration
    /// "takes" on the simulated timeline).
    pub fn total_cycles(&self) -> u64 {
        self.exec_cycles + self.stall_cycles
    }
}

struct CompiledMethod {
    graph: Arc<Graph>,
    /// Modeled code size; released back to `installed_bytes` on invalidation.
    bytes: u64,
    /// Whether the graph contains a `deopt` terminator, i.e. whether its
    /// activations must run transactionally (journaled) so the trap can
    /// rewind them.
    has_deopt: bool,
    /// Drift monitor armed: the compile speculated on receiver profiles
    /// and the graph still contains fallback virtual dispatches to count.
    drift_armed: bool,
    /// Fault injection: the next compiled entry takes an uncommon trap.
    force_deopt: bool,
    /// Fault injection: the drift monitor trips deterministically once
    /// `DRIFT_MIN_SAMPLES` compiled invocations accrue.
    force_drift: bool,
    /// Compiled activations entered since install.
    invocations: u64,
    /// Fallback virtual dispatches executed inside this compiled graph.
    virtual_dispatches: u64,
    /// Use tick of the last compiled activation (install counts as a use).
    last_used: u64,
    /// Idle past [`VmConfig::cache_age_window`]; cleared on the next use.
    aged: bool,
}

impl CompiledMethod {
    /// Whether the drift monitor (when deoptimization is on) wants this
    /// code invalidated before its next activation: armed speculated code
    /// whose fallback virtual-dispatch rate exceeds the configured bound.
    fn drift_tripped(&self) -> bool {
        if !self.drift_armed || self.invocations < DRIFT_MIN_SAMPLES {
            return false;
        }
        self.force_drift || self.virtual_dispatches as f64 > DRIFT_RATE * self.invocations as f64
    }
}

/// What a compiled activation starts with, read from its code entry by
/// [`Machine::enter_compiled`].
enum CompiledEntry {
    /// The drift monitor tripped: tier down before running anything.
    Drifted,
    /// Injected uncommon trap at entry.
    ForcedDeopt,
    /// Run `graph`; transactionally when it contains `deopt` terminators.
    Run { graph: Arc<Graph>, deoptable: bool },
}

/// Per-method speculation bookkeeping for the storm throttle.
#[derive(Clone, Copy, Debug, Default)]
struct SpecState {
    /// Recompilations granted so far (each install after an invalidation).
    recompiles: u32,
    /// Pinned: compiled without `deopt` fallbacks, drift monitor off.
    /// Terminal — a pinned method never deoptimizes again.
    pinned: bool,
    /// Profile counters at the last invalidation. The backed-off hotness
    /// bar measures *fresh* profile data beyond this baseline, while the
    /// compile itself still sees the full merged (old + fresh) profile.
    base_invocations: u64,
    /// See `base_invocations`.
    base_backedges: u64,
}

/// Per-method code-cache bookkeeping: eviction history and the
/// admission-deferral backoff. Mirrors [`SpecState`]'s baseline scheme —
/// an evicted or deferred method re-promotes on *fresh* hotness only.
#[derive(Clone, Copy, Debug, Default)]
struct CacheState {
    /// Times this method's code has been evicted.
    evictions: u32,
    /// Consecutive admission deferrals since the last successful install;
    /// each one doubles the re-admission bar. Reset when code installs.
    deferrals: u32,
    /// Profile counters at the last eviction or deferral; the
    /// re-admission bar measures fresh hotness beyond this baseline.
    base_invocations: u64,
    /// See `base_invocations`.
    base_backedges: u64,
}

/// One undo entry in the deoptimization write journal.
enum JournalEntry {
    /// `fields[offset]` of object `r` held `old` before the write.
    Field {
        r: HeapRef,
        offset: usize,
        old: Value,
    },
    /// `data[index]` of array `r` held `old` before the write.
    Array {
        r: HeapRef,
        index: usize,
        old: Value,
    },
}

/// Observable-state watermark taken at the entry of a deopt-capable
/// compiled activation; [`Machine::rollback`] rewinds to it.
struct Savepoint {
    heap_len: usize,
    output_len: usize,
    journal_len: usize,
}

/// How a graph activation left `exec_graph`.
enum Flow {
    /// Normal return.
    Return(Option<Value>),
    /// A compiled activation hit an uncommon trap.
    Deopt(DeoptReason),
}

/// How a compiled activation left `exec_compiled`.
enum CompiledExit {
    /// Normal return.
    Returned(Option<Value>),
    /// The activation deoptimized: its effects are rolled back and its
    /// code invalidated. Carries the original arguments so the caller can
    /// replay the activation interpreted.
    Deoptimized(Vec<Value>),
}

/// The virtual machine.
pub struct Machine<'p> {
    program: &'p Program,
    inliner: Box<dyn Inliner + 'p>,
    config: VmConfig,
    profiles: ProfileTable,
    code: HashMap<MethodId, CompiledMethod>,
    /// Per-method back-edge masks for the profiling interpreter, decoded
    /// once on the method's first interpreted activation (see
    /// [`Machine::back_edge_mask`]).
    back_edges: HashMap<MethodId, Arc<[u8]>>,
    /// Values passed along the CFG edge being taken, read before any
    /// target parameter is written. Reused by every edge of every
    /// activation; no call happens while it is filled.
    edge_scratch: Vec<Value>,
    installed_bytes: u64,
    compilations: u64,
    // Fault containment.
    blacklist: HashSet<MethodId>,
    bailouts: BailoutCounters,
    bailout_log: Vec<BailoutRecord>,
    fault_plan: FaultPlan,
    compile_requests: u64,
    trace: Arc<dyn TraceSink + 'p>,
    // Background compilation.
    queue: CompileQueue,
    in_flight: HashSet<MethodId>,
    /// Virtual-time broker model: the cycle at which each worker in the
    /// pool finishes its last assigned request. Indexed 0..compile_threads
    /// (one slot for the synchronous broker).
    worker_free: Vec<u64>,
    /// Virtual cycles accumulated by completed runs; the live clock is
    /// `vbase + exec_cycles + run_stall_cycles`.
    vbase: u64,
    // Deoptimization.
    spec: HashMap<MethodId, SpecState>,
    journal: Vec<JournalEntry>,
    journal_scopes: u32,
    // Bounded code cache.
    /// Monotone use tick: bumped on every compiled activation entry and at
    /// each admission decision. Drives LRU recency, decay idle times and
    /// the aging window. Not observable at `code_cache_budget == 0`.
    use_seq: u64,
    cache: CacheStats,
    cache_state: HashMap<MethodId, CacheState>,
    /// Live compiled activations per method. A method with a live compiled
    /// frame is never an eviction victim — installs at inner safepoints
    /// must not pull code out from under an executing activation.
    live_compiled: HashMap<MethodId, u32>,
    // Per-run state.
    heap: Heap,
    output: Output,
    exec_cycles: u64,
    run_compile_cycles: u64,
    run_stall_cycles: u64,
    steps: u64,
    // Lifetime totals.
    total_compile_cycles: u64,
    total_stall_cycles: u64,
    /// Host wall-clock nanoseconds spent in the compile ladder (real time,
    /// telemetry only — never feeds the deterministic cycle model).
    compile_wall_nanos: u64,
    last_compile_stats: Vec<(MethodId, crate::inliner::InlineStats)>,
    /// Shared trial memo table, or `None` when [`VmConfig::trial_cache`]
    /// is off.
    trials: Option<Arc<crate::trials::TrialCache>>,
    // Warmup snapshots.
    /// Every successful install, in installation order — the decision log
    /// a snapshot captures for eager replay.
    decision_log: Vec<DecisionRecord>,
    /// Parallel to `decision_log`: whether the install happened during
    /// snapshot replay. Replayed installs of a later-poisoned method are
    /// excluded from [`Machine::snapshot`] output.
    decision_replayed: Vec<bool>,
    snapshot_stats: SnapshotStats,
    // Quarantine ladder (see `POISON_WINDOW`).
    /// Whether the machine is inside `apply_snapshot`'s eager replay loop;
    /// marks installs as replayed.
    replay_active: bool,
    /// Methods whose replayed code is still inside its probation window —
    /// a deopt here is attributed to the snapshot, not live drift.
    replay_guard: HashSet<MethodId>,
    /// Each method's profile contribution from applied snapshots, kept so
    /// a poisoned decision can roll its seeded counters back out.
    replay_seed: HashMap<MethodId, MethodProfile>,
    /// Decided methods a [`FaultKind::PoisonSnapshot`] entry targets: their
    /// replayed installs take an uncommon trap on first entry.
    replay_poison: HashSet<MethodId>,
    /// Methods whose replayed decision was quarantined as poisoned.
    poisoned_methods: BTreeSet<MethodId>,
}

impl<'p> Machine<'p> {
    /// Creates a VM over `program` driven by `inliner`.
    pub fn new(program: &'p Program, inliner: Box<dyn Inliner + 'p>, config: VmConfig) -> Self {
        Machine {
            program,
            inliner,
            config,
            profiles: ProfileTable::new(),
            code: HashMap::new(),
            back_edges: HashMap::new(),
            edge_scratch: Vec::new(),
            installed_bytes: 0,
            compilations: 0,
            blacklist: HashSet::new(),
            bailouts: BailoutCounters::default(),
            bailout_log: Vec::new(),
            fault_plan: FaultPlan::new(),
            compile_requests: 0,
            trace: Arc::new(NullSink),
            queue: CompileQueue::default(),
            in_flight: HashSet::new(),
            worker_free: vec![0; config.compile_threads.max(1)],
            vbase: 0,
            spec: HashMap::new(),
            journal: Vec::new(),
            journal_scopes: 0,
            use_seq: 0,
            cache: CacheStats::default(),
            cache_state: HashMap::new(),
            live_compiled: HashMap::new(),
            heap: Heap::new(),
            output: Output::new(),
            exec_cycles: 0,
            run_compile_cycles: 0,
            run_stall_cycles: 0,
            steps: 0,
            total_compile_cycles: 0,
            total_stall_cycles: 0,
            compile_wall_nanos: 0,
            last_compile_stats: Vec::new(),
            trials: config
                .trial_cache
                .then(|| Arc::new(crate::trials::TrialCache::default())),
            decision_log: Vec::new(),
            decision_replayed: Vec::new(),
            snapshot_stats: SnapshotStats::default(),
            replay_active: false,
            replay_guard: HashSet::new(),
            replay_seed: HashMap::new(),
            replay_poison: HashSet::new(),
            poisoned_methods: BTreeSet::new(),
        }
    }

    /// Executes `entry(args)` once. Heap and output are fresh per run;
    /// profiles and compiled code persist across runs (warmup).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on traps, stack overflow or fuel exhaustion.
    pub fn run(&mut self, entry: MethodId, args: Vec<Value>) -> Result<RunOutcome, ExecError> {
        self.heap = Heap::new();
        self.output = Output::new();
        self.exec_cycles = 0;
        self.run_compile_cycles = 0;
        self.run_stall_cycles = 0;
        self.steps = 0;
        self.journal.clear();
        self.journal_scopes = 0;
        // Run entry is a safepoint: requests still in flight from the
        // previous run (pipelined mode) install before execution starts.
        self.drain_compile_queue();
        let value = self.exec_method(entry, args, 0)?;
        self.vbase += self.exec_cycles + self.run_stall_cycles;
        Ok(RunOutcome {
            value,
            exec_cycles: self.exec_cycles,
            compile_cycles: self.run_compile_cycles,
            stall_cycles: self.run_stall_cycles,
            output: std::mem::take(&mut self.output),
        })
    }

    /// The live virtual clock: cycles accumulated by completed runs plus
    /// this run's execution and stall so far.
    fn vnow(&self) -> u64 {
        self.vbase + self.exec_cycles + self.run_stall_cycles
    }

    /// Total machine-code bytes currently installed.
    pub fn installed_bytes(&self) -> u64 {
        self.installed_bytes
    }

    /// Number of compilations performed.
    pub fn compilations(&self) -> u64 {
        self.compilations
    }

    /// Cycles spent in the compiler over the machine's lifetime.
    pub fn total_compile_cycles(&self) -> u64 {
        self.total_compile_cycles
    }

    /// Mutator-visible compilation stall cycles over the machine's
    /// lifetime. Equals [`Machine::total_compile_cycles`] for the
    /// synchronous broker and in barrier mode; lower in pipelined mode.
    pub fn total_stall_cycles(&self) -> u64 {
        self.total_stall_cycles
    }

    /// Lifetime compile-queue counters (requests enqueued / completed /
    /// installed). `enqueued == completed` whenever the queue is drained —
    /// no request is ever lost.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Number of compile requests currently waiting in the queue.
    pub fn pending_compiles(&self) -> usize {
        self.queue.len()
    }

    /// The profile table (for inspection or seeding).
    pub fn profiles(&self) -> &ProfileTable {
        &self.profiles
    }

    /// Mutable profile access (benchmarks pre-seed profiles).
    pub fn profiles_mut(&mut self) -> &mut ProfileTable {
        &mut self.profiles
    }

    /// Which methods are currently compiled.
    pub fn compiled_methods(&self) -> Vec<MethodId> {
        let mut v: Vec<MethodId> = self.code.keys().copied().collect();
        v.sort();
        v
    }

    /// The installed graph of a compiled method, if any.
    pub fn compiled_graph(&self, m: MethodId) -> Option<&Graph> {
        self.code.get(&m).map(|cm| &*cm.graph)
    }

    /// Per-compilation inliner statistics, in compilation order.
    pub fn compile_log(&self) -> &[(MethodId, crate::inliner::InlineStats)] {
        &self.last_compile_stats
    }

    /// Aggregate bailout counters (deterministic for a given run setup).
    pub fn bailouts(&self) -> BailoutCounters {
        self.bailouts
    }

    /// Lifetime code-cache statistics: evictions, admission rejections,
    /// re-tiers, aging events and the installed-bytes high-water mark.
    /// Deterministic for a given run setup, like [`Machine::bailouts`].
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    /// Every recorded bailout, in occurrence order.
    pub fn bailout_log(&self) -> &[BailoutRecord] {
        &self.bailout_log
    }

    /// Methods permanently pinned to the interpreter, sorted.
    pub fn blacklisted_methods(&self) -> Vec<MethodId> {
        let mut v: Vec<MethodId> = self.blacklist.iter().copied().collect();
        v.sort();
        v
    }

    /// Methods pinned to fallback-only code by the storm throttle, sorted.
    pub fn pinned_methods(&self) -> Vec<MethodId> {
        let mut v: Vec<MethodId> = self
            .spec
            .iter()
            .filter(|(_, s)| s.pinned)
            .map(|(&m, _)| m)
            .collect();
        v.sort();
        v
    }

    /// Number of compilation requests the broker has handled (each request
    /// runs the whole ladder; blacklisted methods generate no requests).
    pub fn compile_requests(&self) -> u64 {
        self.compile_requests
    }

    /// Consolidated compilation telemetry: everything the individual
    /// getters expose, in one snapshot.
    pub fn report(&self) -> CompilationReport {
        CompilationReport {
            compile_requests: self.compile_requests,
            compilations: self.compilations,
            total_compile_cycles: self.total_compile_cycles,
            total_stall_cycles: self.total_stall_cycles,
            installed_bytes: self.installed_bytes,
            bailouts: self.bailouts,
            cache: self.cache,
            bailout_log: self.bailout_log.clone(),
            compile_log: self.last_compile_stats.clone(),
            blacklisted: self.blacklisted_methods(),
            pinned: self.pinned_methods(),
            snapshot: self.snapshot_stats,
            compile_wall_nanos: self.compile_wall_nanos,
            trial_hits: self.trials.as_ref().map_or(0, |t| t.hits()),
            trial_misses: self.trials.as_ref().map_or(0, |t| t.misses()),
        }
    }

    /// Installs a fault-injection plan (see [`crate::faults`]). Faults are
    /// indexed by compilation request: the Nth request the broker handles.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Routes all subsequent compilations' [`CompileEvent`] streams — the
    /// broker's own tier/bailout/installation events and everything the
    /// inliner and opt pipeline emit — into `sink`.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink + 'p>) {
        self.trace = sink;
    }

    // ---- warmup snapshots --------------------------------------------------

    /// Lifetime snapshot counters (loads, graceful fallbacks, replayed
    /// compiles, writes). Deterministic for a given run setup.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.snapshot_stats
    }

    /// Every successful install in installation order — the decision log a
    /// warmup snapshot captures.
    pub fn decision_log(&self) -> &[DecisionRecord] {
        &self.decision_log
    }

    /// Methods whose replayed snapshot decision was quarantined as
    /// poisoned (sorted). See `POISON_WINDOW`.
    pub fn poisoned_methods(&self) -> Vec<MethodId> {
        self.poisoned_methods.iter().copied().collect()
    }

    /// Captures the machine's learned state — the full profile table plus
    /// the compile decision log — as a [`Snapshot`] fingerprinted against
    /// the running program. Byte-deterministic: two machines that observed
    /// the same run produce identical [`Snapshot::to_bytes`] output
    /// regardless of [`VmConfig::compile_threads`].
    ///
    /// Decisions that were replayed from a snapshot and later quarantined
    /// as poisoned are excluded — a bad snapshot does not propagate its
    /// poison to the next generation. A decision the method *re-earned*
    /// from live traffic after quarantine is included normally.
    pub fn snapshot(&self) -> Snapshot {
        let decisions: Vec<DecisionRecord> = self
            .decision_log
            .iter()
            .enumerate()
            .filter(|(i, d)| {
                !(self.decision_replayed.get(*i).copied().unwrap_or(false)
                    && self.poisoned_methods.contains(&d.method))
            })
            .map(|(_, d)| d.clone())
            .collect();
        Snapshot::capture(
            snapshot::fingerprint(self.program),
            &self.profiles,
            &decisions,
        )
    }

    /// Strictly loads a serialized snapshot: parse, checksum, fingerprint
    /// check, then [`Machine::apply_snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; the machine state is untouched on error.
    pub fn load_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let snap = Snapshot::from_bytes(bytes)?;
        self.apply_snapshot(&snap)
    }

    /// Gracefully loads a serialized snapshot: on any error the machine
    /// counts a fallback, emits [`CompileEvent::SnapshotFallback`] and
    /// proceeds as a cold start — never a panic. Returns whether the
    /// snapshot was applied.
    pub fn load_snapshot_or_cold(&mut self, bytes: &[u8]) -> bool {
        match self.load_snapshot(bytes) {
            Ok(()) => true,
            Err(e) => {
                self.note_snapshot_fallback(&e.to_string());
                false
            }
        }
    }

    /// Gracefully merges N parsed replica snapshots and applies the result:
    /// replicas with a foreign program fingerprint are dropped (each counts
    /// a fallback), the survivors go through [`Snapshot::merge`] with the
    /// machine's own `hotness_threshold` as the support bar, and the merged
    /// snapshot is applied like any other load. Emits
    /// [`CompileEvent::SnapshotMerged`] plus one
    /// [`CompileEvent::DecisionAgedOut`] per decision the support check
    /// dropped. On any failure (zero usable replicas) the machine counts a
    /// fallback and proceeds cold — never a panic. Returns whether a merged
    /// snapshot was applied.
    pub fn load_merged_or_cold(&mut self, replicas: &[Snapshot]) -> bool {
        let expected = snapshot::fingerprint(self.program);
        let mut usable: Vec<Snapshot> = Vec::new();
        for r in replicas {
            if r.fingerprint == expected {
                usable.push(r.clone());
            } else {
                self.note_snapshot_fallback(&format!(
                    "stale replica: program fingerprint {:016x} expected {:016x}",
                    r.fingerprint, expected
                ));
            }
        }
        if usable.is_empty() {
            if replicas.is_empty() {
                self.note_snapshot_fallback("merge of zero replicas");
            }
            return false;
        }
        let policy = MergePolicy::with_support(self.config.hotness_threshold.max(1));
        let merged = match Snapshot::merge(&usable, &policy) {
            Ok(m) => m,
            Err(e) => {
                self.note_snapshot_fallback(&e.to_string());
                return false;
            }
        };
        let stats = merged.stats;
        self.emit(|| CompileEvent::SnapshotMerged {
            replicas: stats.replicas,
            methods: stats.methods,
            decisions: stats.decisions,
            conflicts: stats.conflicts,
            aged_out: stats.aged_out,
        });
        let required = merged.min_support;
        for (rec, hotness) in &merged.aged_out {
            let (method, hotness) = (rec.method, *hotness);
            self.emit(|| CompileEvent::DecisionAgedOut {
                method,
                hotness,
                required,
            });
        }
        self.snapshot_stats.merged += stats.replicas;
        self.snapshot_stats.aged_out += stats.aged_out;
        match self.apply_snapshot(&merged.snapshot) {
            Ok(()) => true,
            Err(e) => {
                self.note_snapshot_fallback(&e.to_string());
                false
            }
        }
    }

    /// Applies a parsed snapshot before the first run: verifies the program
    /// fingerprint, merges the snapshot's profiles into the live table, and
    /// — under [`ReplayMode::Eager`] — compiles the decision log's method
    /// set up front through the normal broker/ladder/cache-admission path
    /// (budgets, verification, admission control and fault injection all
    /// still apply). The replay's compile latency is folded into the
    /// virtual clock as pre-run warmup, so measured iterations start
    /// steady.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StaleProgram`] when the fingerprint does not match
    /// the running program; profiles are untouched in that case.
    pub fn apply_snapshot(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let expected = snapshot::fingerprint(self.program);
        if snap.fingerprint != expected {
            return Err(SnapshotError::StaleProgram {
                expected,
                found: snap.fingerprint,
            });
        }
        let table = snap.profile_table();
        self.snapshot_stats.seeded_methods += table.len() as u64;
        // Remember each method's seeded contribution so the quarantine
        // ladder can roll it back if the decision turns out poisoned.
        for (m, mp) in table.iter() {
            self.replay_seed.entry(m).or_default().add(mp);
        }
        self.profiles.merge(&table);
        self.snapshot_stats.loaded += 1;
        let (methods, decisions, mode) = (
            snap.methods.len() as u64,
            snap.decisions.len() as u64,
            self.config.replay,
        );
        self.emit(|| CompileEvent::SnapshotLoaded {
            methods,
            decisions,
            mode: mode.label().to_string(),
        });
        if mode == ReplayMode::Eager {
            // Injected snapshot poison: `decision_idx` indexes the decided-
            // method order about to be replayed; the targeted installs take
            // an uncommon trap on first entry.
            let decided = snap.decided_methods();
            let poisoned_idx = self.fault_plan.poisoned_decisions();
            for &idx in &poisoned_idx {
                if let Some(&m) = decided.get(idx as usize) {
                    self.replay_poison.insert(m);
                }
            }
            // One request per decided method, enqueued and drained
            // sequentially — exactly the Barrier-mode hotness trigger, so
            // stall accounting is identical across worker-pool sizes.
            self.replay_active = true;
            for m in decided {
                if self.code.contains_key(&m) || self.blacklist.contains(&m) {
                    continue;
                }
                if self.compile(m) {
                    self.snapshot_stats.replayed_compiles += 1;
                }
            }
            self.replay_active = false;
            // The replay is pre-run warmup: fold its stall into the virtual
            // clock base so the first measured run starts clean (and the
            // worker-pool timeline stays monotone).
            self.vbase += self.exec_cycles + self.run_stall_cycles;
            self.exec_cycles = 0;
            self.run_compile_cycles = 0;
            self.run_stall_cycles = 0;
        }
        Ok(())
    }

    /// Counts a graceful cold-start fallback (snapshot unreadable, stale or
    /// corrupt) and emits [`CompileEvent::SnapshotFallback`]. Called by the
    /// session layers for store-read failures; [`Machine::load_snapshot_or_cold`]
    /// calls it for parse/fingerprint failures.
    pub fn note_snapshot_fallback(&mut self, reason: &str) {
        self.snapshot_stats.fallbacks += 1;
        self.emit(|| CompileEvent::SnapshotFallback {
            reason: reason.to_string(),
        });
    }

    /// Counts a successful snapshot write and emits
    /// [`CompileEvent::SnapshotWritten`].
    pub fn note_snapshot_written(&mut self, methods: u64, decisions: u64, bytes: u64) {
        self.snapshot_stats.written += 1;
        self.emit(|| CompileEvent::SnapshotWritten {
            methods,
            decisions,
            bytes,
        });
    }

    /// Counts a snapshot write the store rejected (graceful, like every
    /// other snapshot failure).
    pub fn note_snapshot_write_failed(&mut self) {
        self.snapshot_stats.write_failures += 1;
    }

    /// Force-compiles a method immediately (used by experiments that want
    /// a deterministic compile point). Returns whether code was installed;
    /// `false` means the ladder exhausted and the method is blacklisted.
    /// Drains the whole queue, so any pipelined in-flight requests install
    /// here too.
    pub fn compile_now(&mut self, method: MethodId) -> bool {
        if self.code.contains_key(&method) {
            return true;
        }
        if self.blacklist.contains(&method) {
            return false;
        }
        self.compile(method)
    }

    /// Removes a method's installed code, releasing its bytes and starting
    /// a fresh profiling baseline — the deterministic external invalidation
    /// point for tests and experiments. No-op when the method has no
    /// installed code.
    pub fn invalidate_code(&mut self, method: MethodId) {
        self.invalidate(method);
    }

    /// Enqueues a compilation request for `method` without draining the
    /// queue. Returns `false` (and enqueues nothing) when the method is
    /// already compiled, blacklisted, or has a request in flight — the
    /// guards that make double-installs impossible. The request snapshots
    /// fuel, fault and speculation; in [`InstallPolicy::Safepoint`] mode it
    /// also snapshots the profile table.
    pub fn enqueue_compile(&mut self, method: MethodId) -> bool {
        if self.code.contains_key(&method)
            || self.blacklist.contains(&method)
            || self.in_flight.contains(&method)
        {
            return false;
        }
        let id = self.compile_requests;
        self.compile_requests += 1;
        let fault = self.fault_plan.fault_at(id);

        // Storm throttle: a method that deoptimized past the recompile cap
        // is pinned — this compile and every later one emit fallback-only
        // (never `deopt`) code and the drift monitor stays off. Decided at
        // enqueue (same point as the synchronous broker: request counted,
        // compilation not yet started).
        if self.config.deopt {
            let pin_now = self
                .spec
                .get(&method)
                .is_some_and(|s| !s.pinned && s.recompiles >= MAX_RECOMPILES);
            if pin_now {
                self.spec.get_mut(&method).expect("just probed").pinned = true;
                self.bailouts.pinned += 1;
                self.emit(|| CompileEvent::SpeculationPinned { method });
            }
        }
        let profiles = match self.config.install_policy {
            // Barrier mode drains before the mutator runs another
            // instruction, so the live table is already the enqueue-time
            // view — no clone needed.
            InstallPolicy::Barrier => None,
            InstallPolicy::Safepoint => Some(self.profiles.clone()),
        };
        self.queue.push(CompileRequest {
            id,
            method,
            fuel_limit: self.config.compile_fuel,
            fault,
            speculation: self.speculation_for(method),
            profiles,
            enqueued_at: self.vnow(),
        });
        self.in_flight.insert(method);
        true
    }

    /// Drains the compile queue: runs every pending request through the
    /// worker pool (or inline for a pool size of 0) and applies the
    /// responses in request-id order — counters, wasted-work charges,
    /// trace-buffer replay, then install or blacklist.
    pub fn drain_compile_queue(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let requests = self.queue.take_all();
        let responses = broker::process(
            self.program,
            &*self.inliner,
            &self.profiles,
            requests,
            self.config.compile_threads,
            self.trace.enabled(),
            self.trials.as_deref(),
        );
        for resp in responses {
            self.compile_wall_nanos += resp.wall_nanos;
            self.charge_response(&resp);
            self.apply_response(resp);
        }
    }

    // ---- internals ---------------------------------------------------------

    fn hot(&self, method: MethodId) -> bool {
        let inv = self.profiles.invocations(method);
        let be = self.profiles.backedges(method);
        let hotness = inv + be / 4;
        let spec_ok = match self.spec.get(&method) {
            // A previously invalidated method re-promotes on *fresh* profile
            // data only, against an exponentially backed-off bar — a method
            // that keeps deoptimizing has to prove itself harder each time
            // (storm throttling), while the compile still sees the merged
            // profile.
            Some(s) => {
                let base = s.base_invocations + s.base_backedges / 4;
                hotness.saturating_sub(base) >= self.recompile_bar(s.recompiles)
            }
            None => hotness >= self.config.hotness_threshold,
        };
        if !spec_ok {
            return false;
        }
        // The code-cache gate, populated only by evictions and admission
        // deferrals (so it never fires at budget 0): an evicted method
        // re-tiers through the normal hotness path — fresh hotness above
        // the eviction-time baseline at the plain threshold — while each
        // admission deferral doubles the bar, throttling a method the
        // cache keeps refusing.
        match self.cache_state.get(&method) {
            Some(c) => {
                let base = c.base_invocations + c.base_backedges / 4;
                hotness.saturating_sub(base) >= self.readmission_bar(c.deferrals)
            }
            None => true,
        }
    }

    /// The backed-off hotness bar after a method's Nth admission deferral:
    /// `hotness_threshold * 2^n`, saturating — the cache-pressure analogue
    /// of [`Machine::recompile_bar`].
    fn readmission_bar(&self, deferrals: u32) -> u64 {
        self.config
            .hotness_threshold
            .saturating_mul(1u64 << deferrals.min(20))
    }

    /// The backed-off hotness bar for a method's Nth recompilation:
    /// `hotness_threshold * 2^n`, saturating.
    fn recompile_bar(&self, recompiles: u32) -> u64 {
        self.config
            .hotness_threshold
            .saturating_mul(1u64 << recompiles.min(20))
    }

    /// Emits a broker-level trace event, building it only if the sink is
    /// enabled.
    fn emit(&self, event: impl FnOnce() -> CompileEvent) {
        if self.trace.enabled() {
            self.trace.emit(event());
        }
    }

    /// One compilation request, enqueued and drained to completion — the
    /// synchronous entry point the `Barrier` install policy uses at the
    /// hotness trigger. Returns whether code was installed; on `false` the
    /// method is blacklisted and will never be attempted again.
    fn compile(&mut self, method: MethodId) -> bool {
        if !self.enqueue_compile(method) {
            return self.code.contains_key(&method);
        }
        self.drain_compile_queue();
        self.code.contains_key(&method)
    }

    /// The speculation policy handed to a compilation of `method`.
    fn speculation_for(&self, method: MethodId) -> Speculation {
        let pinned = self.spec.get(&method).is_some_and(|s| s.pinned);
        Speculation {
            allow_deopt: self.config.deopt && !pinned,
            confidence: DEOPT_CONFIDENCE,
        }
    }

    /// The simulated compile cycles one response cost: wasted work from
    /// failed rungs plus (on success) the installed graph's compile cost.
    /// `compile_cost` is linear in work nodes, so charging the aggregate
    /// here equals the synchronous broker's incremental charges exactly.
    fn response_cycles(&self, resp: &CompileResponse) -> u64 {
        let mut cycles = self.config.cost.compile_cost(resp.wasted_work as usize);
        if let Some(pkg) = &resp.package {
            cycles += self.config.cost.compile_cost(pkg.work_nodes);
        }
        cycles
    }

    /// Charges a response's compile cycles to the accounting counters and
    /// computes the mutator-visible stall it caused. With a worker pool the
    /// compile ran in the background from `enqueued_at` on the earliest-free
    /// worker, so the mutator only stalls for the portion not yet finished
    /// at the install safepoint; with zero threads the mutator did the work
    /// itself and stalls for all of it. In `Barrier` mode every drain holds
    /// exactly one request whose enqueue time is "now", so both formulas
    /// yield `stall == cycles` and the policies stay cycle-identical.
    fn charge_response(&mut self, resp: &CompileResponse) {
        let cycles = self.response_cycles(resp);
        self.run_compile_cycles += cycles;
        self.total_compile_cycles += cycles;
        let stall = if self.config.compile_threads == 0 {
            cycles
        } else {
            let (w, free_at) = self
                .worker_free
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, free)| free)
                .expect("worker_free is never empty");
            let start = resp.enqueued_at.max(free_at);
            let finish = start + cycles;
            self.worker_free[w] = finish;
            finish.saturating_sub(self.vnow())
        };
        self.run_stall_cycles += stall;
        self.total_stall_cycles += stall;
    }

    /// Applies one compile response on the mutator: replays the worker's
    /// buffered trace events in order, records failed-rung bailouts, then
    /// installs the surviving package or blacklists the method.
    fn apply_response(&mut self, resp: CompileResponse) {
        self.in_flight.remove(&resp.method);
        let method = resp.method;
        if self.trace.enabled() {
            for event in resp.events {
                self.trace.emit(event);
            }
        }
        for (stage, error) in resp.failures {
            self.bailouts.record(stage, &error);
            self.bailout_log.push(BailoutRecord {
                method,
                stage,
                error,
            });
        }
        match resp.package {
            Some(pkg) => {
                // Admission control can still refuse the package, so the
                // queue's install counter reflects the actual outcome.
                let installed = self.install_package(method, pkg, resp.fault);
                self.queue.note_completed(installed);
            }
            None => {
                self.queue.note_completed(false);
                self.blacklist.insert(method);
                self.bailouts.blacklisted += 1;
                self.emit(|| CompileEvent::TierTransition {
                    method,
                    tier: CodeTier::Interpreter,
                });
            }
        }
    }

    /// Installs a verified package into the code cache: budget admission,
    /// cache accounting, speculation bookkeeping, and the tier-transition /
    /// install events. The graph was already verified on the worker —
    /// verification is part of the ladder, so a rejected graph never
    /// reaches this point. Returns whether code was actually installed;
    /// `false` means admission control deferred the compile (the method is
    /// *not* blacklisted — it can re-heat through the backed-off bar).
    ///
    /// This is also where Safepoint-mode installs re-check admission: the
    /// cache state is read here, at the install point on the mutator in
    /// request-id order, never at enqueue — so in-flight compilations can
    /// never race an eviction, and the decision stream is byte-identical
    /// across worker-pool sizes.
    fn install_package(
        &mut self,
        method: MethodId,
        pkg: InstallPackage,
        fault: Option<FaultKind>,
    ) -> bool {
        debug_assert!(
            !self.code.contains_key(&method),
            "double-install of {method:?}: the in-flight guard should make this impossible"
        );
        // Defensive in release builds: any stale code is funneled through
        // `invalidate` — and thus the audited accounting helpers — so
        // every byte is released exactly once before the new package's
        // bytes are added. Replacing code in place would drift
        // `installed_bytes`.
        self.invalidate(method);
        let mut pkg = pkg;
        if self.config.code_cache_budget > 0 {
            if let Err(reason) = self.make_room(method, &pkg) {
                // A full-tier package that cannot be admitted gets one
                // shot at the inline-free degraded tier — a smaller
                // package that may still clear admission — before the
                // compile is deferred outright. This is the degradation
                // ladder's cache-pressure rung.
                let retry = if pkg.stage == CompileStage::Full {
                    self.degraded_retry(method)
                } else {
                    None
                };
                match retry {
                    Some(smaller) if self.make_room(method, &smaller).is_ok() => {
                        self.cache.degraded_admissions += 1;
                        pkg = smaller;
                    }
                    _ => {
                        let bytes = self.config.cost.code_bytes(pkg.graph.size());
                        return self.defer_install(method, bytes, reason);
                    }
                }
            }
        }
        let InstallPackage {
            stage,
            graph,
            work_nodes,
            stats,
        } = pkg;
        let graph_size = graph.size();
        let bytes = self.config.cost.code_bytes(graph_size);
        self.account_install(bytes);
        self.compilations += 1;
        self.last_compile_stats.push((method, stats));
        // Decision log for warmup snapshots: the plan hash fingerprints the
        // installed graph's printed text, so replayed runs can be checked
        // against the decisions they were seeded from. Hashed here, while
        // the graph is still unwrapped.
        self.decision_log.push(DecisionRecord {
            method,
            tier: stage,
            plan_hash: snapshot::fnv1a(
                incline_ir::print::graph_str(self.program, &graph).as_bytes(),
            ),
            speculative_sites: stats.speculative_sites,
        });
        self.decision_replayed.push(self.replay_active);
        let pinned = self.spec.get(&method).is_some_and(|s| s.pinned);
        let has_deopt = graph_has_deopt(&graph);
        let has_virtual = graph_has_virtual_call(&graph);
        // Snapshot poison (quarantine ladder): a replayed install targeted
        // by a `PoisonSnapshot` fault traps on first entry, like ForceDeopt.
        let poisoned = self.replay_active && self.replay_poison.contains(&method);
        // The injected speculation faults are ignored for pinned methods —
        // pinned code must never deoptimize, even under fault injection.
        let force_deopt =
            self.config.deopt && !pinned && (fault == Some(FaultKind::ForceDeopt) || poisoned);
        let force_drift =
            self.config.deopt && !pinned && fault == Some(FaultKind::ForceGuardFailure);
        let drift_armed = self.config.deopt
            && !pinned
            && (force_drift || (stats.speculative_sites > 0 && has_virtual));
        self.code.insert(
            method,
            CompiledMethod {
                graph: Arc::new(graph),
                bytes,
                has_deopt,
                drift_armed,
                force_deopt,
                force_drift,
                invocations: 0,
                virtual_dispatches: 0,
                last_used: self.use_seq,
                aged: false,
            },
        );
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: stage.code_tier(),
        });
        self.emit(|| CompileEvent::CodeInstalled {
            method,
            bytes,
            graph_size,
            work_nodes: work_nodes as u64,
        });
        // A successful install clears the admission backoff, and a method
        // with eviction history has observably re-tiered.
        if let Some(c) = self.cache_state.get_mut(&method) {
            c.deferrals = 0;
            if c.evictions > 0 {
                let evictions = c.evictions;
                self.cache.re_tiered += 1;
                self.emit(|| CompileEvent::ReTiered { method, evictions });
            }
        }
        // Every install after an invalidation is a recompilation against
        // the merged profile; the bar it cleared is recorded for tooling.
        if self.config.deopt && self.spec.contains_key(&method) {
            let bar = {
                let s = self.spec.get_mut(&method).expect("just probed");
                let bar = s.recompiles;
                s.recompiles += 1;
                bar
            };
            let threshold = self.recompile_bar(bar);
            let recompiles = bar + 1;
            self.bailouts.recompiles += 1;
            self.emit(|| CompileEvent::Recompiled {
                method,
                recompiles,
                threshold,
            });
        }
        // A replayed install starts its quarantine probation: a deopt
        // within the first `POISON_WINDOW` activations is attributed to
        // the snapshot, not live drift.
        if self.replay_active {
            self.replay_guard.insert(method);
        }
        // Injected cache fault: throw the fresh install straight back out,
        // as if pressure had picked it — exercises the evict → reprofile →
        // re-tier cycle deterministically, with or without a real budget.
        if fault == Some(FaultKind::ForceEvict) {
            self.evict(method, "forced", true);
        }
        true
    }

    /// Removes a method's installed code, releasing its bytes back to the
    /// cache accounting, and starts a fresh profiling baseline for the
    /// backed-off recompilation bar. No-op when the code is already gone
    /// (a nested activation of the same method may have invalidated it
    /// first — outer activations keep executing their `Arc` of the old
    /// graph safely).
    fn invalidate(&mut self, method: MethodId) {
        let Some(cm) = self.code.remove(&method) else {
            return;
        };
        // The replayed code is gone; whatever installs next was decided
        // live, so probation ends here.
        self.replay_guard.remove(&method);
        self.account_release(cm.bytes);
        self.bailouts.invalidations += 1;
        let inv = self.profiles.invocations(method);
        let be = self.profiles.backedges(method);
        let s = self.spec.entry(method).or_default();
        s.base_invocations = inv;
        s.base_backedges = be;
        let recompiles = s.recompiles;
        let bytes = cm.bytes;
        self.emit(|| CompileEvent::CodeInvalidated {
            method,
            bytes,
            recompiles,
        });
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
    }

    // ---- bounded code cache ------------------------------------------------

    /// The audited install side of the cache accounting. Every byte that
    /// enters `installed_bytes` flows through here (and leaves through
    /// [`Machine::account_release`]), so the budget invariant and the
    /// high-water mark are maintained at a single point.
    fn account_install(&mut self, bytes: u64) {
        self.installed_bytes += bytes;
        if self.installed_bytes > self.cache.high_water_bytes {
            self.cache.high_water_bytes = self.installed_bytes;
        }
        debug_assert!(
            self.config.code_cache_budget == 0
                || self.installed_bytes <= self.config.code_cache_budget,
            "code-cache budget exceeded: {} installed > {} budget",
            self.installed_bytes,
            self.config.code_cache_budget
        );
    }

    /// The audited release side of the cache accounting: invalidation and
    /// eviction both return bytes through here, so double-release (the
    /// classic accounting-drift hazard) trips immediately in debug builds
    /// instead of silently skewing the budget.
    fn account_release(&mut self, bytes: u64) {
        debug_assert!(
            self.installed_bytes >= bytes,
            "code-cache accounting drift: releasing {bytes} bytes with only {} installed",
            self.installed_bytes
        );
        self.installed_bytes = self.installed_bytes.saturating_sub(bytes);
    }

    /// Makes room in the budgeted cache for `pkg`, evicting victims in
    /// policy order if necessary. `Err` carries the admission-rejection
    /// reason: `no_evictable_victim` (everything resident is pinned,
    /// mid-activation, or simply smaller in total than the shortfall —
    /// which includes any package bigger than the whole budget) or
    /// `benefit_below_bar` (the candidate does not strictly beat the
    /// cheapest victim under the configured policy).
    fn make_room(&mut self, method: MethodId, pkg: &InstallPackage) -> Result<(), &'static str> {
        let budget = self.config.code_cache_budget;
        let bytes = self.config.cost.code_bytes(pkg.graph.size());
        let free = budget.saturating_sub(self.installed_bytes);
        if bytes <= free {
            return Ok(());
        }
        let need = bytes - free;
        self.age_scan();
        let entries: Vec<CacheEntry> = self
            .code
            .iter()
            .filter(|&(&m, _)| m != method && self.evictable(m))
            .map(|(&m, cm)| CacheEntry {
                method: m,
                last_used: cm.last_used,
                uses: cm.invocations,
                bytes: cm.bytes,
                aged: cm.aged,
            })
            .collect();
        if entries.iter().map(|e| e.bytes).sum::<u64>() < need {
            return Err("no_evictable_victim");
        }
        // The install point is a use tick of its own, taken *before*
        // scoring, so an admitted candidate is strictly newer than every
        // resident — under LRU a hot re-arrival always beats the stalest
        // victim rather than tying with it.
        self.use_seq += 1;
        let now = self.use_seq;
        let hotness = self.profiles.invocations(method) + self.profiles.backedges(method) / 4;
        let candidate = CacheEntry {
            method,
            last_used: now,
            uses: hotness,
            bytes,
            aged: false,
        };
        let policy = self.config.eviction_policy;
        let order = cache::victim_order(policy, &entries, now);
        if !cache::admits(policy, &candidate, &order[0], now) {
            return Err("benefit_below_bar");
        }
        let mut freed = 0u64;
        for e in order {
            if freed >= need {
                break;
            }
            freed += e.bytes;
            self.evict(e.method, policy.label(), false);
        }
        Ok(())
    }

    /// Evicts `method`'s installed code: releases its bytes, records a
    /// fresh profiling baseline so re-admission requires genuinely new
    /// heat, and emits the eviction events. Unlike [`Machine::invalidate`]
    /// this is *not* a speculation event — `spec` state and the
    /// invalidation counters are untouched, so eviction never burns a
    /// recompile attempt.
    fn evict(&mut self, method: MethodId, policy: &'static str, forced: bool) {
        let Some(cm) = self.code.remove(&method) else {
            return;
        };
        // Evicted replayed code ends its probation like any other exit.
        self.replay_guard.remove(&method);
        self.account_release(cm.bytes);
        self.cache.evictions += 1;
        if forced {
            self.cache.forced_evictions += 1;
        }
        let inv = self.profiles.invocations(method);
        let be = self.profiles.backedges(method);
        let c = self.cache_state.entry(method).or_default();
        c.evictions += 1;
        c.base_invocations = inv;
        c.base_backedges = be;
        let bytes = cm.bytes;
        let resident_uses = cm.invocations;
        self.emit(|| CompileEvent::CodeEvicted {
            method,
            bytes,
            policy: policy.to_string(),
            resident_uses,
        });
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
    }

    /// Graceful rejection: the compile is dropped (not blacklisted), the
    /// method goes back to the interpreter, and its re-admission bar backs
    /// off exponentially — the cache-pressure analogue of the recompile
    /// storm throttle. Returns `false` for `install_package`.
    fn defer_install(&mut self, method: MethodId, bytes: u64, reason: &'static str) -> bool {
        self.cache.admission_rejections += 1;
        let inv = self.profiles.invocations(method);
        let be = self.profiles.backedges(method);
        let c = self.cache_state.entry(method).or_default();
        c.deferrals = c.deferrals.saturating_add(1);
        c.base_invocations = inv;
        c.base_backedges = be;
        self.emit(|| CompileEvent::AdmissionRejected {
            method,
            bytes,
            reason: reason.to_string(),
        });
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
        false
    }

    /// Recompiles `method` on the inline-free degraded tier at the install
    /// safepoint, for the admission retry. This is mutator work (the
    /// worker already finished its full-tier package), so its compile cost
    /// is charged entirely as stall — no worker-pool overlap.
    fn degraded_retry(&mut self, method: MethodId) -> Option<InstallPackage> {
        let trace = Arc::clone(&self.trace);
        let sink: &dyn TraceSink = if trace.enabled() { &*trace } else { &NullSink };
        let pkg = broker::degraded_package(self.program, method, self.config.compile_fuel, sink)?;
        let cycles = self.config.cost.compile_cost(pkg.work_nodes);
        self.run_compile_cycles += cycles;
        self.total_compile_cycles += cycles;
        self.run_stall_cycles += cycles;
        self.total_stall_cycles += cycles;
        Some(pkg)
    }

    /// Marks residents idle past [`VmConfig::cache_age_window`] use ticks
    /// as aged, flooring their eviction score under every policy. Runs on
    /// demand when the cache is under pressure; methods un-age on their
    /// next compiled activation.
    fn age_scan(&mut self) {
        let window = self.config.cache_age_window;
        if window == 0 {
            return;
        }
        let mut newly_aged: Vec<(MethodId, u64)> = self
            .code
            .iter()
            .filter(|(_, cm)| !cm.aged)
            .filter_map(|(&m, cm)| {
                let idle = self.use_seq.saturating_sub(cm.last_used);
                (idle >= window).then_some((m, idle))
            })
            .collect();
        newly_aged.sort();
        for (m, idle) in newly_aged {
            if let Some(cm) = self.code.get_mut(&m) {
                cm.aged = true;
            }
            self.cache.aged += 1;
            self.emit(|| CompileEvent::MethodAged { method: m, idle });
        }
    }

    /// Whether `method`'s code may be evicted right now: storm-pinned
    /// methods keep their fallback-only code (evicting it would re-open
    /// the recompile storm the pin closed), and a method with a live
    /// compiled activation on the stack is untouchable mid-flight.
    fn evictable(&self, method: MethodId) -> bool {
        !self.spec.get(&method).is_some_and(|s| s.pinned)
            && self.live_compiled.get(&method).copied().unwrap_or(0) == 0
    }

    /// Brackets a compiled activation for the eviction guard.
    fn note_compiled_entry(&mut self, method: MethodId) {
        *self.live_compiled.entry(method).or_insert(0) += 1;
    }

    fn note_compiled_exit(&mut self, method: MethodId) {
        let Some(n) = self.live_compiled.get_mut(&method) else {
            debug_assert!(false, "compiled-frame exit without a matching entry");
            return;
        };
        *n -= 1;
        if *n == 0 {
            self.live_compiled.remove(&method);
        }
    }

    /// Decodes `method`'s back edges for the profiling interpreter, once
    /// per method: byte `b` of the mask has bit 0 set when the jump or
    /// then-edge out of block `b` is a loop back edge, and bit 1 when the
    /// else-edge is. Derived from the same [`LoopForest`] tail/header pairs
    /// the profile has always counted, so both targets of a branch count
    /// when both are headers reached from a tail.
    fn back_edge_mask(&mut self, method: MethodId) -> Arc<[u8]> {
        if let Some(mask) = self.back_edges.get(&method) {
            return Arc::clone(mask);
        }
        let graph = &self.program.method(method).graph;
        let forest = LoopForest::compute(graph);
        let is_back_edge = |tail: BlockId, dest: BlockId| {
            forest
                .loops
                .iter()
                .any(|l| l.header == dest && l.back_edges.contains(&tail))
        };
        let mask: Arc<[u8]> = graph
            .block_ids()
            .map(|b| match &graph.block(b).term {
                Terminator::Jump(d, _) => u8::from(is_back_edge(b, *d)),
                Terminator::Branch {
                    then_dest,
                    else_dest,
                    ..
                } => {
                    u8::from(is_back_edge(b, then_dest.0))
                        | u8::from(is_back_edge(b, else_dest.0)) << 1
                }
                _ => 0,
            })
            .collect();
        self.back_edges.insert(method, Arc::clone(&mask));
        mask
    }

    /// Reads and updates `method`'s code entry for one compiled activation
    /// in a single `code` lookup; `None` when no code is installed.
    ///
    /// The drift monitor is evaluated first, between activations, so
    /// tiering down needs no state transfer — the next activation simply
    /// starts interpreted on a fresh frame. Otherwise the activation is a
    /// use tick for the eviction clock: recency feeds LRU and the decay
    /// policy, and any activation un-ages the method.
    fn enter_compiled(&mut self, method: MethodId) -> Option<CompiledEntry> {
        let cm = self.code.get_mut(&method)?;
        if self.config.deopt && cm.drift_tripped() {
            return Some(CompiledEntry::Drifted);
        }
        self.use_seq += 1;
        cm.invocations += 1;
        cm.last_used = self.use_seq;
        cm.aged = false;
        Some(if cm.force_deopt {
            CompiledEntry::ForcedDeopt
        } else {
            CompiledEntry::Run {
                graph: Arc::clone(&cm.graph),
                deoptable: cm.has_deopt,
            }
        })
    }

    fn exec_method(
        &mut self,
        method: MethodId,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, ExecError> {
        if depth > MAX_DEPTH {
            return Err(ExecError::StackOverflow);
        }
        // Activation entry is a safepoint: a method with a request in
        // flight installs (or blacklists) here, so pipelined compilation
        // tiers up on the next invocation after completion.
        if !self.in_flight.is_empty() && self.in_flight.contains(&method) {
            self.drain_compile_queue();
        }
        if let Some(entry) = self.enter_compiled(method) {
            return match self.exec_compiled(method, entry, args, depth)? {
                CompiledExit::Returned(v) => Ok(v),
                // The activation deoptimized: effects rolled back, code
                // invalidated. Replay it interpreted — profiling resumes
                // and, once the backed-off bar clears, the broker
                // recompiles from the merged profile.
                CompiledExit::Deoptimized(args) => self.exec_interpreted(method, args, depth),
            };
        }
        // Interpreted activation: profile and maybe promote. Blacklisted
        // methods are never re-attempted — they stay interpreted for good.
        self.profiles.record_invocation(method);
        if self.config.jit
            && !self.blacklist.contains(&method)
            && !self.in_flight.contains(&method)
            && self.hot(method)
        {
            match self.config.install_policy {
                // Barrier: compile at the trigger and run the compiled
                // code immediately — the classic synchronous behavior.
                InstallPolicy::Barrier => {
                    if self.compile(method) {
                        if let Some(entry) = self.enter_compiled(method) {
                            return match self.exec_compiled(method, entry, args, depth)? {
                                CompiledExit::Returned(v) => Ok(v),
                                CompiledExit::Deoptimized(args) => {
                                    self.exec_interpreted(method, args, depth)
                                }
                            };
                        }
                    }
                }
                // Safepoint: hand the request to the background broker and
                // keep interpreting this activation; the drain above picks
                // the result up at a later safepoint.
                InstallPolicy::Safepoint => {
                    self.enqueue_compile(method);
                }
            }
        }
        self.exec_interpreted(method, args, depth)
    }

    /// Runs one interpreted (profiling) activation of `method`.
    ///
    /// Inlined into `exec_method` so guest recursion costs the same number
    /// of host frames as before the deoptimization split (the stack-depth
    /// budget in `MAX_DEPTH` is calibrated to that).
    #[inline(always)]
    fn exec_interpreted(
        &mut self,
        method: MethodId,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, ExecError> {
        let program = self.program;
        let graph = &program.method(method).graph;
        match self.exec_graph(method, graph, Tier::Interpreted, args, depth)? {
            Flow::Return(v) => Ok(v),
            Flow::Deopt(_) => unreachable!("the interpreted tier traps on deopt terminators"),
        }
    }

    /// Runs one compiled activation of `method`, handling the whole
    /// deoptimization protocol: the between-activation drift check, the
    /// injected entry trap, and — for graphs containing `deopt`
    /// terminators — transactional execution with rollback.
    ///
    /// Inlined for the same stack-depth reason as `exec_interpreted`.
    #[inline(always)]
    fn exec_compiled(
        &mut self,
        method: MethodId,
        entry: CompiledEntry,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<CompiledExit, ExecError> {
        let (graph, deoptable) = match entry {
            CompiledEntry::Drifted => return Ok(self.deoptimize(method, "drift", args)),
            // Injected uncommon trap at entry: no effects yet, nothing to
            // roll back. One-shot by construction — the code is gone.
            CompiledEntry::ForcedDeopt => return Ok(self.deoptimize(method, "injected", args)),
            CompiledEntry::Run { graph, deoptable } => (graph, deoptable),
        };
        if !deoptable {
            // The live-activation guard makes the method unevictable while
            // its compiled frame is on the stack (an install in a callee
            // could otherwise tear code out from under us mid-activation).
            self.note_compiled_entry(method);
            let flow = self.exec_graph(method, &graph, Tier::Compiled, args, depth);
            self.note_compiled_exit(method);
            return match flow? {
                Flow::Return(v) => Ok(CompiledExit::Returned(v)),
                Flow::Deopt(_) => unreachable!("graph without deopt terminators cannot deopt"),
            };
        }
        // Transactional activation: while any deopt-capable compiled frame
        // is live, every heap write (in any tier, including interpreted
        // callees) is journaled so an uncommon trap can rewind all
        // observable effects to this entry point. Deterministic execution
        // then makes the interpreted replay observably identical up to the
        // trap, so the mid-call tier transfer is exact.
        let save = Savepoint {
            heap_len: self.heap.len(),
            output_len: self.output.len(),
            journal_len: self.journal.len(),
        };
        self.journal_scopes += 1;
        self.note_compiled_entry(method);
        let flow = self.exec_graph(method, &graph, Tier::Compiled, args.clone(), depth);
        self.note_compiled_exit(method);
        self.journal_scopes -= 1;
        match flow {
            Ok(Flow::Return(v)) => {
                if self.journal_scopes == 0 {
                    // Outermost transactional frame committed: its effects
                    // are final, drop the undo log.
                    self.journal.clear();
                }
                Ok(CompiledExit::Returned(v))
            }
            Ok(Flow::Deopt(reason)) => {
                self.rollback(&save);
                Ok(self.deoptimize(method, reason.label(), args))
            }
            Err(e) => {
                if self.journal_scopes == 0 {
                    self.journal.clear();
                }
                Err(e)
            }
        }
    }

    /// Common deoptimization bookkeeping: counters, events, invalidation,
    /// and the profiled-invocation record for the interpreted replay. A
    /// deopt inside a replayed decision's probation window takes the
    /// quarantine path instead of the speculation path.
    fn deoptimize(&mut self, method: MethodId, reason: &str, args: Vec<Value>) -> CompiledExit {
        self.bailouts.deopts += 1;
        self.emit(|| CompileEvent::Deoptimized {
            method,
            reason: reason.to_string(),
        });
        if !self.try_quarantine(method) {
            self.invalidate(method);
        }
        self.profiles.record_invocation(method);
        CompiledExit::Deoptimized(args)
    }

    /// Quarantine ladder: attributes a deopt to the snapshot it was
    /// replayed from if the method's replayed code is still inside its
    /// probation window. A poisoned decision is handled evict-style — the
    /// code is dropped without creating speculation state, so the recompile
    /// budget is never burned and the method cannot be pinned by a bad
    /// snapshot — its seeded profile contribution is rolled back so the
    /// method re-earns its hotness from live traffic (a fully poisoned
    /// snapshot thereby converges to a cold start), and the decision is
    /// excluded from future [`Machine::snapshot`] output. Returns whether
    /// the quarantine fired; `false` means the ordinary
    /// invalidate → reprofile → recompile path should run.
    fn try_quarantine(&mut self, method: MethodId) -> bool {
        if !self.replay_guard.contains(&method) {
            return false;
        }
        // Any deopt settles the probation one way or the other.
        self.replay_guard.remove(&method);
        let Some(cm) = self.code.get(&method) else {
            return false;
        };
        if cm.invocations > POISON_WINDOW {
            // Survived probation: this deopt is live drift, not poison.
            return false;
        }
        let activations = cm.invocations;
        let cm = self.code.remove(&method).expect("probed just above");
        self.account_release(cm.bytes);
        if let Some(seed) = self.replay_seed.remove(&method) {
            self.profiles.subtract(method, &seed);
        }
        self.poisoned_methods.insert(method);
        self.snapshot_stats.poisoned += 1;
        self.emit(|| CompileEvent::DecisionPoisoned {
            method,
            activations,
            window: POISON_WINDOW,
        });
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
        true
    }

    /// Rewinds all observable effects to `save`: journaled heap writes are
    /// undone newest-first, then cells allocated by the abandoned
    /// activation are freed and its printed lines dropped.
    fn rollback(&mut self, save: &Savepoint) {
        while self.journal.len() > save.journal_len {
            match self.journal.pop().expect("length checked") {
                JournalEntry::Field { r, offset, old } => {
                    let HeapCell::Object { fields, .. } = self.heap.cell_mut(r) else {
                        unreachable!("journaled field write on a non-object cell");
                    };
                    fields[offset] = old;
                }
                JournalEntry::Array { r, index, old } => {
                    let HeapCell::Array { data, .. } = self.heap.cell_mut(r) else {
                        unreachable!("journaled array write on a non-array cell");
                    };
                    data[index] = old;
                }
            }
        }
        self.heap.truncate(save.heap_len);
        self.output.truncate(save.output_len);
    }

    fn exec_graph(
        &mut self,
        method: MethodId,
        graph: &Graph,
        tier: Tier,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Flow, ExecError> {
        let profiling = tier == Tier::Interpreted;
        // Compiled code keeps no profile, so it never needs the mask.
        let back_edges = profiling.then(|| self.back_edge_mask(method));
        let mut regs: Vec<Option<Value>> = vec![None; graph.value_count()];
        let mut block = graph.entry();
        {
            let params = &graph.block(block).params;
            debug_assert_eq!(params.len(), args.len(), "arity mismatch at activation");
            for (&p, a) in params.iter().zip(args) {
                regs[p.index()] = Some(a);
            }
        }

        macro_rules! reg {
            ($v:expr) => {{
                let value = $v;
                match regs[value.index()] {
                    Some(v) => v,
                    None => return Err(ExecError::UndefinedRegister { method, value }),
                }
            }};
        }

        loop {
            if profiling {
                self.profiles.record_block(method, block);
            }
            let bd = graph.block(block);
            for &inst in &bd.insts {
                self.steps += 1;
                if self.steps > self.config.fuel_steps {
                    return Err(ExecError::OutOfFuel);
                }
                let data = graph.inst(inst);
                self.exec_cycles +=
                    self.config
                        .cost
                        .exec_cost(&data.op, tier, self.installed_bytes);
                let result: Option<Value> = match &data.op {
                    Op::Nop => None,
                    Op::ConstInt(k) => Some(Value::Int(*k)),
                    Op::ConstFloat(bits) => Some(Value::Float(f64::from_bits(*bits))),
                    Op::ConstBool(b) => Some(Value::Bool(*b)),
                    Op::ConstNull(_) => Some(Value::Null),
                    Op::Bin(op) if op.is_float() => {
                        let a = reg!(data.args[0]).as_float();
                        let b = reg!(data.args[1]).as_float();
                        Some(Value::Float(eval::eval_float_bin(*op, a, b)))
                    }
                    Op::Bin(op) => {
                        let a = reg!(data.args[0]).as_int();
                        let b = reg!(data.args[1]).as_int();
                        Some(Value::Int(
                            eval::eval_int_bin(*op, a, b).map_err(ExecError::Trap)?,
                        ))
                    }
                    Op::Cmp(op) => {
                        let a = reg!(data.args[0]);
                        let b = reg!(data.args[1]);
                        let r = match op {
                            CmpOp::RefEq => match (a, b) {
                                (Value::Null, Value::Null) => true,
                                (Value::Ref(x), Value::Ref(y)) => x == y,
                                _ => false,
                            },
                            CmpOp::FEq | CmpOp::FLt | CmpOp::FLe => {
                                eval::eval_float_cmp(*op, a.as_float(), b.as_float())
                            }
                            _ => eval::eval_int_cmp(*op, a.as_int(), b.as_int()),
                        };
                        Some(Value::Bool(r))
                    }
                    Op::Not => Some(Value::Bool(!reg!(data.args[0]).as_bool())),
                    Op::INeg => Some(Value::Int(reg!(data.args[0]).as_int().wrapping_neg())),
                    Op::FNeg => Some(Value::Float(-reg!(data.args[0]).as_float())),
                    Op::IntToFloat => Some(Value::Float(eval::int_to_float(
                        reg!(data.args[0]).as_int(),
                    ))),
                    Op::FloatToInt => Some(Value::Int(eval::float_to_int(
                        reg!(data.args[0]).as_float(),
                    ))),
                    Op::New(c) => Some(Value::Ref(self.heap.alloc_object(self.program, *c))),
                    Op::GetField(f) => {
                        let Value::Ref(r) = reg!(data.args[0]) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        let off = self.program.field(*f).offset;
                        let HeapCell::Object { fields, .. } = self.heap.cell(r) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        Some(fields[off])
                    }
                    Op::SetField(f) => {
                        let Value::Ref(r) = reg!(data.args[0]) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        let v = reg!(data.args[1]);
                        let off = self.program.field(*f).offset;
                        let HeapCell::Object { fields, .. } = self.heap.cell_mut(r) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        let old = fields[off];
                        fields[off] = v;
                        if self.journal_scopes > 0 {
                            self.journal.push(JournalEntry::Field {
                                r,
                                offset: off,
                                old,
                            });
                        }
                        None
                    }
                    Op::NewArray(e) => {
                        let len = reg!(data.args[0]).as_int();
                        if len < 0 {
                            return Err(ExecError::Trap(TrapKind::NegativeLength));
                        }
                        Some(Value::Ref(self.heap.alloc_array(*e, len as usize)))
                    }
                    Op::ArrayGet => {
                        let Value::Ref(r) = reg!(data.args[0]) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        let idx = reg!(data.args[1]).as_int();
                        let HeapCell::Array { data: arr, .. } = self.heap.cell(r) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        if idx < 0 || idx as usize >= arr.len() {
                            return Err(ExecError::Trap(TrapKind::Bounds));
                        }
                        Some(arr[idx as usize])
                    }
                    Op::ArraySet => {
                        let Value::Ref(r) = reg!(data.args[0]) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        let idx = reg!(data.args[1]).as_int();
                        let v = reg!(data.args[2]);
                        let HeapCell::Array { data: arr, .. } = self.heap.cell_mut(r) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        if idx < 0 || idx as usize >= arr.len() {
                            return Err(ExecError::Trap(TrapKind::Bounds));
                        }
                        let old = arr[idx as usize];
                        arr[idx as usize] = v;
                        if self.journal_scopes > 0 {
                            self.journal.push(JournalEntry::Array {
                                r,
                                index: idx as usize,
                                old,
                            });
                        }
                        None
                    }
                    Op::ArrayLen => {
                        let Value::Ref(r) = reg!(data.args[0]) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        let HeapCell::Array { data: arr, .. } = self.heap.cell(r) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        Some(Value::Int(arr.len() as i64))
                    }
                    Op::InstanceOf(c) => {
                        let r = match reg!(data.args[0]) {
                            Value::Null => false,
                            Value::Ref(r) => match self.heap.cell(r) {
                                HeapCell::Object { class, .. } => {
                                    self.program.is_subclass(*class, *c)
                                }
                                HeapCell::Array { .. } => false,
                            },
                            _ => false,
                        };
                        Some(Value::Bool(r))
                    }
                    Op::Cast(c) => {
                        let v = reg!(data.args[0]);
                        match v {
                            Value::Null => Some(Value::Null),
                            Value::Ref(r) => match self.heap.cell(r) {
                                HeapCell::Object { class, .. }
                                    if self.program.is_subclass(*class, *c) =>
                                {
                                    Some(v)
                                }
                                _ => return Err(ExecError::Trap(TrapKind::CastFailed)),
                            },
                            _ => return Err(ExecError::Trap(TrapKind::CastFailed)),
                        }
                    }
                    Op::Print => {
                        let v = reg!(data.args[0]);
                        self.output.print(self.program, &self.heap, v);
                        None
                    }
                    Op::Call(info) => {
                        let mut call_args = Vec::with_capacity(data.args.len());
                        for &a in &data.args {
                            call_args.push(reg!(a));
                        }
                        let (target, is_virtual) = match info.target {
                            CallTarget::Static(m) => (m, false),
                            CallTarget::Virtual(sel) => {
                                let recv = call_args[0];
                                let Value::Ref(r) = recv else {
                                    return Err(ExecError::Trap(TrapKind::NullDeref));
                                };
                                let class = self.heap.class_of(r);
                                if profiling {
                                    self.profiles.record_receiver(info.site, class);
                                } else if self.config.deopt {
                                    // Drift monitor food: fallback virtual
                                    // dispatches surviving in compiled code.
                                    // The entry may be gone if a nested
                                    // activation already invalidated it.
                                    if let Some(cm) = self.code.get_mut(&method) {
                                        cm.virtual_dispatches += 1;
                                    }
                                }
                                let Some(m) = self.program.resolve(class, sel) else {
                                    return Err(ExecError::NoImplementation {
                                        selector: self.program.selector(sel).to_string(),
                                        class: self.program.class(class).name.clone(),
                                    });
                                };
                                (m, true)
                            }
                        };
                        if profiling {
                            self.profiles.record_callsite(info.site);
                        }
                        self.exec_cycles += self.config.cost.call_cost(call_args.len(), is_virtual);
                        self.exec_method(target, call_args, depth + 1)?
                    }
                };
                if let Some(res) = data.result {
                    regs[res.index()] = result;
                } else {
                    debug_assert!(
                        result.is_none() || matches!(data.op, Op::Call(_)),
                        "non-call op produced an unexpected result"
                    );
                }
            }

            // Terminator. `slot` is the successor's bit in the back-edge mask.
            let (dest, edge_args, slot): (BlockId, &[ValueId], u8) = match &bd.term {
                Terminator::Return(v) => {
                    let value = match *v {
                        Some(v) => Some(reg!(v)),
                        None => None,
                    };
                    return Ok(Flow::Return(value));
                }
                Terminator::Deopt { reason } => {
                    if tier == Tier::Compiled {
                        // Uncommon trap: hand the activation back to
                        // `exec_compiled` for rollback and replay.
                        return Ok(Flow::Deopt(*reason));
                    }
                    // Hand-written IR executed interpreted: there is no
                    // lower tier to transfer to.
                    return Err(ExecError::Trap(TrapKind::Deopt));
                }
                Terminator::Jump(d, a) => (*d, a, 1),
                Terminator::Branch {
                    cond,
                    then_dest,
                    else_dest,
                } => {
                    if reg!(*cond).as_bool() {
                        (then_dest.0, &then_dest.1, 1)
                    } else {
                        (else_dest.0, &else_dest.1, 2)
                    }
                }
                Terminator::Unterminated => {
                    unreachable!("verified graphs have no unterminated blocks")
                }
            };
            self.exec_cycles += self.config.cost.edge_cost(edge_args.len(), tier);
            if let Some(mask) = &back_edges {
                if mask[block.index()] & slot != 0 {
                    self.profiles.record_backedge(method);
                }
            }
            // Bind target params (read all values before writing: a block
            // may pass its own params permuted).
            self.edge_scratch.clear();
            for &a in edge_args {
                self.edge_scratch.push(reg!(a));
            }
            for (&p, &v) in graph.block(dest).params.iter().zip(&self.edge_scratch) {
                regs[p.index()] = Some(v);
            }
            block = dest;
        }
    }
}

/// Whether any reachable block of `graph` ends in a `deopt` terminator.
fn graph_has_deopt(graph: &Graph) -> bool {
    graph
        .block_ids()
        .any(|b| matches!(graph.block(b).term, Terminator::Deopt { .. }))
}

/// Whether `graph` still contains virtual-dispatch callsites (the drift
/// monitor counts their executions in compiled code).
fn graph_has_virtual_call(graph: &Graph) -> bool {
    graph.block_ids().any(|b| {
        graph.block(b).insts.iter().any(|&i| {
            matches!(
                &graph.inst(i).op,
                Op::Call(info) if matches!(info.target, CallTarget::Virtual(_))
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inliner::{CompileCx, CompileOutcome, NoInline};
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::types::RetType;
    use incline_ir::Type;

    /// sum(n) = 0 + 1 + … + (n-1)
    fn sum_program() -> (Program, MethodId) {
        let mut p = Program::new();
        let m = p.declare_function("sum", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Int]);
        let body = fb.add_block();
        let (done, dp) = fb.add_block_with_params(&[Type::Int]);
        fb.jump(head, vec![zero, zero]);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::ILt, hp[0], n);
        fb.branch(c, (body, vec![]), (done, vec![hp[1]]));
        fb.switch_to(body);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        let a2 = fb.iadd(hp[1], hp[0]);
        fb.jump(head, vec![i2, a2]);
        fb.switch_to(done);
        fb.ret(Some(dp[0]));
        let g = fb.finish();
        p.define_method(m, g);
        (p, m)
    }

    #[test]
    fn interprets_loop_correctly() {
        let (p, m) = sum_program();
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        let out = vm.run(m, vec![Value::Int(10)]).unwrap();
        assert_eq!(out.value, Some(Value::Int(45)));
        assert!(out.exec_cycles > 0);
        assert_eq!(out.compile_cycles, 0);
    }

    #[test]
    fn profiles_accumulate_across_runs() {
        let (p, m) = sum_program();
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        for _ in 0..5 {
            vm.run(m, vec![Value::Int(4)]).unwrap();
        }
        assert_eq!(vm.profiles().invocations(m), 5);
        assert_eq!(vm.profiles().backedges(m), 20);
    }

    #[test]
    fn jit_promotes_hot_method_and_speeds_it_up() {
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 3,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        let interp_cost = vm.run(m, vec![Value::Int(100)]).unwrap().exec_cycles;
        vm.run(m, vec![Value::Int(100)]).unwrap();
        vm.run(m, vec![Value::Int(100)]).unwrap(); // compile triggers here
        assert_eq!(vm.compilations(), 1);
        assert!(vm.installed_bytes() > 0);
        let compiled_cost = vm.run(m, vec![Value::Int(100)]).unwrap().exec_cycles;
        assert!(
            compiled_cost * 2 < interp_cost,
            "compiled ({compiled_cost}) must be much faster than interpreted ({interp_cost})"
        );
    }

    #[test]
    fn output_matches_between_tiers() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let two = fb.const_int(2);
        let y = fb.imul(x, two);
        fb.print(y);
        fb.print(x);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(m, g);
        let mut interp = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        let a = interp.run(m, vec![Value::Int(21)]).unwrap();
        let mut jit = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                hotness_threshold: 1,
                ..VmConfig::default()
            },
        );
        let b = jit.run(m, vec![Value::Int(21)]).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn traps_propagate() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let zero = fb.const_int(0);
        let d = fb.binop(incline_ir::BinOp::IDiv, x, zero);
        fb.ret(Some(d));
        let g = fb.finish();
        p.define_method(m, g);
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(m, vec![Value::Int(1)]),
            Err(ExecError::Trap(TrapKind::DivByZero))
        );
    }

    #[test]
    fn stack_overflow_detected() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        fb.call_static(m, vec![]);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(m, g);
        // Each guest frame costs host frames; run on a thread with an
        // explicit stack so the guest-depth guard (`MAX_DEPTH`) fires before
        // the host stack does, independent of debug-build frame sizes.
        let handle = std::thread::Builder::new()
            .stack_size(32 * 1024 * 1024)
            .spawn(move || {
                let mut vm = Machine::new(
                    &p,
                    Box::new(NoInline),
                    VmConfig {
                        jit: false,
                        ..VmConfig::default()
                    },
                );
                vm.run(m, vec![]).map(|o| o.value)
            })
            .unwrap();
        assert_eq!(handle.join().unwrap(), Err(ExecError::StackOverflow));
    }

    #[test]
    fn virtual_dispatch_and_receiver_profiles() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let ma = p.declare_method(a, "id", vec![], Type::Int);
        let mb = p.declare_method(b, "id", vec![], Type::Int);
        for (m, k) in [(ma, 1), (mb, 2)] {
            let mut fb = FunctionBuilder::new(&p, m);
            let v = fb.const_int(k);
            fb.ret(Some(v));
            let g = fb.finish();
            p.define_method(m, g);
        }
        let f = p.declare_function("f", vec![Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let c = fb.param(0);
        let t = fb.add_block();
        let e = fb.add_block();
        let (j, jp) = fb.add_block_with_params(&[Type::Object(a)]);
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        let oa = fb.new_object(a);
        fb.jump(j, vec![oa]);
        fb.switch_to(e);
        let ob = fb.new_object(b);
        fb.jump(j, vec![ob]);
        fb.switch_to(j);
        let sel = fb.program().selector_by_name("id", 1).unwrap();
        let r = fb.call_virtual(sel, vec![jp[0]]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(f, g);

        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(f, vec![Value::Bool(true)]).unwrap().value,
            Some(Value::Int(1))
        );
        assert_eq!(
            vm.run(f, vec![Value::Bool(false)]).unwrap().value,
            Some(Value::Int(2))
        );
        vm.run(f, vec![Value::Bool(false)]).unwrap();
        let site = incline_ir::CallSiteId {
            method: f,
            index: 0,
        };
        let prof = vm.profiles().receiver_profile(site);
        assert_eq!(prof.len(), 2);
        assert_eq!(prof[0].class, b);
        assert_eq!(prof[0].count, 2);
    }

    #[test]
    fn fuel_limit_enforced() {
        let (p, m) = sum_program();
        let mut config = VmConfig {
            jit: false,
            ..VmConfig::default()
        };
        config.fuel_steps = 100;
        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        assert_eq!(
            vm.run(m, vec![Value::Int(1_000_000)]),
            Err(ExecError::OutOfFuel)
        );
    }

    #[test]
    fn null_deref_trap_reported() {
        let mut p = Program::new();
        let c = p.add_class("Box", None);
        let f = p.add_field(c, "v", Type::Int);
        let m = p.declare_function("f", vec![Type::Object(c)], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let obj = fb.param(0);
        let v = fb.get_field(f, obj);
        fb.ret(Some(v));
        let g = fb.finish();
        p.define_method(m, g);
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(m, vec![Value::Null]),
            Err(ExecError::Trap(TrapKind::NullDeref))
        );
    }

    #[test]
    fn array_bounds_trap_reported() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let idx = fb.param(0);
        let two = fb.const_int(2);
        let arr = fb.new_array(incline_ir::ElemType::Int, two);
        let v = fb.array_get(arr, idx);
        fb.ret(Some(v));
        let g = fb.finish();
        p.define_method(m, g);
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(m, vec![Value::Int(1)]).unwrap().value,
            Some(Value::Int(0))
        );
        assert_eq!(
            vm.run(m, vec![Value::Int(5)]),
            Err(ExecError::Trap(TrapKind::Bounds))
        );
        assert_eq!(
            vm.run(m, vec![Value::Int(-1)]),
            Err(ExecError::Trap(TrapKind::Bounds))
        );
    }

    /// An inliner that installs the method's own graph untouched, so the
    /// compiled tier runs exactly the CFG a test built.
    struct Verbatim;
    impl Inliner for Verbatim {
        fn name(&self) -> &str {
            "verbatim"
        }
        fn compile(
            &self,
            method: MethodId,
            cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            let graph = cx.program.method(method).graph.clone();
            let size = graph.size();
            Ok(CompileOutcome {
                graph,
                work_nodes: size,
                stats: InlineStats::default(),
            })
        }
    }

    /// swap(n, a, b): a self-loop whose header passes its own params
    /// permuted, `(a, b) -> (b, a)`, n times; returns `a * 1000 + b`. With
    /// `deopt_arm`, a never-taken `n < 0` arm ends in a `deopt`
    /// terminator, which makes every compiled activation transactional.
    fn swap_program(deopt_arm: bool) -> (Program, MethodId) {
        let mut p = Program::new();
        let m = p.declare_function("swap", vec![Type::Int, Type::Int, Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let (n, a, b) = (fb.param(0), fb.param(1), fb.param(2));
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Int, Type::Int]);
        let (done, dp) = fb.add_block_with_params(&[Type::Int, Type::Int]);
        let trap = deopt_arm.then(|| fb.add_block());
        match trap {
            Some(trap) => {
                let neg = fb.cmp(CmpOp::ILt, n, zero);
                fb.branch(neg, (trap, vec![]), (head, vec![zero, a, b]));
            }
            None => fb.jump(head, vec![zero, a, b]),
        }
        fb.switch_to(head);
        let more = fb.cmp(CmpOp::ILt, hp[0], n);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        fb.branch(
            more,
            (head, vec![i2, hp[2], hp[1]]),
            (done, vec![hp[1], hp[2]]),
        );
        fb.switch_to(done);
        let k = fb.const_int(1000);
        let hi = fb.imul(dp[0], k);
        let r = fb.iadd(hi, dp[1]);
        fb.ret(Some(r));
        let mut g = fb.finish();
        if let Some(trap) = trap {
            g.block_mut(trap).term = Terminator::Deopt {
                reason: DeoptReason::Injected,
            };
        }
        p.define_method(m, g);
        (p, m)
    }

    /// `swap_program`'s answer, folded on the host through the shared
    /// scalar semantics of `incline_ir::eval`.
    fn swap_reference(n: i64, a: i64, b: i64) -> i64 {
        let (mut a, mut b) = (a, b);
        for _ in 0..n {
            std::mem::swap(&mut a, &mut b);
        }
        let hi = eval::eval_int_bin(incline_ir::BinOp::IMul, a, 1000).unwrap();
        eval::eval_int_bin(incline_ir::BinOp::IAdd, hi, b).unwrap()
    }

    #[test]
    fn permuted_edge_arguments_bind_in_every_tier() {
        let inputs = [(0, 1, 2), (1, 1, 2), (5, 7, -3), (6, 7, -3)];
        let barrier = VmConfig {
            hotness_threshold: 1,
            compile_threads: 0,
            install_policy: InstallPolicy::Barrier,
            deopt: true,
            ..VmConfig::default()
        };
        let interpreted = VmConfig {
            jit: false,
            ..barrier
        };
        // (label, config, graph with a deopt arm, expected compiled code)
        let cases = [
            ("interpreted", interpreted, false, None),
            ("compiled", barrier, false, Some(false)),
            ("transactional", barrier, true, Some(true)),
        ];
        for (label, config, deopt_arm, compiled) in cases {
            let (p, m) = swap_program(deopt_arm);
            let mut vm = Machine::new(&p, Box::new(Verbatim), config);
            for (n, a, b) in inputs {
                let args = vec![Value::Int(n), Value::Int(a), Value::Int(b)];
                assert_eq!(
                    vm.run(m, args).unwrap().value,
                    Some(Value::Int(swap_reference(n, a, b))),
                    "{label} tier, swap({n}, {a}, {b})"
                );
            }
            assert_eq!(
                vm.code.get(&m).map(|cm| cm.has_deopt),
                compiled,
                "{label} tier ran the expected code"
            );
            assert_eq!(
                vm.bailouts().deopts,
                0,
                "{label}: the deopt arm is never taken"
            );
        }
    }

    /// nest(n, m): an outer loop of n trips around an inner self-loop of m
    /// trips. The inner header's branch has two loop headers as targets,
    /// both through back edges (itself and the outer header); the outer
    /// header's branch enters the inner header through a forward edge.
    fn nested_loop_program() -> (Program, MethodId) {
        let mut p = Program::new();
        let f = p.declare_function("nest", vec![Type::Int, Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let (n, m) = (fb.param(0), fb.param(1));
        let zero = fb.const_int(0);
        let one = fb.const_int(1);
        let (outer, op) = fb.add_block_with_params(&[Type::Int]);
        let (inner, ip) = fb.add_block_with_params(&[Type::Int, Type::Int]);
        let done = fb.add_block();
        fb.jump(outer, vec![zero]);
        fb.switch_to(outer);
        let c = fb.cmp(CmpOp::ILt, op[0], n);
        fb.branch(c, (inner, vec![op[0], zero]), (done, vec![]));
        fb.switch_to(inner);
        let j2 = fb.iadd(ip[1], one);
        let i2 = fb.iadd(ip[0], one);
        let c2 = fb.cmp(CmpOp::ILt, j2, m);
        fb.branch(c2, (inner, vec![ip[0], j2]), (outer, vec![i2]));
        fb.switch_to(done);
        fb.ret(Some(n));
        let g = fb.finish();
        p.define_method(f, g);
        (p, f)
    }

    #[test]
    fn back_edge_mask_counts_the_loop_forest_pairs() {
        let (p, f) = nested_loop_program();
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        // The mask marks exactly the (tail, header) pairs of the loop
        // forest, slot by slot.
        let graph = &p.method(f).graph;
        let forest = LoopForest::compute(graph);
        let pairs: HashSet<(BlockId, BlockId)> = forest
            .loops
            .iter()
            .flat_map(|l| l.back_edges.iter().map(|&tail| (tail, l.header)))
            .collect();
        assert_eq!(pairs.len(), 2, "inner self edge and inner -> outer");
        let mask = vm.back_edge_mask(f);
        for b in graph.block_ids() {
            let successors: Vec<BlockId> = match &graph.block(b).term {
                Terminator::Jump(d, _) => vec![*d],
                Terminator::Branch {
                    then_dest,
                    else_dest,
                    ..
                } => vec![then_dest.0, else_dest.0],
                _ => vec![],
            };
            for (slot, dest) in successors.into_iter().enumerate() {
                assert_eq!(
                    mask[b.index()] & (1 << slot) != 0,
                    pairs.contains(&(b, dest)),
                    "edge {b} -> {dest} (slot {slot})"
                );
            }
        }
        // Per outer trip: m - 1 inner self edges plus one inner -> outer.
        let (n, m) = (3, 4);
        vm.run(f, vec![Value::Int(n), Value::Int(m)]).unwrap();
        assert_eq!(vm.profiles().backedges(f), (n * m) as u64);
        vm.run(f, vec![Value::Int(n), Value::Int(m)]).unwrap();
        assert_eq!(vm.profiles().backedges(f), 2 * (n * m) as u64);
    }

    #[test]
    fn undefined_register_is_a_typed_error() {
        // Unverified IR: the join reads a value only the `then` arm
        // defines, so the `else` path reaches it undefined.
        let mut p = Program::new();
        let f = p.declare_function("f", vec![Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let c = fb.param(0);
        let t = fb.add_block();
        let e = fb.add_block();
        let j = fb.add_block();
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        let x = fb.const_int(1);
        fb.jump(j, vec![]);
        fb.switch_to(e);
        fb.jump(j, vec![]);
        fb.switch_to(j);
        fb.ret(Some(x));
        let g = fb.finish();
        p.define_method(f, g);
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(f, vec![Value::Bool(true)]).unwrap().value,
            Some(Value::Int(1))
        );
        let err = vm.run(f, vec![Value::Bool(false)]).unwrap_err();
        assert_eq!(
            err,
            ExecError::UndefinedRegister {
                method: f,
                value: x
            }
        );
        assert_eq!(
            err.to_string(),
            format!("use of undefined register {x} in {f}")
        );
    }

    #[test]
    fn missing_virtual_target_is_a_typed_error() {
        // Unverified IR: the receiver's class is unrelated to the only
        // class declaring the selector.
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", None);
        let ma = p.declare_method(a, "id", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, ma);
        let one = fb.const_int(1);
        fb.ret(Some(one));
        let g = fb.finish();
        p.define_method(ma, g);
        let f = p.declare_function("f", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let ob = fb.new_object(b);
        let sel = fb.program().selector_by_name("id", 1).unwrap();
        let r = fb.call_virtual(sel, vec![ob]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(f, g);
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        let err = vm.run(f, vec![]).unwrap_err();
        assert_eq!(
            err,
            ExecError::NoImplementation {
                selector: "id/1".to_string(),
                class: "B".to_string(),
            }
        );
        assert_eq!(err.to_string(), "no implementation of id/1 on B");
    }

    /// An inliner that always unwinds — a stand-in for a compiler bug.
    struct PanickingInliner;
    impl Inliner for PanickingInliner {
        fn name(&self) -> &str {
            "panicking"
        }
        fn compile(
            &self,
            _method: MethodId,
            _cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            panic!("synthetic inliner bug");
        }
    }

    #[test]
    fn inliner_panic_is_contained_and_ladder_degrades() {
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 2,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(PanickingInliner), config);
        for _ in 0..4 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(
                out.value,
                Some(Value::Int(45)),
                "output correct despite compiler bug"
            );
        }
        let b = vm.bailouts();
        assert_eq!(b.contained_panics, 1);
        assert_eq!(b.full_tier, 1);
        assert_eq!(
            b.degraded_tier, 0,
            "degraded rung bypasses the faulty inliner"
        );
        assert_eq!(b.blacklisted, 0);
        assert_eq!(vm.compilations(), 1, "degraded tier installed code");
        assert_eq!(vm.compiled_methods(), vec![m]);
        assert!(matches!(
            vm.bailout_log(),
            [BailoutRecord {
                stage: CompileStage::Full,
                error: CompileError::Panicked(_),
                ..
            }]
        ));
    }

    /// An inliner that miscompiles: the graph it returns is damaged.
    struct CorruptingInliner;
    impl Inliner for CorruptingInliner {
        fn name(&self) -> &str {
            "corrupting"
        }
        fn compile(
            &self,
            method: MethodId,
            cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            let mut graph = cx.program.method(method).graph.clone();
            crate::faults::corrupt_graph(&mut graph);
            let size = graph.size();
            Ok(CompileOutcome {
                graph,
                work_nodes: size,
                stats: InlineStats::default(),
            })
        }
    }

    #[test]
    fn miscompiled_graph_is_rejected_not_installed() {
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 2,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(CorruptingInliner), config);
        for _ in 0..4 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        let b = vm.bailouts();
        assert_eq!(b.verifier_rejections, 1);
        assert_eq!(b.full_tier, 1);
        assert_eq!(
            vm.compilations(),
            1,
            "only the degraded graph was installed"
        );
        // The installed graph is the verified degraded one, not the corrupt one.
        let decl = p.method(m);
        incline_ir::verify::verify_graph(&p, vm.compiled_graph(m).unwrap(), &decl.params, decl.ret)
            .unwrap();
    }

    #[test]
    fn exhausted_ladder_blacklists_and_interpreter_carries_on() {
        let (p, m) = sum_program();
        // A zero compile budget fails both rungs: full tier and degraded
        // tier each report OutOfFuel, so the method is blacklisted.
        let config = VmConfig {
            hotness_threshold: 2,
            compile_fuel: 0,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        for _ in 0..6 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(
                out.value,
                Some(Value::Int(45)),
                "interpreter keeps the program alive"
            );
        }
        let b = vm.bailouts();
        assert_eq!(b.full_tier, 1);
        assert_eq!(b.degraded_tier, 1);
        assert_eq!(b.blacklisted, 1);
        assert_eq!(b.fuel_exhaustions, 2);
        assert_eq!(vm.compilations(), 0, "nothing was ever installed");
        assert_eq!(vm.blacklisted_methods(), vec![m]);
        assert_eq!(
            vm.compile_requests(),
            1,
            "a blacklisted method must never be re-attempted"
        );
    }

    #[test]
    fn invalidation_keeps_installed_bytes_symmetric() {
        // Compile, force-deoptimize (which invalidates), recompile: the
        // code-cache accounting must return to exactly one install's worth
        // of bytes, not accumulate one per (re)install.
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 2,
            deopt: true,
            ..VmConfig::default()
        };

        // Reference: the same program compiled once without faults.
        let mut clean = Machine::new(&p, Box::new(NoInline), config);
        for _ in 0..3 {
            clean.run(m, vec![Value::Int(10)]).unwrap();
        }
        let one_install = clean.installed_bytes();
        assert!(one_install > 0, "reference must compile");

        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        vm.set_fault_plan(FaultPlan::new().inject(0, FaultKind::ForceDeopt));
        // Run 2 reaches the hotness bar, compiles (request 0, marked), and
        // the first compiled activation deopts at entry: the cache must be
        // empty again and the run's output untouched.
        for _ in 0..2 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        assert_eq!(vm.bailouts().deopts, 1);
        assert_eq!(vm.bailouts().invalidations, 1);
        assert_eq!(vm.installed_bytes(), 0, "invalidation must release bytes");

        // Fresh profile clears the backed-off bar (2 * 2^0) after two more
        // interpreted runs; the recompile is clean (fault was one-shot).
        for _ in 0..4 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        assert_eq!(vm.bailouts().recompiles, 1);
        assert_eq!(
            vm.installed_bytes(),
            one_install,
            "reinstall must not double-count bytes"
        );
        assert!(vm.pinned_methods().is_empty());
    }

    #[test]
    fn deopt_faults_are_inert_when_deopt_disabled() {
        // With `deopt: false` (the default) the speculation faults must
        // change nothing: no deopts, no invalidations, code stays put.
        let (p, m) = sum_program();
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                hotness_threshold: 2,
                ..VmConfig::default()
            },
        );
        vm.set_fault_plan(
            FaultPlan::new()
                .inject(0, FaultKind::ForceDeopt)
                .inject(1, FaultKind::ForceGuardFailure),
        );
        for _ in 0..12 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        let b = vm.bailouts();
        assert_eq!(b.deopts, 0);
        assert_eq!(b.invalidations, 0);
        assert_eq!(b.recompiles, 0);
        assert_eq!(b.pinned, 0);
        assert!(
            vm.installed_bytes() > 0,
            "the compiled code stays installed"
        );
    }

    fn machine_with_threshold(threshold: u64) -> (MethodId, Machine<'static>) {
        // Leak the program so the machine can borrow it with a 'static
        // lifetime — these tests only probe pure arithmetic helpers.
        let (p, m) = sum_program();
        let p: &'static Program = Box::leak(Box::new(p));
        let vm = Machine::new(
            p,
            Box::new(NoInline),
            VmConfig {
                hotness_threshold: threshold,
                ..VmConfig::default()
            },
        );
        (m, vm)
    }

    #[test]
    fn recompile_bar_is_threshold_times_two_to_the_n() {
        let (_, vm) = machine_with_threshold(3);
        let bars: Vec<u64> = (0..6).map(|n| vm.recompile_bar(n)).collect();
        assert_eq!(bars, vec![3, 6, 12, 24, 48, 96]);
    }

    #[test]
    fn recompile_bar_saturates_instead_of_overflowing() {
        // The exponent clamps at 20 and the multiply saturates, so even
        // absurd recompile counts and thresholds cannot wrap.
        let (_, vm) = machine_with_threshold(5);
        assert_eq!(vm.recompile_bar(20), 5 * (1 << 20));
        assert_eq!(vm.recompile_bar(63), 5 * (1 << 20), "exponent clamps at 20");
        assert_eq!(vm.recompile_bar(u32::MAX), 5 * (1 << 20));
        let (_, vm) = machine_with_threshold(u64::MAX);
        assert_eq!(vm.recompile_bar(0), u64::MAX);
        assert_eq!(vm.recompile_bar(1), u64::MAX, "multiply saturates");
        let (_, vm) = machine_with_threshold(u64::MAX / 2 + 1);
        assert_eq!(vm.recompile_bar(1), u64::MAX);
    }

    #[test]
    fn hotness_backoff_doubles_the_bar_per_recompile() {
        // A method with speculation state re-promotes against
        // `threshold * 2^recompiles` counted from its post-invalidation
        // profile baseline — the storm-throttle backoff sequence.
        let (m, mut vm) = machine_with_threshold(4);
        for (recompiles, bar) in [(0u32, 4u64), (1, 8), (2, 16), (3, 32)] {
            vm.spec.insert(
                m,
                SpecState {
                    recompiles,
                    pinned: false,
                    base_invocations: 100,
                    base_backedges: 0,
                },
            );
            vm.profiles = ProfileTable::default();
            for _ in 0..(100 + bar - 1) {
                vm.profiles.record_invocation(m);
            }
            assert!(
                !vm.hot(m),
                "one below the backed-off bar (recompiles={recompiles}) must stay cold"
            );
            vm.profiles.record_invocation(m);
            assert!(
                vm.hot(m),
                "reaching baseline + {bar} fresh invocations must re-promote"
            );
        }
    }
}
