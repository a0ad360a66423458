//! The typed compilation event vocabulary.

use std::fmt;

use incline_ir::MethodId;
use incline_opt::{OptStats, PipelineStage};

/// Which run of the optimization pipeline an [`CompileEvent::OptPassStats`]
/// delta belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptPhase {
    /// The initial cleanup pass over the root graph, before any inlining.
    Initial,
    /// The per-round pipeline run after an expand/analyze/inline round.
    Round,
    /// The final pipeline run once inlining has converged.
    Final,
    /// A trial optimization of a speculatively specialized callee body
    /// during call-tree expansion.
    Trial,
    /// A baseline inliner's single post-inlining pipeline run.
    Baseline,
    /// The degraded (inline-free) tier's pipeline run in the bailout ladder.
    Degraded,
}

impl fmt::Display for OptPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptPhase::Initial => "initial",
            OptPhase::Round => "round",
            OptPhase::Final => "final",
            OptPhase::Trial => "trial",
            OptPhase::Baseline => "baseline",
            OptPhase::Degraded => "degraded",
        };
        f.write_str(s)
    }
}

/// Which rung of the bailout ladder a [`CompileEvent::Bailout`] fell from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BailoutStage {
    /// The full optimizing tier (the configured inliner).
    Full,
    /// The degraded, inline-free fallback tier.
    Degraded,
}

impl fmt::Display for BailoutStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BailoutStage::Full => f.write_str("full"),
            BailoutStage::Degraded => f.write_str("degraded"),
        }
    }
}

/// The execution tier a method lands in after a compile attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeTier {
    /// Fully optimized code from the configured inliner.
    Full,
    /// Inline-free code from the degraded fallback tier.
    Degraded,
    /// The method was blacklisted and stays in the interpreter.
    Interpreter,
}

impl fmt::Display for CodeTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeTier::Full => f.write_str("full"),
            CodeTier::Degraded => f.write_str("degraded"),
            CodeTier::Interpreter => f.write_str("interpreter"),
        }
    }
}

/// One structured event in a compilation trace.
///
/// Events are emitted in deterministic program order by the incremental
/// inliner (per-round lifecycle), the baselines, the optimization pipeline,
/// and the VM broker (tiers, bailouts, installation). Frequencies, sizes and
/// benefits mirror the paper's quantities: priorities follow Eq. 5, the
/// exploration penalty Eq. 7, expansion bars Eq. 8 and inline bars Eq. 12.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileEvent {
    /// An expand/analyze/inline round is starting.
    RoundStart {
        /// Root method being compiled.
        method: MethodId,
        /// 1-based round number.
        round: u32,
        /// IR size of the root graph at round start.
        root_size: f64,
        /// Number of nodes currently in the call tree.
        tree_nodes: usize,
    },
    /// An expand/analyze/inline round finished.
    RoundEnd {
        /// Root method being compiled.
        method: MethodId,
        /// 1-based round number.
        round: u32,
        /// Call-tree nodes expanded this round.
        expanded: usize,
        /// Callsites inlined into the root this round.
        inlined: u64,
        /// IR size of the root graph after the round's cleanup pipeline.
        root_size: f64,
        /// Number of nodes in the call tree at round end.
        tree_nodes: usize,
    },
    /// A call-tree node was expanded: its callee body was copied, specialized
    /// and trial-optimized, and its own callsites became child nodes.
    NodeExpanded {
        /// The callee method that was expanded.
        method: MethodId,
        /// Paper state tag after expansion: E/C/D/G/P (see `render::kind_tag`).
        kind: char,
        /// Call frequency of the expanded callsite.
        freq: f64,
        /// Eq. 5 intrinsic priority that won this node its expansion slot.
        priority: f64,
        /// `N_s`: arguments more concrete than the formal parameters.
        ns: u32,
        /// `N_o`: simple optimizations triggered by the inlining trial.
        no: u64,
        /// Child callsite nodes attached by the expansion.
        attached: usize,
    },
    /// An expansion candidate was deferred: its benefit density fell below
    /// the adaptive expansion bar (Eq. 8).
    CutoffDeferred {
        /// The callee method left as a cutoff node.
        method: MethodId,
        /// Local benefit b_l of the deferred subtree.
        local_benefit: f64,
        /// IR size of the deferred subtree.
        ir_size: f64,
        /// Current root IR size driving the adaptive bar.
        root_ir: f64,
        /// Benefit density required by Eq. 8 for expansion.
        required_density: f64,
        /// Eq. 7 exploration penalty of the deferred subtree.
        penalty: f64,
    },
    /// The analyze phase merged a parent with one or more children into an
    /// inline cluster (Listing 6), pooling their benefit/cost tuples.
    ClusterFormed {
        /// Method of the cluster's head node (`None` for the root).
        method: Option<MethodId>,
        /// Nodes folded into the cluster, including the head.
        members: usize,
        /// Pooled benefit of the cluster tuple.
        benefit: f64,
        /// Pooled cost of the cluster tuple.
        cost: f64,
    },
    /// The inline phase decided whether to inline a candidate into the root.
    InlineDecision {
        /// Candidate method (`None` for synthetic nodes).
        method: Option<MethodId>,
        /// Benefit component of the candidate's tuple `b|c`.
        benefit: f64,
        /// Cost component of the candidate's tuple `b|c`.
        cost: f64,
        /// Benefit/cost ratio the candidate had to clear (Eq. 12), or a
        /// speculation confidence bar for baseline speculative decisions.
        threshold: f64,
        /// Root IR size at decision time.
        root_size: f64,
        /// Whether the candidate was inlined.
        accepted: bool,
    },
    /// One optimization-pipeline stage ran; `stats` is its delta.
    OptPassStats {
        /// Which pipeline invocation this delta belongs to.
        phase: OptPhase,
        /// Which stage of that invocation produced it.
        stage: PipelineStage,
        /// Counters for the transformations the stage applied.
        stats: OptStats,
    },
    /// Compile fuel was charged.
    FuelCharged {
        /// Units requested by this charge.
        amount: u64,
        /// Total units spent after the charge (capped at the fuel limit).
        spent: u64,
    },
    /// A human-readable call-tree snapshot (the `render` output) taken at a
    /// round boundary. Only emitted for enabled sinks.
    TreeSnapshot {
        /// Round the snapshot was taken after.
        round: u32,
        /// Rendered ASCII call tree.
        text: String,
    },
    /// A method transitioned to an execution tier.
    TierTransition {
        /// The method changing tiers.
        method: MethodId,
        /// The tier it landed in.
        tier: CodeTier,
    },
    /// A compile attempt bailed out of a tier.
    Bailout {
        /// The method whose compile failed.
        method: MethodId,
        /// The tier that failed.
        stage: BailoutStage,
        /// Human-readable error, as rendered by `CompileError`.
        error: String,
    },
    /// Verified machine code was installed for a method.
    CodeInstalled {
        /// The method that now has compiled code.
        method: MethodId,
        /// Modeled code size in bytes.
        bytes: u64,
        /// Final IR graph size.
        graph_size: usize,
        /// Total work nodes charged to this compilation.
        work_nodes: u64,
    },
    /// A compiled activation abandoned its speculated code and transferred
    /// back to the interpreter.
    Deoptimized {
        /// The method whose compiled activation deoptimized.
        method: MethodId,
        /// Why: `uncovered_receiver`, `drift` or `injected`.
        reason: String,
    },
    /// The broker removed a method's installed code from the code cache.
    CodeInvalidated {
        /// The method whose code was thrown away.
        method: MethodId,
        /// Modeled code bytes released back to the cache budget.
        bytes: u64,
        /// How many recompilations this method has already been granted.
        recompiles: u32,
    },
    /// A previously invalidated method was compiled again from its merged
    /// (old + fresh) profile.
    Recompiled {
        /// The method that was recompiled.
        method: MethodId,
        /// 1-based recompilation count after this install.
        recompiles: u32,
        /// Backed-off hotness threshold that gated this recompilation.
        threshold: u64,
    },
    /// A method deoptimized past the recompile cap and is now pinned to
    /// fallback-only (never `deopt`) code.
    SpeculationPinned {
        /// The pinned method.
        method: MethodId,
    },
    /// The bounded code cache evicted a method's installed code to make
    /// room under the configured budget (or on an injected `ForceEvict`).
    CodeEvicted {
        /// The method whose code was evicted.
        method: MethodId,
        /// Modeled code bytes released back to the cache budget.
        bytes: u64,
        /// Eviction policy that picked this victim (`lru`, `hotness`, or
        /// `forced` for injected evictions).
        policy: String,
        /// Compiled activations the victim served while resident.
        resident_uses: u64,
    },
    /// Admission control refused to install a compiled package: it did not
    /// outscore the cheapest victim under the policy, or no victim was
    /// evictable. The method stays in (or returns to) the interpreter with a
    /// backed-off re-admission bar.
    AdmissionRejected {
        /// The method whose package was rejected.
        method: MethodId,
        /// Modeled code size of the rejected package.
        bytes: u64,
        /// Why: `no_evictable_victim` or `benefit_below_bar`.
        reason: String,
    },
    /// A resident method went idle past the aging window; its eviction score
    /// floors so any policy will prefer it as a victim.
    MethodAged {
        /// The aged method.
        method: MethodId,
        /// Compiled-entry ticks since the method last ran.
        idle: u64,
    },
    /// An evicted method became hot again through the normal hotness path
    /// and was re-admitted to the code cache.
    ReTiered {
        /// The re-admitted method.
        method: MethodId,
        /// How many times this method has been evicted so far.
        evictions: u32,
    },
    /// The server simulation finished serving one request (emitted by
    /// `incline_vm::server` from the mutator loop, not by the compiler).
    RequestRetired {
        /// Name of the tenant the request belonged to.
        tenant: String,
        /// Global request sequence number (arrival order, 0-based).
        request: u64,
        /// End-to-end latency in virtual cycles (queueing + execution +
        /// mutator-visible compile stall).
        latency: u64,
        /// The mutator-visible compile stall portion of the latency.
        stall: u64,
    },
    /// Compile-queue depth sampled at a request boundary of the server
    /// simulation — the queue-depth-over-time timeline.
    QueueDepth {
        /// Global request sequence number at which the sample was taken.
        request: u64,
        /// Compilations enqueued or in flight at the sample point.
        depth: u64,
    },
    /// A warmup snapshot was parsed, fingerprint-checked and applied before
    /// the run started.
    SnapshotLoaded {
        /// Method profiles seeded from the snapshot.
        methods: u64,
        /// Compile decisions carried by the snapshot.
        decisions: u64,
        /// Replay mode applied: `eager` or `seed`.
        mode: String,
    },
    /// A snapshot could not be applied (stale, corrupt, version mismatch,
    /// unreadable) and the machine fell back to a cold start.
    SnapshotFallback {
        /// Human-readable reason, as rendered by `SnapshotError`.
        reason: String,
    },
    /// End-of-run profile + decision-log snapshot was serialized and handed
    /// to its store.
    SnapshotWritten {
        /// Method profiles captured.
        methods: u64,
        /// Compile decisions captured.
        decisions: u64,
        /// Serialized snapshot size in bytes.
        bytes: u64,
    },
    /// N replica snapshots were merged into one before the run: profile
    /// histograms unioned with weighted counts, the decision log settled by
    /// majority vote (ties broken by total observed hotness).
    SnapshotMerged {
        /// Distinct replica snapshots that contributed.
        replicas: u64,
        /// Method profiles in the merged snapshot.
        methods: u64,
        /// Compile decisions that survived the vote and the support check.
        decisions: u64,
        /// Methods on which replicas voted for different decisions.
        conflicts: u64,
        /// Decisions dropped because the merged profile no longer
        /// justified them.
        aged_out: u64,
    },
    /// A replayed snapshot decision deoptimized within its first K compiled
    /// activations and was quarantined: code dropped, seeded profile rolled
    /// back, the decision excluded from the next `snapshot_out`.
    DecisionPoisoned {
        /// The quarantined method.
        method: MethodId,
        /// Compiled activations the replayed code served before the deopt.
        activations: u64,
        /// The attribution window K it fell inside.
        window: u64,
    },
    /// A snapshot-merge support check dropped a decision the merged profile
    /// no longer justifies (the method's observed hotness fell below the
    /// support bar).
    DecisionAgedOut {
        /// The method whose decision was dropped.
        method: MethodId,
        /// The method's hotness in the merged profile.
        hotness: u64,
        /// The support bar it failed to meet.
        required: u64,
    },
}

impl CompileEvent {
    /// Short name of the event variant, matching the JSONL `"ev"` key.
    pub fn name(&self) -> &'static str {
        match self {
            CompileEvent::RoundStart { .. } => "RoundStart",
            CompileEvent::RoundEnd { .. } => "RoundEnd",
            CompileEvent::NodeExpanded { .. } => "NodeExpanded",
            CompileEvent::CutoffDeferred { .. } => "CutoffDeferred",
            CompileEvent::ClusterFormed { .. } => "ClusterFormed",
            CompileEvent::InlineDecision { .. } => "InlineDecision",
            CompileEvent::OptPassStats { .. } => "OptPassStats",
            CompileEvent::FuelCharged { .. } => "FuelCharged",
            CompileEvent::TreeSnapshot { .. } => "TreeSnapshot",
            CompileEvent::TierTransition { .. } => "TierTransition",
            CompileEvent::Bailout { .. } => "Bailout",
            CompileEvent::CodeInstalled { .. } => "CodeInstalled",
            CompileEvent::Deoptimized { .. } => "Deoptimized",
            CompileEvent::CodeInvalidated { .. } => "CodeInvalidated",
            CompileEvent::Recompiled { .. } => "Recompiled",
            CompileEvent::SpeculationPinned { .. } => "SpeculationPinned",
            CompileEvent::CodeEvicted { .. } => "CodeEvicted",
            CompileEvent::AdmissionRejected { .. } => "AdmissionRejected",
            CompileEvent::MethodAged { .. } => "MethodAged",
            CompileEvent::ReTiered { .. } => "ReTiered",
            CompileEvent::RequestRetired { .. } => "RequestRetired",
            CompileEvent::QueueDepth { .. } => "QueueDepth",
            CompileEvent::SnapshotLoaded { .. } => "SnapshotLoaded",
            CompileEvent::SnapshotFallback { .. } => "SnapshotFallback",
            CompileEvent::SnapshotWritten { .. } => "SnapshotWritten",
            CompileEvent::SnapshotMerged { .. } => "SnapshotMerged",
            CompileEvent::DecisionPoisoned { .. } => "DecisionPoisoned",
            CompileEvent::DecisionAgedOut { .. } => "DecisionAgedOut",
        }
    }

    /// The method this event is about, when it carries one.
    ///
    /// For inliner-internal events ([`CompileEvent::NodeExpanded`],
    /// [`CompileEvent::CutoffDeferred`], [`CompileEvent::ClusterFormed`],
    /// [`CompileEvent::InlineDecision`]) this is the *callee* under
    /// consideration, not the compilation root; lifecycle events
    /// (round/tier/bailout/install/deopt) carry the root itself. Events with
    /// no method context ([`CompileEvent::OptPassStats`],
    /// [`CompileEvent::FuelCharged`], [`CompileEvent::TreeSnapshot`]) return
    /// `None`, as do synthetic-node decisions.
    pub fn method(&self) -> Option<MethodId> {
        match self {
            CompileEvent::RoundStart { method, .. }
            | CompileEvent::RoundEnd { method, .. }
            | CompileEvent::NodeExpanded { method, .. }
            | CompileEvent::CutoffDeferred { method, .. }
            | CompileEvent::TierTransition { method, .. }
            | CompileEvent::Bailout { method, .. }
            | CompileEvent::CodeInstalled { method, .. }
            | CompileEvent::Deoptimized { method, .. }
            | CompileEvent::CodeInvalidated { method, .. }
            | CompileEvent::Recompiled { method, .. }
            | CompileEvent::SpeculationPinned { method }
            | CompileEvent::CodeEvicted { method, .. }
            | CompileEvent::AdmissionRejected { method, .. }
            | CompileEvent::MethodAged { method, .. }
            | CompileEvent::ReTiered { method, .. }
            | CompileEvent::DecisionPoisoned { method, .. }
            | CompileEvent::DecisionAgedOut { method, .. } => Some(*method),
            CompileEvent::ClusterFormed { method, .. }
            | CompileEvent::InlineDecision { method, .. } => *method,
            CompileEvent::OptPassStats { .. }
            | CompileEvent::FuelCharged { .. }
            | CompileEvent::TreeSnapshot { .. }
            | CompileEvent::RequestRetired { .. }
            | CompileEvent::QueueDepth { .. }
            | CompileEvent::SnapshotLoaded { .. }
            | CompileEvent::SnapshotFallback { .. }
            | CompileEvent::SnapshotWritten { .. }
            | CompileEvent::SnapshotMerged { .. } => None,
        }
    }
}

fn opt_method(method: &Option<MethodId>) -> String {
    match method {
        Some(m) => m.to_string(),
        None => "-".to_string(),
    }
}

impl fmt::Display for CompileEvent {
    /// Human-readable one-line rendering, used by [`crate::StderrSink`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileEvent::RoundStart {
                method,
                round,
                root_size,
                tree_nodes,
            } => write!(
                f,
                "round {round} start: root {method} |ir|={root_size:.0} tree={tree_nodes}"
            ),
            CompileEvent::RoundEnd {
                method,
                round,
                expanded,
                inlined,
                root_size,
                tree_nodes,
            } => write!(
                f,
                "round {round} end: root {method} expanded={expanded} inlined={inlined} \
                 |ir|={root_size:.0} tree={tree_nodes}"
            ),
            CompileEvent::NodeExpanded {
                method,
                kind,
                freq,
                priority,
                ns,
                no,
                attached,
            } => write!(
                f,
                "  expand {method} [{kind}] f={freq:.2} p={priority:.2} \
                 Ns={ns} No={no} attached={attached}"
            ),
            CompileEvent::CutoffDeferred {
                method,
                local_benefit,
                ir_size,
                root_ir,
                required_density,
                penalty,
            } => write!(
                f,
                "  defer {method} b_l={local_benefit:.2} |ir|={ir_size:.0} \
                 root={root_ir:.0} bar={required_density:.4} penalty={penalty:.2}"
            ),
            CompileEvent::ClusterFormed {
                method,
                members,
                benefit,
                cost,
            } => write!(
                f,
                "  cluster {} members={members} b|c={benefit:.1}|{cost:.0}",
                opt_method(method)
            ),
            CompileEvent::InlineDecision {
                method,
                benefit,
                cost,
                threshold,
                root_size,
                accepted,
            } => write!(
                f,
                "  {} {} b|c={benefit:.1}|{cost:.0} bar={threshold:.4} root={root_size:.0}",
                if *accepted { "inline" } else { "reject" },
                opt_method(method)
            ),
            CompileEvent::OptPassStats {
                phase,
                stage,
                stats,
            } => write!(
                f,
                "  opt[{phase}/{stage}] {} transforms ({} simple, {} dce, {} gvn)",
                stats.total(),
                stats.simple_count(),
                stats.dce,
                stats.gvn
            ),
            CompileEvent::FuelCharged { amount, spent } => {
                write!(f, "  fuel +{amount} (spent {spent})")
            }
            CompileEvent::TreeSnapshot { round, text } => {
                write!(f, "call tree after round {round}:\n{text}")
            }
            CompileEvent::TierTransition { method, tier } => {
                write!(f, "{method} -> {tier} tier")
            }
            CompileEvent::Bailout {
                method,
                stage,
                error,
            } => write!(f, "bailout {method} at {stage} tier: {error}"),
            CompileEvent::CodeInstalled {
                method,
                bytes,
                graph_size,
                work_nodes,
            } => write!(
                f,
                "installed {method}: {bytes} bytes, |ir|={graph_size}, work={work_nodes}"
            ),
            CompileEvent::Deoptimized { method, reason } => {
                write!(f, "{method} deoptimized: {reason}")
            }
            CompileEvent::CodeInvalidated {
                method,
                bytes,
                recompiles,
            } => write!(
                f,
                "invalidated {method}: {bytes} bytes released, recompiles={recompiles}"
            ),
            CompileEvent::Recompiled {
                method,
                recompiles,
                threshold,
            } => write!(
                f,
                "recompiled {method}: attempt {recompiles}, hotness bar {threshold}"
            ),
            CompileEvent::SpeculationPinned { method } => {
                write!(f, "{method} pinned to fallback-only code")
            }
            CompileEvent::CodeEvicted {
                method,
                bytes,
                policy,
                resident_uses,
            } => write!(
                f,
                "evicted {method}: {bytes} bytes freed by {policy}, uses={resident_uses}"
            ),
            CompileEvent::AdmissionRejected {
                method,
                bytes,
                reason,
            } => write!(f, "admission rejected {method}: {bytes} bytes, {reason}"),
            CompileEvent::MethodAged { method, idle } => {
                write!(f, "{method} aged: idle for {idle} uses")
            }
            CompileEvent::ReTiered { method, evictions } => {
                write!(f, "re-tiered {method} after {evictions} evictions")
            }
            CompileEvent::RequestRetired {
                tenant,
                request,
                latency,
                stall,
            } => write!(
                f,
                "request {request} retired for {tenant}: latency={latency} stall={stall}"
            ),
            CompileEvent::QueueDepth { request, depth } => {
                write!(f, "queue depth at request {request}: {depth}")
            }
            CompileEvent::SnapshotLoaded {
                methods,
                decisions,
                mode,
            } => write!(
                f,
                "snapshot loaded: {methods} profiles, {decisions} decisions, replay={mode}"
            ),
            CompileEvent::SnapshotFallback { reason } => {
                write!(f, "snapshot fallback to cold start: {reason}")
            }
            CompileEvent::SnapshotWritten {
                methods,
                decisions,
                bytes,
            } => write!(
                f,
                "snapshot written: {methods} profiles, {decisions} decisions, {bytes} bytes"
            ),
            CompileEvent::SnapshotMerged {
                replicas,
                methods,
                decisions,
                conflicts,
                aged_out,
            } => write!(
                f,
                "snapshot merged: {replicas} replicas -> {methods} profiles, \
                 {decisions} decisions ({conflicts} conflicts, {aged_out} aged out)"
            ),
            CompileEvent::DecisionPoisoned {
                method,
                activations,
                window,
            } => write!(
                f,
                "{method} poisoned: deopt after {activations} activations (window {window})"
            ),
            CompileEvent::DecisionAgedOut {
                method,
                hotness,
                required,
            } => write!(
                f,
                "{method} decision aged out: hotness {hotness} < support {required}"
            ),
        }
    }
}
