//! The optimization-driven incremental inlining algorithm (paper §III–IV).
//!
//! [`IncrementalInliner::compile`] is Listing 1: rounds of *expansion*
//! (Listing 3: priority-guided descent with the adaptive threshold of
//! Equation 8), *cost–benefit analysis* (Listing 6: greedy callsite
//! clustering over ⊕/⊙ tuples), and *inlining* (Listing 5: best-cluster
//! selection under the adaptive threshold of Equation 12, with typeswitch
//! emission for polymorphic nodes), alternated with the optimizer until a
//! fixpoint, a size cap, or the round limit.

use std::collections::HashSet;

use incline_ir::inline::inline_call;
use incline_ir::{Graph, InstId, MethodId};
use incline_opt::{CompileFuel, OptStats};
use incline_trace::{CollectingSink, CompileEvent, OptPhase};
use incline_vm::{CompileCx, CompileError, CompileOutcome, InlineStats, Inliner};

use crate::calltree::{CallTree, NodeId, NodeKind};
use crate::metrics::{
    expansion_bar, exploration_penalty, inline_bar, may_inline, recursion_penalty, should_expand,
    Tuple,
};
use crate::policy::{Clustering, PolicyConfig};
use crate::typeswitch::{emit_typeswitch, FallbackMode, TypeswitchCase};

/// The paper's inliner, parameterized by a [`PolicyConfig`] so that every
/// ablation of the evaluation is expressible.
#[derive(Clone, Debug, Default)]
pub struct IncrementalInliner {
    /// Heuristic configuration.
    pub config: PolicyConfig,
    /// Display name override (used by benchmark tables).
    pub label: Option<String>,
}

impl IncrementalInliner {
    /// Creates the inliner with the paper's tuned configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the inliner with an explicit configuration.
    pub fn with_config(config: PolicyConfig) -> Self {
        IncrementalInliner {
            config,
            label: None,
        }
    }

    /// Sets the display name.
    pub fn named(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

impl IncrementalInliner {
    /// Like [`Inliner::compile`], but also returns a human-readable trace:
    /// the rendered call tree (paper Figures 2–4) after each round.
    ///
    /// Implemented as a pure consumer of the structured event stream: the
    /// compilation runs against a [`CollectingSink`] and the transcript is
    /// rendered from the captured [`CompileEvent`]s.
    ///
    /// # Errors
    ///
    /// Same as [`Inliner::compile`].
    pub fn compile_explain(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
    ) -> Result<(CompileOutcome, String), CompileError> {
        let sink = CollectingSink::new();
        let traced = cx.with_trace(&sink);
        let out = self.compile_impl(method, &traced)?;
        Ok((out, crate::render::render_trace(&sink.take())))
    }

    fn compile_impl(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
    ) -> Result<CompileOutcome, CompileError> {
        let config = &self.config;
        let mut opt_total = OptStats::new();

        let mut graph = cx.program.method(method).graph.clone();
        if !cx.charge(graph.size() as u64) {
            return Err(out_of_fuel(cx.fuel));
        }
        opt_total += incline_trace::optimize_with_trace(
            cx.program,
            &mut graph,
            Default::default(),
            cx.fuel,
            cx.trace,
            OptPhase::Initial,
        );

        let mut tree = CallTree::new(method, graph, cx, config);
        let mut rounds = 0u64;
        let mut inlined_calls = 0u64;
        let mut speculative_sites = 0u64;
        let mut starved_rounds = 0u32;

        // Listing 1: while !detectTermination { expand; analyze; inline }.
        loop {
            rounds += 1;
            // Each round costs at least the root it re-processes; a spent
            // budget aborts the compilation so the broker's ladder can
            // fall back to a cheaper tier.
            if !cx.charge(tree.root_graph.size() as u64) {
                return Err(out_of_fuel(cx.fuel));
            }
            cx.emit(|| CompileEvent::RoundStart {
                method,
                round: rounds as u32,
                root_size: tree.root_graph.size() as f64,
                tree_nodes: tree.len(),
            });
            let expanded = expand_phase(&mut tree, cx, config);
            analyze_phase(&mut tree, cx, config);
            let inlined = inline_phase(&mut tree, cx, config, &mut speculative_sites);
            inlined_calls += inlined;

            // End of round (§IV, Other optimizations): read–write
            // elimination and loop peeling run on the root.
            opt_total += incline_trace::optimize_with_trace(
                cx.program,
                &mut tree.root_graph,
                Default::default(),
                cx.fuel,
                cx.trace,
                OptPhase::Round,
            );
            tree.sync_root_children(cx, config);
            refresh_specializations(&mut tree, cx, config);
            cx.emit(|| CompileEvent::RoundEnd {
                method,
                round: rounds as u32,
                expanded,
                inlined,
                root_size: tree.root_graph.size() as f64,
                tree_nodes: tree.len(),
            });
            // Rendering the tree is far too expensive for the hot path, so
            // the snapshot is gated on an enabled sink rather than built
            // inside a lazy closure that borrows `tree` anyway.
            if cx.tracing() {
                cx.trace.emit(CompileEvent::TreeSnapshot {
                    round: rounds as u32,
                    text: crate::render::render(&tree, cx),
                });
            }

            // Expansion without inlining decisions means the thresholds
            // reject everything the exploration surfaces; growing the tree
            // further only costs compile time (§II.2). Two starved rounds
            // end the compilation.
            starved_rounds = if inlined == 0 { starved_rounds + 1 } else { 0 };
            let changed = expanded > 0 || inlined > 0;
            if !changed
                || starved_rounds >= 2
                || rounds as usize >= config.max_rounds
                || tree.root_graph.size() > config.root_size_cap
            {
                break;
            }
        }

        opt_total += incline_trace::optimize_with_trace(
            cx.program,
            &mut tree.root_graph,
            Default::default(),
            cx.fuel,
            cx.trace,
            OptPhase::Final,
        );
        let final_size = tree.root_graph.size();
        let explored = tree.explored_nodes;
        Ok(CompileOutcome {
            graph: tree.root_graph,
            work_nodes: explored + final_size,
            stats: InlineStats {
                inlined_calls,
                rounds,
                explored_nodes: explored as u64,
                final_size: final_size as u64,
                opt_events: opt_total.total(),
                speculative_sites,
            },
        })
    }
}

/// The error the broker's bailout ladder expects on a spent budget.
fn out_of_fuel(fuel: &CompileFuel) -> CompileError {
    CompileError::OutOfFuel {
        limit: fuel.limit().unwrap_or(u64::MAX),
    }
}

impl Inliner for IncrementalInliner {
    fn name(&self) -> &str {
        self.label.as_deref().unwrap_or("incremental")
    }

    fn compile(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
    ) -> Result<CompileOutcome, CompileError> {
        self.compile_impl(method, cx)
    }
}

// ---- priorities (Equations 5–7, 14) ---------------------------------------

/// Intrinsic priority `P_I(n)` (Equations 5–6), with the recursion penalty
/// `ψ_r` (Equation 14) applied to cutoff nodes.
fn intrinsic_priority(
    tree: &CallTree,
    n: NodeId,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
) -> f64 {
    let node = tree.node(n);
    match node.kind {
        NodeKind::Cutoff => {
            let mut p = tree.local_benefit(n) / tree.ir_size(n, cx).max(1.0);
            if config.recursion_penalty {
                p -= recursion_penalty(node.freq, node.rec_depth);
            }
            p
        }
        NodeKind::Expanded | NodeKind::Polymorphic | NodeKind::Root => node
            .children
            .iter()
            .map(|&c| intrinsic_priority(tree, c, cx, config))
            .fold(f64::NEG_INFINITY, f64::max),
        _ => f64::NEG_INFINITY,
    }
}

/// Final priority `P(n) = P_I(n) − ψ(n)` (Equation 6 with Equation 7).
fn priority(tree: &CallTree, n: NodeId, cx: &CompileCx<'_>, config: &PolicyConfig) -> f64 {
    let m = tree.subtree_metrics(n, cx);
    intrinsic_priority(tree, n, cx, config)
        - exploration_penalty(&config.penalty, m.s_ir, m.s_b, m.n_c as f64)
}

// ---- expansion phase (Listing 3) -------------------------------------------

/// Whether the subtree under `n` still contains a cutoff not yet refused.
fn has_open_cutoff(tree: &CallTree, n: NodeId, refused: &HashSet<NodeId>) -> bool {
    let node = tree.node(n);
    match node.kind {
        NodeKind::Cutoff => !refused.contains(&n),
        NodeKind::Expanded | NodeKind::Polymorphic | NodeKind::Root => node
            .children
            .iter()
            .any(|&c| has_open_cutoff(tree, c, refused)),
        _ => false,
    }
}

/// `descend` (Listing 4): follow the best-priority child until a cutoff.
fn descend(
    tree: &CallTree,
    n: NodeId,
    refused: &HashSet<NodeId>,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
) -> Option<NodeId> {
    if tree.node(n).kind == NodeKind::Cutoff {
        return (!refused.contains(&n)).then_some(n);
    }
    let best = tree
        .node(n)
        .children
        .iter()
        .copied()
        .filter(|&c| has_open_cutoff(tree, c, refused))
        .max_by(|&a, &b| {
            priority(tree, a, cx, config)
                .partial_cmp(&priority(tree, b, cx, config))
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
    descend(tree, best, refused, cx, config)
}

/// The expansion phase. Returns the number of nodes expanded.
fn expand_phase(tree: &mut CallTree, cx: &CompileCx<'_>, config: &PolicyConfig) -> usize {
    let mut refused: HashSet<NodeId> = HashSet::new();
    let mut expansions = 0usize;
    loop {
        if expansions >= config.max_expansions_per_round {
            break;
        }
        let root_metrics = tree.subtree_metrics(tree.root(), cx);
        let Some(cutoff) = descend(tree, tree.root(), &refused, cx, config) else {
            break;
        };
        // `expandCutoff` (Listing 3): the adaptive/fixed threshold of
        // Equation 8 decides whether to attach the IR.
        let b_l = tree.local_benefit(cutoff);
        let ir = tree.ir_size(cutoff, cx);
        if should_expand(&config.expansion, b_l, ir, root_metrics.s_ir) {
            let won_priority = intrinsic_priority(tree, cutoff, cx, config);
            let attached = tree.expand_node(cutoff, cx, config);
            expansions += 1;
            cx.emit(|| {
                let node = tree.node(cutoff);
                CompileEvent::NodeExpanded {
                    method: node.method.expect("expanded nodes have a target"),
                    kind: crate::render::kind_tag(node.kind),
                    freq: node.freq,
                    priority: won_priority,
                    ns: node.ns,
                    no: node.no,
                    attached,
                }
            });
        } else {
            cx.emit(|| {
                let m = tree.subtree_metrics(cutoff, cx);
                CompileEvent::CutoffDeferred {
                    method: tree.node(cutoff).method.expect("cutoffs have a target"),
                    local_benefit: b_l,
                    ir_size: ir,
                    root_ir: root_metrics.s_ir,
                    required_density: expansion_bar(&config.expansion, root_metrics.s_ir),
                    penalty: exploration_penalty(&config.penalty, m.s_ir, m.s_b, m.n_c as f64),
                }
            });
            refused.insert(cutoff);
        }
    }
    expansions
}

// ---- analysis phase (Listing 6) ---------------------------------------------

fn is_cluster_kind(kind: NodeKind) -> bool {
    matches!(kind, NodeKind::Expanded | NodeKind::Polymorphic)
}

/// Bottom-up cost–benefit analysis with callsite clustering.
fn analyze_phase(tree: &mut CallTree, cx: &CompileCx<'_>, config: &PolicyConfig) {
    let root = tree.root();
    let s_root = tree.subtree_metrics(root, cx).s_ir;
    let children: Vec<NodeId> = tree.node(root).children.clone();
    for c in children {
        analyze_node(tree, c, cx, config, s_root);
    }
}

/// Whether a child's benefit is *realizable* — i.e. the child could itself
/// plausibly be inlined, so that inlining its parent alone genuinely
/// forfeits something. Expanded/polymorphic children are realizable;
/// cutoff children only when their benefit density would still pass the
/// expansion threshold (a huge cold callee that will never be explored is
/// not an opportunity cost).
fn realizable(
    tree: &CallTree,
    c: NodeId,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
    s_root: f64,
) -> bool {
    match tree.node(c).kind {
        NodeKind::Expanded | NodeKind::Polymorphic => true,
        NodeKind::Cutoff => should_expand(
            &config.expansion,
            tree.local_benefit(c),
            tree.ir_size(c, cx),
            s_root,
        ),
        _ => false,
    }
}

fn analyze_node(
    tree: &mut CallTree,
    n: NodeId,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
    s_root: f64,
) {
    // Post-order: children first (they form their own clusters).
    let children: Vec<NodeId> = tree.node(n).children.clone();
    for c in &children {
        analyze_node(tree, *c, cx, config, s_root);
    }
    if !is_cluster_kind(tree.node(n).kind) {
        return;
    }

    tree.node_mut(n).inlined_with_parent = false;

    if config.clustering == Clustering::OneByOne {
        // Figure 8 ablation: every method is its own cluster; the benefit
        // is the plain local benefit.
        let tuple = Tuple::new(tree.local_benefit(n), tree.ir_size(n, cx));
        tree.node_mut(n).tuple = tuple;
        return;
    }

    // Listing 6: the initial tuple forfeits the children's benefits. A
    // polymorphic node is different: its Equation-13 benefit is *already*
    // the probability-weighted sum of its targets, so discounting the
    // targets again would make every typeswitch look worthless. Its own
    // contribution is the devirtualization gain (one saved dispatch per
    // execution), and its targets merge in through the front as usual
    // (their tuples are p-scaled via their frequencies).
    let own_benefit = if tree.node(n).kind == NodeKind::Polymorphic {
        tree.node(n).freq
    } else {
        let child_benefit: f64 = children
            .iter()
            .filter(|&&c| realizable(tree, c, cx, config, s_root))
            .map(|&c| tree.local_benefit(c))
            .sum();
        tree.local_benefit(n) - child_benefit
    };
    let mut tuple = Tuple::new(own_benefit, tree.ir_size(n, cx));
    let mut members = 1usize;

    // …and the front contains the adjacent child clusters.
    let mut front: Vec<NodeId> = children
        .iter()
        .copied()
        .filter(|&c| is_cluster_kind(tree.node(c).kind))
        .collect();

    while !front.is_empty() {
        // The adjacent cluster with the highest benefit-to-cost ratio.
        let (idx, &m) = front
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                tree.node(a)
                    .tuple
                    .ratio()
                    .partial_cmp(&tree.node(b).tuple.ratio())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("front nonempty");
        let merged = tuple.merge(tree.node(m).tuple);
        if merged.ratio() > tuple.ratio() {
            tuple = merged;
            members += 1;
            tree.node_mut(m).inlined_with_parent = true;
            front.swap_remove(idx);
            // The merged cluster's own front joins ours.
            let mf: Vec<NodeId> = tree
                .node(m)
                .children
                .iter()
                .copied()
                .filter(|&c| {
                    is_cluster_kind(tree.node(c).kind) && !tree.node(c).inlined_with_parent
                })
                .collect();
            front.extend(mf);
        } else {
            break;
        }
    }
    tree.node_mut(n).tuple = tuple;
    if members > 1 {
        cx.emit(|| CompileEvent::ClusterFormed {
            method: tree.node(n).method,
            members,
            benefit: tuple.benefit,
            cost: tuple.cost,
        });
    }
}

// ---- inlining phase (Listing 5) ----------------------------------------------

/// The inlining phase. Returns the number of callsites inlined.
fn inline_phase(
    tree: &mut CallTree,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
    spec_sites: &mut u64,
) -> u64 {
    let root = tree.root();
    let mut queue: Vec<NodeId> = tree
        .node(root)
        .children
        .iter()
        .copied()
        .filter(|&c| is_cluster_kind(tree.node(c).kind))
        .collect();
    let mut inlined = 0u64;

    while !queue.is_empty() {
        // bestCluster: highest benefit-to-cost ratio.
        let (idx, &n) = queue
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                tree.node(a)
                    .tuple
                    .ratio()
                    .partial_cmp(&tree.node(b).tuple.ratio())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("queue nonempty");
        queue.swap_remove(idx);

        let root_size = tree.root_graph.size() as f64;
        if root_size > config.root_size_cap as f64 {
            break;
        }
        let tuple = tree.node(n).tuple;
        let node_size = tree.ir_size(n, cx);
        let accepted = may_inline(&config.inlining, tuple, root_size, node_size);
        cx.emit(|| CompileEvent::InlineDecision {
            method: tree.node(n).method,
            benefit: tuple.benefit,
            cost: tuple.cost,
            threshold: inline_bar(&config.inlining, root_size, node_size),
            root_size,
            accepted,
        });
        if !accepted {
            continue; // skip; smaller clusters may still pass
        }
        let fronts = inline_cluster(tree, n, cx, &mut inlined, spec_sites);
        queue.extend(
            fronts
                .into_iter()
                .filter(|&c| is_cluster_kind(tree.node(c).kind)),
        );
    }

    // Drop consumed nodes from the root's child list.
    let keep: Vec<NodeId> = tree
        .node(root)
        .children
        .iter()
        .copied()
        .filter(|&c| tree.node(c).kind != NodeKind::Inlined)
        .collect();
    tree.node_mut(root).children = keep;
    inlined
}

/// Locates the block containing `inst` in the root graph.
fn find_block(graph: &Graph, inst: InstId) -> Option<incline_ir::BlockId> {
    graph
        .callsites()
        .iter()
        .find(|&&(_, i)| i == inst)
        .map(|&(b, _)| b)
}

/// `inlineCluster` (Listing 5): transplants the node's specialized body
/// into the root, re-anchors its children, and recursively inlines cluster
/// members. Returns the cluster's front (new root children).
fn inline_cluster(
    tree: &mut CallTree,
    n: NodeId,
    cx: &CompileCx<'_>,
    inlined: &mut u64,
    spec_sites: &mut u64,
) -> Vec<NodeId> {
    let root = tree.root();
    let kind = tree.node(n).kind;
    let callsite = tree.node(n).callsite.expect("cluster nodes have callsites");
    let Some(block) = find_block(&tree.root_graph, callsite) else {
        // The callsite disappeared (an earlier optimization or sibling
        // inline removed it): nothing to do.
        tree.node_mut(n).kind = NodeKind::Deleted;
        return Vec::new();
    };

    match kind {
        NodeKind::Expanded => {
            let body = tree
                .node_mut(n)
                .graph
                .take()
                .expect("expanded node has a graph");
            let res = inline_call(&mut tree.root_graph, block, callsite, &body);
            *inlined += 1;
            tree.node_mut(n).kind = NodeKind::Inlined;

            let children: Vec<NodeId> = tree.node(n).children.clone();
            let mut front = Vec::new();
            for c in children {
                // Re-anchor the child (and, for polymorphic children, the
                // target grandchildren sharing the same callsite inst).
                remap_callsite(tree, c, &res.inst_map);
                if tree.node(c).kind == NodeKind::Polymorphic {
                    let gks: Vec<NodeId> = tree.node(c).children.clone();
                    for g in gks {
                        remap_callsite(tree, g, &res.inst_map);
                    }
                }
                tree.node_mut(c).parent = Some(root);
                tree.node_mut(root).children.push(c);
                if tree.node(c).inlined_with_parent && is_cluster_kind(tree.node(c).kind) {
                    let mut sub = inline_cluster(tree, c, cx, inlined, spec_sites);
                    front.append(&mut sub);
                } else {
                    front.push(c);
                }
            }
            front
        }
        NodeKind::Polymorphic => {
            let children: Vec<NodeId> = tree.node(n).children.clone();
            let cases: Vec<TypeswitchCase> = children
                .iter()
                .map(|&c| TypeswitchCase {
                    target: tree.node(c).method.expect("target known"),
                    guard: tree.node(c).speculated_class.expect("guard known"),
                })
                .collect();
            // Paper §IV: with deoptimization support, a cascade whose
            // speculated receivers cover (almost) all profiled traffic
            // replaces the virtual fallback with an uncommon trap.
            let coverage: f64 = children.iter().map(|&c| tree.node(c).poly_prob).sum();
            let spec = cx.speculation;
            let fallback = if spec.allow_deopt && coverage >= spec.confidence {
                FallbackMode::Deopt
            } else {
                FallbackMode::Virtual
            };
            let res = emit_typeswitch(
                cx.program,
                &mut tree.root_graph,
                block,
                callsite,
                &cases,
                fallback,
            );
            *inlined += 1; // the typeswitch itself is an inlining decision
            *spec_sites += 1;
            tree.node_mut(n).kind = NodeKind::Inlined;

            let mut front = Vec::new();
            for (i, c) in children.into_iter().enumerate() {
                tree.node_mut(c).callsite = Some(res.case_calls[i]);
                tree.node_mut(c).parent = Some(root);
                tree.node_mut(root).children.push(c);
                if tree.node(c).inlined_with_parent && is_cluster_kind(tree.node(c).kind) {
                    let mut sub = inline_cluster(tree, c, cx, inlined, spec_sites);
                    front.append(&mut sub);
                } else {
                    front.push(c);
                }
            }
            front
        }
        other => unreachable!("inline_cluster on {other:?}"),
    }
}

fn remap_callsite(
    tree: &mut CallTree,
    c: NodeId,
    inst_map: &std::collections::HashMap<InstId, InstId>,
) {
    if let Some(old) = tree.node(c).callsite {
        if let Some(&new) = inst_map.get(&old) {
            tree.node_mut(c).callsite = Some(new);
        }
    }
}

// ---- deep-trials fixpoint (§IV) ------------------------------------------------

/// Re-specializes direct children of the root whose callsite arguments
/// became more precise after the round's optimizations (the paper's
/// "repeat until fixpoint" of deep inlining trials).
fn refresh_specializations(tree: &mut CallTree, cx: &CompileCx<'_>, config: &PolicyConfig) {
    let root = tree.root();
    let children: Vec<NodeId> = tree.node(root).children.clone();
    let live: HashSet<InstId> = tree
        .root_graph
        .callsites()
        .iter()
        .map(|&(_, i)| i)
        .collect();
    for c in children {
        let node = tree.node(c);
        if node.kind != NodeKind::Expanded {
            continue;
        }
        let Some(site) = node.callsite else { continue };
        if !live.contains(&site) {
            continue;
        }
        if tree.potential_ns(c, cx) > tree.node(c).ns {
            // Re-run the trial with the improved argument facts.
            let n = tree.node_mut(c);
            n.kind = NodeKind::Cutoff;
            n.children.clear();
            n.ns = 0;
            n.no = 0;
            n.graph = None;
            tree.expand_node(c, cx, config);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::verify::verify_graph;
    use incline_ir::{CmpOp, Program, RetType, Type};
    use incline_profile::ProfileTable;

    fn cx<'a>(p: &'a Program, t: &'a ProfileTable) -> CompileCx<'a> {
        CompileCx::new(p, t)
    }

    /// Figure 1 analog: log(xs) → foreach loop → {length, get, apply}.
    /// Built as: root(n) loops calling tiny hot callees.
    fn hot_chain() -> (Program, MethodId) {
        let mut p = Program::new();
        let inc = p.declare_function("inc", vec![Type::Int], Type::Int);
        let dbl = p.declare_function("dbl", vec![Type::Int], Type::Int);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);

        let mut fb = FunctionBuilder::new(&p, inc);
        let x = fb.param(0);
        let one = fb.const_int(1);
        let r = fb.iadd(x, one);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(inc, g);

        let mut fb = FunctionBuilder::new(&p, dbl);
        let x = fb.param(0);
        let two = fb.const_int(2);
        let r = fb.imul(x, two);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(dbl, g);

        let mut fb = FunctionBuilder::new(&p, root);
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
        let a = fb.call_static(inc, vec![hp[1]]).unwrap();
        let b = fb.call_static(dbl, vec![a]).unwrap();
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        fb.jump(head, vec![i2, b]);
        fb.switch_to(done);
        fb.ret(Some(dp[0]));
        let g = fb.finish();
        p.define_method(root, g);
        (p, root)
    }

    /// Seeds profiles as if `root(64)` ran `runs` times.
    fn seed_profiles(p: &Program, root: MethodId, runs: u64, iters: u64) -> ProfileTable {
        let mut t = ProfileTable::new();
        let inc = p.function_by_name("inc").unwrap();
        let dbl = p.function_by_name("dbl").unwrap();
        for _ in 0..runs {
            t.record_invocation(root);
            for _ in 0..iters {
                t.record_backedge(root);
                t.record_callsite(incline_ir::CallSiteId {
                    method: root,
                    index: 0,
                });
                t.record_callsite(incline_ir::CallSiteId {
                    method: root,
                    index: 1,
                });
                t.record_invocation(inc);
                t.record_invocation(dbl);
            }
        }
        t
    }

    #[test]
    fn inlines_hot_loop_callees() {
        let (p, root) = hot_chain();
        let profiles = seed_profiles(&p, root, 10, 64);
        let inliner = IncrementalInliner::new();
        let out = inliner.compile(root, &cx(&p, &profiles)).unwrap();
        assert!(out.stats.inlined_calls >= 2, "{:?}", out.stats);
        assert!(
            out.graph.callsites().is_empty(),
            "hot tiny callees must disappear"
        );
        verify_graph(&p, &out.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn respects_root_size_cap() {
        let (p, root) = hot_chain();
        let profiles = seed_profiles(&p, root, 10, 64);
        let config = PolicyConfig {
            root_size_cap: 1, // absurd: nothing may grow
            ..PolicyConfig::default()
        };
        let inliner = IncrementalInliner::with_config(config);
        let out = inliner.compile(root, &cx(&p, &profiles)).unwrap();
        // The first round may still inline (cap checked per selection),
        // but the algorithm must stop immediately after.
        assert!(out.stats.rounds <= 2, "{:?}", out.stats);
    }

    #[test]
    fn fixed_zero_budget_inlines_nothing() {
        let (p, root) = hot_chain();
        let profiles = seed_profiles(&p, root, 10, 64);
        let inliner = IncrementalInliner::with_config(PolicyConfig::fixed(0, 0));
        let out = inliner.compile(root, &cx(&p, &profiles)).unwrap();
        assert_eq!(out.stats.inlined_calls, 0);
        assert_eq!(out.graph.callsites().len(), 2);
    }

    #[test]
    fn polymorphic_callsite_becomes_typeswitch() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let c = p.add_class("C", Some(a));
        let ma = p.declare_method(a, "go", vec![Type::Int], Type::Int);
        let mb = p.declare_method(b, "go", vec![Type::Int], Type::Int);
        let mc = p.declare_method(c, "go", vec![Type::Int], Type::Int);
        for (m, k) in [(ma, 3), (mb, 5), (mc, 7)] {
            let mut fb = FunctionBuilder::new(&p, m);
            let x = fb.param(1);
            let kk = fb.const_int(k);
            let r = fb.imul(x, kk);
            fb.ret(Some(r));
            let g = fb.finish();
            p.define_method(m, g);
        }
        let root = p.declare_function("root", vec![Type::Object(a), Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let recv = fb.param(0);
        let x = fb.param(1);
        let sel = fb.program().selector_by_name("go", 2).unwrap();
        let r = fb.call_virtual(sel, vec![recv, x]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);

        let mut profiles = ProfileTable::new();
        let site = incline_ir::CallSiteId {
            method: root,
            index: 0,
        };
        profiles.record_invocation(root);
        for _ in 0..60 {
            profiles.record_receiver(site, b);
            profiles.record_callsite(site);
        }
        for _ in 0..40 {
            profiles.record_receiver(site, c);
            profiles.record_callsite(site);
        }
        let inliner = IncrementalInliner::new();
        let out = inliner.compile(root, &cx(&p, &profiles)).unwrap();
        verify_graph(
            &p,
            &out.graph,
            &[Type::Object(a), Type::Int],
            RetType::Value(Type::Int),
        )
        .unwrap();
        // The direct calls to B.go / C.go were inlined; only the virtual
        // fallback remains.
        let remaining = out.graph.callsites();
        assert_eq!(
            remaining.len(),
            1,
            "only the fallback survives: {:?}",
            out.stats
        );
        let incline_ir::Op::Call(info) = &out.graph.inst(remaining[0].1).op else {
            panic!()
        };
        assert!(matches!(info.target, incline_ir::CallTarget::Virtual(_)));
        // Typeswitch guards are present.
        let has_instanceof = out
            .graph
            .reachable_blocks()
            .iter()
            .flat_map(|&bb| out.graph.block(bb).insts.clone())
            .any(|i| matches!(out.graph.inst(i).op, incline_ir::Op::InstanceOf(_)));
        assert!(has_instanceof);
    }

    #[test]
    fn recursion_does_not_explode() {
        let mut p = Program::new();
        let f = p.declare_function("fib", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let n = fb.param(0);
        let two = fb.const_int(2);
        let c = fb.cmp(CmpOp::ILt, n, two);
        let base = fb.add_block();
        let rec = fb.add_block();
        fb.branch(c, (base, vec![]), (rec, vec![]));
        fb.switch_to(base);
        fb.ret(Some(n));
        fb.switch_to(rec);
        let one = fb.const_int(1);
        let nm1 = fb.isub(n, one);
        let nm2 = fb.isub(n, two);
        let a = fb.call_static(f, vec![nm1]).unwrap();
        let b = fb.call_static(f, vec![nm2]).unwrap();
        let r = fb.iadd(a, b);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(f, g);

        let mut profiles = ProfileTable::new();
        for _ in 0..100 {
            profiles.record_invocation(f);
            profiles.record_callsite(incline_ir::CallSiteId {
                method: f,
                index: 0,
            });
            profiles.record_callsite(incline_ir::CallSiteId {
                method: f,
                index: 1,
            });
        }
        let inliner = IncrementalInliner::new();
        let out = inliner.compile(f, &cx(&p, &profiles)).unwrap();
        verify_graph(&p, &out.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        assert!(
            out.stats.final_size < 2_000,
            "recursion penalty must bound growth, got {}",
            out.stats.final_size
        );
    }

    #[test]
    fn one_by_one_differs_from_clustered_on_figure1_shape() {
        // A root calling a mid method whose body is only worthwhile if its
        // own tiny callees are inlined too (the Figure 1 motif).
        let mut p = Program::new();
        let tiny1 = p.declare_function("t1", vec![Type::Int], Type::Int);
        let tiny2 = p.declare_function("t2", vec![Type::Int], Type::Int);
        let mid = p.declare_function("mid", vec![Type::Int], Type::Int);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);
        for (m, k) in [(tiny1, 3), (tiny2, 4)] {
            let mut fb = FunctionBuilder::new(&p, m);
            let x = fb.param(0);
            let kk = fb.const_int(k);
            let r = fb.iadd(x, kk);
            fb.ret(Some(r));
            let g = fb.finish();
            p.define_method(m, g);
        }
        let mut fb = FunctionBuilder::new(&p, mid);
        let x = fb.param(0);
        let a = fb.call_static(tiny1, vec![x]).unwrap();
        let b = fb.call_static(tiny2, vec![a]).unwrap();
        fb.ret(Some(b));
        let g = fb.finish();
        p.define_method(mid, g);
        let mut fb = FunctionBuilder::new(&p, root);
        let x = fb.param(0);
        let r = fb.call_static(mid, vec![x]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);

        let mut profiles = ProfileTable::new();
        for _ in 0..50 {
            profiles.record_invocation(root);
            profiles.record_callsite(incline_ir::CallSiteId {
                method: root,
                index: 0,
            });
            profiles.record_invocation(mid);
            profiles.record_callsite(incline_ir::CallSiteId {
                method: mid,
                index: 0,
            });
            profiles.record_callsite(incline_ir::CallSiteId {
                method: mid,
                index: 1,
            });
            profiles.record_invocation(tiny1);
            profiles.record_invocation(tiny2);
        }
        let clustered = IncrementalInliner::new()
            .compile(root, &cx(&p, &profiles))
            .unwrap();
        assert!(
            clustered.graph.callsites().is_empty(),
            "cluster inlines the whole chain"
        );
        let one = IncrementalInliner::with_config(PolicyConfig::one_by_one(0.005, 120.0))
            .compile(root, &cx(&p, &profiles))
            .unwrap();
        // 1-by-1 may or may not get everything, but the algorithm must
        // still produce a correct graph.
        verify_graph(&p, &one.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }
}
