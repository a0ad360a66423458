//! The IR graph: basic blocks with block parameters (SSA without phis).
//!
//! Every value is either a block parameter or the single result of an
//! instruction. Control-flow edges pass arguments to the target block's
//! parameters, which plays the role of phi nodes (as in Cranelift or MLIR).
//!
//! Graphs are plain data and `Clone`; the inliner clones callee graphs into
//! call-tree nodes, specializes them and finally transplants them into the
//! root method (see [`crate::inline`]).

use std::collections::HashMap;

use crate::ids::{BlockId, CallSiteId, ClassId, FieldId, InstId, MethodId, SelectorId, ValueId};
use crate::types::{ElemType, Type};

/// Integer and float binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (wrapping).
    IAdd,
    /// Integer subtraction (wrapping).
    ISub,
    /// Integer multiplication (wrapping).
    IMul,
    /// Integer division; traps on division by zero.
    IDiv,
    /// Integer remainder; traps on division by zero.
    IRem,
    /// Bitwise and.
    IAnd,
    /// Bitwise or.
    IOr,
    /// Bitwise xor.
    IXor,
    /// Shift left (modulo 64).
    IShl,
    /// Arithmetic shift right (modulo 64).
    IShr,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
}

impl BinOp {
    /// Whether the operator works on floats (otherwise ints).
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Whether the operator can trap at runtime.
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::IDiv | BinOp::IRem)
    }

    /// Whether `a op b == b op a`.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::IAdd
                | BinOp::IMul
                | BinOp::IAnd
                | BinOp::IOr
                | BinOp::IXor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }

    /// Result type of the operator.
    pub fn result_type(self) -> Type {
        if self.is_float() {
            Type::Float
        } else {
            Type::Int
        }
    }

    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::IAdd => "iadd",
            BinOp::ISub => "isub",
            BinOp::IMul => "imul",
            BinOp::IDiv => "idiv",
            BinOp::IRem => "irem",
            BinOp::IAnd => "iand",
            BinOp::IOr => "ior",
            BinOp::IXor => "ixor",
            BinOp::IShl => "ishl",
            BinOp::IShr => "ishr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }
}

/// Comparison operators producing a `bool`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Integer equality.
    IEq,
    /// Integer inequality.
    INe,
    /// Integer less-than.
    ILt,
    /// Integer less-or-equal.
    ILe,
    /// Integer greater-than.
    IGt,
    /// Integer greater-or-equal.
    IGe,
    /// Float equality.
    FEq,
    /// Float less-than.
    FLt,
    /// Float less-or-equal.
    FLe,
    /// Reference identity (objects, arrays, null).
    RefEq,
}

impl CmpOp {
    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::IEq => "ieq",
            CmpOp::INe => "ine",
            CmpOp::ILt => "ilt",
            CmpOp::ILe => "ile",
            CmpOp::IGt => "igt",
            CmpOp::IGe => "ige",
            CmpOp::FEq => "feq",
            CmpOp::FLt => "flt",
            CmpOp::FLe => "fle",
            CmpOp::RefEq => "refeq",
        }
    }

    /// Operand type expected on both sides.
    pub fn operand_kind(self) -> Option<Type> {
        match self {
            CmpOp::IEq | CmpOp::INe | CmpOp::ILt | CmpOp::ILe | CmpOp::IGt | CmpOp::IGe => {
                Some(Type::Int)
            }
            CmpOp::FEq | CmpOp::FLt | CmpOp::FLe => Some(Type::Float),
            CmpOp::RefEq => None, // any reference type
        }
    }
}

/// Dispatch target of a call instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// Direct call to a known method.
    Static(MethodId),
    /// Virtual dispatch on the dynamic class of `args[0]`.
    Virtual(SelectorId),
}

/// A call instruction's payload: target plus its stable profile key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CallInfo {
    /// Static or virtual target.
    pub target: CallTarget,
    /// Stable callsite identity (survives cloning and inlining).
    pub site: CallSiteId,
}

/// Instruction operations.
///
/// Operand arity/typing is documented per variant and enforced by
/// [`crate::verify`].
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Placeholder left behind by passes; never executed, never printed.
    Nop,
    /// Integer constant.
    ConstInt(i64),
    /// Float constant (stored as bits so `Op: Eq`-ish comparisons behave).
    ConstFloat(u64),
    /// Boolean constant.
    ConstBool(bool),
    /// Null constant of the given reference type.
    ConstNull(Type),
    /// Binary arithmetic: `args = [lhs, rhs]`.
    Bin(BinOp),
    /// Comparison: `args = [lhs, rhs]`, result `bool`.
    Cmp(CmpOp),
    /// Boolean negation: `args = [x]`.
    Not,
    /// Integer negation: `args = [x]`.
    INeg,
    /// Float negation: `args = [x]`.
    FNeg,
    /// Int → float conversion: `args = [x]`.
    IntToFloat,
    /// Float → int conversion (truncating): `args = [x]`.
    FloatToInt,
    /// Allocate an instance of the class; fields zero-initialized.
    New(ClassId),
    /// Field load: `args = [obj]`; traps on null.
    GetField(FieldId),
    /// Field store: `args = [obj, value]`; traps on null.
    SetField(FieldId),
    /// Allocate an array: `args = [len]`; traps on negative length.
    NewArray(ElemType),
    /// Array load: `args = [arr, index]`; traps on null/bounds.
    ArrayGet,
    /// Array store: `args = [arr, index, value]`; traps on null/bounds.
    ArraySet,
    /// Array length: `args = [arr]`; traps on null.
    ArrayLen,
    /// Call: `args` are the actual arguments (receiver first if virtual).
    Call(CallInfo),
    /// Dynamic type test: `args = [obj]`, result `bool`; null is not an
    /// instance of anything.
    InstanceOf(ClassId),
    /// Checked downcast: `args = [obj]`; traps if the object is not an
    /// instance (null passes through).
    Cast(ClassId),
    /// Output intrinsic: `args = [value]`; appends to the program output
    /// stream (observable side effect used by differential tests).
    Print,
}

impl Op {
    /// Whether the op writes memory or produces output.
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Op::SetField(_) | Op::ArraySet | Op::Call(_) | Op::Print
        )
    }

    /// Whether the op can trap at runtime (division, null deref, bounds,
    /// failed cast). `Call` is excluded; callee effects are theirs.
    pub fn can_trap(&self) -> bool {
        match self {
            Op::Bin(b) => b.can_trap(),
            Op::GetField(_)
            | Op::SetField(_)
            | Op::ArrayGet
            | Op::ArraySet
            | Op::ArrayLen
            | Op::Cast(_) => true,
            Op::NewArray(_) => true,
            _ => false,
        }
    }

    /// Whether the op reads mutable memory (fields or array slots).
    pub fn reads_memory(&self) -> bool {
        matches!(self, Op::GetField(_) | Op::ArrayGet)
    }

    /// Whether two executions with identical arguments yield identical
    /// results and effects — the candidate set for global value numbering.
    ///
    /// Memory reads are excluded (stores may intervene); allocations are
    /// excluded (distinct identities); side effects are excluded.
    pub fn is_value_numberable(&self) -> bool {
        match self {
            Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstBool(_) | Op::ConstNull(_) => true,
            Op::Bin(_) | Op::Cmp(_) | Op::Not | Op::INeg | Op::FNeg => true,
            // Array lengths are immutable, so `arraylen` numbers safely; the
            // dominating occurrence traps iff the dominated one would.
            Op::IntToFloat | Op::FloatToInt | Op::InstanceOf(_) | Op::ArrayLen => true,
            _ => false,
        }
    }

    /// Whether an unused result makes the instruction removable.
    pub fn is_removable_if_unused(&self) -> bool {
        !self.has_side_effect() && !self.can_trap() && !matches!(self, Op::Nop)
    }

    /// The callsite id if this is a call.
    pub fn call_site(&self) -> Option<CallSiteId> {
        match self {
            Op::Call(info) => Some(info.site),
            _ => None,
        }
    }
}

/// Where a value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th parameter of `block`.
    Param(BlockId, u32),
    /// The result of an instruction.
    Inst(InstId),
}

/// Type and definition of an SSA value.
#[derive(Clone, Debug)]
pub struct ValueData {
    /// Static type of the value.
    pub ty: Type,
    /// Defining entity.
    pub def: ValueDef,
}

/// An instruction: operation, operands and optional result value.
#[derive(Clone, Debug)]
pub struct InstData {
    /// The operation.
    pub op: Op,
    /// Operand values.
    pub args: Vec<ValueId>,
    /// Result value, if the operation produces one.
    pub result: Option<ValueId>,
}

/// Why a [`Terminator::Deopt`] uncommon trap was emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeoptReason {
    /// A typeswitch guard cascade fell through every speculated case: the
    /// receiver was not covered by the compile-time profile.
    UncoveredReceiver,
    /// Injected by the fault-injection harness.
    Injected,
}

impl DeoptReason {
    /// Stable lowercase label, used by the printer/parser and trace events.
    pub fn label(self) -> &'static str {
        match self {
            DeoptReason::UncoveredReceiver => "uncovered_receiver",
            DeoptReason::Injected => "injected",
        }
    }

    /// Parses the printer's label back into a reason.
    pub fn from_label(s: &str) -> Option<DeoptReason> {
        match s {
            "uncovered_receiver" => Some(DeoptReason::UncoveredReceiver),
            "injected" => Some(DeoptReason::Injected),
            _ => None,
        }
    }
}

impl std::fmt::Display for DeoptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Block terminators.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional jump passing `args` to the target's parameters.
    Jump(BlockId, Vec<ValueId>),
    /// Two-way branch on a boolean condition.
    Branch {
        /// Condition value (`bool`).
        cond: ValueId,
        /// Target and arguments when the condition is true.
        then_dest: (BlockId, Vec<ValueId>),
        /// Target and arguments when the condition is false.
        else_dest: (BlockId, Vec<ValueId>),
    },
    /// Return from the method, with a value unless the method is `void`.
    Return(Option<ValueId>),
    /// Uncommon trap: abandon this compiled activation and transfer it to
    /// the interpreter (paper §IV — a typeswitch fallback may be "a virtual
    /// call or a deoptimization"). Valid under any return type; only the
    /// compiler introduces it, source graphs never contain one.
    Deopt {
        /// Why the trap was emitted.
        reason: DeoptReason,
    },
    /// Marker for not-yet-terminated blocks; invalid in finished graphs.
    Unterminated,
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b, _) => vec![*b],
            Terminator::Branch {
                then_dest,
                else_dest,
                ..
            } => vec![then_dest.0, else_dest.0],
            Terminator::Return(_) | Terminator::Deopt { .. } | Terminator::Unterminated => vec![],
        }
    }

    /// Values used by this terminator.
    pub fn uses(&self) -> Vec<ValueId> {
        match self {
            Terminator::Jump(_, args) => args.clone(),
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => {
                let mut v = vec![*cond];
                v.extend_from_slice(&then_dest.1);
                v.extend_from_slice(&else_dest.1);
                v
            }
            Terminator::Return(Some(v)) => vec![*v],
            Terminator::Return(None) | Terminator::Deopt { .. } | Terminator::Unterminated => {
                vec![]
            }
        }
    }
}

/// A basic block: parameters, instruction list, terminator.
#[derive(Clone, Debug)]
pub struct BlockData {
    /// Parameter values of the block (the SSA phi replacement).
    pub params: Vec<ValueId>,
    /// Instructions in execution order.
    pub insts: Vec<InstId>,
    /// The terminator.
    pub term: Terminator,
}

/// An IR graph: the body of one method.
#[derive(Clone, Debug)]
pub struct Graph {
    values: Vec<ValueData>,
    insts: Vec<InstData>,
    blocks: Vec<BlockData>,
    entry: BlockId,
}

impl Default for Graph {
    fn default() -> Self {
        Self::empty()
    }
}

impl Graph {
    /// Creates a graph with a single empty, unterminated entry block.
    pub fn empty() -> Self {
        Graph {
            values: Vec::new(),
            insts: Vec::new(),
            blocks: vec![BlockData {
                params: Vec::new(),
                insts: Vec::new(),
                term: Terminator::Unterminated,
            }],
            entry: BlockId::new(0),
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Adds a new empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(BlockData {
            params: Vec::new(),
            insts: Vec::new(),
            term: Terminator::Unterminated,
        });
        id
    }

    /// Appends a parameter of type `ty` to `block` and returns its value.
    pub fn add_block_param(&mut self, block: BlockId, ty: Type) -> ValueId {
        let index = self.blocks[block.index()].params.len() as u32;
        let v = ValueId::new(self.values.len());
        self.values.push(ValueData {
            ty,
            def: ValueDef::Param(block, index),
        });
        self.blocks[block.index()].params.push(v);
        v
    }

    /// Creates an instruction (without inserting it into a block).
    ///
    /// If `result_ty` is `Some`, a fresh result value is allocated.
    pub fn create_inst(&mut self, op: Op, args: Vec<ValueId>, result_ty: Option<Type>) -> InstId {
        let id = InstId::new(self.insts.len());
        let result = result_ty.map(|ty| {
            let v = ValueId::new(self.values.len());
            self.values.push(ValueData {
                ty,
                def: ValueDef::Inst(id),
            });
            v
        });
        self.insts.push(InstData { op, args, result });
        id
    }

    /// Creates an instruction and appends it to `block`. Returns the
    /// instruction id and its result value (if any).
    pub fn append(
        &mut self,
        block: BlockId,
        op: Op,
        args: Vec<ValueId>,
        result_ty: Option<Type>,
    ) -> (InstId, Option<ValueId>) {
        let id = self.create_inst(op, args, result_ty);
        self.blocks[block.index()].insts.push(id);
        let result = self.insts[id.index()].result;
        (id, result)
    }

    /// Inserts an existing instruction at `pos` within `block`.
    pub fn insert_inst(&mut self, block: BlockId, pos: usize, inst: InstId) {
        self.blocks[block.index()].insts.insert(pos, inst);
    }

    /// Sets the terminator of `block`.
    pub fn set_terminator(&mut self, block: BlockId, term: Terminator) {
        self.blocks[block.index()].term = term;
    }

    /// Returns block data.
    pub fn block(&self, id: BlockId) -> &BlockData {
        &self.blocks[id.index()]
    }

    /// Mutable block data.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        &mut self.blocks[id.index()]
    }

    /// Returns instruction data.
    pub fn inst(&self, id: InstId) -> &InstData {
        &self.insts[id.index()]
    }

    /// Mutable instruction data.
    pub fn inst_mut(&mut self, id: InstId) -> &mut InstData {
        &mut self.insts[id.index()]
    }

    /// Returns value data.
    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.index()]
    }

    /// Static type of a value.
    pub fn value_type(&self, id: ValueId) -> Type {
        self.values[id.index()].ty
    }

    /// Narrows the recorded static type of a value (used by specialization).
    pub fn set_value_type(&mut self, id: ValueId, ty: Type) {
        self.values[id.index()].ty = ty;
    }

    /// Number of blocks ever created (including unreachable ones).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of values ever created.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Number of instructions ever created (including detached ones).
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Iterates over all block ids (including unreachable ones).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Blocks reachable from the entry, in depth-first preorder.
    pub fn reachable_blocks(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut order = Vec::new();
        let mut stack = vec![self.entry];
        seen[self.entry.index()] = true;
        while let Some(b) = stack.pop() {
            order.push(b);
            for s in self.blocks[b.index()].term.successors() {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        order
    }

    /// Predecessor map over reachable blocks.
    pub fn predecessors(&self) -> HashMap<BlockId, Vec<BlockId>> {
        let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for b in self.reachable_blocks() {
            preds.entry(b).or_default();
            for s in self.blocks[b.index()].term.successors() {
                preds.entry(s).or_default().push(b);
            }
        }
        preds
    }

    /// The paper's `|ir(n)|`: number of live IR nodes — block parameters,
    /// instructions and terminators of reachable blocks.
    pub fn size(&self) -> usize {
        self.reachable_blocks()
            .iter()
            .map(|&b| {
                let bd = &self.blocks[b.index()];
                bd.params.len() + bd.insts.len() + 1
            })
            .sum()
    }

    /// All call instructions in reachable blocks, in block order.
    pub fn callsites(&self) -> Vec<(BlockId, InstId)> {
        let mut out = Vec::new();
        for b in self.reachable_blocks() {
            for &i in &self.blocks[b.index()].insts {
                if matches!(self.insts[i.index()].op, Op::Call(_)) {
                    out.push((b, i));
                }
            }
        }
        out
    }

    /// Replaces every use of `old` with `new` in instruction operands and
    /// terminators. Returns the number of uses rewritten.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) -> usize {
        let mut n = 0;
        for inst in &mut self.insts {
            for a in &mut inst.args {
                if *a == old {
                    *a = new;
                    n += 1;
                }
            }
        }
        for block in &mut self.blocks {
            let term = &mut block.term;
            let rewrite = |list: &mut Vec<ValueId>, n: &mut usize| {
                for a in list {
                    if *a == old {
                        *a = new;
                        *n += 1;
                    }
                }
            };
            match term {
                Terminator::Jump(_, args) => rewrite(args, &mut n),
                Terminator::Branch {
                    cond,
                    then_dest,
                    else_dest,
                } => {
                    if *cond == old {
                        *cond = new;
                        n += 1;
                    }
                    rewrite(&mut then_dest.1, &mut n);
                    rewrite(&mut else_dest.1, &mut n);
                }
                Terminator::Return(Some(v)) if *v == old => {
                    *term = Terminator::Return(Some(new));
                    n += 1;
                }
                _ => {}
            }
        }
        n
    }

    /// Detaches `inst` from `block` and neutralizes it to [`Op::Nop`].
    ///
    /// The caller must have already replaced all uses of the result.
    pub fn remove_inst(&mut self, block: BlockId, inst: InstId) {
        let b = &mut self.blocks[block.index()];
        b.insts.retain(|&i| i != inst);
        let data = &mut self.insts[inst.index()];
        data.op = Op::Nop;
        data.args.clear();
    }

    /// Whether any reachable instruction or terminator uses `value`.
    pub fn has_uses(&self, value: ValueId) -> bool {
        for b in self.reachable_blocks() {
            for &i in &self.blocks[b.index()].insts {
                if self.insts[i.index()].args.contains(&value) {
                    return true;
                }
            }
            if self.blocks[b.index()].term.uses().contains(&value) {
                return true;
            }
        }
        false
    }

    /// If `value` is defined by a constant instruction, returns the op.
    pub fn const_op(&self, value: ValueId) -> Option<&Op> {
        match self.values[value.index()].def {
            ValueDef::Inst(i) => match &self.insts[i.index()].op {
                op
                @ (Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstBool(_) | Op::ConstNull(_)) => {
                    Some(op)
                }
                _ => None,
            },
            ValueDef::Param(..) => None,
        }
    }

    /// Constant integer value of `value`, if statically known.
    pub fn as_const_int(&self, value: ValueId) -> Option<i64> {
        match self.const_op(value)? {
            Op::ConstInt(k) => Some(*k),
            _ => None,
        }
    }

    /// Constant bool value of `value`, if statically known.
    pub fn as_const_bool(&self, value: ValueId) -> Option<bool> {
        match self.const_op(value)? {
            Op::ConstBool(k) => Some(*k),
            _ => None,
        }
    }

    /// Constant float value of `value`, if statically known.
    pub fn as_const_float(&self, value: ValueId) -> Option<f64> {
        match self.const_op(value)? {
            Op::ConstFloat(bits) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// Whether `value` is a null constant.
    pub fn is_const_null(&self, value: ValueId) -> bool {
        matches!(self.const_op(value), Some(Op::ConstNull(_)))
    }

    /// Rebuilds the graph keeping only reachable blocks and live entities,
    /// renumbering every id densely. Passes leave tombstones (detached
    /// instructions, unreachable blocks, dangling values) behind; compacting
    /// before installing a compiled graph shrinks the interpreter's
    /// register file and the code-size accounting to what actually runs.
    ///
    /// Note: instruction/value/block ids change; callers holding ids into
    /// the old graph (e.g. a call tree) must not use them afterwards.
    /// `CallSiteId`s stored inside call instructions are preserved.
    pub fn compacted(&self) -> Graph {
        let mut out = Graph::empty();
        let reachable = self.reachable_blocks();
        let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
        let mut value_map: HashMap<ValueId, ValueId> = HashMap::new();

        // Pass 1: block shells + params. The first reachable block is the
        // entry and maps onto the fresh graph's entry.
        for (i, &b) in reachable.iter().enumerate() {
            let nb = if i == 0 { out.entry() } else { out.add_block() };
            block_map.insert(b, nb);
            for &p in &self.block(b).params {
                let np = out.add_block_param(nb, self.value_type(p));
                value_map.insert(p, np);
            }
        }
        // Pass 2: instruction shells (fresh results; args later).
        let mut inst_map: HashMap<InstId, InstId> = HashMap::new();
        for &b in &reachable {
            let nb = block_map[&b];
            for &i in &self.block(b).insts {
                let data = self.inst(i);
                let result_ty = data.result.map(|r| self.value_type(r));
                let (ni, nres) = out.append(nb, data.op.clone(), Vec::new(), result_ty);
                inst_map.insert(i, ni);
                if let (Some(or), Some(nr)) = (data.result, nres) {
                    value_map.insert(or, nr);
                }
            }
        }
        // Pass 3: operands + terminators.
        let map_v = |value_map: &HashMap<ValueId, ValueId>, v: ValueId| -> ValueId {
            *value_map
                .get(&v)
                .unwrap_or_else(|| panic!("compaction found a use of dead value {v}"))
        };
        for &b in &reachable {
            for &i in &self.block(b).insts {
                let args: Vec<ValueId> = self
                    .inst(i)
                    .args
                    .iter()
                    .map(|&a| map_v(&value_map, a))
                    .collect();
                out.inst_mut(inst_map[&i]).args = args;
            }
            let term = match &self.block(b).term {
                Terminator::Jump(d, args) => Terminator::Jump(
                    block_map[d],
                    args.iter().map(|&a| map_v(&value_map, a)).collect(),
                ),
                Terminator::Branch {
                    cond,
                    then_dest,
                    else_dest,
                } => Terminator::Branch {
                    cond: map_v(&value_map, *cond),
                    then_dest: (
                        block_map[&then_dest.0],
                        then_dest.1.iter().map(|&a| map_v(&value_map, a)).collect(),
                    ),
                    else_dest: (
                        block_map[&else_dest.0],
                        else_dest.1.iter().map(|&a| map_v(&value_map, a)).collect(),
                    ),
                },
                Terminator::Return(v) => Terminator::Return(v.map(|v| map_v(&value_map, v))),
                Terminator::Deopt { reason } => Terminator::Deopt { reason: *reason },
                Terminator::Unterminated => Terminator::Unterminated,
            };
            out.set_terminator(block_map[&b], term);
        }
        out
    }

    /// FNV-1a 64 structural fingerprint of the reachable program text:
    /// block parameters (ids + types), instructions (op, operands, result),
    /// and terminators, walked in depth-first preorder. Two graphs that
    /// print identically fingerprint identically; the hash never allocates
    /// beyond the reachability scratch, unlike hashing the printed text.
    ///
    /// This is the `graph_fp` component of the deep-inlining trial-cache
    /// key (DESIGN.md §15).
    pub fn fingerprint(&self) -> u64 {
        let mut h = StructuralHasher::new();
        let reach = self.reachable_blocks();
        h.write_u64(reach.len() as u64);
        for &b in &reach {
            let bd = &self.blocks[b.index()];
            h.write_u64(b.index() as u64);
            h.write_u64(bd.params.len() as u64);
            for &p in &bd.params {
                h.write_u64(p.index() as u64);
                h.write_type(self.values[p.index()].ty);
            }
            h.write_u64(bd.insts.len() as u64);
            for &i in &bd.insts {
                let inst = &self.insts[i.index()];
                h.write_op(&inst.op);
                h.write_u64(inst.args.len() as u64);
                for &a in &inst.args {
                    h.write_u64(a.index() as u64);
                }
                match inst.result {
                    Some(r) => {
                        h.write_u64(1);
                        h.write_u64(r.index() as u64);
                        h.write_type(self.values[r.index()].ty);
                    }
                    None => h.write_u64(0),
                }
            }
            h.write_terminator(&bd.term);
        }
        h.finish()
    }
}

/// FNV-1a 64 accumulator with typed writers for IR entities — the shared
/// substrate of [`Graph::fingerprint`] and the inliner's trial-cache
/// argument hashing (which hashes `Op` constants and `Type` narrowings
/// without a graph in hand). [`StructuralHasher::write_bytes`] is the
/// workspace's one FNV-1a byte loop: snapshot checksums and the server's
/// answer digests hash through it too.
#[derive(Clone, Copy, Debug)]
pub struct StructuralHasher {
    state: u64,
}

impl Default for StructuralHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StructuralHasher {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        StructuralHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds raw bytes into the state, one FNV-1a step per byte.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds eight little-endian bytes into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The accumulated digest.
    pub fn finish(self) -> u64 {
        self.state
    }

    /// Folds a [`Type`] (tag + payload).
    pub fn write_type(&mut self, ty: Type) {
        match ty {
            Type::Int => self.write_u64(0),
            Type::Float => self.write_u64(1),
            Type::Bool => self.write_u64(2),
            Type::Object(c) => {
                self.write_u64(3);
                self.write_u64(c.index() as u64);
            }
            Type::Array(e) => {
                self.write_u64(4);
                self.write_elem(e);
            }
        }
    }

    fn write_elem(&mut self, e: ElemType) {
        match e {
            ElemType::Int => self.write_u64(0),
            ElemType::Float => self.write_u64(1),
            ElemType::Bool => self.write_u64(2),
            ElemType::Object(c) => {
                self.write_u64(3);
                self.write_u64(c.index() as u64);
            }
        }
    }

    /// Folds an [`Op`] (variant tag + payload; float constants by bits).
    pub fn write_op(&mut self, op: &Op) {
        match op {
            Op::Nop => self.write_u64(0),
            Op::ConstInt(k) => {
                self.write_u64(1);
                self.write_u64(*k as u64);
            }
            Op::ConstFloat(bits) => {
                self.write_u64(2);
                self.write_u64(*bits);
            }
            Op::ConstBool(b) => {
                self.write_u64(3);
                self.write_u64(*b as u64);
            }
            Op::ConstNull(t) => {
                self.write_u64(4);
                self.write_type(*t);
            }
            Op::Bin(b) => {
                self.write_u64(5);
                self.write_u64(*b as u64);
            }
            Op::Cmp(c) => {
                self.write_u64(6);
                self.write_u64(*c as u64);
            }
            Op::Not => self.write_u64(7),
            Op::INeg => self.write_u64(8),
            Op::FNeg => self.write_u64(9),
            Op::IntToFloat => self.write_u64(10),
            Op::FloatToInt => self.write_u64(11),
            Op::New(c) => {
                self.write_u64(12);
                self.write_u64(c.index() as u64);
            }
            Op::GetField(f) => {
                self.write_u64(13);
                self.write_u64(f.index() as u64);
            }
            Op::SetField(f) => {
                self.write_u64(14);
                self.write_u64(f.index() as u64);
            }
            Op::NewArray(e) => {
                self.write_u64(15);
                self.write_elem(*e);
            }
            Op::ArrayGet => self.write_u64(16),
            Op::ArraySet => self.write_u64(17),
            Op::ArrayLen => self.write_u64(18),
            Op::Call(info) => {
                self.write_u64(19);
                match info.target {
                    CallTarget::Static(m) => {
                        self.write_u64(0);
                        self.write_u64(m.index() as u64);
                    }
                    CallTarget::Virtual(s) => {
                        self.write_u64(1);
                        self.write_u64(s.index() as u64);
                    }
                }
                self.write_u64(info.site.method.index() as u64);
                self.write_u64(info.site.index as u64);
            }
            Op::InstanceOf(c) => {
                self.write_u64(20);
                self.write_u64(c.index() as u64);
            }
            Op::Cast(c) => {
                self.write_u64(21);
                self.write_u64(c.index() as u64);
            }
            Op::Print => self.write_u64(22),
        }
    }

    fn write_terminator(&mut self, term: &Terminator) {
        match term {
            Terminator::Jump(b, args) => {
                self.write_u64(0);
                self.write_u64(b.index() as u64);
                self.write_u64(args.len() as u64);
                for a in args {
                    self.write_u64(a.index() as u64);
                }
            }
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => {
                self.write_u64(1);
                self.write_u64(cond.index() as u64);
                for (b, args) in [then_dest, else_dest] {
                    self.write_u64(b.index() as u64);
                    self.write_u64(args.len() as u64);
                    for a in args {
                        self.write_u64(a.index() as u64);
                    }
                }
            }
            Terminator::Return(v) => {
                self.write_u64(2);
                match v {
                    Some(v) => self.write_u64(1 + v.index() as u64),
                    None => self.write_u64(0),
                }
            }
            Terminator::Deopt { reason } => {
                self.write_u64(3);
                self.write_u64(*reason as u64);
            }
            Terminator::Unterminated => self.write_u64(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(g: &mut Graph, b: BlockId, v: i64) -> ValueId {
        g.append(b, Op::ConstInt(v), vec![], Some(Type::Int))
            .1
            .unwrap()
    }

    #[test]
    fn build_straight_line() {
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 2);
        let b = k(&mut g, e, 3);
        let (_, sum) = g.append(e, Op::Bin(BinOp::IAdd), vec![a, b], Some(Type::Int));
        g.set_terminator(e, Terminator::Return(sum));
        assert_eq!(g.size(), 4); // 3 insts + 1 terminator
        assert_eq!(g.value_type(sum.unwrap()), Type::Int);
    }

    #[test]
    fn block_params_and_branches() {
        let mut g = Graph::empty();
        let e = g.entry();
        let p = g.add_block_param(e, Type::Bool);
        let t = g.add_block();
        let f = g.add_block();
        let j = g.add_block();
        let jp = g.add_block_param(j, Type::Int);
        let one = k(&mut g, t, 1);
        let two = k(&mut g, f, 2);
        g.set_terminator(
            e,
            Terminator::Branch {
                cond: p,
                then_dest: (t, vec![]),
                else_dest: (f, vec![]),
            },
        );
        g.set_terminator(t, Terminator::Jump(j, vec![one]));
        g.set_terminator(f, Terminator::Jump(j, vec![two]));
        g.set_terminator(j, Terminator::Return(Some(jp)));
        let reach = g.reachable_blocks();
        assert_eq!(reach.len(), 4);
        let preds = g.predecessors();
        assert_eq!(preds[&j].len(), 2);
        // entry param + 2 consts + 1 join param + 4 terminators
        assert_eq!(g.size(), 8);
    }

    #[test]
    fn replace_uses_rewrites_terms_and_args() {
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 1);
        let b = k(&mut g, e, 2);
        let (_, s) = g.append(e, Op::Bin(BinOp::IAdd), vec![a, a], Some(Type::Int));
        g.set_terminator(e, Terminator::Return(Some(a)));
        let n = g.replace_all_uses(a, b);
        assert_eq!(n, 3);
        assert_eq!(g.inst(InstId::new(2)).args, vec![b, b]);
        assert_eq!(g.block(e).term, Terminator::Return(Some(b)));
        let _ = s;
    }

    #[test]
    fn remove_inst_nops_out() {
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 1);
        g.set_terminator(e, Terminator::Return(None));
        let def = match g.value(a).def {
            ValueDef::Inst(i) => i,
            _ => unreachable!(),
        };
        assert!(!g.has_uses(a));
        g.remove_inst(e, def);
        assert_eq!(g.block(e).insts.len(), 0);
        assert_eq!(g.inst(def).op, Op::Nop);
    }

    #[test]
    fn const_queries() {
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 42);
        let (_, fl) = g.append(
            e,
            Op::ConstFloat(2.5f64.to_bits()),
            vec![],
            Some(Type::Float),
        );
        let (_, tr) = g.append(e, Op::ConstBool(true), vec![], Some(Type::Bool));
        assert_eq!(g.as_const_int(a), Some(42));
        assert_eq!(g.as_const_float(fl.unwrap()), Some(2.5));
        assert_eq!(g.as_const_bool(tr.unwrap()), Some(true));
        assert_eq!(g.as_const_int(fl.unwrap()), None);
    }

    #[test]
    fn size_ignores_unreachable() {
        let mut g = Graph::empty();
        let e = g.entry();
        g.set_terminator(e, Terminator::Return(None));
        let dead = g.add_block();
        k(&mut g, dead, 7);
        g.set_terminator(dead, Terminator::Return(None));
        assert_eq!(g.size(), 1);
    }

    #[test]
    fn op_classification() {
        assert!(Op::Print.has_side_effect());
        assert!(Op::Bin(BinOp::IDiv).can_trap());
        assert!(!Op::Bin(BinOp::IAdd).can_trap());
        assert!(Op::ConstInt(1).is_removable_if_unused());
        assert!(!Op::ArrayGet.is_removable_if_unused());
        assert!(Op::Bin(BinOp::IAdd).is_value_numberable());
        assert!(!Op::GetField(FieldId::new(0)).is_value_numberable());
        assert!(Op::GetField(FieldId::new(0)).reads_memory());
    }

    #[test]
    fn compaction_drops_garbage_and_preserves_shape() {
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 1);
        let b = k(&mut g, e, 2);
        let (_, sum) = g.append(e, Op::Bin(BinOp::IAdd), vec![a, b], Some(Type::Int));
        g.set_terminator(e, Terminator::Return(sum));
        // Garbage: a removed instruction, a dead block, a detached inst.
        let dead_inst = {
            let (i, r) = g.append(e, Op::ConstInt(9), vec![], Some(Type::Int));
            let _ = r;
            i
        };
        g.remove_inst(e, dead_inst);
        let dead_block = g.add_block();
        k(&mut g, dead_block, 7);
        g.set_terminator(dead_block, Terminator::Return(None));
        g.create_inst(Op::ConstInt(11), vec![], Some(Type::Int)); // detached

        let size_before = g.size();
        let c = g.compacted();
        assert_eq!(c.size(), size_before, "live size is preserved");
        assert!(c.value_count() < g.value_count(), "dead values dropped");
        assert!(c.inst_count() < g.inst_count(), "dead insts dropped");
        assert_eq!(c.block_count(), 1, "unreachable blocks dropped");
        // The computation is intact.
        let Terminator::Return(Some(v)) = c.block(c.entry()).term.clone() else {
            panic!()
        };
        let ValueDef::Inst(add) = c.value(v).def else {
            panic!()
        };
        assert!(matches!(c.inst(add).op, Op::Bin(BinOp::IAdd)));
    }

    #[test]
    fn compaction_keeps_loop_structure_and_params() {
        let mut g = Graph::empty();
        let e = g.entry();
        let n = g.add_block_param(e, Type::Int);
        let zero = k(&mut g, e, 0);
        let h = g.add_block();
        let hi = g.add_block_param(h, Type::Int);
        let body = g.add_block();
        let exit = g.add_block();
        g.set_terminator(e, Terminator::Jump(h, vec![zero]));
        let (_, c) = g.append(h, Op::Cmp(CmpOp::ILt), vec![hi, n], Some(Type::Bool));
        g.set_terminator(
            h,
            Terminator::Branch {
                cond: c.unwrap(),
                then_dest: (body, vec![]),
                else_dest: (exit, vec![]),
            },
        );
        let one = k(&mut g, body, 1);
        let (_, i2) = g.append(body, Op::Bin(BinOp::IAdd), vec![hi, one], Some(Type::Int));
        g.set_terminator(body, Terminator::Jump(h, vec![i2.unwrap()]));
        g.set_terminator(exit, Terminator::Return(Some(hi)));
        let c = g.compacted();
        assert_eq!(c.size(), g.size());
        assert_eq!(crate::loops::LoopForest::compute(&c).loops.len(), 1);
        assert_eq!(c.block(c.entry()).params.len(), 1);
    }

    #[test]
    fn fingerprint_is_structural() {
        let build = |k_val: i64| {
            let mut g = Graph::empty();
            let e = g.entry();
            let a = k(&mut g, e, k_val);
            let b = k(&mut g, e, 3);
            let (_, sum) = g.append(e, Op::Bin(BinOp::IAdd), vec![a, b], Some(Type::Int));
            g.set_terminator(e, Terminator::Return(sum));
            g
        };
        assert_eq!(build(2).fingerprint(), build(2).fingerprint());
        assert_ne!(build(2).fingerprint(), build(4).fingerprint());
        // Unreachable garbage does not perturb the fingerprint.
        let mut g = build(2);
        let dead = g.add_block();
        k(&mut g, dead, 99);
        g.set_terminator(dead, Terminator::Return(None));
        assert_eq!(g.fingerprint(), build(2).fingerprint());
    }

    #[test]
    fn callsites_listed_in_order() {
        let mut g = Graph::empty();
        let e = g.entry();
        let m = MethodId::new(0);
        let cs0 = CallSiteId {
            method: m,
            index: 0,
        };
        let cs1 = CallSiteId {
            method: m,
            index: 1,
        };
        g.append(
            e,
            Op::Call(CallInfo {
                target: CallTarget::Static(m),
                site: cs0,
            }),
            vec![],
            None,
        );
        g.append(
            e,
            Op::Call(CallInfo {
                target: CallTarget::Static(m),
                site: cs1,
            }),
            vec![],
            None,
        );
        g.set_terminator(e, Terminator::Return(None));
        let sites: Vec<_> = g
            .callsites()
            .iter()
            .map(|&(_, i)| g.inst(i).op.call_site().unwrap())
            .collect();
        assert_eq!(sites, vec![cs0, cs1]);
    }
}
