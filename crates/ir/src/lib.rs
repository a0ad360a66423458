#![warn(missing_docs)]

//! # incline-ir
//!
//! The IR substrate of the *incline* project — a reproduction of
//! “An Optimization-Driven Incremental Inline Substitution Algorithm for
//! Just-in-Time Compilers” (Prokopec et al., CGO 2019).
//!
//! The crate provides everything a JIT inliner needs from its compiler IR:
//!
//! * a small object-oriented program model ([`Program`]: classes with single
//!   inheritance, fields, virtual dispatch through interned selectors),
//! * an SSA-style graph IR with block parameters ([`Graph`], [`Op`]),
//! * a typed [`FunctionBuilder`],
//! * a structural/type/dominance [`verify`]-er,
//! * dominator and natural-loop analyses ([`dom`], [`loops`]),
//! * the inline-substitution primitive itself ([`inline::inline_call`]),
//! * a text format with printer and parser ([`mod@print`], [`parse`]).
//!
//! ```
//! use incline_ir::{Program, FunctionBuilder, Type};
//!
//! let mut p = Program::new();
//! let m = p.declare_function("inc", vec![Type::Int], Type::Int);
//! let mut fb = FunctionBuilder::new(&p, m);
//! let x = fb.param(0);
//! let one = fb.const_int(1);
//! let r = fb.iadd(x, one);
//! fb.ret(Some(r));
//! let body = fb.finish();
//! p.define_method(m, body);
//! assert_eq!(p.method(m).graph.size(), 4);
//! ```

pub mod builder;
pub mod dom;
pub mod dot;
pub mod eval;
pub mod graph;
pub mod ids;
pub mod inline;
pub mod loops;
pub mod parse;
pub mod print;
pub mod program;
pub mod rng;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use graph::{
    BinOp, CallInfo, CallTarget, CmpOp, DeoptReason, Graph, InstData, Op, StructuralHasher,
    Terminator, ValueDef,
};
pub use ids::{BlockId, CallSiteId, ClassId, FieldId, InstId, MethodId, SelectorId, ValueId};
pub use program::{Class, Field, Method, MethodKind, Program, Selector};
pub use rng::Rng64;
pub use types::{ElemType, RetType, Type};
