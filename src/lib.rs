#![warn(missing_docs)]

//! # incline
//!
//! A full reproduction of **“An Optimization-Driven Incremental Inline
//! Substitution Algorithm for Just-in-Time Compilers”** (Prokopec,
//! Duboscq, Leopoldseder, Würthinger — CGO 2019) in Rust, including every
//! substrate the paper depends on: a graph IR with a verifier and parser
//! ([`ir`]), an optimizer ([`opt`]), runtime profiles ([`profile`]), a
//! tiered JIT VM with a deterministic cycle model ([`vm`]), the paper's
//! incremental inliner ([`core`]), the baseline inliners it is evaluated
//! against ([`baselines`]), and the benchmark suite ([`workloads`]).
//!
//! ```
//! use incline::prelude::*;
//!
//! // Take a paper benchmark, run it under the paper's inliner.
//! let w = incline::workloads::by_name("scalatest").unwrap();
//! let config = VmConfig { hotness_threshold: 2, ..VmConfig::default() };
//! let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
//! let out = vm.run(w.entry, vec![Value::Int(4)])?;
//! assert!(out.value.is_some());
//! # Ok::<(), incline::vm::ExecError>(())
//! ```

pub mod cli;

pub use incline_baselines as baselines;
pub use incline_bench as bench;
pub use incline_core as core;
pub use incline_ir as ir;
pub use incline_opt as opt;
pub use incline_profile as profile;
pub use incline_trace as trace;
pub use incline_vm as vm;
/// Warmup snapshots: persistent profile/compile state with deterministic
/// replay (see `incline_vm::snapshot`).
pub use incline_vm::snapshot;
pub use incline_workloads as workloads;

/// Commonly used items in one import.
pub mod prelude {
    pub use incline_baselines::{C2Inliner, GreedyInliner};
    pub use incline_core::typeswitch::FallbackMode;
    pub use incline_core::{IncrementalInliner, PolicyConfig};
    pub use incline_ir::{DeoptReason, FunctionBuilder, Graph, Program, Type};
    pub use incline_trace::{
        CollectingSink, CompileEvent, JsonlSink, NullSink, StderrSink, TraceSink,
    };
    pub use incline_vm::{
        BailoutCounters, BenchSpec, CacheStats, CompilationReport, CompileCx, CompileError,
        CompileFuel, CompileQueue, EvictionPolicy, FaultKind, FaultPlan, FileStore, Inliner,
        InstallPolicy, LatencyStats, Machine, MemoryStore, NoInline, QueueStats, ReplayMode,
        RunSession, ServerReport, ServerSession, ServerSpec, Snapshot, SnapshotIo, SnapshotStats,
        SnapshotStore, Speculation, TenantSpec, Value, VmConfig,
    };
    pub use incline_workloads::{all_benchmarks, by_name, extra_benchmarks, Suite, Workload};
}
