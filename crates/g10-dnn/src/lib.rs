//! DNN workload substrate for the G10 reproduction.
//!
//! The G10 paper (MICRO '23) schedules tensor migrations for deep-learning
//! training workloads.  Its scheduler consumes, for one training iteration,
//! the *dataflow graph* of the model (which CUDA kernels run, in which order,
//! and which tensors each kernel reads and writes) together with per-kernel
//! execution times profiled on an NVIDIA A100.
//!
//! This crate rebuilds that input from scratch:
//!
//! * [`tensor`] — tensor identifiers, kinds (weights, activations, gradients,
//!   workspaces) and sizes.
//! * [`op`] — operator descriptors with analytic FLOP and byte counts.
//! * [`graph`] — the [`graph::DnnGraph`] dataflow graph: kernels in execution
//!   order with their input/output tensor sets.  Names and operand lists
//!   live in two per-graph arenas, so no kernel or tensor owns heap memory
//!   and building a graph costs a few amortised allocations.
//! * [`index`] — the shared [`index::GraphIndex`]: CSR tensor→use-site
//!   adjacency, per-tensor lifetimes, per-kernel working sets and the
//!   liveness curve, derived once per graph and cached.  It is the one
//!   source of the per-tensor and per-kernel facts behind Figure 2 of the
//!   paper (active vs. live footprint); the inactive periods of Figures
//!   3–4 are derived from it by `g10-core`'s vitality analysis.
//! * [`builder`] — a layer-level builder that records a forward pass and
//!   automatically derives the backward pass and optimizer step, mirroring
//!   how a framework such as PyTorch materialises a training iteration.
//!   It writes every name straight into the graph's name arena.
//! * [`models`] — the model zoo used by the paper: BERT, ViT, Inception-v3,
//!   ResNet-152 and SENet-154, parameterised by batch size (at most
//!   [`models::MAX_BATCH`] from outside the process).
//! * [`cost`] — an A100-like roofline cost model mapping operators to kernel
//!   durations.
//! * [`trace`] — [`trace::KernelTrace`]: the (kernel, duration) sequence the
//!   scheduler and the replay simulator consume, with optional noise
//!   injection for the profiling-error study (§7.6).
//!
//! # Example
//!
//! ```
//! use g10_dnn::models::{ModelKind, build_model};
//! use g10_dnn::cost::GpuCostModel;
//! use g10_dnn::trace::KernelTrace;
//!
//! let graph = build_model(ModelKind::ResNet152, 16);
//! let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
//! assert_eq!(trace.len(), graph.num_kernels());
//! assert!(trace.total_duration().as_nanos() > 0);
//! ```

pub mod builder;
pub mod cost;
pub mod error;
pub mod graph;
pub mod index;
pub mod models;
pub mod op;
pub mod shape;
pub mod tensor;
pub mod time;
pub mod trace;

pub use cost::GpuCostModel;
pub use error::GraphError;
pub use graph::{DnnGraph, Kernel, KernelId};
pub use index::GraphIndex;
pub use tensor::{TensorId, TensorInfo, TensorKind};
pub use time::Nanos;
pub use trace::KernelTrace;
