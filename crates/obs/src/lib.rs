//! # lrgcn-obs — zero-dependency observability for the LayerGCN workspace
//!
//! Production GCN training systems (PinSage-scale and up) treat metrics and
//! structured run logs as table stakes; this crate gives the workspace the
//! same discipline without pulling in a single external dependency.
//!
//! Three layers, from cheapest to richest:
//!
//! 1. **[`registry`]** — a fixed global registry of atomic
//!    [counters](registry::Counter) (kernel invocations, element counts),
//!    [gauges](registry::Gauge) (current/peak resident matrix bytes) and
//!    [wall-clock histograms](registry::Hist). Recording is one relaxed
//!    atomic RMW — the instrumentation woven through the tensor/graph/eval
//!    hot paths costs nanoseconds per *kernel call* (never per element), so
//!    it is always on.
//! 2. **[`timer`]** — RAII scoped timers feeding the histograms. Used at
//!    coarse granularity only (per epoch phase, per CSR build, per dropout
//!    resample, per evaluation round).
//! 3. **[`sink`]** — an optional JSONL event sink (`--log-json <path>` on
//!    the CLI, or the `LRGCN_LOG_JSON` environment variable), owned by the
//!    thread that installed it. When none is installed,
//!    [`sink::enabled`] is a single thread-local load and event
//!    construction is skipped entirely; when installed, the
//!    trainer emits one structured record per epoch, a model-health
//!    [`diag`] record per validated epoch, and a run summary (see
//!    [`event`] for the schema).
//! 4. **[`trace`]** — optional hierarchical span tracing (`--trace <path>`
//!    on the CLI, or `LRGCN_TRACE`), writing the Chrome `trace_event`
//!    JSON-array format loadable in Perfetto / `chrome://tracing`. Span
//!    sites follow the same suppressed-fast-path contract as the sink.
//! 5. **[`window`]** — lock-free rolling-window aggregation for serving:
//!    rings of per-second log2-ns histogram and counter slices yielding
//!    windowed p50/p95/p99, request rate and error ratio over 10s/60s/300s,
//!    plus a (route × status class × read path) labeled serving registry
//!    with a compile-time cardinality bound.
//!
//! ## Overhead contract
//!
//! With no sink installed the only costs are: one relaxed `fetch_add` per
//! instrumented kernel call, two `Instant::now` calls per scoped timer, one
//! thread-local load per suppressed event, and one atomic load per suppressed
//! trace span. The guard tests in `tests/overhead.rs` pin these costs;
//! `crates/train` additionally checks that the per-epoch instrumentation
//! budget stays under 5% of epoch wall time.
//!
//! ## Example
//!
//! ```
//! use lrgcn_obs::{registry, timer};
//!
//! registry::add(registry::Counter::MatmulCalls, 1);
//! {
//!     let _t = timer::scoped(registry::Hist::CsrBuild);
//!     // ... timed work ...
//! }
//! let snap = registry::snapshot();
//! assert!(snap.counter(registry::Counter::MatmulCalls) >= 1);
//! ```

pub mod diag;
pub mod event;
pub mod json;
pub mod registry;
pub mod sink;
pub mod timer;
pub mod trace;
pub mod window;

pub use registry::{Counter, Gauge, Hist};
pub use timer::scoped;
