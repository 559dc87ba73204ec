//! # nvpg-obs — zero-cost-when-disabled observability
//!
//! One spine for everything the workspace previously reported through
//! one-off structs threaded by hand (`StepStats`, `RescueStats`, bench
//! JSON): hierarchical **spans**, an atomic **metrics registry**, a
//! JSONL **event log** with a checked-in schema, a per-run **manifest**,
//! and **profiling** renderers (self-time table, collapsed stacks).
//!
//! The paper's headline numbers are energy/latency *attributions*; this
//! crate makes the reproduction's own attributions inspectable — where
//! each Newton iteration, device evaluation and millisecond went — while
//! costing nothing when off.
//!
//! ## Off by default, and cheap when off
//!
//! Everything hinges on one relaxed atomic flag. With tracing disabled
//! (the default), [`span`](fn@span) returns an inert guard without
//! reading the clock, and [`Counter::add`] is a load-and-branch: no
//! allocation, no lock, no syscall — verified by an allocator-counting
//! integration test. Enable with [`enable`], typically from a
//! `--trace`/`--profile` CLI flag.
//!
//! ## Spans
//!
//! Spans nest through a thread-local parent pointer
//! (experiment → sequence → phase → solve). Worker pools propagate the
//! spawner's span across threads with [`with_parent`], so a figure's
//! solves attribute to that figure at any `--jobs` value. Each completed
//! span records wall-clock start/end offsets (from the process trace
//! epoch) and, on Linux, the thread's on-CPU nanoseconds.
//!
//! ## Metrics
//!
//! [`metrics::counters`] and [`metrics::gauges`] are a fixed registry of
//! `static` atomics — thread-safe sinks that aggregate correctly under
//! any worker count, since every thread adds into the same cell.
//! [`metrics::snapshot`] returns a deterministic ordered view.
//!
//! # Examples
//!
//! ```
//! nvpg_obs::reset_for_test();
//! nvpg_obs::enable();
//! {
//!     let _exp = nvpg_obs::span_labeled("experiment", "fig6a");
//!     let _solve = nvpg_obs::span_labeled("solve", "transient");
//!     nvpg_obs::metrics::counters::NEWTON_SOLVES.add(3);
//! }
//! let events = nvpg_obs::drain_events();
//! assert_eq!(events.len(), 2);
//! // Children drop (and therefore log) before their parents.
//! assert_eq!(events[0].name, "solve");
//! assert_eq!(events[1].name, "experiment");
//! assert_eq!(events[0].parent, events[1].id);
//! nvpg_obs::disable();
//! ```

pub mod event;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod schema;
pub mod span;

pub use event::{to_jsonl, SpanEvent};
pub use manifest::RunManifest;
pub use metrics::{Counter, Gauge, MetricsSnapshot};
pub use profile::{collapsed_stacks, render_self_time_table, self_time_table, SelfTime};
pub use span::{
    current_span, disable, drain_events, enable, enable_metrics, enabled, metrics_enabled,
    reset_for_test, span, span_labeled, with_parent, SpanGuard,
};
