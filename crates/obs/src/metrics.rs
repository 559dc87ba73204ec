//! The metrics registry: a fixed set of `static` atomic counters and
//! gauges.
//!
//! Every sink is a process-global atomic, so workers on any number of
//! threads aggregate into the same cell and a `--jobs 4` run reports
//! exactly the totals of a `--jobs 1` run (verified by the
//! jobs-invariance test in `nvpg-core`). Adds are gated on
//! [`crate::enabled`]: with tracing off a counter add is a relaxed load
//! plus an untaken branch.
//!
//! Names follow `<subsystem>.<quantity>` — `solve.*` for the step
//! controller and Newton/LU telemetry (absorbing `StepStats`),
//! `rescue.*` for the convergence-rescue ladder (absorbing
//! `RescueStats`), `alloc.*` for allocator instrumentation.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a named counter (used by the static registry below).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` when the registry records (tracing or metrics-only
    /// mode); a load-and-branch otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::metrics_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last/maximum-value metric carrying an `f64` in atomic bits.
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a named gauge holding 0.0.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            bits: AtomicU64::new(0),
        }
    }

    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the gauge when the registry records.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::metrics_enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (compare-and-swap loop; NaN is
    /// ignored). The high-water-mark update used for `max_lte_ratio`.
    #[inline]
    pub fn max(&self, v: f64) {
        if !crate::metrics_enabled() || v.is_nan() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// The counter registry. Adding a counter here (and to `ALL_COUNTERS`)
/// is the whole registration ceremony.
pub mod counters {
    use super::Counter;

    /// Transient steps accepted into a trace.
    pub static ACCEPTED_STEPS: Counter = Counter::new("solve.accepted_steps");
    /// Steps rejected by the LTE controller.
    pub static REJECTED_LTE: Counter = Counter::new("solve.rejected_lte");
    /// Steps rejected because Newton failed to converge.
    pub static REJECTED_NEWTON: Counter = Counter::new("solve.rejected_newton");
    /// Newton iterations over every attempted solve.
    pub static NEWTON_ITERATIONS: Counter = Counter::new("solve.newton_iterations");
    /// Newton solves attempted.
    pub static NEWTON_SOLVES: Counter = Counter::new("solve.newton_solves");
    /// LU refactorisations actually performed.
    pub static LU_REFACTORIZATIONS: Counter = Counter::new("solve.lu_refactorizations");
    /// Newton iterations served by a stale LU (modified Newton).
    pub static LU_REUSES: Counter = Counter::new("solve.lu_reuses");
    /// Nonlinear-device model evaluations at Newton iterates.
    pub static DEVICE_EVALS: Counter = Counter::new("solve.device_evals");
    /// Deferred device-model evaluations at committed steps' voltages.
    pub static DEVICE_DEFERRED_EVALS: Counter = Counter::new("solve.device_deferred_evals");
    /// Device evaluations answered from the terminal-voltage bypass.
    pub static DEVICE_BYPASSES: Counter = Counter::new("solve.device_bypasses");
    /// Completed transient analyses.
    pub static TRANSIENT_RUNS: Counter = Counter::new("solve.transient_runs");
    /// Completed DC operating-point solves.
    pub static DC_SOLVES: Counter = Counter::new("solve.dc_solves");

    /// Transient steps rejected and retried smaller (rescue view).
    pub static RESCUE_REJECTED_STEPS: Counter = Counter::new("rescue.rejected_steps");
    /// Damped/backtracking Newton retries.
    pub static RESCUE_DAMPED_RETRIES: Counter = Counter::new("rescue.damped_retries");
    /// Gmin-ramp rescues attempted.
    pub static RESCUE_GMIN_RAMPS: Counter = Counter::new("rescue.gmin_ramps");
    /// Solves that only converged via a rescue rung.
    pub static RESCUE_RESCUED_SOLVES: Counter = Counter::new("rescue.rescued_solves");
    /// Faults injected by an active fault plan.
    pub static RESCUE_INJECTED_FAULTS: Counter = Counter::new("rescue.injected_faults");

    /// Heap bytes requested (fed by an instrumenting allocator where one
    /// is installed — the zero-alloc test harnesses; 0 otherwise).
    pub static ALLOC_BYTES: Counter = Counter::new("alloc.bytes");
    /// Heap allocations requested (same caveat as [`ALLOC_BYTES`]).
    pub static ALLOC_COUNT: Counter = Counter::new("alloc.count");

    /// HTTP requests handled by the `nvpg-serve` daemon (any status).
    pub static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
    /// Requests answered from the response cache or deduplicated onto an
    /// identical in-flight solve (single-flight followers).
    pub static SERVE_CACHE_HITS: Counter = Counter::new("serve.cache_hits");
    /// Connections rejected by admission control (queue full → 503).
    pub static SERVE_REJECTED: Counter = Counter::new("serve.rejected");
    /// Cacheable requests that actually invoked the solver/renderer
    /// (cache miss, single-flight leader).
    pub static SERVE_SOLVES: Counter = Counter::new("serve.solves");
    /// Cached responses evicted under capacity pressure.
    pub static SERVE_EVICTIONS: Counter = Counter::new("serve.evictions");
    /// Requests answered 504 because their deadline (server default or
    /// client `timeout_ms`, capped) expired before the solve finished.
    pub static SERVE_DEADLINE_EXCEEDED: Counter = Counter::new("serve.deadline_exceeded");
    /// Requests shed by the per-client token-bucket rate limiter (429).
    pub static SERVE_RATE_LIMITED: Counter = Counter::new("serve.rate_limited");
    /// In-flight requests whose client disconnected; the solve was
    /// cancelled instead of burning CPU for nobody.
    pub static SERVE_DISCONNECTS: Counter = Counter::new("serve.disconnects");
    /// Solves cancelled by the watchdog because their progress heartbeat
    /// stalled past the configured bound.
    pub static SERVE_WATCHDOG_FIRES: Counter = Counter::new("serve.watchdog_fires");

    /// Sweep/Monte-Carlo points that ended cancelled (deadline expiry or
    /// explicit cancellation) and were recorded fail-soft in the run
    /// report rather than killing the run.
    pub static ENGINE_CANCELLED_POINTS: Counter = Counter::new("engine.cancelled_points");

    /// Checks executed by the golden/differential validation harness
    /// (one per pass/fail verdict pushed into a `ValidationReport`).
    pub static VALIDATE_CHECKS: Counter = Counter::new("validate.checks");
    /// Signals whose deviation from the committed golden exceeded the
    /// golden's tolerance.
    pub static VALIDATE_DEVIATIONS: Counter = Counter::new("validate.deviations");
    /// Backend×schedule differential-matrix points executed.
    pub static VALIDATE_MATRIX_POINTS: Counter = Counter::new("validate.matrix_points");
    /// Signals compared against committed golden references.
    pub static VALIDATE_GOLDEN_SIGNALS: Counter = Counter::new("validate.golden_signals");
    /// ngspice cross-checks skipped because no `ngspice` binary was
    /// found on `PATH` (skips are counted, never silently dropped).
    pub static VALIDATE_NGSPICE_SKIPS: Counter = Counter::new("validate.ngspice_skips");
    /// Mutated hostile decks pushed through the parser by the
    /// validation harness's fuzz smoke loop.
    pub static VALIDATE_FUZZ_CASES: Counter = Counter::new("validate.fuzz_cases");
}

/// The gauge registry.
pub mod gauges {
    use super::Gauge;

    /// Largest normalised LTE ratio observed on an accepted step.
    pub static MAX_LTE_RATIO: Gauge = Gauge::new("solve.max_lte_ratio");

    /// Requests currently being handled by `nvpg-serve` workers.
    pub static SERVE_INFLIGHT: Gauge = Gauge::new("serve.inflight");
    /// Bytes currently held by the `nvpg-serve` response cache.
    pub static SERVE_CACHE_BYTES: Gauge = Gauge::new("serve.cache_bytes");
}

/// Every registered counter, in render order.
static ALL_COUNTERS: [&Counter; 35] = [
    &counters::ACCEPTED_STEPS,
    &counters::REJECTED_LTE,
    &counters::REJECTED_NEWTON,
    &counters::NEWTON_ITERATIONS,
    &counters::NEWTON_SOLVES,
    &counters::LU_REFACTORIZATIONS,
    &counters::LU_REUSES,
    &counters::DEVICE_EVALS,
    &counters::DEVICE_DEFERRED_EVALS,
    &counters::DEVICE_BYPASSES,
    &counters::TRANSIENT_RUNS,
    &counters::DC_SOLVES,
    &counters::RESCUE_REJECTED_STEPS,
    &counters::RESCUE_DAMPED_RETRIES,
    &counters::RESCUE_GMIN_RAMPS,
    &counters::RESCUE_RESCUED_SOLVES,
    &counters::RESCUE_INJECTED_FAULTS,
    &counters::ALLOC_BYTES,
    &counters::ALLOC_COUNT,
    &counters::SERVE_REQUESTS,
    &counters::SERVE_CACHE_HITS,
    &counters::SERVE_REJECTED,
    &counters::SERVE_SOLVES,
    &counters::SERVE_EVICTIONS,
    &counters::SERVE_DEADLINE_EXCEEDED,
    &counters::SERVE_RATE_LIMITED,
    &counters::SERVE_DISCONNECTS,
    &counters::SERVE_WATCHDOG_FIRES,
    &counters::ENGINE_CANCELLED_POINTS,
    &counters::VALIDATE_CHECKS,
    &counters::VALIDATE_DEVIATIONS,
    &counters::VALIDATE_MATRIX_POINTS,
    &counters::VALIDATE_GOLDEN_SIGNALS,
    &counters::VALIDATE_NGSPICE_SKIPS,
    &counters::VALIDATE_FUZZ_CASES,
];

/// Every registered gauge, in render order.
static ALL_GAUGES: [&Gauge; 3] = [
    &gauges::MAX_LTE_RATIO,
    &gauges::SERVE_INFLIGHT,
    &gauges::SERVE_CACHE_BYTES,
];

/// A point-in-time copy of the whole registry, in registry order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(&'static str, f64)>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// `true` when every metric is zero.
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|&(_, v)| v == 0) && self.gauges.iter().all(|&(_, v)| v == 0.0)
    }
}

/// Copies the current registry values (registry order, deterministic).
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: ALL_COUNTERS.iter().map(|c| (c.name(), c.get())).collect(),
        gauges: ALL_GAUGES.iter().map(|g| (g.name(), g.get())).collect(),
    }
}

/// Renders a snapshot in the line-oriented text exposition format served
/// by `nvpg-serve`'s `/metrics` endpoint: one `<name> <value>` pair per
/// line, counters first, then gauges, in registry order. Gauge values
/// print with up to six significant digits (integral values print bare).
///
/// # Examples
///
/// ```
/// let text = nvpg_obs::metrics::render_exposition(&nvpg_obs::metrics::snapshot());
/// assert!(text.lines().any(|l| l.starts_with("serve.requests ")));
/// ```
pub fn render_exposition(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        out.push_str(&format!("{name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            out.push_str(&format!("{name} {}\n", *v as i64));
        } else {
            out.push_str(&format!("{name} {v:.6e}\n"));
        }
    }
    out
}

/// Zeroes every counter and gauge.
pub fn reset() {
    for c in ALL_COUNTERS {
        c.reset();
    }
    for g in ALL_GAUGES {
        g.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::obs_lock;

    #[test]
    fn counters_gate_on_enabled() {
        let _l = obs_lock();
        crate::reset_for_test();
        counters::NEWTON_SOLVES.add(5);
        assert_eq!(counters::NEWTON_SOLVES.get(), 0, "disabled add is a no-op");
        crate::enable();
        counters::NEWTON_SOLVES.add(5);
        counters::NEWTON_SOLVES.add(2);
        assert_eq!(counters::NEWTON_SOLVES.get(), 7);
        crate::reset_for_test();
        assert_eq!(counters::NEWTON_SOLVES.get(), 0);
    }

    #[test]
    fn gauge_max_is_a_high_water_mark() {
        let _l = obs_lock();
        crate::reset_for_test();
        crate::enable();
        gauges::MAX_LTE_RATIO.max(0.4);
        gauges::MAX_LTE_RATIO.max(0.2);
        gauges::MAX_LTE_RATIO.max(f64::NAN);
        assert_eq!(gauges::MAX_LTE_RATIO.get(), 0.4);
        gauges::MAX_LTE_RATIO.set(0.1);
        assert_eq!(gauges::MAX_LTE_RATIO.get(), 0.1);
        crate::reset_for_test();
    }

    #[test]
    fn snapshot_is_registry_ordered_and_complete() {
        let _l = obs_lock();
        crate::reset_for_test();
        crate::enable();
        counters::DEVICE_EVALS.add(3);
        let snap = snapshot();
        assert_eq!(snap.counters.len(), ALL_COUNTERS.len());
        assert_eq!(snap.gauges.len(), ALL_GAUGES.len());
        assert_eq!(snap.counter("solve.device_evals"), Some(3));
        assert_eq!(snap.counter("no.such.metric"), None);
        assert!(!snap.is_zero());
        crate::reset_for_test();
        assert!(snapshot().is_zero());
    }

    #[test]
    fn metrics_only_mode_counts_without_span_events() {
        let _l = obs_lock();
        crate::reset_for_test();
        crate::enable_metrics();
        assert!(crate::metrics_enabled());
        assert!(!crate::enabled(), "span tracing must stay off");
        counters::SERVE_REQUESTS.add(2);
        gauges::SERVE_INFLIGHT.set(1.0);
        assert_eq!(counters::SERVE_REQUESTS.get(), 2);
        assert_eq!(gauges::SERVE_INFLIGHT.get(), 1.0);
        // Spans stay inert: no events buffered while metrics-only.
        let g = crate::span_labeled("solve", "noop");
        assert_eq!(g.id(), 0);
        drop(g);
        assert!(crate::drain_events().is_empty());
        crate::reset_for_test();
        assert!(!crate::metrics_enabled());
        assert_eq!(counters::SERVE_REQUESTS.get(), 0);
    }

    #[test]
    fn exposition_renders_every_metric_once() {
        let _l = obs_lock();
        crate::reset_for_test();
        crate::enable_metrics();
        counters::SERVE_REQUESTS.add(7);
        gauges::SERVE_INFLIGHT.set(3.0);
        gauges::MAX_LTE_RATIO.set(0.25);
        let text = render_exposition(&snapshot());
        assert_eq!(
            text.lines().count(),
            ALL_COUNTERS.len() + ALL_GAUGES.len(),
            "one line per metric"
        );
        assert!(text.contains("serve.requests 7\n"));
        assert!(text.contains("serve.inflight 3\n"));
        assert!(text.contains("solve.max_lte_ratio 2.500000e-1\n"), "{text}");
        // Every line re-parses as `<name> <value>`.
        for line in text.lines() {
            let mut it = line.split_whitespace();
            let name = it.next().unwrap();
            assert!(name.contains('.'), "registry name `{name}`");
            it.next().unwrap().parse::<f64>().expect("numeric value");
            assert_eq!(it.next(), None);
        }
        crate::reset_for_test();
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let _l = obs_lock();
        crate::reset_for_test();
        crate::enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counters::DEVICE_BYPASSES.add(1);
                    }
                });
            }
        });
        assert_eq!(counters::DEVICE_BYPASSES.get(), 4000);
        crate::reset_for_test();
    }
}
