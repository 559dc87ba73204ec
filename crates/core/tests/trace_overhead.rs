//! Wall-clock gate for the tracing layer: traced runs of the NV-SRAM hold
//! transient stay within 2 % of untraced ones, and the trace they leave
//! is non-empty and schema-valid.
//!
//! The only test in its file, so no sibling test shares the CPU while it
//! is timed (and none flips the process-global tracing switch).

mod common;

use std::time::Instant;

use nvpg_obs::schema::validate_jsonl;

/// Relative overhead budget of the tracing layer.
const OVERHEAD_REL: f64 = 0.02;
/// Absolute slack absorbing scheduler and timer noise on small hosts; the
/// workload runs long enough that the relative term dominates on a quiet
/// one.
const OVERHEAD_ABS_S: f64 = 0.010;
/// Samples per side; the minimum keeps the comparison honest.
const RUNS: usize = 5;

/// One sample: three hold transients, each with its own DC solve, so
/// the span and counter traffic makes a real overhead measurable.
fn workload() {
    for _ in 0..3 {
        common::nvsram_hold_transient();
    }
}

/// Minimum wall-clock seconds over `RUNS` samples.
fn min_wall() -> f64 {
    (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            workload();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only gate: cargo test --release")]
fn tracing_stays_within_its_overhead_budget() {
    nvpg_obs::reset_for_test();
    // The warm-up keeps one-time costs (page faults, lazy statics) out of
    // both sides.
    workload();
    let untraced_s = min_wall();

    nvpg_obs::enable();
    let traced_s = min_wall();
    nvpg_obs::disable();
    let events = nvpg_obs::drain_events();
    let jsonl = nvpg_obs::to_jsonl(&events, &nvpg_obs::metrics::snapshot());

    assert!(
        traced_s <= untraced_s * (1.0 + OVERHEAD_REL) + OVERHEAD_ABS_S,
        "tracing overhead {:+.2} % exceeds 2 % (+10 ms slack): untraced {:.3} ms, traced {:.3} ms",
        (traced_s / untraced_s - 1.0) * 1e2,
        untraced_s * 1e3,
        traced_s * 1e3
    );
    let summary = validate_jsonl(&jsonl).expect("emitted trace is schema-valid");
    assert!(summary.spans > 0, "traced run recorded no spans");
    assert!(summary.counters > 0, "traced run recorded no counters");
}
