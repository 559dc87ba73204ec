//! Monte-Carlo cancellation correctness: a per-point deadline that fires
//! on one slow sample must leave every other sample's result byte-identical
//! to an undeadlined run, and the deterministic [`FaultKind::Stall`] fault
//! used to make a sample slow must itself be numerically inert and
//! jobs-invariant.
//!
//! The schedule below (seed `0x57A11`, rate `1e-4`, 4 samples) was chosen
//! so exactly sample 0 sees a stall; the schedule is a pure function of
//! the sample index ([`FaultPlan::for_point`]), so it holds at any worker
//! count and on every machine.

use std::time::Duration;

use nvpg_cells::design::CellDesign;
use nvpg_circuit::{FaultKind, FaultPlan};
use nvpg_core::variation::{run_variation_report, VariationSpec};
use nvpg_core::{BenchmarkParams, PointStatus};

fn tiny_spec() -> VariationSpec {
    VariationSpec {
        sigma_vth: 5e-3,
        sigma_tmr_rel: 0.02,
        sigma_jc_rel: 0.02,
        samples: 4,
        seed: 7,
    }
}

/// The deterministic stall schedule: fires once in sample 0, never in
/// samples 1–3.
fn stall_plan(pause: Duration) -> FaultPlan {
    FaultPlan::random(0x57A11, 1e-4, &[FaultKind::Stall(pause)])
}

/// A zero-duration stall burns no wall-clock and corrupts nothing: the
/// run completes with BETs bit-identical to a fault-free run, and the
/// fire schedule — hence the whole report — is identical at every worker
/// count. This is the jobs-invariance contract that lets CI inject real
/// stalls without perturbing physics.
#[test]
fn zero_stall_is_numerically_inert_and_jobs_invariant() {
    let base = CellDesign::table1();
    let spec = tiny_spec();
    let params = BenchmarkParams::fig7_default();

    let (clean, clean_rep) = run_variation_report(&base, &spec, &params, 0, None, None);
    assert!(clean_rep.all_ok(), "{}", clean_rep.render());

    let plan = stall_plan(Duration::ZERO);
    let (s1, r1) = run_variation_report(&base, &spec, &params, 1, Some(&plan), None);
    let (s4, r4) = run_variation_report(&base, &spec, &params, 4, Some(&plan), None);

    assert_eq!(s1, s4, "stall outcome depends on worker count");
    assert_eq!(r1, r4, "stall report depends on worker count");

    // The schedule fired where the doc comment says it does.
    let fires: Vec<u32> = r1
        .records
        .iter()
        .map(|r| r.rescue.injected_faults)
        .collect();
    assert_eq!(
        fires,
        vec![1, 0, 0, 0],
        "stall schedule moved — update the test docs"
    );

    // A stall is pure wall-clock: every sample still converges and every
    // BET is bit-identical to the fault-free run.
    assert!(
        r1.records.iter().all(|r| r.status.succeeded()),
        "{}",
        r1.render()
    );
    assert_eq!(clean.bets.len(), s1.bets.len());
    for (i, (a, b)) in clean.bets.iter().zip(&s1.bets).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "sample {i} BET perturbed by a stall"
        );
    }
}

/// The satellite acceptance test: one sample stalls past the per-point
/// deadline and settles as `Failed { taxonomy: "cancelled" }`; every
/// *other* sample's BET and report record is byte-identical to the
/// undeadlined run, and the engine counter accounts for exactly the
/// cancelled points.
#[test]
fn cancelled_point_leaves_every_other_point_byte_identical() {
    nvpg_obs::enable_metrics();
    let base = CellDesign::table1();
    let spec = tiny_spec();
    let params = BenchmarkParams::fig7_default();

    // Reference: no faults, no deadline.
    let (clean, clean_rep) = run_variation_report(&base, &spec, &params, 0, None, None);
    assert!(clean_rep.all_ok(), "{}", clean_rep.render());

    // Sample 0 sleeps 10 s mid-characterisation; its 4 s point deadline
    // expires during the sleep, so the first checkpoint after it cancels
    // the point. The deadline is generous against CI noise: clean samples
    // finish in well under a second even in debug builds.
    let before = nvpg_obs::metrics::counters::ENGINE_CANCELLED_POINTS.get();
    let (capped, capped_rep) = run_variation_report(
        &base,
        &spec,
        &params,
        0,
        Some(&stall_plan(Duration::from_secs(10))),
        Some(Duration::from_secs(4)),
    );

    // Sample 0 cancelled, with the deadline named as the cause.
    match &capped_rep.records[0].status {
        PointStatus::Failed { taxonomy, message } => {
            assert_eq!(taxonomy, "cancelled");
            assert!(message.contains("deadline exceeded"), "{message}");
        }
        other => panic!("sample 0 should have cancelled, got {other:?}"),
    }
    assert_eq!(capped.simulation_failures, 1);

    // Samples 1–3: status, rescue telemetry, and BETs all byte-identical
    // to the reference run — the cancelled point leaked nothing.
    for i in 1..spec.samples as usize {
        assert_eq!(
            capped_rep.records[i], clean_rep.records[i],
            "sample {i} record differs from the undeadlined run"
        );
    }
    assert_eq!(capped.bets.len(), clean.bets.len() - 1);
    for (i, (a, b)) in clean.bets[1..].iter().zip(&capped.bets).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "surviving sample {} BET differs from the undeadlined run",
            i + 1
        );
    }

    // engine.cancelled_points reconciles with the report.
    let cancelled = capped_rep
        .records
        .iter()
        .filter(|r| matches!(&r.status, PointStatus::Failed { taxonomy, .. } if taxonomy == "cancelled"))
        .count() as u64;
    assert_eq!(cancelled, 1);
    let after = nvpg_obs::metrics::counters::ENGINE_CANCELLED_POINTS.get();
    assert!(
        after - before >= cancelled,
        "engine.cancelled_points did not advance ({before} -> {after})"
    );
}
