//! Fault-injection smoke tests: drive every [`CircuitError`] variant on
//! purpose and check the convergence-rescue ladder both rescues what it
//! can and reports what it cannot.
//!
//! Faults are injected with [`FaultPlan`]s scoped via [`with_fault_plan`],
//! so each test corrupts exactly the Newton solves it names — the circuit
//! under test is always a healthy RC/divider network.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nvpg_circuit::dc::{operating_point, operating_point_report, DcOptions};
use nvpg_circuit::transient::{transient, TransientOptions};
use nvpg_circuit::{
    with_fault_plan, with_fault_plan_logged, Circuit, CircuitError, FaultKind, FaultPlan,
    SolverChoice, Waveform,
};
use nvpg_numeric::newton::NewtonOptions;

/// A healthy resistive divider: v(mid) = 0.5 V.
fn divider() -> Circuit {
    let mut ckt = Circuit::new();
    let top = ckt.node("top");
    let mid = ckt.node("mid");
    ckt.vsource("v1", top, Circuit::GROUND, 1.0).unwrap();
    ckt.resistor("r1", top, mid, 1e3).unwrap();
    ckt.resistor("r2", mid, Circuit::GROUND, 1e3).unwrap();
    ckt
}

/// A healthy RC low-pass driven by a 0→1 V step; τ = 1 ns.
fn rc_circuit() -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("vin");
    let out = ckt.node("out");
    ckt.vsource(
        "v1",
        vin,
        Circuit::GROUND,
        Waveform::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]),
    )
    .unwrap();
    ckt.resistor("r1", vin, out, 1e3).unwrap();
    ckt.capacitor("c1", out, Circuit::GROUND, 1e-12).unwrap();
    ckt
}

fn mid_voltage(ckt: &mut Circuit) -> f64 {
    let sol = operating_point(ckt, &DcOptions::default()).unwrap();
    let mid = ckt.find_node("mid").unwrap();
    sol.voltage(mid)
}

// ---------------------------------------------------------------------
// Construction-time errors (no faults needed).
// ---------------------------------------------------------------------

#[test]
fn invalid_value_on_nonpositive_resistor() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let err = ckt.resistor("r1", a, Circuit::GROUND, -5.0).unwrap_err();
    assert!(matches!(err, CircuitError::InvalidValue { ref element, .. } if element == "r1"));
    assert_eq!(err.taxonomy(), "invalid_value");
}

#[test]
fn duplicate_name_rejected() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.resistor("r1", a, Circuit::GROUND, 1e3).unwrap();
    let err = ckt.resistor("r1", a, Circuit::GROUND, 2e3).unwrap_err();
    assert!(matches!(err, CircuitError::DuplicateName { ref name } if name == "r1"));
    assert_eq!(err.taxonomy(), "duplicate_name");
}

#[test]
fn unknown_source_rejected() {
    let mut ckt = divider();
    let err = ckt.set_source("nope", 2.0).unwrap_err();
    assert!(matches!(err, CircuitError::UnknownSource { ref name } if name == "nope"));
    assert_eq!(err.taxonomy(), "unknown_source");
}

// ---------------------------------------------------------------------
// Option validation.
// ---------------------------------------------------------------------

#[test]
fn invalid_newton_options_rejected_at_dc_entry() {
    let mut ckt = divider();
    let opts = DcOptions {
        newton: NewtonOptions {
            reltol: -1.0,
            ..NewtonOptions::default()
        },
        ..DcOptions::default()
    };
    let err = operating_point(&mut ckt, &opts).unwrap_err();
    assert!(
        matches!(err, CircuitError::InvalidOptions { field, .. } if field == "reltol"),
        "{err}"
    );
    assert_eq!(err.taxonomy(), "invalid_options");
}

#[test]
fn inverted_step_bounds_rejected_at_transient_entry() {
    let mut ckt = rc_circuit();
    let init = operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let opts = TransientOptions {
        dt_min: 1e-9,
        dt_max: 1e-12,
        ..TransientOptions::to(5e-9)
    };
    let err = transient(&mut ckt, &opts, &init).unwrap_err();
    assert!(
        matches!(err, CircuitError::InvalidOptions { field, .. } if field == "dt_min"),
        "{err}"
    );
}

#[test]
fn nonfinite_t_stop_rejected() {
    let opts = TransientOptions {
        t_stop: f64::NAN,
        ..TransientOptions::default()
    };
    let err = opts.validate().unwrap_err();
    assert!(matches!(err, CircuitError::InvalidOptions { field, .. } if field == "t_stop"));
}

#[test]
fn zero_step_budget_rejected() {
    let opts = TransientOptions {
        max_steps: 0,
        ..TransientOptions::default()
    };
    let err = opts.validate().unwrap_err();
    assert!(matches!(err, CircuitError::InvalidOptions { field, .. } if field == "max_steps"));
}

#[test]
fn step_budget_exhausted_on_tiny_cap() {
    let mut ckt = rc_circuit();
    let init = operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let opts = TransientOptions {
        max_steps: 3,
        ..TransientOptions::to(5e-9)
    };
    let err = transient(&mut ckt, &opts, &init).unwrap_err();
    assert!(
        matches!(err, CircuitError::StepBudgetExhausted { steps: 3, .. }),
        "{err}"
    );
    assert_eq!(err.taxonomy(), "step_budget_exhausted");
}

// ---------------------------------------------------------------------
// Injected solver faults the ladder cannot fix: every runtime variant.
// ---------------------------------------------------------------------

#[test]
fn persistent_reject_exhausts_dc_ladder() {
    let mut ckt = divider();
    let err = with_fault_plan(&FaultPlan::always(FaultKind::RejectStep), || {
        operating_point(&mut ckt, &DcOptions::default())
    })
    .unwrap_err();
    assert!(
        matches!(err, CircuitError::DcNonConvergence { ref detail } if detail.contains("rescue ladder")),
        "{err}"
    );
    assert_eq!(err.taxonomy(), "dc_nonconvergence");
}

#[test]
fn persistent_nan_residual_is_nonfinite_dc() {
    let mut ckt = divider();
    let opts = DcOptions {
        gmin_stepping: false,
        source_stepping: false,
        ..DcOptions::default()
    };
    let err = with_fault_plan(&FaultPlan::always(FaultKind::NanResidual), || {
        operating_point(&mut ckt, &opts)
    })
    .unwrap_err();
    assert!(
        matches!(err, CircuitError::NonFiniteSolution { analysis: "dc", .. }),
        "{err}"
    );
    assert_eq!(err.taxonomy(), "nonfinite_solution");
}

#[test]
fn persistent_singular_matrix_in_transient() {
    let mut ckt = rc_circuit();
    let init = operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let opts = TransientOptions::to(5e-9);
    let err = with_fault_plan(&FaultPlan::always(FaultKind::SingularMatrix), || {
        transient(&mut ckt, &opts, &init)
    })
    .unwrap_err();
    assert!(
        matches!(err, CircuitError::SingularMatrix { ref detail } if detail.contains("rescue ladder")),
        "{err}"
    );
    assert_eq!(err.taxonomy(), "singular_matrix");
}

/// Both linear-solver backends must surface the same singular-matrix
/// diagnostics: the rescue-ladder telemetry and the offending pivot
/// column with its unknown name, whichever backend detected it.
#[test]
fn singular_matrix_diagnostics_match_across_solver_backends() {
    for solver in [SolverChoice::Dense, SolverChoice::Sparse] {
        let mut ckt = rc_circuit();
        let init = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let opts = TransientOptions {
            solver,
            ..TransientOptions::to(5e-9)
        };
        let err = with_fault_plan(&FaultPlan::always(FaultKind::SingularMatrix), || {
            transient(&mut ckt, &opts, &init)
        })
        .unwrap_err();
        match err {
            CircuitError::SingularMatrix { ref detail } => {
                assert!(detail.contains("rescue ladder"), "{solver}: {detail}");
                assert!(detail.contains("pivot column"), "{solver}: {detail}");
            }
            ref other => panic!("{solver}: expected SingularMatrix, got {other:?}"),
        }
        assert_eq!(err.taxonomy(), "singular_matrix");
    }
}

#[test]
fn persistent_nan_residual_is_nonfinite_transient() {
    let mut ckt = rc_circuit();
    let init = operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let opts = TransientOptions::to(5e-9);
    let err = with_fault_plan(&FaultPlan::always(FaultKind::NanResidual), || {
        transient(&mut ckt, &opts, &init)
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            CircuitError::NonFiniteSolution {
                analysis: "transient",
                ..
            }
        ),
        "{err}"
    );
}

/// The enriched non-convergence diagnostic names the worst unknown and
/// carries the last residual norm.
#[test]
fn transient_nonconvergence_names_worst_unknown() {
    let mut ckt = rc_circuit();
    let init = operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let opts = TransientOptions::to(5e-9);
    let err = with_fault_plan(&FaultPlan::always(FaultKind::RejectStep), || {
        transient(&mut ckt, &opts, &init)
    })
    .unwrap_err();
    match &err {
        CircuitError::TransientNonConvergence {
            time,
            worst_unknown,
            residual,
        } => {
            assert!(*time > 0.0, "{err}");
            assert!(
                worst_unknown.starts_with("v(") || worst_unknown.starts_with("i("),
                "worst unknown should be a named node or branch: {worst_unknown}"
            );
            assert!(!residual.is_nan(), "{err}");
        }
        other => panic!("expected TransientNonConvergence, got {other:?}"),
    }
    let text = err.to_string();
    assert!(text.contains("v(") || text.contains("i("), "{text}");
}

#[test]
fn panic_fault_unwinds_with_marker() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        with_fault_plan(&FaultPlan::always(FaultKind::Panic), || {
            let mut ckt = divider();
            operating_point(&mut ckt, &DcOptions::default())
        })
    }));
    let payload = result.unwrap_err();
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(msg.contains("injected fault"), "panic message: {msg}");
    // The thread-local plan was restored by the scope guard: a fresh
    // solve on this thread is fault-free.
    let mut ckt = divider();
    assert!(operating_point(&mut ckt, &DcOptions::default()).is_ok());
}

// ---------------------------------------------------------------------
// Faults the rescue ladder absorbs, with telemetry.
// ---------------------------------------------------------------------

#[test]
fn clean_solve_reports_clean_stats() {
    let mut ckt = divider();
    let (sol, stats) = operating_point_report(&mut ckt, &DcOptions::default()).unwrap();
    let mid = ckt.find_node("mid").unwrap();
    assert!((sol.voltage(mid) - 0.5).abs() < 1e-9);
    assert!(!stats.any(), "healthy circuit took rescue rungs: {stats}");
    assert_eq!(format!("{stats}"), "clean");
}

#[test]
fn damped_retry_rescues_single_dc_fault() {
    let expected = mid_voltage(&mut divider());
    let mut ckt = divider();
    let plan = FaultPlan::at_solves(FaultKind::NanResidual, &[0]);
    let (res, log) = with_fault_plan_logged(&plan, || {
        operating_point_report(&mut ckt, &DcOptions::default())
    });
    let (sol, stats) = res.unwrap();
    let mid = ckt.find_node("mid").unwrap();
    assert!((sol.voltage(mid) - expected).abs() < 1e-9);
    assert_eq!(log, vec![(0, FaultKind::NanResidual)]);
    assert_eq!(stats.injected_faults, 1);
    assert_eq!(stats.damped_retries, 1);
    assert_eq!(stats.rescued_solves, 1);
    assert_eq!(stats.gmin_ramps, 0);
}

#[test]
fn gmin_ramp_rescues_double_dc_fault() {
    let expected = mid_voltage(&mut divider());
    let mut ckt = divider();
    // Corrupt plain Newton *and* the damped retry: rung 3 must step in.
    let plan = FaultPlan::at_solves(FaultKind::SingularMatrix, &[0, 1]);
    let (sol, stats) = with_fault_plan(&plan, || {
        operating_point_report(&mut ckt, &DcOptions::default())
    })
    .unwrap();
    let mid = ckt.find_node("mid").unwrap();
    assert!((sol.voltage(mid) - expected).abs() < 1e-9);
    assert_eq!(stats.injected_faults, 2);
    assert_eq!(stats.damped_retries, 1);
    assert_eq!(stats.gmin_ramps, 1);
    assert_eq!(stats.rescued_solves, 1);
}

fn final_out_voltage(res: &nvpg_circuit::transient::TransientResult, ckt: &Circuit) -> f64 {
    res.final_state.voltage(ckt.find_node("out").unwrap())
}

#[test]
fn step_shrink_rescues_transient_reject() {
    let opts = TransientOptions::to(5e-9);
    let mut clean_ckt = rc_circuit();
    let init = operating_point(&mut clean_ckt, &DcOptions::default()).unwrap();
    let clean = transient(&mut clean_ckt, &opts, &init).unwrap();
    assert!(!clean.rescue.any(), "{}", clean.rescue);

    let mut ckt = rc_circuit();
    let plan = FaultPlan::at_solves(FaultKind::RejectStep, &[3]);
    let res = with_fault_plan(&plan, || transient(&mut ckt, &opts, &init)).unwrap();
    assert_eq!(res.rescue.injected_faults, 1);
    assert_eq!(res.rescue.rejected_steps, 1);
    // Shrinking the step is below the ladder: no ladder rung counted.
    assert_eq!(res.rescue.damped_retries, 0);
    // v(out) after 5τ ≈ 1 − e⁻⁵; the re-stepped trajectory must agree.
    let v = final_out_voltage(&res, &ckt);
    assert!(
        (v - final_out_voltage(&clean, &clean_ckt)).abs() < 1e-6,
        "faulted {v} vs clean {}",
        final_out_voltage(&clean, &clean_ckt)
    );
}

/// With `dt` pinned (dt_min = dt_init = dt_max) a rejected step cannot
/// shrink, so the full ladder engages at the floor.
fn pinned_opts() -> TransientOptions {
    let dt = 12.5e-12;
    TransientOptions {
        dt_max: dt,
        dt_min: dt,
        dt_init: dt,
        ..TransientOptions::to(5e-9)
    }
}

#[test]
fn damped_retry_rescues_transient_at_floor() {
    let mut ckt = rc_circuit();
    let init = operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let plan = FaultPlan::at_solves(FaultKind::RejectStep, &[5]);
    let res = with_fault_plan(&plan, || transient(&mut ckt, &pinned_opts(), &init)).unwrap();
    assert_eq!(res.rescue.rejected_steps, 1);
    assert_eq!(res.rescue.damped_retries, 1);
    assert_eq!(res.rescue.gmin_ramps, 0);
    assert_eq!(res.rescue.rescued_solves, 1);
    let v = final_out_voltage(&res, &ckt);
    assert!((v - (1.0 - (-5.0f64).exp())).abs() < 2e-2, "{v}");
}

#[test]
fn gmin_ramp_rescues_transient_at_floor() {
    let mut ckt = rc_circuit();
    let init = operating_point(&mut ckt, &DcOptions::default()).unwrap();
    // Kill the solve and the damped retry; the gmin ramp runs clean.
    let plan = FaultPlan::at_solves(FaultKind::RejectStep, &[5, 6]);
    let res = with_fault_plan(&plan, || transient(&mut ckt, &pinned_opts(), &init)).unwrap();
    assert_eq!(res.rescue.damped_retries, 1);
    assert_eq!(res.rescue.gmin_ramps, 1);
    assert_eq!(res.rescue.rescued_solves, 1);
}

// ---------------------------------------------------------------------
// Determinism of the injection schedule itself.
// ---------------------------------------------------------------------

#[test]
fn random_plan_schedule_is_a_pure_function() {
    let plan = FaultPlan::random(42, 0.3, &FaultKind::ALL);
    let a: Vec<_> = (0..200).map(|s| plan.action_at(s)).collect();
    let b: Vec<_> = (0..200).map(|s| plan.action_at(s)).collect();
    assert_eq!(a, b);
    let fired = a.iter().filter(|f| f.is_some()).count();
    assert!(fired > 20 && fired < 160, "rate 0.3 fired {fired}/200");
    // Re-keying per point changes the schedule but stays deterministic.
    let p1 = plan.for_point(1);
    let c: Vec<_> = (0..200).map(|s| p1.action_at(s)).collect();
    assert_ne!(a, c);
    assert_eq!(
        c,
        (0..200)
            .map(|s| plan.for_point(1).action_at(s))
            .collect::<Vec<_>>()
    );
}
