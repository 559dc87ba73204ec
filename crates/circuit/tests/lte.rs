//! Behavioural tests of the local-truncation-error step controller
//! against the analytic RC step response `v(t) = 1 − e^(−t/RC)`.
//!
//! Two properties pin the design down:
//!
//! * the LTE *estimate* is second order in the step — halving a fixed dt
//!   quarters the reported `max_lte_ratio`;
//! * through quiescent intervals the controller takes an order of
//!   magnitude fewer steps than the fixed step grid that reaches the same
//!   accuracy.

use nvpg_circuit::dc::operating_point;
use nvpg_circuit::transient::{transient, TransientResult};
use nvpg_circuit::{with_fault_plan, Circuit, FaultKind, FaultPlan, TransientOptions, Waveform};

const R: f64 = 1e3;
const C: f64 = 1e-12;
const RC: f64 = R * C; // 1 ns

/// Charging RC low-pass: source steps 0 → 1 V at t ≈ 0.
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
    ckt.resistor("r1", vin, out, R).unwrap();
    ckt.capacitor("c1", out, Circuit::GROUND, C).unwrap();
    ckt
}

fn run(opts: &TransientOptions) -> TransientResult {
    let mut ckt = rc_circuit();
    let op = operating_point(&mut ckt, &Default::default()).unwrap();
    transient(&mut ckt, opts, &op).unwrap()
}

fn analytic(t: f64) -> f64 {
    1.0 - (-(t - 1e-12).max(0.0) / RC).exp()
}

/// Largest deviation from the analytic response over a time grid.
fn max_error(result: &TransientResult, t_stop: f64) -> f64 {
    let mut worst = 0.0_f64;
    for k in 1..200 {
        let t = t_stop * k as f64 / 200.0;
        let v = result.trace.value_at("v(out)", t).unwrap();
        worst = worst.max((v - analytic(t)).abs());
    }
    worst
}

/// Pins dt by collapsing `[dt_min, dt_max]` to a point; the controller
/// still *estimates* the LTE on every accepted step. A smooth sine drive
/// keeps x″ bounded — a PWL kink would turn the predictor error first
/// order right at the edge and mask the dt² scaling.
fn fixed_dt_ratio(dt: f64) -> f64 {
    let mut ckt = Circuit::new();
    let vin = ckt.node("vin");
    let out = ckt.node("out");
    ckt.vsource(
        "v1",
        vin,
        Circuit::GROUND,
        Waveform::Sine {
            offset: 0.5,
            amplitude: 0.5,
            freq: 200e6,
            delay: 0.0,
        },
    )
    .unwrap();
    ckt.resistor("r1", vin, out, R).unwrap();
    ckt.capacitor("c1", out, Circuit::GROUND, C).unwrap();
    let op = operating_point(&mut ckt, &Default::default()).unwrap();
    let result = transient(
        &mut ckt,
        &TransientOptions {
            t_stop: 5e-9,
            dt_max: dt,
            dt_min: dt,
            dt_init: dt,
            ..TransientOptions::default()
        },
        &op,
    )
    .unwrap();
    assert!(
        result.steps.max_lte_ratio > 0.0,
        "controller saw no history"
    );
    result.steps.max_lte_ratio
}

#[test]
fn lte_estimate_is_second_order_in_dt() {
    // Backward Euler's truncation error per step is (dt²/2)·x″, so the
    // normalised estimate must quarter when the fixed step halves. The
    // window accommodates the slight shift of *where* along the waveform
    // each grid attains its maximum.
    let coarse = fixed_dt_ratio(40e-12);
    let fine = fixed_dt_ratio(20e-12);
    let order = coarse / fine;
    assert!(
        (3.0..5.5).contains(&order),
        "expected ~4x (second order), got {order:.2} ({coarse:.3e} / {fine:.3e})"
    );
}

#[test]
fn tightening_the_tolerance_shrinks_the_error() {
    let t_stop = 20e-9;
    let base = TransientOptions {
        t_stop,
        dt_max: 2e-9,
        dt_init: 1e-12,
        ..TransientOptions::default()
    };
    let loose = run(&TransientOptions {
        lte_reltol: 4e-3,
        lte_abstol: 4e-6,
        ..base.clone()
    });
    let tight = run(&TransientOptions {
        lte_reltol: 2.5e-4,
        lte_abstol: 2.5e-7,
        ..base.clone()
    });
    let (e_loose, e_tight) = (max_error(&loose, t_stop), max_error(&tight, t_stop));
    assert!(
        e_tight < e_loose / 2.0,
        "16x tighter tolerance barely helped: {e_loose:.3e} -> {e_tight:.3e}"
    );
    assert!(
        tight.steps.accepted_steps > loose.steps.accepted_steps,
        "tighter tolerance must cost steps"
    );
}

/// 200 ns = a 5 ns edge plus a 195 ns quiescent tail. The LTE controller
/// resolves the edge finely and then grows dt to the cap. A step rule that
/// knows nothing about accuracy reaches the same error only with a dt_max
/// small enough for the edge, which it then pays over the entire tail:
/// the iteration-count heuristic (grow ×1.5 on easy steps, capped at
/// dt_max = t_stop/4000 = 50 ps) took 4008 accepted steps to an error of
/// 8.19e-3, against the LTE run's 87 steps at 8.19e-3 (measured before
/// that heuristic was deleted). The bound keeps the ≥ 10× saving:
/// at most 4008/10 steps.
#[test]
fn quiescent_interval_takes_a_tenth_of_the_fixed_grid_steps() {
    let t_stop = 200e-9;
    let lte = run(&TransientOptions {
        t_stop,
        dt_max: t_stop / 10.0,
        dt_init: 1e-12,
        ..TransientOptions::default()
    });

    let e_lte = max_error(&lte, t_stop);
    assert!(e_lte < 1e-2, "LTE run inaccurate: {e_lte:.3e}");
    let n_lte = lte.steps.accepted_steps;
    assert!(
        n_lte <= 400,
        "expected <= 400 accepted steps (a tenth of the 50 ps grid's 4008), got {n_lte}"
    );
    // The saving comes from growth through the tail, not a coarse edge:
    // the LTE run's error estimate stayed within tolerance.
    assert!(lte.steps.max_lte_ratio <= 1.0 + 1e-9);
}

#[test]
fn rescue_ladder_reachable_from_an_lte_rejected_step() {
    // Sine-driven RC (no breakpoints) with an unreachably tight
    // tolerance. Solve schedule: solve 0 accepts at 50 ps (no history
    // yet), solve 1 converges but is LTE-rejected to the 40 ps floor,
    // solve 2 runs *at* the floor — a Newton failure injected there
    // cannot shrink further and must escalate into the rescue ladder
    // rather than die or loop.
    let build = || {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.vsource(
            "v1",
            vin,
            Circuit::GROUND,
            Waveform::Sine {
                offset: 0.5,
                amplitude: 0.5,
                freq: 200e6,
                delay: 0.0,
            },
        )
        .unwrap();
        ckt.resistor("r1", vin, out, R).unwrap();
        ckt.capacitor("c1", out, Circuit::GROUND, C).unwrap();
        ckt
    };
    let opts = TransientOptions {
        t_stop: 2e-9,
        dt_max: 50e-12,
        dt_min: 40e-12,
        dt_init: 50e-12,
        lte_reltol: 1e-7,
        lte_abstol: 1e-10,
        ..TransientOptions::default()
    };

    let mut clean_ckt = build();
    let op = operating_point(&mut clean_ckt, &Default::default()).unwrap();
    let clean = transient(&mut clean_ckt, &opts, &op).unwrap();
    assert!(clean.steps.rejected_lte >= 1, "{}", clean.steps);
    assert!(!clean.rescue.any(), "{}", clean.rescue);

    let plan = FaultPlan::at_solves(FaultKind::RejectStep, &[2]);
    let mut ckt = build();
    let res = with_fault_plan(&plan, || transient(&mut ckt, &opts, &op)).unwrap();

    assert!(res.steps.rejected_lte >= 1, "{}", res.steps);
    assert_eq!(res.rescue.injected_faults, 1);
    assert_eq!(res.rescue.rejected_steps, 1);
    assert_eq!(res.rescue.damped_retries, 1, "{}", res.rescue);
    assert_eq!(res.rescue.rescued_solves, 1);
    // The rescued trajectory still tracks the clean one.
    let vf = res.trace.value_at("v(out)", 2e-9).unwrap();
    let vc = clean.trace.value_at("v(out)", 2e-9).unwrap();
    assert!((vf - vc).abs() < 1e-2, "faulted {vf} vs clean {vc}");
}
