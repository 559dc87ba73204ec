//! Property-based tests for the compact device models.

use proptest::prelude::*;

use nvpg_circuit::{DeviceStamp, NodeId, NonlinearDevice};
use nvpg_devices::finfet::{FinFet, FinFetParams};
use nvpg_devices::mtj::{Mtj, MtjParams, MtjState};
use nvpg_devices::retention::{Fefet, FefetParams, RetentionState};

fn nfet() -> FinFet {
    FinFet::new(
        "m",
        NodeId::GROUND,
        NodeId::GROUND,
        NodeId::GROUND,
        FinFetParams::nmos_20nm(),
    )
}

/// Every circuit device model: NMOS and PMOS FinFETs with `fins` fins,
/// the MTJ and the FeFET in both states. Their nodes are all ground: the
/// properties call the models directly.
fn circuit_devices(fins: u32) -> Vec<Box<dyn NonlinearDevice>> {
    let g = NodeId::GROUND;
    let mut devices: Vec<Box<dyn NonlinearDevice>> = Vec::new();
    for params in [FinFetParams::nmos_20nm(), FinFetParams::pmos_20nm()] {
        devices.push(Box::new(FinFet::new("m", g, g, g, params.with_fins(fins))));
    }
    for state in [MtjState::Parallel, MtjState::AntiParallel] {
        devices.push(Box::new(Mtj::new("x", g, g, MtjParams::table1(), state)));
    }
    for state in [RetentionState::LowR, RetentionState::HighR] {
        devices.push(Box::new(Fefet::new("f", g, g, FefetParams::demo(), state)));
    }
    devices
}

/// Largest |entry| of a stamp matrix.
fn max_abs(m: &[Vec<f64>]) -> f64 {
    m.iter().flatten().fold(0.0, |acc, x| acc.max(x.abs()))
}

proptest! {
    /// Terminal currents always satisfy KCL (sum to zero) and the
    /// conductance rows of drain and source are exact negatives.
    #[test]
    fn finfet_stamp_kcl(
        vd in -1.0f64..1.0,
        vg in -1.0f64..1.0,
        vs in -1.0f64..1.0,
    ) {
        let m = nfet();
        let mut stamp = DeviceStamp::new(3);
        m.load(&[vd, vg, vs], &mut stamp);
        let sum: f64 = stamp.current.iter().sum();
        prop_assert!(sum.abs() < 1e-15);
        for u in 0..3 {
            prop_assert!((stamp.conductance[0][u] + stamp.conductance[2][u]).abs() < 1e-12);
        }
    }

    /// Source/drain exchange antisymmetry: I(d,g,s) = −I(s,g,d).
    #[test]
    fn finfet_terminal_antisymmetry(
        va in -1.0f64..1.0,
        vg in -1.0f64..1.0,
        vb in -1.0f64..1.0,
    ) {
        let m = nfet();
        let fwd = m.ids(va, vg, vb);
        let rev = m.ids(vb, vg, va);
        prop_assert!((fwd + rev).abs() <= 1e-12 * fwd.abs().max(1e-15));
    }

    /// The drain current is continuous: a 1 µV nudge on any terminal
    /// moves the current by a proportionally tiny amount (no branch
    /// discontinuities in the compact model).
    #[test]
    fn finfet_current_continuity(
        vd in 0.0f64..0.9,
        vg in 0.0f64..0.9,
        vs in 0.0f64..0.9,
    ) {
        let m = nfet();
        let base = m.ids(vd, vg, vs);
        for (dd, dg, ds) in [(1e-6, 0.0, 0.0), (0.0, 1e-6, 0.0), (0.0, 0.0, 1e-6)] {
            let nudged = m.ids(vd + dd, vg + dg, vs + ds);
            // Bounded by a generous conductance limit of 10 mS.
            prop_assert!(
                (nudged - base).abs() < 1e-6 * 1e-2 + 1e-15,
                "jump {:e}",
                (nudged - base).abs()
            );
        }
    }

    /// `charge` writes exactly the charges `load` stamps, bit for bit, for
    /// every circuit device model: NMOS and PMOS FinFETs with 1–4 fins,
    /// the MTJ and the FeFET in both states. The transient engine commits
    /// a step with `charge` alone, so any difference would move the
    /// charge history and every answer after it.
    #[test]
    fn charge_is_bit_identical_to_the_loaded_charge(
        va in -1.0f64..1.0,
        vb in -1.0f64..1.0,
        vc in -1.0f64..1.0,
        fins in 1u32..5,
    ) {
        let bits = |x: &[f64]| x.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for dev in &circuit_devices(fins) {
            let v = &[va, vb, vc][..dev.nodes().len()];
            let mut stamp = DeviceStamp::new(v.len());
            dev.load(v, &mut stamp);
            // NaN-filled, so an entry `charge` leaves unwritten fails too.
            let mut q = vec![f64::NAN; v.len()];
            dev.charge(v, &mut q);
            prop_assert_eq!(bits(&q), bits(&stamp.charge), "{:?} at {:?}", dev, v);
        }
    }

    /// Every stamp is the Jacobian of its own current and charge, for
    /// every circuit device model: each `conductance[t][u]` equals the
    /// central difference of `current[t]` in `v[u]` within 1e-5 of the
    /// stamp's largest |G|, and each `capacitance[t][u]` that of
    /// `charge[t]` within 1e-9 of its largest |C|. A FinFET's drain and
    /// source stay ≥ 10 mV apart: DIBL and CLM see |v_ds|, so their
    /// exchange is a kink no difference quotient straddles.
    #[test]
    fn stamp_is_the_jacobian_of_current_and_charge(
        vd in -1.0f64..1.0,
        vg in -1.0f64..1.0,
        vds in 0.01f64..1.0,
        reversed in 0u32..2,
        fins in 1u32..5,
    ) {
        const H: f64 = 1e-4;
        let vs = if reversed == 1 { vd + vds } else { vd - vds };
        for dev in &circuit_devices(fins) {
            let v = &[vd, vg, vs][..dev.nodes().len()];
            let n = v.len();
            let mut stamp = DeviceStamp::new(n);
            dev.load(v, &mut stamp);
            let g_tol = 1e-5 * max_abs(&stamp.conductance);
            let c_tol = 1e-9 * max_abs(&stamp.capacitance);
            for u in 0..n {
                let (mut lo, mut hi) = (v.to_vec(), v.to_vec());
                lo[u] -= H;
                hi[u] += H;
                let (mut s_lo, mut s_hi) = (DeviceStamp::new(n), DeviceStamp::new(n));
                dev.load(&lo, &mut s_lo);
                dev.load(&hi, &mut s_hi);
                let (mut q_lo, mut q_hi) = (vec![0.0; n], vec![0.0; n]);
                dev.charge(&lo, &mut q_lo);
                dev.charge(&hi, &mut q_hi);
                for t in 0..n {
                    let g = (s_hi.current[t] - s_lo.current[t]) / (2.0 * H);
                    let c = (q_hi[t] - q_lo[t]) / (2.0 * H);
                    prop_assert!(
                        (g - stamp.conductance[t][u]).abs() <= g_tol,
                        "{dev:?} at {v:?}: G[{t}][{u}] = {:e}, difference quotient {g:e}",
                        stamp.conductance[t][u]
                    );
                    prop_assert!(
                        (c - stamp.capacitance[t][u]).abs() <= c_tol,
                        "{dev:?} at {v:?}: C[{t}][{u}] = {:e}, difference quotient {c:e}",
                        stamp.capacitance[t][u]
                    );
                }
            }
        }
    }

    /// MTJ current is odd-symmetric in bias for the parallel state
    /// (bias-independent resistance) and conductance stays within
    /// [1/R_AP(0), 1/R_P(0)] bounds in all states.
    #[test]
    fn mtj_current_bounds(v in -0.9f64..0.9) {
        let p = MtjParams::table1();
        for state in [MtjState::Parallel, MtjState::AntiParallel] {
            let m = Mtj::new("x", NodeId::GROUND, NodeId::GROUND, p, state);
            let i = m.current(v);
            // |i| is bounded by the extreme conductances.
            let i_max = v.abs() / p.r_parallel();
            let i_min = v.abs() / p.r_antiparallel();
            prop_assert!(i.abs() <= i_max * (1.0 + 1e-12), "{state:?}: {i:e}");
            prop_assert!(i.abs() >= i_min * (1.0 - 1e-12));
            // Odd symmetry.
            prop_assert!((m.current(-v) + i).abs() < 1e-18);
        }
    }

    /// Write-error rate is monotone non-increasing in both pulse duration
    /// and drive current.
    #[test]
    fn wer_monotonicity(
        over1 in 1.05f64..4.0,
        dover in 0.01f64..2.0,
        t1 in 1e-9f64..50e-9,
        dt in 1e-10f64..50e-9,
    ) {
        let p = MtjParams::table1();
        let ic = p.i_critical();
        let a = p.write_error_rate(over1 * ic, t1);
        let longer = p.write_error_rate(over1 * ic, t1 + dt);
        let stronger = p.write_error_rate((over1 + dover) * ic, t1);
        prop_assert!(longer <= a + 1e-15);
        prop_assert!(stronger <= a + 1e-15);
    }

    /// Switching progress in the macromodel never flips on sub-critical
    /// drive regardless of how the pulse is chopped up.
    #[test]
    fn subcritical_never_flips(
        chunks in proptest::collection::vec(1e-10f64..2e-9, 1..30),
        frac in 0.1f64..0.8,
    ) {
        let p = MtjParams::table1();
        let mut m = Mtj::new("x", NodeId::GROUND, NodeId::GROUND, p, MtjState::AntiParallel);
        // Bias for `frac`×I_C through the zero-bias AP resistance; the
        // TMR roll-off raises the actual current somewhat, which is why
        // `frac` stays ≤ 0.8 (at 0.8 the delivered current is still only
        // ≈ 0.84×I_C, safely sub-critical).
        let v = frac * p.i_critical() * p.r_antiparallel();
        prop_assert!(m.current(v).abs() < p.i_critical());
        let mut t = 0.0;
        for dt in chunks {
            m.accept_step(&[v, 0.0], t, dt);
            t += dt;
        }
        prop_assert_eq!(m.mtj_state(), MtjState::AntiParallel);
        prop_assert_eq!(m.flips(), 0);
    }
}
