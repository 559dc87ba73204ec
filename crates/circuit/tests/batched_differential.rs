//! Shared-workspace differential suite: a same-topology point set solved
//! through `dc::operating_points` must reproduce standalone
//! `dc::operating_point_report` results on every deck in the
//! dense-vs-sparse differential corpus.
//!
//! Contract under test:
//!
//! * **dense backend** — every point runs the standalone rescue ladder on
//!   a workspace whose options and factorisation are reset per point, so
//!   every point is **bit-identical** to a standalone solve of the same
//!   circuit, rescue stats included;
//! * **sparse backend** — every point refactors over the first point's
//!   symbolic analysis, so its pivot sequence (hence round-off and
//!   iteration history) can differ from a per-point analysis; results
//!   must agree within the same committed tolerances the dense-vs-sparse
//!   suite uses.

use nvpg_circuit::dc::{operating_point_report, operating_points, DcOptions};
use nvpg_circuit::parser::parse_deck;
use nvpg_circuit::{Circuit, SolverChoice};

/// Committed per-analysis tolerances, identical to the dense-vs-sparse
/// differential suite: the backends run the same Newton iteration to the
/// same convergence criteria, so only solve round-off amplified through
/// the nonlinear iteration may differ.
const ABS_TOL: f64 = 1e-7;
const REL_TOL: f64 = 1e-6;

fn assert_close(label: &str, serial: &[f64], shared: &[f64]) {
    assert_eq!(serial.len(), shared.len(), "{label}: dimension mismatch");
    for (i, (&s, &b)) in serial.iter().zip(shared).enumerate() {
        let tol = ABS_TOL + REL_TOL * s.abs().max(b.abs());
        assert!(
            (s - b).abs() <= tol,
            "{label}: unknown {i} differs: serial {s:e} vs shared {b:e} (tol {tol:e})"
        );
    }
}

/// The deck corpus of the dense-vs-sparse differential suite: every
/// parser element type plus hostile decks that stress the numerics.
fn corpus() -> Vec<(&'static str, String)> {
    let mut decks: Vec<(&'static str, String)> = vec![
        (
            "divider",
            "V1 vin 0 1.0\nR1 vin out 1k\nR2 out 0 1k\n.end\n".into(),
        ),
        (
            "rc_lowpass",
            "V1 vin 0 PWL(0 0 1p 1)\nR1 vin out 1k\nC1 out 0 1p\n".into(),
        ),
        (
            "rl_highpass",
            "V1 vin 0 PULSE(0 0.9 100p 50p 50p 1n 5n)\nR1 vin mid 1k\nL1 mid 0 1u\n".into(),
        ),
        (
            "rlc_tank",
            "V1 in 0 PULSE(0 1 0 10p 10p 500p 2n)\nR1 in a 50\nL1 a b 10n\nC1 b 0 1p\n\
             R2 b 0 10k\n"
                .into(),
        ),
        (
            "sin_drive",
            "V1 a 0 SIN(0.45 0.45 1g 0)\nV2 b 0 DC 0.9\nR1 a b 1k\nC1 a 0 100f\n".into(),
        ),
        (
            "current_source",
            "I1 0 n 1u\nC1 n 0 1p\nR1 n 0 1meg\n".into(),
        ),
        (
            "controlled_sources",
            "V1 a 0 0.25\nE1 amp 0 a 0 3.0\nRL1 amp 0 1k\nG1 0 cur a 0 2m\nRL2 cur 0 1k\n".into(),
        ),
        (
            "switch",
            "V1 vin 0 1.0\nVC ctl 0 PULSE(0 1 500p 50p 50p 1n 4n)\n\
             S1 vin out ctl 0 SW(vt=0.5 ron=10 roff=1e12)\nRL out 0 1e4\n"
                .into(),
        ),
        (
            "subckt",
            ".subckt stage in out\nR1 in out 2k\nC1 out 0 500f\n.ends\n\
             V1 vin 0 PWL(0 0 1p 0.9)\nX1 vin mid stage\nX2 mid vout stage\n"
                .into(),
        ),
        (
            "floating_cap_island",
            "V1 a 0 1.0\nC1 a b 1p\nC2 b c 1p\nC3 c 0 1p\nR1 a 0 1k\n".into(),
        ),
        (
            "extreme_ratios",
            "V1 top 0 1.0\nR1 top m1 1e-3\nR2 m1 m2 1e6\nR3 m2 0 1e-3\nC1 m1 0 1f\n\
             C2 m2 0 10u\n"
                .into(),
        ),
        (
            "ammeter_loop",
            "V1 a 0 0.9\nVM a b 0\nR1 b 0 1m\nR2 b 0 1k\n".into(),
        ),
    ];

    let mut ladder = String::from("V1 n0 0 PWL(0 0 1p 1)\n");
    for i in 0..300 {
        ladder.push_str(&format!("R{i} n{i} n{} 10\n", i + 1));
        ladder.push_str(&format!("C{i} n{} 0 10f\n", i + 1));
    }
    ladder.push_str("RL n300 0 1k\n");
    decks.push(("rc_ladder_300", ladder));
    decks
}

/// One set of parameter points per deck: the primary drive scaled per
/// point where the deck exposes a `V1` source, identical circuits where
/// it does not (topology is shared either way, which is the sharing
/// contract).
const LANE_SCALES: [f64; 4] = [1.0, 0.9, 1.05, 0.8];

fn lane_circuits(deck: &str) -> Vec<Circuit> {
    LANE_SCALES
        .iter()
        .map(|&s| {
            let mut ckt = parse_deck(deck).expect("corpus decks parse");
            let _ = ckt.set_source("V1", s);
            ckt
        })
        .collect()
}

fn run_suite(solver: SolverChoice, bitwise: bool) {
    for (name, deck) in corpus() {
        let opts = DcOptions {
            solver,
            ..DcOptions::default()
        };
        let mut circuits = lane_circuits(&deck);
        let shared = operating_points(&mut circuits, &opts);
        for (lane, result) in shared.iter().enumerate() {
            let mut reference = lane_circuits(&deck).swap_remove(lane);
            let serial = operating_point_report(&mut reference, &opts)
                .expect("corpus decks converge serially");
            let (sol, stats) = result
                .as_ref()
                .unwrap_or_else(|e| panic!("{name} lane {lane} failed shared: {e}"));
            let label = format!("{name} lane {lane}");
            if bitwise {
                assert_eq!(*stats, serial.1, "{label}: rescue stats differ");
                for (i, (b, s)) in sol.as_slice().iter().zip(serial.0.as_slice()).enumerate() {
                    assert_eq!(
                        b.to_bits(),
                        s.to_bits(),
                        "{label}: unknown {i} not bit-identical: shared {b} vs serial {s}"
                    );
                }
            } else {
                assert_close(&label, serial.0.as_slice(), sol.as_slice());
            }
        }
    }
}

#[test]
fn batched_dense_is_bit_identical_on_every_deck() {
    run_suite(SolverChoice::Dense, true);
}

#[test]
fn batched_sparse_agrees_on_every_deck_within_committed_tolerances() {
    run_suite(SolverChoice::Sparse, false);
}

#[test]
fn batched_auto_agrees_on_every_deck() {
    // Auto picks dense below the threshold and sparse above it; either
    // way the shared-workspace results must agree with serial Auto.
    run_suite(SolverChoice::Auto, false);
}
