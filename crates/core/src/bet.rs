//! Break-even time (BET) of a nonvolatile power-gating architecture.
//!
//! The paper's definition (§IV): the BET is the shutdown duration at
//! which the extra energy required to execute nonvolatile power gating
//! equals the static energy it saves — i.e. the `t_SD` at which the
//! `E_cyc(t_SD)` curves of the nonvolatile architecture and the OSR
//! baseline intersect (Fig. 8). Shorter shutdowns lose energy; longer
//! ones win.
//!
//! Both a closed-form solution (the composition is affine in `t_SD`) and
//! a Brent-iteration solution on the full model are provided; they agree
//! to machine precision and cross-validate each other in the tests.

use nvpg_numeric::brent;
use nvpg_units::Seconds;

use nvpg_cells::characterize::CellCharacterization;
use nvpg_cells::design::CellDesign;
use nvpg_cells::domain::DomainKind;
use nvpg_circuit::CircuitError;

use crate::arch::Architecture;
use crate::energy::{BenchmarkParams, EnergyModel};

/// Outcome of a BET computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bet {
    /// Break-even at the contained shutdown duration.
    At(Seconds),
    /// The architecture beats OSR for every `t_SD ≥ 0` (no positive
    /// crossing; the extra NVPG energy is already amortised).
    Always,
    /// The architecture never beats OSR (the saved static power is not
    /// positive).
    Never,
}

impl Bet {
    /// The break-even duration, if one exists.
    pub fn duration(self) -> Option<Seconds> {
        match self {
            Bet::At(t) => Some(t),
            _ => None,
        }
    }
}

/// Closed-form BET: both `E_cyc` curves are affine in `t_SD`
/// (`E = a + P·t_SD`), so the crossing is
/// `(a_arch − a_osr) / (P_osr − P_arch)`.
///
/// # Panics
///
/// Panics if `arch` is [`Architecture::Osr`] (the baseline has no BET).
pub fn bet_closed_form(model: &EnergyModel, arch: Architecture, params: &BenchmarkParams) -> Bet {
    assert!(
        arch.is_nonvolatile(),
        "BET is defined against the OSR baseline"
    );
    let at = |a: Architecture, t_sd: f64| model.e_cyc(a, &BenchmarkParams { t_sd, ..*params }).0;
    // Intercepts and slopes of the two affine curves.
    let a_arch = at(arch, 0.0);
    let a_osr = at(Architecture::Osr, 0.0);
    let p_arch = at(arch, 1.0) - a_arch;
    let p_osr = at(Architecture::Osr, 1.0) - a_osr;

    let saved = p_osr - p_arch;
    if saved <= 0.0 {
        return Bet::Never;
    }
    let t = (a_arch - a_osr) / saved;
    if t <= 0.0 {
        Bet::Always
    } else {
        Bet::At(Seconds(t))
    }
}

/// BET by Brent iteration on the full energy model (no affineness
/// assumption). Searches `t_SD ∈ [0, t_max]`.
///
/// # Panics
///
/// Panics if `arch` is [`Architecture::Osr`] or `t_max` is not positive.
pub fn bet_iterative(
    model: &EnergyModel,
    arch: Architecture,
    params: &BenchmarkParams,
    t_max: f64,
) -> Bet {
    assert!(
        arch.is_nonvolatile(),
        "BET is defined against the OSR baseline"
    );
    assert!(t_max > 0.0, "search horizon must be positive");
    let diff = |t_sd: f64| {
        let p = BenchmarkParams { t_sd, ..*params };
        model.e_cyc(arch, &p).0 - model.e_cyc(Architecture::Osr, &p).0
    };
    let d0 = diff(0.0);
    let d1 = diff(t_max);
    if d0 <= 0.0 {
        return Bet::Always;
    }
    if d1 > 0.0 {
        return Bet::Never;
    }
    match brent(diff, 0.0, t_max, 1e-15) {
        Ok(t) => Bet::At(Seconds(t)),
        Err(_) => Bet::Never,
    }
}

/// One point of [`bet_design_scan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetScanPoint {
    /// Threshold-voltage shift applied to both device cards (V).
    pub vth_shift: f64,
    /// Power-switch fin count `N_FSW`.
    pub n_fsw: u32,
    /// Normal-mode static power of the scanned domain (W).
    pub static_power: f64,
    /// First-order NVPG break-even time at this design point (s), when a
    /// crossing exists.
    pub bet: Option<f64>,
}

/// BET design-space scan over a `vth_shifts × fin_counts` grid
/// (row-major: the fin counts vary fastest).
///
/// Every grid point is one varied [`CellDesign`] — threshold shift on
/// both device cards, power-switch width `n_fsw` — whose `rows × cols`
/// NVPG domain operating point is solved, in grid order. The per-point
/// BET is first-order: `ch`'s NV static powers are scaled by the point's
/// measured domain leakage relative to the unshifted design's, and the
/// closed-form crossing re-solved — the leakage axis of the BET surface,
/// without a transient re-characterisation per point.
///
/// # Errors
///
/// Propagates the first DC failure in grid order, the nominal domain's
/// included.
pub fn bet_design_scan(
    base: &CellDesign,
    ch: &CellCharacterization,
    vth_shifts: &[f64],
    fin_counts: &[u32],
    rows: usize,
    cols: usize,
    params: &BenchmarkParams,
) -> Result<Vec<BetScanPoint>, CircuitError> {
    use nvpg_cells::array::checkerboard;
    use nvpg_cells::domain::DomainArray;

    let domain_power = |design: CellDesign| {
        DomainArray::new(design, DomainKind::Nvpg, rows, cols, checkerboard)
            .map(|domain| domain.static_power())
    };
    let nominal_power = domain_power(*base)?;

    let mut points = Vec::with_capacity(vth_shifts.len() * fin_counts.len());
    for &vth_shift in vth_shifts {
        for &n_fsw in fin_counts {
            let mut design = base.with_power_switch_fins(n_fsw);
            design.nmos.vth0 += vth_shift;
            design.pmos.vth0 += vth_shift;
            let static_power = domain_power(design)?;
            let ratio = static_power / nominal_power;
            let mut scaled = *ch;
            scaled.static_power.p_nv_normal *= ratio;
            scaled.static_power.p_nv_sleep *= ratio;
            scaled.static_power.p_nv_shutdown *= ratio;
            scaled.static_power.p_nv_shutdown_super *= ratio;
            let bet = match bet_closed_form(&EnergyModel::new(scaled), Architecture::Nvpg, params) {
                Bet::At(t) => Some(t.0),
                _ => None,
            };
            points.push(BetScanPoint {
                vth_shift,
                n_fsw,
                static_power,
                bet,
            });
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::PowerDomain;
    use crate::energy::tests::synthetic;

    fn model() -> EnergyModel {
        EnergyModel::new(synthetic())
    }

    fn params(n_rw: u32) -> BenchmarkParams {
        BenchmarkParams {
            n_rw,
            t_sl: 100e-9,
            t_sd: 0.0,
            domain: PowerDomain::default_32x32(),
            reads_per_write: 1,
            store_free: false,
        }
    }

    #[test]
    fn closed_form_and_iterative_agree() {
        let m = model();
        for arch in [Architecture::Nvpg, Architecture::Nof] {
            for n in [1, 10, 100, 1000] {
                let cf = bet_closed_form(&m, arch, &params(n));
                let it = bet_iterative(&m, arch, &params(n), 10.0);
                match (cf, it) {
                    (Bet::At(a), Bet::At(b)) => {
                        assert!(
                            (a.0 - b.0).abs() < 1e-9 * a.0.abs().max(1e-9),
                            "{arch} n={n}: {a} vs {b}"
                        );
                    }
                    (x, y) => assert_eq!(x, y, "{arch} n={n}"),
                }
            }
        }
    }

    #[test]
    fn nvpg_bet_is_tens_of_microseconds() {
        // Order-of-magnitude check against the paper's "several 10 µs".
        let m = model();
        let bet = bet_closed_form(&m, Architecture::Nvpg, &params(10));
        let t = bet.duration().expect("finite BET").0;
        assert!(
            (1e-6..1e-3).contains(&t),
            "NVPG BET = {t:e} outside µs–ms band"
        );
    }

    #[test]
    fn nof_bet_is_much_longer_than_nvpg() {
        // The paper's headline: NOF's energy efficiency cannot match NVPG.
        let m = model();
        for n in [10, 100, 1000] {
            let nvpg = bet_closed_form(&m, Architecture::Nvpg, &params(n))
                .duration()
                .expect("NVPG BET")
                .0;
            let nof = bet_closed_form(&m, Architecture::Nof, &params(n))
                .duration()
                .expect("NOF BET")
                .0;
            assert!(
                nof > 2.0 * nvpg,
                "n_RW = {n}: NOF BET {nof:e} vs NVPG {nvpg:e}"
            );
        }
    }

    #[test]
    fn bet_grows_with_n_rw_and_rows() {
        // Fig. 9(a): longer normal-operation stretches and bigger domains
        // both push the BET up.
        let m = model();
        let bet_n = |n| {
            bet_closed_form(&m, Architecture::Nvpg, &params(n))
                .duration()
                .unwrap()
                .0
        };
        assert!(bet_n(1000) > bet_n(100));
        assert!(bet_n(100) > bet_n(10));

        let bet_rows = |rows| {
            let p = BenchmarkParams {
                domain: PowerDomain::new(rows, 32),
                ..params(10)
            };
            bet_closed_form(&m, Architecture::Nvpg, &p)
                .duration()
                .unwrap()
                .0
        };
        assert!(bet_rows(2048) > bet_rows(256));
        assert!(bet_rows(256) > bet_rows(32));
    }

    #[test]
    fn store_free_shutdown_shrinks_bet() {
        // Fig. 9(a) middle/bottom curves.
        let m = model();
        let full = bet_closed_form(&m, Architecture::Nvpg, &params(10))
            .duration()
            .unwrap()
            .0;
        let free = bet_closed_form(
            &m,
            Architecture::Nvpg,
            &BenchmarkParams {
                store_free: true,
                ..params(10)
            },
        )
        .duration()
        .unwrap()
        .0;
        assert!(free < 0.6 * full, "store-free {free:e} vs full {full:e}");
    }

    #[test]
    fn degenerate_outcomes() {
        let m = model();
        // A huge t_max isn't needed; if OSR's sleep power were below the
        // shutdown power the architecture could never win. Emulate by
        // querying the NOF BET at enormous n_RW, where per-round store
        // costs dwarf any saving within the horizon.
        let it = bet_iterative(&m, Architecture::Nof, &params(100_000), 1e-3);
        assert_eq!(it, Bet::Never);
        assert_eq!(it.duration(), None);
        // `Always` is reachable when the arch is cheaper even at t_SD = 0:
        // force it with a store-free, zero-wait configuration plus an OSR
        // handicap (big t_SL: OSR pays more sleep power per round).
        let p = BenchmarkParams {
            store_free: true,
            t_sl: 1e-3,
            domain: PowerDomain::new(1, 32),
            ..params(10)
        };
        // NVPG's sleep power (NV cell) is higher than 6T's in the
        // synthetic table, so this may still be `At`; accept either but
        // require a definite classification.
        let out = bet_closed_form(&m, Architecture::Nvpg, &p);
        assert!(matches!(out, Bet::At(_) | Bet::Always | Bet::Never));
    }

    #[test]
    #[should_panic(expected = "OSR baseline")]
    fn osr_has_no_bet() {
        let m = model();
        let _ = bet_closed_form(&m, Architecture::Osr, &params(10));
    }

    #[test]
    fn design_scan_tracks_leakage() {
        let base = CellDesign::table1();
        let ch = synthetic();
        let shifts = [-10e-3, 0.0, 10e-3];
        let fins = [7, 14];
        let p = params(10);
        let pts = bet_design_scan(&base, &ch, &shifts, &fins, 2, 2, &p).unwrap();
        assert_eq!(pts.len(), 6);
        // Row-major: fins vary fastest.
        assert_eq!((pts[0].vth_shift, pts[0].n_fsw), (-10e-3, 7));
        assert_eq!((pts[1].vth_shift, pts[1].n_fsw), (-10e-3, 14));
        // Lower V_th ⇒ exponentially more leakage at fixed N_FSW…
        let at_fins7: Vec<&BetScanPoint> = pts.iter().filter(|p| p.n_fsw == 7).collect();
        assert!(at_fins7[0].static_power > at_fins7[1].static_power);
        assert!(at_fins7[1].static_power > at_fins7[2].static_power);
        // …and the leakage-scaled BET moves with it monotonically.
        let bets: Vec<f64> = at_fins7
            .iter()
            .map(|p| p.bet.expect("BET exists"))
            .collect();
        assert!(
            (bets[0] > bets[1]) == (at_fins7[0].static_power > at_fins7[1].static_power)
                && (bets[1] > bets[2]) == (at_fins7[1].static_power > at_fins7[2].static_power),
            "BET not monotone in leakage: {bets:?}"
        );
    }
}
