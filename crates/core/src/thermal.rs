//! Temperature study (extension beyond the paper).
//!
//! The paper evaluates at a single (room) temperature. Subthreshold
//! leakage, however, is the most temperature-sensitive quantity in the
//! whole analysis — `I_off ∝ exp(−V_th/(n·kT/q))` — and the break-even
//! time is inversely proportional to the leakage saved, so BET falls
//! steeply with junction temperature. The MTJ moves the other way: its
//! thermal stability factor degrades as `Δ(T) ≈ Δ₀·T₀/T`, trading
//! retention margin for easier gating.
//!
//! [`temperature_sweep`] re-characterises the cell across a temperature
//! list with both effects applied.

use nvpg_cells::characterize::{characterize_cached, CellCharacterization};
use nvpg_cells::design::CellDesign;
use nvpg_circuit::CircuitError;

use crate::arch::Architecture;
use crate::bet::{bet_closed_form, Bet};
use crate::energy::{BenchmarkParams, EnergyModel};

/// One temperature point's outcome.
#[derive(Debug, Clone, Copy)]
pub struct ThermalPoint {
    /// Junction temperature (K).
    pub temp: f64,
    /// Characterisation at this temperature.
    pub characterization: CellCharacterization,
    /// NVPG break-even time (s), if one exists.
    pub bet: Option<f64>,
    /// MTJ retention time at this temperature (s).
    pub retention: f64,
}

/// Returns a copy of `design` at junction temperature `temp` (K): device
/// cards re-temperatured and the MTJ stability scaled by `300/T`.
pub fn at_temperature(base: &CellDesign, temp: f64) -> CellDesign {
    let mut d = *base;
    d.nmos.temp = temp;
    d.pmos.temp = temp;
    d.mtj.thermal_stability = base.mtj.thermal_stability * 300.0 / temp;
    d
}

/// Re-characterises the design across `temps` (K) and solves the NVPG
/// BET at each point.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn temperature_sweep(
    base: &CellDesign,
    temps: &[f64],
    params: &BenchmarkParams,
) -> Result<Vec<ThermalPoint>, CircuitError> {
    // Each point characterises an independent design, so the sweep fans
    // out over the worker pool; the memoised characterisation also lets
    // repeated sweeps over the same temperatures come back instantly.
    nvpg_exec::par_try_map(0, temps, |_, &temp| {
        let design = at_temperature(base, temp);
        let ch = characterize_cached(&design)?;
        let bet = match bet_closed_form(&EnergyModel::new(ch), Architecture::Nvpg, params) {
            Bet::At(t) => Some(t.0),
            _ => None,
        };
        Ok(ThermalPoint {
            temp,
            characterization: ch,
            bet,
            retention: design.mtj.retention_time(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_temperature_applies_both_effects() {
        let base = CellDesign::table1();
        let hot = at_temperature(&base, 360.0);
        assert_eq!(hot.nmos.temp, 360.0);
        assert_eq!(hot.pmos.temp, 360.0);
        assert!(hot.mtj.thermal_stability < base.mtj.thermal_stability);
        let cold = at_temperature(&base, 250.0);
        assert!(cold.mtj.thermal_stability > base.mtj.thermal_stability);
    }

    #[test]
    fn leakage_rises_and_bet_falls_with_temperature() {
        let pts = temperature_sweep(
            &CellDesign::table1(),
            &[300.0, 330.0, 360.0],
            &BenchmarkParams::fig7_default(),
        )
        .unwrap();
        // Margins hold at every point.
        for p in &pts {
            assert!(p.characterization.store_ok, "{} K: store", p.temp);
            assert!(p.characterization.restore_ok, "{} K: restore", p.temp);
        }
        // Leakage grows with T …
        let leak = |i: usize| pts[i].characterization.static_power.p_6t_sleep;
        assert!(leak(1) > leak(0) && leak(2) > leak(1));
        // … so the BET shrinks …
        let bet = |i: usize| pts[i].bet.expect("BET exists");
        assert!(
            bet(1) < bet(0) && bet(2) < bet(1),
            "BETs: {:?}",
            [bet(0), bet(1), bet(2)]
        );
        // … while the MTJ retention degrades (but stays astronomically
        // long at 360 K — the technology's selling point).
        assert!(pts[2].retention < pts[0].retention);
        assert!(pts[2].retention > 3.2e8, "10-year class at 360 K");
    }
}
