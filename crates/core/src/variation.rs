//! Monte-Carlo device-variation study (extension beyond the paper).
//!
//! The paper evaluates nominal parameters only. Real arrays suffer
//! threshold-voltage mismatch, TMR spread, and critical-current spread,
//! all of which move the break-even time and can make individual cells'
//! store operations fail outright. This module samples Gaussian
//! variations on `(V_th, TMR₀, J_C)`, re-characterises the cell per
//! sample, and reports the BET distribution alongside store/restore
//! failure counts.
//!
//! Samples fan out across a bounded worker pool ([`nvpg_exec`]). Each
//! sample draws from its own counter-derived RNG sub-stream
//! ([`Rng64::split`]), so the sampled designs — and therefore the BET
//! statistics — are identical for any worker count, including 1.

use std::convert::Infallible;
use std::time::Duration;

use nvpg_numeric::rng::Rng64;

use nvpg_cells::characterize::characterize;
use nvpg_cells::design::CellDesign;
use nvpg_circuit::fault::{with_fault_plan_logged, FaultPlan};
use nvpg_circuit::{CircuitError, RescueStats};
use nvpg_exec::Settled;

use crate::arch::Architecture;
use crate::bet::{bet_closed_form, Bet};
use crate::cancel::{with_token, CancelToken};
use crate::energy::{BenchmarkParams, EnergyModel};
use crate::report::RunReport;

/// Gaussian variation magnitudes and sampling controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Threshold-voltage sigma applied to NMOS and PMOS cards (V).
    pub sigma_vth: f64,
    /// Relative sigma on the zero-bias TMR.
    pub sigma_tmr_rel: f64,
    /// Relative sigma on the CIMS critical current density.
    pub sigma_jc_rel: f64,
    /// Number of Monte-Carlo samples.
    pub samples: u32,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
}

impl Default for VariationSpec {
    fn default() -> Self {
        VariationSpec {
            sigma_vth: 15e-3,
            sigma_tmr_rel: 0.05,
            sigma_jc_rel: 0.05,
            samples: 25,
            seed: 0x5eed_c0de,
        }
    }
}

/// Outcome of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationOutcome {
    /// NVPG break-even time per successful sample (seconds).
    pub bets: Vec<f64>,
    /// Samples whose two-step store failed to flip the MTJs.
    pub store_failures: u32,
    /// Samples whose restore recovered the wrong data.
    pub restore_failures: u32,
    /// Samples whose simulation did not converge.
    pub simulation_failures: u32,
}

impl VariationOutcome {
    /// Mean of the BET distribution.
    pub fn mean_bet(&self) -> Option<f64> {
        if self.bets.is_empty() {
            None
        } else {
            Some(self.bets.iter().sum::<f64>() / self.bets.len() as f64)
        }
    }

    /// Sample standard deviation of the BET distribution.
    pub fn std_bet(&self) -> Option<f64> {
        let mean = self.mean_bet()?;
        if self.bets.len() < 2 {
            return Some(0.0);
        }
        let var = self
            .bets
            .iter()
            .map(|b| (b - mean) * (b - mean))
            .sum::<f64>()
            / (self.bets.len() - 1) as f64;
        Some(var.sqrt())
    }
}

/// Draws one varied design point.
fn sample_design(base: &CellDesign, spec: &VariationSpec, rng: &mut Rng64) -> CellDesign {
    let mut d = *base;
    d.nmos.vth0 += spec.sigma_vth * rng.normal();
    d.pmos.vth0 += spec.sigma_vth * rng.normal();
    d.mtj.tmr0 = (d.mtj.tmr0 * (1.0 + spec.sigma_tmr_rel * rng.normal())).max(0.1);
    d.mtj.jc = (d.mtj.jc * (1.0 + spec.sigma_jc_rel * rng.normal())).max(1e9);
    d
}

/// What one Monte-Carlo sample contributed.
enum SampleResult {
    Bet(f64),
    NoBet,
    StoreFailure,
    RestoreFailure,
}

/// Runs the Monte-Carlo study with the pool's default worker count.
///
/// Per sample, re-characterises the varied cell and solves the NVPG BET
/// under `params`. Individual non-convergent samples are counted in the
/// outcome, not fatal.
pub fn run_variation(
    base: &CellDesign,
    spec: &VariationSpec,
    params: &BenchmarkParams,
) -> VariationOutcome {
    run_variation_report(base, spec, params, 0, None, None).0
}

/// Fail-soft Monte-Carlo runner on `jobs` workers (`0` = pool default):
/// every sample settles independently and the [`RunReport`] names each
/// failed sample with its error taxonomy and injected-fault count.
///
/// The outcome is bit-identical for every `jobs` value: samples are
/// seeded per index and folded in index order.
///
/// When `faults` is given, each sample runs under its point-derived plan
/// ([`FaultPlan::for_point`]), so the injection schedule — like the
/// sampling itself — is a pure function of the sample index and identical
/// at every `jobs` count. A sample that the injected fault kills (even by
/// panic) is counted as a simulation failure; samples the rescue ladder
/// saves, and samples with no fired fault, produce BETs byte-identical to
/// a fault-free run.
///
/// When `point_deadline` is given, each sample solves under its own
/// [`CancelToken`] armed with that deadline; a sample that overruns
/// settles as `Failed { taxonomy: "cancelled" }` while every other sample
/// stays byte-identical to an undeadlined run (the token is scoped to the
/// worker closure, so no state leaks between points).
pub fn run_variation_report(
    base: &CellDesign,
    spec: &VariationSpec,
    params: &BenchmarkParams,
    jobs: usize,
    faults: Option<&FaultPlan>,
    point_deadline: Option<Duration>,
) -> (VariationOutcome, RunReport) {
    let indices: Vec<u64> = (0..u64::from(spec.samples)).collect();
    let runs = nvpg_exec::par_map_settled(jobs, &indices, |_, &i| {
        let run = || -> Result<SampleResult, CircuitError> {
            let mut rng = Rng64::split(spec.seed, i);
            let design = sample_design(base, spec, &mut rng);
            let ch = characterize(&design)?;
            if !ch.store_ok {
                return Ok(SampleResult::StoreFailure);
            }
            if !ch.restore_ok {
                return Ok(SampleResult::RestoreFailure);
            }
            Ok(
                match bet_closed_form(&EnergyModel::new(ch), Architecture::Nvpg, params) {
                    Bet::At(t) => SampleResult::Bet(t.0),
                    _ => SampleResult::NoBet,
                },
            )
        };
        // Per-point deadline: a fresh token per sample, installed
        // inside the worker closure, so one slow point cancels alone.
        let deadlined = || match point_deadline {
            Some(d) => with_token(&CancelToken::with_deadline(d), run),
            None => run(),
        };
        // The plan, too, is installed inside the worker closure so the
        // schedule keys off the sample, not the thread. A sample returns
        // its outcome with the number of faults the plan injected into it.
        Ok::<_, Infallible>(match faults {
            Some(plan) => {
                let (outcome, log) = with_fault_plan_logged(&plan.for_point(i), deadlined);
                (outcome, log.len() as u32)
            }
            None => (deadlined(), 0),
        })
    });

    let mut outcome = VariationOutcome {
        bets: Vec::with_capacity(spec.samples as usize),
        store_failures: 0,
        restore_failures: 0,
        simulation_failures: 0,
    };
    let mut report = RunReport::new();
    for (i, run) in runs.into_iter().enumerate() {
        // A panicked sample's fault log unwound with it.
        let (settled, injected) = match run {
            Settled::Ok((Ok(res), injected)) => (Settled::Ok(res), injected),
            Settled::Ok((Err(e), injected)) => (Settled::Err(e), injected),
            Settled::Panicked(msg) => (Settled::Panicked(msg), 0),
            Settled::Err(never) => match never {},
        };
        let rescue = RescueStats {
            injected_faults: injected,
            ..RescueStats::default()
        };
        // A fired fault that still produced a result means the rescue
        // ladder absorbed it: the sample settles as rescued.
        match report.settle(
            "variation",
            format!("sample {i}"),
            Some("characterize"),
            settled,
            rescue,
        ) {
            Some(SampleResult::Bet(t)) => outcome.bets.push(t),
            Some(SampleResult::NoBet) => {}
            Some(SampleResult::StoreFailure) => outcome.store_failures += 1,
            Some(SampleResult::RestoreFailure) => outcome.restore_failures += 1,
            None => outcome.simulation_failures += 1,
        }
    }
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_sampling() {
        let base = CellDesign::table1();
        let spec = VariationSpec::default();
        let mut r1 = Rng64::split(spec.seed, 0);
        let mut r2 = Rng64::split(spec.seed, 0);
        let d1 = sample_design(&base, &spec, &mut r1);
        let d2 = sample_design(&base, &spec, &mut r2);
        assert_eq!(d1.nmos.vth0, d2.nmos.vth0);
        assert_eq!(d1.mtj.jc, d2.mtj.jc);
        // And actually varied from the base.
        assert_ne!(d1.nmos.vth0, base.nmos.vth0);
        // A different sub-stream draws a different design.
        let mut r3 = Rng64::split(spec.seed, 1);
        let d3 = sample_design(&base, &spec, &mut r3);
        assert_ne!(d3.nmos.vth0, d1.nmos.vth0);
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut rng = Rng64::seed_from_u64(42);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn tiny_variation_run_produces_bets() {
        // 3 samples with small sigmas: everything should succeed and the
        // BETs should cluster around the nominal one.
        let spec = VariationSpec {
            sigma_vth: 5e-3,
            sigma_tmr_rel: 0.02,
            sigma_jc_rel: 0.02,
            samples: 3,
            seed: 7,
        };
        let out = run_variation(
            &CellDesign::table1(),
            &spec,
            &BenchmarkParams::fig7_default(),
        );
        assert_eq!(out.simulation_failures, 0, "{out:?}");
        assert_eq!(out.store_failures, 0, "{out:?}");
        assert_eq!(out.restore_failures, 0, "{out:?}");
        assert_eq!(out.bets.len(), 3);
        let mean = out.mean_bet().unwrap();
        assert!((1e-6..1e-2).contains(&mean), "mean BET = {mean:e}");
        assert!(out.std_bet().unwrap() < mean, "spread should be moderate");
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        // The acceptance bar for the parallel engine: fixed seed ⇒
        // bit-identical BET statistics at jobs=1 and jobs=8.
        let spec = VariationSpec {
            sigma_vth: 5e-3,
            sigma_tmr_rel: 0.02,
            sigma_jc_rel: 0.02,
            samples: 8,
            seed: 0x0D15_EA5E,
        };
        let base = CellDesign::table1();
        let params = BenchmarkParams::fig7_default();
        let serial = run_variation_report(&base, &spec, &params, 1, None, None).0;
        let parallel = run_variation_report(&base, &spec, &params, 8, None, None).0;
        assert_eq!(serial, parallel);
        assert_eq!(serial.mean_bet(), parallel.mean_bet());
        assert_eq!(serial.std_bet(), parallel.std_bet());
    }

    #[test]
    fn empty_outcome_statistics() {
        let out = VariationOutcome {
            bets: vec![],
            store_failures: 0,
            restore_failures: 0,
            simulation_failures: 0,
        };
        assert_eq!(out.mean_bet(), None);
        assert_eq!(out.std_bet(), None);
    }
}
