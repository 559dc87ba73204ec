//! Cell-level execution of the Fig. 5 benchmark sequences and the Fig. 6
//! power-vs-time traces.
//!
//! Unlike the closed-form composition in [`crate::energy`] (which scales
//! to any `n_RW`, `t_SD`, and domain size), this module *actually runs*
//! the sequences through the transient simulator on a single cell — it is
//! both the source of the Fig. 6(a,b) traces and the ground truth that
//! validates the composition on small cases.

use nvpg_cells::cell::{CellKind, MtjConfig};
use nvpg_cells::design::CellDesign;
use nvpg_cells::{CellBench, PhaseResult};
use nvpg_circuit::{CircuitError, StepStats};
use nvpg_units::{Joules, Seconds};

use crate::arch::Architecture;

/// One simulated benchmark sequence: its phases and total energy.
#[derive(Debug)]
pub struct SequenceRun {
    /// Which architecture was exercised.
    pub arch: Architecture,
    /// The executed phases, in order.
    pub phases: Vec<PhaseResult>,
    /// Total energy over the sequence.
    pub energy: Joules,
    /// Total duration.
    pub duration: Seconds,
    /// Step-control and solver telemetry aggregated over every phase.
    pub steps: StepStats,
}

impl SequenceRun {
    /// Concatenates the per-phase power waveforms into one `(t, p(t))`
    /// series — the Fig. 6 trace. Power is the sum of every source's
    /// delivered power.
    pub fn power_trace(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut offset = 0.0;
        for phase in &self.phases {
            let time = phase.trace.time();
            // Sum p(*) signals at each sample.
            let power_signals: Vec<&str> = phase
                .trace
                .signal_names()
                .iter()
                .filter(|n| n.starts_with("p("))
                .map(|s| s.as_str())
                .collect();
            for (k, &t) in time.iter().enumerate() {
                let p: f64 = power_signals
                    .iter()
                    .map(|s| phase.trace.signal(s).expect("power signal exists")[k])
                    .sum();
                out.push((offset + t, p));
            }
            offset += phase.duration.0;
        }
        out
    }

    /// Finds a phase by name (first match).
    pub fn phase(&self, name: &str) -> Option<&PhaseResult> {
        self.phases.iter().find(|p| p.name == name)
    }
}

fn finish(arch: Architecture, phases: Vec<PhaseResult>) -> SequenceRun {
    let energy = Joules(phases.iter().map(|p| p.energy.0).sum());
    let duration = Seconds(phases.iter().map(|p| p.duration.0).sum());
    let mut steps = StepStats::default();
    for phase in &phases {
        steps += phase.steps;
    }
    SequenceRun {
        arch,
        phases,
        energy,
        duration,
        steps,
    }
}

/// Parameters of a cell-level sequence run (kept small: these drive real
/// transients).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequenceParams {
    /// Read/write rounds `n_RW`.
    pub n_rw: u32,
    /// Short standby duration `t_SL` (sleep for OSR/NVPG, shutdown for
    /// NOF).
    pub t_sl: f64,
    /// Long standby duration `t_SD` (sleep for OSR; shutdown for
    /// NVPG/NOF). Keep at ≲ 1 µs for tractable transients.
    pub t_sd: f64,
}

impl Default for SequenceParams {
    fn default() -> Self {
        SequenceParams {
            n_rw: 2,
            t_sl: 50e-9,
            t_sd: 200e-9,
        }
    }
}

/// Runs the Fig. 5 sequence for `arch` on a single cell and returns the
/// full phase list (Fig. 6 traces come from
/// [`SequenceRun::power_trace`]).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_sequence(
    design: &CellDesign,
    arch: Architecture,
    params: &SequenceParams,
) -> Result<SequenceRun, CircuitError> {
    let _span = nvpg_obs::span_labeled("sequence", &arch.to_string());
    let kind = match arch {
        Architecture::Osr => CellKind::Volatile6T,
        _ => CellKind::NvSram,
    };
    let mut bench = CellBench::new(*design, kind, true, MtjConfig::stored(true))?;
    let mut phases = Vec::new();

    match arch {
        Architecture::Osr => {
            for _ in 0..params.n_rw {
                phases.push(bench.read()?);
                phases.push(bench.write(true)?);
                if params.t_sl > 0.0 {
                    phases.push(bench.sleep(params.t_sl)?);
                    phases.push(bench.wake_normal()?);
                }
            }
            // Long standby is only a (deeper) sleep for the OSR.
            if params.t_sd > 0.0 {
                phases.push(bench.sleep(params.t_sd)?);
                phases.push(bench.wake_normal()?);
            }
        }
        Architecture::Nvpg => {
            for _ in 0..params.n_rw {
                phases.push(bench.read()?);
                phases.push(bench.write(true)?);
                if params.t_sl > 0.0 {
                    phases.push(bench.sleep(params.t_sl)?);
                    phases.push(bench.wake_normal()?);
                }
            }
            phases.extend(bench.store()?);
            phases.push(bench.shutdown_enter(true, params.t_sd.max(1e-9))?);
            phases.push(bench.restore()?);
            phases.push(bench.wake_normal()?);
        }
        Architecture::Nof => {
            for round in 0..params.n_rw {
                phases.push(bench.read()?);
                phases.push(bench.write(true)?);
                phases.extend(bench.store()?);
                // Short shutdowns between rounds, the long one at the end.
                let off = if round + 1 == params.n_rw {
                    params.t_sd
                } else {
                    params.t_sl
                };
                phases.push(bench.shutdown_enter(true, off.max(1e-9))?);
                phases.push(bench.restore()?);
                phases.push(bench.wake_normal()?);
            }
        }
    }

    Ok(finish(arch, phases))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SequenceParams {
        SequenceParams {
            n_rw: 1,
            t_sl: 20e-9,
            t_sd: 50e-9,
        }
    }

    #[test]
    fn osr_sequence_runs_and_keeps_data() {
        let run = run_sequence(&CellDesign::table1(), Architecture::Osr, &small()).unwrap();
        assert!(run.energy.0 > 0.0);
        assert!(run.duration.0 > 70e-9);
        assert!(run.phase("read").is_some());
        assert!(run.phase("sleep").is_some());
        assert!(run.phase("store-H").is_none(), "OSR never stores");
        // Telemetry aggregates across phases and the optimisations fire.
        assert!(run.steps.accepted_steps > 100);
        assert!(run.steps.newton_iterations >= run.steps.newton_solves);
        assert!(run.steps.refactorizations_avoided > 0, "{}", run.steps);
    }

    #[test]
    fn nvpg_sequence_survives_power_off() {
        let run = run_sequence(&CellDesign::table1(), Architecture::Nvpg, &small()).unwrap();
        assert!(run.phase("store-H").is_some());
        assert!(run.phase("restore").is_some());
        // The shutdown phase actually powers off.
        let sd = run.phase("shutdown").unwrap();
        let vvdd_end = {
            let t = *sd.trace.time().last().unwrap();
            sd.trace.value_at("v(vvdd)", t).unwrap()
        };
        // 50 ns is short relative to the collapse constant, but the rail
        // must already be sagging below the retention level.
        assert!(vvdd_end < 1.1, "vvdd after shutdown entry: {vvdd_end}");
    }

    #[test]
    fn nof_sequence_stores_every_round() {
        let params = SequenceParams {
            n_rw: 2,
            t_sl: 20e-9,
            t_sd: 20e-9,
        };
        let run = run_sequence(&CellDesign::table1(), Architecture::Nof, &params).unwrap();
        let stores = run.phases.iter().filter(|p| p.name == "store-H").count();
        let restores = run.phases.iter().filter(|p| p.name == "restore").count();
        assert_eq!(stores, 2);
        assert_eq!(restores, 2);
    }

    #[test]
    fn nof_uses_more_energy_and_time_than_nvpg() {
        // The Fig. 6(a) comparison: same work (1 read + 1 write), but NOF
        // pays store + wake every round.
        // Short sleeps so the store/restore overhead dominates the time
        // axis (with long sleeps the NVPG sequence idles just as long).
        let p = SequenceParams {
            n_rw: 2,
            t_sl: 5e-9,
            t_sd: 30e-9,
        };
        let nvpg = run_sequence(&CellDesign::table1(), Architecture::Nvpg, &p).unwrap();
        let nof = run_sequence(&CellDesign::table1(), Architecture::Nof, &p).unwrap();
        assert!(
            nof.energy.0 > nvpg.energy.0,
            "NOF {} vs NVPG {}",
            nof.energy,
            nvpg.energy
        );
        assert!(nof.duration.0 > nvpg.duration.0);
    }

    #[test]
    fn power_trace_is_time_ordered_and_nonempty() {
        let run = run_sequence(&CellDesign::table1(), Architecture::Osr, &small()).unwrap();
        let trace = run.power_trace();
        assert!(trace.len() > 100);
        for w in trace.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        // Peak power during access is far above sleep power.
        let peak = trace.iter().map(|&(_, p)| p).fold(0.0_f64, f64::max);
        assert!(peak > 1e-6, "access peak: {peak:e}");
    }
}
