//! Step-control and solver-reuse telemetry for transient runs.
//!
//! [`StepStats`] counts what the LTE step controller, the modified-Newton
//! Jacobian-reuse policy, and the device-eval bypass actually did, so
//! benchmarks (and CI perf gates) can assert the optimisations are live
//! rather than inferring them from wall-clock alone. Stats aggregate
//! across phases/sequences with `+=`; the LTE high-water mark merges with
//! `max`.

use std::fmt;
use std::ops::AddAssign;

/// Telemetry for one transient run (or an aggregate of several).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepStats {
    /// Time steps accepted into the trace.
    pub accepted_steps: u64,
    /// Steps rejected because Newton failed to converge (these also show
    /// up in [`crate::rescue::RescueStats::rejected_steps`]).
    pub rejected_newton: u64,
    /// Steps that converged but were rejected by the local-truncation-
    /// error controller. Not a rescue event: the step is simply redone
    /// smaller, so clean runs still report clean
    /// [`RescueStats`](crate::rescue::RescueStats).
    pub rejected_lte: u64,
    /// Newton iterations summed over every attempted step.
    pub newton_iterations: u64,
    /// Newton solves attempted (accepted + rejected steps, rescue rungs).
    pub newton_solves: u64,
    /// LU refactorisations actually performed.
    pub jacobian_refactorizations: u64,
    /// Newton iterations served by a stale LU factorisation, skipping
    /// both Jacobian assembly and factorisation (modified Newton).
    pub refactorizations_avoided: u64,
    /// Nonlinear-device model evaluations at Newton iterates: every
    /// assembly whose bypass test fails (or is off) runs the model at the
    /// iterate's terminal voltages.
    pub device_evals: u64,
    /// Deferred model evaluations at a committed step's voltages. Starting
    /// a run or accepting a step evaluates only device charges and leaves
    /// each device's stamp at the committed voltages pending; the first
    /// bypass test that reads a pending stamp evaluates it, and a device
    /// whose next iterate misses the bypass never does. With
    /// `device_evals` this counts every model evaluation a transient
    /// runs, except the sparse backend's one structural pass per analysis
    /// (one evaluation per device, values discarded).
    pub device_deferred_evals: u64,
    /// Device evaluations skipped by the terminal-voltage bypass cache
    /// (a hit on a pending stamp counts here and in
    /// `device_deferred_evals`).
    pub device_bypasses: u64,
    /// Largest normalised LTE ratio (estimate / tolerance) observed on an
    /// *accepted* step; ≤ 1 unless a step was accepted at the `dt_min`
    /// floor. Zero when the LTE controller is off or no history existed.
    pub max_lte_ratio: f64,
}

impl StepStats {
    /// Mean Newton iterations per solve (0 if no solves ran).
    pub fn iterations_per_solve(&self) -> f64 {
        if self.newton_solves == 0 {
            0.0
        } else {
            self.newton_iterations as f64 / self.newton_solves as f64
        }
    }

    /// Fraction of Newton iterations that ran on a reused factorisation.
    pub fn reuse_rate(&self) -> f64 {
        if self.newton_iterations == 0 {
            0.0
        } else {
            self.refactorizations_avoided as f64 / self.newton_iterations as f64
        }
    }

    /// Fraction of device evaluations answered from the bypass cache.
    pub fn bypass_rate(&self) -> f64 {
        let total = self.device_evals + self.device_bypasses;
        if total == 0 {
            0.0
        } else {
            self.device_bypasses as f64 / total as f64
        }
    }

    /// Total steps attempted (accepted + both rejection kinds).
    pub fn attempted_steps(&self) -> u64 {
        self.accepted_steps + self.rejected_newton + self.rejected_lte
    }

    /// Adds this run's telemetry into the global `nvpg-obs` `solve.*`
    /// metrics registry. Called once per analysis from its aggregated
    /// stats (never per step), so the registry total equals the sum of
    /// every returned `StepStats` exactly — the reconciliation the
    /// jobs-invariance test asserts. A no-op while tracing is disabled.
    pub fn record_metrics(&self) {
        use nvpg_obs::metrics::{counters, gauges};
        counters::ACCEPTED_STEPS.add(self.accepted_steps);
        counters::REJECTED_NEWTON.add(self.rejected_newton);
        counters::REJECTED_LTE.add(self.rejected_lte);
        counters::NEWTON_ITERATIONS.add(self.newton_iterations);
        counters::NEWTON_SOLVES.add(self.newton_solves);
        counters::LU_REFACTORIZATIONS.add(self.jacobian_refactorizations);
        counters::LU_REUSES.add(self.refactorizations_avoided);
        counters::DEVICE_EVALS.add(self.device_evals);
        counters::DEVICE_DEFERRED_EVALS.add(self.device_deferred_evals);
        counters::DEVICE_BYPASSES.add(self.device_bypasses);
        gauges::MAX_LTE_RATIO.max(self.max_lte_ratio);
    }
}

impl AddAssign for StepStats {
    fn add_assign(&mut self, rhs: StepStats) {
        self.accepted_steps += rhs.accepted_steps;
        self.rejected_newton += rhs.rejected_newton;
        self.rejected_lte += rhs.rejected_lte;
        self.newton_iterations += rhs.newton_iterations;
        self.newton_solves += rhs.newton_solves;
        self.jacobian_refactorizations += rhs.jacobian_refactorizations;
        self.refactorizations_avoided += rhs.refactorizations_avoided;
        self.device_evals += rhs.device_evals;
        self.device_deferred_evals += rhs.device_deferred_evals;
        self.device_bypasses += rhs.device_bypasses;
        self.max_lte_ratio = self.max_lte_ratio.max(rhs.max_lte_ratio);
    }
}

impl fmt::Display for StepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps {} (+{} lte-rejected, +{} newton-rejected), \
             {:.2} iter/solve, {:.0}% stale-LU, {:.0}% device-bypass",
            self.accepted_steps,
            self.rejected_lte,
            self.rejected_newton,
            self.iterations_per_solve(),
            100.0 * self.reuse_rate(),
            100.0 * self.bypass_rate(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_stats() {
        let s = StepStats::default();
        assert_eq!(s.iterations_per_solve(), 0.0);
        assert_eq!(s.reuse_rate(), 0.0);
        assert_eq!(s.bypass_rate(), 0.0);
        assert_eq!(s.attempted_steps(), 0);
    }

    #[test]
    fn aggregation_sums_counters_and_maxes_lte() {
        let mut a = StepStats {
            accepted_steps: 10,
            rejected_lte: 1,
            newton_iterations: 20,
            newton_solves: 11,
            jacobian_refactorizations: 6,
            refactorizations_avoided: 14,
            device_evals: 30,
            device_deferred_evals: 4,
            device_bypasses: 10,
            max_lte_ratio: 0.4,
            ..Default::default()
        };
        let b = StepStats {
            accepted_steps: 5,
            rejected_newton: 2,
            newton_iterations: 10,
            newton_solves: 7,
            device_deferred_evals: 3,
            max_lte_ratio: 0.9,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.accepted_steps, 15);
        assert_eq!(a.device_deferred_evals, 7);
        assert_eq!(a.rejected_newton, 2);
        assert_eq!(a.rejected_lte, 1);
        assert_eq!(a.attempted_steps(), 18);
        assert_eq!(a.newton_iterations, 30);
        assert!((a.max_lte_ratio - 0.9).abs() < 1e-15);
        assert!((a.reuse_rate() - 14.0 / 30.0).abs() < 1e-12);
        assert!((a.bypass_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_is_compact() {
        let s = StepStats {
            accepted_steps: 3,
            newton_iterations: 6,
            newton_solves: 3,
            ..Default::default()
        };
        let text = format!("{s}");
        assert!(text.contains("steps 3"));
        assert!(text.contains("2.00 iter/solve"));
    }
}
