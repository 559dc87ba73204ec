//! Convergence-rescue telemetry.
//!
//! The DC and transient drivers no longer fail on the first
//! non-convergent Newton solve: they escalate through a ladder of rescue
//! rungs (step shrinking, damped/backtracking Newton, then a gmin ramp)
//! before giving up. [`RescueStats`] counts every rung taken so sweeps
//! and reports can distinguish a clean point from one that survived on
//! the last rung.

use std::fmt;
use std::ops::AddAssign;

/// Counters for every rescue rung an analysis took.
///
/// All counters are zero for a healthy solve, so `stats == RescueStats::default()`
/// is the "no rescue needed" test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RescueStats {
    /// Transient steps rejected and retried at a smaller `dt`.
    pub rejected_steps: u32,
    /// Solves retried with stronger damping and backtracking.
    pub damped_retries: u32,
    /// Solves rescued by ramping an extra gmin down to zero.
    pub gmin_ramps: u32,
    /// Steps/operating points that only converged via a rescue rung.
    pub rescued_solves: u32,
    /// Faults injected by an active [`crate::fault::FaultPlan`].
    pub injected_faults: u32,
}

impl RescueStats {
    /// `true` if any rescue rung fired.
    pub fn any(&self) -> bool {
        *self != RescueStats::default()
    }

    /// Total rescue attempts across all rungs (excluding injected-fault
    /// bookkeeping).
    pub fn attempts(&self) -> u32 {
        self.rejected_steps + self.damped_retries + self.gmin_ramps
    }

    /// Adds this analysis' rescue telemetry into the global `nvpg-obs`
    /// `rescue.*` metrics registry. Called once per analysis from the
    /// aggregated stats, so registry totals reconcile exactly with the
    /// sum of returned `RescueStats`. A no-op while tracing is disabled.
    pub fn record_metrics(&self) {
        use nvpg_obs::metrics::counters;
        counters::RESCUE_REJECTED_STEPS.add(self.rejected_steps.into());
        counters::RESCUE_DAMPED_RETRIES.add(self.damped_retries.into());
        counters::RESCUE_GMIN_RAMPS.add(self.gmin_ramps.into());
        counters::RESCUE_RESCUED_SOLVES.add(self.rescued_solves.into());
        counters::RESCUE_INJECTED_FAULTS.add(self.injected_faults.into());
    }
}

impl AddAssign for RescueStats {
    fn add_assign(&mut self, rhs: RescueStats) {
        self.rejected_steps += rhs.rejected_steps;
        self.damped_retries += rhs.damped_retries;
        self.gmin_ramps += rhs.gmin_ramps;
        self.rescued_solves += rhs.rescued_solves;
        self.injected_faults += rhs.injected_faults;
    }
}

impl fmt::Display for RescueStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.any() {
            return write!(f, "clean");
        }
        let mut parts: Vec<String> = Vec::new();
        for (count, label) in [
            (self.rejected_steps, "rejected-step"),
            (self.damped_retries, "damped-retry"),
            (self.gmin_ramps, "gmin-ramp"),
            (self.rescued_solves, "rescued"),
            (self.injected_faults, "injected-fault"),
        ] {
            if count > 0 {
                parts.push(format!("{label}×{count}"));
            }
        }
        write!(f, "{}", parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean() {
        let s = RescueStats::default();
        assert!(!s.any());
        assert_eq!(s.attempts(), 0);
        assert_eq!(s.to_string(), "clean");
    }

    #[test]
    fn accumulation_and_display() {
        let mut a = RescueStats {
            rejected_steps: 2,
            ..RescueStats::default()
        };
        a += RescueStats {
            gmin_ramps: 1,
            rescued_solves: 1,
            ..RescueStats::default()
        };
        assert!(a.any());
        assert_eq!(a.attempts(), 3);
        let s = a.to_string();
        assert!(s.contains("rejected-step×2"), "{s}");
        assert!(s.contains("gmin-ramp×1"), "{s}");
    }
}
