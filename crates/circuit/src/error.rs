//! Error types for circuit construction and analysis.

use std::fmt;

/// Errors produced while building or simulating a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// An element value was invalid (non-positive resistance, NaN, …).
    InvalidValue {
        /// Element instance name.
        element: String,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// Duplicate element instance name.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// A named source was not found in the circuit.
    UnknownSource {
        /// The requested name.
        name: String,
    },
    /// The DC operating point failed to converge even with gmin and source
    /// stepping.
    DcNonConvergence {
        /// Diagnostic detail from the last strategy attempted.
        detail: String,
    },
    /// A transient step failed to converge at the minimum step size, even
    /// after the rescue ladder (damped retry, then gmin ramp).
    TransientNonConvergence {
        /// Simulation time at which the failure occurred.
        time: f64,
        /// Name of the unknown with the largest residual at the last
        /// failed solve (`v(<node>)` or `i(<element>)`), when known.
        worst_unknown: String,
        /// ∞-norm of the residual at the last failed solve.
        residual: f64,
    },
    /// The MNA matrix is structurally singular (floating node or voltage
    /// source loop).
    SingularMatrix {
        /// Diagnostic detail.
        detail: String,
    },
    /// The state vector or residual went non-finite (NaN/∞) during a
    /// solve and could not be rescued.
    NonFiniteSolution {
        /// The analysis that hit it (`"dc"` or `"transient"`).
        analysis: &'static str,
        /// Simulation time (transient) or 0 (DC).
        time: f64,
    },
    /// Analysis options failed validation (inverted step bounds,
    /// non-positive or non-finite tolerances, …).
    InvalidOptions {
        /// The offending field, e.g. `"dt_min"`.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// The transient step budget ([`crate::TransientOptions::max_steps`])
    /// was exhausted before `t_stop`.
    StepBudgetExhausted {
        /// Simulation time reached when the budget ran out.
        time: f64,
        /// The exhausted budget.
        steps: u64,
    },
    /// The analysis was cancelled cooperatively: the thread's installed
    /// [`nvpg_numeric::cancel::CancelToken`] fired (explicit cancellation,
    /// deadline expiry, a stalled-progress watchdog, or a disconnected
    /// client). The solver state is left clean — the same workspace can run
    /// a fresh solve afterwards.
    Cancelled {
        /// Why the token fired, e.g. `"deadline exceeded"` or
        /// `"client disconnected"`.
        reason: String,
        /// Wall-clock time from token creation to the checkpoint that
        /// observed the cancellation.
        elapsed: std::time::Duration,
        /// Where the analysis stopped, e.g.
        /// `"transient t = 1.2e-6 s of 5e-6 s (213 steps accepted)"`.
        progress: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidValue { element, reason } => {
                write!(f, "invalid value on element `{element}`: {reason}")
            }
            CircuitError::DuplicateName { name } => {
                write!(f, "duplicate element name `{name}`")
            }
            CircuitError::UnknownSource { name } => {
                write!(f, "no source named `{name}` in the circuit")
            }
            CircuitError::DcNonConvergence { detail } => {
                write!(f, "DC operating point did not converge: {detail}")
            }
            CircuitError::TransientNonConvergence {
                time,
                worst_unknown,
                residual,
            } => {
                write!(
                    f,
                    "transient analysis failed to converge at t = {time:e} s \
                     (worst residual {residual:e} on {unknown})",
                    unknown = if worst_unknown.is_empty() {
                        "<unknown>"
                    } else {
                        worst_unknown
                    }
                )
            }
            CircuitError::SingularMatrix { detail } => {
                write!(f, "singular MNA matrix: {detail}")
            }
            CircuitError::NonFiniteSolution { analysis, time } => {
                write!(
                    f,
                    "{analysis} solve produced a non-finite state vector at t = {time:e} s"
                )
            }
            CircuitError::InvalidOptions { field, reason } => {
                write!(f, "invalid analysis option `{field}`: {reason}")
            }
            CircuitError::StepBudgetExhausted { time, steps } => {
                write!(
                    f,
                    "transient step budget ({steps} steps) exhausted at t = {time:e} s"
                )
            }
            // The elapsed time is deliberately not rendered: report text
            // must stay byte-identical across job counts and reruns, and
            // wall-clock durations are not. Callers that want it (the
            // serving layer's 504 diagnostics) read the field directly.
            CircuitError::Cancelled {
                reason, progress, ..
            } => {
                write!(f, "cancelled ({reason}) at {progress}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

impl From<nvpg_numeric::InvalidOptionsError> for CircuitError {
    fn from(e: nvpg_numeric::InvalidOptionsError) -> Self {
        CircuitError::InvalidOptions {
            field: e.field,
            reason: e.reason,
        }
    }
}

impl CircuitError {
    /// Builds a [`CircuitError::Cancelled`] for the analysis position
    /// `progress`, reading cause and elapsed time from the thread's
    /// installed cancellation token (defaults when none is installed —
    /// reachable only in tests that fabricate outcomes).
    pub(crate) fn cancelled_at(progress: String) -> CircuitError {
        let (reason, elapsed) = nvpg_numeric::cancel::details()
            .unwrap_or_else(|| ("cancelled".to_owned(), std::time::Duration::ZERO));
        CircuitError::Cancelled {
            reason,
            elapsed,
            progress,
        }
    }

    /// A short, stable taxonomy tag for failure reports
    /// (`"dc_nonconvergence"`, `"singular_matrix"`, …).
    pub fn taxonomy(&self) -> &'static str {
        match self {
            CircuitError::InvalidValue { .. } => "invalid_value",
            CircuitError::DuplicateName { .. } => "duplicate_name",
            CircuitError::UnknownSource { .. } => "unknown_source",
            CircuitError::DcNonConvergence { .. } => "dc_nonconvergence",
            CircuitError::TransientNonConvergence { .. } => "transient_nonconvergence",
            CircuitError::SingularMatrix { .. } => "singular_matrix",
            CircuitError::NonFiniteSolution { .. } => "nonfinite_solution",
            CircuitError::InvalidOptions { .. } => "invalid_options",
            CircuitError::StepBudgetExhausted { .. } => "step_budget_exhausted",
            CircuitError::Cancelled { .. } => "cancelled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CircuitError::UnknownSource { name: "vdd".into() };
        assert_eq!(e.to_string(), "no source named `vdd` in the circuit");
        let e = CircuitError::TransientNonConvergence {
            time: 1e-9,
            worst_unknown: "v(q)".into(),
            residual: 3.5e-2,
        };
        assert!(e.to_string().contains("1e-9"));
        assert!(e.to_string().contains("v(q)"));
        assert_eq!(e.taxonomy(), "transient_nonconvergence");
        let e = CircuitError::DuplicateName { name: "r1".into() };
        assert!(e.to_string().contains("r1"));
    }
}
