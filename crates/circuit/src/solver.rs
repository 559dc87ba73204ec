//! Linear-solver selection: dense for cell-sized systems, sparse for
//! array-scale ones.
//!
//! Every analysis option struct ([`crate::dc::DcOptions`],
//! [`crate::transient::TransientOptions`]) carries a [`SolverChoice`];
//! `Auto` (the default everywhere) resolves from the unknown count alone:
//! systems with at least [`SPARSE_THRESHOLD`] unknowns get the sparse
//! backend, smaller ones stay dense. Both backends produce the same solutions (within solver
//! tolerances) and support the full rescue ladder, modified-Newton reuse,
//! and fault injection.

use std::fmt;
use std::str::FromStr;

use nvpg_numeric::newton::{NewtonOptions, NewtonSolver};

use crate::circuit::Circuit;
use crate::engine;

/// Unknown-count threshold at which `Auto` engages the sparse backend. One
/// NV-SRAM cell plus drivers is ~40 unknowns (dense wins comfortably); an
/// 8×8 array is already past this threshold.
pub const SPARSE_THRESHOLD: usize = 256;

/// Which linear-solver backend an analysis should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Pick by the unknown count ([`SPARSE_THRESHOLD`]).
    #[default]
    Auto,
    /// Force the dense LU backend.
    Dense,
    /// Force the sparse LU backend.
    Sparse,
}

impl SolverChoice {
    /// Resolves the choice for a system of `unknowns` unknowns: `true`
    /// means the sparse backend.
    pub fn use_sparse(self, unknowns: usize) -> bool {
        match self {
            SolverChoice::Dense => false,
            SolverChoice::Sparse => true,
            SolverChoice::Auto => unknowns >= SPARSE_THRESHOLD,
        }
    }
}

impl fmt::Display for SolverChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SolverChoice::Auto => "auto",
            SolverChoice::Dense => "dense",
            SolverChoice::Sparse => "sparse",
        })
    }
}

/// A string was not a recognised solver choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSolverChoiceError(pub String);

impl fmt::Display for ParseSolverChoiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown solver `{}` (expected auto, dense, or sparse)",
            self.0
        )
    }
}

impl std::error::Error for ParseSolverChoiceError {}

impl FromStr for SolverChoice {
    type Err = ParseSolverChoiceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(SolverChoice::Auto),
            "dense" => Ok(SolverChoice::Dense),
            "sparse" => Ok(SolverChoice::Sparse),
            other => Err(ParseSolverChoiceError(other.to_owned())),
        }
    }
}

/// Builds the Newton workspace for `circuit` on the backend `choice`
/// resolves to; the sparse backend gets the circuit's structural pattern
/// (one symbolic analysis per topology, reused for every factorisation).
pub(crate) fn build_newton(
    circuit: &mut Circuit,
    options: NewtonOptions,
    choice: SolverChoice,
) -> NewtonSolver {
    if choice.use_sparse(circuit.unknown_count()) {
        let pattern = engine::jacobian_pattern(circuit);
        NewtonSolver::with_sparse(options, &pattern)
    } else {
        NewtonSolver::new(options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for c in [
            SolverChoice::Auto,
            SolverChoice::Dense,
            SolverChoice::Sparse,
        ] {
            assert_eq!(c.to_string().parse::<SolverChoice>().unwrap(), c);
        }
        assert!("klu".parse::<SolverChoice>().is_err());
        assert_eq!(
            "SPARSE".parse::<SolverChoice>().unwrap(),
            SolverChoice::Sparse
        );
    }

    #[test]
    fn explicit_choice_wins_over_threshold() {
        assert!(SolverChoice::Sparse.use_sparse(2));
        assert!(!SolverChoice::Dense.use_sparse(100_000));
        assert!(!SolverChoice::Auto.use_sparse(SPARSE_THRESHOLD - 1));
        assert!(SolverChoice::Auto.use_sparse(SPARSE_THRESHOLD));
    }
}
