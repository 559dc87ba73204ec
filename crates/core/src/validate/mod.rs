//! Golden-reference validation harness.
//!
//! The simulator's accuracy contract is enforced from three independent
//! directions, all funnelled into one [`ValidationReport`]:
//!
//! * **Committed goldens** ([`golden`]) — per-deck JSON reference
//!   results under `goldens/`, each carrying its own per-analysis
//!   abs/rel [`Tolerance`]. A solver change that silently moves a node
//!   voltage past tolerance turns the suite red; an intentional change
//!   is re-blessed with [`golden::bless`], which *refuses* to write new
//!   goldens while the differential matrix disagrees with itself.
//! * **Differential matrix** ([`matrix`]) — every registry deck through
//!   dense×sparse × serial×shared-workspace, DC and transient, plus a
//!   jobs-invariance bit-compare (`jobs=1` vs `jobs=N` must be
//!   byte-identical) and seeded random-netlist equivalence.
//! * **External oracle** ([`ngspice`]) — optional DC cross-check against
//!   an `ngspice` binary when one is on `PATH`; absence is a *counted
//!   skip*, never a silent pass and never a failure.
//!
//! Failures reuse the [`RunReport`] taxonomy, so
//! `validate --check` output reads exactly like a figures-run failures
//! appendix and CI can grep one format.

pub mod golden;
pub mod matrix;
pub mod ngspice;

pub use golden::{bless, check_goldens, golden_path, Golden, GoldenError, GoldenSignals};
pub use matrix::{run_matrix, run_random_equivalence, MatrixConfig};
pub use ngspice::{ngspice_available, run_ngspice_checks};

use std::fmt;

use crate::report::{PointStatus, RunReport};
use nvpg_circuit::registry::{registry, DeckSpec};
use nvpg_circuit::RescueStats;
use nvpg_obs::metrics::counters;

/// The complete deck corpus the harness validates: the parser registry
/// plus the programmatic macro decks from `nvpg-macro` (which
/// `nvpg-circuit` cannot list itself without a dependency cycle). The
/// matrix, golden check and bless paths all enumerate this list, so a
/// macro deck gets exactly the coverage a hand-written one does.
pub fn all_decks() -> Vec<DeckSpec> {
    let mut decks = registry();
    decks.extend(nvpg_macro::macro_decks());
    decks
}

/// Absolute + relative comparison tolerance. Two values agree when
/// `|a - b| <= abs + rel * max(|a|, |b|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute floor, in the signal's own unit (volts here).
    pub abs: f64,
    /// Relative term, scaled by the larger magnitude.
    pub rel: f64,
}

impl Tolerance {
    /// DC operating points: both backends converge the same Newton
    /// iteration to the same criteria, so only solve round-off remains.
    pub const DC: Tolerance = Tolerance {
        abs: 1e-9,
        rel: 1e-7,
    };

    /// Transient samples: adaptive-step history amplifies round-off, so
    /// the committed bound is looser than DC but still far below any
    /// physical signal level in the study (~0.9 V rails).
    pub const TRAN: Tolerance = Tolerance {
        abs: 1e-7,
        rel: 1e-5,
    };

    /// Cross-backend matrix comparisons (identical to the tolerances the
    /// in-crate differential suites commit to).
    pub const MATRIX: Tolerance = Tolerance {
        abs: 1e-7,
        rel: 1e-6,
    };

    /// The allowed deviation for a concrete pair of values.
    pub fn margin(&self, a: f64, b: f64) -> f64 {
        self.abs + self.rel * a.abs().max(b.abs())
    }

    /// `true` when `a` and `b` agree within this tolerance.
    pub fn within(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.margin(a, b)
    }
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "abs {:e} / rel {:e}", self.abs, self.rel)
    }
}

/// One signal's worst observed deviation in a golden comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalDeviation {
    /// Signal name (`"v(out)"`).
    pub signal: String,
    /// Freshly simulated value at the worst point.
    pub actual: f64,
    /// Committed golden value at the worst point.
    pub expected: f64,
    /// `|actual - expected|`.
    pub abs_dev: f64,
    /// Tolerance margin at the worst point.
    pub margin: f64,
    /// `true` when the deviation is inside tolerance.
    pub within: bool,
}

/// The aggregated outcome of a validation run: a [`RunReport`] holding
/// every check verdict (taxonomy-tagged on failure), the out-of-tolerance
/// deviations for rendering, and the counted external-oracle skips.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// One record per check, in execution order.
    pub run: RunReport,
    /// Out-of-tolerance signal deviations (empty on a green run).
    pub deviations: Vec<SignalDeviation>,
    /// ngspice cross-checks skipped because the binary is absent.
    pub ngspice_skipped: usize,
}

impl ValidationReport {
    /// An empty report.
    pub fn new() -> Self {
        ValidationReport::default()
    }

    /// Records one passing check.
    pub fn pass(&mut self, suite: &str, check: impl Into<String>) {
        counters::VALIDATE_CHECKS.add(1);
        self.run
            .push(suite, check, PointStatus::Ok, RescueStats::default());
    }

    /// Records one failing check with its taxonomy tag.
    pub fn fail(
        &mut self,
        suite: &str,
        check: impl Into<String>,
        taxonomy: impl Into<String>,
        message: impl Into<String>,
    ) {
        counters::VALIDATE_CHECKS.add(1);
        self.run.push(
            suite,
            check,
            PointStatus::Failed {
                taxonomy: taxonomy.into(),
                message: message.into(),
            },
            RescueStats::default(),
        );
    }

    /// Records an out-of-tolerance deviation (alongside its failed check).
    pub fn push_deviation(&mut self, dev: SignalDeviation) {
        if !dev.within {
            counters::VALIDATE_DEVIATIONS.add(1);
        }
        self.deviations.push(dev);
    }

    /// Merges another report after this one.
    pub fn extend(&mut self, other: ValidationReport) {
        self.run.extend(other.run);
        self.deviations.extend(other.deviations);
        self.ngspice_skipped += other.ngspice_skipped;
    }

    /// `true` when every check passed (skips do not fail a run).
    pub fn passed(&self) -> bool {
        self.run.all_ok()
    }

    /// Renders the report: the run-report summary/appendix, then the
    /// deviation table and the skip count.
    pub fn render(&self) -> String {
        let mut out = self.run.render();
        if !self.deviations.is_empty() {
            out.push_str("deviations:\n");
            for d in &self.deviations {
                out.push_str(&format!(
                    "  {} actual {:e} expected {:e} |dev| {:e} margin {:e}{}\n",
                    d.signal,
                    d.actual,
                    d.expected,
                    d.abs_dev,
                    d.margin,
                    if d.within { " (within)" } else { "" },
                ));
            }
        }
        if self.ngspice_skipped > 0 {
            out.push_str(&format!(
                "ngspice: {} cross-checks skipped (no binary on PATH)\n",
                self.ngspice_skipped
            ));
        }
        out
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_margin_is_abs_plus_scaled_rel() {
        let tol = Tolerance {
            abs: 1e-3,
            rel: 1e-2,
        };
        assert!((tol.margin(1.0, -2.0) - (1e-3 + 2e-2)).abs() < 1e-15);
        // margin(1.0, ~1.011) ≈ 1e-3 + 1e-2·1.011 ≈ 1.111e-2.
        assert!(tol.within(1.0, 1.0 + 1.1e-2));
        assert!(!tol.within(1.0, 1.0 + 1.2e-2));
        // Pure-absolute regime near zero.
        assert!(tol.within(0.0, 9e-4));
        assert!(!tol.within(0.0, 2e-3));
    }

    #[test]
    fn report_aggregates_and_renders_failures() {
        let mut rep = ValidationReport::new();
        rep.pass("matrix:dc", "divider sparse-serial");
        rep.fail("golden:dc", "divider", "golden_deviation", "v(out) drifted");
        rep.push_deviation(SignalDeviation {
            signal: "v(out)".into(),
            actual: 0.51,
            expected: 0.5,
            abs_dev: 0.01,
            margin: 1e-7,
            within: false,
        });
        rep.ngspice_skipped = 3;
        assert!(!rep.passed());
        assert_eq!(rep.run.failed(), 1);
        assert_eq!(rep.run.taxonomy_counts().get("golden_deviation"), Some(&1));
        let text = rep.render();
        assert!(
            text.contains("golden:dc / divider [golden_deviation]"),
            "{text}"
        );
        assert!(text.contains("deviations:"), "{text}");
        assert!(text.contains("3 cross-checks skipped"), "{text}");
    }

    #[test]
    fn extend_concatenates_everything() {
        let mut a = ValidationReport::new();
        a.pass("x", "p");
        let mut b = ValidationReport::new();
        b.fail("y", "q", "matrix_mismatch", "boom");
        b.ngspice_skipped = 1;
        a.extend(b);
        assert_eq!(a.run.records.len(), 2);
        assert_eq!(a.ngspice_skipped, 1);
        assert!(!a.passed());
    }
}
