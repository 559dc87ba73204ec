//! The every-deck differential matrix: dense×sparse, DC and transient,
//! plus jobs-invariance and seeded random-netlist equivalence — all
//! driven from the single deck registry
//! ([`nvpg_circuit::registry::registry`]).
//!
//! The dense solve is the *reference axis*: every other cell of
//! the matrix is compared against it under the committed
//! [`Tolerance::MATRIX`] bound. Jobs-invariance is stricter — scheduling
//! must not change arithmetic at all, so `jobs=1` and `jobs=N` results
//! are compared bit-for-bit (`f64::to_bits`), not within a tolerance.

use nvpg_circuit::dc::{operating_point, DcOptions};
use nvpg_circuit::registry::{random_circuit, DeckSpec};
use nvpg_circuit::transient::{transient, TransientOptions};
use nvpg_circuit::{Circuit, CircuitError, SolverChoice};
use nvpg_exec::par_map;
use nvpg_obs::metrics::counters;

use super::{Tolerance, ValidationReport};

/// What the matrix runs and how strictly it compares.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Worker count for the jobs-invariance arm (`0` → the machine's
    /// available parallelism). The `jobs=1` side is always run too.
    pub jobs: usize,
    /// Cross-backend comparison tolerance.
    pub tolerance: Tolerance,
    /// Restrict to these registry deck ids (`None` = every deck).
    pub decks: Option<Vec<String>>,
    /// Also run the transient dense-vs-sparse arm.
    pub include_tran: bool,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            jobs: 0,
            tolerance: Tolerance::MATRIX,
            decks: None,
            include_tran: true,
        }
    }
}

impl MatrixConfig {
    fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            nvpg_exec::available_parallelism()
        } else {
            self.jobs
        }
    }

    /// The decks this configuration covers, in corpus order (the parser
    /// registry followed by the programmatic macro decks).
    pub fn selected(&self) -> Vec<DeckSpec> {
        super::all_decks()
            .into_iter()
            .filter(|spec| {
                self.decks
                    .as_ref()
                    .map(|ids| ids.iter().any(|id| id == spec.id))
                    .unwrap_or(true)
            })
            .collect()
    }
}

fn dc_vector(ckt: &mut Circuit, solver: SolverChoice) -> Result<Vec<f64>, CircuitError> {
    let opts = DcOptions {
        solver,
        ..DcOptions::default()
    };
    operating_point(ckt, &opts).map(|s| s.as_slice().to_vec())
}

fn tran_vector(
    ckt: &mut Circuit,
    t_stop: f64,
    solver: SolverChoice,
) -> Result<Vec<f64>, CircuitError> {
    let dc = DcOptions {
        solver,
        ..DcOptions::default()
    };
    let initial = operating_point(ckt, &dc)?;
    let opts = TransientOptions {
        solver,
        ..TransientOptions::to(t_stop)
    };
    transient(ckt, &opts, &initial).map(|r| r.final_state.as_slice().to_vec())
}

/// Compares one matrix cell against the reference vector: a single
/// check, failing with the worst unknown's index and values.
fn compare_cell(
    report: &mut ValidationReport,
    suite: &str,
    check: &str,
    tol: &Tolerance,
    reference: &[f64],
    got: &[f64],
) {
    counters::VALIDATE_MATRIX_POINTS.add(1);
    if reference.len() != got.len() {
        report.fail(
            suite,
            check,
            "matrix_mismatch",
            format!(
                "dimension mismatch: reference {} unknowns vs {}",
                reference.len(),
                got.len()
            ),
        );
        return;
    }
    let mut worst: Option<(usize, f64)> = None;
    for (i, (&r, &g)) in reference.iter().zip(got).enumerate() {
        let excess = (r - g).abs() - tol.margin(r, g);
        if worst.map(|(_, w)| excess > w).unwrap_or(true) {
            worst = Some((i, excess));
        }
    }
    match worst {
        Some((i, excess)) if excess > 0.0 => {
            report.fail(
                suite,
                check,
                "matrix_mismatch",
                format!(
                    "unknown {i} differs: reference {:e} vs {:e} (exceeds {tol} by {excess:e})",
                    reference[i], got[i]
                ),
            );
        }
        _ => report.pass(suite, check),
    }
}

/// Runs the full differential matrix and returns its report.
pub fn run_matrix(cfg: &MatrixConfig) -> ValidationReport {
    let mut report = ValidationReport::new();
    let decks = cfg.selected();

    for spec in &decks {
        // Reference axis: dense DC.
        let reference = match dc_vector(&mut spec.circuit(), SolverChoice::Dense) {
            Ok(v) => v,
            Err(e) => {
                report.fail("matrix:dc", spec.id, e.taxonomy(), e.to_string());
                continue;
            }
        };

        // Sparse.
        match dc_vector(&mut spec.circuit(), SolverChoice::Sparse) {
            Ok(v) => compare_cell(
                &mut report,
                "matrix:dc",
                &format!("{} sparse-serial", spec.id),
                &cfg.tolerance,
                &reference,
                &v,
            ),
            Err(e) => report.fail(
                "matrix:dc",
                format!("{} sparse-serial", spec.id),
                e.taxonomy(),
                e.to_string(),
            ),
        }

        // Transient: dense reference vs sparse, final-state compare.
        if cfg.include_tran && spec.t_stop > 0.0 {
            match (
                tran_vector(&mut spec.circuit(), spec.t_stop, SolverChoice::Dense),
                tran_vector(&mut spec.circuit(), spec.t_stop, SolverChoice::Sparse),
            ) {
                (Ok(dense), Ok(sparse)) => compare_cell(
                    &mut report,
                    "matrix:tran",
                    &format!("{} dense-vs-sparse", spec.id),
                    &cfg.tolerance,
                    &dense,
                    &sparse,
                ),
                (Err(e), _) | (_, Err(e)) => report.fail(
                    "matrix:tran",
                    format!("{} dense-vs-sparse", spec.id),
                    e.taxonomy(),
                    e.to_string(),
                ),
            }
        }
    }

    jobs_invariance(cfg, &decks, &mut report);
    report
}

/// Scheduling must not change arithmetic: the dense DC solve of every
/// deck through `par_map` with `jobs=1` and `jobs=N` must produce
/// byte-identical results (`f64::to_bits`), not merely close ones.
fn jobs_invariance(cfg: &MatrixConfig, decks: &[DeckSpec], report: &mut ValidationReport) {
    let solve = |_i: usize, spec: &DeckSpec| -> Result<Vec<u64>, String> {
        dc_vector(&mut spec.circuit(), SolverChoice::Dense)
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .map_err(|e| e.taxonomy().to_owned())
    };
    let serial = par_map(1, decks, solve);
    let parallel = par_map(cfg.effective_jobs(), decks, solve);
    for ((spec, a), b) in decks.iter().zip(serial).zip(parallel) {
        counters::VALIDATE_MATRIX_POINTS.add(1);
        let check = format!("{} jobs=1 vs jobs={}", spec.id, cfg.effective_jobs());
        if a == b {
            report.pass("matrix:jobs", check);
        } else {
            report.fail(
                "matrix:jobs",
                check,
                "jobs_variance",
                "dense DC result is not byte-identical across worker counts",
            );
        }
    }
}

/// Property-based equivalence over seeded random netlists: dense and
/// sparse DC must reach the same *outcome* — matching solutions when
/// both converge, the same failure taxonomy when neither does, and a
/// failure if exactly one backend converges.
pub fn run_random_equivalence(count: u64, seed_base: u64, tol: &Tolerance) -> ValidationReport {
    let mut report = ValidationReport::new();
    for i in 0..count {
        let seed = seed_base.wrapping_add(i);
        counters::VALIDATE_MATRIX_POINTS.add(1);
        let check = format!("seed {seed}");
        let dense = dc_vector(&mut random_circuit(seed), SolverChoice::Dense);
        let sparse = dc_vector(&mut random_circuit(seed), SolverChoice::Sparse);
        match (dense, sparse) {
            (Ok(d), Ok(s)) => {
                compare_cell(&mut report, "matrix:random", &check, tol, &d, &s);
            }
            (Err(d), Err(s)) => {
                if d.taxonomy() == s.taxonomy() {
                    report.pass("matrix:random", check);
                } else {
                    report.fail(
                        "matrix:random",
                        check,
                        "matrix_mismatch",
                        format!(
                            "backends fail differently: dense `{}` vs sparse `{}`",
                            d.taxonomy(),
                            s.taxonomy()
                        ),
                    );
                }
            }
            (d, s) => {
                report.fail(
                    "matrix:random",
                    check,
                    "matrix_mismatch",
                    format!(
                        "one backend converged, the other did not (dense ok={}, sparse ok={})",
                        d.is_ok(),
                        s.is_ok()
                    ),
                );
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MatrixConfig {
        MatrixConfig {
            jobs: 2,
            decks: Some(vec!["divider".into(), "rc_lowpass".into()]),
            ..MatrixConfig::default()
        }
    }

    #[test]
    fn small_matrix_is_green() {
        let report = run_matrix(&small_cfg());
        assert!(report.passed(), "{report}");
        // 2 decks × (sparse-serial + tran + jobs).
        assert_eq!(report.run.records.len(), 2 * 3, "{report}");
    }

    #[test]
    fn impossible_tolerance_turns_the_matrix_red() {
        // The bless-refusal path: with an unsatisfiable tolerance every
        // comparison cell fails while solver errors stay absent, proving
        // failures flow from the compare, not from the solves.
        let cfg = MatrixConfig {
            tolerance: Tolerance {
                abs: -1.0,
                rel: 0.0,
            },
            include_tran: false,
            ..small_cfg()
        };
        let report = run_matrix(&cfg);
        assert!(!report.passed());
        assert_eq!(
            report.run.taxonomy_counts().get("matrix_mismatch"),
            Some(&2usize),
            "{report}"
        );
    }

    #[test]
    fn random_equivalence_holds_on_a_seed_window() {
        let report = run_random_equivalence(8, 0, &Tolerance::MATRIX);
        assert!(report.passed(), "{report}");
        assert_eq!(report.run.records.len(), 8);
    }
}
