//! Batched execution of domain-scale DC scans (`--batch auto|serial|N`).
//!
//! The batch-shaped studies in this crate — Monte-Carlo variation
//! ([`crate::variation::run_domain_variation`]), thermal scans
//! ([`crate::thermal::domain_leakage_sweep`]), and BET design-space scans
//! ([`crate::bet::bet_design_scan`]) — all reduce to the same kernel:
//! *solve the DC operating point of one domain topology at many design
//! points*. [`solve_domain_designs`] is that kernel. It cuts the point
//! list into chunks of [`BatchMode::lanes`] lanes and makes each chunk
//! one `nvpg-exec` work item, so batching **composes** with job fan-out:
//! lanes run lock-step inside one worker (sharing a symbolic analysis and
//! the factor stacks, see [`nvpg_circuit::batched`]) while chunks fan out
//! across workers.
//!
//! Chunk boundaries depend only on the batch mode — never on `jobs` —
//! and results are folded back in input order, so output is identical at
//! every worker count (the same invariant the figure pipeline holds).
//! On the dense backend a batched point is additionally **bit-identical**
//! to a serial solve of that point, so `--batch N` vs `--batch serial`
//! changes wall-clock, not answers, below the sparse threshold.

pub use nvpg_circuit::batched::{default_batch, set_default_batch, BatchMode, DEFAULT_BATCH_LANES};

use nvpg_cells::array::{checkerboard, ArrayBuilder, CellArray};
use nvpg_cells::design::CellDesign;
use nvpg_cells::domain::{DomainArray, DomainKind};
use nvpg_circuit::{CircuitError, SolverChoice};
use nvpg_exec::{Budget, Settled};

/// Solves the DC operating point of an `rows × cols` domain of `kind`
/// for every design in `designs` — one checkerboard-seeded domain per
/// design point — returning per-point results in input order.
///
/// Points are batched `batch.lanes()` at a time and the chunks fan out
/// over `jobs` workers (`0` = pool default). Every design must produce
/// the same netlist topology (parameter values only may differ), which
/// holds for any scan derived from one base [`CellDesign`].
pub fn solve_domain_designs(
    designs: &[CellDesign],
    kind: DomainKind,
    rows: usize,
    cols: usize,
    batch: BatchMode,
    jobs: usize,
) -> Vec<Result<CellArray, CircuitError>> {
    let lanes = batch.lanes();
    let starts: Vec<usize> = (0..designs.len()).step_by(lanes).collect();
    let settled: Vec<Settled<Vec<Result<CellArray, CircuitError>>, CircuitError>> =
        nvpg_exec::par_map_settled(jobs, &starts, Budget::unlimited(), |_, &start| {
            let end = (start + lanes).min(designs.len());
            // Prepare each lane's netlist; a build failure claims that
            // point's slot and drops the lane from the batch.
            let mut slots: Vec<Option<Result<CellArray, CircuitError>>> =
                (start..end).map(|_| None).collect();
            let mut lanes_built: Vec<(usize, ArrayBuilder)> = Vec::with_capacity(end - start);
            for i in start..end {
                match DomainArray::prepare(
                    designs[i],
                    kind,
                    rows,
                    cols,
                    SolverChoice::Auto,
                    checkerboard,
                ) {
                    Ok(b) => lanes_built.push((i - start, b)),
                    Err(e) => slots[i - start] = Some(Err(e)),
                }
            }
            let (positions, builders): (Vec<usize>, Vec<ArrayBuilder>) =
                lanes_built.into_iter().unzip();
            for (pos, res) in positions
                .into_iter()
                .zip(ArrayBuilder::solve_batch(builders, batch))
            {
                slots[pos] = Some(res);
            }
            Ok(slots.into_iter().map(|s| s.expect("slot filled")).collect())
        });

    let mut out = Vec::with_capacity(designs.len());
    for (k, s) in settled.into_iter().enumerate() {
        let chunk_len = lanes.min(designs.len() - k * lanes);
        match s {
            Settled::Ok(chunk) => out.extend(chunk),
            // The chunk closure is infallible; these arms only fire if a
            // worker dies, and then every point of the chunk reports it.
            Settled::Err(e) => {
                let msg = e.to_string();
                out.extend((0..chunk_len).map(|_| {
                    Err(CircuitError::DcNonConvergence {
                        detail: format!("batch worker failed: {msg}"),
                    })
                }));
            }
            Settled::Panicked(msg) => out.extend((0..chunk_len).map(|_| {
                Err(CircuitError::DcNonConvergence {
                    detail: format!("batch worker panicked: {msg}"),
                })
            })),
            Settled::Skipped => out.extend((0..chunk_len).map(|_| {
                Err(CircuitError::DcNonConvergence {
                    detail: "batch worker skipped".to_owned(),
                })
            })),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varied(shifts: &[f64]) -> Vec<CellDesign> {
        shifts
            .iter()
            .map(|&dv| {
                let mut d = CellDesign::table1();
                d.nmos.vth0 += dv;
                d.pmos.vth0 -= dv;
                d
            })
            .collect()
    }

    fn powers(results: &[Result<CellArray, CircuitError>]) -> Vec<f64> {
        results
            .iter()
            .map(|r| r.as_ref().expect("domain solves").static_power())
            .collect()
    }

    #[test]
    fn batched_scan_is_bit_identical_to_serial_scan() {
        // 2×2 NVPG domains sit far below the sparse threshold, so the
        // dense batched lanes share the serial kernels exactly.
        let designs = varied(&[0.0, 4e-3, -4e-3, 8e-3, -8e-3, 12e-3]);
        let serial = solve_domain_designs(&designs, DomainKind::Nvpg, 2, 2, BatchMode::Serial, 1);
        let batched =
            solve_domain_designs(&designs, DomainKind::Nvpg, 2, 2, BatchMode::Fixed(4), 1);
        for (s, b) in powers(&serial).iter().zip(powers(&batched)) {
            assert_eq!(s.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_composes_with_jobs_without_changing_output() {
        // The satellite acceptance test: `--batch N` at `--jobs 1` and
        // `--jobs 8` (and a different N) must agree point for point —
        // chunk boundaries come from the batch mode, never the pool.
        let designs = varied(&[0.0, 3e-3, -3e-3, 6e-3, -6e-3, 9e-3, -9e-3]);
        let reference =
            solve_domain_designs(&designs, DomainKind::Nvpg, 2, 2, BatchMode::Fixed(3), 1);
        let ref_powers = powers(&reference);
        for jobs in [2, 8] {
            let run =
                solve_domain_designs(&designs, DomainKind::Nvpg, 2, 2, BatchMode::Fixed(3), jobs);
            for (i, (a, b)) in ref_powers.iter().zip(powers(&run)).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "point {i} differs between jobs=1 and jobs={jobs}"
                );
            }
        }
        // Dense path: a different lane width is *also* bit-identical.
        let other = solve_domain_designs(&designs, DomainKind::Nvpg, 2, 2, BatchMode::Auto, 4);
        for (a, b) in ref_powers.iter().zip(powers(&other)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
