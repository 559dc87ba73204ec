//! Domain-scale DC scans on shared Newton workspaces.
//!
//! The batch-shaped studies in this crate — Monte-Carlo variation
//! ([`crate::variation::run_domain_variation`]), thermal scans
//! ([`crate::thermal::domain_leakage_sweep`]), and BET design-space scans
//! ([`crate::bet::bet_design_scan`]) — all reduce to the same kernel:
//! *solve the DC operating point of one domain topology at many design
//! points*. [`solve_domain_designs`] is that kernel. It cuts the point
//! list into chunks of 64 points; each chunk is one `nvpg-exec`
//! work item whose points share one Newton workspace
//! ([`nvpg_circuit::dc::operating_points`]: one symbolic analysis on the
//! sparse backend), while chunks fan out across workers.
//!
//! Chunk boundaries depend only on the input — never on `jobs` — and
//! results are folded back in input order, so output is identical at
//! every worker count (the same invariant the figure pipeline holds). On
//! the dense backend a scan point is additionally **bit-identical** to a
//! standalone solve of that design.

use nvpg_cells::array::{checkerboard, ArrayBuilder, CellArray};
use nvpg_cells::design::CellDesign;
use nvpg_cells::domain::{DomainArray, DomainKind};
use nvpg_circuit::{CircuitError, SolverChoice};
use nvpg_exec::{Budget, Settled};

/// Points per chunk: the points that share one workspace and one work
/// item.
const CHUNK: usize = 64;

/// Solves the DC operating point of an `rows × cols` domain of `kind`
/// for every design in `designs` — one checkerboard-seeded domain per
/// design point — returning per-point results in input order.
///
/// Points are solved in chunks that each share one Newton workspace, and
/// the chunks fan out over `jobs` workers (`0` = pool default). Every
/// design must produce the same netlist topology (parameter values only
/// may differ), which holds for any scan derived from one base
/// [`CellDesign`].
pub fn solve_domain_designs(
    designs: &[CellDesign],
    kind: DomainKind,
    rows: usize,
    cols: usize,
    jobs: usize,
) -> Vec<Result<CellArray, CircuitError>> {
    solve_in_chunks(designs, kind, rows, cols, CHUNK, jobs)
}

/// [`solve_domain_designs`] with an explicit chunk length.
fn solve_in_chunks(
    designs: &[CellDesign],
    kind: DomainKind,
    rows: usize,
    cols: usize,
    chunk: usize,
    jobs: usize,
) -> Vec<Result<CellArray, CircuitError>> {
    let starts: Vec<usize> = (0..designs.len()).step_by(chunk).collect();
    let settled: Vec<Settled<Vec<Result<CellArray, CircuitError>>, CircuitError>> =
        nvpg_exec::par_map_settled(jobs, &starts, Budget::unlimited(), |_, &start| {
            let end = (start + chunk).min(designs.len());
            // Prepare each point's netlist; a build failure claims that
            // point's slot and drops it from the shared solve.
            let mut slots: Vec<Option<Result<CellArray, CircuitError>>> =
                (start..end).map(|_| None).collect();
            let mut built: Vec<(usize, ArrayBuilder)> = Vec::with_capacity(end - start);
            for i in start..end {
                match DomainArray::prepare(
                    designs[i],
                    kind,
                    rows,
                    cols,
                    SolverChoice::Auto,
                    checkerboard,
                ) {
                    Ok(b) => built.push((i - start, b)),
                    Err(e) => slots[i - start] = Some(Err(e)),
                }
            }
            let (positions, builders): (Vec<usize>, Vec<ArrayBuilder>) = built.into_iter().unzip();
            for (pos, res) in positions
                .into_iter()
                .zip(ArrayBuilder::solve_batch(builders))
            {
                slots[pos] = Some(res);
            }
            Ok(slots.into_iter().map(|s| s.expect("slot filled")).collect())
        });

    let mut out = Vec::with_capacity(designs.len());
    for (k, s) in settled.into_iter().enumerate() {
        let chunk_len = chunk.min(designs.len() - k * chunk);
        match s {
            Settled::Ok(points) => out.extend(points),
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
    fn scan_points_equal_standalone_domain_solves() {
        // Below the sparse threshold the shared workspace runs the same
        // dense arithmetic as a fresh one, so every scan point must be
        // the standalone solve of its design, bit for bit.
        for (rows, cols, shifts) in [
            (2, 2, &[0.0, 4e-3, -4e-3, 8e-3, -8e-3, 12e-3][..]),
            (4, 4, &[0.0, 5e-3, -5e-3, 10e-3][..]),
        ] {
            let designs = varied(shifts);
            let scan = solve_domain_designs(&designs, DomainKind::Nvpg, rows, cols, 1);
            assert_eq!(scan.len(), designs.len());
            for (i, (d, res)) in designs.iter().zip(&scan).enumerate() {
                let point = res.as_ref().expect("scan point solves");
                let alone = DomainArray::prepare(
                    *d,
                    DomainKind::Nvpg,
                    rows,
                    cols,
                    SolverChoice::Auto,
                    checkerboard,
                )
                .unwrap()
                .solve()
                .unwrap();
                let label = format!("{rows}x{cols} point {i}");
                assert_eq!(point.pattern(), alone.pattern(), "{label}");
                for (x, y) in point
                    .state()
                    .as_slice()
                    .iter()
                    .zip(alone.state().as_slice())
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "{label}: {x} vs {y}");
                }
                assert_eq!(
                    point.static_power().to_bits(),
                    alone.static_power().to_bits(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn chunking_composes_with_jobs_without_changing_output() {
        // Chunk boundaries come from the input, never the pool: 3-point
        // chunks at jobs 1, 2 and 8 agree point for point, and (dense
        // path) with the production chunk length too.
        let designs = varied(&[0.0, 3e-3, -3e-3, 6e-3, -6e-3, 9e-3, -9e-3]);
        let reference = powers(&solve_in_chunks(&designs, DomainKind::Nvpg, 2, 2, 3, 1));
        for jobs in [2, 8] {
            let run = solve_in_chunks(&designs, DomainKind::Nvpg, 2, 2, 3, jobs);
            for (i, (a, b)) in reference.iter().zip(powers(&run)).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "point {i} differs between jobs=1 and jobs={jobs}"
                );
            }
        }
        let one_chunk = solve_domain_designs(&designs, DomainKind::Nvpg, 2, 2, 4);
        for (a, b) in reference.iter().zip(powers(&one_chunk)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
