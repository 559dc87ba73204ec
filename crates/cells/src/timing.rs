//! Cell timing characterisation.
//!
//! The paper's performance claim is temporal, not just energetic: "the
//! NV-SRAM cell with the NVPG architecture can have the same read/write
//! speed as the 6T-SRAM cell" (§IV). This module measures the relevant
//! delays from the transient waveforms:
//!
//! * **write time** — wordline edge to storage-node crossover;
//! * **read development time** — wordline edge until the differential
//!   bitline-driver current exceeds a sense threshold;
//! * **restore time** — power-switch turn-on until the storage nodes
//!   separate to 80 % of V_DD (NV cell only).

use nvpg_circuit::CircuitError;

use crate::bench::CellBench;
use crate::cell::{CellKind, MtjConfig};
use crate::design::CellDesign;
use crate::engine::PhaseResult;

/// Measured cell delays (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Wordline edge → storage-node crossover during a write.
    pub t_write: f64,
    /// Wordline edge → differential bitline current above the sense
    /// threshold during a read.
    pub t_read_develop: f64,
    /// Power-up → storage nodes separated to 80 % V_DD during a restore
    /// (`None` for the volatile cell).
    pub t_restore: Option<f64>,
}

/// Sense-amplifier current threshold used for the read-development time.
const SENSE_CURRENT: f64 = 10e-6;

/// A recorded signal of `phase`.
fn signal<'a>(phase: &'a PhaseResult, name: &str) -> &'a [f64] {
    phase.trace.signal(name).expect("recorded")
}

/// Time of the first sample of `phase` at or after `t0` whose index
/// satisfies `hit`.
fn first_time(phase: &PhaseResult, t0: f64, hit: impl Fn(usize) -> bool) -> Option<f64> {
    let time = phase.trace.time();
    (0..time.len())
        .find(|&k| time[k] >= t0 && hit(k))
        .map(|k| time[k])
}

/// Measures the timing report for a cell kind at the given design point.
///
/// # Errors
///
/// Propagates simulation errors; returns
/// [`CircuitError::DcNonConvergence`] (with detail) if an expected
/// waveform crossing never happens — that means the cell failed the
/// operation, which callers should treat as a design failure.
pub fn timing(design: &CellDesign, kind: CellKind) -> Result<TimingReport, CircuitError> {
    let c = design.conditions;
    let t_cycle = c.cycle_time();
    let wl_edge = 0.1 * t_cycle; // the bench raises WL at 0.1·T

    let missing = |what: &str| CircuitError::DcNonConvergence {
        detail: format!("timing: {what} crossing not found"),
    };

    // Write time: start at Q = 1, write 0, watch the crossover.
    let mut bench = CellBench::new(*design, kind, true, MtjConfig::stored(true))?;
    let write = bench.write(false)?;
    let (q, qb) = (signal(&write, "v(q)"), signal(&write, "v(qb)"));
    let t_flip = first_time(&write, wl_edge, |k| {
        k > 0 && qb[k] >= q[k] && qb[k - 1] < q[k - 1]
    })
    .ok_or_else(|| missing("write crossover"))?;
    let t_write = t_flip - wl_edge;

    // Read development: fresh cell, Q = 1, read; watch |i(vbl) − i(vblb)|.
    let mut bench = CellBench::new(*design, kind, true, MtjConfig::stored(true))?;
    let read = bench.read()?;
    let (ibl, iblb) = (signal(&read, "i(vbl)"), signal(&read, "i(vblb)"));
    let t_dev = first_time(&read, wl_edge, |k| (ibl[k] - iblb[k]).abs() > SENSE_CURRENT)
        .ok_or_else(|| missing("read development"))?;
    let t_read_develop = t_dev - wl_edge;

    // Restore time (NV only): full power cycle, watch node separation.
    let t_restore = if matches!(kind, CellKind::NvSram) {
        let mut bench = CellBench::new(*design, kind, true, MtjConfig::stored(false))?;
        bench.store()?;
        bench.shutdown_enter(true, 3e-9)?;
        bench.idle(400e-9)?;
        let restore = bench.restore()?;
        let (q, qb) = (signal(&restore, "v(q)"), signal(&restore, "v(qb)"));
        let target = 0.8 * c.vdd;
        let t_on = 0.05 * c.restore_duration; // switch gate starts falling
        let t_sep = first_time(&restore, t_on, |k| (q[k] - qb[k]).abs() > target)
            .ok_or_else(|| missing("restore separation"))?;
        Some(t_sep - t_on)
    } else {
        None
    };

    Ok(TimingReport {
        t_write,
        t_read_develop,
        t_restore,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_sub_cycle() {
        let d = CellDesign::table1();
        let t = timing(&d, CellKind::Volatile6T).unwrap();
        let cycle = d.conditions.cycle_time();
        assert!(t.t_write > 0.0 && t.t_write < 0.6 * cycle, "{t:?}");
        assert!(
            t.t_read_develop > 0.0 && t.t_read_develop < 0.6 * cycle,
            "{t:?}"
        );
        assert_eq!(t.t_restore, None);
    }

    #[test]
    fn nv_cell_matches_6t_speed() {
        // The headline separation claim, in the time domain: NV read and
        // write delays within 10 % of the 6T cell's.
        let d = CellDesign::table1();
        let t6 = timing(&d, CellKind::Volatile6T).unwrap();
        let tn = timing(&d, CellKind::NvSram).unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        assert!(
            rel(tn.t_write, t6.t_write) < 0.10,
            "write: NV {} vs 6T {}",
            tn.t_write,
            t6.t_write
        );
        assert!(
            rel(tn.t_read_develop, t6.t_read_develop) < 0.10,
            "read: NV {} vs 6T {}",
            tn.t_read_develop,
            t6.t_read_develop
        );
    }

    #[test]
    fn restore_completes_within_its_budget() {
        let d = CellDesign::table1();
        let t = timing(&d, CellKind::NvSram).unwrap();
        let restore = t.t_restore.expect("NV cell restores");
        assert!(
            restore > 0.0 && restore < d.conditions.restore_duration,
            "restore separation at {restore:e}"
        );
    }
}
