//! Macro-level scenarios: store/restore disturb checks, partial-array
//! shutdown policies, and the granularity × architecture × technology
//! break-even-time scan.
//!
//! The cell- and domain-level machinery answers "what does one cell (or
//! a uniform array) cost"; this module answers the questions that only
//! exist at macro scale:
//!
//! * **Disturb** — while one gating group stores or restores, every
//!   other group's retention elements sit under their standby bias. Is
//!   that bias low enough that the technology's disturb model predicts
//!   retention far beyond the mission time, and does a group-targeted
//!   store/restore actually leave the victims' elements and data alone?
//! * **Partial-array shutdown** — gating a *fraction* of the banks saves
//!   a fraction of the static power but pays store/restore on that
//!   fraction, plus a wake-on-access penalty whenever a request lands in
//!   a dark bank. [`ShutdownPolicy`] folds both into the closed-form BET.
//! * **The scan** — [`bet_macro_scan`] builds real macro netlists (cell
//!   array + periphery) per granularity and technology, measures their
//!   static power through the batched DC backend, and reports the BET of
//!   NVPG and NOF against the OSR baseline with the always-on periphery
//!   overhead charged to every architecture.

use nvpg_cells::array::{checkerboard, ArrayBuilder};
use nvpg_cells::characterize::{characterize_cached, CellCharacterization};
use nvpg_cells::design::CellDesign;
use nvpg_cells::domain::DomainKind;
use nvpg_circuit::{CircuitError, SolverChoice};
use nvpg_macro::{Granularity, MacroBuilder, MacroSpec, NvMacro};

use crate::arch::Architecture;
use crate::batch::{solve_domain_designs, BatchMode};
use crate::bet::{bet_closed_form, Bet};
use crate::energy::{BenchmarkParams, EnergyModel};

/// A partial-array shutdown policy: how many gating groups go dark and
/// how often an access lands in a dark bank per shutdown episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownPolicy {
    /// Gating groups powered off during the long standby.
    pub gated_groups: usize,
    /// Total gating groups in the macro.
    pub total_groups: usize,
    /// Accesses per shutdown episode that hit a gated bank, each paying
    /// one group's store + restore to service.
    pub wake_accesses: u32,
}

impl ShutdownPolicy {
    /// Gate everything — the whole-domain policy the cell-level BET
    /// assumes.
    pub fn full(total_groups: usize) -> Self {
        ShutdownPolicy {
            gated_groups: total_groups,
            total_groups,
            wake_accesses: 0,
        }
    }

    /// Gate half the groups (rounded up), `wake_accesses` dark-bank hits
    /// per episode. With one group this degenerates to [`full`](Self::full).
    pub fn half(total_groups: usize, wake_accesses: u32) -> Self {
        ShutdownPolicy {
            gated_groups: total_groups.div_ceil(2),
            total_groups,
            wake_accesses,
        }
    }

    /// Fraction of the array the policy gates.
    ///
    /// # Panics
    ///
    /// Panics if the policy is degenerate (zero groups, or more gated
    /// than exist).
    pub fn fraction(&self) -> f64 {
        assert!(
            self.total_groups > 0 && self.gated_groups <= self.total_groups,
            "degenerate shutdown policy {self:?}"
        );
        self.gated_groups as f64 / self.total_groups as f64
    }

    /// Folds the policy into a characterisation: store/restore energy
    /// scales with the gated fraction (plus one group's worth per
    /// wake-on-access hit), and the shutdown-mode static power becomes
    /// the gated/awake blend — the awake fraction keeps burning
    /// normal-mode power through the long standby.
    pub fn apply(&self, ch: &CellCharacterization) -> CellCharacterization {
        let f = self.fraction();
        let per_group = 1.0 / self.total_groups as f64;
        let wakes = f64::from(self.wake_accesses) * per_group;
        let mut scaled = *ch;
        scaled.e_store = ch.e_store * (f + wakes);
        scaled.e_restore = ch.e_restore * (f + wakes);
        let sp = &mut scaled.static_power;
        sp.p_nv_shutdown =
            f * ch.static_power.p_nv_shutdown + (1.0 - f) * ch.static_power.p_nv_normal;
        sp.p_nv_shutdown_super =
            f * ch.static_power.p_nv_shutdown_super + (1.0 - f) * ch.static_power.p_nv_normal;
        scaled
    }
}

/// Closed-form BET of `arch` against the OSR baseline under a
/// partial-array shutdown policy.
///
/// # Panics
///
/// Panics if `arch` is [`Architecture::Osr`] or the policy is
/// degenerate.
pub fn bet_macro_closed_form(
    ch: &CellCharacterization,
    arch: Architecture,
    params: &BenchmarkParams,
    policy: &ShutdownPolicy,
) -> Bet {
    bet_closed_form(&EnergyModel::new(policy.apply(ch)), arch, params)
}

/// Result of a group-targeted store → shutdown → restore cycle watched
/// from the *victim* groups (the ones that stayed awake).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisturbReport {
    /// Bias across a victim cell's retention element in normal mode (V)
    /// — the drive the store/restore of a neighbouring group leaves on
    /// every untargeted element.
    pub victim_bias: f64,
    /// The technology's retention time under that bias (s).
    pub disturb_retention: f64,
    /// Unbiased retention time (s), for the degradation ratio.
    pub nominal_retention: f64,
    /// The store flipped only the targeted group's elements.
    pub store_confined: bool,
    /// After the full cycle, every cell — victim and target — holds its
    /// original data.
    pub data_preserved: bool,
}

/// Runs a group-0-targeted store → shutdown → restore on a real macro
/// and verifies the untargeted groups ride through untouched, reporting
/// the victim-side disturb margins.
///
/// # Errors
///
/// Propagates build and simulation errors.
///
/// # Panics
///
/// Panics if the spec is volatile (OSR) or has fewer than two gating
/// groups — a disturb check needs a victim.
pub fn store_disturb_check(spec: MacroSpec) -> Result<DisturbReport, CircuitError> {
    assert!(
        spec.kind.is_nonvolatile(),
        "disturb check needs retention elements"
    );
    assert!(
        spec.groups() >= 2,
        "disturb check needs at least two gating groups (got {})",
        spec.groups()
    );
    let mut m = NvMacro::new(spec, checkerboard)?;
    let victim_row = spec.group_rows(1).start;
    let before: Vec<_> = (0..spec.rows)
        .flat_map(|r| (0..spec.cols).map(move |c| (r, c)))
        .map(|(r, c)| (m.data(r, c), m.mtj_states(r, c)))
        .collect();

    m.store(&[0])?;
    // Write-disturb: only group 0's elements may have moved.
    let store_confined = (0..spec.rows)
        .flat_map(|r| (0..spec.cols).map(move |c| (r, c)))
        .zip(&before)
        .all(|((r, c), (_, states))| spec.group_of_row(r) == 0 || m.mtj_states(r, c) == *states);

    m.shutdown(&[0], true)?;
    m.restore(&[0])?;
    let data_preserved = (0..spec.rows)
        .flat_map(|r| (0..spec.cols).map(move |c| (r, c)))
        .zip(&before)
        .all(|((r, c), (data, _))| m.data(r, c) == *data);

    let victim_bias = m
        .element_bias(victim_row, 0)
        .expect("nonvolatile macro has element bias");
    let dev = spec.design.retention_device();
    Ok(DisturbReport {
        victim_bias,
        disturb_retention: dev.disturb_retention_time(victim_bias),
        nominal_retention: dev.retention_time(),
        store_confined,
        data_preserved,
    })
}

/// One point of [`bet_macro_scan`].
#[derive(Debug, Clone, PartialEq)]
pub struct MacroScanPoint {
    /// Retention technology label (`"mtj"`, `"fefet"`, `"nand_spin"`).
    pub technology: String,
    /// Gating-granularity label (`"per_row"`, `"per_bank2"`, …).
    pub granularity: String,
    /// Architecture the BET is computed for.
    pub arch: Architecture,
    /// MNA unknowns of the macro netlist at this point.
    pub unknowns: usize,
    /// Normal-mode static power of the whole macro, periphery included
    /// (W).
    pub static_power: f64,
    /// Always-on periphery overhead charged per cell (W).
    pub periphery_overhead: f64,
    /// Fraction of the array the scan's shutdown policy gates.
    pub gated_fraction: f64,
    /// Break-even time against OSR (s), when a crossing exists.
    pub bet: Option<f64>,
}

/// The macro-level BET scan: granularity × retention technology ×
/// nonvolatile architecture.
///
/// Per technology, the cell is (re-)characterised through the cached
/// cell flow — store/restore energy and static powers come from the
/// technology's own devices. Per `(granularity, technology)`, a real
/// `rows × cols` macro netlist is built and its operating point solved
/// through the batched backend (technologies share a topology, so they
/// ride one symbolic schedule); an OSR macro per granularity prices the
/// volatile baseline's periphery the same way. The BET then follows from
/// the closed form with the periphery overhead added to *every*
/// architecture's static power and a half-array [`ShutdownPolicy`]
/// (full-array when the granularity only has one group) folding in the
/// gating fraction and `wake_accesses` dark-bank hits.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidValue`] for an unknown technology
/// label and propagates build, characterisation and DC failures.
#[allow(clippy::too_many_arguments)]
pub fn bet_macro_scan(
    rows: usize,
    cols: usize,
    mux: usize,
    granularities: &[Granularity],
    technologies: &[&str],
    params: &BenchmarkParams,
    wake_accesses: u32,
    batch: BatchMode,
) -> Result<Vec<MacroScanPoint>, CircuitError> {
    let cells = (rows * cols) as f64;
    let unknown_tech = |label: &str| CircuitError::InvalidValue {
        element: "macro".to_owned(),
        reason: format!(
            "unknown retention technology `{label}` (expected one of {:?})",
            nvpg_cells::RetentionKind::LABELS
        ),
    };

    // Per-technology designs and cell characterisations (cached).
    let mut designs = Vec::with_capacity(technologies.len());
    for &label in technologies {
        let design = CellDesign::for_technology(label).ok_or_else(|| unknown_tech(label))?;
        let ch = characterize_cached(&design)?;
        designs.push((label, design, ch));
    }

    // Domain-level baselines: the same cells without periphery, one NV
    // domain per technology plus the volatile 6T reference.
    let nv_designs: Vec<CellDesign> = designs.iter().map(|(_, d, _)| *d).collect();
    let nv_domains = solve_domain_designs(&nv_designs, DomainKind::Nvpg, rows, cols, batch, 1);
    let mut nv_domain_power = Vec::with_capacity(nv_domains.len());
    for res in nv_domains {
        nv_domain_power.push(res?.static_power());
    }
    let osr_domain_power = solve_domain_designs(
        &[CellDesign::table1()],
        DomainKind::Osr,
        rows,
        cols,
        batch,
        1,
    )
    .pop()
    .expect("one design in, one result out")?
    .static_power();

    let mut points = Vec::new();
    for &granularity in granularities {
        let spec0 = MacroSpec::new(rows, cols, mux).with_granularity(granularity);
        spec0.validate()?;
        let policy = if spec0.groups() > 1 {
            ShutdownPolicy::half(spec0.groups(), wake_accesses)
        } else {
            ShutdownPolicy::full(1)
        };

        // The OSR macro prices the baseline's periphery (technology-free:
        // no retention elements in a 6T array).
        let osr_macro = MacroBuilder::prepare(
            spec0.with_kind(DomainKind::Osr),
            SolverChoice::Auto,
            checkerboard,
        )?
        .solve()?;
        let osr_overhead = ((osr_macro.static_power() - osr_domain_power) / cells).max(0.0);

        // One NV macro per technology — same topology, so they solve as
        // lanes of one batched stack.
        let builders = designs
            .iter()
            .map(|(_, design, _)| {
                let mut s = spec0;
                s.design = *design;
                MacroBuilder::prepare(s, SolverChoice::Auto, checkerboard)
                    .map(MacroBuilder::into_array)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let macros = ArrayBuilder::solve_batch(builders, batch);

        for ((res, (label, _, ch)), &domain_power) in
            macros.into_iter().zip(&designs).zip(&nv_domain_power)
        {
            let m = res?;
            let nv_overhead = ((m.static_power() - domain_power) / cells).max(0.0);
            // Charge the always-on periphery to every architecture: it
            // never gates, so it adds to normal, sleep and shutdown
            // static power alike.
            let mut macro_ch = *ch;
            let sp = &mut macro_ch.static_power;
            sp.p_nv_normal += nv_overhead;
            sp.p_nv_sleep += nv_overhead;
            sp.p_nv_shutdown += nv_overhead;
            sp.p_nv_shutdown_super += nv_overhead;
            sp.p_6t_normal += osr_overhead;
            sp.p_6t_sleep += osr_overhead;

            for arch in [Architecture::Nvpg, Architecture::Nof] {
                let bet = bet_macro_closed_form(&macro_ch, arch, params, &policy);
                points.push(MacroScanPoint {
                    technology: (*label).to_owned(),
                    granularity: granularity.label(),
                    arch,
                    unknowns: m.unknown_count(),
                    static_power: m.static_power(),
                    periphery_overhead: nv_overhead,
                    gated_fraction: policy.fraction(),
                    bet: bet.duration().map(|t| t.value()),
                });
            }
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_transform_is_identity_at_full_gating() {
        let ch = crate::energy::tests::synthetic();
        let full = ShutdownPolicy::full(4).apply(&ch);
        assert_eq!(full, ch);
        let half = ShutdownPolicy::half(4, 0).apply(&ch);
        assert!(half.e_store < ch.e_store);
        assert!(half.static_power.p_nv_shutdown > ch.static_power.p_nv_shutdown);
        let with_wakes = ShutdownPolicy::half(4, 3).apply(&ch);
        assert!(with_wakes.e_store > half.e_store);
    }

    #[test]
    fn partial_gating_lengthens_the_bet() {
        // Gating half the array halves the savings but store/restore
        // also halves, so the closed-form BET is unchanged only if
        // wake-on-access is free; with dark-bank hits it must grow.
        let ch = crate::energy::tests::synthetic();
        let params = BenchmarkParams::fig7_default();
        let full =
            bet_macro_closed_form(&ch, Architecture::Nvpg, &params, &ShutdownPolicy::full(4))
                .duration()
                .expect("finite BET")
                .value();
        let hit = bet_macro_closed_form(
            &ch,
            Architecture::Nvpg,
            &params,
            &ShutdownPolicy::half(4, 8),
        )
        .duration()
        .expect("finite BET")
        .value();
        assert!(
            hit > full,
            "wake-on-access must push the BET out: {hit:e} vs {full:e}"
        );
    }

    #[test]
    fn degenerate_policy_panics() {
        let r = std::panic::catch_unwind(|| {
            ShutdownPolicy {
                gated_groups: 5,
                total_groups: 4,
                wake_accesses: 0,
            }
            .fraction()
        });
        assert!(r.is_err());
    }

    #[test]
    fn disturb_check_on_a_tiny_macro() {
        let spec = MacroSpec::new(2, 2, 1).with_granularity(Granularity::PerRow);
        let report = store_disturb_check(spec).unwrap();
        assert!(report.store_confined, "store leaked into the victim group");
        assert!(report.data_preserved, "cycle corrupted data");
        // Standby bias is tiny (V_CTRL ≈ 70 mV against a floating
        // internal node), so disturb retention stays astronomically long.
        assert!(report.victim_bias.abs() < 0.2);
        assert!(report.disturb_retention > 1e6);
        assert!(report.nominal_retention > 0.0);
    }

    #[test]
    fn scan_answers_a_finite_bet_for_every_technology() {
        let granularities = [
            Granularity::PerDomain,
            Granularity::PerBank(2),
            Granularity::PerRow,
        ];
        let points = bet_macro_scan(
            4,
            4,
            2,
            &granularities,
            &nvpg_cells::RetentionKind::LABELS,
            &BenchmarkParams::fig7_default(),
            1,
            BatchMode::Auto,
        )
        .unwrap();
        assert_eq!(points.len(), 18, "3 granularities × 3 technologies × 2");
        for p in &points {
            assert!(
                p.static_power.is_finite() && p.static_power > 0.0 && p.unknowns > 0,
                "degenerate scan point {}/{}/{}: {} unknowns, {:e} W",
                p.arch,
                p.technology,
                p.granularity,
                p.unknowns,
                p.static_power
            );
        }
        for tech in nvpg_cells::RetentionKind::LABELS {
            for arch in [Architecture::Nvpg, Architecture::Nof] {
                assert!(
                    points
                        .iter()
                        .any(|p| p.technology == tech && p.arch == arch && p.bet.is_some()),
                    "no finite BET for {arch}/{tech} at any granularity"
                );
            }
        }
    }

    #[test]
    fn scan_rejects_unknown_technology() {
        let err = bet_macro_scan(
            2,
            2,
            1,
            &[Granularity::PerDomain],
            &["flux_capacitor"],
            &BenchmarkParams::fig7_default(),
            0,
            BatchMode::Serial,
        )
        .unwrap_err();
        assert!(matches!(err, CircuitError::InvalidValue { .. }));
    }
}
