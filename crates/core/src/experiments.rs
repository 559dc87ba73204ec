//! The experiment registry: one entry per table and figure of the paper.
//!
//! [`Experiments`] caches the (simulation-derived) cell characterisation
//! and exposes a `figN…` method per figure returning a plot-ready
//! [`Figure`] (labelled series of `(x, y)` points). The `figures` binary
//! in `nvpg-bench` renders these to text/CSV; the `perfbench` harness
//! times them; the integration tests assert the paper's qualitative
//! shapes on them.

use nvpg_cells::characterize::{
    characterize_cached, leakage_vs_vctrl, static_power_by_mode, store_current_vs_vctrl,
    store_current_vs_vsr, vvdd_vs_nfsw, CellCharacterization,
};
use nvpg_cells::design::CellDesign;
use nvpg_circuit::{CircuitError, RescueStats};
use nvpg_exec::{Budget, Settled};
use nvpg_units::{linspace, logspace};

use crate::arch::Architecture;
use crate::bet::{bet_closed_form, Bet};
use crate::domain::PowerDomain;
use crate::energy::{BenchmarkParams, EnergyModel};
use crate::error::SimError;
use crate::report::{PointStatus, RunReport};
use crate::sequence::{run_sequence, SequenceParams};

/// A labelled data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` samples.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// Plot-ready data for one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure id, e.g. `"fig7a"`.
    pub id: String,
    /// What the paper's figure shows.
    pub caption: String,
    /// X-axis label (with unit).
    pub x_label: String,
    /// Y-axis label (with unit).
    pub y_label: String,
    /// Whether the paper plots the x axis logarithmically.
    pub log_x: bool,
    /// Whether the paper plots the y axis logarithmically.
    pub log_y: bool,
    /// The series.
    pub series: Vec<Series>,
}

/// Every figure id in paper order.
pub const FIGURE_IDS: [&str; 13] = [
    "table1", "fig3a", "fig3b", "fig3c", "fig4", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b",
    "fig7c", "fig8a", "fig8b",
];

/// BET figures (run separately: Fig. 9(b) re-characterises a second
/// design point).
pub const BET_FIGURE_IDS: [&str; 2] = ["fig9a", "fig9b"];

/// Extension experiments with no paper counterpart (see DESIGN.md §6).
pub const EXTENSION_IDS: [&str; 4] = ["ext_policy", "ext_wer", "ext_breakdown", "ext_thermal"];

/// Macro-subsystem figures (the `figures macro` mode). Kept out of
/// [`EXTENSION_IDS`] so the committed PR1/PR3 benchmark sets — which
/// enumerate that list — keep their figure population.
pub const MACRO_FIGURE_IDS: [&str; 1] = ["ext_macro"];

/// The experiment driver: a design point plus its cached
/// characterisation.
#[derive(Debug, Clone)]
pub struct Experiments {
    design: CellDesign,
    ch: CellCharacterization,
    model: EnergyModel,
}

impl Experiments {
    /// Characterises `design` (runs the cell-level simulations once) and
    /// returns the driver.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the characterisation flow.
    pub fn new(design: CellDesign) -> Result<Self, CircuitError> {
        let ch = characterize_cached(&design)?;
        Ok(Experiments {
            design,
            ch,
            model: EnergyModel::new(ch),
        })
    }

    /// The design point.
    pub fn design(&self) -> &CellDesign {
        &self.design
    }

    /// The cached characterisation.
    pub fn characterization(&self) -> &CellCharacterization {
        &self.ch
    }

    /// The energy model.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Table I as `(parameter, value)` rows — echoed from the live model
    /// cards so any drift from the paper is visible.
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        let d = &self.design;
        let c = &d.conditions;
        let mtj = &d.mtj;
        let fmt_i = |a: f64| nvpg_units::format_eng(a, "A");
        vec![
            ("FinFET channel length L".into(), "20 nm".into()),
            ("Supply voltage V_DD".into(), format!("{} V", c.vdd)),
            (
                "Fin width".into(),
                format!("{:.0} nm", d.nmos.fin_width * 1e9),
            ),
            (
                "Fin height".into(),
                format!("{} nm", d.nmos.fin_height * 1e9),
            ),
            (
                "Fin No. (Load, Driver, Access, PS-FinFET)".into(),
                format!(
                    "({}, {}, {}, {})",
                    d.fins_load, d.fins_driver, d.fins_access, d.fins_ps
                ),
            ),
            ("V_SR".into(), format!("{} V", c.v_sr)),
            ("V_CTRL (store)".into(), format!("{} V", c.v_ctrl_store)),
            (
                "Read/Write speed".into(),
                format!("{} MHz", c.rw_freq / 1e6),
            ),
            ("TMR".into(), format!("{} %", mtj.tmr0 * 100.0)),
            (
                "RA product (P)".into(),
                format!("{} Ω·µm²", mtj.ra_product * 1e12),
            ),
            ("V_half".into(), format!("{} V", mtj.v_half)),
            ("J_C".into(), format!("{:.0e} A/cm²", mtj.jc / 1e4)),
            (
                "Device diameter φ".into(),
                format!("{} nm", mtj.diameter * 1e9),
            ),
            ("I_C".into(), fmt_i(mtj.i_critical())),
            (
                "R_P(0)".into(),
                nvpg_units::format_eng(mtj.r_parallel(), "Ω"),
            ),
            (
                "R_AP(0)".into(),
                nvpg_units::format_eng(mtj.r_antiparallel(), "Ω"),
            ),
        ]
    }

    /// Fig. 3(a): leakage current vs `V_CTRL` in the normal SRAM mode.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig3a(&self) -> Result<Figure, CircuitError> {
        let pts = leakage_vs_vctrl(&self.design, &linspace(0.0, 0.2, 21))?;
        Ok(Figure {
            id: "fig3a".into(),
            caption: "Leakage current during the normal SRAM operation mode vs V_CTRL".into(),
            x_label: "V_CTRL (V)".into(),
            y_label: "I_L (A)".into(),
            log_x: false,
            log_y: true,
            series: vec![
                Series::new(
                    "I_L^NV (NV-SRAM)",
                    pts.iter().map(|p| (p.v_ctrl, p.i_nv)).collect(),
                ),
                Series::new(
                    "I_L^V (6T-SRAM)",
                    pts.iter().map(|p| (p.v_ctrl, p.i_6t)).collect(),
                ),
                Series::new(
                    "P_total^NV / V_DD",
                    pts.iter()
                        .map(|p| (p.v_ctrl, p.p_total_nv / self.design.conditions.vdd))
                        .collect(),
                ),
            ],
        })
    }

    /// Fig. 3(b): H-store current `I_MTJ^{P→AP}` vs `V_SR`.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig3b(&self) -> Result<Figure, CircuitError> {
        let xs = linspace(0.3, 0.9, 25);
        let pts = store_current_vs_vsr(&self.design, &xs)?;
        let ic = self.design.mtj.i_critical();
        Ok(Figure {
            id: "fig3b".into(),
            caption: "H-store current I_MTJ^{P→AP} vs V_SR (CTRL at 0)".into(),
            x_label: "V_SR (V)".into(),
            y_label: "I_MTJ (A)".into(),
            log_x: false,
            log_y: false,
            series: vec![
                Series::new(
                    "I_MTJ^{P→AP}",
                    pts.iter().map(|p| (p.bias, p.i_mtj)).collect(),
                ),
                Series::new("I_C", xs.iter().map(|&x| (x, ic)).collect()),
                Series::new("1.5·I_C", xs.iter().map(|&x| (x, 1.5 * ic)).collect()),
            ],
        })
    }

    /// Fig. 3(c): L-store current `I_MTJ^{AP→P}` vs `V_CTRL` at the design
    /// `V_SR`.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig3c(&self) -> Result<Figure, CircuitError> {
        let xs = linspace(0.1, 0.6, 21);
        let pts = store_current_vs_vctrl(&self.design, &xs)?;
        let ic = self.design.mtj.i_critical();
        Ok(Figure {
            id: "fig3c".into(),
            caption: "L-store current I_MTJ^{AP→P} vs V_CTRL (V_SR = 0.65 V)".into(),
            x_label: "V_CTRL (V)".into(),
            y_label: "I_MTJ (A)".into(),
            log_x: false,
            log_y: false,
            series: vec![
                Series::new(
                    "I_MTJ^{AP→P}",
                    pts.iter().map(|p| (p.bias, p.i_mtj)).collect(),
                ),
                Series::new("I_C", xs.iter().map(|&x| (x, ic)).collect()),
                Series::new("1.5·I_C", xs.iter().map(|&x| (x, 1.5 * ic)).collect()),
            ],
        })
    }

    /// Fig. 4: virtual-V_DD vs power-switch fin count.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig4(&self) -> Result<Figure, CircuitError> {
        let fins: Vec<u32> = (1..=10).collect();
        let pts = vvdd_vs_nfsw(&self.design, &fins)?;
        Ok(Figure {
            id: "fig4".into(),
            caption: "Virtual-V_DD vs power-switch fin count N_FSW".into(),
            x_label: "N_FSW".into(),
            y_label: "VV_DD (V)".into(),
            log_x: false,
            log_y: false,
            series: vec![
                Series::new(
                    "normal operation",
                    pts.iter()
                        .map(|p| (f64::from(p.n_fsw), p.vvdd_normal))
                        .collect(),
                ),
                Series::new(
                    "store operation",
                    pts.iter()
                        .map(|p| (f64::from(p.n_fsw), p.vvdd_store))
                        .collect(),
                ),
            ],
        })
    }

    /// Fig. 6(a): power vs time for the three architectures over the
    /// benchmark sequence (cell-level transients).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig6a(&self) -> Result<Figure, CircuitError> {
        let params = SequenceParams {
            n_rw: 2,
            t_sl: 50e-9,
            t_sd: 200e-9,
        };
        let mut series = Vec::new();
        for arch in Architecture::ALL {
            let run = run_sequence(&self.design, arch, &params)?;
            series.push(Series::new(arch.to_string(), run.power_trace()));
        }
        Ok(Figure {
            id: "fig6a".into(),
            caption: "Time variation of power consumption per cell (benchmark sequences)".into(),
            x_label: "time (s)".into(),
            y_label: "power (W)".into(),
            log_x: false,
            log_y: true,
            series,
        })
    }

    /// Fig. 6(b): magnified view of the first read/write/store window of
    /// Fig. 6(a).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig6b(&self) -> Result<Figure, CircuitError> {
        let mut fig = self.fig6a()?;
        let window = 60e-9;
        for s in &mut fig.series {
            s.points.retain(|&(t, _)| t <= window);
        }
        fig.id = "fig6b".into();
        fig.caption = "Magnified view of Fig. 6(a) (first access window)".into();
        Ok(fig)
    }

    /// Fig. 6(c): static power of the 6T and NV-SRAM cells per mode.
    /// X indices: 0 = normal, 1 = sleep, 2 = shutdown, 3 = shutdown with
    /// super cutoff.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig6c(&self) -> Result<Figure, CircuitError> {
        let t = static_power_by_mode(&self.design)?;
        Ok(Figure {
            id: "fig6c".into(),
            caption: "Static power per mode (bias control + super cutoff)".into(),
            x_label: "mode (0=normal, 1=sleep, 2=shutdown, 3=super cutoff)".into(),
            y_label: "static power (W)".into(),
            log_x: false,
            log_y: true,
            series: vec![
                Series::new("6T-SRAM", vec![(0.0, t.p_6t_normal), (1.0, t.p_6t_sleep)]),
                Series::new(
                    "NV-SRAM",
                    vec![
                        (0.0, t.p_nv_normal),
                        (1.0, t.p_nv_sleep),
                        (2.0, t.p_nv_shutdown),
                        (3.0, t.p_nv_shutdown_super),
                    ],
                ),
            ],
        })
    }

    fn n_rw_axis() -> Vec<u32> {
        logspace(1.0, 1e4, 25)
            .into_iter()
            .map(|x| x.round() as u32)
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .collect()
    }

    /// Fig. 7(a): `E_cyc` vs `n_RW` for the three architectures with
    /// `t_SD = 0` and `t_SL ∈ {0, 100 ns, 1 µs}`.
    pub fn fig7a(&self) -> Figure {
        let mut series = Vec::new();
        for arch in Architecture::ALL {
            for &t_sl in &[0.0, 100e-9, 1e-6] {
                let pts = Self::n_rw_axis()
                    .into_iter()
                    .map(|n| {
                        let p = BenchmarkParams {
                            n_rw: n,
                            t_sl,
                            t_sd: 0.0,
                            ..BenchmarkParams::fig7_default()
                        };
                        (f64::from(n), self.model.e_cyc(arch, &p).0)
                    })
                    .collect();
                series.push(Series::new(format!("{arch} t_SL={:.0}ns", t_sl * 1e9), pts));
            }
        }
        Figure {
            id: "fig7a".into(),
            caption: "E_cyc per cell vs n_RW (t_SD = 0, t_SL varied)".into(),
            x_label: "n_RW".into(),
            y_label: "E_cyc (J)".into(),
            log_x: true,
            log_y: true,
            series,
        }
    }

    /// Fig. 7(b): `E_cyc` vs `n_RW` with `M = 32` and
    /// `N ∈ {32 … 2048}` (domain 128 B … 8 kB), `t_SL = 100 ns`,
    /// `t_SD = 0`.
    pub fn fig7b(&self) -> Figure {
        let mut series = Vec::new();
        for &rows in &[32u32, 128, 512, 2048] {
            for arch in [Architecture::Nvpg, Architecture::Nof] {
                let pts = Self::n_rw_axis()
                    .into_iter()
                    .map(|n| {
                        let p = BenchmarkParams {
                            n_rw: n,
                            t_sl: 100e-9,
                            t_sd: 0.0,
                            domain: PowerDomain::new(rows, 32),
                            ..BenchmarkParams::fig7_default()
                        };
                        (f64::from(n), self.model.e_cyc(arch, &p).0)
                    })
                    .collect();
                series.push(Series::new(format!("{arch} N={rows}"), pts));
            }
        }
        // OSR reference at N = 32.
        let pts = Self::n_rw_axis()
            .into_iter()
            .map(|n| {
                let p = BenchmarkParams {
                    n_rw: n,
                    t_sl: 100e-9,
                    t_sd: 0.0,
                    ..BenchmarkParams::fig7_default()
                };
                (f64::from(n), self.model.e_cyc(Architecture::Osr, &p).0)
            })
            .collect();
        series.push(Series::new("OSR N=32", pts));
        Figure {
            id: "fig7b".into(),
            caption: "E_cyc per cell vs n_RW for M = 32, N varied 32…2048".into(),
            x_label: "n_RW".into(),
            y_label: "E_cyc (J)".into(),
            log_x: true,
            log_y: true,
            series,
        }
    }

    /// Fig. 7(c): `E_cyc` vs `n_RW` with `t_SD ∈ {10 µs … 10 ms}`.
    pub fn fig7c(&self) -> Figure {
        let mut series = Vec::new();
        for &t_sd in &[10e-6, 100e-6, 1e-3, 10e-3] {
            for arch in Architecture::ALL {
                let pts = Self::n_rw_axis()
                    .into_iter()
                    .map(|n| {
                        let p = BenchmarkParams {
                            n_rw: n,
                            t_sl: 100e-9,
                            t_sd,
                            ..BenchmarkParams::fig7_default()
                        };
                        (f64::from(n), self.model.e_cyc(arch, &p).0)
                    })
                    .collect();
                series.push(Series::new(format!("{arch} t_SD={:.0e}s", t_sd), pts));
            }
        }
        Figure {
            id: "fig7c".into(),
            caption: "E_cyc per cell vs n_RW, t_SD varied 10 µs…10 ms".into(),
            x_label: "n_RW".into(),
            y_label: "E_cyc (J)".into(),
            log_x: true,
            log_y: true,
            series,
        }
    }

    /// Fig. 8(a): `E_cyc` vs `t_SD` (the BET read-off curves), `n_RW =
    /// 10`.
    pub fn fig8a(&self) -> Figure {
        let ts = logspace(1e-6, 100e-3, 41);
        let mut series = Vec::new();
        for arch in Architecture::ALL {
            let pts = ts
                .iter()
                .map(|&t_sd| {
                    let p = BenchmarkParams {
                        n_rw: 10,
                        t_sl: 100e-9,
                        t_sd,
                        ..BenchmarkParams::fig7_default()
                    };
                    (t_sd, self.model.e_cyc(arch, &p).0)
                })
                .collect();
            series.push(Series::new(arch.to_string(), pts));
        }
        Figure {
            id: "fig8a".into(),
            caption: "E_cyc vs t_SD for OSR, NVPG and NOF (n_RW = 10)".into(),
            x_label: "t_SD (s)".into(),
            y_label: "E_cyc (J)".into(),
            log_x: true,
            log_y: true,
            series,
        }
    }

    /// Fig. 8(b): `E_cyc` normalised by the OSR value vs `t_SD`, for
    /// `n_RW ∈ {10, 100, 1000}`; the unity crossing of each curve is its
    /// BET.
    pub fn fig8b(&self) -> Figure {
        let ts = logspace(1e-6, 100e-3, 61);
        let mut series = Vec::new();
        for &n_rw in &[10u32, 100, 1000] {
            for arch in [Architecture::Nvpg, Architecture::Nof] {
                let pts = ts
                    .iter()
                    .map(|&t_sd| {
                        let p = BenchmarkParams {
                            n_rw,
                            t_sl: 100e-9,
                            t_sd,
                            ..BenchmarkParams::fig7_default()
                        };
                        let e = self.model.e_cyc(arch, &p).0;
                        let e_osr = self.model.e_cyc(Architecture::Osr, &p).0;
                        (t_sd, e / e_osr)
                    })
                    .collect();
                series.push(Series::new(format!("{arch} n_RW={n_rw}"), pts));
            }
        }
        Figure {
            id: "fig8b".into(),
            caption: "E_cyc normalised by OSR vs t_SD (crossings = BET)".into(),
            x_label: "t_SD (s)".into(),
            y_label: "E_cyc / E_cyc^OSR".into(),
            log_x: true,
            log_y: false,
            series,
        }
    }

    /// Fig. 9(a): BET vs `N` with and without store-free shutdown, for
    /// `n_RW ∈ {10, 100, 1000}` (`M = 32`).
    pub fn fig9a(&self) -> Figure {
        self.bet_vs_rows("fig9a", "BET vs N with/without store-free shutdown", true)
    }

    /// Fig. 9(b): BET vs `N` for the faster technology point (1 GHz
    /// read/write, `J_C = 1×10⁶ A/cm²`), without store-free shutdown.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from characterising the second design
    /// point.
    pub fn fig9b() -> Result<Figure, CircuitError> {
        let exp = Experiments::new(CellDesign::fig9b())?;
        let mut fig = exp.bet_vs_rows("fig9b", "BET vs N at 1 GHz and J_C = 1×10⁶ A/cm²", false);
        fig.id = "fig9b".into();
        Ok(fig)
    }

    /// Extension: power-gating *policy* curves — expected above-floor
    /// energy per idle period vs the gating timeout, for exponential and
    /// Pareto idle-length distributions, with the oracle as reference.
    /// The 2-competitive point `timeout = BET` is marked by construction
    /// (it is on the sweep).
    pub fn ext_policy(&self) -> Figure {
        use crate::policy::{IdleDistribution, PolicyModel};
        let pm = PolicyModel::from_energy_model(&self.model, &BenchmarkParams::fig7_default());
        let bet = pm.break_even();
        let timeouts = logspace(bet / 100.0, bet * 100.0, 41);
        let dists = [
            (
                "exponential, mean = 10x BET",
                IdleDistribution::Exponential { mean: 10.0 * bet },
            ),
            (
                "exponential, mean = BET/10",
                IdleDistribution::Exponential { mean: bet / 10.0 },
            ),
            (
                "Pareto(a=1.5), x_min = BET/10",
                IdleDistribution::Pareto {
                    alpha: 1.5,
                    x_min: bet / 10.0,
                },
            ),
        ];
        let mut series = Vec::new();
        for (label, dist) in &dists {
            let pts = timeouts
                .iter()
                .map(|&t| (t, pm.expected_cost_timeout(t, dist)))
                .collect();
            series.push(Series::new(format!("timeout policy — {label}"), pts));
            let oracle = pm.expected_cost_oracle(dist);
            series.push(Series::new(
                format!("oracle — {label}"),
                timeouts.iter().map(|&t| (t, oracle)).collect(),
            ));
        }
        Figure {
            id: "ext_policy".into(),
            caption: "Expected gating cost per idle period vs timeout (extension)".into(),
            x_label: "timeout (s)".into(),
            y_label: "expected above-floor energy (J)".into(),
            log_x: true,
            log_y: true,
            series,
        }
    }

    /// Extension: MTJ write-error rate vs store-pulse duration for
    /// several drive overdrives — the trade behind the paper's remark
    /// that shorter store pulses need higher currents.
    pub fn ext_wer(&self) -> Figure {
        let mtj = self.design.mtj;
        let ic = mtj.i_critical();
        let pulses = logspace(1e-9, 100e-9, 41);
        let series = [1.2, 1.5, 2.0, 3.0]
            .iter()
            .map(|&over| {
                Series::new(
                    format!("I = {over}x I_C"),
                    pulses
                        .iter()
                        .map(|&t| (t, mtj.write_error_rate(over * ic, t).max(1e-30)))
                        .collect(),
                )
            })
            .collect();
        Figure {
            id: "ext_wer".into(),
            caption: "MTJ write-error rate vs store pulse duration (extension)".into(),
            x_label: "pulse (s)".into(),
            y_label: "write-error rate".into(),
            log_x: true,
            log_y: true,
            series,
        }
    }

    /// Extension: per-phase energy breakdown of one benchmark cycle per
    /// architecture (x = architecture index 0..3, one series per phase)
    /// at `n_RW = 10`, `t_SL = 100 ns`, `t_SD = 100 µs`.
    pub fn ext_breakdown(&self) -> Figure {
        let p = BenchmarkParams {
            n_rw: 10,
            t_sl: 100e-9,
            t_sd: 100e-6,
            ..BenchmarkParams::fig7_default()
        };
        type PartGetter = fn(&crate::energy::EnergyBreakdown) -> f64;
        let parts: [(&str, PartGetter); 5] = [
            ("active", |b| b.active),
            ("short standby", |b| b.short_standby),
            ("store", |b| b.store),
            ("long standby", |b| b.long_standby),
            ("restore", |b| b.restore),
        ];
        let mut series = Vec::new();
        for (label, get) in parts {
            let pts = Architecture::ALL
                .iter()
                .enumerate()
                .map(|(i, &arch)| (i as f64, get(&self.model.breakdown(arch, &p)).max(1e-30)))
                .collect();
            series.push(Series::new(label, pts));
        }
        Figure {
            id: "ext_breakdown".into(),
            caption: "E_cyc phase breakdown per architecture (0=OSR, 1=NVPG, 2=NOF)".into(),
            x_label: "architecture (0=OSR, 1=NVPG, 2=NOF)".into(),
            y_label: "energy (J)".into(),
            log_x: false,
            log_y: true,
            series,
        }
    }

    /// Extension: sleep leakage and NVPG BET vs junction temperature
    /// (re-characterises the cell per point — a few transient runs each).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn ext_thermal(&self) -> Result<Figure, CircuitError> {
        let temps = [250.0, 275.0, 300.0, 330.0, 360.0, 400.0];
        let pts = crate::thermal::temperature_sweep(
            &self.design,
            &temps,
            &BenchmarkParams::fig7_default(),
        )?;
        Ok(Figure {
            id: "ext_thermal".into(),
            caption: "Sleep leakage and NVPG BET vs junction temperature (extension)".into(),
            x_label: "T (K)".into(),
            y_label: "P_sleep in W, BET in s".into(),
            log_x: false,
            log_y: true,
            series: vec![
                Series::new(
                    "P_sleep (6T)",
                    pts.iter()
                        .map(|p| (p.temp, p.characterization.static_power.p_6t_sleep))
                        .collect(),
                ),
                Series::new(
                    "BET (NVPG)",
                    pts.iter()
                        .filter_map(|p| p.bet.map(|b| (p.temp, b)))
                        .collect(),
                ),
            ],
        })
    }

    /// Macro extension: BET vs power-gating granularity for every
    /// retention technology, from real macro netlists (cell array +
    /// periphery) via [`crate::macroscale::bet_macro_scan`]. One series
    /// per technology × architecture; x is the gating-group count of a
    /// 4×4 macro (1 = per-domain, 2 = two banks, 4 = per-row).
    ///
    /// # Errors
    ///
    /// Propagates build, characterisation and DC failures.
    pub fn ext_macro(&self) -> Result<Figure, CircuitError> {
        use crate::macroscale::bet_macro_scan;
        use nvpg_macro::Granularity;

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
            crate::batch::default_batch(),
        )?;
        let groups_of = |label: &str| match label {
            "per_domain" => 1.0,
            "per_row" => 4.0,
            other => other
                .strip_prefix("per_bank")
                .and_then(|n| n.parse::<f64>().ok())
                .unwrap_or(f64::NAN),
        };
        let mut series = Vec::new();
        for arch in [Architecture::Nvpg, Architecture::Nof] {
            for tech in nvpg_cells::RetentionKind::LABELS {
                let pts: Vec<(f64, f64)> = points
                    .iter()
                    .filter(|p| p.arch == arch && p.technology == tech)
                    .filter_map(|p| p.bet.map(|b| (groups_of(&p.granularity), b)))
                    .collect();
                series.push(Series::new(format!("{arch} — {tech}"), pts));
            }
        }
        Ok(Figure {
            id: "ext_macro".into(),
            caption: "Macro-level BET vs gating granularity per retention technology (extension)"
                .into(),
            x_label: "gating groups (4×4 macro)".into(),
            y_label: "BET (s)".into(),
            log_x: false,
            log_y: true,
            series,
        })
    }

    fn bet_vs_rows(&self, id: &str, caption: &str, with_store_free: bool) -> Figure {
        let rows_axis: Vec<u32> = [32u32, 64, 128, 256, 512, 1024, 2048, 4096].to_vec();
        let mut series = Vec::new();
        let variants: &[bool] = if with_store_free {
            &[false, true]
        } else {
            &[false]
        };
        for &store_free in variants {
            for &n_rw in &[10u32, 100, 1000] {
                let pts = rows_axis
                    .iter()
                    .filter_map(|&rows| {
                        let p = BenchmarkParams {
                            n_rw,
                            t_sl: 100e-9,
                            t_sd: 0.0,
                            domain: PowerDomain::new(rows, 32),
                            reads_per_write: 1,
                            store_free,
                        };
                        match bet_closed_form(&self.model, Architecture::Nvpg, &p) {
                            Bet::At(t) => Some((f64::from(rows), t.0)),
                            _ => None,
                        }
                    })
                    .collect();
                let tag = if store_free { " (store-free)" } else { "" };
                series.push(Series::new(format!("n_RW={n_rw}{tag}"), pts));
            }
        }
        Figure {
            id: id.into(),
            caption: caption.into(),
            x_label: "N (wordlines, M = 32)".into(),
            y_label: "BET (s)".into(),
            log_x: true,
            log_y: true,
            series,
        }
    }

    /// Renders one figure by its id, or `None` for an unknown id.
    ///
    /// `table1` is not covered (it is parameter rows, not a plot); every
    /// other id in [`FIGURE_IDS`], [`BET_FIGURE_IDS`] and
    /// [`EXTENSION_IDS`] dispatches to its `figN…`/`ext_…` method.
    pub fn figure_by_id(&self, id: &str) -> Option<Result<Figure, CircuitError>> {
        let _span = nvpg_obs::span_labeled("experiment", id);
        Some(match id {
            "fig3a" => self.fig3a(),
            "fig3b" => self.fig3b(),
            "fig3c" => self.fig3c(),
            "fig4" => self.fig4(),
            "fig6a" => self.fig6a(),
            "fig6b" => self.fig6b(),
            "fig6c" => self.fig6c(),
            "fig7a" => Ok(self.fig7a()),
            "fig7b" => Ok(self.fig7b()),
            "fig7c" => Ok(self.fig7c()),
            "fig8a" => Ok(self.fig8a()),
            "fig8b" => Ok(self.fig8b()),
            "fig9a" => Ok(self.fig9a()),
            "fig9b" => Self::fig9b(),
            "ext_policy" => Ok(self.ext_policy()),
            "ext_wer" => Ok(self.ext_wer()),
            "ext_breakdown" => Ok(self.ext_breakdown()),
            "ext_thermal" => self.ext_thermal(),
            "ext_macro" => self.ext_macro(),
            _ => return None,
        })
    }

    /// Renders several figures concurrently over the worker pool
    /// (`jobs = 0` uses the pool default), returning them in the order of
    /// `ids`. Results are identical to calling [`Self::figure_by_id`]
    /// serially — only wall-clock changes with `jobs`.
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) figure error.
    ///
    /// # Panics
    ///
    /// Panics on an id not known to [`Self::figure_by_id`].
    pub fn run_figures(&self, ids: &[&str], jobs: usize) -> Result<Vec<Figure>, CircuitError> {
        nvpg_exec::par_try_map(jobs, ids, |_, &id| {
            self.figure_by_id(id)
                .unwrap_or_else(|| panic!("unknown figure id: {id}"))
        })
    }

    /// Fail-soft variant of [`Self::run_figures`]: every figure settles
    /// independently. A figure that errors — or *panics* — becomes a `None`
    /// gap in the output while all others render, and the returned
    /// [`RunReport`] names every failure with its taxonomy. An unknown id
    /// is reported as a failure, not a panic.
    ///
    /// Output (figures and report) is identical at any `jobs` count.
    pub fn run_figures_settled(
        &self,
        ids: &[&str],
        jobs: usize,
    ) -> (Vec<Option<Figure>>, RunReport) {
        let settled: Vec<Settled<Figure, CircuitError>> =
            nvpg_exec::par_map_settled(jobs, ids, Budget::unlimited(), |_, &id| {
                self.figure_by_id(id).unwrap_or_else(|| {
                    Err(CircuitError::InvalidValue {
                        element: id.to_owned(),
                        reason: "unknown figure id".to_owned(),
                    })
                })
            });
        let mut report = RunReport::new();
        let mut figures = Vec::with_capacity(ids.len());
        for (&id, s) in ids.iter().zip(settled) {
            match s {
                Settled::Ok(fig) => {
                    report.push(id, "figure", PointStatus::Ok, RescueStats::default());
                    figures.push(Some(fig));
                }
                Settled::Err(e) => {
                    report.push(
                        id,
                        "figure",
                        PointStatus::Failed {
                            taxonomy: e.taxonomy().to_owned(),
                            message: SimError::new(id, e).to_string(),
                        },
                        RescueStats::default(),
                    );
                    figures.push(None);
                }
                Settled::Panicked(msg) => {
                    report.push(
                        id,
                        "figure",
                        PointStatus::Failed {
                            taxonomy: "panic".to_owned(),
                            message: msg,
                        },
                        RescueStats::default(),
                    );
                    figures.push(None);
                }
                Settled::Skipped => {
                    report.push(id, "figure", PointStatus::Skipped, RescueStats::default());
                    figures.push(None);
                }
            }
        }
        (figures, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The closed-form figures (7–9) are cheap; build one shared driver.
    fn exp() -> Experiments {
        Experiments::new(CellDesign::table1()).expect("characterisation")
    }

    #[test]
    fn fig7a_shapes() {
        let e = exp();
        let fig = e.fig7a();
        assert_eq!(fig.series.len(), 9);
        // NVPG with t_SL = 100 ns approaches the matching OSR curve.
        let osr = fig
            .series
            .iter()
            .find(|s| s.label.starts_with("OSR t_SL=100"))
            .unwrap();
        let nvpg = fig
            .series
            .iter()
            .find(|s| s.label.starts_with("NVPG t_SL=100"))
            .unwrap();
        let nof = fig
            .series
            .iter()
            .find(|s| s.label.starts_with("NOF t_SL=100"))
            .unwrap();
        let last = osr.points.len() - 1;
        let gap_start = nvpg.points[0].1 / osr.points[0].1;
        let gap_end = nvpg.points[last].1 / osr.points[last].1;
        assert!(gap_start > 1.5, "store dominates small n_RW: {gap_start}");
        assert!(gap_end < 1.2, "amortised at n_RW = 10⁴: {gap_end}");
        // NOF stays well above OSR at large n_RW.
        assert!(nof.points[last].1 / osr.points[last].1 > 1.5);
        // NVPG ≈ NOF at n_RW = 1.
        let r = nvpg.points[0].1 / nof.points[0].1;
        assert!((0.9..1.1).contains(&r), "n_RW = 1 equality: {r}");
    }

    #[test]
    fn fig7b_crossover_at_small_n_rw_for_large_domains() {
        let e = exp();
        let fig = e.fig7b();
        let get = |label: &str| fig.series.iter().find(|s| s.label == label).unwrap();
        let nvpg_big = get("NVPG N=2048");
        let nof_big = get("NOF N=2048");
        // Paper: for very small n_RW and N ≥ 256, NVPG exceeds NOF …
        assert!(
            nvpg_big.points[0].1 > nof_big.points[0].1 * 0.9,
            "large-N small-n_RW region: NVPG {:.3e} vs NOF {:.3e}",
            nvpg_big.points[0].1,
            nof_big.points[0].1
        );
        // … but the effect disappears by n_RW ≈ 10–100.
        let idx = nvpg_big
            .points
            .iter()
            .position(|&(n, _)| n >= 100.0)
            .unwrap();
        assert!(nvpg_big.points[idx].1 < nof_big.points[idx].1);
    }

    #[test]
    fn fig8_bet_readoff() {
        let e = exp();
        let fig = e.fig8b();
        // NVPG n_RW = 10: the normalised curve starts above 1 and ends
        // below 1 (a BET exists inside the plotted decade range).
        let s = fig
            .series
            .iter()
            .find(|s| s.label == "NVPG n_RW=10")
            .unwrap();
        assert!(s.points.first().unwrap().1 > 1.0);
        assert!(s.points.last().unwrap().1 < 1.0);
        // NOF crosses later than NVPG (if at all).
        let cross = |label: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label)
                .unwrap()
                .points
                .iter()
                .find(|&&(_, y)| y <= 1.0)
                .map(|&(t, _)| t)
        };
        let t_nvpg = cross("NVPG n_RW=10").expect("NVPG BET in range");
        // NOF may not break even inside the plotted range at all; when it
        // does, it must cross later than NVPG.
        if let Some(t_nof) = cross("NOF n_RW=10") {
            assert!(t_nof > t_nvpg);
        }
    }

    #[test]
    fn fig9a_bet_scaling() {
        let e = exp();
        let fig = e.fig9a();
        let s = fig.series.iter().find(|s| s.label == "n_RW=10").unwrap();
        // BET grows with N.
        assert!(s.points.last().unwrap().1 > s.points[0].1);
        // Store-free shutdown cuts the BET substantially at every N.
        let sf = fig
            .series
            .iter()
            .find(|s| s.label == "n_RW=10 (store-free)")
            .unwrap();
        for (full, free) in s.points.iter().zip(&sf.points) {
            assert!(free.1 < full.1, "store-free must shrink BET");
        }
        // Order of magnitude: tens of µs at the small end.
        assert!(
            (1e-6..1e-3).contains(&s.points[0].1),
            "BET(N=32) = {:e}",
            s.points[0].1
        );
    }

    #[test]
    fn dc_figures_have_expected_shapes() {
        let e = exp();
        // Fig. 4: store-mode VVDD recovers monotonically with fin count.
        let fig4 = e.fig4().unwrap();
        let store = &fig4.series[1];
        assert_eq!(store.label, "store operation");
        assert!(store.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9));
        // Fig. 6(c): four NV modes, strictly decreasing static power.
        let fig6c = e.fig6c().unwrap();
        let nv = &fig6c.series[1];
        assert_eq!(nv.points.len(), 4);
        assert!(nv.points.windows(2).all(|w| w[1].1 < w[0].1));
        // Fig. 3(a): NV leakage decreasing in V_CTRL toward the 6T line.
        let fig3a = e.fig3a().unwrap();
        let nv_leak = &fig3a.series[0];
        assert!(nv_leak.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12));
    }

    #[test]
    fn extension_figures_have_expected_shapes() {
        let e = exp();
        // WER curves decrease with pulse width; higher drive is lower.
        let wer = e.ext_wer();
        for s in &wer.series {
            assert!(s
                .points
                .windows(2)
                .all(|w| w[1].1 <= w[0].1 * (1.0 + 1e-12)));
        }
        let at_10ns = |idx: usize| {
            wer.series[idx]
                .points
                .iter()
                .find(|&&(t, _)| (t - 1e-8).abs() < 2e-9)
                .unwrap()
                .1
        };
        assert!(at_10ns(3) < at_10ns(0), "stronger drive, lower WER");
        // Policy: the oracle reference is never above the timeout curve.
        let pol = e.ext_policy();
        for pair in pol.series.chunks(2) {
            let (timeout, oracle) = (&pair[0], &pair[1]);
            for (t, o) in timeout.points.iter().zip(&oracle.points) {
                assert!(o.1 <= t.1 * (1.0 + 1e-9), "oracle beats timeout");
            }
        }
        // Breakdown: NOF's store component dwarfs NVPG's.
        let br = e.ext_breakdown();
        let store = br.series.iter().find(|s| s.label == "store").unwrap();
        let (nvpg, nof) = (store.points[1].1, store.points[2].1);
        assert!(nof > 5.0 * nvpg, "NOF store {nof:e} vs NVPG {nvpg:e}");
        let osr = store.points[0].1;
        assert!(osr <= 1e-29, "OSR never stores");
    }

    #[test]
    fn table1_rows_echo_parameters() {
        let e = exp();
        let rows = e.table1_rows();
        let find = |k: &str| {
            rows.iter()
                .find(|(key, _)| key.contains(k))
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(find("Supply"), "0.9 V");
        assert_eq!(find("V_SR"), "0.65 V");
        assert!(find("I_C").contains("µA"));
        assert!(find("R_P").contains("kΩ"));
    }
}
