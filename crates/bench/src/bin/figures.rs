//! Regenerates every table and figure of the paper.
//!
//! ```text
//! figures [IDS...] [--only ID] [--jobs N] [--csv DIR] [--svg DIR]
//!         [--report FILE] [--full] [--macro] [--strict]
//!         [--fault-rate R] [--fault-seed S]
//!         [--trace] [--profile] [--trace-dir DIR]
//! ```
//!
//! With no ids, all figures are produced in paper order. Ids can be given
//! positionally or via repeatable `--only` flags (comma lists accepted);
//! any other argument starting with `-` is rejected as an unknown flag.
//! `--jobs N` sets the worker-pool width for both the figure fan-out and
//! the per-figure sweeps (default: available parallelism; `1` forces a
//! serial run). Output is byte-identical for every `--jobs` value:
//! figures run concurrently but print in paper order.
//!
//! The run is **fail-soft by default**: a figure whose simulation fails
//! (or panics) becomes a gap, the remaining figures still render, and a
//! failures appendix naming every broken figure is printed at the end
//! (exit code stays 0 so partial artefacts survive CI). `--strict`
//! restores the old abort-on-first-failure behaviour with a nonzero exit.
//!
//! `--fault-rate R` (with optional `--fault-seed S`) injects
//! deterministic solver faults into that fraction of Newton solves —
//! exercising the rescue ladder and the failure reporting end-to-end.
//!
//! `--csv` additionally writes one CSV per figure into `DIR`; `--full`
//! prints every data point instead of a downsampled table. Per-figure
//! wall-clock timings go to stderr.
//!
//! `--trace` records hierarchical spans (experiment → sequence → phase →
//! solve) and solver counters, writing `trace.jsonl` and `manifest.json`
//! into the trace directory (`--trace-dir DIR`, default `trace/`).
//! `--profile` additionally prints a per-span self-time table to stderr
//! and writes `profile.folded` (collapsed stacks). Both are off by
//! default and leave `stdout` byte-identical; all observability output
//! goes to stderr or the trace directory.
//!
//! Figure ids: `table1 fig3a fig3b fig3c fig4 fig6a fig6b fig6c fig7a
//! fig7b fig7c fig8a fig8b fig9a fig9b ext_policy ext_wer ext_breakdown
//! ext_thermal`.

use std::collections::BTreeSet;
use std::error::Error;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nvpg_bench::obs_cli::{self, ObsOptions};
use nvpg_bench::report::generate_report;
use nvpg_bench::svg::render_svg;
use nvpg_bench::{render_text, summarize, to_csv};
use nvpg_cells::design::CellDesign;
use nvpg_circuit::fault::{with_fault_plan, FaultKind, FaultPlan};
use nvpg_circuit::{CircuitError, RescueStats};
use nvpg_core::{
    Experiments, PointStatus, RunReport, BET_FIGURE_IDS, EXTENSION_IDS, FIGURE_IDS,
    MACRO_FIGURE_IDS,
};
use nvpg_exec::{Budget, Settled};

/// One rendered figure, ready to print/write in canonical order.
struct Rendered {
    id: String,
    stdout: String,
    csv: Option<(PathBuf, String)>,
    svg: Option<(PathBuf, String)>,
    elapsed: Duration,
}

fn main() -> Result<(), Box<dyn Error>> {
    let t_start = Instant::now();
    let mut ids: BTreeSet<String> = BTreeSet::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut svg_dir: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut full = false;
    let mut strict = false;
    let mut with_macro = false;
    let mut jobs: usize = 0;
    let mut fault_rate: f64 = 0.0;
    let mut fault_seed: u64 = 0xFA17;
    let mut obs = ObsOptions::default();
    let mut trace_dir = PathBuf::from("trace");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => {
                csv_dir = Some(PathBuf::from(
                    args.next().ok_or("--csv requires a directory")?,
                ));
            }
            "--svg" => {
                svg_dir = Some(PathBuf::from(
                    args.next().ok_or("--svg requires a directory")?,
                ));
            }
            "--report" => {
                report_path = Some(PathBuf::from(
                    args.next().ok_or("--report requires a file path")?,
                ));
            }
            "--only" => {
                // A list that names no id (`''`, `,`) is as missing as no list.
                let list = args
                    .next()
                    .filter(|list| list.split(',').any(|id| !id.is_empty()))
                    .ok_or("--only requires a figure id")?;
                for id in list.split(',').filter(|s| !s.is_empty()) {
                    ids.insert(id.to_owned());
                }
            }
            "--jobs" | "-j" => {
                jobs = args
                    .next()
                    .ok_or("--jobs requires a worker count")?
                    .parse()
                    .map_err(|_| "--jobs requires an integer")?;
            }
            "--full" => full = true,
            "--macro" => with_macro = true,
            "--strict" => strict = true,
            "--trace" => obs.trace = true,
            "--profile" => obs.profile = true,
            "--trace-dir" => {
                trace_dir = PathBuf::from(args.next().ok_or("--trace-dir requires a directory")?);
            }
            "--fault-rate" => {
                fault_rate = args
                    .next()
                    .ok_or("--fault-rate requires a probability")?
                    .parse()
                    .map_err(|_| "--fault-rate requires a number in [0, 1]")?;
                if !(0.0..=1.0).contains(&fault_rate) {
                    return Err("--fault-rate must be in [0, 1]".into());
                }
            }
            "--fault-seed" => {
                fault_seed = args
                    .next()
                    .ok_or("--fault-seed requires an integer")?
                    .parse()
                    .map_err(|_| "--fault-seed requires an integer")?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [IDS...] [--only ID] [--jobs N] [--csv DIR] [--svg DIR] \
                     [--report FILE] [--full] [--macro] [--strict] \
                     [--fault-rate R] [--fault-seed S] \
                     [--trace] [--profile] [--trace-dir DIR]"
                );
                println!(
                    "ids: {} {} {} (--macro adds: {})",
                    FIGURE_IDS.join(" "),
                    BET_FIGURE_IDS.join(" "),
                    EXTENSION_IDS.join(" "),
                    MACRO_FIGURE_IDS.join(" ")
                );
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`").into());
            }
            other => {
                ids.insert(other.to_owned());
            }
        }
    }
    if jobs > 0 {
        nvpg_exec::set_default_jobs(jobs);
    }
    obs.install();
    let all_ids: Vec<&str> = FIGURE_IDS
        .iter()
        .chain(BET_FIGURE_IDS.iter())
        .chain(EXTENSION_IDS.iter())
        .chain(MACRO_FIGURE_IDS.iter())
        .copied()
        .collect();
    for id in &ids {
        if !all_ids.contains(&id.as_str()) {
            return Err(format!("unknown figure id: {id}").into());
        }
    }
    // A bare `figures` run reproduces the paper set plus the committed
    // extensions; the macro figures solve generated macro netlists, so
    // they join only under `--macro` (or when named explicitly).
    let run_all = ids.is_empty();
    let want = move |id: &str| {
        ids.contains(id) || (run_all && (with_macro || !MACRO_FIGURE_IDS.contains(&id)))
    };
    let max_rows = if full { usize::MAX } else { 12 };

    eprintln!("characterising the Table I design point (cell-level SPICE runs)...");
    let exp = Experiments::new(CellDesign::table1())?;
    let ch = exp.characterization();
    eprintln!(
        "  store_ok = {}, restore_ok = {}, E_store = {:.1} fJ, E_restore = {:.1} fJ",
        ch.store_ok,
        ch.restore_ok,
        ch.e_store * 1e15,
        ch.e_restore * 1e15
    );

    if want("table1") {
        println!("== table1 — device and circuit parameters (live model echo)");
        for (k, v) in exp.table1_rows() {
            println!("   {k:<44} {v}");
        }
        println!();
    }

    // Fan the selected plot figures out over the worker pool; each worker
    // renders everything to strings so the figures can be printed and
    // written in paper order regardless of completion order. Each figure
    // settles independently: a failure (or a panic) becomes a gap plus a
    // run-report entry instead of aborting the whole regeneration.
    let selected: Vec<&str> = all_ids
        .iter()
        .copied()
        .filter(|&id| id != "table1" && want(id))
        .collect();
    let fault_plan =
        (fault_rate > 0.0).then(|| FaultPlan::random(fault_seed, fault_rate, &FaultKind::ALL));
    if let Some(plan) = &fault_plan {
        eprintln!("fault injection active: {plan:?}");
    }
    let settled: Vec<Settled<Rendered, CircuitError>> =
        nvpg_exec::par_map_settled(jobs, &selected, Budget::unlimited(), |i, &id| {
            let t0 = Instant::now();
            let render = || exp.figure_by_id(id).expect("id validated above");
            let fig = match &fault_plan {
                // Key the schedule to the figure, not the thread, so a
                // given seed breaks the same figures at any --jobs.
                Some(plan) => with_fault_plan(&plan.for_point(i as u64), render),
                None => render(),
            }?;
            let mut stdout = String::new();
            stdout.push_str(&render_text(&fig, max_rows));
            stdout.push('\n');
            stdout.push_str(&summarize(&fig));
            stdout.push('\n');
            let csv = csv_dir
                .as_ref()
                .map(|dir| (dir.join(format!("{}.csv", fig.id)), to_csv(&fig)));
            let svg = svg_dir
                .as_ref()
                .map(|dir| (dir.join(format!("{}.svg", fig.id)), render_svg(&fig)));
            Ok(Rendered {
                id: id.to_owned(),
                stdout,
                csv,
                svg,
                elapsed: t0.elapsed(),
            })
        });

    let mut run_report = RunReport::new();
    let mut rendered: Vec<Rendered> = Vec::new();
    for (&id, s) in selected.iter().zip(settled) {
        match s {
            Settled::Ok(r) => {
                run_report.push(id, "figure", PointStatus::Ok, RescueStats::default());
                rendered.push(r);
            }
            Settled::Err(e) => run_report.push(
                id,
                "figure",
                PointStatus::Failed {
                    taxonomy: e.taxonomy().to_owned(),
                    message: e.to_string(),
                },
                RescueStats::default(),
            ),
            Settled::Panicked(msg) => run_report.push(
                id,
                "figure",
                PointStatus::Failed {
                    taxonomy: "panic".to_owned(),
                    message: msg,
                },
                RescueStats::default(),
            ),
            Settled::Skipped => {
                run_report.push(id, "figure", PointStatus::Skipped, RescueStats::default());
            }
        }
    }

    for r in &rendered {
        print!("{}", r.stdout);
        if let Some((path, csv)) = &r.csv {
            std::fs::create_dir_all(path.parent().expect("csv dir"))?;
            std::fs::write(path, csv)?;
            eprintln!("  wrote {}", path.display());
        }
        if let Some((path, svg)) = &r.svg {
            std::fs::create_dir_all(path.parent().expect("svg dir"))?;
            std::fs::write(path, svg)?;
            eprintln!("  wrote {}", path.display());
        }
    }

    if !run_report.all_ok() {
        if obs.active() {
            // Failing traced runs carry the counter totals in the report.
            run_report.attach_metrics();
        }
        println!("{}", run_report.render());
        if strict {
            return Err(format!(
                "{} of {} figure(s) failed (run without --strict to keep partial output)",
                run_report.failed() + run_report.skipped(),
                run_report.records.len()
            )
            .into());
        }
    }

    if let Some(path) = &report_path {
        eprintln!("generating the live measurement report...");
        std::fs::write(path, generate_report(&exp)?)?;
        eprintln!("  wrote {}", path.display());
    }

    for r in &rendered {
        eprintln!("  {:<14} {:>9.1} ms", r.id, r.elapsed.as_secs_f64() * 1e3);
    }
    eprintln!(
        "total: {:.1} ms across {} figure(s) (jobs = {})",
        t_start.elapsed().as_secs_f64() * 1e3,
        rendered.len(),
        if jobs == 0 {
            nvpg_exec::default_jobs()
        } else {
            jobs
        }
    );
    obs_cli::finish(&obs, &trace_dir, "figures", env!("CARGO_PKG_VERSION"))?;
    Ok(())
}
