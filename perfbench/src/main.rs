//! `perfbench` — one outside-in benchmark of the nvpg workspace.
//!
//! ```text
//! bash perfbench/run.sh --workload figures|macro16|serve_mix|all
//!                       [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! bash perfbench/run.sh --compare OLD.jsonl NEW.jsonl
//! ```
//!
//! `run.sh` builds the release `nvpg-serve` daemon and this package from
//! the checkout, then runs this binary. Each workload runs in its own
//! process sized to the host's CPU count, so no workload inherits another's
//! characterisation memo or pays its set-up:
//!
//! * `figures` — regenerates the 18 default figures after pre-warming the
//!   characterisation memo (dense LU, Newton/LTE control, cell recipes,
//!   the `exec` pool);
//! * `macro16` — a 16×16 MTJ macro's store → shutdown → hold → restore
//!   on the sparse backend (sparse LU and device evaluation);
//! * `serve_mix` — the daemon under an open-loop Poisson phase and a
//!   closed-loop batch of mixed reads and solves over keep-alive
//!   connections (HTTP, admission, cache, single-flight, coalescing).
//!
//! Every workload checks its outputs; failed or wrong operations are
//! counted against the operations attempted. Standard error gets a table
//! of every metric by name and unit; standard output gets the full report
//! (metrics, counts, checks, host facts) as one JSON line, then a summary
//! line holding the metrics `BENCHMARK.json` lists: its `end_to_end`
//! metrics for `--trace 0`, its `per_layer` metrics for `--trace 1`.
//! A traced run measures half its time untraced, for the tracing overhead.
//!
//! `--out FILE` appends the report line to `FILE`; `--compare` reads two
//! such files and prints each metric's median, quartiles and delta.
//!
//! The `figures` reference set under `reference/figures` is the output of
//! `figures --csv perfbench/reference/figures` at the commit that added
//! it; regenerate it the same way when figure numerics change on purpose.

mod client;
mod compare;
mod figures;
mod layers;
mod macro16;
mod probe;
mod report;
mod serve_mix;
mod spans;
mod stats;

use std::error::Error;
use std::io::Write as _;
use std::process::ExitCode;

use nvpg_obs::json::{parse, Json};

use report::{metrics_json, Host, Metric, Report};

/// One workload run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads (and connections): the host's CPU count.
    pub jobs: usize,
}

const WORKLOADS: [&str; 3] = ["figures", "macro16", "serve_mix"];
const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// One metric `BENCHMARK.json` lists.
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The metric lists of `BENCHMARK.json`.
pub struct Spec {
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

fn load_spec() -> Result<Spec, Box<dyn Error>> {
    let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
    let json = parse(&text)?;
    let list = |key: &str| -> Result<Vec<SpecMetric>, Box<dyn Error>> {
        let items = json
            .as_obj()
            .and_then(|o| o.get(key))
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?;
        items
            .iter()
            .map(|m| {
                let o = m
                    .as_obj()
                    .ok_or("BENCHMARK.json: metric is not an object")?;
                let s = |k: &str| {
                    o.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                Ok(SpecMetric {
                    name: s("name"),
                    unit: s("unit"),
                    lower_is_better: s("better") == "lower",
                    bound: o
                        .get("bound")
                        .and_then(Json::as_num)
                        .unwrap_or(f64::INFINITY),
                })
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: perfbench --workload figures|macro16|serve_mix|all [--seed N] \
                     [--seconds S] [--trace 0|1] [--out FILE]\n       \
                     perfbench --compare OLD NEW";

fn parse_args() -> Result<Args, Box<dyn Error>> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value()?),
            "--compare" => a.compare = Some((value()?, value()?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}").into()),
        }
    }
    if a.compare.is_none() && !(a.workload == "all" || WORKLOADS.contains(&a.workload.as_str())) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all\n{USAGE}").into());
    }
    Ok(a)
}

/// Runs every workload, each in a fresh process of this binary.
fn run_all() -> Result<ExitCode, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in WORKLOADS {
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = w.to_owned();
        }
        ok &= std::process::Command::new(&exe)
            .args(&args)
            .status()?
            .success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The summary line: the metrics `BENCHMARK.json` lists for this mode.
fn summary_line(rep: &Report, listed: &[SpecMetric]) -> Result<String, Box<dyn Error>> {
    let metrics: Vec<Metric> = listed
        .iter()
        .map(|s| {
            let m = rep
                .metric(&s.name)
                .ok_or_else(|| format!("{}: metric `{}` was not measured", rep.workload, s.name))?;
            if m.unit != s.unit {
                return Err(format!(
                    "{}: unit `{}` but BENCHMARK.json says `{}`",
                    s.name, m.unit, s.unit
                )
                .into());
            }
            Ok(m.clone())
        })
        .collect::<Result<_, Box<dyn Error>>>()?;
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        rep.correct(),
        rep.attempted,
        rep.failed,
        metrics_json(&metrics)
    ))
}

fn real_main() -> Result<ExitCode, Box<dyn Error>> {
    let args = parse_args()?;
    let spec = load_spec()?;
    if let Some((old, new)) = &args.compare {
        compare::compare(old, new, &spec)?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.workload == "all" {
        return run_all();
    }
    let host = Host::detect();
    nvpg_exec::set_default_jobs(host.nproc);
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        jobs: host.nproc,
    };
    let mut rep = Report::new(&args.workload, args.seed, args.seconds as u64, args.trace);
    match args.workload.as_str() {
        "figures" => figures::run(&run, &mut rep)?,
        "macro16" => macro16::run(&run, &mut rep)?,
        _ => serve_mix::run(&run, &mut rep)?,
    }
    let listed = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let summary = summary_line(&rep, listed)?;
    let full = rep.to_json(&host);
    eprint!("{}", rep.render_table());
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{full}")?;
    }
    println!("{full}");
    println!("{summary}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
