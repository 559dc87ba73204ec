//! `validate` — the golden-reference validation harness's entry point.
//!
//! ```text
//! validate [--check | --bless] [--goldens DIR] [--jobs N] [--random N]
//!          [--fuzz N] [--seed S] [--no-ngspice] [--deck ID]...
//! ```
//!
//! * `--check` (the default) runs, in order: the full differential
//!   matrix (dense×sparse, DC + transient, plus the jobs-invariance
//!   bit-compare), the committed-golden comparison for
//!   every registry deck, `--random N` seeded random-netlist
//!   equivalence points, a `--fuzz N`-iteration mutation smoke loop
//!   over the hostile corpus, and — when an `ngspice` binary is on
//!   `PATH` — the external-oracle cross-check (absent binary = counted
//!   skip, never a failure). Exit 0 when everything passes, 1 when any
//!   check fails, 2 on usage errors.
//! * `--bless` regenerates `goldens/` — but refuses, writing nothing,
//!   while the differential matrix disagrees with itself.
//!
//! Output is a [`ValidationReport`]: the familiar run-report summary
//! plus a failures appendix tagged with the same taxonomy the figures
//! pipeline uses, followed by the `validate.*` counter totals.

use std::process::ExitCode;

use nvpg_circuit::registry::fuzz_smoke;
use nvpg_core::validate::golden::{bless, check_goldens, default_goldens_dir};
use nvpg_core::validate::{
    run_matrix, run_ngspice_checks, run_random_equivalence, MatrixConfig, Tolerance,
    ValidationReport,
};
use nvpg_obs::metrics::counters;

fn usage() -> ! {
    eprintln!(
        "usage: validate [--check | --bless] [--goldens DIR] [--jobs N] [--random N]\n\
         \x20               [--fuzz N] [--seed S] [--no-ngspice] [--deck ID]..."
    );
    std::process::exit(2);
}

struct Options {
    bless: bool,
    goldens: std::path::PathBuf,
    jobs: usize,
    random: u64,
    fuzz: u64,
    seed: u64,
    ngspice: bool,
    decks: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            bless: false,
            goldens: default_goldens_dir(),
            jobs: 0,
            random: 40,
            fuzz: 2000,
            seed: 0x5eed,
            ngspice: true,
            decks: Vec::new(),
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs an unsigned integer");
                usage();
            })
        };
        match arg.as_str() {
            "--check" => opts.bless = false,
            "--bless" => opts.bless = true,
            "--goldens" => opts.goldens = args.next().unwrap_or_else(|| usage()).into(),
            "--jobs" => opts.jobs = num("--jobs") as usize,
            "--random" => opts.random = num("--random"),
            "--fuzz" => opts.fuzz = num("--fuzz"),
            "--seed" => opts.seed = num("--seed"),
            "--no-ngspice" => opts.ngspice = false,
            "--deck" => opts.decks.push(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    opts
}

fn matrix_config(opts: &Options) -> MatrixConfig {
    MatrixConfig {
        jobs: opts.jobs,
        decks: if opts.decks.is_empty() {
            None
        } else {
            Some(opts.decks.clone())
        },
        ..MatrixConfig::default()
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    nvpg_obs::enable_metrics();
    let cfg = matrix_config(&opts);

    if opts.bless {
        match bless(&opts.goldens, &cfg) {
            Ok(written) => {
                println!(
                    "blessed {} goldens into {}:",
                    written.len(),
                    opts.goldens.display()
                );
                for path in written {
                    println!("  {}", path.display());
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut report = ValidationReport::new();

    println!("== differential matrix ==");
    report.extend(run_matrix(&cfg));

    // Golden comparison only makes sense over the full registry; a
    // --deck-filtered run is a matrix drill-down, not a golden audit.
    if opts.decks.is_empty() {
        println!("== committed goldens ==");
        check_goldens(&opts.goldens, &mut report);
    }

    if opts.random > 0 {
        println!("== random-netlist equivalence ({} seeds) ==", opts.random);
        report.extend(run_random_equivalence(
            opts.random,
            opts.seed,
            &Tolerance::MATRIX,
        ));
    }

    if opts.fuzz > 0 {
        println!("== fuzz smoke ({} mutants) ==", opts.fuzz);
        match fuzz_smoke(opts.fuzz, opts.seed) {
            Ok(cases) => {
                counters::VALIDATE_FUZZ_CASES.add(cases);
                report.pass("fuzz:smoke", format!("{cases} mutants, no panic"));
            }
            Err(e) => report.fail(
                "fuzz:smoke",
                format!("seed {:#x}", opts.seed),
                "fuzz_panic",
                e,
            ),
        }
    }

    if opts.ngspice {
        println!("== ngspice oracle ==");
        run_ngspice_checks(&mut report);
    }

    println!();
    print!("{report}");
    let snap = nvpg_obs::metrics::snapshot();
    println!("validate counters:");
    for (name, value) in &snap.counters {
        if name.starts_with("validate.") {
            println!("  {name} = {value}");
        }
    }

    if report.passed() {
        println!("validation PASSED");
        ExitCode::SUCCESS
    } else {
        println!("validation FAILED");
        ExitCode::FAILURE
    }
}
