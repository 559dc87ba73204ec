//! `nvpg-serve` — the long-running simulation daemon.
//!
//! ```text
//! nvpg-serve [--listen ADDR] [--jobs N] [--cache-mb MB]
//!            [--queue-depth N] [--queue-per-client N]
//!            [--default-timeout-ms MS] [--max-timeout-ms MS]
//!            [--rate-limit-rps N] [--rate-limit-burst N]
//!            [--watchdog-stall-ms MS] [--coalesce-window-ms MS] [--batch auto|serial|N]
//!            [--debug-endpoints] [--trace]
//! ```
//!
//! Runs until SIGTERM/SIGINT (ctrl-c), then drains in-flight work and
//! exits 0. Metrics are always recorded (metrics-only obs mode); full
//! span tracing only with `--trace` (not recommended for long uptimes —
//! the span buffer grows until drained).

use std::sync::atomic::{AtomicBool, Ordering};

use nvpg_serve::{ServeConfig, Server};

/// Flipped by the signal handler; the main thread polls it.
static STOP: AtomicBool = AtomicBool::new(false);

/// Minimal async-signal-safe handler: set a flag, nothing else.
extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT (2) and SIGTERM (15) via the C
/// `signal(2)` entry point — libc is already linked by std, so this adds
/// no dependency.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_signal); // SIGINT
        signal(15, on_signal); // SIGTERM
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: nvpg-serve [--listen ADDR] [--jobs N] [--cache-mb MB] \
         [--queue-depth N] [--queue-per-client N] [--default-timeout-ms MS] \
         [--max-timeout-ms MS] [--rate-limit-rps N] [--rate-limit-burst N] \
         [--watchdog-stall-ms MS] [--coalesce-window-ms MS] \
         [--batch auto|serial|N] [--debug-endpoints] [--trace]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServeConfig::default();
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--listen" => config.listen = value("--listen"),
            "--jobs" => match value("--jobs").parse() {
                Ok(n) => config.jobs = n,
                Err(_) => usage(),
            },
            "--cache-mb" => match value("--cache-mb")
                .parse::<usize>()
                .ok()
                .and_then(|mb| mb.checked_mul(1 << 20))
            {
                Some(bytes) => config.cache_bytes = bytes,
                None => usage(),
            },
            "--queue-depth" => match value("--queue-depth").parse() {
                Ok(n) => config.queue_depth = n,
                Err(_) => usage(),
            },
            "--queue-per-client" => match value("--queue-per-client").parse() {
                Ok(n) => config.queue_per_client = n,
                Err(_) => usage(),
            },
            "--default-timeout-ms" => match value("--default-timeout-ms").parse() {
                Ok(ms) => config.default_timeout_ms = ms,
                Err(_) => usage(),
            },
            "--max-timeout-ms" => match value("--max-timeout-ms").parse() {
                Ok(ms) => config.max_timeout_ms = ms,
                Err(_) => usage(),
            },
            "--rate-limit-rps" => match value("--rate-limit-rps").parse() {
                Ok(n) => config.rate_limit_rps = n,
                Err(_) => usage(),
            },
            "--rate-limit-burst" => match value("--rate-limit-burst").parse() {
                Ok(n) => config.rate_limit_burst = n,
                Err(_) => usage(),
            },
            "--watchdog-stall-ms" => match value("--watchdog-stall-ms").parse() {
                Ok(ms) => config.watchdog_stall_ms = ms,
                Err(_) => usage(),
            },
            "--coalesce-window-ms" => match value("--coalesce-window-ms").parse() {
                Ok(ms) => config.coalesce_window_ms = ms,
                Err(_) => usage(),
            },
            "--batch" => match value("--batch").parse() {
                Ok(mode) => nvpg_circuit::set_default_batch(mode),
                Err(_) => usage(),
            },
            "--debug-endpoints" => config.debug_endpoints = true,
            "--trace" => trace = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }

    if trace {
        nvpg_obs::enable();
    } else {
        nvpg_obs::enable_metrics();
    }
    if config.jobs > 0 {
        nvpg_exec::set_default_jobs(config.jobs);
    }

    install_signal_handlers();
    let mut server = match Server::start(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nvpg-serve: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "nvpg-serve listening on {} (jobs={}, cache={} MiB, queue={})",
        server.addr(),
        config.jobs.max(1),
        config.cache_bytes >> 20,
        config.queue_depth
    );

    while !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("nvpg-serve: draining...");
    server.shutdown();
    eprintln!("nvpg-serve: drained, bye");
}
