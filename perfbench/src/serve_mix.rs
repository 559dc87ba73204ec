//! `serve_mix`: the release `nvpg-serve --jobs <nproc>` driven by one
//! generator process over at most `nproc` keep-alive connections — an
//! open-loop Poisson phase at a fixed rate, then a closed-loop batch that
//! keeps every connection busy. The mix puts repeat-key reads (cache
//! hits) beside unique `/bet`, batched `vth_shift` `/sweep` and `/macro`
//! solves. A run splits its load over three freshly started daemons, so
//! set-up time and peak RSS are medians over daemons.
//!
//! At the open-loop rate about half the answers arrive at once (~1 ms)
//! and the rest wait out the keep-alive stall (~42 ms) or a solve, so the
//! median falls between the two modes and swings from seed to seed. The
//! third quartile, `latency_p75_ms`, is the steady latency statistic;
//! p50, p90 and p99 are reported beside it.

use std::collections::HashMap;
use std::error::Error;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nvpg_cells::RetentionKind;
use nvpg_numeric::Rng64;
use nvpg_obs::json::{parse, Json};

use crate::client::Conn;
use crate::layers::{exposition_value, SolverCounts};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile};
use crate::Run;

/// Set-up repetitions (daemon spawns) whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Open-loop arrival rate: about half the closed-loop capacity this mix
/// measured when the benchmark was written (2-CPU host, ~40 rps).
const OPEN_RATE_RPS: f64 = 18.0;
/// Share of `--seconds` given to the open-loop phase.
const OPEN_SHARE: f64 = 0.8;
/// Closed-loop batch size per second of `--seconds`.
const CLOSED_PER_SECOND: f64 = 10.0;
/// `/healthz` requests of the idle keep-alive probe.
const HEALTHZ_PROBES: usize = 20;
/// Longest the daemon may take to come up or to drain.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(60);
/// Figures in the repeat-key set (cheap to render once, then cached).
const HIT_FIGURES: [&str; 6] = ["fig3a", "fig3c", "fig7a", "fig7b", "fig8b", "fig9a"];
const ARCHS: [&str; 2] = ["NVPG", "NOF"];
const MACRO_EDGES: [usize; 2] = [4, 8];
const MACRO_GRANULARITIES: [&str; 3] = ["per_domain", "per_bank2", "per_row"];
/// `vth_shift` values per `/sweep` request.
const SWEEP_POINTS: usize = 8;
/// The signal that asks the daemon to drain and exit.
const SIGTERM: i32 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Hit,
    Bet,
    Sweep,
    Macro,
}

impl Class {
    const ALL: [Class; 4] = [Class::Hit, Class::Bet, Class::Sweep, Class::Macro];

    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Bet => "bet",
            Class::Sweep => "sweep",
            Class::Macro => "macro",
        }
    }
}

#[derive(Debug, Clone)]
struct Job {
    class: Class,
    method: &'static str,
    path: String,
    body: Option<String>,
}

impl Job {
    fn post(class: Class, path: &str, body: String) -> Job {
        Job {
            class,
            method: "POST",
            path: path.to_owned(),
            body: Some(body),
        }
    }

    fn key(&self) -> String {
        format!(
            "{} {} {}",
            self.method,
            self.path,
            self.body.as_deref().unwrap_or("")
        )
    }
}

/// The repeat-key set: cheap figures and one `/bet` per technology ×
/// architecture (which also characterises all three technologies).
fn hit_set() -> Vec<Job> {
    let figures = HIT_FIGURES.iter().map(|id| Job {
        class: Class::Hit,
        method: "GET",
        path: format!("/figures/{id}"),
        body: None,
    });
    let bets = RetentionKind::LABELS.iter().flat_map(|t| {
        ARCHS.iter().map(move |a| {
            Job::post(
                Class::Hit,
                "/bet",
                format!("{{\"arch\":\"{a}\",\"technology\":\"{t}\"}}"),
            )
        })
    });
    figures.chain(bets).collect()
}

fn pick<'a, T>(rng: &mut Rng64, items: &'a [T]) -> &'a T {
    &items[rng.gen_range_u64(0..items.len() as u64) as usize]
}

/// One block of the mix: five repeat-key reads, two unique `/bet`, two
/// unique `vth_shift` sweeps and one `/macro` grid point. Classes are
/// dealt from shuffled blocks, so every run holds these shares however
/// few requests it has, and only the order and the keys vary by seed.
const BLOCK: [Class; 10] = [
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Bet,
    Class::Bet,
    Class::Sweep,
    Class::Sweep,
    Class::Macro,
];

/// The request stream of one run, drawn from its seed.
struct Mix {
    rng: Rng64,
    block: Vec<Class>,
    drawn: usize,
    hits: Vec<Job>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng64::seed_from_u64(seed),
            block: Vec::new(),
            drawn: 0,
            hits: hit_set(),
        }
    }

    fn next(&mut self) -> Job {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.gen_range_u64(0..i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        let class = self.block.pop().expect("refilled above");
        self.drawn += 1;
        let rng = &mut self.rng;
        let tech = *pick(rng, &RetentionKind::LABELS);
        let arch = *pick(rng, &ARCHS);
        match class {
            Class::Hit => pick(rng, &self.hits).clone(),
            Class::Bet => {
                // `n_rw` is unique per request, so every one is a cache miss.
                let n_rw = 1000 + self.drawn;
                let body =
                    format!("{{\"arch\":\"{arch}\",\"technology\":\"{tech}\",\"n_rw\":{n_rw}}}");
                Job::post(Class::Bet, "/bet", body)
            }
            Class::Sweep => {
                let values: Vec<String> = (0..SWEEP_POINTS)
                    .map(|j| {
                        let v = (j as f64 - 3.5) * 5e-3 + rng.gen_range(-2e-3..2e-3);
                        format!("{v:e}")
                    })
                    .collect();
                let body = format!(
                    "{{\"arch\":\"NVPG\",\"technology\":\"{tech}\",\"var\":\"vth_shift\",\
                     \"values\":[{}]}}",
                    values.join(",")
                );
                Job::post(Class::Sweep, "/sweep", body)
            }
            Class::Macro => {
                let edge = *pick(rng, &MACRO_EDGES);
                let g = *pick(rng, &MACRO_GRANULARITIES);
                let body = format!(
                    "{{\"rows\":{edge},\"cols\":{edge},\"mux\":2,\"granularity\":\"{g}\",\
                     \"technology\":\"{tech}\",\"arch\":\"{arch}\"}}"
                );
                Job::post(Class::Macro, "/macro", body)
            }
        }
    }
}

/// Checks that a 200 body is well formed for its class.
fn well_formed(job: &Job, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    if job.method == "GET" {
        return if text.starts_with("series,x,y\n") && text.lines().count() > 1 {
            Ok(())
        } else {
            Err("figure CSV without rows".into())
        };
    }
    let json = parse(text.trim_end()).map_err(|e| e.to_string())?;
    let obj = json.as_obj().ok_or("body is not a JSON object")?;
    let bet_ok = |v: Option<&Json>| {
        v.and_then(Json::as_obj)
            .and_then(|b| b.get("kind"))
            .and_then(Json::as_str)
            .is_some()
    };
    let ok = match job.class {
        Class::Hit | Class::Bet => bet_ok(obj.get("bet")),
        Class::Sweep => obj.get("points").and_then(Json::as_arr).is_some_and(|p| {
            p.len() == SWEEP_POINTS
                && p.iter()
                    .all(|x| bet_ok(x.as_obj().and_then(|o| o.get("bet"))))
        }),
        Class::Macro => {
            bet_ok(obj.get("bet"))
                && obj
                    .get("unknowns")
                    .and_then(Json::as_u64)
                    .is_some_and(|n| n > 0)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("malformed {} body: {text}", job.class.name()))
    }
}

/// The first answer seen for every key; a repeat must be byte-identical.
type Firsts = Mutex<HashMap<String, Vec<u8>>>;

/// One request's fate.
struct Outcome {
    class: Class,
    ok: bool,
    /// Due (open loop) or send (closed loop) → response read, ms.
    latency_ms: f64,
    /// Due → send: time spent waiting for a free connection, ms.
    wait_ms: f64,
    /// Send delay beyond the moment the request could have gone, ms.
    lag_ms: f64,
    error: Option<String>,
}

fn send(conn: &mut Conn, job: &Job, firsts: &Firsts) -> Result<(), String> {
    let _span = nvpg_obs::span_labeled("bench.http", job.class.name());
    let reply = conn
        .request(job.method, &job.path, job.body.as_deref())
        .map_err(|e| format!("{} {}: {e}", job.method, job.path))?;
    if reply.status != 200 {
        return Err(format!(
            "{} {} answered {}: {}",
            job.method,
            job.path,
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    well_formed(job, &reply.body)?;
    let mut firsts = firsts.lock().expect("first-answer map");
    match firsts.get(&job.key()) {
        Some(first) if *first != reply.body => Err(format!(
            "repeat of {} {} differs from its first answer",
            job.method, job.path
        )),
        Some(_) => Ok(()),
        None => {
            firsts.insert(job.key(), reply.body);
            Ok(())
        }
    }
}

/// Drives `jobs` over the connections, one thread per connection. With
/// `due` (seconds from the phase start) the phase is open loop: each
/// request waits for its due time and is timed from it; otherwise each
/// connection sends its next request as soon as the previous answered.
/// Returns the outcomes and the phase's wall seconds.
fn drive(
    conns: &mut [Conn],
    jobs: &[Job],
    due: Option<&[f64]>,
    firsts: &Firsts,
) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let at = |s: f64| start + Duration::from_secs_f64(s);
    let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let pickup = Instant::now();
                        let due_at = due.map_or(pickup, |d| at(d[i]));
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let result = send(conn, job, firsts);
                        let done = Instant::now();
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        out.push(Outcome {
                            class: job.class,
                            ok: result.is_ok(),
                            latency_ms: ms(done.saturating_duration_since(due_at)),
                            wait_ms: ms(sent.saturating_duration_since(due_at)),
                            lag_ms: ms(sent.saturating_duration_since(due_at.max(pickup))),
                            error: result.err(),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    outcomes.sort_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
    (outcomes, wall)
}

/// A running daemon, stopped (SIGKILL) on drop unless drained first.
struct Daemon {
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(bin: &str, jobs: usize, trace: bool) -> Result<Daemon, Box<dyn Error>> {
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0", "--jobs", &jobs.to_string()]);
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_PDEATHSIG: i32 = 1;
        // SAFETY: the closure runs in the forked child just before exec and
        // only calls prctl(2), which is async-signal-safe and reads no
        // memory of ours. If this process dies without draining the
        // daemon (killed from outside), the kernel sends it SIGTERM.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGTERM as u64) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        if trace {
            cmd.arg("--trace");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        // A daemon that fails to bind exits; EOF ends the read.
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .split_whitespace()
                .skip_while(|w| *w != "on")
                .nth(1)
                .map(str::to_owned),
            _ => None,
        };
        let mut d = Daemon {
            child: Some(child),
            _stdout: stdout,
            addr: String::new(),
        };
        d.addr =
            addr.ok_or_else(|| format!("daemon did not report its address: `{}`", line.trim()))?;
        Ok(d)
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Polls `/healthz` on fresh connections until the first 200.
    fn wait_healthy(&self) -> Result<(), Box<dyn Error>> {
        let t0 = Instant::now();
        while t0.elapsed() < DAEMON_TIMEOUT {
            if let Ok(r) = Conn::new(&self.addr).request("GET", "/healthz", None) {
                if r.status == 200 {
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon never answered /healthz".into())
    }

    /// SIGTERM, then waits for the drain. `Ok(true)` is a clean exit 0.
    /// Whatever ends the wait early, the child stays owned by `self`, so
    /// drop kills and reaps it.
    fn drain(mut self) -> Result<bool, Box<dyn Error>> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        let child = self.child.as_mut().expect("daemon not yet drained");
        let pid = i32::try_from(child.id())?;
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // ours. The child has not been reaped, so `pid` still names it.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err("cannot signal the daemon".into());
        }
        let t0 = Instant::now();
        while t0.elapsed() < DAEMON_TIMEOUT {
            if let Some(status) = child.try_wait()? {
                self.child = None;
                return Ok(status.success());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(false)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The daemon binary the launcher built from this checkout.
fn daemon_bin() -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned());
    format!("{dir}/release/nvpg-serve")
}

/// Spawns a daemon, waits for `/healthz`, and warms the repeat-key set on
/// one keep-alive connection. Returns the daemon and the set-up seconds.
fn set_up(
    run: &Run,
    trace: bool,
    firsts: &Firsts,
    rep: &mut Report,
) -> Result<(Daemon, f64), Box<dyn Error>> {
    let t0 = Instant::now();
    let d = Daemon::spawn(&daemon_bin(), run.jobs, trace)?;
    d.wait_healthy()?;
    let mut conn = Conn::new(&d.addr);
    for job in hit_set() {
        let r = send(&mut conn, &job, firsts);
        if let Err(e) = &r {
            rep.check("serve.warm", false, e.clone());
        }
        rep.op(r.is_ok());
    }
    Ok((d, t0.elapsed().as_secs_f64()))
}

/// Stops a daemon and counts its clean drain as one operation.
fn drain(d: Daemon, rep: &mut Report) -> Result<(), Box<dyn Error>> {
    let clean = d.drain()?;
    rep.op(clean);
    if !clean && !rep.checks.iter().any(|c| c.name == "serve.drain_exit_0") {
        rep.check(
            "serve.drain_exit_0",
            false,
            "daemon did not exit 0 after SIGTERM",
        );
    }
    Ok(())
}

fn metrics(conn: &mut Conn) -> Result<String, Box<dyn Error>> {
    let r = conn.request("GET", "/metrics", None)?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status).into());
    }
    Ok(String::from_utf8(r.body)?)
}

/// The open-loop schedule: Poisson arrivals at [`OPEN_RATE_RPS`] over
/// `seconds`, each with the next request of the mix.
fn open_schedule(mix: &mut Mix, seconds: f64) -> (Vec<f64>, Vec<Job>) {
    let (mut due, mut jobs) = (Vec::new(), Vec::new());
    let mut t = 0.0;
    loop {
        t += -(1.0 - mix.rng.gen_f64()).ln() / OPEN_RATE_RPS;
        if t >= seconds {
            return (due, jobs);
        }
        due.push(t);
        jobs.push(mix.next());
    }
}

/// Latencies (ms) of one class; a failed request counts as infinitely late.
fn latencies(outcomes: &[Outcome], class: Option<Class>) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| class.is_none_or(|c| o.class == c))
        .map(|o| if o.ok { o.latency_ms } else { f64::INFINITY })
        .collect()
}

/// The measured phases on one daemon.
struct Part {
    open: Vec<Outcome>,
    closed: Vec<Outcome>,
    closed_wall_s: f64,
    /// `/metrics` before and after the phases.
    before: String,
    after: String,
    rss_mb: f64,
}

impl Part {
    /// Counter or gauge `name` after the phases minus before.
    fn delta(&self, name: &str) -> f64 {
        exposition_value(&self.after, name) - exposition_value(&self.before, name)
    }
}

/// One daemon's share of the load: (an idle `/healthz` probe), the
/// open-loop phase, the closed-loop batch, `/metrics` around them and
/// the daemon's peak RSS.
#[allow(clippy::too_many_arguments)]
fn measure(
    run: &Run,
    daemon: &Daemon,
    mix: &mut Mix,
    open_s: f64,
    closed_n: usize,
    firsts: &Firsts,
    healthz: bool,
    rep: &mut Report,
) -> Result<Part, Box<dyn Error>> {
    let mut conns: Vec<Conn> = (0..run.jobs).map(|_| Conn::new(&daemon.addr)).collect();
    if healthz {
        // Idle, reused connection: every answer after the first shows
        // what a keep-alive client waits per response.
        let mut ms = Vec::with_capacity(HEALTHZ_PROBES);
        for _ in 0..HEALTHZ_PROBES {
            let t0 = Instant::now();
            let r = conns[0].request("GET", "/healthz", None);
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rep.op(matches!(r, Ok(ref r) if r.status == 200));
        }
        rep.layer("serve.healthz_p50_ms", median(&ms), "ms");
    }
    let before = metrics(&mut conns[0])?;
    let (due, jobs) = open_schedule(mix, open_s);
    let (open, _) = drive(&mut conns, &jobs, Some(&due), firsts);
    let closed_jobs: Vec<Job> = (0..closed_n).map(|_| mix.next()).collect();
    let (closed, closed_wall_s) = drive(&mut conns, &closed_jobs, None, firsts);
    let after = metrics(&mut conns[0])?;
    for o in open.iter().chain(&closed) {
        rep.op(o.ok);
        if let Some(e) = &o.error {
            if !rep.checks.iter().any(|c| c.name == "serve.responses") {
                rep.check("serve.responses", false, e.clone());
            }
        }
    }
    let rss_mb = peak_rss_mb(&daemon.pid()).ok_or("cannot read the daemon's VmHWM")?;
    Ok(Part {
        open,
        closed,
        closed_wall_s,
        before,
        after,
        rss_mb,
    })
}

/// Runs the load as [`SETUP_REPS`] parts, each on a freshly set-up
/// daemon that is drained afterwards, so set-up time and peak RSS are
/// medians over daemons. Returns the parts and the set-up times.
fn parts(
    run: &Run,
    traced: bool,
    mix: &mut Mix,
    open_s: f64,
    closed_n: usize,
    firsts: &Firsts,
    rep: &mut Report,
) -> Result<(Vec<Part>, Vec<f64>), Box<dyn Error>> {
    let mut out = Vec::with_capacity(SETUP_REPS);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        let (d, s) = set_up(run, traced, firsts, rep)?;
        setups.push(s);
        let n = (closed_n / SETUP_REPS).max(run.jobs);
        let part = measure(
            run,
            &d,
            mix,
            open_s / SETUP_REPS as f64,
            n,
            firsts,
            traced && i == 0,
            rep,
        );
        drain(d, rep)?;
        out.push(part?);
    }
    Ok((out, setups))
}

/// Open-loop latencies of every part, pooled.
fn pooled_latencies(parts: &[Part], class: Option<Class>) -> Vec<f64> {
    parts
        .iter()
        .flat_map(|p| latencies(&p.open, class))
        .collect()
}

/// The end-to-end metrics of a set of parts.
fn end_to_end(run: &Run, parts: &[Part], setups: &[f64], rep: &mut Report) {
    let all = pooled_latencies(parts, None);
    rep.e2e("setup_s", median(setups), "s");
    rep.e2e("latency_p50_ms", median(&all), "ms");
    rep.e2e("latency_p75_ms", percentile(&all, 75.0), "ms");
    rep.e2e("latency_p90_ms", percentile(&all, 90.0), "ms");
    rep.e2e("latency_p99_ms", percentile(&all, 99.0), "ms");
    let wall: f64 = parts.iter().map(|p| p.closed_wall_s).sum();
    let ok = parts
        .iter()
        .flat_map(|p| &p.closed)
        .filter(|o| o.ok)
        .count();
    rep.e2e("wall_s", wall, "s");
    rep.e2e("capacity_rps", ok as f64 / wall, "1/s");
    let rss: Vec<f64> = parts.iter().map(|p| p.rss_mb).collect();
    rep.e2e("peak_rss_mb", median(&rss), "MiB");
    rep.note("open_loop_requests", all.len());
    rep.note("open_loop_beyond_p99", all.len() / 100);
    rep.note("open_loop_rate_rps", OPEN_RATE_RPS);
    rep.note(
        "closed_loop_requests",
        parts.iter().map(|p| p.closed.len()).sum::<usize>(),
    );
    rep.note("connections_per_daemon", run.jobs);
    rep.note("daemons", parts.len());
}

/// The per-layer metrics of a set of parts.
fn layers(parts: &[Part], rep: &mut Report) {
    for class in Class::ALL {
        let l = pooled_latencies(parts, Some(class));
        let name = class.name();
        rep.note(&format!("open_loop_{name}_requests"), l.len());
        rep.layer(&format!("serve.{name}_p50_ms"), median(&l), "ms");
        if class != Class::Bet {
            rep.layer(&format!("serve.{name}_p90_ms"), percentile(&l, 90.0), "ms");
        }
    }
    let open: Vec<&Outcome> = parts.iter().flat_map(|p| &p.open).collect();
    let waits: Vec<f64> = open.iter().map(|o| o.wait_ms).collect();
    let lags: Vec<f64> = open.iter().map(|o| o.lag_ms).collect();
    rep.layer("serve.client_wait_p99_ms", percentile(&waits, 99.0), "ms");
    rep.note(
        "generator_lag_p99_ms",
        format!("{:.3}", percentile(&lags, 99.0)),
    );
    rep.note(
        "generator_lag_max_ms",
        format!("{:.3}", percentile(&lags, 100.0)),
    );
    let mut slowest = open;
    slowest.sort_by(|a, b| b.latency_ms.total_cmp(&a.latency_ms));
    let slowest: Vec<String> = slowest
        .iter()
        .take(slowest.len().div_ceil(100))
        .map(|o| format!("{}:{:.1}", o.class.name(), o.latency_ms))
        .collect();
    rep.note("open_loop_slowest_percent_ms", slowest.join(" "));

    let sum = |name: &str| parts.iter().map(|p| p.delta(name)).sum::<f64>();
    let (hits, solves) = (sum("serve.cache_hits"), sum("serve.solves"));
    rep.layer("serve.cache_hit_rate", hits / (hits + solves).max(1.0), "1");
    rep.layer("serve.solves", solves, "count");
    rep.layer("serve.evictions", sum("serve.evictions"), "count");
    rep.layer("serve.rejected", sum("serve.rejected"), "count");
    rep.layer("serve.coalesced", sum("serve.batch.coalesced"), "count");
    let mut counts = SolverCounts::default();
    for p in parts {
        let d = SolverCounts::from_exposition(&p.after)
            .since(&SolverCounts::from_exposition(&p.before));
        counts = counts.plus(&d);
    }
    counts.count_layers(rep);
    rep.note(
        "solver_counts",
        "the daemon's solve.* counters count transient analyses; its /sweep and /macro work is DC",
    );
}

pub fn run(run: &Run, rep: &mut Report) -> Result<(), Box<dyn Error>> {
    let mut mix = Mix::new(run.seed);
    let firsts: Firsts = Mutex::new(HashMap::new());
    let open_s = run.seconds * OPEN_SHARE;
    let closed_n = (run.seconds * CLOSED_PER_SECOND) as usize;

    if run.trace {
        // Half the time on untraced daemons (the overhead baseline and the
        // end-to-end numbers), half on `--trace` daemons for the layers.
        let (base, setups) = parts(
            run,
            false,
            &mut mix,
            open_s / 2.0,
            closed_n / 2,
            &firsts,
            rep,
        )?;
        end_to_end(run, &base, &setups, rep);
        nvpg_obs::enable();
        let (traced, _) = parts(
            run,
            true,
            &mut mix,
            open_s / 2.0,
            closed_n / 2,
            &firsts,
            rep,
        )?;
        nvpg_obs::disable();
        layers(&traced, rep);
        let p75 = |p: &[Part]| percentile(&pooled_latencies(p, None), 75.0);
        rep.layer(
            "obs.trace_overhead_frac",
            p75(&traced) / p75(&base) - 1.0,
            "1",
        );
    } else {
        let (all, setups) = parts(run, false, &mut mix, open_s, closed_n, &firsts, rep)?;
        end_to_end(run, &all, &setups, rep);
        layers(&all, rep);
    }
    if !rep.checks.iter().any(|c| c.name == "serve.responses") {
        rep.check(
            "serve.responses",
            true,
            "every response 200, well formed, repeats byte-identical",
        );
    }
    if !rep.checks.iter().any(|c| c.name == "serve.drain_exit_0") {
        rep.check(
            "serve.drain_exit_0",
            true,
            "every daemon drained to exit 0 on SIGTERM",
        );
    }
    for name in ["core.*", "exec.*", "macrogen.*", "cells.characterize_s"] {
        rep.drop_layer(name, "runs inside the daemon, which exports no spans");
    }
    for name in [
        "numeric.refactor_us",
        "numeric.lu_solve_us",
        "numeric.lu_est_s",
        "devices.load_ns",
        "devices.eval_est_s",
        "circuit.solve_s, steps_per_s, max_lte_ratio, other_est_s",
    ] {
        rep.drop_layer(
            name,
            "needs in-process spans or probes; the daemon exports only counters",
        );
    }
    Ok(())
}
