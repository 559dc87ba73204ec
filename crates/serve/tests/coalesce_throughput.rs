//! Wall-clock gate for `/sweep` coalescing: under open-loop Poisson load
//! of same-topology sweeps, a 20 ms coalescing window completes at least
//! twice the requests per second of an un-coalesced server.
//!
//! Every request posts a shared 24-point `vth_shift` grid plus one unique
//! jitter point, so requests share a topology but never a cache key:
//! neither the cache nor single-flight can help, only the coalescer. Each
//! point is a real batched 4×4 domain operating-point solve, so the solve
//! (the part a coalesced union dedupes) dominates the request.
//!
//! The only test in its file, so no sibling test shares the CPU or the
//! process-global metrics registry.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use nvpg_obs::metrics::counters;
use nvpg_serve::{ServeConfig, Server};

/// Worker threads. More workers than cores is deliberate: a parked batch
/// follower occupies a worker slot, so the worker count bounds the
/// achievable batch width.
const JOBS: usize = 16;
/// Requests per open-loop run.
const REQUESTS: usize = 96;
/// Points of the shared sweep grid.
const GRID: usize = 24;

fn sweep_body(jitter: usize) -> String {
    // -12 mV .. +11 mV in 1 mV steps, identical across requests; the
    // unique point stays inside the handler's |v| <= 0.5 V bound even for
    // the calibration's million-scale jitters.
    let values: Vec<String> = (0..GRID)
        .map(|i| ((i as f64 - 12.0) * 1e-3).to_string())
        .chain([(0.05 + jitter as f64 * 1e-7).to_string()])
        .collect();
    format!(
        "{{\"arch\":\"NVPG\",\"var\":\"vth_shift\",\"values\":[{}]}}",
        values.join(",")
    )
}

/// One POST on a fresh connection; the response status, or the transport
/// error.
fn post(addr: SocketAddr, path: &str, body: &str) -> Result<u16, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| e.to_string())?;
    reply
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in `{reply}`"))
}

/// A cache-less server with the given coalescing window, warmed so the
/// one-off Table I characterisation is paid before any clock starts.
fn start(coalesce_window_ms: u64) -> Server {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        jobs: JOBS,
        cache_bytes: 0,
        queue_depth: 1024,
        default_timeout_ms: 120_000,
        coalesce_window_ms,
        ..ServeConfig::default()
    })
    .expect("server starts");
    assert_eq!(post(server.addr(), "/bet", r#"{"arch":"NVPG"}"#), Ok(200));
    server
}

/// splitmix64 step for the Poisson arrival schedule.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Run {
    /// Completed (200) requests per second of wall time.
    rps: f64,
    /// `serve.batch.batches` delta.
    batches: u64,
    /// `serve.batch.coalesced` delta.
    coalesced: u64,
}

/// `REQUESTS` sweeps launched at Poisson arrival instants at
/// `offered_rps` against a fresh server with the given window.
fn open_loop(window_ms: u64, offered_rps: f64) -> Run {
    let server = start(window_ms);
    let addr = server.addr();
    let batches0 = counters::SERVE_BATCH_BATCHES.get();
    let coalesced0 = counters::SERVE_BATCH_COALESCED.get();

    let mut state = 0x5eed_0123_4567_89abu64 ^ window_ms;
    let t0 = Instant::now();
    let statuses: Vec<Result<u16, String>> = std::thread::scope(|scope| {
        let mut due = Duration::ZERO;
        let handles: Vec<_> = (0..REQUESTS)
            .map(|i| {
                let u = ((splitmix64(&mut state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                due += Duration::from_secs_f64(-u.ln() / offered_rps);
                if let Some(wait) = due.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                scope.spawn(move || post(addr, "/sweep", &sweep_body(i)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("request thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    drop(server);

    for (i, status) in statuses.iter().enumerate() {
        assert!(
            matches!(status, Ok(code) if *code < 500),
            "window {window_ms} ms: sweep {i} answered {status:?}"
        );
    }
    let completed = statuses.iter().filter(|s| **s == Ok(200)).count();
    Run {
        rps: completed as f64 / wall_s.max(1e-9),
        batches: counters::SERVE_BATCH_BATCHES.get() - batches0,
        coalesced: counters::SERVE_BATCH_COALESCED.get() - coalesced0,
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only gate: cargo test --release")]
fn coalescing_doubles_open_loop_sweep_throughput() {
    nvpg_obs::enable_metrics();
    nvpg_exec::set_default_jobs(JOBS);

    // Offer ~6× the un-coalesced capacity, from the best of three
    // sequential requests against a window=0 server.
    let server = start(0);
    let service_s = (0..3)
        .map(|i| {
            let t0 = Instant::now();
            assert_eq!(
                post(server.addr(), "/sweep", &sweep_body(1_000_000 + i)),
                Ok(200)
            );
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    drop(server);
    let offered_rps = (6.0 / service_s.max(1e-4)).clamp(10.0, 1500.0);

    let uncoalesced = open_loop(0, offered_rps);
    let coalesced = open_loop(20, offered_rps);
    assert_eq!(
        (uncoalesced.batches, uncoalesced.coalesced),
        (0, 0),
        "a window=0 server ticked the batch counters"
    );
    assert!(
        coalesced.batches > 0 && coalesced.coalesced > 0,
        "coalescing counters show no batching (batches {}, coalesced {})",
        coalesced.batches,
        coalesced.coalesced
    );
    let ratio = coalesced.rps / uncoalesced.rps.max(1e-9);
    assert!(
        ratio >= 2.0,
        "coalesced /sweep throughput is {ratio:.2}x un-coalesced (gate: >= 2x; \
         {:.1} vs {:.1} rps at {offered_rps:.0} rps offered)",
        coalesced.rps,
        uncoalesced.rps
    );
}
