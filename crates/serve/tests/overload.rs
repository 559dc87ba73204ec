//! The overload gate: a mixed-tenant storm against a rate-limited server
//! with deadlines on.
//!
//! Four unpaced **heavy** connections post slow transient decks under a
//! 300 ms deadline, each with its own `t_stop` (so its own cache and
//! single-flight key). Two **light** connections each make 25 paced,
//! cached `fig7a` reads. The server must shed the flood with `429` rate
//! limits and `504` deadlines while every light read answers `200`
//! within a 750 ms p99, and once the storm ends it must answer at once
//! (no wedged worker) and drain cleanly.
//!
//! The only test in its file, so no sibling test shares the CPU or the
//! process-global metrics registry.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use common::{call, get, p99_ms, slow_body};
use nvpg_obs::metrics::counters;
use nvpg_serve::{ServeConfig, Server};

const HEAVY_CONNECTIONS: usize = 4;
const LIGHT_CONNECTIONS: usize = 2;
const LIGHT_READS: usize = 25;
const LIGHT_PACE: Duration = Duration::from_millis(400);
const LIGHT_READ: &str = "/figures/fig7a?format=csv";

/// Workers enough that a rate-limited heavy tenant cannot hold them all,
/// a per-tenant token bucket, deadlines on, and a stall watchdog.
fn overload_config() -> ServeConfig {
    ServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        jobs: 4,
        rate_limit_rps: 8,
        rate_limit_burst: 16,
        default_timeout_ms: 120_000,
        max_timeout_ms: 10_000,
        watchdog_stall_ms: 5_000,
        ..ServeConfig::default()
    }
}

/// A timed cached-figure read as the light tenant.
fn light_read(addr: std::net::SocketAddr) -> (u16, Duration) {
    let t0 = Instant::now();
    let status = call(addr, "GET", LIGHT_READ, Some("light"), "").status;
    (status, t0.elapsed())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only gate: cargo test --release")]
fn heavy_tenant_is_shed_while_light_reads_stay_fast() {
    nvpg_obs::enable_metrics();
    let mut server = Server::start(overload_config()).expect("server starts");
    let addr = server.addr();
    // Warm the cache and the one-off Table I characterisation, so the
    // light tenant's storm-time reads are cache hits.
    assert_eq!(light_read(addr).0, 200, "warm-up read");
    let rate_limited0 = counters::SERVE_RATE_LIMITED.get();
    let expired0 = counters::SERVE_DEADLINE_EXCEEDED.get();

    let stop = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let (light, heavy): (Vec<(u16, Duration)>, Vec<u16>) = std::thread::scope(|scope| {
        let heavy: Vec<_> = (0..HEAVY_CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut statuses = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let body = slow_body(1e-3 + i as f64 * 1e-6, 300);
                        statuses.push(call(addr, "POST", "/simulate", Some("heavy"), &body).status);
                    }
                    statuses
                })
            })
            .collect();
        let light: Vec<_> = (0..LIGHT_CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    (0..LIGHT_READS)
                        .map(|_| {
                            let reply = light_read(addr);
                            std::thread::sleep(LIGHT_PACE);
                            reply
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Stop the heavy tenant even when a light one panicked, or the
        // scope would wait on the flood forever.
        let light: Vec<_> = light.into_iter().map(|t| t.join()).collect();
        stop.store(true, Ordering::Relaxed);
        let light = light
            .into_iter()
            .flat_map(|r| r.expect("light tenant"))
            .collect();
        let heavy = heavy
            .into_iter()
            .flat_map(|t| t.join().expect("heavy tenant"))
            .collect();
        (light, heavy)
    });

    // The storm is over: every admitted heavy solve was cancelled at its
    // deadline, so no worker may still be grinding a dead request.
    let t0 = Instant::now();
    let healthz = get(addr, "/healthz").status;
    let healthz_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (figure, figure_dt) = light_read(addr);
    let figure_ms = figure_dt.as_secs_f64() * 1e3;
    let t0 = Instant::now();
    server.shutdown();
    let drain = t0.elapsed();

    let light_ok = light.iter().filter(|(status, _)| *status == 200).count();
    let mut light_latencies: Vec<Duration> = light.iter().map(|&(_, dt)| dt).collect();
    let light_p99 = p99_ms(&mut light_latencies);
    let heavy_count = |code: u16| heavy.iter().filter(|&&s| s == code).count();
    let (shed, expired) = (heavy_count(429), heavy_count(504));
    let rate_limited = counters::SERVE_RATE_LIMITED.get() - rate_limited0;
    let deadline_exceeded = counters::SERVE_DEADLINE_EXCEEDED.get() - expired0;
    eprintln!(
        "overload: light {light_ok}/{} 200s, p99 {light_p99:.1} ms; heavy {} requests, \
         {shed} x 429, {expired} x 504; post-storm healthz {healthz_ms:.1} ms, \
         fig7a {figure_ms:.1} ms; drained in {drain:?}",
        light.len(),
        heavy.len()
    );

    assert_eq!(light.len(), LIGHT_CONNECTIONS * LIGHT_READS);
    assert_eq!(light_ok, light.len(), "light tenant saw non-200s");
    assert!(
        light_p99 <= 750.0,
        "light p99 {light_p99:.1} ms exceeds the 750 ms overload gate"
    );
    assert!(shed >= 1, "heavy tenant was never rate-limited (no 429s)");
    assert!(expired >= 1, "no heavy request hit its deadline (no 504s)");
    assert!(
        rate_limited > 0 && deadline_exceeded > 0,
        "server counters do not reflect the sheds (rate_limited {rate_limited}, \
         deadline_exceeded {deadline_exceeded})"
    );
    assert!(
        healthz == 200 && healthz_ms <= 1000.0,
        "post-storm healthz: status {healthz} in {healthz_ms:.1} ms (wedged worker?)"
    );
    assert!(
        figure == 200 && figure_ms <= 1000.0,
        "post-storm fig7a read: status {figure} in {figure_ms:.1} ms"
    );
    assert!(
        drain < Duration::from_secs(30),
        "server took {drain:?} to drain"
    );
}
