//! End-to-end tests of the `nvpg-serve` request path: byte-identity with
//! the `figures` CLI, cache/single-flight accounting, the cache-hot
//! throughput gate, keep-alive latency, admission control, hostile decks,
//! and graceful drain.
//!
//! The obs metrics registry is process-global, so every test serialises
//! on one mutex and asserts *deltas* of the serve counters.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use common::{call, get, p99_ms, post, request, slow_body, KeepAlive, Reply};
use nvpg_obs::metrics::counters;
use nvpg_serve::{ServeConfig, Server};

/// Serialises tests (shared metrics registry + shared Experiments memo).
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    nvpg_obs::enable_metrics();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn test_config() -> ServeConfig {
    ServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        jobs: 4,
        cache_bytes: 8 << 20,
        queue_depth: 16,
        debug_endpoints: true,
        ..ServeConfig::default()
    }
}

#[test]
fn healthz_metrics_and_unknown_routes() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    assert_eq!(get(addr, "/healthz").text(), "ok\n");
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.text().contains("serve.requests "),
        "metrics exposition lists serve counters: {}",
        metrics.text()
    );
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(
        request(
            addr,
            "GET /bet HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .status,
        405
    );
}

#[test]
fn figures_csv_is_byte_identical_to_the_cli_cached_and_uncached() {
    let _l = lock();
    // What the `figures` CLI writes for fig6a: to_csv of the figure.
    let exp = nvpg_core::Experiments::new(nvpg_cells::design::CellDesign::table1())
        .expect("characterise");
    let expected = nvpg_bench::to_csv(&exp.fig6a().expect("fig6a"));

    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let solves0 = counters::SERVE_SOLVES.get();

    let uncached = get(addr, "/figures/fig6a?format=csv");
    assert_eq!(uncached.status, 200);
    assert_eq!(uncached.body, expected.as_bytes(), "uncached path");
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1);

    let hits0 = counters::SERVE_CACHE_HITS.get();
    let cached = get(addr, "/figures/fig6a?format=csv");
    assert_eq!(cached.body, expected.as_bytes(), "cached path");
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1, "no second solve");
    assert_eq!(counters::SERVE_CACHE_HITS.get() - hits0, 1);

    // The default format is CSV, and it is the same bytes.
    let default_fmt = get(addr, "/figures/fig6a");
    assert_eq!(default_fmt.body, expected.as_bytes());

    // JSON format exists and carries the same series count.
    let json = get(addr, "/figures/fig6a?format=json");
    assert_eq!(json.status, 200);
    assert!(json.text().starts_with("{\"id\":\"fig6a\""));
}

#[test]
fn concurrent_identical_requests_dedup_to_one_solve() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let solves0 = counters::SERVE_SOLVES.get();
    let hits0 = counters::SERVE_CACHE_HITS.get();

    // fig6b is a real transient solve (tens of ms at least), so four
    // concurrent requests overlap; single-flight must run it once.
    let n = 4;
    let handles: Vec<_> = (0..n)
        .map(|_| std::thread::spawn(move || get(addr, "/figures/fig6b?format=csv")))
        .collect();
    let replies: Vec<Reply> = handles.into_iter().map(|h| h.join().expect("t")).collect();
    let first = &replies[0].body;
    assert!(replies.iter().all(|r| r.status == 200 && &r.body == first));
    assert_eq!(
        counters::SERVE_SOLVES.get() - solves0,
        1,
        "exactly one solve for {n} identical concurrent requests"
    );
    assert_eq!(
        counters::SERVE_CACHE_HITS.get() - hits0,
        n - 1,
        "every other request reused it (follower or cache hit)"
    );
}

#[test]
fn cache_key_ignores_field_order_whitespace_and_number_spelling() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let solves0 = counters::SERVE_SOLVES.get();

    let a = post(addr, "/bet", r#"{"arch":"NVPG","n_rw":10,"t_sd":0.001}"#);
    assert_eq!(a.status, 200, "{}", a.text());
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1);

    // Same meaning, different spelling: must be a cache hit, not a solve.
    let hits0 = counters::SERVE_CACHE_HITS.get();
    let b = post(
        addr,
        "/bet",
        "{ \"t_sd\" : 1e-3 ,\n  \"n_rw\" : 10.0,  \"arch\" : \"NVPG\" }",
    );
    assert_eq!(b.status, 200);
    assert_eq!(b.body, a.body, "identical response bytes");
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1, "no second solve");
    assert_eq!(counters::SERVE_CACHE_HITS.get() - hits0, 1);

    // A semantically different request is NOT a cache hit.
    let c = post(addr, "/bet", r#"{"arch":"NOF","n_rw":10,"t_sd":0.001}"#);
    assert_eq!(c.status, 200);
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 2);
    assert_ne!(c.body, a.body);
}

#[test]
fn bet_and_sweep_answer_structured_json() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    let bet = post(addr, "/bet", r#"{"arch":"NVPG"}"#);
    assert_eq!(bet.status, 200, "{}", bet.text());
    assert!(bet.text().contains("\"bet\":{\"kind\":"), "{}", bet.text());

    let iter = post(addr, "/bet", r#"{"arch":"NVPG","method":"iterative"}"#);
    assert_eq!(iter.status, 200, "{}", iter.text());

    let sweep = post(
        addr,
        "/sweep",
        r#"{"arch":"NVPG","var":"rows","values":[32,512,4096]}"#,
    );
    assert_eq!(sweep.status, 200, "{}", sweep.text());
    let text = sweep.text();
    assert_eq!(text.matches("\"value\":").count(), 3, "{text}");

    // Validation errors are structured 400s.
    assert_eq!(post(addr, "/bet", r#"{"arch":"OSR"}"#).status, 400);
    assert_eq!(post(addr, "/bet", r#"{"nrw":1}"#).status, 400);
    assert_eq!(post(addr, "/bet", "not json").status, 400);
    assert_eq!(
        post(
            addr,
            "/sweep",
            r#"{"arch":"NVPG","var":"bogus","values":[1]}"#
        )
        .status,
        400
    );
}

#[test]
fn sweep_cache_key_canonicalises_point_sets() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let solves0 = counters::SERVE_SOLVES.get();

    // Reordered and duplicated on the wire; answered over the
    // sorted-unique set {32, 512, 4096}.
    let a = post(
        addr,
        "/sweep",
        r#"{"arch":"NVPG","var":"rows","values":[512,32,4096,32]}"#,
    );
    assert_eq!(a.status, 200, "{}", a.text());
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1);
    let text = a.text();
    assert_eq!(text.matches("\"value\":").count(), 3, "{text}");
    let at = |needle: &str| {
        text.find(needle)
            .unwrap_or_else(|| panic!("{needle} in {text}"))
    };
    assert!(
        at("\"value\":3.2e1") < at("\"value\":5.12e2")
            && at("\"value\":5.12e2") < at("\"value\":4.096e3"),
        "points ascend: {text}"
    );

    // The same set spelled differently is the same cache entry.
    let hits0 = counters::SERVE_CACHE_HITS.get();
    let b = post(
        addr,
        "/sweep",
        r#"{"arch":"NVPG","var":"rows","values":[4096,512,32]}"#,
    );
    assert_eq!(b.status, 200);
    assert_eq!(b.body, a.body, "identical response bytes");
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1, "no second solve");
    assert_eq!(counters::SERVE_CACHE_HITS.get() - hits0, 1);

    // A genuinely different set is a different key.
    let c = post(
        addr,
        "/sweep",
        r#"{"arch":"NVPG","var":"rows","values":[32,512]}"#,
    );
    assert_eq!(c.status, 200);
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 2);

    // Validation still answers structured 400s on the canonical set.
    let bad = post(
        addr,
        "/sweep",
        r#"{"arch":"NVPG","var":"rows","values":[2.5]}"#,
    );
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("row count"), "{}", bad.text());
}

#[test]
fn vth_shift_sweep_runs_real_domain_solves() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    // Pay the one-off Table I characterisation outside the deltas.
    let warm = post(addr, "/bet", r#"{"arch":"NVPG"}"#);
    assert_eq!(warm.status, 200, "{}", warm.text());

    let dc0 = counters::DC_SOLVES.get();
    let a = post(
        addr,
        "/sweep",
        r#"{"arch":"NVPG","var":"vth_shift","values":[0.01,-0.01,0.0]}"#,
    );
    assert_eq!(a.status, 200, "{}", a.text());
    let text = a.text();
    assert_eq!(text.matches("\"value\":").count(), 3, "{text}");
    // Every shift is one varied design's domain operating point — a
    // real circuit solve, not the analytic model.
    assert!(
        counters::DC_SOLVES.get() - dc0 >= 3,
        "vth sweep answered without a DC solve per shift"
    );

    // The scan is NVPG-specific; other vars stay unaffected.
    let nof = post(
        addr,
        "/sweep",
        r#"{"arch":"NOF","var":"vth_shift","values":[0.0]}"#,
    );
    assert_eq!(nof.status, 400, "{}", nof.text());
    assert!(nof.text().contains("NVPG architecture"), "{}", nof.text());
    let wild = post(
        addr,
        "/sweep",
        r#"{"arch":"NVPG","var":"vth_shift","values":[0.9]}"#,
    );
    assert_eq!(wild.status, 400, "{}", wild.text());
    assert!(wild.text().contains("threshold shift"), "{}", wild.text());
}

/// Concurrent sweeps with overlapping point sets each solve and answer
/// exactly their own points: four distinct bodies are four single-flight
/// leaders and four solves.
#[test]
fn overlapping_concurrent_sweeps_each_answer_their_own_points() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    // Pay the one-off Table I characterisation outside the deltas.
    let warm = post(addr, "/bet", r#"{"arch":"NVPG"}"#);
    assert_eq!(warm.status, 200, "{}", warm.text());

    let solves0 = counters::SERVE_SOLVES.get();
    let bodies = [
        r#"{"arch":"NVPG","var":"rows","values":[32,64]}"#,
        r#"{"arch":"NVPG","var":"rows","values":[64,128]}"#,
        r#"{"arch":"NVPG","var":"rows","values":[128,256]}"#,
        r#"{"arch":"NVPG","var":"rows","values":[256,512]}"#,
    ];
    let handles: Vec<_> = bodies
        .iter()
        .map(|&body| std::thread::spawn(move || post(addr, "/sweep", body)))
        .collect();
    let replies: Vec<Reply> = handles.into_iter().map(|h| h.join().expect("t")).collect();
    for (body, reply) in bodies.iter().zip(&replies) {
        assert_eq!(reply.status, 200, "{body}: {}", reply.text());
        assert_eq!(
            reply.text().matches("\"value\":").count(),
            2,
            "each sweep answers exactly its own 2 points: {}",
            reply.text()
        );
    }
    assert!(
        replies[1].text().contains("\"value\":6.4e1")
            && replies[1].text().contains("\"value\":1.28e2"),
        "sweep 2 got its own points back: {}",
        replies[1].text()
    );
    // A point two sweeps share answers the same BET in both.
    let bet_at_64 = |reply: &Reply| {
        let rest = reply.text().split("\"value\":6.4e1").nth(1);
        rest.and_then(|r| r.split('}').next()).map(str::to_owned)
    };
    assert!(bet_at_64(&replies[0]).is_some());
    assert_eq!(bet_at_64(&replies[0]), bet_at_64(&replies[1]));
    assert_eq!(
        counters::SERVE_SOLVES.get() - solves0,
        4,
        "one solve per sweep"
    );
}

#[test]
fn simulate_runs_dc_and_tran_and_rejects_hostile_decks() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    let dc = post(
        addr,
        "/simulate",
        r#"{"deck":"V1 vin 0 1.0\nR1 vin out 1k\nR2 out 0 1k\n.end\n","analysis":"dc"}"#,
    );
    assert_eq!(dc.status, 200, "{}", dc.text());
    let parsed = nvpg_obs::json::parse(dc.text()).expect("dc response is JSON");
    let out = parsed
        .as_obj()
        .and_then(|o| o.get("voltages"))
        .and_then(|v| v.as_obj())
        .and_then(|v| v.get("out"))
        .and_then(nvpg_obs::json::Json::as_num)
        .expect("voltages.out");
    assert!((out - 0.5).abs() < 1e-6, "divider midpoint, got {out}");

    let tran = post(
        addr,
        "/simulate",
        r#"{"deck":"V1 a 0 PULSE(0 0.9 1n 50p 50p 2n 5n)\nR1 a b 1k\nC1 b 0 1p\n","analysis":"tran","t_stop":4e-9}"#,
    );
    assert_eq!(tran.status, 200, "{}", tran.text());
    assert!(tran.text().contains("\"time\":["), "{}", tran.text());
    assert!(tran.text().contains("v(b)"), "{}", tran.text());

    // Hostile decks: structured 400 with a line number, never a panic.
    let bad = post(addr, "/simulate", r#"{"deck":"V1 a 0 1.0\nR1 a 0 oops\n"}"#);
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("line 2"), "{}", bad.text());
    for deck in [".ends\\n", "X1\\n", "R1\\n", ".\\n"] {
        let r = post(addr, "/simulate", &format!("{{\"deck\":\"{deck}\"}}"));
        assert_eq!(r.status, 400, "deck {deck:?}: {}", r.text());
    }
}

#[test]
fn simulate_solver_choice_is_honoured_and_keyed() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    let voltage_out = |resp: &str| {
        nvpg_obs::json::parse(resp)
            .expect("response is JSON")
            .as_obj()
            .and_then(|o| o.get("voltages").cloned())
            .and_then(|v| v.as_obj().and_then(|v| v.get("out").cloned()))
            .and_then(|v| nvpg_obs::json::Json::as_num(&v))
            .expect("voltages.out")
    };
    let deck = r#"V1 vin 0 1.0\nR1 vin out 1k\nR2 out 0 1k\n.end\n"#;

    // Dense and sparse must agree; both must miss the cache the first
    // time (different canonical bodies → different request keys).
    let solves0 = counters::SERVE_SOLVES.get();
    let dense = post(
        addr,
        "/simulate",
        &format!(r#"{{"deck":"{deck}","analysis":"dc","solver":"dense"}}"#),
    );
    assert_eq!(dense.status, 200, "{}", dense.text());
    let sparse = post(
        addr,
        "/simulate",
        &format!(r#"{{"deck":"{deck}","analysis":"dc","solver":"sparse"}}"#),
    );
    assert_eq!(sparse.status, 200, "{}", sparse.text());
    assert_eq!(
        counters::SERVE_SOLVES.get(),
        solves0 + 2,
        "each solver choice is a distinct cache key"
    );
    let (vd, vs) = (voltage_out(dense.text()), voltage_out(sparse.text()));
    assert!((vd - vs).abs() < 1e-9, "dense {vd} vs sparse {vs}");

    // A repeat of the sparse request is a cache hit, not a new solve.
    let again = post(
        addr,
        "/simulate",
        &format!(r#"{{"deck":"{deck}","analysis":"dc","solver":"sparse"}}"#),
    );
    assert_eq!(again.status, 200);
    assert_eq!(counters::SERVE_SOLVES.get(), solves0 + 2);

    // Transient accepts the key too.
    let tran = post(
        addr,
        "/simulate",
        &format!(r#"{{"deck":"{deck}","analysis":"tran","t_stop":1e-9,"solver":"sparse"}}"#),
    );
    assert_eq!(tran.status, 200, "{}", tran.text());

    // An unknown solver is a structured 400 (and, being an error, is
    // never cached).
    let bad = post(
        addr,
        "/simulate",
        &format!(r#"{{"deck":"{deck}","solver":"klu"}}"#),
    );
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("solver"), "{}", bad.text());
}

#[test]
fn queue_overflow_sheds_load_with_503_and_retry_after() {
    let _l = lock();
    let mut config = test_config();
    config.jobs = 1;
    config.queue_depth = 1;
    let server = Server::start(config).expect("start");
    let addr = server.addr();
    let rejected0 = counters::SERVE_REJECTED.get();

    // Occupy the single worker...
    let sleeper = std::thread::spawn(move || get(addr, "/debug/sleep?ms=1200"));
    std::thread::sleep(Duration::from_millis(300));
    // ...fill the queue with a second connection...
    let queued = std::thread::spawn(move || get(addr, "/healthz"));
    std::thread::sleep(Duration::from_millis(300));
    // ...and overflow with a third: the acceptor must shed it at once.
    let t0 = Instant::now();
    let shed = get(addr, "/healthz");
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("Retry-After"), Some("1"));
    assert!(
        t0.elapsed() < Duration::from_millis(600),
        "shed happened immediately, not after the worker freed up"
    );
    assert!(counters::SERVE_REJECTED.get() > rejected0);

    // The occupied worker and the queued connection still complete.
    assert_eq!(sleeper.join().expect("sleeper").status, 200);
    assert_eq!(queued.join().expect("queued").status, 200);
}

#[test]
fn timeout_ms_answers_504_and_frees_the_worker() {
    let _l = lock();
    let mut config = test_config();
    config.jobs = 1; // the follow-up must reuse the *same* worker
    let server = Server::start(config).expect("start");
    let addr = server.addr();
    let expired0 = counters::SERVE_DEADLINE_EXCEEDED.get();

    let t0 = Instant::now();
    let reply = post(addr, "/simulate", &slow_body(1e-3, 500));
    let elapsed = t0.elapsed();
    assert_eq!(reply.status, 504, "{}", reply.text());
    assert!(
        elapsed >= Duration::from_millis(400) && elapsed < Duration::from_millis(1500),
        "504 near the 500 ms deadline, got {elapsed:?}"
    );
    let text = reply.text();
    assert!(text.contains("deadline exceeded"), "{text}");
    assert!(text.contains("\"elapsed_ms\":"), "{text}");
    assert!(text.contains("transient t ="), "partial progress: {text}");
    assert_eq!(counters::SERVE_DEADLINE_EXCEEDED.get() - expired0, 1);

    // The single worker is free again: a follow-up completes promptly.
    let t1 = Instant::now();
    assert_eq!(get(addr, "/healthz").status, 200);
    assert!(
        t1.elapsed() < Duration::from_millis(500),
        "worker was freed by the cancellation, not wedged"
    );

    // Every solving handler answers 504 on expiry, not only /simulate:
    // a sweep of 1000 domain solves cannot finish in 30 ms ...
    let warm = post(addr, "/bet", r#"{"arch":"NVPG"}"#);
    assert_eq!(warm.status, 200, "{}", warm.text());
    let shifts: Vec<String> = (0..1000)
        .map(|i| format!("{:e}", -5e-3 + f64::from(i) * 1e-5))
        .collect();
    let body = format!(
        r#"{{"arch":"NVPG","var":"vth_shift","values":[{}],"timeout_ms":30}}"#,
        shifts.join(",")
    );
    let expired0 = counters::SERVE_DEADLINE_EXCEEDED.get();
    let sweep = post(addr, "/sweep", &body);
    assert_eq!(sweep.status, 504, "{}", sweep.text());
    assert!(
        sweep.text().contains("deadline exceeded"),
        "{}",
        sweep.text()
    );
    assert_eq!(counters::SERVE_DEADLINE_EXCEEDED.get() - expired0, 1);
    drop(server);

    // ... and neither can a figure read under a 3 ms server default.
    let server = Server::start(ServeConfig {
        default_timeout_ms: 3,
        ..test_config()
    })
    .expect("start");
    let expired0 = counters::SERVE_DEADLINE_EXCEEDED.get();
    let figure = get(server.addr(), "/figures/fig6a");
    assert_eq!(figure.status, 504, "{}", figure.text());
    assert!(
        figure.text().contains("deadline exceeded"),
        "{}",
        figure.text()
    );
    assert_eq!(counters::SERVE_DEADLINE_EXCEEDED.get() - expired0, 1);
}

#[test]
fn timeout_ms_is_stripped_from_the_cache_key() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let solves0 = counters::SERVE_SOLVES.get();

    let deck = r#""deck":"V1 vin 0 1.0\nR1 vin out 1k\nR2 out 0 1k\n","analysis":"dc""#;
    let a = post(
        addr,
        "/simulate",
        &format!("{{{deck},\"timeout_ms\":5000}}"),
    );
    assert_eq!(a.status, 200, "{}", a.text());
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1);

    // Same meaning, different deadline: a cache hit, not a second solve.
    let hits0 = counters::SERVE_CACHE_HITS.get();
    let b = post(
        addr,
        "/simulate",
        &format!("{{{deck},\"timeout_ms\":9000}}"),
    );
    assert_eq!(b.status, 200);
    assert_eq!(b.body, a.body);
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1, "no second solve");
    assert_eq!(counters::SERVE_CACHE_HITS.get() - hits0, 1);

    // A bogus timeout_ms is a structured 400.
    let bad = post(addr, "/simulate", &format!("{{{deck},\"timeout_ms\":0.5}}"));
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("timeout_ms"), "{}", bad.text());
}

#[test]
fn follower_with_a_tighter_deadline_fails_fast() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let solves0 = counters::SERVE_SOLVES.get();
    let expired0 = counters::SERVE_DEADLINE_EXCEEDED.get();

    // Leader: the slow solve under a 2 s deadline. `timeout_ms` is
    // stripped from the single-flight key, so the follower (same deck,
    // tighter deadline) parks behind this leader.
    let leader = std::thread::spawn(move || post(addr, "/simulate", &slow_body(1e-3, 2000)));
    std::thread::sleep(Duration::from_millis(400));

    let t0 = Instant::now();
    let follower = post(addr, "/simulate", &slow_body(1e-3, 250));
    let follower_elapsed = t0.elapsed();
    assert_eq!(follower.status, 504, "{}", follower.text());
    assert!(
        follower_elapsed < Duration::from_millis(1000),
        "follower honoured its own 250 ms deadline instead of waiting \
         out the leader's 2 s one, got {follower_elapsed:?}"
    );
    assert!(
        follower.text().contains("in-flight"),
        "follower 504 names the single-flight wait: {}",
        follower.text()
    );

    let leader_reply = leader.join().expect("leader");
    assert_eq!(leader_reply.status, 504, "{}", leader_reply.text());
    assert_eq!(
        counters::SERVE_SOLVES.get() - solves0,
        1,
        "one solve total: the follower gave up without re-solving"
    );
    assert_eq!(
        counters::SERVE_DEADLINE_EXCEEDED.get() - expired0,
        2,
        "both requests recorded their deadline expiry"
    );
}

#[test]
fn disconnected_client_cancels_its_solve() {
    let _l = lock();
    let mut config = test_config();
    config.jobs = 1; // prove the worker is freed, not leaked
    let server = Server::start(config).expect("start");
    let addr = server.addr();
    let disconnects0 = counters::SERVE_DISCONNECTS.get();

    // Start the slow solve under a generous deadline, then hang up.
    let body = slow_body(1e-3, 60_000);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "POST /simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send");
    std::thread::sleep(Duration::from_millis(400));
    drop(stream); // the hang-up

    // The watchdog notices within tens of ms and cancels the solve; the
    // single worker is free long before the 60 s deadline.
    let t0 = Instant::now();
    assert_eq!(get(addr, "/healthz").status, 200);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "worker freed by disconnect cancellation, got {:?}",
        t0.elapsed()
    );
    assert!(
        counters::SERVE_DISCONNECTS.get() > disconnects0,
        "the disconnect was observed and counted"
    );
}

#[test]
fn stalled_solves_trip_the_watchdog() {
    let _l = lock();
    let mut config = test_config();
    config.watchdog_stall_ms = 200;
    let server = Server::start(config).expect("start");
    let addr = server.addr();
    let fires0 = counters::SERVE_WATCHDOG_FIRES.get();

    // /debug/sleep never beats the progress heartbeat — to the watchdog
    // it is indistinguishable from a wedged solve, so the stall bound
    // trips while it sleeps (the sleep itself is not cancellable; the
    // counter is the observable).
    let reply = get(addr, "/debug/sleep?ms=700");
    assert_eq!(reply.status, 200);
    assert!(
        counters::SERVE_WATCHDOG_FIRES.get() > fires0,
        "watchdog fired on the stalled request"
    );
}

#[test]
fn rate_limit_sheds_the_noisy_tenant_only() {
    let _l = lock();
    let mut config = test_config();
    config.rate_limit_rps = 1;
    config.rate_limit_burst = 2;
    let server = Server::start(config).expect("start");
    let addr = server.addr();
    let limited0 = counters::SERVE_RATE_LIMITED.get();

    let as_tenant = |tenant: &str| call(addr, "GET", "/healthz", Some(tenant), "");
    // The noisy tenant burns its burst of 2, then is shed.
    assert_eq!(as_tenant("noisy").status, 200);
    assert_eq!(as_tenant("noisy").status, 200);
    let shed = as_tenant("noisy");
    assert_eq!(shed.status, 429, "{}", shed.text());
    assert!(shed.header("Retry-After").is_some(), "429 carries a hint");
    // A different tenant is untouched by the noisy one's flood.
    assert_eq!(as_tenant("quiet").status, 200);
    assert!(counters::SERVE_RATE_LIMITED.get() > limited0);
}

#[test]
fn oversized_bodies_and_heads_answer_413_and_431() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    // A Content-Length past the body cap: shed before any read.
    let huge = request(
        addr,
        &format!(
            "POST /simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            2 << 20
        ),
    );
    assert_eq!(huge.status, 413, "{}", huge.text());

    // A bloated header block: 431, not a hang or a 400.
    let fat = request(
        addr,
        &format!(
            "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(20 * 1024)
        ),
    );
    assert_eq!(fat.status, 431, "{}", fat.text());

    // Too many individually-small headers: also 431.
    let mut many = String::from("GET /healthz HTTP/1.1\r\nHost: t\r\n");
    for i in 0..101 {
        many.push_str(&format!("X-{i}: v\r\n"));
    }
    many.push_str("\r\n");
    let flood = request(addr, &many);
    assert_eq!(flood.status, 431, "{}", flood.text());
}

#[test]
fn shutdown_drains_in_flight_work() {
    let _l = lock();
    let mut config = test_config();
    config.jobs = 1;
    let mut server = Server::start(config).expect("start");
    let addr = server.addr();

    let inflight = std::thread::spawn(move || get(addr, "/debug/sleep?ms=800"));
    std::thread::sleep(Duration::from_millis(200));
    let t0 = Instant::now();
    server.shutdown();
    let drained_in = t0.elapsed();

    // The in-flight request completed (drained, not dropped)...
    assert_eq!(inflight.join().expect("inflight").status, 200);
    // ...and shutdown waited for it rather than racing past.
    assert!(drained_in >= Duration::from_millis(400), "{drained_in:?}");
    // New connections are refused once drained.
    assert!(TcpStream::connect(addr).is_err(), "listener is gone");
}

#[test]
fn mistyped_simulate_fields_are_rejected_not_defaulted() {
    // A present-but-wrongly-typed field must 400: falling back to the
    // default analysis ("dc") or t_stop (1e-9) would silently run the
    // wrong simulation and cache it under the request's own key.
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    let deck = r#""deck":"V1 a 0 1.0\nR1 a 0 1k\n""#;

    // `analysis` as a number, an object, and null: all 400 with a
    // message naming the field; absent still defaults to dc.
    for bad in ["42", "{}", "null", "[\"dc\"]"] {
        let reply = post(
            addr,
            "/simulate",
            &format!(r#"{{{deck},"analysis":{bad}}}"#),
        );
        assert_eq!(reply.status, 400, "analysis={bad}: {}", reply.text());
        assert!(reply.text().contains("analysis"), "{}", reply.text());
    }
    let defaulted = post(addr, "/simulate", &format!("{{{deck}}}"));
    assert_eq!(defaulted.status, 200, "{}", defaulted.text());
    assert!(defaulted.text().contains("\"analysis\":\"dc\""));

    // `t_stop` as a string (even a plausible-looking "1n") or bool:
    // 400, not a silent 1 ns transient.
    for bad in ["\"1n\"", "\"1e-9\"", "true", "[1e-9]"] {
        let reply = post(
            addr,
            "/simulate",
            &format!(r#"{{{deck},"analysis":"tran","t_stop":{bad}}}"#),
        );
        assert_eq!(reply.status, 400, "t_stop={bad}: {}", reply.text());
        assert!(reply.text().contains("t_stop"), "{}", reply.text());
    }
    let defaulted = post(
        addr,
        "/simulate",
        &format!(r#"{{{deck},"analysis":"tran"}}"#),
    );
    assert_eq!(defaulted.status, 200, "{}", defaulted.text());

    // A mistyped `t_stop` is rejected even when the analysis is DC and
    // the field would never be read — ignoring it hides the client bug.
    let reply = post(addr, "/simulate", &format!(r#"{{{deck},"t_stop":"1n"}}"#));
    assert_eq!(reply.status, 400, "{}", reply.text());
    assert!(reply.text().contains("t_stop"), "{}", reply.text());
}

#[test]
fn out_of_range_simulate_t_stop_is_a_client_error() {
    // A numeric `t_stop` outside (0, 1] s, or so short that its derived
    // `dt_max = t_stop/400` falls below the default `dt_min` of 1e-16 s
    // (any t_stop < 4e-14 s), is the client's error: 400 naming the
    // field, never a 500 from inside the transient.
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    let tran = |t_stop: &str| {
        post(
            addr,
            "/simulate",
            &format!(
                r#"{{"deck":"V1 a 0 1.0\nR1 a 0 1k\nC1 a 0 1p\n","analysis":"tran","t_stop":{t_stop}}}"#
            ),
        )
    };
    for bad in ["0", "-1e-9", "2", "1e-30", "3.9e-14"] {
        let reply = tran(bad);
        assert_eq!(reply.status, 400, "t_stop={bad}: {}", reply.text());
        assert!(reply.text().contains("t_stop"), "{}", reply.text());
    }
    let shortest = tran("4.1e-14");
    assert_eq!(shortest.status, 200, "{}", shortest.text());
}

#[test]
fn truncated_request_lines_are_malformed_not_http10() {
    // `GET /path` with no version is a cut-off request line; treating
    // it as HTTP/1.0 used to accept it silently. It must 400, as must
    // a request line with trailing junk after the version.
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    let no_version = request(addr, "GET /healthz\r\n\r\n");
    assert_eq!(no_version.status, 400, "{}", no_version.text());
    assert!(
        no_version.text().contains("version"),
        "{}",
        no_version.text()
    );

    let trailing = request(addr, "GET /healthz HTTP/1.1 extra\r\n\r\n");
    assert_eq!(trailing.status, 400, "{}", trailing.text());

    // Well-formed HTTP/1.0 (version present) still works.
    let ok = request(addr, "GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n");
    assert_eq!(ok.status, 200, "{}", ok.text());
}

#[test]
fn technology_field_selects_characterisation_and_cache_key() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    // Unknown or mistyped technologies are structured 400s on both
    // endpoints, before any characterisation work starts.
    let bad = post(addr, "/bet", r#"{"arch":"NVPG","technology":"flux"}"#);
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("technology"), "{}", bad.text());
    assert_eq!(
        post(addr, "/bet", r#"{"arch":"NVPG","technology":7}"#).status,
        400
    );
    assert_eq!(
        post(
            addr,
            "/sweep",
            r#"{"arch":"NVPG","var":"n_rw","values":[1],"technology":"flux"}"#
        )
        .status,
        400
    );

    // A valid non-default technology answers 200, names itself in the
    // body, and is its own cache entry (a second solve, not a hit).
    let solves0 = counters::SERVE_SOLVES.get();
    let mtj = post(addr, "/bet", r#"{"arch":"NVPG"}"#);
    assert_eq!(mtj.status, 200, "{}", mtj.text());
    assert!(
        mtj.text().contains("\"technology\":\"mtj\""),
        "{}",
        mtj.text()
    );
    let spin = post(addr, "/bet", r#"{"arch":"NVPG","technology":"nand_spin"}"#);
    assert_eq!(spin.status, 200, "{}", spin.text());
    assert!(
        spin.text().contains("\"technology\":\"nand_spin\""),
        "{}",
        spin.text()
    );
    assert!(
        counters::SERVE_SOLVES.get() - solves0 >= 2,
        "distinct technologies must not share a cache entry"
    );
    // Repeating the non-default query is a pure cache hit.
    let solves1 = counters::SERVE_SOLVES.get();
    let again = post(addr, "/bet", r#"{"arch":"NVPG","technology":"nand_spin"}"#);
    assert_eq!(again.status, 200);
    assert_eq!(again.body, spin.body, "identical response bytes");
    assert_eq!(counters::SERVE_SOLVES.get(), solves1, "no recompute");
}

#[test]
fn macro_endpoint_validates_solves_and_caches() {
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    // Wrong method and malformed specs are rejected before any solve.
    assert_eq!(get(addr, "/macro").status, 405);
    assert_eq!(post(addr, "/macro", r#"{"bogus":1}"#).status, 400);
    assert_eq!(post(addr, "/macro", r#"{"rows":0}"#).status, 400);
    assert_eq!(post(addr, "/macro", r#"{"rows":1000000}"#).status, 400);
    let indivisible = post(addr, "/macro", r#"{"cols":4,"mux":3}"#);
    assert_eq!(indivisible.status, 400, "{}", indivisible.text());
    assert_eq!(
        post(addr, "/macro", r#"{"granularity":"per_nothing"}"#).status,
        400
    );
    assert_eq!(post(addr, "/macro", r#"{"arch":"OSR"}"#).status, 400);
    assert_eq!(post(addr, "/macro", r#"{"technology":"flux"}"#).status, 400);

    // A small macro report: one solve, structured fields, and a BET.
    let body = r#"{"rows":2,"cols":2,"mux":1,"granularity":"per_row","technology":"mtj"}"#;
    let solves0 = counters::SERVE_SOLVES.get();
    let a = post(addr, "/macro", body);
    assert_eq!(a.status, 200, "{}", a.text());
    let text = a.text();
    for needle in [
        "\"arch\":\"NVPG\"",
        "\"technology\":\"mtj\"",
        "\"granularity\":\"per_row\"",
        "\"groups\":2",
        "\"unknowns\":",
        "\"static_power_w\":",
        "\"bet\":{\"kind\":",
    ] {
        assert!(text.contains(needle), "missing {needle} in {text}");
    }
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1);

    // Determinism through the cache: the same spec answers the same
    // bytes without a second solve, in any field order.
    let hits0 = counters::SERVE_CACHE_HITS.get();
    let b = post(
        addr,
        "/macro",
        r#"{"technology":"mtj","granularity":"per_row","mux":1,"cols":2,"rows":2}"#,
    );
    assert_eq!(b.status, 200);
    assert_eq!(b.body, a.body, "identical response bytes");
    assert_eq!(counters::SERVE_SOLVES.get() - solves0, 1, "no second solve");
    assert_eq!(counters::SERVE_CACHE_HITS.get() - hits0, 1);
}

/// The cache gate. A fresh `jobs: 2` server reads fig6a, fig7a and fig8a
/// once each while its cache is cold (fig6a is a real transient solve),
/// then answers 200 hot reads round-robin over the same ids from 4
/// closed-loop connections. Every read answers 200, the hot p99 stays
/// within 250 ms, and hot throughput is at least 10× cold.
#[test]
fn cache_hot_reads_are_ten_times_cold_throughput() {
    const IDS: [&str; 3] = ["fig6a", "fig7a", "fig8a"];
    const HOT_READS: usize = 200;
    const CONNECTIONS: usize = 4;
    let _l = lock();
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        jobs: 2,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();
    let read = |id: &str| {
        let t0 = Instant::now();
        let status = get(addr, &format!("/figures/{id}?format=csv")).status;
        assert_eq!(status, 200, "{id}");
        t0.elapsed()
    };

    let t0 = Instant::now();
    for id in IDS {
        read(id);
    }
    let cold_rps = IDS.len() as f64 / t0.elapsed().as_secs_f64();

    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut hot: Vec<Duration> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut latencies = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= HOT_READS {
                            return latencies;
                        }
                        latencies.push(read(IDS[i % IDS.len()]));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("hot reader"))
            .collect()
    });
    let hot_rps = HOT_READS as f64 / t0.elapsed().as_secs_f64();

    assert_eq!(hot.len(), HOT_READS);
    let p99 = p99_ms(&mut hot);
    let speedup = hot_rps / cold_rps;
    eprintln!(
        "cache: cold {cold_rps:.2} req/s, hot {hot_rps:.1} req/s ({speedup:.0}x), hot p99 {p99:.1} ms"
    );
    assert!(p99 <= 250.0, "cache-hot p99 {p99:.1} ms exceeds 250 ms");
    assert!(
        speedup >= 10.0,
        "cache-hot throughput is {speedup:.1}x cold (gate: >= 10x; {hot_rps:.1} vs {cold_rps:.2} req/s)"
    );
}

/// Keep-alive latency. On one reused connection, 20 `/healthz`, then
/// reads of a cached small figure (fig7a, ~9 KB) and of a cached body
/// over 64 KiB (fig6a): the median answer after the first stays within
/// 10 ms. A response written as a head and then a body waited ~40 ms
/// for the client's delayed ACK on every reused connection.
#[test]
fn reused_connections_answer_without_the_delayed_ack_stall() {
    const FIGURE_READS: usize = 5;
    let _l = lock();
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let small = get(addr, "/figures/fig7a");
    let large = get(addr, "/figures/fig6a");
    assert_eq!((small.status, large.status), (200, 200));
    assert!(small.body.len() < 64 << 10 && large.body.len() > 64 << 10);

    let mut reads = vec![("/healthz", b"ok\n".as_slice()); 20];
    for _ in 0..FIGURE_READS {
        reads.push(("/figures/fig7a", &small.body));
        reads.push(("/figures/fig6a", &large.body));
    }
    let solves0 = counters::SERVE_SOLVES.get();
    let mut conn = KeepAlive::connect(addr);
    let mut latencies: Vec<Duration> = reads
        .iter()
        .map(|&(path, expected)| {
            let t0 = Instant::now();
            let reply = conn.get(path);
            let elapsed = t0.elapsed();
            assert_eq!(reply.status, 200, "{path}");
            assert_eq!(reply.body, expected, "{path}");
            assert_eq!(reply.header("Connection"), Some("keep-alive"));
            elapsed
        })
        .collect();
    assert_eq!(counters::SERVE_SOLVES.get(), solves0, "every read is a hit");

    let reused = &mut latencies[1..];
    reused.sort_unstable();
    let median_ms = reused[reused.len() / 2].as_secs_f64() * 1e3;
    eprintln!("keep-alive: median reused-connection answer {median_ms:.2} ms");
    assert!(
        median_ms <= 10.0,
        "reused-connection median {median_ms:.1} ms exceeds 10 ms"
    );
}
