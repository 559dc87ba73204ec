//! The request path: accept → admit → route → (cache | single-flight |
//! solve) → respond.
//!
//! One acceptor thread owns the listener; `jobs` worker threads own the
//! solvers. Between them sits a [`FairQueue`] of accepted connections
//! keyed by peer address — the *only* buffer in the system, so memory
//! under overload is bounded by `queue_depth` sockets, workers drain
//! peers round-robin, and everything past the cap is shed with `503
//! Retry-After` before any parsing or allocation happens on its behalf.
//!
//! Every request runs under a [`CancelToken`]: its deadline comes from
//! the client's `timeout_ms` (capped by `max_timeout_ms`) or the server
//! default, and a watchdog thread cancels tokens whose client has
//! disconnected or whose solve heartbeat has stalled. An expired solve
//! answers `504` with partial progress diagnostics and frees the worker
//! immediately. A per-client token bucket ([`RateLimiter`], keyed by the
//! `X-Client` header) sheds one tenant's flood with `429` while other
//! tenants keep flowing.
//!
//! Deterministic endpoints (`/figures`, `/bet`, `/sweep`, `/simulate`)
//! flow through the content-addressed [`ResponseCache`] and the
//! [single-flight](crate::singleflight) group; the shared
//! [`Experiments`] characterisation is built once behind a `OnceLock`
//! on first use and reused by every worker for the life of the process.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{IpAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nvpg_cells::design::{CellDesign, RetentionKind};
use nvpg_circuit::dc::{operating_point, DcOptions};
use nvpg_circuit::transient::{transient, TransientOptions};
use nvpg_circuit::{CircuitError, SolverChoice};
use nvpg_core::bet::{bet_closed_form, bet_iterative, Bet};
use nvpg_core::cancel::{self, CancelToken};
use nvpg_core::canon::{
    architecture_from_json, benchmark_params_from_json, canonicalize_sweep_body, request_key,
};
use nvpg_core::{Architecture, Experiments, Figure};
use nvpg_obs::json::{parse as parse_json, Json};
use nvpg_obs::metrics::{counters, gauges};

use nvpg_exec::queue::{FairQueue, PushError};

use crate::cache::ResponseCache;
use crate::http::{read_request, write_response, ReadError, Request, Response};
use crate::limiter::RateLimiter;
use crate::singleflight::{Group, Role};
use crate::ServeConfig;

/// The `Retry-After` hint attached to shed requests, seconds.
const RETRY_AFTER_S: u32 = 1;

/// The Table I characterisation, built once per process and shared by
/// every worker. The heavy DC/transient characterisation runs on first
/// demand, not at bind time, so `/healthz` answers immediately after
/// startup.
fn experiments() -> Result<&'static Experiments, String> {
    experiments_for("mtj")
}

/// Per-retention-technology characterisations, one [`OnceLock`] slot per
/// label in [`RetentionKind::LABELS`] so a `"fefet"` query never pays
/// for — or blocks on — the `"mtj"` build. An unknown label is the
/// caller's validation error, not a slot.
fn experiments_for(technology: &str) -> Result<&'static Experiments, String> {
    static SLOTS: [OnceLock<Result<Experiments, String>>; RetentionKind::LABELS.len()] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let idx = RetentionKind::LABELS
        .iter()
        .position(|l| *l == technology)
        .ok_or_else(|| format!("unknown technology `{technology}`"))?;
    SLOTS[idx]
        .get_or_init(|| {
            // Shielded from the triggering request's deadline: the
            // characterisation outlives any one request, and a cancelled
            // first attempt would poison the cell for the process.
            cancel::shielded(|| {
                let design = CellDesign::for_technology(technology)
                    .expect("label position checked against RetentionKind::LABELS");
                Experiments::new(design).map_err(|e| format!("characterisation: {e}"))
            })
        })
        .as_ref()
        .map_err(Clone::clone)
}

/// A running server. Dropping the handle shuts it down and joins every
/// thread.
pub struct Server {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error text on failure.
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("bind {}: {e}", config.listen))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let depth = config.queue_depth.max(1);
        let per_client = if config.queue_per_client == 0 {
            depth
        } else {
            config.queue_per_client.min(depth)
        };
        let queue = Arc::new(FairQueue::<IpAddr, TcpStream>::new(per_client, depth));
        let shared = Arc::new(Shared {
            cache: ResponseCache::new(config.cache_bytes),
            flights: Group::new(),
            inflight: AtomicI64::new(0),
            debug_endpoints: config.debug_endpoints,
            shutdown: Arc::clone(&shutdown),
            default_timeout_ms: config.default_timeout_ms,
            max_timeout_ms: config.max_timeout_ms,
            limiter: (config.rate_limit_rps > 0).then(|| {
                let burst = if config.rate_limit_burst == 0 {
                    config.rate_limit_rps
                } else {
                    config.rate_limit_burst
                };
                RateLimiter::new(config.rate_limit_rps, burst)
            }),
            watch: Watch::new(),
        });

        let workers = (0..config.jobs.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop() {
                            serve_connection(stream, &shared);
                        }
                    })
                    .map_err(|e| format!("spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("serve-acceptor".to_owned())
                .spawn(move || accept_loop(&listener, &queue, &shutdown))
                .map_err(|e| format!("spawn acceptor: {e}"))?
        };

        let watchdog = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            let stall = Duration::from_millis(config.watchdog_stall_ms);
            std::thread::Builder::new()
                .name("serve-watchdog".to_owned())
                .spawn(move || {
                    while !shutdown.load(Ordering::SeqCst) {
                        shared.watch.scan(stall);
                        std::thread::sleep(Duration::from_millis(20));
                    }
                })
                .map_err(|e| format!("spawn watchdog: {e}"))?
        };

        Ok(Server {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            watchdog: Some(watchdog),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the assigned port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Requests shutdown: stop accepting, drain queued and in-flight
    /// connections, join every thread. Idempotent; blocks until drained.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// State shared by every worker.
struct Shared {
    cache: ResponseCache,
    flights: Group<Arc<Response>>,
    inflight: AtomicI64,
    debug_endpoints: bool,
    shutdown: Arc<AtomicBool>,
    default_timeout_ms: u64,
    max_timeout_ms: u64,
    limiter: Option<RateLimiter>,
    watch: Watch,
}

/// One in-flight request under watchdog observation.
struct Watched {
    token: CancelToken,
    stream: TcpStream,
    last_progress: u64,
    last_change: Instant,
}

/// Registry of in-flight requests. The watchdog thread scans it to
/// cancel tokens whose client has disconnected and (when the stall bound
/// is configured) whose solve heartbeat has stopped advancing.
struct Watch {
    entries: Mutex<HashMap<u64, Watched>>,
    next_id: AtomicU64,
}

impl Watch {
    fn new() -> Self {
        Watch {
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
        }
    }

    /// Registers a request; pass the returned id to
    /// [`deregister`](Self::deregister) when the request completes.
    /// `None` (not an error) when the stream cannot be observed.
    fn register(&self, token: &CancelToken, stream: &TcpStream) -> Option<u64> {
        let stream = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().expect("watch registry").insert(
            id,
            Watched {
                token: token.clone(),
                stream,
                last_progress: token.progress(),
                last_change: Instant::now(),
            },
        );
        Some(id)
    }

    fn deregister(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.entries.lock().expect("watch registry").remove(&id);
        }
    }

    /// One watchdog pass over every in-flight request.
    fn scan(&self, stall: Duration) {
        let now = Instant::now();
        let mut entries = self.entries.lock().expect("watch registry");
        for w in entries.values_mut() {
            if w.token.is_cancelled() {
                continue;
            }
            if peer_gone(&w.stream) {
                w.token.cancel("client disconnected");
                counters::SERVE_DISCONNECTS.add(1);
                continue;
            }
            if stall > Duration::ZERO {
                let p = w.token.progress();
                if p != w.last_progress {
                    w.last_progress = p;
                    w.last_change = now;
                } else if now.saturating_duration_since(w.last_change) > stall {
                    w.token.cancel("watchdog: progress stalled");
                    counters::SERVE_WATCHDOG_FIRES.add(1);
                }
            }
        }
    }
}

/// `true` when the peer has closed its end: a nonblocking peek sees EOF.
/// `WouldBlock` means the peer is simply quiet — alive and waiting.
/// The socket is only peeked while its worker is solving (never reading),
/// and blocking mode is restored before the registry lock is released,
/// so the worker always reads/writes a blocking socket.
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut byte = [0u8; 1];
    let gone = match stream.peek(&mut byte) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Accepts connections until shutdown, applying admission control: a
/// full queue (total, or the peer's fair share of it) sheds the
/// connection with `503` immediately, so the acceptor never blocks on
/// workers and memory stays bounded.
fn accept_loop(
    listener: &TcpListener,
    queue: &FairQueue<IpAddr, TcpStream>,
    shutdown: &AtomicBool,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, peer)) => match queue.try_push(peer.ip(), stream) {
                Ok(()) => {}
                Err(PushError::Full(mut stream) | PushError::Closed(mut stream)) => {
                    counters::SERVE_REJECTED.add(1);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                    let _ = write_response(&mut stream, &Response::overloaded(RETRY_AFTER_S), true);
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Stop feeding workers; queued connections still drain.
    queue.close();
}

/// Serves one connection (keep-alive loop).
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let peer_label = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_owned());
    let peer = stream.try_clone();
    let Ok(write_half) = peer else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(req) => req,
            Err(ReadError::Eof) => return,
            Err(ReadError::Malformed(reason)) => {
                let _ = write_response(&mut write_half, &Response::error(400, &reason), true);
                return;
            }
            Err(ReadError::BodyTooLarge(reason)) => {
                let _ = write_response(&mut write_half, &Response::error(413, &reason), true);
                return;
            }
            Err(ReadError::HeadersTooLarge(reason)) => {
                let _ = write_response(&mut write_half, &Response::error(431, &reason), true);
                return;
            }
            Err(ReadError::Io(_)) => return,
        };
        counters::SERVE_REQUESTS.add(1);
        // Rate limiting, per tenant: the X-Client header when sent, else
        // the peer address. Request-level, so one keep-alive connection
        // cannot dodge its budget.
        if let Some(limiter) = &shared.limiter {
            let tenant = request.client.as_deref().unwrap_or(&peer_label);
            if let Err(retry_after) = limiter.admit(tenant) {
                counters::SERVE_RATE_LIMITED.add(1);
                let close = request.close || shared.shutdown.load(Ordering::SeqCst);
                let resp = Response::rate_limited(retry_after);
                if write_response(&mut write_half, &resp, close).is_err() || close {
                    return;
                }
                continue;
            }
        }
        let n = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        gauges::SERVE_INFLIGHT.set(n as f64);
        // The request's cancellation scope: the deadline is armed in
        // `cached` (it needs the body's `timeout_ms`), the watchdog can
        // fire it on disconnect or stall from the moment work starts.
        let token = CancelToken::new();
        let watch_id = shared.watch.register(&token, reader.get_ref());
        let response = dispatch(&request, shared, &token);
        shared.watch.deregister(watch_id);
        let n = shared.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        gauges::SERVE_INFLIGHT.set(n as f64);
        // Drain protocol: during shutdown, finish this response, then
        // close instead of waiting for another request.
        let close = request.close || shared.shutdown.load(Ordering::SeqCst);
        if write_response(&mut write_half, &response, close).is_err() || close {
            return;
        }
    }
}

/// Routes one request, going through cache + single-flight for the
/// deterministic endpoints.
fn dispatch(request: &Request, shared: &Shared, token: &CancelToken) -> Response {
    let _span = nvpg_obs::span_labeled("request", &request.path);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::ok("text/plain", "ok\n"),
        ("GET", "/metrics") => Response::ok(
            "text/plain",
            nvpg_obs::metrics::render_exposition(&nvpg_obs::metrics::snapshot()),
        ),
        ("GET", "/debug/sleep") if shared.debug_endpoints => {
            let ms: u64 = request
                .query_param("ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(100)
                .min(10_000);
            std::thread::sleep(Duration::from_millis(ms));
            Response::ok("text/plain", format!("slept {ms} ms\n"))
        }
        ("GET", path) if path.starts_with("/figures/") => cached(request, shared, token, figures),
        ("POST", "/bet") => cached(request, shared, token, bet),
        ("POST", "/sweep") => cached(request, shared, token, sweep),
        ("POST", "/simulate") => cached(request, shared, token, simulate),
        ("POST", "/macro") => cached(request, shared, token, macro_report),
        (method, "/bet" | "/sweep" | "/simulate" | "/macro") if method != "POST" => {
            Response::error(405, "use POST")
        }
        _ => Response::error(404, &format!("no route for {}", request.path)),
    }
}

/// The cache + single-flight wrapper around a deterministic handler.
///
/// Key facts the tests pin down: a cache hit (or a single-flight
/// follower) increments `serve.cache_hits` and performs no solve; only
/// `200` responses are cached (an error is recomputed — and therefore
/// re-observed — on retry, and a `504` can never be served from cache).
fn cached(
    request: &Request,
    shared: &Shared,
    token: &CancelToken,
    handler: fn(&Request, &Json) -> Response,
) -> Response {
    // Canonicalise the body first: the cache key must see meaning, not
    // bytes. A body that is not valid JSON cannot be canonicalised and
    // is rejected before it reaches any handler.
    let mut body_json = if request.body.is_empty() {
        Json::Null
    } else {
        let text = match std::str::from_utf8(&request.body) {
            Ok(t) => t,
            Err(_) => return Response::error(400, "body is not UTF-8"),
        };
        match parse_json(text) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("body is not valid JSON: {e:?}")),
        }
    };
    // `timeout_ms` is transport, not meaning: strip it *before*
    // canonicalisation so the same query under different deadlines
    // shares one cache entry and one single-flight key.
    let mut timeout_ms = None;
    if let Json::Obj(obj) = &mut body_json {
        if let Some(v) = obj.remove("timeout_ms") {
            match v.as_num() {
                Some(ms) if ms.is_finite() && ms >= 1.0 && ms.fract() == 0.0 => {
                    timeout_ms = Some(ms as u64);
                }
                _ => {
                    return Response::error(
                        400,
                        "`timeout_ms` must be a whole number of milliseconds, at least 1",
                    )
                }
            }
        }
    }
    // Arm the deadline: the client's ask capped by the server, else the
    // server default. Elapsed time is measured from request arrival (the
    // token's creation), so header parsing and queueing count against it.
    let effective_ms = match timeout_ms {
        Some(ms) if shared.max_timeout_ms > 0 => Some(ms.min(shared.max_timeout_ms)),
        Some(ms) => Some(ms),
        None if shared.default_timeout_ms > 0 => Some(shared.default_timeout_ms),
        None => None,
    };
    if let Some(ms) = effective_ms {
        token.set_deadline(Duration::from_millis(ms));
    }
    // A sweep's meaning is the *set* of points it visits: canonicalise
    // `values` (sorted ascending, duplicates removed) before keying, so
    // reordered or duplicated sweeps share one cache entry and one
    // single-flight key — and the handler sees (and answers over) the
    // canonical set.
    if request.method == "POST" && matches!(request.path.as_str(), "/sweep" | "/bet") {
        body_json = canonicalize_sweep_body(&body_json);
    }
    let path_and_query = if request.query.is_empty() {
        request.path.clone()
    } else {
        format!("{}?{}", request.path, request.query)
    };
    let key = request_key(&request.method, &path_and_query, &body_json);

    if let Some(hit) = shared.cache.get(key) {
        counters::SERVE_CACHE_HITS.add(1);
        return (*hit).clone();
    }

    let flight = shared.flights.run_until(
        key,
        || {
            counters::SERVE_SOLVES.add(1);
            // Fail-soft: a panicking solve (injected fault, pathological
            // deck) must answer this request with a structured 500, not
            // take the worker down. The token is installed around the
            // handler so every Newton iteration under it can be
            // cancelled.
            let resp = match catch_unwind(AssertUnwindSafe(|| {
                cancel::with_token(token, || handler(request, &body_json))
            })) {
                Ok(resp) => resp,
                Err(payload) => {
                    let msg = nvpg_exec::panic_message(payload.as_ref());
                    Response::error(500, &format!("solver panicked: {msg}"))
                }
            };
            let resp = Arc::new(resp);
            if resp.status == 200 {
                shared.cache.put(key, Arc::clone(&resp));
            }
            resp
        },
        || token.is_cancelled(),
    );
    let response = match flight {
        Some((response, role)) => {
            if role == Role::Follower {
                // A follower reused the leader's solve — same reuse
                // semantics as a cache hit, and counted as one.
                counters::SERVE_CACHE_HITS.add(1);
            }
            (*response).clone()
        }
        // This request's own deadline (or a disconnect) fired while it
        // was parked behind a different leader: fail fast rather than
        // wait out a leader that may run longer than we are allowed to.
        None => timeout_response(
            &token.reason(),
            token.elapsed(),
            "waiting on an identical in-flight solve",
        ),
    };
    if response.status == 504 {
        counters::SERVE_DEADLINE_EXCEEDED.add(1);
    }
    response
}

/// The `504 Gateway Timeout` answer: structured partial diagnostics —
/// what cancelled the request, how long it ran, and how far it got.
fn timeout_response(reason: &str, elapsed: Duration, progress: &str) -> Response {
    let body = format!(
        "{{\"error\":\"deadline exceeded\",\"reason\":\"{}\",\"elapsed_ms\":{},\
         \"progress\":\"{}\",\"status\":504}}\n",
        nvpg_obs::json::escape(reason),
        elapsed.as_millis(),
        nvpg_obs::json::escape(progress),
    );
    Response {
        status: 504,
        content_type: "application/json",
        body: body.into_bytes(),
        retry_after: None,
    }
}

/// Maps a solver error onto a response: a cancelled solve answers `504`
/// with its partial progress, anything else a structured `500`. Every
/// handler that solves maps its [`CircuitError`]s through here.
fn solver_error(stage: &str, e: &CircuitError) -> Response {
    if let CircuitError::Cancelled {
        reason,
        elapsed,
        progress,
    } = e
    {
        timeout_response(reason, *elapsed, progress)
    } else {
        Response::error(500, &format!("{stage} failed: {e}"))
    }
}

/// `GET /figures/{id}?format=csv|json`.
fn figures(request: &Request, _body: &Json) -> Response {
    let id = &request.path["/figures/".len()..];
    let exp = match experiments() {
        Ok(exp) => exp,
        Err(e) => return Response::error(500, &e),
    };
    let figure = match exp.figure_by_id(id) {
        Some(Ok(fig)) => fig,
        Some(Err(e)) => return solver_error(&format!("figure {id}"), &e),
        None => return Response::error(404, &format!("unknown figure `{id}`")),
    };
    match request.query_param("format").unwrap_or("csv") {
        "csv" => Response::ok("text/csv", nvpg_bench::to_csv(&figure)),
        "json" => Response::ok("application/json", figure_json(&figure)),
        other => Response::error(400, &format!("unknown format `{other}`")),
    }
}

/// Renders a figure as JSON (same point data as the CSV).
fn figure_json(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"id\":\"{}\",\"caption\":\"{}\",\"x_label\":\"{}\",\"y_label\":\"{}\",\"series\":[",
        nvpg_obs::json::escape(&fig.id),
        nvpg_obs::json::escape(&fig.caption),
        nvpg_obs::json::escape(&fig.x_label),
        nvpg_obs::json::escape(&fig.y_label),
    ));
    for (i, series) in fig.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"points\":[",
            nvpg_obs::json::escape(&series.label)
        ));
        for (j, (x, y)) in series.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{x:e},{y:e}]"));
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Renders a BET outcome as a JSON fragment.
fn bet_json(bet: Bet) -> String {
    match bet {
        Bet::At(t) => format!("{{\"kind\":\"at\",\"t_bet_s\":{:e}}}", t.0),
        Bet::Always => "{\"kind\":\"always\"}".to_owned(),
        Bet::Never => "{\"kind\":\"never\"}".to_owned(),
    }
}

/// Decodes an optional `"technology"` field against
/// [`RetentionKind::LABELS`], defaulting to the paper's `"mtj"`.
fn technology_from(
    obj: &std::collections::BTreeMap<String, Json>,
) -> Result<&'static str, Response> {
    match obj.get("technology") {
        None => Ok("mtj"),
        Some(v) => match v.as_str() {
            Some(s) => RetentionKind::LABELS
                .iter()
                .find(|l| **l == s)
                .copied()
                .ok_or_else(|| {
                    Response::error(
                        400,
                        &format!(
                            "unknown technology `{s}` (expected one of {:?})",
                            RetentionKind::LABELS
                        ),
                    )
                }),
            None => Err(Response::error(400, "`technology` must be a string")),
        },
    }
}

/// Decodes the common parts of `/bet` and `/sweep` bodies: architecture,
/// solver choice, retention technology, and benchmark parameters.
fn bet_inputs(
    body: &Json,
) -> Result<(Architecture, bool, &'static str, nvpg_core::BenchmarkParams), Response> {
    let obj = body
        .as_obj()
        .ok_or_else(|| Response::error(400, "body must be a JSON object"))?;
    let arch = match obj.get("arch") {
        Some(v) => architecture_from_json(v).map_err(|e| Response::error(400, &e))?,
        None => Architecture::Nvpg,
    };
    if !arch.is_nonvolatile() {
        return Err(Response::error(
            400,
            "BET is defined against the OSR baseline; pick NVPG or NOF",
        ));
    }
    let iterative = match obj.get("method").and_then(Json::as_str) {
        None | Some("closed_form") => false,
        Some("iterative") => true,
        Some(other) => {
            return Err(Response::error(
                400,
                &format!("unknown method `{other}` (closed_form or iterative)"),
            ))
        }
    };
    let technology = technology_from(obj)?;
    // The params decoder rejects unknown fields; strip ours first.
    let mut params_obj = obj.clone();
    params_obj.remove("arch");
    params_obj.remove("method");
    params_obj.remove("technology");
    params_obj.remove("var");
    params_obj.remove("values");
    let params =
        benchmark_params_from_json(&Json::Obj(params_obj)).map_err(|e| Response::error(400, &e))?;
    Ok((arch, iterative, technology, params))
}

/// Solves one BET query against the named technology's characterisation.
fn solve_bet(
    arch: Architecture,
    iterative: bool,
    technology: &str,
    params: &nvpg_core::BenchmarkParams,
) -> Result<Bet, Response> {
    let exp = experiments_for(technology).map_err(|e| Response::error(500, &e))?;
    Ok(if iterative {
        bet_iterative(exp.model(), arch, params, 10.0)
    } else {
        bet_closed_form(exp.model(), arch, params)
    })
}

/// `POST /bet` — one break-even-time query.
fn bet(_request: &Request, body: &Json) -> Response {
    let (arch, iterative, technology, params) = match bet_inputs(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    match solve_bet(arch, iterative, technology, &params) {
        Ok(bet) => Response::ok(
            "application/json",
            format!(
                "{{\"arch\":\"{arch}\",\"technology\":\"{technology}\",\"bet\":{}}}\n",
                bet_json(bet)
            ),
        ),
        Err(resp) => resp,
    }
}

/// The largest macro edge `/macro` will build: a 64×64 macro is ~20k
/// MNA unknowns on the sparse backend — comfortably solvable, while
/// still bounding what one request can pin a worker with.
const MACRO_MAX_EDGE: usize = 64;

/// `POST /macro` — one macro-level break-even-time report.
///
/// Builds the parameterised NV-SRAM macro netlist ([`MacroSpec`]) at
/// the requested geometry, solves its operating point next to the
/// matching OSR macro, and answers the periphery-priced BET for the
/// chosen architecture under the half-array shutdown policy the
/// granularity implies ([`nvpg_core::bet_macro_scan`]). Flows through
/// [`cached`], so identical specs share one solve and one cache entry.
fn macro_report(_request: &Request, body: &Json) -> Response {
    let obj = match body.as_obj() {
        Some(o) => o,
        None => return Response::error(400, "body must be a JSON object"),
    };
    const KNOWN: [&str; 6] = ["rows", "cols", "mux", "granularity", "arch", "technology"];
    for key in obj.keys() {
        if !KNOWN.contains(&key.as_str()) {
            return Response::error(400, &format!("unknown field `{key}` (expected {KNOWN:?})"));
        }
    }
    let dim = |name: &str, default: usize| -> Result<usize, Response> {
        match obj.get(name) {
            None => Ok(default),
            Some(v) => match v.as_num() {
                Some(n) if n >= 1.0 && n.fract() == 0.0 && n <= MACRO_MAX_EDGE as f64 => {
                    Ok(n as usize)
                }
                _ => Err(Response::error(
                    400,
                    &format!("`{name}` must be an integer in 1..={MACRO_MAX_EDGE}"),
                )),
            },
        }
    };
    let (rows, cols, mux) = match (dim("rows", 4), dim("cols", 4), dim("mux", 1)) {
        (Ok(r), Ok(c), Ok(m)) => (r, c, m),
        (Err(resp), ..) | (_, Err(resp), _) | (.., Err(resp)) => return resp,
    };
    let granularity = match obj.get("granularity") {
        None => nvpg_core::Granularity::PerDomain,
        Some(v) => match v.as_str().and_then(nvpg_core::Granularity::from_label) {
            Some(g) => g,
            None => {
                return Response::error(
                    400,
                    "`granularity` must be `per_row`, `per_bank{N}` or `per_domain`",
                )
            }
        },
    };
    let arch = match obj.get("arch") {
        Some(v) => match architecture_from_json(v) {
            Ok(a) if a.is_nonvolatile() => a,
            Ok(_) => {
                return Response::error(
                    400,
                    "macro BET is defined against the OSR baseline; pick NVPG or NOF",
                )
            }
            Err(e) => return Response::error(400, &e),
        },
        None => Architecture::Nvpg,
    };
    let technology = match technology_from(obj) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let spec = nvpg_core::MacroSpec::new(rows, cols, mux).with_granularity(granularity);
    if let Err(e) = spec.validate() {
        return Response::error(400, &format!("invalid macro spec: {e}"));
    }
    let params = nvpg_core::BenchmarkParams::fig7_default();
    let scan =
        nvpg_core::bet_macro_scan(rows, cols, mux, &[granularity], &[technology], &params, 1);
    let points = match scan {
        Ok(p) => p,
        Err(e) => return solver_error("macro scan", &e),
    };
    let point = match points.into_iter().find(|p| p.arch == arch) {
        Some(p) => p,
        None => return Response::error(500, "macro scan answered no point for the architecture"),
    };
    let bet = match point.bet {
        Some(t) => Bet::At(nvpg_units::Seconds(t)),
        None => Bet::Never,
    };
    Response::ok(
        "application/json",
        format!(
            "{{\"arch\":\"{arch}\",\"technology\":\"{}\",\"granularity\":\"{}\",\
             \"rows\":{rows},\"cols\":{cols},\"mux\":{mux},\"groups\":{},\
             \"unknowns\":{},\"static_power_w\":{:e},\"periphery_overhead_w\":{:e},\
             \"gated_fraction\":{},\"bet\":{}}}\n",
            point.technology,
            point.granularity,
            granularity.groups(rows),
            point.unknowns,
            point.static_power,
            point.periphery_overhead,
            point.gated_fraction,
            bet_json(bet)
        ),
    )
}

/// The proxy-domain geometry behind `var: "vth_shift"` sweeps: each
/// shift's leakage is measured on a `4×4` NVPG domain operating point.
/// Small enough that one point solves in ~a millisecond, large enough
/// that the solve — not JSON handling — dominates the request.
const VTH_SCAN_ROWS: usize = 4;
const VTH_SCAN_COLS: usize = 4;

/// Solves a `vth_shift` sweep: every shift is one varied cell design
/// (both device cards shifted) whose 4×4 NVPG domain operating point is
/// solved, and the per-point BET is the first-order leakage-scaled
/// closed-form crossing (`bet_design_scan`). The points solve in order
/// on the request's worker; the daemon's worker pool provides the
/// request-level concurrency.
fn solve_vth_scan(
    technology: &str,
    params: &nvpg_core::BenchmarkParams,
    shifts: &[f64],
) -> Result<Vec<Bet>, Response> {
    let exp = experiments_for(technology).map_err(|e| Response::error(500, &e))?;
    let fins = [exp.design().fins_power_switch];
    let scan = nvpg_core::bet_design_scan(
        exp.design(),
        exp.characterization(),
        shifts,
        &fins,
        VTH_SCAN_ROWS,
        VTH_SCAN_COLS,
        params,
    )
    .map_err(|e| solver_error("design scan", &e))?;
    Ok(scan
        .into_iter()
        .map(|p| match p.bet {
            Some(t) => Bet::At(nvpg_units::Seconds(t)),
            None => Bet::Never,
        })
        .collect())
}

/// `POST /sweep` — BET as a function of one swept parameter
/// (`var` ∈ {`rows`, `n_rw`, `t_sl`, `vth_shift`}, `values` an array).
///
/// The first three vary the analytic energy model's benchmark
/// parameters (cheap closed-form/Brent solves); `vth_shift` runs real
/// circuit solves — one varied design's domain operating point per
/// value ([`solve_vth_scan`]) — and is only defined for the NVPG
/// architecture.
///
/// The body reaches this handler with `values` already canonicalised to
/// the sorted-unique point *set* (see [`cached`]); the response's
/// `points` array is defined over that set, and the request solves
/// exactly those points on its own worker.
fn sweep(_request: &Request, body: &Json) -> Response {
    let (arch, iterative, technology, base) = match bet_inputs(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let obj = body.as_obj().expect("checked in bet_inputs");
    let var = match obj.get("var").and_then(Json::as_str) {
        Some(v @ ("rows" | "n_rw" | "t_sl" | "vth_shift")) => v.to_owned(),
        Some(other) => {
            return Response::error(
                400,
                &format!("unknown sweep var `{other}` (rows, n_rw, t_sl or vth_shift)"),
            )
        }
        None => return Response::error(400, "`var` names the swept parameter"),
    };
    if var == "vth_shift" && arch != Architecture::Nvpg {
        return Response::error(
            400,
            "`vth_shift` sweeps are defined for the NVPG architecture",
        );
    }
    let values: Vec<f64> = match obj.get("values").and_then(|v| match v {
        Json::Arr(items) => items.iter().map(Json::as_num).collect::<Option<Vec<f64>>>(),
        _ => None,
    }) {
        Some(vs) if !vs.is_empty() && vs.len() <= 4096 => vs,
        Some(_) => return Response::error(400, "`values` must hold 1..=4096 numbers"),
        None => return Response::error(400, "`values` must be an array of numbers"),
    };
    // One point's parameters; a bad point answers 400 before any solve.
    let params_at = |v: f64| -> Result<nvpg_core::BenchmarkParams, Response> {
        let mut params = base;
        match var.as_str() {
            "rows" => {
                if !(v >= 1.0 && v.fract() == 0.0 && v <= f64::from(u32::MAX)) {
                    return Err(Response::error(
                        400,
                        &format!("`values` entry {v} is not a valid row count"),
                    ));
                }
                params.domain = nvpg_core::PowerDomain::new(v as u32, params.domain.bits);
            }
            "n_rw" => {
                if !(v >= 1.0 && v.fract() == 0.0 && v <= f64::from(u32::MAX)) {
                    return Err(Response::error(
                        400,
                        &format!("`values` entry {v} is not a valid round count"),
                    ));
                }
                params.n_rw = v as u32;
            }
            "vth_shift" => {
                // The shift selects a varied design, not a benchmark
                // parameter; `params` passes through unchanged.
                if !(v.is_finite() && v.abs() <= 0.5) {
                    return Err(Response::error(
                        400,
                        &format!("`values` entry {v} is not a valid threshold shift (|V| <= 0.5)"),
                    ));
                }
            }
            _ => {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(Response::error(
                        400,
                        &format!("`values` entry {v} is not a valid time"),
                    ));
                }
                params.t_sl = v;
            }
        }
        Ok(params)
    };
    let params = match values
        .iter()
        .map(|&v| params_at(v))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let solved = if var == "vth_shift" {
        solve_vth_scan(technology, &base, &values)
    } else {
        params
            .iter()
            .map(|p| solve_bet(arch, iterative, technology, p))
            .collect()
    };
    let results: Vec<Bet> = match solved {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let mut out = String::from("{\"arch\":\"");
    out.push_str(&arch.to_string());
    out.push_str("\",\"var\":\"");
    out.push_str(&var);
    out.push_str("\",\"points\":[");
    for (i, (&v, &bet)) in values.iter().zip(&results).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"value\":{v:e},\"bet\":{}}}", bet_json(bet)));
    }
    out.push_str("]}\n");
    Response::ok("application/json", out)
}

/// Cap on transient samples returned to the client.
const MAX_TRAN_POINTS: usize = 2000;

/// `POST /simulate` — parse a SPICE deck and run DC or transient.
///
/// The optional `solver` key (`auto` | `dense` | `sparse`, default
/// `auto`) picks the linear-solver backend per request. It is part of the
/// canonicalised body, so requests differing only in solver choice get
/// distinct cache keys — a dense result is never served for a sparse
/// request or vice versa.
fn simulate(_request: &Request, body: &Json) -> Response {
    let obj = match body.as_obj() {
        Some(o) => o,
        None => return Response::error(400, "body must be a JSON object"),
    };
    let deck = match obj.get("deck").and_then(Json::as_str) {
        Some(d) => d,
        None => return Response::error(400, "`deck` must hold the SPICE netlist text"),
    };
    // Absent keys take documented defaults; *present but mistyped* keys
    // are client errors — silently falling back would run the wrong
    // analysis and cache it under the request's key.
    let analysis = match obj.get("analysis") {
        None => "dc",
        Some(v) => match v.as_str() {
            Some(a) => a,
            None => return Response::error(400, "`analysis` must be a string (dc or tran)"),
        },
    };
    let solver: SolverChoice = match obj.get("solver") {
        None => SolverChoice::Auto,
        Some(v) => match v.as_str().map(str::parse) {
            Some(Ok(choice)) => choice,
            _ => {
                return Response::error(
                    400,
                    "`solver` must be one of \"auto\", \"dense\", \"sparse\"",
                )
            }
        },
    };
    // Validated for every analysis: a mistyped `t_stop` on a DC request
    // is a client bug, not a field to ignore.
    let t_stop = match obj.get("t_stop") {
        None => 1e-9,
        Some(v) => match v.as_num() {
            Some(t) => t,
            None => {
                return Response::error(
                    400,
                    "`t_stop` must be a number (seconds), not a string or other type",
                )
            }
        },
    };
    let dc_opts = DcOptions {
        solver,
        ..DcOptions::default()
    };
    let mut circuit = match nvpg_circuit::parser::parse_deck(deck) {
        Ok(c) => c,
        Err(e) => {
            return Response::error(400, &format!("deck line {}: {}", e.line, e.reason));
        }
    };
    match analysis {
        "dc" => {
            let op = match operating_point(&mut circuit, &dc_opts) {
                Ok(op) => op,
                Err(e) => return solver_error("dc", &e),
            };
            let mut out = String::from("{\"analysis\":\"dc\",\"voltages\":{");
            let mut first = true;
            for (_, name) in circuit.node_names_iter() {
                if name == "0" {
                    continue;
                }
                let Some(v) = op.voltage_by_name(name) else {
                    continue;
                };
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{}\":{v:e}", nvpg_obs::json::escape(name)));
            }
            out.push_str("}}\n");
            Response::ok("application/json", out)
        }
        "tran" => {
            if !(t_stop.is_finite() && t_stop > 0.0 && t_stop <= 1.0) {
                return Response::error(400, "`t_stop` must be a time in (0, 1] seconds");
            }
            let opts = TransientOptions {
                solver,
                ..TransientOptions::to(t_stop)
            };
            // `to` derives `dt_max` from `t_stop`, so a short enough run
            // falls below the default `dt_min`: a client error, caught
            // before any solve.
            if let Err(e) = opts.validate() {
                return Response::error(
                    400,
                    &format!("`t_stop` {t_stop:e} s is too short to step: {e}"),
                );
            }
            let initial = match operating_point(&mut circuit, &dc_opts) {
                Ok(op) => op,
                Err(e) => return solver_error("dc", &e),
            };
            let result = match transient(&mut circuit, &opts, &initial) {
                Ok(r) => r,
                Err(e) => return solver_error("transient", &e),
            };
            let trace = &result.trace;
            let n = trace.len();
            // Decimate long traces: every stride-th sample, end included.
            let stride = n.div_ceil(MAX_TRAN_POINTS).max(1);
            let keep: Vec<usize> = (0..n).filter(|i| i % stride == 0 || *i == n - 1).collect();
            let mut out = String::from("{\"analysis\":\"tran\",\"time\":[");
            for (j, &i) in keep.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{:e}", trace.time()[i]));
            }
            out.push_str("],\"signals\":{");
            for (c, (name, samples)) in trace.columns().enumerate() {
                if c > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":[", nvpg_obs::json::escape(name)));
                for (j, &i) in keep.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{:e}", samples[i]));
                }
                out.push(']');
            }
            out.push_str(&format!("}},\"steps\":{}}}\n", result.steps.newton_solves));
            Response::ok("application/json", out)
        }
        other => Response::error(400, &format!("unknown analysis `{other}` (dc or tran)")),
    }
}
