//! # nvpg-serve — a batching, caching simulation service
//!
//! The experiment engine answers *queries*: "given an architecture,
//! workload, and design point, what is the energy/BET?" Every answer is
//! deterministic, so a long-lived daemon can serve repeated queries from
//! a content-addressed cache instead of re-running solvers. This crate
//! is that daemon: HTTP/1.1 + JSON over `std::net`, dependency-free like
//! the rest of the workspace.
//!
//! ## Request path
//!
//! ```text
//! accept ─▶ bounded queue ─▶ worker ─▶ canonicalise ─▶ cache ──hit──▶ respond
//!    │ full                                │ miss
//!    ▼                                     ▼
//!  503 + Retry-After              single-flight group ─▶ solve ─▶ cache ─▶ respond
//! ```
//!
//! * **Admission control** — the only buffer is a
//!   [`nvpg_exec::FairQueue`] of accepted sockets keyed by peer address;
//!   past `queue_depth` (or a peer's share of it) the acceptor sheds load
//!   with `503` + `Retry-After`, so memory under overload is bounded and
//!   one flooding peer cannot starve the others.
//! * **Content-addressed cache** — responses are keyed by
//!   [`nvpg_core::canon::request_key`], which canonicalises the JSON
//!   body (field order, whitespace, and number spelling don't matter)
//!   and excludes server configuration (`--jobs` can't split the cache).
//! * **Single-flight** — N identical in-flight requests perform exactly
//!   one solve; followers share the leader's response and count as
//!   cache hits.
//! * **Sweep coalescing** — sibling `/sweep` requests (same canonical
//!   topology, *different* point sets) arriving within the coalescing
//!   window merge into one [`batcher`] batch that solves the
//!   deduplicated union once; each sibling renders its own response
//!   from the shared point → result map. Sweep point sets are
//!   canonicalised (sorted, duplicates removed) before cache keying, so
//!   `[3,1,2]` and `[1,2,2,3]` are one cache entry. `/bet` siblings
//!   sharing a canonical topology are by construction identical
//!   requests, which single-flight already coalesces.
//! * **Fail-soft** — deck parsing returns structured `400`s (the parser
//!   is panic-free on hostile input) and a panicking solve answers `500`
//!   via `catch_unwind` without taking the worker down.
//! * **Deadlines** — every request runs under a cooperative
//!   [`nvpg_core::cancel::CancelToken`] armed from the server default or
//!   the client's `timeout_ms` (capped); expiry answers `504` with
//!   partial progress diagnostics and frees the worker immediately.
//! * **Overload control** — a per-client token bucket
//!   ([`limiter::RateLimiter`], `429` + `Retry-After`) and a fair-share
//!   connection queue keep one noisy tenant from starving the rest; a
//!   watchdog cancels solves whose heartbeat stalls or whose client has
//!   disconnected.
//!
//! ## Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | text dump of the `nvpg_obs` metrics registry |
//! | `GET /figures/{id}?format=csv\|json` | any paper figure (CSV byte-identical to the `figures` CLI) |
//! | `POST /bet` | one break-even-time query |
//! | `POST /sweep` | BET vs one swept parameter |
//! | `POST /simulate` | SPICE deck → DC or transient results |

pub mod batcher;
pub mod cache;
pub mod http;
pub mod limiter;
pub mod server;
pub mod singleflight;

pub use http::{Request, Response};
pub use server::Server;

/// Server configuration (the bin's `--listen/--jobs/--cache-mb/
/// --queue-depth/--default-timeout-ms/--rate-limit-rps/…` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port `0` picks a free one).
    pub listen: String,
    /// Worker threads (0 = the `nvpg_exec` process default).
    pub jobs: usize,
    /// Response-cache capacity in bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Accepted-connection queue depth (admission-control bound),
    /// shared fairly across peers ([`nvpg_exec::FairQueue`]).
    pub queue_depth: usize,
    /// Per-peer share of the connection queue (0 = no per-peer bound;
    /// each peer may then fill the whole queue, the pre-fair-share
    /// behaviour).
    pub queue_per_client: usize,
    /// Expose `/debug/sleep` (deterministic worker stalls for tests/CI).
    pub debug_endpoints: bool,
    /// Deadline applied to requests that carry no `timeout_ms`
    /// (milliseconds; 0 = no default deadline).
    pub default_timeout_ms: u64,
    /// Upper cap on a client-supplied `timeout_ms` (milliseconds; a
    /// larger request value is clamped, never honoured).
    pub max_timeout_ms: u64,
    /// Per-client admitted requests per second (token bucket keyed by
    /// the `X-Client` header, falling back to the peer address;
    /// 0 = rate limiting disabled).
    pub rate_limit_rps: u32,
    /// Token-bucket burst size (0 = same as `rate_limit_rps`).
    pub rate_limit_burst: u32,
    /// Cancel a solve whose progress heartbeat has not advanced for
    /// this long (milliseconds; 0 = stall watchdog disabled).
    pub watchdog_stall_ms: u64,
    /// How long a `/sweep` batch leader holds its coalescing window open
    /// for sibling requests (same topology, different point sets) before
    /// solving the deduplicated union (milliseconds; 0 = coalescing
    /// disabled, every request solves its own points).
    pub coalesce_window_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:7878".to_owned(),
            jobs: nvpg_exec::default_jobs(),
            cache_bytes: 64 << 20,
            queue_depth: 64,
            queue_per_client: 0,
            debug_endpoints: false,
            default_timeout_ms: 30_000,
            max_timeout_ms: 120_000,
            rate_limit_rps: 0,
            rate_limit_burst: 0,
            watchdog_stall_ms: 0,
            coalesce_window_ms: 2,
        }
    }
}
