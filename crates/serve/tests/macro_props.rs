//! Hostile `/macro` bodies: however a body's fields are drawn — absent,
//! valid, out of range, fractional, huge, a wrong JSON type, an unknown
//! label, plus an unknown extra field — the reply is a `200` carrying a
//! `bet` or a `4xx` whose JSON has an `"error"`, never a `5xx`.

mod common;

use std::net::SocketAddr;
use std::sync::OnceLock;

use proptest::prelude::*;

use common::post;
use nvpg_obs::json::{parse, Json};
use nvpg_serve::{ServeConfig, Server};

/// One server for every case, so a repeated valid spec is a cache hit.
fn addr() -> SocketAddr {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            Server::start(ServeConfig {
                listen: "127.0.0.1:0".to_owned(),
                jobs: 2,
                ..ServeConfig::default()
            })
            .expect("start")
        })
        .addr()
}

/// Valid `rows`/`cols`/`mux` values (`None` = absent), at most 4×4.
const DIMS: &[Option<&str>] = &[None, Some("1"), Some("2"), Some("3"), Some("4")];
const BAD_DIMS: &[&str] = &["0", "-1", "1.5", "65", "1e300", "\"4\"", "null", "[]", "{}"];
const GRANULARITIES: &[Option<&str>] = &[
    None,
    Some("\"per_row\""),
    Some("\"per_domain\""),
    Some("\"per_bank2\""),
];
const ARCHS: &[Option<&str>] = &[None, Some("\"NVPG\""), Some("\"NOF\"")];
const TECHNOLOGIES: &[Option<&str>] = &[
    None,
    Some("\"mtj\""),
    Some("\"fefet\""),
    Some("\"nand_spin\""),
];
/// Hostile values for the three label fields.
const BAD_LABELS: &[&str] = &[
    "\"per_bank0\"",
    "\"per_bank99\"",
    "\"OSR\"",
    "\"bogus\"",
    "7",
    "true",
    "null",
    "[]",
    "{}",
];

/// One field's JSON text (`None` = absent): seven draws in eight come
/// from `valid`, so whole bodies are often solvable, the rest from
/// `hostile`.
fn field(
    valid: &'static [Option<&'static str>],
    hostile: &'static [&'static str],
) -> impl Strategy<Value = Option<&'static str>> {
    (0usize..8, 0usize..valid.len() * hostile.len()).prop_map(move |(class, k)| {
        if class < 7 {
            valid[k % valid.len()]
        } else {
            Some(hostile[k % hostile.len()])
        }
    })
}

proptest! {
    #[test]
    fn hostile_macro_bodies_answer_200_or_a_structured_4xx(
        rows in field(DIMS, BAD_DIMS),
        cols in field(DIMS, BAD_DIMS),
        mux in field(DIMS, BAD_DIMS),
        granularity in field(GRANULARITIES, BAD_LABELS),
        arch in field(ARCHS, BAD_LABELS),
        technology in field(TECHNOLOGIES, BAD_LABELS),
        extra in 0usize..4,
    ) {
        let fields = [
            ("rows", rows),
            ("cols", cols),
            ("mux", mux),
            ("granularity", granularity),
            ("arch", arch),
            ("technology", technology),
            ("shape", (extra == 0).then_some("\"square\"")),
        ];
        let members: Vec<String> = fields
            .iter()
            .filter_map(|(name, value)| value.map(|v| format!("\"{name}\":{v}")))
            .collect();
        let body = format!("{{{}}}", members.join(","));
        let reply = post(addr(), "/macro", &body);
        let json = parse(reply.text()).unwrap_or_else(|e| panic!("{body}: not JSON ({e:?})"));
        let has = |key: &str| json.as_obj().and_then(|o| o.get(key)).is_some();
        match reply.status {
            200 => prop_assert!(has("bet"), "{body}: 200 without a bet: {}", reply.text()),
            400..=499 => prop_assert!(
                matches!(json.as_obj().and_then(|o| o.get("error")), Some(Json::Str(_))),
                "{body}: {} without an error: {}",
                reply.status,
                reply.text()
            ),
            status => panic!("{body}: {status} {}", reply.text()),
        }
    }
}
