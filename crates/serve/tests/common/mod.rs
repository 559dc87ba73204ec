//! The HTTP client and the slow deck every `nvpg-serve` test file shares.
//!
//! Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A `/simulate` body whose RC transient takes ≫ 10 s to solve at
/// `t_stop ≥ 1e-3` (`dt_max` caps at 100 ps ⇒ ten million steps
/// minimum) — the workload for deadline tests. `t_stop` is part of the
/// cache key and `timeout_ms` is not.
pub fn slow_body(t_stop: f64, timeout_ms: u64) -> String {
    format!(
        r#"{{"deck":"V1 vin 0 PULSE(0 1 1n 1n 1n 1u 2u)\nR1 vin out 1k\nC1 out 0 1n\n","analysis":"tran","t_stop":{t_stop:e},"timeout_ms":{timeout_ms}}}"#
    )
}

/// One HTTP exchange on a fresh connection.
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("utf8 body")
    }
}

fn read_reply(stream: TcpStream) -> Reply {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        let (k, v) = h.split_once(':').expect("header colon");
        if k.eq_ignore_ascii_case("content-length") {
            content_length = v.trim().parse().expect("length");
        }
        headers.push((k.to_owned(), v.trim().to_owned()));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    Reply {
        status,
        headers,
        body,
    }
}

/// Sends the raw request bytes on a fresh connection and reads one reply.
pub fn request(addr: SocketAddr, raw: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("timeout");
    stream.write_all(raw.as_bytes()).expect("send");
    read_reply(stream)
}

/// A `Connection: close` request; `tenant` becomes the `X-Client` header.
/// A `POST` carries `body` with its `Content-Length`.
pub fn call(addr: SocketAddr, method: &str, path: &str, tenant: Option<&str>, body: &str) -> Reply {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    if let Some(tenant) = tenant {
        raw.push_str(&format!("X-Client: {tenant}\r\n"));
    }
    if method == "POST" {
        raw.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    request(addr, &raw)
}

pub fn get(addr: SocketAddr, path: &str) -> Reply {
    call(addr, "GET", path, None, "")
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    call(addr, "POST", path, None, body)
}

/// Nearest-rank 99th percentile of `latencies`, in milliseconds (`NaN`
/// when empty, which fails every `<=` bound).
pub fn p99_ms(latencies: &mut [Duration]) -> f64 {
    if latencies.is_empty() {
        return f64::NAN;
    }
    latencies.sort_unstable();
    let rank = (latencies.len() as f64 * 0.99).ceil() as usize;
    latencies[rank.clamp(1, latencies.len()) - 1].as_secs_f64() * 1e3
}
