//! Command-line contract of the `nvpg-serve` daemon binary: bad flags are
//! usage errors, and a booted daemon serves and drains on SIGTERM.

mod common;

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use common::{get, post};

/// Spawns the daemon with `args` on an ephemeral port and waits up to
/// 5 s for it to exit, returning its exit code (`None` if it was still
/// running and had to be killed) and its stdout.
fn exit_within_5s(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nvpg-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nvpg-serve");
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll nvpg-serve") {
            break Some(status);
        }
        if t0.elapsed() > Duration::from_secs(5) {
            child.kill().expect("kill nvpg-serve");
            child.wait().expect("reap nvpg-serve");
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    (status.and_then(|s| s.code()), stdout)
}

/// `--cache-mb 2^44` overflows the byte count; the daemon must refuse it
/// with the usage error (exit 2) instead of starting with a wrapped,
/// 0-byte cache.
#[test]
fn oversized_cache_mb_is_a_usage_error() {
    let (code, stdout) = exit_within_5s(&["--cache-mb", "17592186044416"]);
    assert!(
        !stdout.contains("listening"),
        "the daemon started: {stdout}"
    );
    assert_eq!(code, Some(2), "expected the usage exit status within 5 s");
}

/// A removed flag is an unknown flag: usage error, no daemon.
#[test]
fn removed_batch_flag_is_a_usage_error() {
    for args in [["--batch", "auto"], ["--coalesce-window-ms", "2"]] {
        let (code, stdout) = exit_within_5s(&args);
        assert!(
            !stdout.contains("listening"),
            "{args:?}: the daemon started: {stdout}"
        );
        assert_eq!(
            code,
            Some(2),
            "{args:?}: expected the usage exit status within 5 s"
        );
    }
}

/// Kills the daemon if a failed assertion leaves it running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The daemon as an operator runs it: the flags parse, the `listening on`
/// line names the bound address, `/healthz` answers, a repeated `/bet`
/// answers identical bytes, and SIGTERM drains it to exit status 0
/// within 30 s.
#[test]
fn daemon_serves_and_drains_on_sigterm() {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_nvpg-serve"))
            .args([
                "--listen",
                "127.0.0.1:0",
                "--jobs",
                "2",
                "--queue-depth",
                "8",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn nvpg-serve"),
    );
    // Held to the end: the daemon's stdout stays open while it runs.
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("read the listening line");
    // "nvpg-serve listening on 127.0.0.1:PORT (jobs=2, cache=64 MiB, queue=8)"
    let addr: SocketAddr = line
        .strip_prefix("nvpg-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no listen address in `{}`", line.trim_end()));
    assert!(
        line.contains("jobs=2") && line.contains("queue=8"),
        "flags not applied: {line}"
    );

    assert_eq!(get(addr, "/healthz").text(), "ok\n");
    let body = r#"{"arch":"NVPG","n_rw":10}"#;
    let first = post(addr, "/bet", body);
    assert_eq!(first.status, 200, "{}", first.text());
    assert!(first.text().contains("\"bet\""), "{}", first.text());
    assert_eq!(
        post(addr, "/bet", body).body,
        first.body,
        "repeat /bet bytes"
    );

    let pid = daemon.0.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status();
    assert!(
        matches!(kill, Ok(s) if s.success()),
        "kill -TERM {pid}: {kill:?}"
    );
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll nvpg-serve") {
            break status;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the daemon did not drain within 30 s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0), "unclean drain: {status}");
}
