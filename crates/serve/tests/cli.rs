//! Command-line contract of the `nvpg-serve` daemon binary.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `--cache-mb 2^44` overflows the byte count; the daemon must refuse it
/// with the usage error (exit 2) instead of starting with a wrapped,
/// 0-byte cache.
#[test]
fn oversized_cache_mb_is_a_usage_error() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nvpg-serve"))
        .args(["--listen", "127.0.0.1:0", "--cache-mb", "17592186044416"])
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
    assert!(
        !stdout.contains("listening"),
        "the daemon started: {stdout}"
    );
    assert_eq!(
        status.and_then(|s| s.code()),
        Some(2),
        "expected the usage exit status within 5 s"
    );
}
