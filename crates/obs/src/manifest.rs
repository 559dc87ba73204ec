//! Per-run manifests: what produced a trace, from which source revision,
//! on which host, with which options and seeds.
//!
//! A trace without provenance is a liability — the manifest is written
//! next to every JSONL event log so a number in a figure can always be
//! walked back to the exact binary invocation that produced it. Every
//! probe degrades gracefully: a missing `.git` or `/proc` file yields
//! `null`, never an error.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::escape;

/// Host facts worth recording next to timings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostInfo {
    /// Kernel release (`/proc/sys/kernel/osrelease`).
    pub os_release: Option<String>,
    /// CPU model name (first `model name` line of `/proc/cpuinfo`).
    pub cpu_model: Option<String>,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
}

impl HostInfo {
    /// Probes the current host.
    pub fn collect() -> Self {
        let read = |p: &str| {
            std::fs::read_to_string(p)
                .ok()
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
        };
        let cpu_model = read("/proc/cpuinfo").and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        });
        HostInfo {
            os_release: read("/proc/sys/kernel/osrelease"),
            cpu_model,
            parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Provenance record for one traced run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Producing tool (`"figures"`, …).
    pub tool: String,
    /// The producing crate's version.
    pub version: String,
    /// Full command line (`argv[1..]`).
    pub args: Vec<String>,
    /// Named RNG seeds the run depended on.
    pub seeds: Vec<(String, u64)>,
    /// Git revision of the working tree, when discoverable.
    pub git_rev: Option<String>,
    /// Host facts.
    pub host: HostInfo,
    /// Wall-clock start, seconds since the Unix epoch.
    pub unix_time_s: Option<u64>,
}

impl RunManifest {
    /// Collects a manifest for `tool`: command-line args, git revision
    /// (walking up from the current directory), host info and the
    /// current time.
    pub fn collect(tool: &str, version: &str) -> Self {
        RunManifest {
            tool: tool.to_owned(),
            version: version.to_owned(),
            args: std::env::args().skip(1).collect(),
            seeds: Vec::new(),
            git_rev: std::env::current_dir().ok().and_then(|d| git_revision(&d)),
            host: HostInfo::collect(),
            unix_time_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .ok()
                .map(|d| d.as_secs()),
        }
    }

    /// Records a named seed.
    #[must_use]
    pub fn with_seed(mut self, name: impl Into<String>, seed: u64) -> Self {
        self.seeds.push((name.into(), seed));
        self
    }

    /// Renders the manifest as a JSON document (trailing newline
    /// included).
    pub fn to_json(&self) -> String {
        let opt_str = |v: &Option<String>| match v {
            Some(s) => format!("\"{}\"", escape(s)),
            None => "null".to_owned(),
        };
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"tool\": \"{}\",", escape(&self.tool));
        let _ = writeln!(s, "  \"version\": \"{}\",", escape(&self.version));
        let args: Vec<String> = self
            .args
            .iter()
            .map(|a| format!("\"{}\"", escape(a)))
            .collect();
        let _ = writeln!(s, "  \"args\": [{}],", args.join(", "));
        let seeds: Vec<String> = self
            .seeds
            .iter()
            .map(|(n, v)| format!("\"{}\": {v}", escape(n)))
            .collect();
        let _ = writeln!(s, "  \"seeds\": {{{}}},", seeds.join(", "));
        let _ = writeln!(s, "  \"git_rev\": {},", opt_str(&self.git_rev));
        let _ = writeln!(s, "  \"host\": {{");
        let _ = writeln!(s, "    \"os_release\": {},", opt_str(&self.host.os_release));
        let _ = writeln!(s, "    \"cpu_model\": {},", opt_str(&self.host.cpu_model));
        let _ = writeln!(s, "    \"parallelism\": {}", self.host.parallelism);
        let _ = writeln!(s, "  }},");
        match self.unix_time_s {
            Some(t) => {
                let _ = writeln!(s, "  \"unix_time_s\": {t}");
            }
            None => {
                let _ = writeln!(s, "  \"unix_time_s\": null");
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Resolves the current git revision by reading `.git/HEAD` (and the ref
/// file it points at), walking up from `start`. No `git` subprocess —
/// works in minimal containers.
pub fn git_revision(start: &Path) -> Option<String> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let head = d.join(".git").join("HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            if let Some(r) = text.strip_prefix("ref: ") {
                let target = d.join(".git").join(r.trim());
                if let Ok(rev) = std::fs::read_to_string(target) {
                    return Some(rev.trim().to_owned());
                }
                // Packed refs: scan .git/packed-refs for the ref name.
                if let Ok(packed) = std::fs::read_to_string(d.join(".git").join("packed-refs")) {
                    for line in packed.lines() {
                        if let Some((hash, name)) = line.split_once(' ') {
                            if name.trim() == r.trim() {
                                return Some(hash.trim().to_owned());
                            }
                        }
                    }
                }
                return None;
            }
            // Detached HEAD: the hash is inline.
            return Some(text.to_owned());
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn manifest_renders_parseable_json() {
        let m = RunManifest {
            tool: "figures".into(),
            version: "0.1.0".into(),
            args: vec!["--trace".into(), "--only".into(), "fig6a".into()],
            seeds: vec![("fault_seed".into(), 0xFA17)],
            git_rev: Some("abc123".into()),
            host: HostInfo {
                os_release: None,
                cpu_model: Some("Test CPU \"quoted\"".into()),
                parallelism: 4,
            },
            unix_time_s: Some(1_700_000_000),
        };
        let parsed = parse(&m.to_json()).expect("valid JSON");
        let obj = parsed.as_obj().unwrap();
        assert_eq!(obj["tool"].as_str(), Some("figures"));
        assert_eq!(obj["git_rev"].as_str(), Some("abc123"));
        assert_eq!(
            obj["seeds"].as_obj().unwrap()["fault_seed"].as_u64(),
            Some(0xFA17)
        );
        assert_eq!(obj["host"].as_obj().unwrap()["os_release"], Json::Null);
    }

    #[test]
    fn collect_fills_tool_and_host() {
        let m = RunManifest::collect("test-tool", "9.9.9").with_seed("s", 7);
        assert_eq!(m.tool, "test-tool");
        assert_eq!(m.seeds, vec![("s".to_owned(), 7)]);
        assert!(m.host.parallelism >= 1);
        // Must parse whatever the environment produced.
        parse(&m.to_json()).expect("valid JSON");
    }

    #[test]
    fn git_revision_reads_head_chain() {
        let dir = std::env::temp_dir().join(format!("obs-git-test-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("refs/heads/main"), "deadbeef\n").unwrap();
        let nested = dir.join("a/b");
        std::fs::create_dir_all(&nested).unwrap();
        assert_eq!(git_revision(&nested).as_deref(), Some("deadbeef"));
        std::fs::write(git.join("HEAD"), "cafef00d\n").unwrap();
        assert_eq!(git_revision(&dir).as_deref(), Some("cafef00d"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
