//! One workload run's results: named metrics with units, output checks,
//! deterministic counts and the host facts, rendered as JSON.

use std::fmt::Write as _;

use nvpg_obs::json::escape;

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A named pass/fail output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one `--workload` run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Per-layer metrics of the full table that this workload cannot
    /// measure, with the reason.
    pub dropped: Vec<(String, String)>,
    /// Counts that must repeat exactly for the same seed (`StepStats`).
    pub counts: Vec<(String, u64)>,
    /// Sample sizes and other context for the numbers above.
    pub notes: Vec<(String, String)>,
    pub checks: Vec<Check>,
    /// Operations attempted / failed or wrong (feeds `failed_frac`).
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        Report {
            workload: workload.to_owned(),
            seed,
            seconds,
            trace,
            ..Report::default()
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn drop_layer(&mut self, name: &str, reason: &str) {
        self.dropped.push((name.to_owned(), reason.to_owned()));
    }

    pub fn note(&mut self, name: &str, value: impl ToString) {
        self.notes.push((name.to_owned(), value.to_string()));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail: detail.into(),
        });
    }

    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records `StepStats`-style counts for the same-seed repeat check.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_owned(), value));
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `true` when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The full report as one JSON object (one line).
    pub fn to_json(&self, host: &Host) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{}",
            escape(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            host.to_json(),
            self.correct(),
            self.attempted,
            self.failed,
            num(self.failed_frac()),
        );
        s.push_str(",\"end_to_end\":");
        s.push_str(&metrics_json(&self.end_to_end));
        s.push_str(",\"per_layer\":");
        s.push_str(&metrics_json(&self.per_layer));
        s.push_str(",\"dropped\":{");
        for (i, (name, why)) in self.dropped.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{}\":\"{}\"", escape(name), escape(why));
        }
        s.push_str("},\"counts\":{");
        for (i, (name, v)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{}\":{v}", escape(name));
        }
        s.push_str("},\"notes\":{");
        for (i, (name, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{}\":\"{}\"", escape(name), escape(v));
        }
        s.push_str("},\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
                escape(&c.name),
                c.ok,
                escape(&c.detail)
            );
        }
        s.push_str("]}");
        s
    }

    /// A human-readable table of every metric, for standard error.
    pub fn render_table(&self) -> String {
        let mut s = format!(
            "== {} (seed {}, {} s, trace {}) ==\n",
            self.workload, self.seed, self.seconds, self.trace
        );
        let rows = self
            .end_to_end
            .iter()
            .map(|m| ("e2e", m))
            .chain(self.per_layer.iter().map(|m| ("layer", m)));
        for (kind, m) in rows {
            let _ = writeln!(s, "  {kind:<5} {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            s,
            "  e2e   {:<28} {:>14.6} 1  ({} of {} failed)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        for (name, why) in &self.dropped {
            let _ = writeln!(s, "  drop  {name:<28} {why}");
        }
        for c in self.checks.iter().filter(|c| !c.ok) {
            let _ = writeln!(s, "  FAIL  {:<28} {}", c.name, c.detail);
        }
        s
    }
}

/// Facts about the machine a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub simd: &'static str,
    pub git_rev: String,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        // Only a checkout that is itself a git work tree has a revision;
        // git would otherwise report a repository above it.
        let in_repo = std::path::Path::new(".git").exists();
        let git_rev = in_repo
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "--short=12", "HEAD"])
                    .stderr(std::process::Stdio::null())
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            nproc,
            cpu,
            simd: nvpg_numeric::simd::level().name(),
            git_rev,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":\"{}\",\"simd\":\"{}\",\"git_rev\":\"{}\"}}",
            self.nproc,
            escape(&self.cpu),
            self.simd,
            escape(&self.git_rev)
        )
    }
}

/// A JSON number with full precision; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            escape(&m.name),
            num(m.value),
            m.unit
        );
    }
    s.push('}');
    s
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, read from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
