//! Command-line contract of the `figures` binary: tracing and profiling
//! leave stdout byte-identical, the trace directory holds a schema-valid,
//! non-empty trace, a manifest and collapsed stacks, a faulted run breaks
//! the same figures at any `--jobs`, an unknown flag is reported as a
//! flag, and an `--only` list that names no figure is a usage error.

use std::path::Path;
use std::process::Command;

use nvpg_obs::schema::validate_jsonl;

/// Runs `figures --only fig6a,fig7a --jobs 2` plus `extra` flags and
/// returns its stdout.
fn figures(extra: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--only", "fig6a,fig7a", "--jobs", "2"])
        .args(extra)
        .output()
        .expect("run figures");
    assert!(out.status.success(), "figures failed: {}", out.status);
    out.stdout
}

fn non_empty(path: &Path) -> bool {
    std::fs::metadata(path).is_ok_and(|m| m.len() > 0)
}

#[test]
fn tracing_leaves_stdout_identical_and_writes_a_valid_trace() {
    let dir = std::env::temp_dir().join(format!("nvpg-figures-trace-{}", std::process::id()));
    let untraced = figures(&[]);
    let traced = figures(&[
        "--trace",
        "--profile",
        "--trace-dir",
        dir.to_str().expect("utf-8 temp dir"),
    ]);
    let trace = std::fs::read_to_string(dir.join("trace.jsonl"));
    let manifest_ok = non_empty(&dir.join("manifest.json"));
    let folded_ok = non_empty(&dir.join("profile.folded"));
    std::fs::remove_dir_all(&dir).expect("remove the trace directory");

    assert!(
        untraced == traced,
        "tracing changed stdout:\n--- untraced\n{}\n--- traced\n{}",
        String::from_utf8_lossy(&untraced),
        String::from_utf8_lossy(&traced)
    );
    let summary = validate_jsonl(&trace.expect("trace.jsonl written")).expect("schema-valid trace");
    assert!(summary.spans > 0, "trace holds no spans");
    assert!(summary.counters > 0, "trace holds no counters");
    assert!(manifest_ok, "manifest.json missing or empty");
    assert!(folded_ok, "profile.folded missing or empty");
}

/// Fig. 3(a)–(c) and Fig. 4 fan their DC sweeps out over the pool. The
/// fault schedule is keyed by figure and sweep point, so one seed breaks
/// the same figures at any `--jobs`; at a 20 % rate it fails some of them
/// and renders the rest.
#[test]
fn faulted_runs_break_the_same_figures_at_any_job_count() {
    let run = |jobs: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--only", "fig3a,fig3b,fig3c,fig4", "--fault-rate", "0.2"])
            .args(["--jobs", jobs])
            .output()
            .expect("run figures");
        assert!(
            out.status.success(),
            "a faulted run is fail-soft: {}",
            out.status
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let serial = run("1");
    assert_eq!(serial, run("2"), "the fault schedule depends on --jobs");
    assert!(
        serial.contains("\n  FAILED  fig"),
        "no figure failed:\n{serial}"
    );
    assert!(
        serial.starts_with("== fig"),
        "no figure rendered:\n{serial}"
    );
}

#[test]
fn unknown_flag_is_reported_as_a_flag() {
    for [flag, value] in [["--batch", "auto"], ["--solver", "sparse"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args([flag, value])
            .output()
            .expect("run figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`{flag} {value}` ran: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "a figure ran before the usage error");
    }
}

#[test]
fn an_only_list_naming_no_figure_is_a_usage_error() {
    for args in [&["--only"][..], &["--only", ""], &["--only", ","]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("run figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} ran: {stderr}");
        assert!(
            stderr.contains("--only requires a figure id"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} produced figures");
    }
}
