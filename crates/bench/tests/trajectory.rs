//! `BENCH_TRAJECTORY.jsonl` is the repository's one benchmark record:
//! every line parses, carries perfbench's report keys (`workload`, `host`,
//! `end_to_end`, `per_layer`, `counts`, `notes`) plus `pr`, `source` and
//! `caveats`, and every metric has a finite `value` and a `unit`.

use nvpg_obs::json::{parse, Json};

const KEYS: [&str; 9] = [
    "pr",
    "source",
    "workload",
    "host",
    "end_to_end",
    "per_layer",
    "counts",
    "notes",
    "caveats",
];

#[test]
fn every_trajectory_line_is_a_well_formed_record() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_TRAJECTORY.jsonl");
    let text = std::fs::read_to_string(path).expect("read BENCH_TRAJECTORY.jsonl");
    assert!(text.lines().count() > 0, "the trajectory is empty");
    for (i, line) in text.lines().enumerate() {
        let at = format!("line {}", i + 1);
        let record = parse(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let record = record
            .as_obj()
            .unwrap_or_else(|| panic!("{at} is not an object"));
        for key in KEYS {
            assert!(record.contains_key(key), "{at} lacks `{key}`");
        }
        assert!(record["pr"].as_u64().is_some(), "{at}: pr");
        for key in ["source", "workload"] {
            assert!(
                record[key].as_str().is_some_and(|s| !s.is_empty()),
                "{at}: {key}"
            );
        }
        assert!(record["host"].as_obj().is_some(), "{at}: host");
        assert!(
            record["counts"]
                .as_obj()
                .is_some_and(|c| c.values().all(|v| v.as_u64().is_some())),
            "{at}: counts are not all non-negative integers"
        );
        assert!(
            record["notes"]
                .as_obj()
                .is_some_and(|n| n.values().all(|v| v.as_str().is_some())),
            "{at}: notes are not all strings"
        );
        assert!(
            record["caveats"]
                .as_arr()
                .is_some_and(|c| c.iter().all(|v| v.as_str().is_some())),
            "{at}: caveats are not a list of strings"
        );
        let mut metrics = 0;
        for section in ["end_to_end", "per_layer"] {
            let section_metrics = record[section]
                .as_obj()
                .unwrap_or_else(|| panic!("{at}: {section} is not an object"));
            for (name, metric) in section_metrics {
                let field = |key: &str| metric.as_obj().and_then(|m| m.get(key));
                assert!(
                    field("value")
                        .and_then(Json::as_num)
                        .is_some_and(f64::is_finite),
                    "{at}: {section}.{name} has no finite value"
                );
                assert!(
                    field("unit")
                        .and_then(Json::as_str)
                        .is_some_and(|u| !u.is_empty()),
                    "{at}: {section}.{name} has no unit"
                );
                metrics += 1;
            }
        }
        assert!(metrics > 0, "{at} records no metric");
    }
}
