//! End-to-end check of the CLI observability surface: `--stats-json`
//! must emit a valid JSON document whose counters reflect the work the
//! subcommand actually did.
//!
//! Each test runs the `sqlnf` binary as a child process, so its
//! counters come from a registry no other test touches.

use sqlnf_obs::json::{parse, JsonValue};
use sqlnf_obs::ObsReport;

const CSV: &str = "\
a,b,c,d
1,10,100,1
1,10,200,2
2,20,100,2
2,20,200,1
3,30,100,1
";

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sqlnf_stats_json_test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `sqlnf <args>` and returns its stdout, panicking on failure.
fn run(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sqlnf"))
        .args(args)
        .output()
        .expect("spawn sqlnf");
    assert!(
        out.status.success(),
        "sqlnf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn counter(doc: &JsonValue, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

#[test]
fn mine_stats_json_reports_lattice_and_partition_work() {
    let dir = tempdir();
    let csv_path = dir.join("mine_input.csv");
    let json_path = dir.join("mine_stats.json");
    std::fs::write(&csv_path, CSV).expect("write csv");

    let out = run(&[
        "mine",
        &csv_path.display().to_string(),
        "2",
        "--stats-json",
        &json_path.display().to_string(),
    ]);
    assert!(out.contains("minimal FDs"), "{out}");

    let text = std::fs::read_to_string(&json_path).expect("stats file written");
    let doc = parse(&text).expect("stats file is valid JSON");
    assert_eq!(doc.get("command").and_then(JsonValue::as_str), Some("mine"));
    // The mining run visits lattice levels 0..=2, builds the
    // single-attribute partitions and products them for the
    // two-attribute candidates.
    assert!(
        counter(&doc, "discovery.mine.lattice_levels") >= 3,
        "{text}"
    );
    assert!(counter(&doc, "discovery.mine.candidates_checked") > 0);
    assert!(counter(&doc, "discovery.partition.builds") > 0);
    assert!(counter(&doc, "discovery.partition.products") > 0);
    assert!(counter(&doc, "discovery.partition.rows_scanned") > 0);
    // The document also parses through the typed reader (extra keys are
    // ignored).
    let report = ObsReport::from_json(&text).expect("typed parse");
    assert!(report.counter("discovery.mine.candidates_pruned").is_some());
}

#[test]
fn profile_stats_json_embeds_the_table_profile() {
    let dir = tempdir();
    let csv_path = dir.join("profile_input.csv");
    let json_path = dir.join("profile_stats.json");
    std::fs::write(&csv_path, CSV).expect("write csv");

    let out = run(&[
        "profile",
        &csv_path.display().to_string(),
        "--stats-json",
        &json_path.display().to_string(),
    ]);
    assert!(out.contains("profile_input"), "{out}");

    let text = std::fs::read_to_string(&json_path).expect("stats file written");
    let doc = parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("command").and_then(JsonValue::as_str),
        Some("profile")
    );
    let profile = doc.get("profile").expect("profile payload");
    assert_eq!(profile.get("rows").and_then(JsonValue::as_u64), Some(5));
    assert_eq!(profile.get("columns").and_then(JsonValue::as_u64), Some(4));
    let cols = profile
        .get("column_profiles")
        .and_then(JsonValue::as_array)
        .expect("column profiles");
    assert_eq!(cols.len(), 4);
    assert_eq!(cols[0].get("name").and_then(JsonValue::as_str), Some("a"));
}
