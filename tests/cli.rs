//! End-to-end tests of the `deptree` command-line binary against the
//! bundled hotel dataset.

use std::process::Command;

fn deptree(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_deptree"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn profile_reports_fds_and_dcs() {
    let (stdout, _, ok) = deptree(&[
        "profile",
        "data/hotels.csv",
        "--types",
        "t,t,t,n,n",
        "--max-lhs",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("8 rows × 5 columns"), "{stdout}");
    assert!(stdout.contains("exact FDs"));
    assert!(stdout.contains("FD: name -> address"));
    assert!(stdout.contains("soft FDs"));
    assert!(stdout.contains("denial constraints"));
}

#[test]
fn detect_reports_paper_violations() {
    let (stdout, _, ok) = deptree(&[
        "detect",
        "data/hotels.csv",
        "--rule",
        "address -> region",
        "--types",
        "t,t,t,n,n",
    ]);
    assert!(ok);
    assert!(stdout.contains("2 violation witness(es)"), "{stdout}");
    assert!(stdout.contains("g3 = 0.2500"));
    assert!(stdout.contains("rows #3 / #4"));
}

#[test]
fn repair_round_trips_through_csv() {
    let out_path = std::env::temp_dir().join("deptree_cli_repair_test.csv");
    let out_str = out_path.to_str().unwrap();
    let (stdout, _, ok) = deptree(&[
        "repair",
        "data/hotels.csv",
        "--rule",
        "address -> region",
        "--types",
        "t,t,t,n,n",
        "--out",
        out_str,
    ]);
    assert!(ok);
    assert!(stdout.contains("rule now holds: true"), "{stdout}");
    let repaired = std::fs::read_to_string(&out_path).expect("output written");
    // Both West Lake Rd. tuples agree on a region now.
    let boston_count = repaired.matches("Boston").count();
    assert!(boston_count >= 2, "{repaired}");
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn tree_prints_all_roots() {
    let (stdout, _, ok) = deptree(&["tree"]);
    assert!(ok);
    assert!(stdout.contains("FDs (1971"));
    assert!(stdout.contains("OFDs (1999"));
    assert!(stdout.contains("CSDs"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = deptree(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    // The removed `--shard` fails loudly instead of being ignored.
    let (_, stderr, ok) = deptree(&[
        "gateway",
        "--data",
        "hotels=data/hotels.csv",
        "--shard",
        "hotels",
    ]);
    assert!(!ok);
    assert!(stderr.contains("usage:") && stderr.contains("--replicas"));
}

#[test]
fn bad_rule_fails_cleanly() {
    let (_, stderr, ok) = deptree(&[
        "detect",
        "data/hotels.csv",
        "--rule",
        "nonexistent -> region",
    ]);
    assert!(!ok);
    assert!(stderr.contains("cannot parse rule"));
}
