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

/// FASTDC's bytes end to end on a 200-row `ledger`-shaped table whose
/// numeric cells include empty cells, `NaN`, `-0.0` and `2` beside `2.0`:
/// the snapshot was recorded before FASTDC ran on its compiled
/// pair-evidence kernel and bitset cover search.
#[test]
fn profile_of_adversarial_ledger_matches_snapshot() {
    let want = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/snapshots/profile_ledger_adversarial_maxlhs2.txt"
    ))
    .expect("snapshot readable");
    for threads in ["1", "8"] {
        let (stdout, stderr, ok) = deptree(&[
            "profile",
            "tests/snapshots/ledger_adversarial.csv",
            "--types",
            "c,c,c,n,n,n",
            "--max-lhs",
            "2",
            "--threads",
            threads,
        ]);
        assert!(ok, "{stderr}");
        assert_eq!(stdout, want, "--threads {threads}");
    }
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

/// Every `--flag` in the lines from the one starting `deptree gateway` up
/// to the next `deptree` command.
fn gateway_flags<'a>(lines: impl Iterator<Item = &'a str>) -> std::collections::BTreeSet<String> {
    let mut inside = false;
    let mut flags = std::collections::BTreeSet::new();
    for line in lines {
        if line.contains("deptree ") {
            inside = line.contains("deptree gateway");
        }
        if inside {
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            flags.extend(words.filter(|w| w.starts_with("--")).map(str::to_owned));
        }
    }
    flags
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = deptree(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    // The printed usage, the module doc and the parser list the same
    // gateway flags.
    let source = include_str!("../src/bin/deptree.rs");
    let doc = gateway_flags(source.lines().filter_map(|l| l.strip_prefix("//! ")));
    let printed = gateway_flags(stderr.lines());
    assert_eq!(printed, doc, "printed usage and module doc disagree");
    let list = source
        .split("const GATEWAY_VALUE_FLAGS")
        .nth(1)
        .and_then(|rest| rest.split("];").next())
        .expect("the gateway's flag list");
    let mut parsed: std::collections::BTreeSet<String> = list
        .split('"')
        .filter(|w| w.starts_with("--"))
        .map(str::to_owned)
        .collect();
    parsed.insert("--lossy".to_owned());
    assert_eq!(parsed, doc, "the gateway parser and its usage disagree");
    // A flag the gateway does not read fails with exit 1 and the usage:
    // the removed `--shard` (with a hint) and `--chaos-plan`, a misspelling.
    for (flag, value) in [
        ("--shard", "hotels"),
        ("--chaos-plan", "7"),
        ("--replica", "1"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_deptree"))
            .args(["gateway", "--data", "hotels=data/hotels.csv", flag, value])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                break status;
            }
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("`gateway {flag}` started a gateway instead of failing");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().expect("stderr"), &mut stderr)
            .expect("read stderr");
        assert_eq!(status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains("usage:") && stderr.contains(flag),
            "{flag}: {stderr}"
        );
        if flag == "--shard" {
            assert!(stderr.contains("--replicas"), "{stderr}");
        }
    }
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
