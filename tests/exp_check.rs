//! `exp check` end to end: the `exp` binary re-runs E20 (closed-form
//! carbon accounting, no training) against a scratch directory and must
//! accept the committed baseline byte for byte, reject a one-digit edit
//! with exit 3 while printing the edited line, and fail a directory
//! without the file with exit 1. E20's rendered report is pinned too,
//! so a change to the table renderer or to a column list shows up here.

use std::path::{Path, PathBuf};
use std::process::Command;

const COMMITTED: &str = include_str!("../BENCH_E20.json");
const RENDERED: &str = include_str!("golden/e20.txt");

fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exp_check_{}_{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `exp check --against <dir> e20`; returns the exit code and stdout.
fn check(dir: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["check", "--against"])
        .arg(dir)
        .arg("e20")
        .output()
        .expect("run exp");
    std::fs::remove_dir_all(dir).ok();
    let code = out.status.code().expect("exp exits with a code");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn a_copy_of_the_committed_baseline_passes() {
    let dir = scratch("copy");
    std::fs::write(dir.join("BENCH_E20.json"), COMMITTED).unwrap();
    let (code, stdout) = check(&dir);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    assert!(stdout.contains("e20: ok"), "stdout:\n{stdout}");
}

#[test]
fn one_changed_digit_exits_3_and_prints_the_metric() {
    let line = COMMITTED
        .lines()
        .find(|l| l.trim_start().starts_with("\"r"))
        .expect("a metric line");
    let at = line.rfind(|c: char| c.is_ascii_digit()).unwrap();
    let digit = line.as_bytes()[at] - b'0';
    let edited = format!("{}{}{}", &line[..at], (digit + 1) % 10, &line[at + 1..]);
    let dir = scratch("edited");
    let file = COMMITTED.replacen(line, &edited, 1);
    std::fs::write(dir.join("BENCH_E20.json"), file).unwrap();
    let (code, stdout) = check(&dir);
    assert_eq!(code, 3, "stdout:\n{stdout}");
    assert!(stdout.contains(&format!("- {edited}")), "stdout:\n{stdout}");
    assert!(stdout.contains(&format!("+ {line}")), "stdout:\n{stdout}");
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with(['-', '+'])).count(),
        2
    );
}

#[test]
fn a_missing_baseline_exits_1() {
    let (code, stdout) = check(&scratch("missing"));
    assert_eq!(code, 1, "stdout:\n{stdout}");
}

#[test]
fn e20_renders_the_committed_tables() {
    let result = dl_bench::run_experiment("e20").expect("e20 runs");
    assert_eq!(result.render(), RENDERED);
}
