//! `repro`'s exit status, end to end through the binary: 0 when every
//! check passed, 1 when a check or a CSV write failed, 2 on a usage error.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_failed_csv_write_exits_1_with_a_check_naming_the_csv() {
    // `--out` under a regular file: the directory can never be created.
    let file = std::env::temp_dir().join(format!("repro-exit-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let out_dir = file.join("out");
    let out = repro(&[
        "--users",
        "4",
        "--weeks",
        "2",
        "--out",
        out_dir.to_str().unwrap(),
        "tab2",
    ]);
    let _ = std::fs::remove_file(&file);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.lines().any(|l| l.starts_with("check write.tab2.csv: FAILED: ")),
        "{err}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("== Table 2"));
}

#[test]
fn a_clean_run_exits_0() {
    let out = repro(&["--users", "4", "--weeks", "2", "tab2"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("FAILED"), "{err}");
}

#[test]
fn an_unknown_experiment_exits_2_naming_the_valid_ones() {
    let out = repro(&["--users", "2", "--weeks", "2", "fig6"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown experiment fig6"), "{err}");
    assert!(err.contains("fig5") && err.contains("tab3"), "{err}");
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn users_below_an_experiments_floor_exit_2_naming_it() {
    let out = repro(&["--users", "16", "all"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("--users 16 is below the 20 users validate needs"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
    let out = repro(&["--users", "29", "--weeks", "2", "seeds"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("below the 30 users seeds needs"), "{err}");
}
