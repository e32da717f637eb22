//! The `repro` command line: a command it does not know, a second command
//! beside one that runs alone, or an operand it cannot use is an error
//! that names every command it does know, never a silent no-op; an output
//! it cannot write is an error that names the output.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

/// Every command `repro` accepts.
const COMMANDS: &str = "all fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig15 fig18 \
    fig19 fig20 fig21 fig22 scorecard eight-plus calibrate describe report robustness slack \
    mechanism overhead ablations occupancy dump sweeps prediction suite";

/// `repro args` must exit 2 having printed nothing but the full usage.
fn assert_usage_error(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}");
    assert!(out.stdout.is_empty(), "repro {args:?} printed a result");
    let usage = String::from_utf8_lossy(&out.stderr);
    let words: Vec<&str> = usage.split_whitespace().collect();
    for command in COMMANDS.split_whitespace() {
        assert!(
            words.contains(&command),
            "repro {args:?}: usage omits `{command}`:\n{usage}"
        );
    }
}

#[test]
fn unknown_commands_exit_2_with_the_full_usage() {
    for args in [
        &["ablation"][..],
        &["fig99"],
        &["fig3", "fig99"],
        &["--scale", "test"],
        &[],
    ] {
        assert_usage_error(args);
    }
}

/// Figures and `all` combine into one pass; every other command runs
/// alone, so a second command is an error rather than silently skipped.
#[test]
fn a_second_command_exits_2_with_the_full_usage() {
    for args in [
        &["describe", "scorecard"][..],
        &["scorecard", "describe"],
        &["describe", "describe"],
        &["all", "slack"],
        &["fig3", "describe"],
        &["dump", "swim", "shared", "4", "describe"],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn a_known_command_still_runs() {
    let out = repro(&["describe"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("swim"));
}

#[test]
fn an_unknown_benchmark_operand_exits_2_with_the_full_usage() {
    assert_usage_error(&["dump", "nope", "shared"]);
    assert_usage_error(&["occupancy", "nope"]);
}

#[test]
fn an_unknown_dump_scheme_exits_2_with_the_full_usage() {
    assert_usage_error(&["dump", "ft", "bogus"]);
}

#[test]
fn a_non_numeric_dump_cores_operand_exits_2_with_the_full_usage() {
    assert_usage_error(&["dump", "ft", "shared", "four"]);
}

/// `results` is a plain file here, so no table can be saved: the run must
/// fail and say where, not print its tables and exit 0.
#[test]
fn an_unwritable_results_directory_fails_naming_it() {
    let dir = std::env::temp_dir().join(format!("icp-cli-results-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp directory");
    std::fs::write(dir.join("results"), "not a directory").expect("results file");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig2", "--scale", "test"])
        .current_dir(&dir)
        .output()
        .expect("the repro binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "repro fig2 succeeded without writing anything");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("results"), "the error names the output:\n{stderr}");
}
