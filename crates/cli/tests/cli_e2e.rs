//! End-to-end test of the compiled `cats-cli` binary: the four-subcommand
//! pipeline run through real processes, files and stdio.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cats-cli")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cats_cli_e2e_{}_{name}", std::process::id()))
}

#[test]
fn four_command_pipeline_through_the_binary() {
    let labeled = tmp("labeled.jsonl");
    let eval = tmp("eval.jsonl");
    let model = tmp("model.cats");
    let reports = tmp("reports.jsonl");

    // generate (training data)
    let out = Command::new(bin())
        .args(["generate", "--scale", "0.003", "--seed", "3"])
        .stderr(Stdio::piped())
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::write(&labeled, &out.stdout).unwrap();
    assert!(out.stdout.len() > 1_000);

    // generate (evaluation data, different seed)
    let out = Command::new(bin())
        .args(["generate", "--scale", "0.003", "--seed", "4"])
        .output()
        .expect("run generate 2");
    assert!(out.status.success());
    std::fs::write(&eval, &out.stdout).unwrap();

    // train
    let out = Command::new(bin())
        .args(["train", "--input", labeled.to_str().unwrap(), "--model", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    // detect
    let out = Command::new(bin())
        .args(["detect", "--model", model.to_str().unwrap(), "--input", eval.to_str().unwrap()])
        .output()
        .expect("run detect");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::write(&reports, &out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("reported:"), "{stderr}");

    // analyze
    let out = Command::new(bin())
        .args([
            "analyze",
            "--reports",
            reports.to_str().unwrap(),
            "--labeled",
            eval.to_str().unwrap(),
        ])
        .output()
        .expect("run analyze");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("P="), "{stdout}");

    for p in [labeled, eval, model, reports] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = Command::new(bin()).arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_required_flag_is_reported() {
    let out = Command::new(bin()).args(["train", "--input", "/nonexistent"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}

/// `serve` with `flag` set to 0 stops with a usage error naming it,
/// before it loads a model.
fn assert_zero_is_a_usage_error(flag: &str) {
    let out = Command::new(bin())
        .args(["serve", "--model", "/nonexistent", "--addr", "127.0.0.1:0", flag, "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{flag} 0 is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("error: {flag} must be at least 1")), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn serve_rejects_a_zero_max_batch() {
    assert_zero_is_a_usage_error("--max-batch");
}

#[test]
fn serve_rejects_a_zero_queue() {
    assert_zero_is_a_usage_error("--queue");
}
