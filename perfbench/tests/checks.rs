//! The benchmark binary on tiny seeded inputs: a clean run passes its
//! correctness checks and exits 0; a run whose reference value is tampered
//! with must fail a check, report it, and exit non-zero.

use std::process::Command;

fn run(args: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args.split_whitespace())
        .output()
        .expect("run perfbench");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or("")
}

#[test]
fn clean_tiny_runs_pass_their_checks() {
    for workload in ["nuc-mc3-local", "nuc-mc3-remote"] {
        let (code, out) = run(&format!(
            "--workload {workload} --seed 4 --seconds 1 --trace 0 --tiny"
        ));
        assert_eq!(code, Some(0), "{workload}:\n{out}");
        let result = last_line(&out);
        assert!(result.starts_with("{\"correct\":true,"), "{result}");
        assert!(result.contains("\"failed\":0,"), "{result}");
        for metric in [
            "evals_per_s",
            "eval_p99_ms",
            "success_rate",
            "setup_s",
            "peak_rss_mb",
        ] {
            assert!(
                result.contains(&format!("\"{metric}\":")),
                "{metric} missing"
            );
        }
    }
}

#[test]
fn tampered_reference_fails_the_run() {
    for workload in ["nuc-mc3-local", "codon-batch-pool"] {
        let (code, out) = run(&format!(
            "--workload {workload} --seed 4 --seconds 1 --trace 0 --tiny --tamper"
        ));
        assert_eq!(code, Some(1), "{workload}:\n{out}");
        assert!(out.contains("check failed:"), "{out}");
        let result = last_line(&out);
        assert!(result.starts_with("{\"correct\":false,"), "{result}");
        assert!(!result.contains("\"failed\":0,"), "{result}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let (code, out) = run("--workload nope --seed 1 --seconds 1 --trace 0");
    assert_eq!(code, Some(2));
    assert!(out.is_empty(), "{out}");
}
