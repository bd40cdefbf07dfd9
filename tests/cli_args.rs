//! Command-line contract of `gnb-overlap-cli`: a value that does not parse
//! or is out of range is a usage error (a message and exit status 2, never
//! a panic or a silent run), and a planted overlap is found exactly.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gnb-overlap-cli"))
        .args(args)
        .output()
        .expect("the CLI binary runs")
}

/// Each `args` must exit with status 2 and name `flag` on stderr.
fn assert_usage_errors(flag: &str, cases: &[&[&str]]) {
    for args in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed records");
    }
}

#[test]
fn k_outside_1_to_32_is_a_usage_error() {
    assert_usage_errors(
        "--k",
        &[
            &["--demo", "--k", "40"],
            &["--k", "0"],
            &["--k", "abc"],
            &["--k"],
        ],
    );
}

#[test]
fn non_integer_min_score_is_a_usage_error() {
    assert_usage_errors("--min-score", &[&["--min-score", "x"]]);
}

#[test]
fn negative_min_overlap_is_a_usage_error() {
    assert_usage_errors("--min-overlap", &[&["--min-overlap", "-3"]]);
}

#[test]
fn coverage_must_be_finite_and_positive() {
    assert_usage_errors(
        "--coverage",
        &[
            &["--coverage", "0"],
            &["--coverage", "-5"],
            &["--coverage", "inf"],
            &["--coverage", "nan"],
        ],
    );
}

#[test]
fn error_rate_must_be_finite_in_0_to_1() {
    assert_usage_errors(
        "--error-rate",
        &[
            &["--error-rate", "1.5"],
            &["--error-rate", "1"],
            &["--error-rate", "-0.1"],
            &["--error-rate", "nan"],
        ],
    );
}

#[test]
fn help_lists_the_ranges() {
    let out = cli(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    for range in ["1..=32", "> 0", "[0, 1)"] {
        assert!(help.contains(range), "--help must state {range}: {help}");
    }
}

/// Two reads that share a 300 bp block (the suffix of `a` is the prefix of
/// `b`) and one unrelated read: exactly one dovetail at the planted
/// coordinates.
#[test]
fn planted_dovetail_is_the_only_overlap() {
    let mut state = 12_345u64;
    let mut bases = |n: usize| -> String {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ['A', 'C', 'G', 'T'][(state >> 62) as usize]
            })
            .collect()
    };
    let (head, shared, tail, other) = (bases(400), bases(300), bases(400), bases(700));
    let fasta = format!(">a\n{head}{shared}\n>b\n{shared}{tail}\n>c\n{other}\n");
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args_planted_dovetail.fa");
    std::fs::write(path, fasta).expect("write the test FASTA");

    let out = cli(&[
        path,
        "--coverage",
        "2",
        "--min-score",
        "100",
        "--min-overlap",
        "100",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 records");
    let lines: Vec<Vec<&str>> = stdout.lines().map(|l| l.split('\t').collect()).collect();
    assert_eq!(lines.len(), 1, "exactly one overlap: {stdout}");
    // qname qlen qstart qend strand tname tlen tstart tend score class
    assert_eq!(
        lines[0],
        [
            "read0",
            "700",
            "400",
            "700",
            "+",
            "read1",
            "700",
            "0",
            "300",
            "300",
            "DovetailAB"
        ]
    );
}
