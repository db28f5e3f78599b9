//! Thread-count determinism contract, driven through the real binary.
//!
//! The parallel compute layer writes every result into a pre-sized
//! slot keyed by item index, so the artifacts a run produces must be
//! byte-for-byte independent of `--threads`. This golden test pins
//! that contract at the outermost observable boundary: the human
//! stdout, the `--json` report, and every checkpoint file on disk
//! must be identical between `--threads 1` and `--threads 8`.
//!
//! Subprocesses, not library calls: the metrics registry is
//! process-global and each invocation must see a fresh process.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_towerlens-cli");

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("towerlens-thr-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(args: &[&str]) -> Vec<u8> {
    let out = Command::new(BIN).args(args).output().expect("spawn CLI");
    assert!(
        out.status.success(),
        "`towerlens-cli {}` failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Blanks the wall-clock fields (`total_ms`, `wall_ms`) of a `--json`
/// report: those are nondeterministic between any two runs, threads or
/// not. Everything else — stage names, waves, statuses, attempt
/// counts, cardinality cards, warnings — must match exactly.
fn scrub_timings(report: &[u8]) -> String {
    let mut out = String::from_utf8(report.to_vec()).expect("utf8 report");
    for key in ["\"total_ms\":", "\"wall_ms\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let end = start
                + out[start..]
                    .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                    .expect("number terminator");
            out.replace_range(start..end, "?");
            from = start;
        }
    }
    out
}

/// Checkpoint file names in a store directory, sorted.
fn ckpt_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().and_then(|e| e.to_str()) == Some("ckpt"))
                .then(|| path.file_name().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    names.sort();
    names
}

#[test]
fn analyze_artifacts_are_byte_identical_across_thread_counts() {
    let dir = temp("analyze");
    let data = dir.join("data");
    run_ok(&[
        "gen",
        "--out",
        data.to_str().unwrap(),
        "--seed",
        "11",
        "--towers",
        "40",
        "--agents",
        "300",
        "--days",
        "7",
    ]);

    struct Run {
        stdout: Vec<u8>,
        json: Vec<u8>,
        ckpt: PathBuf,
    }
    let runs: Vec<Run> = ["1", "8"]
        .iter()
        .map(|threads| {
            let ckpt = dir.join(format!("ckpt-t{threads}"));
            let stdout = run_ok(&[
                "analyze",
                "--dir",
                data.to_str().unwrap(),
                "--threads",
                threads,
                "--resume",
                ckpt.to_str().unwrap(),
            ]);
            // A fresh process for the JSON report, so the second run
            // exercises the checkpoint reload path as well.
            let json = run_ok(&[
                "analyze",
                "--dir",
                data.to_str().unwrap(),
                "--threads",
                threads,
                "--resume",
                ckpt.to_str().unwrap(),
                "--json",
            ]);
            Run { stdout, json, ckpt }
        })
        .collect();

    assert_eq!(
        String::from_utf8_lossy(&runs[0].stdout),
        String::from_utf8_lossy(&runs[1].stdout),
        "human stdout differs between --threads 1 and --threads 8"
    );
    assert_eq!(
        scrub_timings(&runs[0].json),
        scrub_timings(&runs[1].json),
        "--json report differs between --threads 1 and --threads 8"
    );

    let names = ckpt_files(&runs[0].ckpt);
    assert!(!names.is_empty(), "expected checkpoint files");
    assert_eq!(
        names,
        ckpt_files(&runs[1].ckpt),
        "checkpoint inventories differ"
    );
    for name in &names {
        let a = std::fs::read(runs[0].ckpt.join(name)).expect("read t1 checkpoint");
        let b = std::fs::read(runs[1].ckpt.join(name)).expect("read t8 checkpoint");
        assert_eq!(a, b, "checkpoint `{name}` differs across thread counts");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spectral_study_artifacts_are_byte_identical_across_thread_counts() {
    // The matrix-free path: `--feature-space spectral` projects every
    // tower onto its six principal components (parallel, sharded
    // Goertzel tallies) before clustering through the exact-pruning
    // spatial index. Both the projection and the serial clustering must be
    // exactly thread-invariant — stdout and every checkpoint byte.
    let dir = temp("spectral-study");
    struct Run {
        stdout: Vec<u8>,
        ckpt: PathBuf,
    }
    let runs: Vec<Run> = ["1", "2", "8"]
        .iter()
        .map(|threads| {
            let ckpt = dir.join(format!("ckpt-t{threads}"));
            let stdout = run_ok(&[
                "study",
                "--scale",
                "tiny",
                "--seed",
                "42",
                "--feature-space",
                "spectral",
                "--threads",
                threads,
                "--resume",
                ckpt.to_str().unwrap(),
            ]);
            Run { stdout, ckpt }
        })
        .collect();
    for other in &runs[1..] {
        assert_eq!(
            String::from_utf8_lossy(&runs[0].stdout),
            String::from_utf8_lossy(&other.stdout),
            "spectral study stdout differs across thread counts"
        );
    }
    let names = ckpt_files(&runs[0].ckpt);
    assert!(!names.is_empty(), "expected checkpoint files");
    for other in &runs[1..] {
        assert_eq!(names, ckpt_files(&other.ckpt), "checkpoint inventories");
        for name in &names {
            let a = std::fs::read(runs[0].ckpt.join(name)).expect("read t1 checkpoint");
            let b = std::fs::read(other.ckpt.join(name)).expect("read checkpoint");
            assert_eq!(a, b, "checkpoint `{name}` differs across thread counts");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn study_stdout_is_byte_identical_across_thread_counts() {
    let outputs: Vec<Vec<u8>> = ["1", "2", "8"]
        .iter()
        .map(|threads| {
            run_ok(&[
                "study",
                "--scale",
                "tiny",
                "--seed",
                "42",
                "--threads",
                threads,
            ])
        })
        .collect();
    assert_eq!(
        String::from_utf8_lossy(&outputs[0]),
        String::from_utf8_lossy(&outputs[1]),
        "study stdout differs between 1 and 2 threads"
    );
    assert_eq!(
        String::from_utf8_lossy(&outputs[0]),
        String::from_utf8_lossy(&outputs[2]),
        "study stdout differs between 1 and 8 threads"
    );
}
