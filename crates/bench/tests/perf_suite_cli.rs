//! `perf_suite` must never let a partial (`--filter`) run overwrite the
//! default `BENCH_sim.json` trajectory.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory under Cargo's per-target test tmpdir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn filtered_run_without_out_refuses_and_leaves_trajectory_untouched() {
    let dir = scratch_dir("perf_suite_filter_no_out");
    let trajectory = dir.join("BENCH_sim.json");
    let sentinel = "{ \"full matrix\": true }\n";
    std::fs::write(&trajectory, sentinel).expect("write sentinel");

    let out = Command::new(env!("CARGO_BIN_EXE_perf_suite"))
        .args(["--filter", "sim/"])
        .current_dir(&dir)
        .output()
        .expect("run perf_suite");

    assert!(
        !out.status.success(),
        "a filtered run without --out must fail"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("BENCH_sim.json"),
        "the error must name the protected file: {stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(&trajectory).expect("read trajectory"),
        sentinel,
        "the trajectory file must be left untouched"
    );
    assert_eq!(
        std::fs::read_dir(&dir).expect("list scratch dir").count(),
        1,
        "nothing else may be written either"
    );
}
