//! `perf_suite` — the machine-readable performance trajectory.
//!
//! Runs the fixed perf scenario matrix (`sfs_bench::perf::suite`): the
//! end-to-end simulations (SFS / CFS / 4-host cluster / azure replay /
//! SFS on the SMP-enabled machine) at a pinned seed and request count,
//! plus the hot-loop microbenchmarks (CFS pick, SFS dispatch, SMP balance
//! tick). Prints a human table and writes the schema-versioned
//! `BENCH_sim.json`.
//!
//! ```text
//! perf_suite [--out PATH] [--check BASELINE.json] [--tolerance RATIO]
//!            [--filter SUBSTR]
//! ```
//!
//! * `--out` — where to write the JSON report (default `BENCH_sim.json`,
//!   the full-matrix trajectory; a `--filter` run must name its own file).
//! * `--check` — additionally diff this run against a baseline report and
//!   exit non-zero if any scenario's median regressed past the band.
//! * `--tolerance` — the band for `--check` as a ratio (default 2.0; CI
//!   uses the default wide band, the strict local workflow uses ~1.15).
//! * `--filter` — run only scenarios whose name contains the substring
//!   (a filtered run still writes JSON, so it can seed focused diffs). It
//!   requires an explicit `--out`: a partial run never overwrites the
//!   default `BENCH_sim.json`.
//!
//! Scale: `SFS_PERF_REQUESTS` (default 2000) sizes the `sim/` scenarios;
//! `SFS_BENCH_SEED` pins the workloads. Microbenchmarks are fixed-size so
//! their numbers are comparable across scales.

use std::process::ExitCode;

use sfs_bench::perf::{self, BenchReport};
use sfs_bench::timebench::fmt_ns;

fn perf_requests() -> usize {
    let v = std::env::var("SFS_PERF_REQUESTS").ok();
    sfs_bench::parse_env_override("SFS_PERF_REQUESTS", v.as_deref(), 2_000)
}

/// Where an unfiltered run writes its report.
const DEFAULT_OUT: &str = "BENCH_sim.json";

struct Args {
    /// `None` writes [`DEFAULT_OUT`].
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
    filter: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        check: None,
        tolerance: 2.0,
        filter: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                if args.tolerance < 1.0 {
                    return Err("--tolerance is a ratio >= 1.0".into());
                }
            }
            "--filter" => args.filter = Some(value("--filter")?),
            other => return Err(format!("unknown argument {other:?} (see --help in docs)")),
        }
    }
    if args.filter.is_some() && args.out.is_none() {
        return Err(format!(
            "--filter needs an explicit --out: {DEFAULT_OUT} holds the full-matrix \
             trajectory and a partial run must not overwrite it"
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n = perf_requests();
    let seed = sfs_bench::seed();
    println!("== perf_suite: simulator performance matrix");
    println!("   requests={n} seed={seed:#x} (SFS_PERF_REQUESTS / SFS_BENCH_SEED to override)");
    println!(
        "   large-run scale={} (SFS_PERF_LARGE_REQUESTS to override)",
        perf::large_requests()
    );
    println!();
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>16}",
        "scenario", "median/item", "p10", "p90", "throughput"
    );

    let mut scenarios = perf::suite(n, seed);
    if let Some(ref pat) = args.filter {
        scenarios.retain(|s| s.name.contains(pat.as_str()));
        if scenarios.is_empty() {
            eprintln!("perf_suite: no scenario matches filter {pat:?}");
            return ExitCode::FAILURE;
        }
    }
    let report = perf::run_suite(scenarios, n, seed, |name, rec| {
        println!(
            "{:<24} {:>12} {:>12} {:>12} {:>13.0}/s",
            name,
            fmt_ns(rec.median_ns_per_req),
            fmt_ns(rec.p10_ns_per_req),
            fmt_ns(rec.p90_ns_per_req),
            rec.throughput_rps,
        );
    });

    if let Some(bytes) = sfs_bench::peak_rss_bytes() {
        // Peak-memory note: the whole matrix, the streaming large-run
        // scenario included, inside one process high-water mark.
        println!(
            "\npeak RSS {:.1} MiB (VmHWM, whole suite incl. sim/sfs_azure_10m)",
            bytes as f64 / (1024.0 * 1024.0)
        );
    }

    let out = args.out.as_deref().unwrap_or(DEFAULT_OUT);
    match std::fs::write(out, report.to_json()) {
        Ok(()) => println!("\n[saved {out}]"),
        Err(e) => {
            eprintln!("perf_suite: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(ref baseline_path) = args.check {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perf_suite: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match BenchReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perf_suite: bad baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if baseline.requests != report.requests {
            println!(
                "[note] baseline ran at requests={}, this run at {} — \
                 sim/ scenarios are compared across scales",
                baseline.requests, report.requests
            );
        }
        if baseline.seed != report.seed {
            println!(
                "[note] baseline ran at seed={}, this run at {} — \
                 sim/ scenarios are compared across different workloads",
                baseline.seed, report.seed
            );
        }
        println!(
            "\n-- check vs {baseline_path} (band {:.2}x) --",
            args.tolerance
        );
        let cmp = perf::compare(&report, &baseline, args.tolerance);
        for line in &cmp.lines {
            println!("{line}");
        }
        if !cmp.regressions.is_empty() {
            eprintln!("\nperf regressions past the {:.2}x band:", args.tolerance);
            for r in &cmp.regressions {
                eprintln!("  {r}");
            }
            return ExitCode::FAILURE;
        }
        println!("\nno regression past the {:.2}x band", args.tolerance);
    }
    ExitCode::SUCCESS
}
