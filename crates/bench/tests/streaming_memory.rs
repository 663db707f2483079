//! Memory gate for [`Sim::run_streaming`] on busy hosts.
//!
//! A streaming run must hold memory in proportion to the live pid window,
//! not to the request count, even when the host never goes idle. This
//! file streams two runs and checks the process's peak resident set
//! (`VmHWM`) against a fixed cap:
//!
//! * the `stream_io_smp` benchmark shape (32 cores with SMP balancing,
//!   kernel CFS, an I/O-heavy OpenLambda mix at 90 % duration load), whose
//!   host is never idle, so memory stays flat only if finished tasks are
//!   reaped while others are live;
//! * SFS over `azure_sampled` on 4 cores, which must also keep the
//!   controller's per-request slab to the requests it tracks at once.
//!
//! A simulator that kept one task record (plus one runqueue position per
//! core, plus one SFS slab entry) per request ever spawned peaks at several
//! times the cap. `VmHWM` is per process, so this is the only test in this
//! file: no other test's allocations can raise it.

use sfs_core::{KernelOnly, OutcomeSummary, SfsConfig, SfsController, Sim};
use sfs_sched::{MachineParams, Policy, SmpParams};
use sfs_simcore::SimDuration;
use sfs_workload::WorkloadSpec;

/// Peak resident set the two streamed runs may reach, test harness
/// included.
const CAP_MIB: u64 = 8;

/// Requests per streamed run.
const REQUESTS: usize = 50_000;

#[test]
fn streaming_peak_rss_stays_under_cap_on_busy_hosts() {
    if sfs_bench::peak_rss_bytes().is_none() {
        eprintln!("note: /proc/self/status has no VmHWM here; streaming memory gate skipped");
        return;
    }

    let cores = 32;
    let smp = MachineParams::linux(cores).with_smp(SmpParams::balanced(
        SimDuration::from_millis(4),
        SimDuration::from_micros(30),
        SimDuration::from_micros(15),
    ));
    let io_smp = WorkloadSpec {
        io_fraction: 0.75,
        ..WorkloadSpec::openlambda(REQUESTS, 7919)
    }
    .with_duration_load(cores, 0.9);
    let mut summary = OutcomeSummary::new();
    let run = Sim::on(smp)
        .controller(KernelOnly(Policy::NORMAL))
        .run_streaming(io_smp.stream(), |o| summary.observe(&o));
    assert_eq!(run.requests, REQUESTS as u64);

    let azure = WorkloadSpec::azure_sampled(REQUESTS, 7919).with_load(4, 0.9);
    let mut summary = OutcomeSummary::new();
    let run = Sim::on(MachineParams::linux(4))
        .controller(SfsController::new(SfsConfig::new(4).without_series()))
        .run_streaming(azure.stream(), |o| summary.observe(&o));
    assert_eq!(run.requests, REQUESTS as u64);

    let peak_mib = sfs_bench::peak_rss_bytes().expect("VmHWM read above") as f64 / (1 << 20) as f64;
    eprintln!("streaming peak RSS: {peak_mib:.1} MiB (cap {CAP_MIB} MiB)");
    assert!(
        peak_mib <= CAP_MIB as f64,
        "streaming peak RSS {peak_mib:.1} MiB exceeds the {CAP_MIB} MiB cap: \
         memory is growing with the request count"
    );
}
