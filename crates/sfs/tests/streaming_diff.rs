//! Differential suite: [`Sim::run_streaming`] against the classic
//! [`Sim::run`] replay path.
//!
//! Streaming mode changes *retention*, never *behaviour*: requests are
//! pulled lazily from the workload stream, outcome records go to a sink
//! instead of a vector, and the machine drops completion records. Both
//! paths reap finished tasks from the machine's task table as they go,
//! busy host or idle, without renumbering pids. Every outcome and
//! every scalar counter must nevertheless be bit-identical to the classic
//! run over the same workload — this suite locks that equivalence across
//! policies, workload families, and a host that never goes idle.

use sfs_core::{
    Controller, KernelOnly, OutcomeSummary, RequestOutcome, RunOutcome, SfsConfig, SfsController,
    Sim, StreamRun,
};
use sfs_sched::{MachineParams, SmpParams};
use sfs_simcore::{SimDuration, SimTime};
use sfs_workload::WorkloadSpec;

fn assert_outcomes_identical(classic: &[RequestOutcome], streamed: &mut [RequestOutcome]) {
    streamed.sort_by_key(|o| o.id);
    assert_eq!(classic.len(), streamed.len());
    for (c, s) in classic.iter().zip(streamed.iter()) {
        assert_eq!(c.id, s.id);
        assert_eq!(c.arrival, s.arrival);
        assert_eq!(c.finished, s.finished, "req {}", c.id);
        assert_eq!(c.turnaround, s.turnaround);
        assert_eq!(c.ideal, s.ideal);
        assert_eq!(c.cpu_demand, s.cpu_demand);
        assert_eq!(c.rte.to_bits(), s.rte.to_bits());
        assert_eq!(c.ctx_switches, s.ctx_switches);
        assert_eq!(c.migrations, s.migrations);
        assert_eq!(c.queue_delay, s.queue_delay);
        assert_eq!(c.demoted, s.demoted);
        assert_eq!(c.offloaded, s.offloaded);
        assert_eq!(c.filter_rounds, s.filter_rounds);
        assert_eq!(c.io_blocks, s.io_blocks);
    }
}

fn diff_sfs(spec: &WorkloadSpec, cores: usize) {
    let workload = spec.generate();
    let classic = Sim::on(MachineParams::linux(cores))
        .workload(&workload)
        .controller(SfsController::new(SfsConfig::new(cores)))
        .run();

    let mut streamed: Vec<RequestOutcome> = Vec::new();
    let run = Sim::on(MachineParams::linux(cores))
        .controller(SfsController::new(SfsConfig::new(cores).without_series()))
        .run_streaming(spec.stream(), |o| streamed.push(o));

    assert_outcomes_identical(&classic.outcomes, &mut streamed);
    assert_eq!(run.requests as usize, classic.outcomes.len());
    assert_eq!(run.sched_actions, classic.sched_actions);
    assert_eq!(run.machine_ctx_switches, classic.machine_ctx_switches);
    assert_eq!(run.sim_span, classic.sim_span);
    assert_eq!(run.telemetry.polls, classic.telemetry.polls);
    assert_eq!(run.telemetry.polled_tasks, classic.telemetry.polled_tasks);
    assert_eq!(run.telemetry.offloaded, classic.telemetry.offloaded);
    assert_eq!(run.telemetry.demoted, classic.telemetry.demoted);
    assert_eq!(run.telemetry.slice_recalcs, classic.telemetry.slice_recalcs);
    // without_series: the streaming run must not have accumulated
    // per-request series.
    assert!(run.telemetry.queue_delay_series.is_empty());
    assert!(run.telemetry.slice_timeline.is_empty());
}

#[test]
fn sfs_streaming_matches_classic_azure() {
    // Long enough past the 1024-task reaping threshold that the task
    // table is drained and must prove itself transparent.
    diff_sfs(&WorkloadSpec::azure_sampled(3_000, 7).with_load(4, 0.9), 4);
}

#[test]
fn sfs_streaming_matches_classic_bursty_replay() {
    diff_sfs(&WorkloadSpec::azure_replay(2_500, 11), 4);
}

#[test]
fn sfs_streaming_matches_classic_io_and_cold_families() {
    let mut io = WorkloadSpec::azure_sampled(1_500, 13).with_load(4, 0.8);
    io.io_fraction = 0.75;
    diff_sfs(&io, 4);
    diff_sfs(
        &WorkloadSpec::cold_start_mix(1_500, 17).with_load(4, 0.8),
        4,
    );
}

/// True iff the machine is never empty between the first arrival and the
/// last completion: every request arrives no later than the latest finish
/// among the requests before it. (An arrival at the very instant of that
/// finish is spawned in the same step, so the host is not idle then.)
fn never_idle(outcomes: &[RequestOutcome]) -> bool {
    let mut by_arrival: Vec<&RequestOutcome> = outcomes.iter().collect();
    by_arrival.sort_by_key(|o| (o.arrival, o.id));
    let mut busy_until = SimTime::ZERO;
    for (i, o) in by_arrival.iter().enumerate() {
        if i > 0 && o.arrival > busy_until {
            return false;
        }
        busy_until = busy_until.max(o.finished);
    }
    true
}

/// Replay `spec` and stream it, both traced, and require bit-identical
/// outcomes, counters and schedule traces.
fn diff_traced(
    params: MachineParams,
    spec: &WorkloadSpec,
    controller: impl Fn() -> Box<dyn Controller>,
) -> RunOutcome {
    let workload = spec.generate();
    let classic = Sim::on(params)
        .workload(&workload)
        .boxed_controller(controller())
        .tracing()
        .run();
    let mut streamed = Vec::new();
    let run: StreamRun = Sim::on(params)
        .boxed_controller(controller())
        .tracing()
        .run_streaming(spec.stream(), |o| streamed.push(o));
    assert_outcomes_identical(&classic.outcomes, &mut streamed);
    assert_eq!(run.sched_actions, classic.sched_actions);
    assert_eq!(run.machine_ctx_switches, classic.machine_ctx_switches);
    assert_eq!(run.sim_span, classic.sim_span);
    assert_eq!(run.telemetry.polls, classic.telemetry.polls);
    assert_eq!(run.telemetry.polled_tasks, classic.telemetry.polled_tasks);
    assert_eq!(run.telemetry.offloaded, classic.telemetry.offloaded);
    assert_eq!(run.telemetry.demoted, classic.telemetry.demoted);
    // Pids are stable, so a traced stream reaps tasks yet records the very
    // same segments as the replay.
    assert_eq!(
        run.schedule_trace.expect("streamed trace").segments(),
        classic
            .schedule_trace
            .as_ref()
            .expect("classic trace")
            .segments()
    );
    classic
}

#[test]
fn busy_smp_host_streaming_matches_classic() {
    // The shape of the `stream_io_smp` benchmark workload: 32 cores with
    // SMP balancing, an I/O-heavy OpenLambda mix at 90 % duration load.
    // At this size the host never goes idle (asserted below), so every
    // reaping happens with tasks live and none could wait for quiescence.
    let cores = 32;
    let params = MachineParams::linux(cores).with_smp(SmpParams::balanced(
        SimDuration::from_millis(4),
        SimDuration::from_micros(30),
        SimDuration::from_micros(15),
    ));
    let spec = WorkloadSpec {
        io_fraction: 0.75,
        ..WorkloadSpec::openlambda(4_000, 7919)
    }
    .with_duration_load(cores, 0.9);

    let cfs = diff_traced(params, &spec, || {
        Box::new(KernelOnly(sfs_sched::Policy::NORMAL))
    });
    assert_eq!(cfs.outcomes.len(), 4_000);
    assert!(never_idle(&cfs.outcomes), "the CFS host went idle");

    let sfs = diff_traced(params, &spec, || {
        Box::new(SfsController::new(SfsConfig::new(cores).without_series()))
    });
    assert_eq!(sfs.outcomes.len(), 4_000);
    assert!(never_idle(&sfs.outcomes), "the SFS host went idle");
}

#[test]
fn kernel_only_streaming_matches_classic() {
    let spec = WorkloadSpec::azure_sampled(2_000, 19).with_load(4, 0.9);
    let workload = spec.generate();
    let classic = Sim::on(MachineParams::linux(4))
        .workload(&workload)
        .controller(KernelOnly(sfs_sched::Policy::NORMAL))
        .run();
    let mut streamed = Vec::new();
    let run = Sim::on(MachineParams::linux(4))
        .controller(KernelOnly(sfs_sched::Policy::NORMAL))
        .run_streaming(spec.stream(), |o| streamed.push(o));
    assert_outcomes_identical(&classic.outcomes, &mut streamed);
    assert_eq!(run.machine_ctx_switches, classic.machine_ctx_switches);
    assert_eq!(run.sim_span, classic.sim_span);
}

#[test]
fn outcome_summary_sink_matches_exact_percentiles() {
    // The full O(1)-memory reporting path: stream → OutcomeSummary, then
    // compare its sketched percentiles against exact Samples over the
    // classic run's outcome vector.
    let spec = WorkloadSpec::azure_sampled(4_000, 23).with_load(4, 0.9);
    let workload = spec.generate();
    let classic = Sim::on(MachineParams::linux(4))
        .workload(&workload)
        .controller(SfsController::new(SfsConfig::new(4)))
        .run();
    let mut summary = OutcomeSummary::new();
    let run = Sim::on(MachineParams::linux(4))
        .controller(SfsController::new(SfsConfig::new(4).without_series()))
        .run_streaming(spec.stream(), |o| summary.observe(&o));
    assert_eq!(summary.requests, run.requests);

    let mut exact = sfs_simcore::Samples::from_vec(
        classic
            .outcomes
            .iter()
            .map(|o| o.turnaround.as_millis_f64())
            .collect(),
    );
    for p in [50.0, 90.0, 99.0, 99.9] {
        let (e, s) = (exact.percentile(p), summary.turnaround_ms.percentile(p));
        assert!((s - e).abs() <= 0.011 * e, "p{p}: sketch {s} vs exact {e}");
    }
    let exact_mean = classic
        .outcomes
        .iter()
        .map(|o| o.turnaround.as_millis_f64())
        .sum::<f64>()
        / classic.outcomes.len() as f64;
    assert!((summary.mean_turnaround_ms() - exact_mean).abs() < 1e-9);
    assert_eq!(
        summary.demoted,
        classic.outcomes.iter().filter(|o| o.demoted).count() as u64
    );
    assert_eq!(
        summary.offloaded,
        classic.outcomes.iter().filter(|o| o.offloaded).count() as u64
    );
}

#[test]
#[should_panic(expected = "analytic controllers are not supported")]
fn analytic_controllers_are_rejected_in_streaming_mode() {
    let spec = WorkloadSpec::azure_sampled(10, 1);
    let _ = Sim::on(MachineParams::linux(2))
        .controller(sfs_core::Ideal)
        .run_streaming(spec.stream(), |_| {});
}

#[test]
#[should_panic(expected = "remove .workload")]
fn streaming_rejects_materialised_workload() {
    let spec = WorkloadSpec::azure_sampled(10, 1);
    let w = spec.generate();
    let _ = Sim::on(MachineParams::linux(2))
        .workload(&w)
        .controller(SfsController::new(SfsConfig::new(2)))
        .run_streaming(spec.stream(), |_| {});
}
