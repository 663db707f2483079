//! The OpenLambda-like platform: dispatch pipeline + scheduler + accounting.
//!
//! End-to-end runner for the §IX experiments: HTTP invocation → gateway →
//! OpenLambda worker → HTTP sandbox server → OS dispatch (+ UDP notification
//! of `(pid, T_inv)` to SFS) → scheduled execution. Turnaround is measured
//! from the HTTP invocation, so platform overhead is part of every
//! distribution exactly as in Fig. 13–15.

use std::sync::Arc;

use sfs_core::{Baseline, Controller, ControllerFactory, RequestOutcome, SfsConfig, Sim};
use sfs_sched::MachineParams;
use sfs_simcore::{SimDuration, SimRng, SimTime};
use sfs_workload::Workload;

use crate::containers::{Acquire, ContainerPool};
use crate::pipeline::{Pipeline, Stage};

/// Platform deployment parameters (defaults model the paper's 72-core
/// m5.metal OpenLambda deployment).
#[derive(Debug, Clone)]
pub struct OpenLambdaParams {
    /// Gateway HTTP routing overhead per request.
    pub gateway_latency: SimDuration,
    /// OpenLambda worker pool size.
    pub ol_workers: usize,
    /// Per-request OL worker processing overhead.
    pub ol_worker_overhead: SimDuration,
    /// HTTP sandbox server pool size.
    pub sandbox_servers: usize,
    /// Per-request sandbox dispatch overhead.
    pub sandbox_overhead: SimDuration,
    /// UDP `(pid, T_inv)` notification delay to SFS.
    pub udp_notify_delay: SimDuration,
    /// Relative jitter on every hop's service time.
    pub jitter: f64,
    /// Pre-warmed container pool size.
    pub containers: usize,
    /// Consolidation-contention coefficient passed to the machine (the
    /// paper's premise: deep consolidation inflates execution duration;
    /// see [`sfs_sched::MachineParams::contention_beta`]). Containerised
    /// Python functions feel this far more than the bare fib processes of
    /// the standalone experiments.
    pub contention_beta: f64,
    /// RNG seed for overhead jitter.
    pub seed: u64,
}

impl Default for OpenLambdaParams {
    fn default() -> Self {
        OpenLambdaParams {
            gateway_latency: SimDuration::from_micros(200),
            ol_workers: 16,
            ol_worker_overhead: SimDuration::from_micros(500),
            sandbox_servers: 32,
            sandbox_overhead: SimDuration::from_millis(1),
            udp_notify_delay: SimDuration::from_micros(50),
            jitter: 0.5,
            containers: 4_096,
            contention_beta: 0.5,
            seed: 0xFAA5,
        }
    }
}

/// A workload after platform dispatch: OS-level arrivals plus per-request
/// platform delay.
#[derive(Debug, Clone)]
pub struct Dispatched {
    /// The workload with arrivals moved to OS-dispatch times.
    pub os_workload: Workload,
    /// HTTP-invocation times (original arrivals), indexed by request id.
    pub http_arrivals: Vec<SimTime>,
    /// Pipeline delay per request (dispatch − invocation).
    pub platform_delay: Vec<SimDuration>,
    /// Peak simultaneous container occupancy (sanity: below pool size).
    pub container_peak: usize,
    /// Whether the pre-warmed pool ever blocked a dispatch.
    pub pool_blocked: bool,
}

/// Which scheduler runs on the host. Any [`ControllerFactory`] works via
/// [`HostScheduler::Custom`]; the two named variants cover the paper's
/// comparison (SFS-ported OpenLambda vs stock CFS).
#[derive(Clone)]
pub enum HostScheduler {
    /// SFS-ported OpenLambda.
    Sfs(SfsConfig),
    /// A pure kernel baseline (the paper compares against CFS).
    Kernel(Baseline),
    /// Any other user-space policy, built fresh per run.
    Custom(Arc<dyn ControllerFactory + Send + Sync>),
}

impl std::fmt::Debug for HostScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostScheduler::Sfs(cfg) => f.debug_tuple("Sfs").field(cfg).finish(),
            HostScheduler::Kernel(b) => f.debug_tuple("Kernel").field(b).finish(),
            HostScheduler::Custom(c) => f.debug_tuple("Custom").field(&c.label()).finish(),
        }
    }
}

impl ControllerFactory for HostScheduler {
    fn build(&self) -> Box<dyn Controller> {
        match self {
            HostScheduler::Sfs(cfg) => cfg.build(),
            HostScheduler::Kernel(b) => b.build(),
            HostScheduler::Custom(c) => c.build(),
        }
    }

    fn label(&self) -> String {
        match self {
            HostScheduler::Sfs(cfg) => cfg.label(),
            HostScheduler::Kernel(b) => b.label(),
            HostScheduler::Custom(c) => c.label(),
        }
    }

    fn configure_machine(&self, params: &mut MachineParams) {
        match self {
            HostScheduler::Sfs(cfg) => cfg.configure_machine(params),
            HostScheduler::Kernel(b) => b.configure_machine(params),
            HostScheduler::Custom(c) => c.configure_machine(params),
        }
    }
}

/// The platform model.
#[derive(Debug, Clone)]
pub struct OpenLambda {
    params: OpenLambdaParams,
}

impl OpenLambda {
    /// Build a platform with the given parameters.
    pub fn new(params: OpenLambdaParams) -> OpenLambda {
        assert!(params.ol_workers >= 1 && params.sandbox_servers >= 1);
        OpenLambda { params }
    }

    /// Push a workload through the dispatch pipeline (gateway → OL worker →
    /// sandbox → UDP notify), producing OS-level arrival times.
    pub fn dispatch(&self, workload: &Workload) -> Dispatched {
        let p = &self.params;
        let mut rng = SimRng::seed_from_u64(p.seed);
        let pipeline = Pipeline::new()
            .stage(Stage::new("gateway", 1_024, p.gateway_latency, p.jitter))
            .stage(Stage::new(
                "ol-worker",
                p.ol_workers,
                p.ol_worker_overhead,
                p.jitter,
            ))
            .stage(Stage::new(
                "sandbox",
                p.sandbox_servers,
                p.sandbox_overhead,
                p.jitter,
            ));
        let http_arrivals: Vec<SimTime> = workload.requests.iter().map(|r| r.arrival).collect();
        let mut dispatch_times = pipeline.process(&http_arrivals, &mut rng);
        // UDP notification to SFS lands shortly after the OS dispatch; SFS
        // only learns about the request then, so it is part of the delay.
        for t in dispatch_times.iter_mut() {
            *t += p.udp_notify_delay;
        }

        // Container accounting: each request holds a pre-warmed container
        // from dispatch to (approximately) dispatch + ideal duration. Peak
        // occupancy validates the "pool never blocks" assumption; the pool
        // is checked, not enforced, because the paper sizes it generously.
        let mut pool = ContainerPool::new(p.containers);
        let mut events: Vec<(SimTime, bool, u64)> = Vec::with_capacity(workload.len() * 2);
        for (r, &d) in workload.requests.iter().zip(dispatch_times.iter()) {
            events.push((d, true, r.id));
            events.push((d + r.spec.ideal_duration(), false, r.id));
        }
        events.sort_by_key(|&(t, is_acq, id)| (t, is_acq, id));
        let mut blocked = false;
        for (t, is_acq, id) in events {
            if is_acq {
                if pool.acquire(id, t) == Acquire::Queued {
                    blocked = true;
                }
            } else if pool.in_use() > 0 {
                pool.release(t);
            }
        }

        let mut os_workload = workload.clone();
        let mut platform_delay = Vec::with_capacity(workload.len());
        for (req, &d) in os_workload.requests.iter_mut().zip(dispatch_times.iter()) {
            platform_delay.push(d.since(req.arrival));
            req.arrival = d;
        }
        Dispatched {
            os_workload,
            http_arrivals,
            platform_delay,
            container_peak: pool.peak_in_use(),
            pool_blocked: blocked,
        }
    }

    /// Run a workload end-to-end on `cores` host cores under the chosen
    /// scheduler. Outcomes are re-based to HTTP invocation time (turnaround
    /// includes platform overhead; RTE uses the same ideal numerator as the
    /// paper, so platform overhead depresses RTE).
    pub fn run(
        &self,
        sched: HostScheduler,
        cores: usize,
        workload: &Workload,
    ) -> Vec<RequestOutcome> {
        self.run_with(&sched, cores, workload)
    }

    /// As [`OpenLambda::run`], for any controller recipe: one fresh
    /// controller is built for the host.
    pub fn run_with(
        &self,
        sched: &dyn ControllerFactory,
        cores: usize,
        workload: &Workload,
    ) -> Vec<RequestOutcome> {
        let dispatched = self.dispatch(workload);
        let mut mp = MachineParams::linux(cores);
        mp.contention_beta = self.params.contention_beta;
        sched.configure_machine(&mut mp);
        let mut outcomes = Sim::on(mp)
            .workload(&dispatched.os_workload)
            .boxed_controller(sched.build())
            .run()
            .outcomes;
        let front = workload.requests.iter().map(|r| r.id);
        rebase_to_front(
            &mut outcomes,
            front
                .zip(dispatched.http_arrivals.iter().copied())
                .collect(),
        );
        outcomes
    }
}

/// Re-base `outcomes` to the front-door invocation, the OpenLambda idiom:
/// everything before the host (platform hops, RTT, re-dispatch delay) is
/// part of what the user felt. `front` pairs request ids with their
/// invocation instants; ids are labels, not indices (a trace excerpt may
/// start above 0 or skip ids), so the lookup goes by id. The rte formula
/// is `FinishedTask::rte`'s, so an outcome whose host arrival was its
/// invocation is rewritten to itself.
pub(crate) fn rebase_to_front(outcomes: &mut [RequestOutcome], mut front: Vec<(u64, SimTime)>) {
    front.sort_unstable_by_key(|&(id, _)| id);
    for o in outcomes.iter_mut() {
        let k = front
            .binary_search_by_key(&o.id, |&(id, _)| id)
            .expect("every outcome has a front-door invocation");
        let arrival = front[k].1;
        o.arrival = arrival;
        o.turnaround = o.finished.since(arrival);
        o.rte = if o.turnaround.is_zero() {
            1.0
        } else {
            (o.ideal.as_nanos() as f64 / o.turnaround.as_nanos() as f64).min(1.0)
        };
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sfs_workload::WorkloadSpec;

    /// `w` with every request's id (and task label) mapped through `f`:
    /// a trace excerpt whose ids are not `0..n`.
    pub(crate) fn relabel(w: &Workload, f: impl Fn(u64) -> u64) -> Workload {
        Workload {
            requests: w
                .requests
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.id = f(r.id);
                    r.spec.label = r.id;
                    r
                })
                .collect(),
        }
    }

    fn small_workload() -> Workload {
        WorkloadSpec::openlambda(600, 77)
            .with_load(8, 0.8)
            .generate()
    }

    #[test]
    fn dispatch_adds_bounded_overhead() {
        let ol = OpenLambda::new(OpenLambdaParams::default());
        let w = small_workload();
        let d = ol.dispatch(&w);
        assert_eq!(d.platform_delay.len(), w.len());
        for (i, delay) in d.platform_delay.iter().enumerate() {
            assert!(
                delay.as_millis_f64() >= 0.5,
                "request {i} delay {delay} below minimum hop costs"
            );
            assert!(
                delay.as_millis_f64() < 50.0,
                "request {i} delay {delay} implausibly large"
            );
        }
        // OS arrivals remain sorted per original order shifts are tiny.
        assert!(!d.pool_blocked, "pre-warmed pool must not block");
        assert!(d.container_peak > 0);
    }

    #[test]
    fn run_rebases_turnaround_to_http_invocation() {
        let ol = OpenLambda::new(OpenLambdaParams::default());
        let w = small_workload();
        let out = ol.run(HostScheduler::Kernel(Baseline::Cfs), 8, &w);
        assert_eq!(out.len(), w.len());
        for o in &out {
            // Turnaround includes at least the pipeline overhead + ideal.
            assert!(
                o.turnaround >= o.ideal,
                "req {}: turnaround below ideal",
                o.id
            );
            assert!(o.rte <= 1.0 && o.rte > 0.0);
        }
    }

    #[test]
    fn ids_are_labels_not_indices() {
        // A trace excerpt's ids need not be 0..n: shifting every id
        // changes nothing but the ids.
        let ol = OpenLambda::new(OpenLambdaParams::default());
        let w = small_workload();
        let shifted = relabel(&w, |id| id + 1_000);
        let sched = HostScheduler::Kernel(Baseline::Cfs);
        let base = ol.run(sched.clone(), 8, &w);
        let out = ol.run(sched, 8, &shifted);
        assert_eq!(out.len(), base.len());
        for (a, b) in out.iter().zip(base.iter()) {
            assert_eq!(a.id, b.id + 1_000);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.turnaround, b.turnaround);
            assert_eq!(a.rte.to_bits(), b.rte.to_bits());
        }
    }

    #[test]
    fn sfs_still_beats_cfs_behind_the_platform() {
        // Fig. 13's qualitative claim at high load.
        let ol = OpenLambda::new(OpenLambdaParams::default());
        let w = WorkloadSpec::openlambda(1_200, 99)
            .with_load(8, 1.0)
            .generate();
        let sfs = ol.run(HostScheduler::Sfs(SfsConfig::new(8)), 8, &w);
        let cfs = ol.run(HostScheduler::Kernel(Baseline::Cfs), 8, &w);
        let mean = |v: &[RequestOutcome]| {
            v.iter().map(|o| o.turnaround.as_millis_f64()).sum::<f64>() / v.len() as f64
        };
        assert!(
            mean(&sfs) < mean(&cfs),
            "OL+SFS mean {} should beat OL+CFS {}",
            mean(&sfs),
            mean(&cfs)
        );
    }

    #[test]
    fn platform_overhead_depresses_rte() {
        // Even under SFS at low load, RTE < 1 because the pipeline adds
        // non-CPU latency ("overheads diminished the performance benefits").
        let ol = OpenLambda::new(OpenLambdaParams::default());
        let w = WorkloadSpec::openlambda(300, 101)
            .with_load(8, 0.5)
            .generate();
        let out = ol.run(HostScheduler::Sfs(SfsConfig::new(8)), 8, &w);
        let short = out
            .iter()
            .filter(|o| o.ideal < SimDuration::from_millis(50))
            .collect::<Vec<_>>();
        assert!(!short.is_empty());
        let perfect = short.iter().filter(|o| o.rte >= 0.999).count();
        assert!(
            perfect < short.len(),
            "platform overhead must shave RTE below 1 for some short requests"
        );
    }

    #[test]
    fn custom_controllers_run_behind_the_platform() {
        // HostScheduler::Custom plugs any ControllerFactory into the
        // OpenLambda pipeline — here the user-space MLFQ policy.
        struct Mlfq;
        impl sfs_core::ControllerFactory for Mlfq {
            fn build(&self) -> Box<dyn sfs_core::Controller> {
                Box::new(sfs_core::UserMlfq::default())
            }
            fn label(&self) -> String {
                "user-mlfq".into()
            }
        }
        let ol = OpenLambda::new(OpenLambdaParams::default());
        let w = small_workload();
        let sched = HostScheduler::Custom(Arc::new(Mlfq));
        assert_eq!(format!("{sched:?}"), "Custom(\"user-mlfq\")");
        let out = ol.run(sched, 8, &w);
        assert_eq!(out.len(), w.len());
        for o in &out {
            assert!(o.rte > 0.0 && o.rte <= 1.0);
        }
    }

    #[test]
    fn tiny_container_pool_blocks() {
        let ol = OpenLambda::new(OpenLambdaParams {
            containers: 2,
            ..Default::default()
        });
        let w = small_workload();
        let d = ol.dispatch(&w);
        assert!(d.pool_blocked, "a 2-container pool must saturate");
    }
}
