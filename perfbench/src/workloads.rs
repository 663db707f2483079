//! The benchmark workloads and one repetition of each, traced or not.
//!
//! A workload's request count is part of its definition: `azure_replay`
//! spikes are `n / 50` requests long, so a different count is a different
//! workload, not the same one cut short. Arrivals are an open loop fixed
//! by the seed, and every run executes on one thread.

use std::cell::Cell;
use std::hint::black_box;

use sfs_core::{ControllerFactory, KernelOnly, Sim};
use sfs_faas::{FaultSpec, Fleet, FleetRun, Placement};
use sfs_sched::{MachineParams, Policy, SmpParams};
use sfs_simcore::SimDuration;
use sfs_workload::{Request, WorkloadSpec, WorkloadStream, LONG_THRESHOLD_MS};

use crate::check::{self, SimResult, StreamSink};
use crate::span::{
    Calibration, ExecTally, HookTrace, HostCounters, Span, SpanTotal, Stamp, TimedController,
    TimedFactory, TimedStream,
};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A 32-core SMP host under kernel CFS over a streamed I/O-heavy mix.
    StreamIoSmp,
    /// A faulted, autoscaled two-region fleet behind the front door.
    FleetFaults,
}

/// Every workload, by its benchmark name.
pub const ALL: [(&str, Kind); 2] = [
    ("stream_io_smp", Kind::StreamIoSmp),
    ("fleet_faults", Kind::FleetFaults),
];

/// Requests each sub-workload offers.
pub const REQUESTS: usize = 100_000;
/// Cores of every fleet host.
const HOST_CORES: usize = 4;
/// Cores the fleet starts with: 2 regions of 8 hosts.
const FLEET_CORES: usize = 2 * 8 * HOST_CORES;
/// Cores of the streaming SMP host.
const SMP_CORES: usize = 32;
/// Warm-container keep-alive of the affinity model.
const KEEP_ALIVE: SimDuration = SimDuration::from_secs(10);
/// Cold-start CPU penalty of the affinity model.
const COLD_START: SimDuration = SimDuration::from_millis(50);

impl Kind {
    /// Parse a benchmark workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.iter().find(|(n, _)| *n == name).map(|&(_, k)| k)
    }
}

/// Dispatcher-level counters of a fleet run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DispatchCounters {
    /// Requests the front door shed.
    pub shed: u64,
    /// Requests lost to faults.
    pub lost: u64,
    /// Placements outside the cheapest-RTT region.
    pub spilled: u64,
    /// Cold starts the affinity model charged.
    pub cold_starts: u64,
    /// Fault evictions successfully re-placed.
    pub redispatches: u64,
    /// Autoscaler cold scale-ups.
    pub boots: u64,
    /// Autoscaler scale-downs.
    pub parks: u64,
    /// Autoscaler warm scale-ups.
    pub reactivations: u64,
    /// Parked hosts released at keep-alive expiry.
    pub releases: u64,
    /// Simulated host-milliseconds parked warm.
    pub warm_host_ms: f64,
}

impl DispatchCounters {
    /// Add another run's counters.
    pub fn add(&mut self, o: &DispatchCounters) {
        self.shed += o.shed;
        self.lost += o.lost;
        self.spilled += o.spilled;
        self.cold_starts += o.cold_starts;
        self.redispatches += o.redispatches;
        self.boots += o.boots;
        self.parks += o.parks;
        self.reactivations += o.reactivations;
        self.releases += o.releases;
        self.warm_host_ms += o.warm_host_ms;
    }
}

/// Raw spans and counters of one traced repetition.
#[derive(Clone, Debug, Default)]
pub struct RepTrace {
    /// Workload generation (materialised) or stream pulls.
    pub gen: SpanTotal,
    /// The streaming sink's statistics (`OutcomeSummary::observe`).
    pub stats: SpanTotal,
    /// The streaming sink's checks, the benchmark's own bookkeeping.
    pub check: SpanTotal,
    /// The outermost call into the library for the simulation.
    pub run: SpanTotal,
    /// Execution units, the `Sim::run` inside them, and their hooks.
    pub exec: ExecTally,
    /// Dispatcher counters.
    pub dispatch: DispatchCounters,
    /// Span cost, calibrated around this repetition.
    pub cal: Calibration,
}

/// One repetition: host times, simulated results, and (traced) spans.
pub struct Rep {
    /// Host time before the first simulated step; for the streaming
    /// workload, the mean of a batch of empty streaming runs.
    pub setup_ns: u64,
    /// Host time of the simulation itself.
    pub run_ns: u64,
    /// Simulated results and check verdict.
    pub sim: SimResult,
    /// Spans and counters, for a traced repetition.
    pub trace: Option<RepTrace>,
}

/// Run one repetition of `kind` on the inputs `seed` generates.
pub fn rep(kind: Kind, seed: u64, traced: bool) -> Rep {
    match kind {
        Kind::StreamIoSmp => stream_rep(seed, traced),
        Kind::FleetFaults => fleet_rep(seed, traced),
    }
}

/// The fleet: 2 regions of 8 hosts with affinity, faults, the default
/// autoscaler, and SFS on every host.
fn fleet() -> Fleet {
    Fleet::new(2, 8, HOST_CORES)
        .with_affinity(KEEP_ALIVE, COLD_START)
        .with_faults(
            FaultSpec::parse("crash:2+straggler:2+outage:1")
                .expect("the fault spec is a valid literal"),
        )
}

/// Dispatcher counters of a fleet run.
fn dispatch_counters(run: &FleetRun) -> DispatchCounters {
    let mut d = DispatchCounters {
        shed: run.shed.len() as u64,
        lost: run.lost.len() as u64,
        spilled: run.spilled,
        cold_starts: run.cold_starts,
        redispatches: run.redispatches,
        ..DispatchCounters::default()
    };
    for r in &run.per_region {
        d.boots += r.boots;
        d.parks += r.parks;
        d.reactivations += r.reactivations;
        d.releases += r.releases;
        d.warm_host_ms += r.warm_host_ms;
    }
    d
}

fn fleet_rep(seed: u64, traced: bool) -> Rep {
    let n = REQUESTS;
    let gen = Span::default();
    let t0 = Stamp::now();
    let spec = WorkloadSpec::azure_replay(n, seed).with_load(FLEET_CORES, 0.9);
    let w = if traced {
        gen.time(|| spec.generate())
    } else {
        spec.generate()
    };
    let fleet = fleet();
    let timed = traced.then(|| TimedFactory::new(&fleet.sfs));
    let t1 = Stamp::now();
    let factory: &(dyn ControllerFactory + Sync) = match &timed {
        Some(tf) => tf,
        None => &fleet.sfs,
    };
    let run = fleet.run_with_threads(Placement::JoinShortestQueue, factory, &w, 1);
    let t2 = Stamp::now();

    let mut duration_ms = vec![f64::NAN; n];
    for r in &w.requests {
        if let Some(d) = duration_ms.get_mut(r.id as usize) {
            *d = r.duration_ms;
        }
    }
    let mut sim = check::materialised(&run.outcomes, &run.shed, &run.lost, &duration_ms);
    if !run.conservation_holds() {
        sim.errors
            .push("completed + shed + lost != offered".to_string());
    }
    let trace = timed.map(|tf| RepTrace {
        gen: gen.total(),
        run: SpanTotal {
            ns: t1.ns_until(t2),
            calls: 1,
        },
        exec: tf.into_tally(),
        dispatch: dispatch_counters(&run),
        ..RepTrace::default()
    });
    Rep {
        setup_ns: t0.ns_until(t1),
        run_ns: t1.ns_until(t2),
        sim,
        trace,
    }
}

/// The SMP parameters of the repository's `sim/sfs_azure_smp4` scenario.
fn smp() -> SmpParams {
    SmpParams::balanced(
        SimDuration::from_millis(4),
        SimDuration::from_micros(30),
        SimDuration::from_micros(15),
    )
}

/// The streaming workload's arrivals and simulator, before the first
/// simulated step.
fn stream_parts<'a>(seed: u64) -> (WorkloadStream, Sim<'a>) {
    let spec = WorkloadSpec {
        io_fraction: 0.75,
        ..WorkloadSpec::openlambda(REQUESTS, seed)
    }
    .with_duration_load(SMP_CORES, 0.9);
    let sim = Sim::on(MachineParams::linux(SMP_CORES).with_smp(smp()));
    (spec.stream(), sim)
}

/// Streaming set-ups timed back to back for one `setup_ns` reading.
const SETUP_BATCH: u64 = 1024;

/// Host time of the streaming set-up path: a streaming run of no
/// requests, which builds the spec, the stream, the simulator and the
/// machine, and drives an empty loop. None of it grows with the request
/// count, so one set-up takes microseconds; a batch is timed and averaged
/// so that the reading is steady rather than timer noise.
fn stream_setup_ns(seed: u64) -> u64 {
    let t0 = Stamp::now();
    for _ in 0..SETUP_BATCH {
        let (arrivals, sim) = stream_parts(seed);
        black_box(
            sim.controller(KernelOnly(Policy::NORMAL))
                .run_streaming(arrivals.take(0), |_| {}),
        );
    }
    t0.ns() / SETUP_BATCH
}

fn stream_rep(seed: u64, traced: bool) -> Rep {
    let n = REQUESTS;
    let setup_ns = stream_setup_ns(seed);
    // The benchmark's own bookkeeping is allocated before the run starts.
    let short: Vec<Cell<bool>> = (0..n).map(|_| Cell::new(false)).collect();
    let mut sink = StreamSink::new(&short);
    // Host time is counted from the first pull, the first simulated step.
    let first: Cell<Option<Stamp>> = Cell::new(None);
    let tag = |r: &Request| {
        if first.get().is_none() {
            first.set(Some(Stamp::now()));
        }
        if let Some(s) = short.get(r.id as usize) {
            s.set(r.duration_ms < LONG_THRESHOLD_MS);
        }
    };
    let (arrivals, sim) = stream_parts(seed);
    let arrivals = arrivals.inspect(tag);

    let (out, trace) = if traced {
        let gen = Span::default();
        let stats = Span::default();
        let check = Span::default();
        let run = Span::default();
        let hooks = HookTrace::default();
        let ctl = TimedController::new(Box::new(KernelOnly(Policy::NORMAL)), &hooks);
        let out = run.time(|| {
            sim.controller(ctl)
                .run_streaming(TimedStream::new(arrivals, &gen), |o| {
                    stats.time(|| sink.summarise(&o));
                    check.time(|| sink.check(&o));
                })
        });
        let mut counts = HostCounters::default();
        counts.add_run(
            &hooks,
            out.sched_actions,
            out.machine_ctx_switches,
            &out.telemetry,
        );
        counts.migrations = sink.migrations();
        let trace = RepTrace {
            gen: gen.total(),
            stats: stats.total(),
            check: check.total(),
            run: run.total(),
            exec: ExecTally {
                hooks: hooks.span.total(),
                counts,
                ..ExecTally::default()
            },
            ..RepTrace::default()
        };
        (out, Some(trace))
    } else {
        let out = sim
            .controller(KernelOnly(Policy::NORMAL))
            .run_streaming(arrivals, |o| sink.observe(o));
        (out, None)
    };
    let t2 = Stamp::now();

    let first = first.get().unwrap_or(t2);
    let mut sim = sink.finish();
    if out.requests != n as u64 {
        sim.errors.push(format!(
            "stream run reports {} of {n} requests",
            out.requests
        ));
    }
    Rep {
        setup_ns,
        run_ns: first.ns_until(t2),
        sim,
        trace,
    }
}
