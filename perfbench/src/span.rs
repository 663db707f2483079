//! Host-time spans around the library's public seams.
//!
//! Every layer is timed from outside: a forwarding [`Controller`] times
//! each hook, a forwarding [`ControllerFactory`] times each execution unit
//! (`run_on`) and the `Sim::run` inside it, and an iterator adapter times
//! each pull from the arrival stream. The wrappers change nothing they
//! forward; the benchmark proves that by comparing outcome digests of
//! traced and untraced runs.
//!
//! A span costs host time of its own. [`calibrate`] measures that cost on
//! an empty span, split into the part that lands inside the recorded
//! interval (charged to the child) and the rest (charged to the parent),
//! so every self time can be reported net of its spans.
// lint: allow-file(D2, the benchmark's host clock: it times the simulator from outside and never feeds a simulated result)

use std::cell::Cell;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use sfs_core::Telemetry;
use sfs_core::{Controller, ControllerFactory, MachineView, RequestOutcome, RunOutcome, Sim};
use sfs_sched::{MachineParams, Notification, Pid, Policy};
use sfs_simcore::SimTime;
use sfs_workload::{Request, Workload};

/// A host-clock reading.
#[derive(Clone, Copy)]
pub struct Stamp(Instant);

impl Stamp {
    /// The current host time.
    pub fn now() -> Stamp {
        Stamp(Instant::now())
    }

    /// Host nanoseconds elapsed since this reading.
    pub fn ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Host nanoseconds from this reading to a later one.
    pub fn ns_until(self, later: Stamp) -> u64 {
        later.0.duration_since(self.0).as_nanos() as u64
    }
}

/// Raw host time and call count of one span kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotal {
    /// Sum of recorded intervals.
    pub ns: u64,
    /// Number of spans recorded.
    pub calls: u64,
}

impl std::ops::AddAssign for SpanTotal {
    fn add_assign(&mut self, o: SpanTotal) {
        self.ns += o.ns;
        self.calls += o.calls;
    }
}

/// A single-threaded span accumulator.
#[derive(Default)]
pub struct Span {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Span {
    /// Run `f` inside one span.
    #[inline(always)]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// What has been recorded so far.
    pub fn total(&self) -> SpanTotal {
        SpanTotal {
            ns: self.ns.get(),
            calls: self.calls.get(),
        }
    }
}

/// The host cost of one empty span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calibration {
    /// Part of the cost recorded inside the span's own interval.
    pub inner_ns: f64,
    /// Whole cost per span, as a loop of spans around empty hooks pays it.
    pub full_ns: f64,
    /// Interquartile range of `inner_ns` across calibration batches.
    pub inner_iqr_ns: f64,
}

impl Calibration {
    /// Part of the cost that lands in the enclosing span's self time.
    pub fn outer_ns(&self) -> f64 {
        (self.full_ns - self.inner_ns).max(0.0)
    }

    /// The mean of two calibrations, taken before and after a run.
    pub fn mean(a: Calibration, b: Calibration) -> Calibration {
        Calibration {
            inner_ns: (a.inner_ns + b.inner_ns) / 2.0,
            full_ns: (a.full_ns + b.full_ns) / 2.0,
            inner_iqr_ns: (a.inner_iqr_ns + b.inner_iqr_ns) / 2.0,
        }
    }
}

/// A controller whose hooks all do nothing.
struct Idle;

impl Controller for Idle {}

/// Measure [`Calibration`] on this host, in this process. The calibrated
/// span wraps a call to an empty controller hook through a trait object,
/// as every [`TimedController`] span wraps its forwarding call. It takes
/// about 20 ms, so a traced run can calibrate next to each repetition:
/// the host's speed drifts by tens of percent within seconds.
pub fn calibrate() -> Calibration {
    const BATCH: u64 = 50_000;
    const BATCHES: usize = 5;
    let mut inner = Vec::with_capacity(BATCHES);
    let mut full = Vec::with_capacity(BATCHES);
    let idle: Box<dyn Controller> = Box::new(Idle);
    for _ in 0..BATCHES {
        let span = Span::default();
        let t0 = Stamp::now();
        for _ in 0..BATCH {
            span.time(|| black_box(&idle).next_wakeup());
        }
        let total = t0.ns();
        inner.push(span.total().ns as f64 / BATCH as f64);
        full.push(total as f64 / BATCH as f64);
    }
    let (q1, med, q3) = quartiles(&mut inner);
    Calibration {
        inner_ns: med,
        full_ns: quartiles(&mut full).1,
        inner_iqr_ns: q3 - q1,
    }
}

/// First quartile, median and third quartile (linear interpolation,
/// the "exclusive" method of Python's `statistics.quantiles`).
pub fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        if v.is_empty() {
            return 0.0;
        }
        let pos = (p * (v.len() + 1) as f64 - 1.0).clamp(0.0, (v.len() - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    quartiles(v).1
}

/// Work counters seen at the controller seam, plus the machine-level
/// counters the run reports. All deterministic at a fixed seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostCounters {
    /// Controller hook calls of every kind.
    pub hook_calls: u64,
    /// Drive-loop iterations (one `next_wakeup` call each).
    pub steps: u64,
    /// `on_wakeup` calls at which the controller's own timer was due.
    pub timer_fires: u64,
    /// Machine notifications: first run, blocked, woke, finished.
    pub notes: [u64; 4],
    /// Controller polling ticks.
    pub polls: u64,
    /// Per-task status reads across polling ticks.
    pub polled_tasks: u64,
    /// Policy switches the controller issued.
    pub sched_actions: u64,
    /// Requests demoted on slice expiry.
    pub demoted: u64,
    /// Requests the overload bypass sent straight to CFS.
    pub offloaded: u64,
    /// Machine-wide involuntary context switches.
    pub ctx_switches: u64,
    /// Core-to-core migrations summed over completed requests.
    pub migrations: u64,
}

impl HostCounters {
    /// Add another run's counters.
    pub fn add(&mut self, o: &HostCounters) {
        self.hook_calls += o.hook_calls;
        self.steps += o.steps;
        self.timer_fires += o.timer_fires;
        for (sum, n) in self.notes.iter_mut().zip(o.notes) {
            *sum += n;
        }
        self.polls += o.polls;
        self.polled_tasks += o.polled_tasks;
        self.sched_actions += o.sched_actions;
        self.demoted += o.demoted;
        self.offloaded += o.offloaded;
        self.ctx_switches += o.ctx_switches;
        self.migrations += o.migrations;
    }

    /// Fold in what one run's controller trace and telemetry recorded.
    pub fn add_run(&mut self, hooks: &HookTrace, sched_actions: u64, ctx: u64, t: &Telemetry) {
        self.hook_calls += hooks.span.total().calls;
        self.steps += hooks.steps.get();
        self.timer_fires += hooks.timer_fires.get();
        for (sum, n) in self.notes.iter_mut().zip(&hooks.notes) {
            *sum += n.get();
        }
        self.polls += t.polls;
        self.polled_tasks += t.polled_tasks;
        self.sched_actions += sched_actions;
        self.demoted += t.demoted;
        self.offloaded += t.offloaded;
        self.ctx_switches += ctx;
    }
}

/// What a [`TimedController`] records during one run.
#[derive(Default)]
pub struct HookTrace {
    /// Host time inside controller hooks.
    pub span: Span,
    steps: Cell<u64>,
    timer_fires: Cell<u64>,
    notes: [Cell<u64>; 4],
}

/// A forwarding [`Controller`] that times every hook it passes on.
pub struct TimedController<'t> {
    inner: Box<dyn Controller + 't>,
    trace: &'t HookTrace,
    /// The wakeup the inner controller last asked for.
    armed: Cell<Option<SimTime>>,
}

impl<'t> TimedController<'t> {
    /// Wrap `inner`, recording into `trace`.
    pub fn new(inner: Box<dyn Controller + 't>, trace: &'t HookTrace) -> TimedController<'t> {
        TimedController {
            inner,
            trace,
            armed: Cell::new(None),
        }
    }
}

impl Controller for TimedController<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dispatch_policy(&mut self, req: &Request) -> Policy {
        self.trace.span.time(|| self.inner.dispatch_policy(req))
    }

    fn on_arrival(&mut self, m: &mut MachineView<'_>, req: &Request, pid: Pid) {
        self.trace.span.time(|| self.inner.on_arrival(m, req, pid))
    }

    fn on_notification(&mut self, m: &mut MachineView<'_>, note: &Notification) {
        let kind = match note {
            Notification::FirstRun(..) => 0,
            Notification::Blocked(..) => 1,
            Notification::Woke(..) => 2,
            Notification::Finished(..) => 3,
        };
        let n = &self.trace.notes[kind];
        n.set(n.get() + 1);
        self.trace.span.time(|| self.inner.on_notification(m, note))
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.trace.steps.set(self.trace.steps.get() + 1);
        let at = self.trace.span.time(|| self.inner.next_wakeup());
        self.armed.set(at);
        at
    }

    fn on_wakeup(&mut self, m: &mut MachineView<'_>) {
        if self.armed.get().is_some_and(|t| t <= m.now()) {
            let f = &self.trace.timer_fires;
            f.set(f.get() + 1);
        }
        self.trace.span.time(|| self.inner.on_wakeup(m))
    }

    fn annotate(&mut self, outcome: &mut RequestOutcome) {
        self.trace.span.time(|| self.inner.annotate(outcome))
    }

    fn finish(&mut self, telemetry: &mut Telemetry) {
        self.trace.span.time(|| self.inner.finish(telemetry))
    }

    fn analytic(&self, workload: &Workload) -> Option<Vec<RequestOutcome>> {
        self.trace.span.time(|| self.inner.analytic(workload))
    }
}

/// Everything a [`TimedFactory`] recorded over all its execution units.
#[derive(Clone, Debug, Default)]
pub struct ExecTally {
    /// `run_on` calls: one per execution unit.
    pub exec: SpanTotal,
    /// `Sim::run` inside each unit.
    pub sim: SpanTotal,
    /// Controller hooks inside each unit.
    pub hooks: SpanTotal,
    /// Work counters summed over units.
    pub counts: HostCounters,
    /// Requests in the largest unit.
    pub max_unit: usize,
}

/// A forwarding [`ControllerFactory`]: each `run_on` is timed and runs a
/// wrapped controller.
pub struct TimedFactory<'f> {
    inner: &'f (dyn ControllerFactory + Sync),
    tally: Mutex<ExecTally>,
}

impl<'f> TimedFactory<'f> {
    /// Wrap `inner`.
    pub fn new(inner: &'f (dyn ControllerFactory + Sync)) -> TimedFactory<'f> {
        TimedFactory {
            inner,
            tally: Mutex::new(ExecTally::default()),
        }
    }

    /// What the units recorded.
    pub fn into_tally(self) -> ExecTally {
        self.tally
            .into_inner()
            .expect("no unit panicked while holding the tally")
    }
}

impl ControllerFactory for TimedFactory<'_> {
    fn build(&self) -> Box<dyn Controller> {
        self.inner.build()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn configure_machine(&self, params: &mut MachineParams) {
        self.inner.configure_machine(params)
    }

    /// The trait's default body, with the controller wrapped and the
    /// `Sim::run` call timed. The traced-vs-untraced digest check fails if
    /// this ever drifts from the default.
    fn run_on(&self, cores: usize, workload: &Workload) -> RunOutcome {
        let t0 = Stamp::now();
        let mut params = MachineParams::linux(cores);
        self.inner.configure_machine(&mut params);
        let hooks = HookTrace::default();
        let ctl = TimedController::new(self.inner.build(), &hooks);
        let sim = Span::default();
        let run = sim.time(|| {
            Sim::on(params)
                .workload(workload)
                .boxed_controller(Box::new(ctl))
                .run()
        });
        let exec_ns = t0.ns();

        let mut t = self
            .tally
            .lock()
            .expect("no unit panicked while holding the tally");
        t.exec += SpanTotal {
            ns: exec_ns,
            calls: 1,
        };
        t.sim += sim.total();
        t.hooks += hooks.span.total();
        t.counts.add_run(
            &hooks,
            run.sched_actions,
            run.machine_ctx_switches,
            &run.telemetry,
        );
        t.counts.migrations += run.outcomes.iter().map(|o| o.migrations).sum::<u64>();
        t.max_unit = t.max_unit.max(workload.len());
        run
    }
}

/// An arrival-stream adapter that times every pull.
pub struct TimedStream<'s, I> {
    inner: I,
    span: &'s Span,
}

impl<'s, I> TimedStream<'s, I> {
    /// Wrap `inner`, recording into `span`.
    pub fn new(inner: I, span: &'s Span) -> TimedStream<'s, I> {
        TimedStream { inner, span }
    }
}

impl<I: Iterator<Item = Request>> Iterator for TimedStream<'_, I> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.span.time(|| self.inner.next())
    }
}
