//! The SFS scheduling policy as a [`Controller`] (paper §V, Fig. 4).
//!
//! [`SfsController`] reproduces the full scheduling flow:
//!
//! 1. the backend FaaS server dispatches each function to the OS (spawned
//!    under CFS) and pushes `(pid, T_inv)` into SFS's **global queue**;
//! 2. idle **SFS workers** (one per core) fetch requests and run them in
//!    **FILTER** mode by promoting the process to `SCHED_FIFO`;
//! 3. the **monitor** recomputes the time slice `S` from a sliding window
//!    of IATs every N requests (§V-C);
//! 4. then, per request: (4.1) a function finishing within `S` frees its
//!    worker; (4.2) a function exhausting `S` is **demoted to CFS**
//!    (`SCHED_NORMAL`); (4.3) a function blocking on I/O is detected by
//!    periodic status polling, demoted while it sleeps, and **re-enqueued
//!    on wake** with its unused slice (§V-D); (4.4) a worker popping a
//!    request whose queueing delay exceeds `O × S` triggers the **hybrid
//!    overload bypass**: the request (and the drain that follows) stays in
//!    CFS (§V-E).
//!
//! SFS only ever talks to the machine through the [`MachineView`] ops —
//! the same interface the real implementation has via `schedtool` and
//! `gopsutil`.
//!
//! [`SfsController::with_slo`] adds the SLO-deadline hybrid variant: the
//! relative `O × S` overload test is augmented with an absolute per-request
//! deadline on age since invocation, checked both at pop time and
//! proactively at every poll tick, so aged requests are shed to CFS even
//! while all workers are busy.

// lint: allow(D1, slot_of_id is the hot-path id->slot map from PR 5; keyed insert/remove only, never iterated)
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use sfs_sched::{Notification, Pid, Policy, ProcState};
use sfs_simcore::{EventQueue, SimDuration, SimTime, TimeSeries};
use sfs_workload::Request;

use crate::config::{QueueMode, SfsConfig};
use crate::sim::{Controller, MachineView, Telemetry};
use crate::stats::RequestOutcome;
use crate::timeslice::SliceController;

/// Where a tracked request currently sits in SFS's own bookkeeping.
///
/// Maintained exactly at every queue transition so the completion path can
/// skip the queue scans entirely for the common case (a request that
/// finished while running a FILTER round or after being left to CFS is in
/// no SFS queue): the old design rescanned the global queue, every
/// per-worker queue, and the blocked list on *every* completion — an
/// O(requests x queue depth) term that dominated deep-backlog runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In no SFS queue (FILTER round in flight, left to CFS, or done).
    None,
    /// In the global queue or a per-worker queue.
    Queued,
    /// In the blocked (I/O wake-detection) list.
    Blocked,
}

/// Per-request state, stored in a free-list slab (see
/// [`SfsController::states`]).
#[derive(Debug, Clone)]
struct ReqState {
    pid: Pid,
    /// Invocation timestamp (when the FaaS server enqueued it).
    t_inv: SimTime,
    /// When the request was last pushed into the global queue.
    enqueued_at: SimTime,
    /// Remaining FILTER slice across I/O interruptions; `None` = fresh
    /// (use the current global S on next assignment).
    slice_remaining: Option<SimDuration>,
    /// Queue delay observed at the first pop (enqueue → pop), for Fig. 12a.
    first_pop_delay: Option<SimDuration>,
    loc: Loc,
    demoted: bool,
    offloaded: bool,
    filter_rounds: u32,
    io_blocks: u32,
}

/// Hasher for [`SfsController::slot_of_id`], which is probed twice per
/// request. Request ids are distinct `u64`s, so a multiply by 2^64/φ mixes
/// them; the rotation moves the product's well-mixed high half into the
/// low bits the table indexes by, so strided ids (one host's share of a
/// fleet's requests) spread too. SipHash's resistance to adversarial keys
/// buys nothing for simulator-made ids.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("IdHasher hashes u64 request ids only");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32);
    }
}

#[derive(Debug, Clone, Copy)]
struct Assignment {
    pid: Pid,
    /// Slab slot of the request in this FILTER round.
    slot: u32,
    /// FILTER budget for this round.
    budget: SimDuration,
    /// CPU time the process had consumed when this round started.
    cpu_at_start: SimDuration,
}

#[derive(Debug, Default)]
struct Worker {
    current: Option<Assignment>,
    /// Invalidates stale slice-expiry events.
    gen: u64,
}

#[derive(Debug, Clone, Copy)]
enum SfsEv {
    /// FILTER slice timer for worker `w` (valid only at generation `gen`).
    SliceExpiry { w: usize, gen: u64 },
    /// The periodic status-polling tick.
    Poll,
}

/// The paper's Smart Function Scheduler as a pluggable [`Controller`].
///
/// Build one per run with [`SfsController::new`] and hand it to
/// [`Sim::controller`](crate::Sim::controller).
pub struct SfsController {
    cfg: SfsConfig,
    /// Absolute queue-delay deadline (SLO variant); `None` = paper SFS.
    slo_deadline: Option<SimDuration>,
    slice: SliceController,
    queue: VecDeque<u32>,
    /// Per-worker queues (used only in [`QueueMode::PerWorker`]).
    worker_queues: Vec<VecDeque<u32>>,
    /// Round-robin cursor for per-worker assignment.
    next_rr: usize,
    /// Per-request state slab. A request takes a *slot* at arrival and
    /// gives it back in [`Controller::annotate`]; freed slots are reused,
    /// so the slab is as large as the peak number of tracked requests,
    /// whatever the pids. Every hot-path lookup — assign, poll, demote —
    /// is a plain vector index. Slots are only handles: queues are FIFO by
    /// enqueue and nothing orders by slot.
    states: Vec<ReqState>,
    /// Slots free for reuse (LIFO).
    free_slots: Vec<u32>,
    /// Request id → slot, consulted twice per request: on its `Finished`
    /// notification and in [`Controller::annotate`], which only receives
    /// the outcome id. Audited lookups-only (simlint D1): one `insert` at
    /// spawn, one `get` at completion, one `remove` in `annotate`; never
    /// iterated, so hash order cannot reach any scheduling decision. A
    /// BTreeMap here would put a log-n probe on the per-request hot path
    /// PR 5 flattened.
    // lint: allow(D1, insert at spawn + get at completion + remove in annotate only; never iterated; hot path per PR 5)
    slot_of_id: HashMap<u64, u32, BuildHasherDefault<IdHasher>>,
    workers: Vec<Worker>,
    /// Slots blocked on I/O, awaiting wake detection by polling.
    blocked: Vec<u32>,
    /// Reusable scratch for wake detection in [`SfsController::on_poll`].
    rewoken: Vec<u32>,
    events: EventQueue<SfsEv>,
    /// Reusable batch buffer for [`Controller::on_wakeup`]: every SFS
    /// handler schedules strictly future events (slice timers at
    /// now + budget with budget > 0, polls at now + interval), so all
    /// events due now can be drained in one peek-based batch.
    due: Vec<(SimTime, SfsEv)>,
    poll_armed: bool,
    queue_delay_series: TimeSeries,
    polls: u64,
    polled_tasks: u64,
    offloaded_total: u64,
    demoted_total: u64,
}

impl SfsController {
    /// An SFS instance with the given configuration. `cfg.workers` should
    /// normally equal the machine's core count.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`SfsConfig::validate`]).
    pub fn new(cfg: SfsConfig) -> SfsController {
        cfg.validate().expect("invalid SFS config");
        SfsController {
            cfg,
            slo_deadline: None,
            slice: SliceController::new(&cfg),
            queue: VecDeque::new(),
            worker_queues: (0..cfg.workers).map(|_| VecDeque::new()).collect(),
            next_rr: 0,
            states: Vec::new(),
            free_slots: Vec::new(),
            // lint: allow(D1, construction of the audited lookups-only map declared above)
            slot_of_id: HashMap::default(),
            workers: (0..cfg.workers).map(|_| Worker::default()).collect(),
            blocked: Vec::new(),
            rewoken: Vec::new(),
            events: EventQueue::new(),
            due: Vec::with_capacity(64),
            poll_armed: false,
            queue_delay_series: TimeSeries::new("queue_delay_s"),
            polls: 0,
            polled_tasks: 0,
            offloaded_total: 0,
            demoted_total: 0,
        }
    }

    /// The SLO-deadline hybrid variant: in addition to the paper's relative
    /// `O × S` overload test, any *queued* request whose age since
    /// invocation (`now − T_inv`, the same basis as
    /// [`RequestOutcome::queue_delay`]) reaches `deadline` is shed to CFS —
    /// at pop time *and* proactively at every poll tick. With the paper's
    /// rule a request can age unboundedly while all workers chew long
    /// functions; the deadline bounds how stale a request can get before
    /// the kernel takes over. The clock starts at invocation, so FILTER and
    /// I/O time from earlier rounds counts against a re-enqueued request's
    /// deadline.
    pub fn with_slo(cfg: SfsConfig, deadline: SimDuration) -> SfsController {
        assert!(!deadline.is_zero(), "SLO deadline must be positive");
        let mut c = SfsController::new(cfg);
        c.slo_deadline = Some(deadline);
        c
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Route a request into the configured queue topology.
    fn enqueue_req(&mut self, slot: u32) {
        self.states[slot as usize].loc = Loc::Queued;
        match self.cfg.queue_mode {
            QueueMode::Global => self.queue.push_back(slot),
            QueueMode::PerWorker => {
                let w = self.next_rr % self.worker_queues.len();
                self.next_rr += 1;
                self.worker_queues[w].push_back(slot);
            }
        }
    }

    /// Steps 2 / 4.4: idle workers fetch requests; overloaded requests are
    /// left to CFS.
    fn try_assign(&mut self, m: &mut MachineView<'_>) {
        match self.cfg.queue_mode {
            QueueMode::Global => loop {
                let Some(w) = self.workers.iter().position(|w| w.current.is_none()) else {
                    return;
                };
                let Some(slot) = self.queue.pop_front() else {
                    return;
                };
                self.assign_step(m, w, slot);
            },
            QueueMode::PerWorker => {
                for w in 0..self.workers.len() {
                    while self.workers[w].current.is_none() {
                        let Some(slot) = self.worker_queues[w].pop_front() else {
                            break;
                        };
                        self.assign_step(m, w, slot);
                    }
                }
            }
        }
    }

    /// Handle one popped request for an idle worker `w`: overload bypass,
    /// dead-skip, exhausted-slice demotion, or FILTER promotion. The worker
    /// remains idle unless a promotion happened.
    fn assign_step(&mut self, m: &mut MachineView<'_>, w: usize, slot: u32) {
        let now = m.now();
        let s_now = self.slice.current();
        let (pid, delay, age, budget) = {
            let st = &mut self.states[slot as usize];
            st.loc = Loc::None; // popped from its queue
            let delay = now.since(st.enqueued_at);
            if st.first_pop_delay.is_none() {
                st.first_pop_delay = Some(now.since(st.t_inv));
                if self.cfg.record_series {
                    self.queue_delay_series
                        .record(st.t_inv, now.since(st.t_inv).as_secs_f64());
                }
            }
            let budget = st.slice_remaining.unwrap_or(s_now);
            (st.pid, delay, now.since(st.t_inv), budget)
        };

        // Dead already (finished under CFS while queued after an I/O round,
        // or a zero-length race): nothing to schedule.
        if m.proc_state(pid) == ProcState::Dead {
            return;
        }

        // 4.4 Overload detection: queueing delay of the request we are
        // about to schedule exceeds O × S → temporary CFS bypass. The SLO
        // variant additionally sheds requests past their absolute deadline.
        let over_slo = self.slo_deadline.is_some_and(|d| age >= d);
        if over_slo || self.cfg.hybrid_overload {
            let threshold = SimDuration::from_millis_f64(
                self.slice.current().as_millis_f64() * self.cfg.overload_factor,
            );
            if over_slo || (self.cfg.hybrid_overload && delay >= threshold) {
                self.states[slot as usize].offloaded = true;
                self.offloaded_total += 1;
                // The process is already SCHED_NORMAL; leaving it to CFS
                // *is* the bypass. The worker stays free for the next
                // request, which drains the backlog fast.
                return;
            }
        }

        // Exhausted slice from previous rounds: demote instead of a
        // zero-length FILTER round.
        if budget.is_zero() {
            self.demote(m, slot, pid);
            return;
        }

        // Step 2: promote to FIFO — the FILTER pool.
        m.set_policy(
            pid,
            Policy::Fifo {
                prio: self.cfg.filter_prio,
            },
        );
        let cpu_at_start = m.cpu_time(pid);
        self.states[slot as usize].filter_rounds += 1;
        self.workers[w].gen += 1;
        let gen = self.workers[w].gen;
        self.workers[w].current = Some(Assignment {
            pid,
            slot,
            budget,
            cpu_at_start,
        });
        self.events
            .push(now + budget, SfsEv::SliceExpiry { w, gen });
    }

    /// 4.2: the FILTER slice timer fired.
    fn on_slice_expiry(&mut self, m: &mut MachineView<'_>, w: usize, gen: u64) {
        if self.workers[w].gen != gen {
            return; // stale timer: the worker moved on
        }
        let Some(a) = self.workers[w].current else {
            return;
        };
        match m.proc_state(a.pid) {
            ProcState::Dead => {
                // Completion notification is in flight at this same instant;
                // it will free the worker.
            }
            ProcState::Sleeping if self.cfg.io_aware => {
                // Blocked between polls and the timer beat the next poll:
                // treat as an I/O block (4.3).
                self.release_worker_for_io(m, w);
            }
            _ => {
                // Forcible preemption: demote to CFS.
                self.workers[w].current = None;
                self.workers[w].gen += 1;
                self.demote(m, a.slot, a.pid);
                self.try_assign(m);
            }
        }
    }

    fn demote(&mut self, m: &mut MachineView<'_>, slot: u32, pid: Pid) {
        m.set_policy(pid, Policy::NORMAL);
        let st = &mut self.states[slot as usize];
        st.demoted = true;
        st.slice_remaining = Some(SimDuration::ZERO);
        self.demoted_total += 1;
    }

    /// 4.3: periodic kernel-status polling (§V-D).
    fn on_poll(&mut self, m: &mut MachineView<'_>) {
        self.poll_armed = false;
        self.polls += 1;
        let mut freed = false;

        // Detect FILTER functions that went to sleep on I/O.
        if self.cfg.io_aware {
            for w in 0..self.workers.len() {
                let Some(a) = self.workers[w].current else {
                    continue;
                };
                self.polled_tasks += 1;
                if m.proc_state(a.pid) == ProcState::Sleeping {
                    self.release_worker_for_io(m, w);
                    freed = true;
                }
            }
            // Detect blocked functions that became runnable again: re-add to
            // the global queue with their unused slice.
            let now = m.now();
            let mut rewoken = std::mem::take(&mut self.rewoken);
            rewoken.clear();
            let states = &mut self.states;
            let polled = &mut self.polled_tasks;
            self.blocked.retain(|&slot| {
                let st = &mut states[slot as usize];
                *polled += 1;
                match m.proc_state(st.pid) {
                    ProcState::Sleeping => true,
                    ProcState::Dead => {
                        // Finished while blocked-tracked.
                        st.loc = Loc::None;
                        false
                    }
                    _ => {
                        rewoken.push(slot);
                        false
                    }
                }
            });
            for &slot in &rewoken {
                self.states[slot as usize].enqueued_at = now;
                self.enqueue_req(slot);
                freed = true;
            }
            self.rewoken = rewoken;
        }

        // SLO variant: proactively shed queued requests past their age
        // deadline instead of waiting for a worker to pop them. The shed
        // mirrors the pop-time bypass accounting: the request's (would-be
        // first-pop) queue delay is recorded so shed requests do not read
        // as zero-delay in the Fig. 12a-style series.
        if let Some(deadline) = self.slo_deadline {
            let now = m.now();
            let states = &mut self.states;
            let offloaded = &mut self.offloaded_total;
            let series = &mut self.queue_delay_series;
            let record_series = self.cfg.record_series;
            let mut shed = |q: &mut VecDeque<u32>| {
                q.retain(|&slot| {
                    let st = &mut states[slot as usize];
                    let age = now.since(st.t_inv);
                    if age >= deadline {
                        if st.first_pop_delay.is_none() {
                            st.first_pop_delay = Some(age);
                            if record_series {
                                series.record(st.t_inv, age.as_secs_f64());
                            }
                        }
                        st.offloaded = true;
                        st.loc = Loc::None;
                        *offloaded += 1;
                        false
                    } else {
                        true
                    }
                });
            };
            shed(&mut self.queue);
            for q in self.worker_queues.iter_mut() {
                shed(q);
            }
        }

        if freed {
            self.try_assign(m);
        }
        self.arm_poll(m);
    }

    /// Free worker `w` because its FILTER function blocked on I/O: record
    /// the unused slice, lower the function's priority, track it for wake
    /// detection, and let the worker fetch the next request.
    fn release_worker_for_io(&mut self, m: &mut MachineView<'_>, w: usize) {
        let Some(a) = self.workers[w].current.take() else {
            return;
        };
        self.workers[w].gen += 1;
        let used = m.cpu_time(a.pid).saturating_sub(a.cpu_at_start);
        let remaining = a.budget.saturating_sub(used);
        // "reduces its priority": back to CFS while it sleeps, so that when
        // the I/O completes it is runnable (work conservation) without
        // occupying the FILTER pool.
        m.set_policy(a.pid, Policy::NORMAL);
        let st = &mut self.states[a.slot as usize];
        st.slice_remaining = Some(remaining);
        st.io_blocks += 1;
        st.loc = Loc::Blocked;
        self.blocked.push(a.slot);
        self.try_assign(m);
    }

    fn arm_poll(&mut self, m: &MachineView<'_>) {
        let work_pending = self.workers.iter().any(|w| w.current.is_some())
            || !self.blocked.is_empty()
            || !self.queue.is_empty()
            || self.worker_queues.iter().any(|q| !q.is_empty());
        let poll_needed = self.cfg.io_aware || self.slo_deadline.is_some();
        if poll_needed && work_pending && !self.poll_armed {
            self.poll_armed = true;
            self.events
                .push(m.now() + self.cfg.poll_interval, SfsEv::Poll);
        }
    }
}

impl Controller for SfsController {
    fn name(&self) -> &'static str {
        if self.slo_deadline.is_some() {
            "sfs-slo"
        } else {
            "sfs"
        }
    }

    /// Step 1 of the flow: the process was dispatched to the OS; enqueue
    /// `(pid, T_inv)`.
    fn on_arrival(&mut self, m: &mut MachineView<'_>, req: &Request, pid: Pid) {
        let now = m.now();
        let id = req.id;
        let st = ReqState {
            pid,
            t_inv: now,
            enqueued_at: now,
            slice_remaining: None,
            first_pop_delay: None,
            loc: Loc::None,
            demoted: false,
            offloaded: false,
            filter_rounds: 0,
            io_blocks: 0,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.states[slot as usize] = st;
                slot
            }
            None => {
                self.states.push(st);
                (self.states.len() - 1) as u32
            }
        };
        self.slot_of_id.insert(id, slot);
        self.slice.on_arrival(now);
        self.enqueue_req(slot);
        self.try_assign(m);
        self.arm_poll(m);
    }

    fn on_notification(&mut self, m: &mut MachineView<'_>, note: &Notification) {
        if let Notification::Finished(rec) = note {
            let slot = self.slot_of_id[&rec.label] as usize;
            debug_assert_eq!(self.states[slot].pid, rec.pid, "id/slot mismatch");
            // Free the worker if this function was in a FILTER round.
            for w in 0..self.workers.len() {
                if self.workers[w].current.is_some_and(|a| a.pid == rec.pid) {
                    self.workers[w].current = None;
                    self.workers[w].gen += 1;
                }
            }
            // Drop from queue/blocked tracking if it completed under CFS
            // while still queued (e.g. after an I/O round). The location
            // flag makes the common cases — finished in a FILTER round or
            // after a bypass — free instead of scanning every queue.
            match self.states[slot].loc {
                Loc::None => {}
                Loc::Queued => {
                    let s = slot as u32;
                    self.queue.retain(|&q| q != s);
                    for q in self.worker_queues.iter_mut() {
                        q.retain(|&x| x != s);
                    }
                    self.states[slot].loc = Loc::None;
                }
                Loc::Blocked => {
                    let s = slot as u32;
                    self.blocked.retain(|&b| b != s);
                    self.states[slot].loc = Loc::None;
                }
            }
            self.try_assign(m);
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    fn on_wakeup(&mut self, m: &mut MachineView<'_>) {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        self.events.pop_batch_until(m.now(), &mut due);
        for &(_, ev) in due.iter() {
            match ev {
                SfsEv::SliceExpiry { w, gen } => self.on_slice_expiry(m, w, gen),
                SfsEv::Poll => self.on_poll(m),
            }
        }
        self.due = due;
    }

    fn annotate(&mut self, outcome: &mut RequestOutcome) {
        let slot = self
            .slot_of_id
            .remove(&outcome.id)
            .expect("finished request tracked");
        let st = &self.states[slot as usize];
        outcome.queue_delay = st.first_pop_delay.unwrap_or(SimDuration::ZERO);
        outcome.demoted = st.demoted;
        outcome.offloaded = st.offloaded;
        outcome.filter_rounds = st.filter_rounds;
        outcome.io_blocks = st.io_blocks;
        self.free_slots.push(slot);
    }

    fn finish(&mut self, telemetry: &mut Telemetry) {
        telemetry.polls = self.polls;
        telemetry.polled_tasks = self.polled_tasks;
        telemetry.offloaded = self.offloaded_total;
        telemetry.demoted = self.demoted_total;
        telemetry.slice_recalcs = self.slice.recalcs();
        telemetry.slice_timeline = self.slice.slice_timeline().clone();
        telemetry.iat_timeline = self.slice.iat_timeline().clone();
        telemetry.queue_delay_series = std::mem::replace(
            &mut self.queue_delay_series,
            TimeSeries::new("queue_delay_s"),
        );
    }
}

impl crate::sim::ControllerFactory for SfsConfig {
    fn build(&self) -> Box<dyn Controller> {
        Box::new(SfsController::new(*self))
    }

    fn label(&self) -> String {
        "SFS".to_string()
    }

    fn configure_machine(&self, params: &mut sfs_sched::MachineParams) {
        params.kpolicy = self.kpolicy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_sched::{FinishedTask, Machine, MachineParams, Phase, TaskSpec};
    use sfs_workload::AppKind;

    /// The `micro/sfs_dispatch` pattern: a fixed pool of live processes
    /// re-arrives again and again under fresh request ids, in bursts of
    /// varying size whose members finish in a scrambled order. The slab
    /// must recycle slots: it never holds more entries than the peak
    /// number of requests tracked at once.
    #[test]
    fn slab_never_outgrows_peak_concurrency() {
        let mut machine = Machine::new(MachineParams::linux(4));
        let pool: Vec<Pid> = (0..64)
            .map(|i| {
                machine.spawn(TaskSpec {
                    phases: vec![Phase::Cpu(SimDuration::from_millis(1 << 30))],
                    policy: Policy::NORMAL,
                    label: i,
                })
            })
            .collect();
        let mut ctl = SfsController::new(SfsConfig::new(4));
        let mut actions = 0;
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut peak = 0;
        for round in 0..2_000usize {
            now += SimDuration::from_micros(500);
            machine.advance_to(now);
            let mut view = MachineView::new(&mut machine, &mut actions);
            ctl.on_wakeup(&mut view);
            let burst = 1 + round % 9;
            let mut tracked = Vec::new();
            for k in 0..burst {
                let pid = pool[(round * 7 + k) % pool.len()];
                let req = Request {
                    id: next_id,
                    arrival: now,
                    app: AppKind::Fib,
                    duration_ms: 1.0,
                    injected_io_ms: None,
                    cold_start_ms: None,
                    spec: TaskSpec::cpu(next_id, SimDuration::from_millis(1)),
                };
                ctl.on_arrival(&mut view, &req, pid);
                tracked.push((next_id, pid));
                next_id += 1;
            }
            peak = peak.max(ctl.slot_of_id.len());
            assert!(ctl.states.len() <= peak, "slab outgrew peak concurrency");
            // Finish in a scrambled order.
            tracked.rotate_left(round % burst);
            for (id, pid) in tracked {
                let rec = FinishedTask {
                    pid,
                    label: id,
                    arrival: now,
                    first_run: Some(now),
                    finished: now,
                    cpu_time: SimDuration::from_millis(1),
                    io_time: SimDuration::ZERO,
                    cpu_demand: SimDuration::from_millis(1),
                    ideal: SimDuration::from_millis(1),
                    ctx_switches: 0,
                    migrations: 0,
                };
                let mut outcome = crate::sim::outcome_of(&rec);
                ctl.on_notification(&mut view, &Notification::Finished(Box::new(rec)));
                ctl.annotate(&mut outcome);
            }
        }
        assert_eq!(peak, 9);
        assert_eq!(ctl.states.len(), 9);
        assert!(ctl.slot_of_id.is_empty());
        assert_eq!(ctl.free_slots.len(), 9);
    }
}
