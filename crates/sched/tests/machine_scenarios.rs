//! Scenario tests for the machine: hand-computable schedules exercising
//! nice weights, migrations, mixed policies, SRTF with I/O, and the
//! external-control (schedtool/procfs) surface under adversarial timing.

use sfs_sched::{
    run_open_loop, KernelPolicyKind, Machine, MachineParams, Notification, Phase, Policy,
    ProcState, TaskSpec,
};
use sfs_simcore::{SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

fn exact(cores: usize) -> MachineParams {
    MachineParams {
        cores,
        ctx_switch_cost: SimDuration::ZERO,
        kpolicy: KernelPolicyKind::Cfs,
        ..Default::default()
    }
}

#[test]
fn nice_weights_shift_cpu_share() {
    // A nice -5 task against a nice 5 task on one core: the heavy task gets
    // weight 3121 vs 335, ~90% of the CPU, so it finishes far earlier.
    let heavy = TaskSpec {
        phases: vec![Phase::Cpu(ms(100))],
        policy: Policy::Normal { nice: -5 },
        label: 0,
    };
    let light = TaskSpec {
        phases: vec![Phase::Cpu(ms(100))],
        policy: Policy::Normal { nice: 5 },
        label: 1,
    };
    let done = run_open_loop(exact(1), [(at(0), heavy), (at(0), light)]);
    let h = done.iter().find(|t| t.label == 0).unwrap();
    let l = done.iter().find(|t| t.label == 1).unwrap();
    assert!(
        h.finished < l.finished,
        "heavy task must finish first: {} vs {}",
        h.finished,
        l.finished
    );
    // The heavy task should finish in well under 150ms (it owns ~90%).
    assert!(h.finished < at(150), "heavy finished at {}", h.finished);
    assert_eq!(l.finished, at(200), "total work conserved");
}

#[test]
fn task_migrates_to_idle_core() {
    // Two tasks overlap on core placement, then one core frees up: the
    // queued task must migrate and record it.
    let mut m = Machine::new(exact(2));
    let _a = m.spawn(TaskSpec::cpu(0, ms(100)));
    let _b = m.spawn(TaskSpec::cpu(1, ms(10)));
    let _c = m.spawn(TaskSpec::cpu(2, ms(10)));
    let _d = m.spawn(TaskSpec::cpu(3, ms(100)));
    m.run_until_quiescent();
    // All complete; makespan reflects work conservation on 2 cores:
    // 220ms total / 2 = 110ms.
    let makespan = m.finished().iter().map(|t| t.finished).max().unwrap();
    assert!(makespan <= at(112), "makespan {makespan}");
}

#[test]
fn rt_task_starves_cfs_until_block() {
    let rt = TaskSpec {
        phases: vec![Phase::Cpu(ms(50)), Phase::Io(ms(20)), Phase::Cpu(ms(50))],
        policy: Policy::Fifo { prio: 50 },
        label: 0,
    };
    let cfs = TaskSpec::cpu(1, ms(30));
    let done = run_open_loop(exact(1), [(at(0), rt), (at(0), cfs)]);
    let c = done.iter().find(|t| t.label == 1).unwrap();
    // CFS only runs inside the RT task's 20ms I/O window [50,70), then
    // resumes after the RT task finishes at 120.
    assert_eq!(c.finished, at(130));
    let r = done.iter().find(|t| t.label == 0).unwrap();
    assert_eq!(r.finished, at(120));
}

#[test]
fn srtf_accounts_remaining_after_io() {
    // SRTF keys on *remaining CPU*: a task that already burned most of its
    // demand outranks a fresh medium task.
    let phased = TaskSpec {
        phases: vec![Phase::Cpu(ms(80)), Phase::Io(ms(50)), Phase::Cpu(ms(10))],
        policy: Policy::NORMAL,
        label: 0,
    };
    let fresh = TaskSpec::cpu(1, ms(45));
    let done = run_open_loop(
        MachineParams {
            cores: 1,
            ctx_switch_cost: SimDuration::ZERO,
            kpolicy: KernelPolicyKind::Srtf,
            ..Default::default()
        },
        [(at(0), phased), (at(100), fresh)],
    );
    // phased: cpu 0-80, io 80-130. fresh arrives at 100, starts (only
    // runnable), has 45ms demand. phased wakes at 130 with 10ms remaining
    // < fresh's 15ms remaining → preempts; fresh resumes after.
    let p = done.iter().find(|t| t.label == 0).unwrap();
    assert_eq!(p.finished, at(140));
    let f = done.iter().find(|t| t.label == 1).unwrap();
    assert_eq!(f.finished, at(155));
}

#[test]
fn set_policy_on_queued_task_requeues_correctly() {
    // A CFS task waiting behind an RT hog is promoted to FIFO: it must jump
    // into the RT queue and run as soon as the hog blocks/finishes.
    let mut m = Machine::new(exact(1));
    let _hog = m.spawn(TaskSpec {
        phases: vec![Phase::Cpu(ms(100))],
        policy: Policy::Fifo { prio: 60 },
        label: 0,
    });
    let waiting = m.spawn(TaskSpec::cpu(1, ms(10)));
    m.advance_to(at(5));
    assert_eq!(m.proc_state(waiting), ProcState::Runnable);
    m.set_policy(waiting, Policy::Fifo { prio: 50 });
    m.run_until_quiescent();
    let w = m.finished().iter().find(|t| t.label == 1).unwrap();
    assert_eq!(
        w.finished,
        at(110),
        "promoted task runs right after the hog"
    );
}

#[test]
fn set_policy_on_dead_task_is_a_noop() {
    let mut m = Machine::new(exact(1));
    let a = m.spawn(TaskSpec::cpu(0, ms(5)));
    m.run_until_quiescent();
    assert_eq!(m.proc_state(a), ProcState::Dead);
    m.set_policy(a, Policy::Fifo { prio: 99 }); // must not panic or revive
    assert_eq!(m.proc_state(a), ProcState::Dead);
    assert_eq!(m.finished().len(), 1);
}

#[test]
fn equal_priority_fifo_does_not_preempt() {
    let mk = |label| TaskSpec {
        phases: vec![Phase::Cpu(ms(50))],
        policy: Policy::Fifo { prio: 50 },
        label,
    };
    let done = run_open_loop(exact(1), [(at(0), mk(0)), (at(10), mk(1))]);
    let first = done.iter().find(|t| t.label == 0).unwrap();
    assert_eq!(first.finished, at(50));
    assert_eq!(first.ctx_switches, 0, "same-prio arrival must not preempt");
    let second = done.iter().find(|t| t.label == 1).unwrap();
    assert_eq!(second.finished, at(100));
}

#[test]
fn mixed_rr_and_fifo_share_by_priority() {
    // RR at prio 60 outranks FIFO at prio 40 entirely.
    let rr = TaskSpec {
        phases: vec![Phase::Cpu(ms(150))],
        policy: Policy::Rr { prio: 60 },
        label: 0,
    };
    let fifo = TaskSpec {
        phases: vec![Phase::Cpu(ms(30))],
        policy: Policy::Fifo { prio: 40 },
        label: 1,
    };
    let done = run_open_loop(exact(1), [(at(0), rr), (at(0), fifo)]);
    assert_eq!(
        done.iter().find(|t| t.label == 0).unwrap().finished,
        at(150)
    );
    assert_eq!(
        done.iter().find(|t| t.label == 1).unwrap().finished,
        at(180)
    );
}

#[test]
fn wakeup_preemption_favours_lagging_sleeper() {
    // An I/O task that slept re-enters with the queue's min vruntime; the
    // long-running current task has accumulated far more vruntime, so the
    // waker preempts (wakeup_granularity hysteresis notwithstanding).
    let sleeper = TaskSpec {
        phases: vec![Phase::Cpu(ms(2)), Phase::Io(ms(50)), Phase::Cpu(ms(2))],
        policy: Policy::NORMAL,
        label: 0,
    };
    let hog = TaskSpec::cpu(1, ms(500));
    let done = run_open_loop(exact(1), [(at(0), sleeper), (at(0), hog)]);
    let s = done.iter().find(|t| t.label == 0).unwrap();
    // Without wakeup preemption the sleeper would wait out a full slice
    // (~12-24ms) after waking at ~52ms; with it, it finishes promptly.
    assert!(
        s.finished < at(80),
        "sleeper delayed too long: {}",
        s.finished
    );
}

#[test]
fn zero_length_advance_and_empty_machine_are_safe() {
    let mut m = Machine::new(exact(2));
    assert!(m.next_event_time().is_none());
    let notes = m.advance_to(at(0));
    assert!(notes.is_empty());
    let notes = m.run_until_quiescent();
    assert!(notes.is_empty());
    assert_eq!(m.live_tasks(), 0);
    assert_eq!(m.total_ctx_switches(), 0);
}

#[test]
fn live_task_count_tracks_lifecycle() {
    let mut m = Machine::new(exact(1));
    let _a = m.spawn(TaskSpec::cpu(0, ms(10)));
    let _b = m.spawn(TaskSpec::io_then_cpu(1, ms(30), ms(10)));
    assert_eq!(m.live_tasks(), 2);
    m.advance_to(at(15));
    assert_eq!(m.live_tasks(), 1, "pure-CPU task finished");
    m.run_until_quiescent();
    assert_eq!(m.live_tasks(), 0);
}

#[test]
fn contention_factor_reflects_active_tasks() {
    let mut params = exact(2);
    params.contention_beta = 1.0;
    params.contention_cap = 3.0;
    let mut m = Machine::new(params);
    assert_eq!(m.contention_factor(), 1.0);
    for i in 0..2 {
        m.spawn(TaskSpec::cpu(i, ms(100)));
    }
    assert_eq!(m.contention_factor(), 1.0, "at capacity: no inflation");
    for i in 2..8 {
        m.spawn(TaskSpec::cpu(i, ms(100)));
    }
    // 8 active on 2 cores → 1 + log2(4) = 3.0 (at the cap).
    assert!((m.contention_factor() - 3.0).abs() < 1e-9);
    m.run_until_quiescent();
    assert_eq!(m.contention_factor(), 1.0, "all done: inflation gone");
}

#[test]
fn advance_into_delivers_events_at_exact_span_end() {
    // Regression for the end-of-span edge: a handler that runs *during* an
    // advance may schedule a follow-up event for exactly the span-end
    // instant `t` (here: the CPU-phase completion at t=10 schedules the I/O
    // wake at t=20 while `advance_to(20)` is in flight). The delivery
    // contract says that wake belongs to *this* span — a batch pop of the
    // events due at call entry would silently defer it to the next call.
    let mut m = Machine::new(exact(1));
    let a = m.spawn(TaskSpec {
        phases: vec![Phase::Cpu(ms(10)), Phase::Io(ms(10)), Phase::Cpu(ms(5))],
        policy: Policy::NORMAL,
        label: 0,
    });

    // Span 1 ends exactly at the block instant: Blocked(10) is due at the
    // boundary and must not leak into the next call.
    let notes = m.advance_to(at(10));
    assert!(
        notes
            .iter()
            .any(|n| matches!(n, Notification::Blocked(p, t) if *p == a && *t == at(10))),
        "Blocked at exact span end must be in-span: {notes:?}"
    );
    assert_eq!(m.proc_state(a), ProcState::Sleeping);

    // Span 2 ends exactly at the wake instant; the Wake event was pushed by
    // the Blocked handler mid-advance in a fully incremental run, but here
    // it proves the boundary case: due == t is delivered, never deferred.
    let notes = m.advance_to(at(20));
    assert!(
        notes
            .iter()
            .any(|n| matches!(n, Notification::Woke(p, t) if *p == a && *t == at(20))),
        "Woke at exact span end must be in-span: {notes:?}"
    );
    // And the wake's *consequence* (the dispatch) also lands in-span: the
    // task is already Running when the call returns, so a zero-length
    // follow-up advance observes nothing new.
    assert_eq!(m.proc_state(a), ProcState::Running);
    let notes = m.advance_to(at(20));
    assert!(
        notes.is_empty(),
        "span-end events must not replay: {notes:?}"
    );

    m.run_until_quiescent();
    assert_eq!(m.finished().len(), 1);
}

#[test]
fn advance_into_single_call_spans_handler_scheduled_boundary_event() {
    // The single-call variant of the edge: one advance covers block AND
    // wake, where the wake event is created by a handler *inside* the span
    // for the exact instant the span ends.
    let mut m = Machine::new(exact(1));
    let a = m.spawn(TaskSpec {
        phases: vec![Phase::Cpu(ms(10)), Phase::Io(ms(10)), Phase::Cpu(ms(5))],
        policy: Policy::NORMAL,
        label: 0,
    });
    let notes = m.advance_to(at(20));
    let blocked = notes
        .iter()
        .position(|n| matches!(n, Notification::Blocked(p, _) if *p == a));
    let woke = notes
        .iter()
        .position(|n| matches!(n, Notification::Woke(p, t) if *p == a && *t == at(20)));
    assert!(
        blocked.is_some() && woke.is_some(),
        "both Blocked and the handler-scheduled end-of-span Woke belong to \
         one span: {notes:?}"
    );
    assert!(blocked < woke, "stream order follows simulated time");
}

#[test]
fn heavily_oversubscribed_machine_terminates() {
    // 400 tasks on 2 cores with default CFS settings: a stress test for the
    // event engine's termination and bookkeeping.
    let arrivals: Vec<_> = (0..400)
        .map(|i| (at(i / 4), TaskSpec::cpu(i, ms(1 + (i % 30)))))
        .collect();
    let done = run_open_loop(exact(2), arrivals);
    assert_eq!(done.len(), 400);
    let total: SimDuration = done.iter().map(|t| t.cpu_time).sum();
    let expect: u64 = (0..400u64).map(|i| 1 + (i % 30)).sum();
    assert_eq!(total, ms(expect));
}

#[test]
fn compaction_bounds_the_task_table_on_a_busy_host() {
    // Tasks overlap so that the machine never goes idle, yet no task lives
    // long: a few CPU tasks plus the odd I/O straggler are live at any
    // instant. Compacting after every advance must keep the task table
    // within 2 × (live pid window) + 1024, where the window runs from the
    // oldest live pid to the newest pid, while total spawns grow far past
    // that bound.
    let mut m = Machine::new(MachineParams::linux(4));
    let mut live = std::collections::BTreeSet::new();
    let spawns = 40_000u64;
    let mut peak_len = 0;
    for i in 0..spawns {
        m.advance_to(at(i));
        let spec = if i % 10 == 0 {
            TaskSpec {
                phases: vec![Phase::Cpu(ms(1)), Phase::Io(ms(40)), Phase::Cpu(ms(1))],
                policy: Policy::NORMAL,
                label: i,
            }
        } else {
            TaskSpec::cpu(i, ms(3))
        };
        live.insert(m.spawn(spec));
        let next = at(i + 1);
        for note in m.advance_to(next - SimDuration::from_micros(1)) {
            if let Notification::Finished(rec) = note {
                assert!(live.remove(&rec.pid));
            }
        }
        assert!(m.live_tasks() > 0, "the host went idle at task {i}");
        m.compact();
        let oldest = live.first().expect("a task is live").0;
        let window = (i - oldest + 1) as usize;
        assert!(
            m.task_table_len() <= 2 * window + 1024,
            "table {} over the bound for window {window} after {} spawns",
            m.task_table_len(),
            i + 1
        );
        peak_len = peak_len.max(m.task_table_len());
    }
    assert!(peak_len < 1200, "peak task table {peak_len}");
    assert_eq!(m.live_tasks(), live.len());
}
