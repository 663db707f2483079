//! The repository benchmark: what the simulator costs on the host, and
//! what the modelled server does in simulated time, on two workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats untraced runs for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` alternates traced and untraced runs and
//! reports per-layer metrics. Both check every run. The last line of
//! standard output is one JSON object; the exit code is non-zero when a
//! check failed. See `README.md` in this directory.
//!
//! `--peak-rss-of <k>`, added to the other flags, runs only sub-workload
//! `k`, once, and prints the process's peak RSS in MiB; `--trace 0` runs
//! start one such process per sub-workload to measure `peak_rss_mib`.

mod check;
mod reference;
mod span;
mod workloads;

use std::process::ExitCode;

use check::{Pool, Pooled};
use reference::Reference;
use sfs_simcore::SeedSequencer;
use span::{median, Calibration, Stamp};
use workloads::{Kind, Rep, RepTrace};

/// Sub-workloads an end-to-end run simulates, each generated from its own
/// seed derived from `--seed`. The simulated results pool all of them:
/// one sub-workload's tail percentiles swing too much from seed to seed
/// to compare runs by.
const SUBS: usize = 8;
/// Sub-workloads a traced run covers: enough to attribute host time, few
/// enough that each is traced and run untraced more than once.
const TRACED_SUBS: usize = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run only this sub-workload, once, and print the process's peak RSS.
    peak_rss_of: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut peak_rss_of = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workloads::ALL.iter().map(|(n, _)| *n).collect();
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--peak-rss-of" => {
                let k = value.parse::<usize>().map_err(|_| bad())?;
                if k >= SUBS {
                    return Err(bad());
                }
                peak_rss_of = Some(k)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        peak_rss_of,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `num / den`, or 0 when nothing was counted.
fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process so far (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    sfs_bench::peak_rss_bytes()
        .map(|b| b as f64 / (1024.0 * 1024.0))
        .ok_or_else(|| "VmHWM is unavailable on this host".to_string())
}

/// One repetition of one sub-workload.
struct Run {
    sub: usize,
    /// False for the warm-up, which is checked but not timed.
    timed: bool,
    rep: Rep,
    /// The reference time around the repetition, in ns: the mean of a
    /// reading right before it and one right after (`Reference::ns`).
    ref_ns: f64,
}

impl Run {
    /// Host time `ns`, taken during this repetition, rescaled to the
    /// nominal reference speed.
    fn at_ref(&self, ns: u64) -> f64 {
        ns as f64 * reference::NOMINAL_NS / self.ref_ns
    }
}

/// The seed of each sub-workload a run simulates.
fn sub_seeds(seed: u64) -> Vec<u64> {
    let seq = SeedSequencer::new(seed);
    (0..SUBS as u64).map(|k| seq.seed_for(k)).collect()
}

/// Peak RSS of each sub-workload, each run once in a fresh process of
/// its own (`--peak-rss-of`), so that every figure belongs to one
/// sub-workload alone and not to the benchmark's pooled results.
fn sub_peak_rss_mib(a: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    (0..SUBS)
        .map(|k| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload_name(a.kind), "--seed"])
                .arg(a.seed.to_string())
                .args(["--seconds", "1", "--trace", "0", "--peak-rss-of"])
                .arg(k.to_string())
                .output()
                .map_err(|e| format!("cannot run the peak-RSS probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(mib) if out.status.success() => Ok(mib),
                _ => Err(format!(
                    "peak-RSS probe of sub-workload {k} failed: {}{}",
                    text.trim(),
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// Run sub-workload `sub` once, check it, and print the peak RSS.
fn peak_rss_probe(a: &Args, sub: usize) -> ExitCode {
    let rep = workloads::rep(a.kind, sub_seeds(a.seed)[sub], false);
    if let Some(e) = rep.sim.errors.first() {
        println!("CHECK FAILED: {e}");
        return ExitCode::FAILURE;
    }
    match peak_rss_mib() {
        Ok(mib) => {
            println!("{mib}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Cycle through `subs` sub-workloads, calling `one(sub)` each round,
/// until the next round would overrun `seconds` counted from `start`;
/// every sub-workload runs at least once. A warm-up round comes first,
/// checked but not timed: a fresh process pays page faults that a warm
/// one does not. The reference loops are timed right before and right
/// after each round.
fn repeat(
    start: Stamp,
    seconds: f64,
    subs: usize,
    mut one: impl FnMut(usize) -> Vec<Rep>,
) -> Vec<Run> {
    let budget = seconds * 1e9;
    let mut reference = Reference::new();
    let mut runs = Vec::new();
    for round in 0.. {
        let (sub, timed) = match round {
            0 => (0, false),
            r => ((r - 1) % subs, true),
        };
        let before = reference.ns();
        let reps = one(sub);
        let ref_ns = (before + reference.ns()) / 2.0;
        runs.extend(reps.into_iter().map(|rep| Run {
            sub,
            timed,
            rep,
            ref_ns,
        }));
        let spent = start.ns() as f64;
        let rounds = (round + 1) as f64;
        if round >= subs && spent + spent / rounds > budget {
            break;
        }
    }
    runs
}

/// Check failures across `runs`, including any repetition whose outcome
/// digest differs from the first run of the same sub-workload.
fn failures(runs: &[Run]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        errors.extend(r.rep.sim.errors.iter().map(|e| format!("run {i}: {e}")));
        let first = &runs
            .iter()
            .find(|f| f.sub == r.sub)
            .expect("r itself")
            .rep
            .sim;
        if !r.rep.sim.same_as(first) {
            errors.push(format!(
                "run {i}: sub-workload {} simulated differently from its first run \
                 (digest {:016x} vs {:016x})",
                r.sub, r.rep.sim.digest, first.digest
            ));
        }
    }
    errors
}

/// Median of `f` over the timed repetitions of each sub-workload, summed.
fn sum_of_medians<'a>(runs: impl Iterator<Item = &'a Run> + Clone, f: impl Fn(&Run) -> f64) -> f64 {
    let timed = runs.filter(|r| r.timed);
    let subs = timed.clone().map(|r| r.sub + 1).max().unwrap_or(0);
    (0..subs)
        .map(|k| {
            let mut v: Vec<f64> = timed.clone().filter(|r| r.sub == k).map(&f).collect();
            median(&mut v)
        })
        .sum()
}

fn end_to_end(a: &Args, runs: &[Run], pooled: Pooled, mut sub_rss_mib: Vec<f64>) -> Vec<Metric> {
    let n = pooled.offered as f64;
    let run_ns = sum_of_medians(runs.iter(), |r| r.at_ref(r.rep.run_ns));
    let raw_run_ns = sum_of_medians(runs.iter(), |r| r.rep.run_ns as f64);
    let timed = runs.iter().filter(|r| r.timed);
    let mut setup: Vec<f64> = timed
        .clone()
        .map(|r| r.at_ref(r.rep.setup_ns) * 1e-9)
        .collect();
    let mut raw_setup: Vec<f64> = timed
        .clone()
        .map(|r| r.rep.setup_ns as f64 * 1e-9)
        .collect();
    println!(
        "{} seed {}: {} timed runs over {} sub-workloads of {} requests in {:.1} s",
        workload_name(a.kind),
        a.seed,
        timed.clone().count(),
        SUBS,
        workloads::REQUESTS,
        a.seconds
    );
    let each: Vec<String> = timed
        .clone()
        .map(|r| {
            format!(
                "{:.0}",
                r.rep.sim.offered as f64 / (r.rep.run_ns as f64 * 1e-9)
            )
        })
        .collect();
    println!("  req/s of each run: {}", each.join(" "));
    let mut ref_ns: Vec<f64> = timed.clone().map(|r| r.ref_ns).collect();
    println!(
        "  reference time {:.2} ms (median; nominal {:.2} ms); before rescaling to it, \
         req_per_s {:.1} and setup_s {:.9}",
        median(&mut ref_ns) * 1e-6,
        reference::NOMINAL_NS * 1e-6,
        n / (raw_run_ns * 1e-9),
        median(&mut raw_setup)
    );
    let rss: Vec<String> = sub_rss_mib.iter().map(|m| format!("{m:.1}")).collect();
    println!(
        "  peak RSS of each sub-workload in a process of its own (MiB): {}",
        rss.join(" ")
    );
    println!(
        "  sim_turnaround p50/p99 over {} completed requests, {} beyond p99; \
         short p99 over {} requests, {} beyond",
        pooled.completed,
        check::beyond(pooled.completed, 0.99),
        pooled.short_completed,
        check::beyond(pooled.short_completed, 0.99)
    );
    vec![
        metric("req_per_s", n / (run_ns * 1e-9), "1/s"),
        metric("setup_s", median(&mut setup), "s"),
        metric("peak_rss_mib", median(&mut sub_rss_mib), "MiB"),
        metric("sim_turnaround_p50_ms", pooled.p50_ms, "sim_ms"),
        metric("sim_turnaround_p99_ms", pooled.p99_ms, "sim_ms"),
        metric("sim_short_turnaround_p99_ms", pooled.short_p99_ms, "sim_ms"),
        metric("completed_frac", pooled.completed as f64 / n, "frac"),
    ]
}

/// Net self time of each layer in one traced repetition, in ns: the raw
/// self time minus the span cost it carries (its own spans' inner part,
/// its children's outer part).
#[derive(Clone, Copy, Default)]
struct Nets {
    workload: f64,
    controller: f64,
    machine: f64,
    stats: f64,
    /// The benchmark's own checks inside the streaming sink.
    check: f64,
    dispatch: f64,
    exec: f64,
    /// Spans recorded in the repetition.
    spans: f64,
    /// Their calibrated cost.
    span_cost: f64,
}

fn nets(t: &RepTrace, stream: bool) -> Nets {
    let cal = &t.cal;
    let own = |s: span::SpanTotal| s.ns as f64 - s.calls as f64 * cal.inner_ns;
    let child = |s: span::SpanTotal| s.ns as f64 + s.calls as f64 * cal.outer_ns();
    let x = &t.exec;
    let spans: f64 = [t.gen, t.stats, t.check, t.run, x.exec, x.sim, x.hooks]
        .iter()
        .map(|s| s.calls as f64)
        .sum();
    let mut n = Nets {
        workload: own(t.gen),
        controller: own(x.hooks),
        stats: own(t.stats),
        check: own(t.check),
        spans,
        span_cost: spans * cal.full_ns,
        ..Nets::default()
    };
    if stream {
        n.machine = own(t.run) - child(t.gen) - child(t.stats) - child(t.check) - child(x.hooks);
    } else {
        n.machine = own(x.sim) - child(x.hooks);
        n.exec = own(x.exec) - child(x.sim);
        n.dispatch = own(t.run) - child(x.exec);
    }
    n
}

/// The spans and counters of a traced repetition.
fn trace_of(r: &Rep) -> &RepTrace {
    r.trace.as_ref().expect("a traced repetition")
}

fn per_layer(a: &Args, runs: &[Run]) -> Vec<Metric> {
    let stream = a.kind == Kind::StreamIoSmp;
    let traced = runs.iter().filter(|r| r.rep.trace.is_some());
    let untraced = runs.iter().filter(|r| r.rep.trace.is_none());
    let layer = |f: fn(&Nets) -> f64| {
        sum_of_medians(traced.clone(), |r| f(&nets(trace_of(&r.rep), stream)))
    };
    let host = |r: &Run| (r.rep.setup_ns + r.rep.run_ns) as f64;
    let traced_ns = sum_of_medians(traced.clone(), host);
    let untraced_ns = sum_of_medians(untraced, host);

    // Counters are deterministic: take each sub-workload's first traced run.
    let mut c = span::HostCounters::default();
    let mut d = workloads::DispatchCounters::default();
    let (mut n, mut units, mut max_share, mut spans) = (0.0, 0, 0.0f64, 0.0);
    for k in 0..TRACED_SUBS {
        let r = &traced
            .clone()
            .find(|r| r.sub == k)
            .expect("every sub-workload ran")
            .rep;
        let t = trace_of(r);
        c.add(&t.exec.counts);
        d.add(&t.dispatch);
        n += r.sim.offered as f64;
        units += t.exec.exec.calls;
        max_share = max_share.max(t.exec.max_unit as f64 / r.sim.offered as f64);
        spans += nets(t, stream).spans;
    }

    let net = Nets {
        workload: layer(|x| x.workload),
        controller: layer(|x| x.controller),
        machine: layer(|x| x.machine),
        stats: layer(|x| x.stats),
        check: layer(|x| x.check),
        dispatch: layer(|x| x.dispatch),
        exec: layer(|x| x.exec),
        spans,
        span_cost: layer(|x| x.span_cost),
    };
    let net_sum = net.workload
        + net.controller
        + net.machine
        + net.stats
        + net.check
        + net.dispatch
        + net.exec;
    let cal_of = |f: fn(&Calibration) -> f64| {
        median(
            &mut traced
                .clone()
                .map(|r| f(&trace_of(&r.rep).cal))
                .collect::<Vec<_>>(),
        )
    };
    let (full_ns, inner_ns, iqr_ns) = (
        cal_of(|c| c.full_ns),
        cal_of(|c| c.inner_ns),
        cal_of(|c| c.inner_iqr_ns),
    );
    println!(
        "{} seed {}: {} runs, traced and untraced, over {} sub-workloads of {} requests",
        workload_name(a.kind),
        a.seed,
        runs.len(),
        TRACED_SUBS,
        workloads::REQUESTS
    );
    let mut ref_ns: Vec<f64> = runs.iter().map(|r| r.ref_ns).collect();
    println!(
        "  reference time {:.2} ms (median; nominal {:.2} ms); per-layer times are not \
         rescaled to it",
        median(&mut ref_ns) * 1e-6,
        reference::NOMINAL_NS * 1e-6
    );
    println!(
        "  span cost {:.1} ns ({:.1} ns inside, IQR {:.2} ns); host ns/req traced {:.0}, \
         untraced {:.0}",
        full_ns,
        inner_ns,
        iqr_ns,
        traced_ns / n,
        untraced_ns / n
    );
    println!(
        "  net layer self times sum to {:.0} ns/req against {:.0} untraced ({:+.1}%), \
         of which the benchmark's own checks {:.0} ns/req; calibrated span cost {:.0} \
         ns/req, measured tracing overhead {:.0} ns/req",
        net_sum / n,
        untraced_ns / n,
        100.0 * (net_sum - untraced_ns) / untraced_ns,
        net.check / n,
        net.span_cost / n,
        (traced_ns - untraced_ns) / n
    );
    // The loop calibration runs with nothing else in flight; in place a
    // span costs more or less. The per-span gap between measured and
    // calibrated overhead bounds the error of every net self time.
    let gap = per((traced_ns - untraced_ns) - net.span_cost, spans).abs() + iqr_ns;
    println!(
        "  per-span calibration error {gap:.1} ns: controller.self_ns_per_req is {:.0} \
         +- {:.0} ns/req",
        net.controller / n,
        c.hook_calls as f64 * gap / n
    );

    // The streaming path has no fan-out layer: its exec metrics read 0.
    let exec_total = if stream {
        0.0
    } else {
        net.controller + net.machine + net.exec
    };
    vec![
        metric("controller.self_ns_per_req", net.controller / n, "ns/req"),
        metric(
            "controller.hook_calls_per_req",
            c.hook_calls as f64 / n,
            "1/req",
        ),
        metric(
            "controller.wakeups_per_req",
            c.timer_fires as f64 / n,
            "1/req",
        ),
        metric("controller.polls_per_req", c.polls as f64 / n, "1/req"),
        metric(
            "controller.polled_tasks_per_req",
            c.polled_tasks as f64 / n,
            "1/req",
        ),
        metric(
            "controller.sched_actions_per_req",
            c.sched_actions as f64 / n,
            "1/req",
        ),
        metric("controller.demoted_frac", c.demoted as f64 / n, "frac"),
        metric("controller.offloaded_frac", c.offloaded as f64 / n, "frac"),
        metric("machine.self_ns_per_req", net.machine / n, "ns/req"),
        metric("machine.steps_per_req", c.steps as f64 / n, "1/req"),
        metric(
            "machine.ns_per_step",
            per(net.machine, c.steps as f64),
            "ns/step",
        ),
        metric(
            "machine.ctx_switches_per_req",
            c.ctx_switches as f64 / n,
            "1/req",
        ),
        metric(
            "machine.migrations_per_req",
            c.migrations as f64 / n,
            "1/req",
        ),
        metric(
            "machine.notes_first_run_per_req",
            c.notes[0] as f64 / n,
            "1/req",
        ),
        metric(
            "machine.notes_blocked_per_req",
            c.notes[1] as f64 / n,
            "1/req",
        ),
        metric("machine.notes_woke_per_req", c.notes[2] as f64 / n, "1/req"),
        metric(
            "machine.notes_finished_per_req",
            c.notes[3] as f64 / n,
            "1/req",
        ),
        metric("workload.gen_ns_per_req", net.workload / n, "ns/req"),
        metric("stats.observe_ns_per_req", net.stats / n, "ns/req"),
        metric("dispatch.self_ns_per_req", net.dispatch / n, "ns/req"),
        metric("dispatch.shed_frac", d.shed as f64 / n, "frac"),
        metric("dispatch.lost_frac", d.lost as f64 / n, "frac"),
        metric("dispatch.spilled_frac", d.spilled as f64 / n, "frac"),
        metric("dispatch.cold_start_frac", d.cold_starts as f64 / n, "frac"),
        metric("dispatch.redispatches", d.redispatches as f64, "count"),
        metric("autoscale.boots", d.boots as f64, "count"),
        metric("autoscale.parks", d.parks as f64, "count"),
        metric("autoscale.reactivations", d.reactivations as f64, "count"),
        metric("autoscale.releases", d.releases as f64, "count"),
        metric("autoscale.warm_host_s", d.warm_host_ms / 1e3, "sim_s"),
        metric("exec.self_ns_per_req", net.exec / n, "ns/req"),
        metric("exec.host_sim_ns_per_req", exec_total / n, "ns/req"),
        metric("exec.units", units as f64, "count"),
        metric("exec.max_unit_share", max_share, "frac"),
        metric("trace.span_ns", full_ns, "ns"),
        metric(
            "trace.overhead_frac",
            per(traced_ns - untraced_ns, traced_ns),
            "frac",
        ),
    ]
}

fn workload_name(kind: Kind) -> &'static str {
    workloads::ALL
        .iter()
        .find(|(_, k)| *k == kind)
        .map(|(n, _)| *n)
        .expect("every kind is named")
}

/// Every traced run must count the same work as the first traced run of
/// its sub-workload.
fn counters_agree(runs: &[Run]) -> Vec<String> {
    let traced: Vec<&Run> = runs.iter().filter(|r| r.rep.trace.is_some()).collect();
    let counts = |r: &Run| {
        let t = trace_of(&r.rep);
        (t.exec.counts.clone(), t.dispatch.clone())
    };
    traced
        .iter()
        .filter(|r| {
            let first = traced.iter().find(|f| f.sub == r.sub).expect("r itself");
            counts(r) != counts(first)
        })
        .map(|r| {
            format!(
                "sub-workload {}: work counters differ between traced runs",
                r.sub
            )
        })
        .collect()
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };

    if let Some(sub) = a.peak_rss_of {
        return peak_rss_probe(&a, sub);
    }
    let start = Stamp::now();
    let seeds = sub_seeds(a.seed);
    let (runs, mut errors, metrics) = if a.trace {
        let runs = repeat(start, a.seconds, TRACED_SUBS, |k| {
            let before = span::calibrate();
            let mut traced = workloads::rep(a.kind, seeds[k], true);
            let cal = Calibration::mean(before, span::calibrate());
            traced.trace.as_mut().expect("a traced repetition").cal = cal;
            let untraced = workloads::rep(a.kind, seeds[k], false);
            let mut both = vec![traced, untraced];
            for rep in &mut both {
                rep.sim.turnarounds = None;
            }
            both
        });
        let mut errors = failures(&runs);
        errors.extend(counters_agree(&runs));
        let metrics = per_layer(&a, &runs);
        (runs, errors, Ok(metrics))
    } else {
        let mut pool = Pool::default();
        let rss = sub_peak_rss_mib(&a);
        let mut pooled = [false; SUBS];
        let runs = repeat(start, a.seconds, SUBS, |k| {
            let mut rep = workloads::rep(a.kind, seeds[k], false);
            if !std::mem::replace(&mut pooled[k], true) {
                pool.add(&mut rep.sim);
            }
            rep.sim.turnarounds = None;
            vec![rep]
        });
        let errors = failures(&runs);
        let metrics = rss.map(|rss| end_to_end(&a, &runs, pool.finish(), rss));
        (runs, errors, metrics)
    };
    let metrics = metrics.unwrap_or_else(|e| {
        errors.push(e);
        Vec::new()
    });
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("metric {} is not finite", m.name));
    }

    for m in &metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in errors.iter().take(20) {
        println!("CHECK FAILED: {e}");
    }
    let failed = runs.iter().filter(|r| !r.rep.sim.errors.is_empty()).count();
    let correct = errors.is_empty();
    println!(
        "{}",
        json(
            correct,
            runs.len(),
            failed.max(usize::from(!correct)),
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
