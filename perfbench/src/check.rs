//! Correctness checks and the simulated-time results of one run.
//!
//! Every run is checked, traced or not: each offered request is accounted
//! for exactly once (completed, or for the fleet shed or lost), ids are
//! unique, and every run-time effectiveness lies in (0, 1]. An order-
//! sensitive digest of the outcomes lets the caller prove that two runs
//! (repetitions, or traced against untraced) simulated the same thing.

use std::cell::Cell;

use sfs_core::{OutcomeSummary, RequestOutcome};
use sfs_simcore::Samples;
use sfs_workload::LONG_THRESHOLD_MS;

/// An order-sensitive hash over 64-bit words: one rotate, xor and
/// multiply per word (the FxHash fold), so that digesting every outcome
/// adds little to the host time it is measured inside.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    /// Fold in every field of an outcome record.
    pub fn outcome(&mut self, o: &RequestOutcome) {
        for w in [
            o.id,
            o.arrival.as_nanos(),
            o.finished.as_nanos(),
            o.turnaround.as_nanos(),
            o.ideal.as_nanos(),
            o.cpu_demand.as_nanos(),
            o.rte.to_bits(),
            o.ctx_switches,
            o.migrations,
            o.queue_delay.as_nanos(),
            u64::from(o.demoted) | u64::from(o.offloaded) << 1,
            u64::from(o.filter_rounds),
            u64::from(o.io_blocks),
        ] {
            self.word(w);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Turnaround samples of one run, in simulated ms.
#[derive(Clone, Debug, Default)]
pub struct Turnarounds {
    /// Every completed request.
    pub all: Vec<f64>,
    /// The completed short requests.
    pub short: Vec<f64>,
}

/// Check verdict and results of one run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Requests offered.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Outcome digest.
    pub digest: u64,
    /// Check failures, empty when the run is correct.
    pub errors: Vec<String>,
    /// Turnarounds, kept until the caller pools them.
    pub turnarounds: Option<Turnarounds>,
}

impl SimResult {
    /// Whether two runs simulated the same thing.
    pub fn same_as(&self, other: &SimResult) -> bool {
        (self.offered, self.completed, self.digest)
            == (other.offered, other.completed, other.digest)
    }
}

/// Simulated-time results pooled over several runs.
#[derive(Default)]
pub struct Pool {
    offered: usize,
    completed: usize,
    samples: Turnarounds,
}

/// Pooled simulated-time results.
pub struct Pooled {
    /// Requests offered.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Median turnaround of completed requests (simulated ms).
    pub p50_ms: f64,
    /// p99 turnaround of completed requests (simulated ms).
    pub p99_ms: f64,
    /// p99 turnaround of completed short requests (simulated ms).
    pub short_p99_ms: f64,
    /// Completed short requests.
    pub short_completed: usize,
}

impl Pool {
    /// Add one run's results, taking its turnaround samples.
    pub fn add(&mut self, r: &mut SimResult) {
        self.offered += r.offered;
        self.completed += r.completed;
        if let Some(t) = r.turnarounds.take() {
            self.samples.all.extend(t.all);
            self.samples.short.extend(t.short);
        }
    }

    /// Exact nearest-rank percentiles over everything added.
    pub fn finish(self) -> Pooled {
        let mut all = Samples::from_vec(self.samples.all);
        let mut short = Samples::from_vec(self.samples.short);
        Pooled {
            offered: self.offered,
            completed: self.completed,
            p50_ms: all.percentile(50.0),
            p99_ms: all.percentile(99.0),
            short_p99_ms: short.percentile(99.0),
            short_completed: short.len(),
        }
    }
}

/// Requests ranked after the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64) - 1e-9).ceil().max(1.0).min(n as f64) as usize
}

fn rte_ok(o: &RequestOutcome) -> bool {
    o.rte > 0.0 && o.rte <= 1.0
}

/// Check and summarise a materialised run: `outcomes` sorted by id,
/// `shed` and `lost` the ids the fleet refused or lost, `duration_ms`
/// the sampled duration of each offered request, indexed by id.
pub fn materialised(
    outcomes: &[RequestOutcome],
    shed: &[u64],
    lost: &[u64],
    duration_ms: &[f64],
) -> SimResult {
    let n = duration_ms.len();
    let mut errors = Vec::new();
    let mut seen = vec![false; n];
    let mut digest = Digest::default();
    for o in outcomes {
        digest.outcome(o);
    }
    for (tag, ids) in [(1u64, shed), (2, lost)] {
        for &id in ids {
            digest.word(tag << 62 | id);
        }
    }
    let all_ids = outcomes.iter().map(|o| o.id).chain(shed.iter().copied());
    for id in all_ids.chain(lost.iter().copied()) {
        match seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            _ if errors.len() < MAX_ERRORS => errors.push(format!(
                "request id {id} accounted for twice or never offered"
            )),
            _ => {}
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        let count = seen.iter().filter(|s| !**s).count();
        errors.push(format!(
            "{count} requests unaccounted for (first: {missing})"
        ));
    }
    if let Some(o) = outcomes.iter().find(|o| !rte_ok(o)) {
        errors.push(format!("request {} has rte {} outside (0, 1]", o.id, o.rte));
    }

    let mut all = Vec::with_capacity(outcomes.len());
    let mut short = Vec::new();
    for o in outcomes {
        let ms = o.turnaround.as_millis_f64();
        all.push(ms);
        if duration_ms
            .get(o.id as usize)
            .is_some_and(|&d| d < LONG_THRESHOLD_MS)
        {
            short.push(ms);
        }
    }
    SimResult {
        offered: n,
        completed: outcomes.len(),
        digest: digest.value(),
        errors,
        turnarounds: Some(Turnarounds { all, short }),
    }
}

/// The streaming sink: folds each outcome into an [`OutcomeSummary`],
/// the library's streaming statistics, and checks it on the fly. It also
/// keeps every turnaround, so the benchmark can report exact percentiles
/// and hold the summary's sketch to its 1 % error bound.
pub struct StreamSink<'a> {
    short: &'a [Cell<bool>],
    seen: Vec<bool>,
    summary: OutcomeSummary,
    samples: Turnarounds,
    digest: Digest,
    migrations: u64,
    errors: Vec<String>,
}

impl<'a> StreamSink<'a> {
    /// A sink for requests whose short/long class is in `short`, by id.
    pub fn new(short: &'a [Cell<bool>]) -> StreamSink<'a> {
        StreamSink {
            short,
            seen: vec![false; short.len()],
            summary: OutcomeSummary::new(),
            samples: Turnarounds {
                all: Vec::with_capacity(short.len()),
                short: Vec::with_capacity(short.len()),
            },
            digest: Digest::default(),
            migrations: 0,
            errors: Vec::new(),
        }
    }

    /// Take one completed request.
    pub fn observe(&mut self, o: RequestOutcome) {
        self.summarise(&o);
        self.check(&o);
    }

    /// Fold one outcome into the library's streaming statistics.
    pub fn summarise(&mut self, o: &RequestOutcome) {
        self.summary.observe(o);
    }

    /// The benchmark's own work on one outcome: keep its turnaround,
    /// check it, and digest it.
    pub fn check(&mut self, o: &RequestOutcome) {
        let id = o.id as usize;
        let ms = o.turnaround.as_millis_f64();
        self.samples.all.push(ms);
        if self.short.get(id).is_some_and(Cell::get) {
            self.samples.short.push(ms);
        }
        match self.seen.get_mut(id) {
            Some(s) if !*s => *s = true,
            _ => self.error(format!("request id {id} duplicated or never offered")),
        }
        if !rte_ok(o) {
            self.error(format!("request {id} has rte {} outside (0, 1]", o.rte));
        }
        self.migrations += o.migrations;
        self.digest.outcome(o);
    }

    fn error(&mut self, e: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(e);
        }
    }

    /// Migrations summed over completed requests.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Close the run: every offered request must have completed, and the
    /// summary's percentiles must lie within its error bound of the exact
    /// ones.
    pub fn finish(mut self) -> SimResult {
        let done = self.seen.iter().filter(|s| **s).count();
        if done != self.seen.len() {
            self.error(format!(
                "{} of {} requests completed",
                done,
                self.seen.len()
            ));
        }
        let mut exact = Samples::from_vec(self.samples.all.clone());
        for p in [50.0, 99.0] {
            let (sketch, truth) = (
                self.summary.turnaround_ms.percentile(p),
                exact.percentile(p),
            );
            if (sketch - truth).abs() > SKETCH_ALPHA * truth + 1e-9 {
                self.error(format!(
                    "OutcomeSummary p{p} is {sketch} ms, exact {truth} ms"
                ));
            }
        }
        SimResult {
            offered: self.seen.len(),
            completed: self.summary.requests as usize,
            digest: self.digest.value(),
            errors: self.errors,
            turnarounds: Some(self.samples),
        }
    }
}

/// `OutcomeSummary::new`'s relative error bound.
const SKETCH_ALPHA: f64 = 0.01;

/// Check failures one run reports at most.
const MAX_ERRORS: usize = 8;
