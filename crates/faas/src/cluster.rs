//! Multi-server offloading at cluster scale (the paper's stated future
//! work, §VIII-A): *"Longer functions could be potentially offloaded to
//! relatively lighter-loaded FaaS servers by the global FaaS scheduler to
//! mitigate the performance impact."*
//!
//! A [`Cluster`] of identical hosts behind one global dispatcher — the
//! [`Fleet`] dispatcher, run on one always-on region (see below). The
//! dispatcher runs an **event-driven loop**: request arrivals interleave
//! with predicted host-completion events, so every placement decision sees
//! *live* per-host state ([`HostLoad`]: outstanding queue depth, remaining
//! backlog, and an EWMA of recent turnarounds) rather than a static
//! pre-assignment. The dispatcher's view is its own dispatch log plus the
//! per-function duration statistics SFS already keeps — it never peeks at
//! host internals, matching the paper's architecture.
//!
//! Placement policies ([`Placement`]):
//!
//! * [`RoundRobin`](Placement::RoundRobin) — baseline spreading;
//! * [`LeastLoaded`](Placement::LeastLoaded) — join the host with the
//!   least remaining modelled backlog at the arrival instant;
//! * [`LongToLightest`](Placement::LongToLightest) — the paper's proposal:
//!   short functions rotate (they are latency-critical and any FILTER pool
//!   serves them); functions predicted long are steered to the host with
//!   the least outstanding *long* work, so their demoted-CFS phase faces
//!   the least competition;
//! * [`JoinShortestQueue`](Placement::JoinShortestQueue) — join the host
//!   with the fewest outstanding requests, ties broken by the lower EWMA
//!   of recent turnarounds;
//! * [`ConsistentHash`](Placement::ConsistentHash) — locality-aware: each
//!   function (a FaaSBench `(app, fib-N)` deployment) hashes onto a ring
//!   of host virtual nodes, with Google-style *bounded loads* (a host more
//!   than 25% above the mean outstanding depth is skipped clockwise), so
//!   warm-container affinity composes with live load feedback.
//!
//! Warm-container affinity is modelled cluster-wide via [`Affinity`]: a
//! host that has not served a function within the keep-alive window pays a
//! cold-start CPU penalty (a leading CPU phase, the same idiom
//! `WorkloadSpec::cold_start_mix` uses). Locality-blind placements scatter
//! functions and pay it often; `ConsistentHash` concentrates them.
//!
//! # The one-region fleet
//!
//! [`Cluster::run_with_threads`] builds a [`Fleet`] with one region at
//! zero RTT, `initial = min = max = hosts`, infinite spill and shed
//! thresholds, no autoscaler, and no faults, and runs the fleet's routing
//! and execution phases on it. Three facts make the result exactly the
//! single-pool dispatch described above:
//!
//! * zero RTT makes the fleet's front-door re-basing of outcomes a no-op
//!   (it uses the same rte formula as the host simulation);
//! * with infinite thresholds every request is routed to the one region,
//!   and with completions as the only events the fleet's `(time, class,
//!   seq)` event order is the `(time, dispatch seq)` order;
//! * the hash ring is seeded by an argument of the routing phase, so the
//!   cluster's ring derives from [`Cluster::seed`] itself rather than from
//!   a per-region seed.
//!
//! Determinism under parallel execution is the fleet's: placement is one
//! sequential event loop and execution fans out over
//! [`sfs_simcore::parallel::run_indexed`], so a run is bit-identical at
//! any thread count.

use sfs_core::{ControllerFactory, RequestOutcome, SfsConfig};
use sfs_simcore::{parallel, SeedSequencer, SimDuration, SimTime};
use sfs_workload::{AppKind, Request, Table1Sampler, Workload, LONG_THRESHOLD_MS};

use crate::fleet::{Fleet, FrontDoor, RegionConfig};

/// Global dispatcher placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Requests go to hosts in rotation.
    RoundRobin,
    /// Requests join the host with the least remaining modelled backlog.
    LeastLoaded,
    /// Short functions rotate; predicted-long functions go to the host
    /// with the least outstanding *long* work.
    LongToLightest,
    /// Requests join the host with the fewest outstanding requests (ties:
    /// lower EWMA of recent turnarounds).
    JoinShortestQueue,
    /// Functions hash onto a ring of host virtual nodes with bounded
    /// loads, maximising warm-container hits under [`Affinity`].
    ConsistentHash,
}

impl Placement {
    /// Every placement, in presentation order.
    pub const ALL: [Placement; 5] = [
        Placement::RoundRobin,
        Placement::LeastLoaded,
        Placement::LongToLightest,
        Placement::JoinShortestQueue,
        Placement::ConsistentHash,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::LeastLoaded => "least-loaded",
            Placement::LongToLightest => "long-to-lightest",
            Placement::JoinShortestQueue => "join-shortest-queue",
            Placement::ConsistentHash => "consistent-hash",
        }
    }

    /// Parse a CLI spelling (the [`Placement::name`] strings plus the
    /// short aliases `rr`, `ll`, `l2l`, `jsq`, `hash`).
    pub fn parse(s: &str) -> Option<Placement> {
        match s {
            "round-robin" | "rr" => Some(Placement::RoundRobin),
            "least-loaded" | "ll" => Some(Placement::LeastLoaded),
            "long-to-lightest" | "l2l" => Some(Placement::LongToLightest),
            "join-shortest-queue" | "jsq" => Some(Placement::JoinShortestQueue),
            "consistent-hash" | "hash" => Some(Placement::ConsistentHash),
            _ => None,
        }
    }
}

/// Warm-container affinity model: a host that has not served a function
/// within `keep_alive` of a request's arrival pays `cold_start` of extra
/// CPU before the function body (container spin-up).
#[derive(Debug, Clone, Copy)]
pub struct Affinity {
    /// How long a per-function container stays warm after its last use.
    pub keep_alive: SimDuration,
    /// CPU penalty of a cold start.
    pub cold_start: SimDuration,
}

/// Live per-host state as the dispatcher models it — what a placement
/// policy sees at each arrival instant. Updated by the event loop: depth
/// and long-work fall at predicted completions, the EWMA folds in each
/// completed request's turnaround.
#[derive(Debug, Clone)]
pub struct HostLoad {
    /// Outstanding requests: dispatched, not yet predicted complete.
    pub depth: usize,
    /// Outstanding predicted service (ms) of the *long* population.
    pub outstanding_long_ms: f64,
    /// EWMA of predicted turnarounds (ms) at this host's completions;
    /// `None` until the first completion.
    pub ewma_turnaround_ms: Option<f64>,
    /// Predicted next-free instant of each core (the dispatcher's c-server
    /// FIFO model of the host).
    core_free: Vec<SimTime>,
}

impl HostLoad {
    pub(crate) fn new(cores: usize) -> HostLoad {
        HostLoad {
            depth: 0,
            outstanding_long_ms: 0.0,
            ewma_turnaround_ms: None,
            core_free: vec![SimTime::ZERO; cores],
        }
    }

    /// Crash / re-provision hook for the fleet layer: wipe the modelled
    /// state back to an empty host whose cores free up at `now` (a crashed
    /// host loses its queue; a re-provisioned one starts fresh). The EWMA
    /// is dropped too — turnaround history died with the old instance.
    pub(crate) fn reset(&mut self, now: SimTime) {
        self.depth = 0;
        self.outstanding_long_ms = 0.0;
        self.ewma_turnaround_ms = None;
        self.core_free.fill(now);
    }

    /// Remaining modelled backlog (ms) at `now`: how much already-placed
    /// work the host's cores still have ahead of them.
    pub fn backlog_ms(&self, now: SimTime) -> f64 {
        self.core_free
            .iter()
            .map(|&f| {
                if f > now {
                    f.since(now).as_millis_f64()
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Dispatch `service_ms` of work at `now`; returns the predicted
    /// completion instant under the c-server FIFO model.
    pub(crate) fn admit(&mut self, now: SimTime, service_ms: f64) -> SimTime {
        let core = (0..self.core_free.len())
            .min_by_key(|&c| self.core_free[c])
            .expect("hosts have at least one core");
        let start = self.core_free[core].max(now);
        let finish = start + SimDuration::from_millis_f64(service_ms);
        self.core_free[core] = finish;
        finish
    }
}

/// A cluster of identical SFS hosts behind one global dispatcher.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Number of hosts.
    pub hosts: usize,
    /// Cores per host.
    pub cores_per_host: usize,
    /// SFS configuration applied on every host by [`Cluster::run`].
    pub sfs: SfsConfig,
    /// Warm-container affinity model; `None` disables cold starts (every
    /// host serves every function at full speed).
    pub affinity: Option<Affinity>,
    /// EWMA smoothing factor for the turnaround feedback (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// Seed for the consistent-hash ring (virtual-node positions derive
    /// from it by pure `SeedSequencer` functions).
    pub seed: u64,
    /// Virtual nodes per host on the hash ring.
    pub vnodes: usize,
}

/// Result of a cluster run.
#[derive(Debug)]
pub struct ClusterRun {
    /// Outcomes across all hosts, sorted by request id.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests placed per host.
    pub per_host: Vec<usize>,
    /// The placement used.
    pub placement: Placement,
    /// Cold starts the affinity model charged (0 without [`Affinity`]).
    pub cold_starts: u64,
}

impl Cluster {
    /// A cluster of `hosts` × `cores_per_host` with default SFS settings
    /// and no warm-container affinity model.
    pub fn new(hosts: usize, cores_per_host: usize) -> Cluster {
        assert!(hosts >= 1 && cores_per_host >= 1);
        Cluster {
            hosts,
            cores_per_host,
            sfs: SfsConfig::new(cores_per_host),
            affinity: None,
            ewma_alpha: 0.2,
            seed: 0xC105_7E4D,
            vnodes: 64,
        }
    }

    /// Enable the warm-container affinity model.
    pub fn with_affinity(mut self, keep_alive: SimDuration, cold_start: SimDuration) -> Cluster {
        self.affinity = Some(Affinity {
            keep_alive,
            cold_start,
        });
        self
    }

    /// Dispatch `workload` across the cluster under `placement` and run
    /// every host to completion with this cluster's SFS configuration.
    pub fn run(&self, placement: Placement, workload: &Workload) -> ClusterRun {
        self.run_with(placement, &self.sfs, workload)
    }

    /// As [`Cluster::run`], with any per-host scheduling policy: one fresh
    /// controller is built per host from `factory` (hosts share nothing
    /// but the dispatcher, as in a real FaaS fleet). Hosts execute in
    /// parallel on the default worker count.
    pub fn run_with(
        &self,
        placement: Placement,
        factory: &(dyn ControllerFactory + Sync),
        workload: &Workload,
    ) -> ClusterRun {
        self.run_with_threads(placement, factory, workload, parallel::default_threads())
    }

    /// As [`Cluster::run_with`] with an explicit worker-thread count. The
    /// result is bit-identical for every `threads` value ≥ 1.
    pub fn run_with_threads(
        &self,
        placement: Placement,
        factory: &(dyn ControllerFactory + Sync),
        workload: &Workload,
        threads: usize,
    ) -> ClusterRun {
        let fleet = self.as_fleet();
        let plan = fleet.route(placement, workload, |_| self.seed);
        ClusterRun {
            outcomes: fleet.execute(&plan, factory, workload, threads),
            per_host: plan.placed_per_host(0, self.hosts),
            placement,
            cold_starts: plan.cold_starts,
        }
    }

    /// This cluster as a one-region fleet (see the module docs for why its
    /// results are the cluster's, bit for bit).
    fn as_fleet(&self) -> Fleet {
        Fleet {
            regions: vec![RegionConfig {
                rtt_ms: 0.0,
                initial_hosts: self.hosts,
                max_hosts: self.hosts,
                min_hosts: self.hosts,
            }],
            cores_per_host: self.cores_per_host,
            sfs: self.sfs,
            affinity: self.affinity,
            front_door: FrontDoor {
                spill_backlog_ms: f64::INFINITY,
                shed_backlog_ms: f64::INFINITY,
            },
            autoscaler: None,
            faults: None,
            ewma_alpha: self.ewma_alpha,
            seed: self.seed,
            vnodes: self.vnodes,
        }
    }
}

/// The consistent-hash ring of one region: `vnodes` positions per host,
/// derived from `seed` by a pure function.
pub(crate) fn build_ring(hosts: usize, vnodes: usize, seed: u64) -> Vec<(u64, usize)> {
    let seq = SeedSequencer::new(seed);
    let mut ring: Vec<(u64, usize)> = (0..hosts)
        .flat_map(|h| (0..vnodes).map(move |v| (seq.seed_for((h * vnodes + v) as u64), h)))
        .collect();
    ring.sort_unstable();
    ring
}

/// Google-style bounded-load cap: 25% above the mean outstanding depth,
/// counting the request being placed, never below 1.
pub(crate) fn bounded_load_cap(total_depth: usize, hosts: usize) -> usize {
    let cap = (((total_depth + 1) as f64 / hosts as f64) * 1.25).ceil() as usize;
    cap.max(1)
}

/// The bounded-load clockwise walk: first host at the key's ring position
/// (or after it) that `eligible` admits and whose depth is under `cap`.
/// `None` when no eligible host is under the cap — the caller owns the
/// degenerate fallback (the shallowest eligible queue).
pub(crate) fn ring_walk(
    ring: &[(u64, usize)],
    hosts: &[HostLoad],
    key: u64,
    cap: usize,
    eligible: impl Fn(usize) -> bool,
) -> Option<usize> {
    let h = SeedSequencer::new(key).seed_for(0);
    let start = ring.partition_point(|&(pos, _)| pos < h);
    for i in 0..ring.len() {
        let (_, host) = ring[(start + i) % ring.len()];
        if eligible(host) && hosts[host].depth < cap {
            return Some(host);
        }
    }
    None
}

/// Index of the minimum score over `(index, score)` pairs, ties to the
/// first pair; `None` for an empty slate.
///
/// Selection runs over [`f64::total_cmp`], which is total over NaN, so no
/// score value can be silently skipped: the old `v < best_v` scan was
/// NaN-blind (a NaN never beats `INFINITY`, so a NaN-scored host vanished
/// from consideration and an all-NaN slate fell through to host 0 by
/// accident rather than by rule). Under `total_cmp` every input — NaN
/// included — has one deterministic winner: ordinary scores behave exactly
/// as before (bit-identical placements for NaN-free inputs, which is every
/// shipped scoring function), and degenerate slates resolve by the total
/// order with ties to the lowest index.
pub(crate) fn argmin_f64(scored: impl IntoIterator<Item = (usize, f64)>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in scored {
        best = match best {
            Some((_, bv)) if v.total_cmp(&bv).is_lt() => Some((i, v)),
            Some(b) => Some(b),
            None => Some((i, v)),
        };
    }
    best.map(|(i, _)| i)
}

/// Join-shortest-queue host choice over the `candidates` subset of
/// `hosts`: lexicographic min over (outstanding depth, EWMA of recent
/// turnarounds), ties to the first candidate; `None` for an empty slate.
pub(crate) fn argmin_jsq(
    hosts: &[HostLoad],
    candidates: impl IntoIterator<Item = usize>,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for i in candidates {
        let Some(b) = best else {
            best = Some(i);
            continue;
        };
        let (h, b_load) = (&hosts[i], &hosts[b]);
        let (he, be) = (
            h.ewma_turnaround_ms.unwrap_or(0.0),
            b_load.ewma_turnaround_ms.unwrap_or(0.0),
        );
        if h.depth < b_load.depth || (h.depth == b_load.depth && he.total_cmp(&be).is_lt()) {
            best = Some(i);
        }
    }
    best
}

/// FaaSBench's function identity: the deployed `(app, fib-N)` pair
/// (`fib-35`, `md-28`, ...), recovered from the request's app kind and its
/// Table-I fib mapping.
pub(crate) fn func_key(t1: &Table1Sampler, r: &Request) -> u64 {
    let app = match r.app {
        AppKind::Fib => 0u64,
        AppKind::Md => 1,
        AppKind::Sa => 2,
    };
    pack_func_key(app, t1.fib_n_for(r.duration_ms))
}

/// Pack an `(app id, fib N)` pair into one ring key: `app` in the high
/// bits, N in the low 8. The low field holds every N Table I can currently
/// emit (max 35), but the packing is only injective while N < 256 — a
/// future Table-1 change emitting a wider N would silently alias two
/// functions' ring positions and warm pools, so the bound is asserted here
/// rather than trusted. (Widening the shift would renumber every existing
/// key and shift the consistent-hash goldens; the guard keeps current keys
/// bit-stable while making the failure loud.)
fn pack_func_key(app: u64, fib_n: u32) -> u64 {
    assert!(
        fib_n < 256,
        "func_key packing overflow: fib N {fib_n} needs more than 8 bits; \
         widen the packing (and regenerate the consistent-hash goldens)"
    );
    (app << 8) | fib_n as u64
}

impl ClusterRun {
    /// Mean turnaround (ms) of the long-function population — the quantity
    /// the offloading proposal targets. `None` when the run has no long
    /// requests (an empty population has no mean; a bare `0.0` would be
    /// indistinguishable from a genuinely instant one).
    pub fn long_mean_ms(&self) -> Option<f64> {
        population_mean_ms(&self.outcomes, true)
    }

    /// Mean turnaround (ms) of the short population, `None` when empty.
    pub fn short_mean_ms(&self) -> Option<f64> {
        population_mean_ms(&self.outcomes, false)
    }
}

fn population_mean_ms(outcomes: &[RequestOutcome], long: bool) -> Option<f64> {
    let thr = SimDuration::from_millis_f64(LONG_THRESHOLD_MS);
    let mut sum = 0.0;
    let mut n = 0usize;
    for o in outcomes {
        if (o.ideal >= thr) == long {
            sum += o.turnaround.as_millis_f64();
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_workload::WorkloadSpec;

    fn workload(n: usize, hosts: usize, cores: usize, load: f64) -> Workload {
        WorkloadSpec::azure_sampled(n, 19)
            .with_load(hosts * cores, load)
            .generate()
    }

    #[test]
    fn all_placements_complete_everything() {
        let cluster = Cluster::new(3, 4);
        let w = workload(900, 3, 4, 0.8);
        for p in Placement::ALL {
            let run = cluster.run(p, &w);
            assert_eq!(run.outcomes.len(), 900, "{} lost requests", p.name());
            assert_eq!(run.per_host.iter().sum::<usize>(), 900);
            for (i, o) in run.outcomes.iter().enumerate() {
                assert_eq!(o.id, i as u64);
            }
            assert_eq!(run.cold_starts, 0, "no affinity model configured");
        }
    }

    #[test]
    fn ids_are_labels_not_indices() {
        // A trace excerpt's ids need not be 0..n. Shifting every id changes
        // nothing but the ids; with ids reversed, each outcome is still
        // measured from its own request's arrival.
        let cluster = Cluster::new(3, 2).with_affinity(
            SimDuration::from_millis(2_000),
            SimDuration::from_millis(25),
        );
        let w = workload(400, 3, 2, 0.9);
        let shifted = crate::platform::tests::relabel(&w, |id| id + 1_000);
        let reversed = crate::platform::tests::relabel(&w, |id| 399 - id);
        for p in Placement::ALL {
            let base = cluster.run(p, &w);
            let run = cluster.run(p, &shifted);
            assert_eq!(run.per_host, base.per_host, "{}", p.name());
            assert_eq!(run.cold_starts, base.cold_starts, "{}", p.name());
            assert_eq!(run.outcomes.len(), base.outcomes.len(), "{}", p.name());
            for (a, b) in run.outcomes.iter().zip(base.outcomes.iter()) {
                assert_eq!(a.id, b.id + 1_000, "{}", p.name());
                assert_eq!(a.arrival, b.arrival, "{}", p.name());
                assert_eq!(a.turnaround, b.turnaround, "{}", p.name());
                assert_eq!(a.rte.to_bits(), b.rte.to_bits(), "{}", p.name());
            }
            let run = cluster.run(p, &reversed);
            assert_eq!(run.outcomes.len(), 400, "{}", p.name());
            for o in &run.outcomes {
                let r = &w.requests[(399 - o.id) as usize];
                assert_eq!(o.arrival, r.arrival, "{} id {}", p.name(), o.id);
                assert_eq!(o.turnaround, o.finished.since(r.arrival), "{}", p.name());
            }
        }
    }

    #[test]
    fn round_robin_balances_counts() {
        let cluster = Cluster::new(4, 2);
        let w = workload(1_000, 4, 2, 0.7);
        let run = cluster.run(Placement::RoundRobin, &w);
        for &c in &run.per_host {
            assert_eq!(c, 250, "rotation places exactly n/hosts each");
        }
    }

    #[test]
    fn long_to_lightest_helps_long_functions() {
        // The future-work claim: steering longs to lighter hosts mitigates
        // their SFS penalty relative to blind round-robin.
        let cluster = Cluster::new(3, 4);
        let w = workload(1_500, 3, 4, 1.0);
        let rr = cluster.run(Placement::RoundRobin, &w);
        let steer = cluster.run(Placement::LongToLightest, &w);
        let (rr_long, steer_long) = (rr.long_mean_ms().unwrap(), steer.long_mean_ms().unwrap());
        assert!(
            steer_long <= rr_long * 1.05,
            "steering longs should not hurt them: {steer_long} vs {rr_long}"
        );
        let (rr_short, steer_short) = (rr.short_mean_ms().unwrap(), steer.short_mean_ms().unwrap());
        assert!(
            steer_short <= rr_short * 1.25,
            "short functions regressed: {steer_short} vs {rr_short}"
        );
    }

    #[test]
    fn any_controller_recipe_runs_per_host() {
        // The dispatcher composes with arbitrary policies: a kernel-only
        // CFS cluster completes the same request set as the SFS cluster,
        // one fresh controller per host, and placement is policy-blind
        // (the dispatcher model only uses the workload's duration labels).
        let cluster = Cluster::new(3, 4);
        let w = workload(600, 3, 4, 0.8);
        let sfs = cluster.run(Placement::JoinShortestQueue, &w);
        let cfs = cluster.run_with(Placement::JoinShortestQueue, &sfs_core::Baseline::Cfs, &w);
        assert_eq!(cfs.outcomes.len(), 600);
        assert_eq!(
            cfs.per_host, sfs.per_host,
            "placement is policy-independent"
        );
        for (a, b) in sfs.outcomes.iter().zip(cfs.outcomes.iter()) {
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn live_feedback_placements_use_every_host() {
        let cluster = Cluster::new(2, 2);
        let w = workload(600, 2, 2, 0.9);
        for p in [Placement::LeastLoaded, Placement::JoinShortestQueue] {
            let run = cluster.run(p, &w);
            assert!(
                run.per_host.iter().all(|&c| c > 100),
                "{}: {:?}",
                p.name(),
                run.per_host
            );
        }
    }

    #[test]
    fn results_are_identical_for_every_thread_count() {
        let cluster = Cluster::new(4, 2).with_affinity(
            SimDuration::from_millis(2_000),
            SimDuration::from_millis(25),
        );
        let w = workload(800, 4, 2, 0.9);
        for p in Placement::ALL {
            let one = cluster.run_with_threads(p, &cluster.sfs, &w, 1);
            for threads in [2, 4, 8] {
                let many = cluster.run_with_threads(p, &cluster.sfs, &w, threads);
                assert_eq!(one.per_host, many.per_host, "{} t={threads}", p.name());
                assert_eq!(one.cold_starts, many.cold_starts);
                assert_eq!(one.outcomes.len(), many.outcomes.len());
                for (a, b) in one.outcomes.iter().zip(many.outcomes.iter()) {
                    assert_eq!(a.id, b.id, "{} t={threads}", p.name());
                    assert_eq!(a.finished, b.finished, "{} t={threads}", p.name());
                    assert_eq!(a.rte.to_bits(), b.rte.to_bits());
                    assert_eq!(a.ctx_switches, b.ctx_switches);
                }
            }
        }
    }

    #[test]
    fn consistent_hash_maximises_warm_hits() {
        // Locality: under the affinity model, the hash placement must pay
        // far fewer cold starts than the locality-blind queue balancer.
        let cluster = Cluster::new(6, 2).with_affinity(
            SimDuration::from_millis(1_500),
            SimDuration::from_millis(30),
        );
        let w = workload(2_000, 6, 2, 0.8);
        let hash = cluster.run(Placement::ConsistentHash, &w);
        let jsq = cluster.run(Placement::JoinShortestQueue, &w);
        assert!(hash.cold_starts > 0, "some functions must start cold");
        assert!(
            hash.cold_starts * 2 < jsq.cold_starts,
            "consistent-hash cold starts {} should be far below JSQ's {}",
            hash.cold_starts,
            jsq.cold_starts
        );
    }

    #[test]
    fn cold_starts_inflate_measured_work() {
        // The penalty is real CPU: with affinity on, total ideal time
        // grows by the charged cold starts.
        let cluster = Cluster::new(4, 2);
        let warm = cluster.run(Placement::RoundRobin, &workload(500, 4, 2, 0.7));
        let cold_cluster = Cluster::new(4, 2)
            .with_affinity(SimDuration::from_millis(500), SimDuration::from_millis(40));
        let cold = cold_cluster.run(Placement::RoundRobin, &workload(500, 4, 2, 0.7));
        assert_eq!(warm.cold_starts, 0);
        assert!(cold.cold_starts > 0);
        let total_ideal = |r: &ClusterRun| {
            r.outcomes
                .iter()
                .map(|o| o.ideal.as_millis_f64())
                .sum::<f64>()
        };
        assert!(
            total_ideal(&cold) > total_ideal(&warm),
            "cold-start CPU must show up in the executed work"
        );
    }

    #[test]
    fn empty_workload_runs_everywhere() {
        let cluster = Cluster::new(4, 2);
        let w = Workload {
            requests: Vec::new(),
        };
        for p in Placement::ALL {
            let run = cluster.run(p, &w);
            assert!(run.outcomes.is_empty());
            assert_eq!(run.per_host, vec![0; 4]);
            assert_eq!(run.long_mean_ms(), None, "empty population has no mean");
            assert_eq!(run.short_mean_ms(), None);
        }
    }

    #[test]
    fn more_hosts_than_requests() {
        let cluster = Cluster::new(8, 2);
        let w = workload(3, 8, 2, 0.5);
        for p in Placement::ALL {
            let run = cluster.run(p, &w);
            assert_eq!(run.outcomes.len(), 3, "{}", p.name());
            assert_eq!(run.per_host.iter().sum::<usize>(), 3);
            assert_eq!(run.per_host.len(), 8);
        }
    }

    #[test]
    fn empty_population_means_are_none() {
        // Regression: a run whose workload is all-short must report the
        // long mean as absent, not as a (spuriously excellent) 0.0.
        let mut spec = WorkloadSpec::azure_sampled(40, 7);
        spec.durations = sfs_workload::DurationDist::Fixed { ms: 10.0 };
        let w = spec.with_load(4, 0.5).generate();
        let run = Cluster::new(2, 2).run(Placement::RoundRobin, &w);
        assert_eq!(run.long_mean_ms(), None);
        assert!(run.short_mean_ms().is_some());
    }

    #[test]
    fn argmin_prefers_smaller_scores_and_lowest_index_ties() {
        let scores = |s: [f64; 4]| argmin_f64(s.into_iter().enumerate());
        assert_eq!(scores([0.0, 0.0, -1.0, 0.0]), Some(2));
        assert_eq!(
            scores([0.0; 4]),
            Some(0),
            "ties resolve to the lowest index"
        );
        assert_eq!(
            argmin_f64([(3, 1.0), (1, 1.0), (2, 0.5)]),
            Some(2),
            "indices are the pairs' own, not positions"
        );
    }

    #[test]
    fn argmin_is_nan_total() {
        // The regression the old `v < best_v` scan failed: a NaN-scored
        // host must not silently vanish from consideration, and an all-NaN
        // slate must resolve by rule, not by sentinel accident. Under
        // total_cmp, NaN orders *above* every finite value, so a finite
        // score always beats NaN, and an all-NaN slate ties to index 0.
        let by = |s: [f64; 3]| argmin_f64(s.into_iter().enumerate());
        assert_eq!(by([f64::NAN, 7.0, 9.0]), Some(1), "finite beats NaN");
        assert_eq!(by([f64::NAN; 3]), Some(0), "all-NaN ties to index 0");
        assert_eq!(by([f64::NAN, f64::INFINITY, 2.0]), Some(2));
        assert_eq!(
            argmin_f64(std::iter::empty()),
            None,
            "empty slate is None, not a panic"
        );
    }

    #[test]
    fn argmin_jsq_over_subset_skips_excluded_hosts() {
        let mut hosts: Vec<HostLoad> = (0..4).map(|_| HostLoad::new(2)).collect();
        hosts[0].depth = 0; // globally best, but excluded below
        hosts[1].depth = 3;
        hosts[2].depth = 1;
        hosts[3].depth = 1;
        hosts[3].ewma_turnaround_ms = Some(5.0);
        hosts[2].ewma_turnaround_ms = Some(9.0);
        assert_eq!(argmin_jsq(&hosts, 0..4), Some(0));
        assert_eq!(
            argmin_jsq(&hosts, [1, 2, 3]),
            Some(3),
            "depth tie breaks on the lower EWMA"
        );
        assert_eq!(argmin_jsq(&hosts, std::iter::empty()), None);
    }

    #[test]
    fn func_key_packs_table1_range_unchanged() {
        // The packing is pinned by the consistent-hash goldens: app id in
        // the high bits, fib N in the low 8. Table I's widest N today is
        // 35 — comfortably inside the 8-bit field the guard defends.
        assert_eq!(pack_func_key(2, 35), (2 << 8) | 35);
        assert_eq!(pack_func_key(0, 20), 20);
        assert_eq!(pack_func_key(1, 255), (1 << 8) | 255, "boundary N=255 fits");
        let t1 = Table1Sampler::new();
        for ms in [1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0] {
            assert!(
                t1.fib_n_for(ms) < 256,
                "Table I emits an N the packing cannot hold at {ms}ms"
            );
        }
    }

    #[test]
    #[should_panic(expected = "func_key packing overflow")]
    fn func_key_overflow_is_loud_not_aliased() {
        // Regression for the silent-aliasing hazard: N = 256 would collide
        // with (app+1, 0)'s key. The pack must abort instead.
        let _ = pack_func_key(0, 256);
    }

    #[test]
    fn bounded_load_ring_respects_cap_while_alternatives_exist() {
        // Seeded property sweep over ring shapes, load vectors, and keys:
        // the clockwise walk must never land on a host at/over the cap
        // while any under-cap host exists anywhere on the ring.
        let mut rng = sfs_simcore::SimRng::seed_from_u64(0x51A6_1D0C);
        for case in 0..400 {
            let hosts_n = rng.uniform_u64(2, 9) as usize;
            let vnodes = rng.uniform_u64(1, 32) as usize;
            let ring = build_ring(hosts_n, vnodes, rng.next_u64());
            let mut hosts: Vec<HostLoad> = (0..hosts_n).map(|_| HostLoad::new(2)).collect();
            for h in &mut hosts {
                h.depth = rng.uniform_u64(0, 12) as usize;
            }
            let total: usize = hosts.iter().map(|h| h.depth).sum();
            let cap = bounded_load_cap(total, hosts_n);
            let key = rng.next_u64();
            match ring_walk(&ring, &hosts, key, cap, |_| true) {
                Some(host) => assert!(
                    hosts[host].depth < cap,
                    "case {case}: placed on host {host} at depth {} >= cap {cap}",
                    hosts[host].depth
                ),
                None => assert!(
                    hosts.iter().all(|h| h.depth >= cap),
                    "case {case}: walk gave up while an under-cap host existed"
                ),
            }
            // With the real cluster cap (mean×1.25 counting the newcomer),
            // at least one host sits below the cap, so the walk never
            // falls through when every host is eligible.
            assert!(
                ring_walk(&ring, &hosts, key, cap, |_| true).is_some(),
                "case {case}: the mean-based cap always leaves headroom"
            );
        }
    }

    #[test]
    fn bounded_load_all_at_cap_fallback_is_reachable_and_deterministic() {
        // The degenerate branch: force every host to the cap (the fleet
        // reaches this state when eligibility shrinks the slate — e.g.
        // every active host saturated during an AZ outage) and check the
        // walk reports it, twice, identically; the fallback then picks the
        // shallowest queue deterministically.
        let ring = build_ring(4, 8, 0xDEAD_BEEF);
        let mut hosts: Vec<HostLoad> = (0..4).map(|_| HostLoad::new(2)).collect();
        for h in &mut hosts {
            h.depth = 5;
        }
        assert_eq!(ring_walk(&ring, &hosts, 42, 5, |_| true), None);
        assert_eq!(ring_walk(&ring, &hosts, 42, 5, |_| true), None);
        hosts[2].depth = 4; // still >= nothing: under this cap now
        assert_eq!(ring_walk(&ring, &hosts, 42, 5, |_| true), Some(2));
        // Eligibility shrinks the slate the same way: only saturated hosts
        // eligible -> None, even though host 2 has headroom.
        assert_eq!(ring_walk(&ring, &hosts, 42, 5, |h| h != 2), None);
        // The caller's fallback (shallowest queue) is deterministic.
        let depths = || hosts.iter().map(|h| h.depth as f64).enumerate();
        assert_eq!(argmin_f64(depths()), Some(2));
        assert_eq!(argmin_f64(depths()), Some(2));
    }

    #[test]
    fn host_reset_clears_modelled_state() {
        let mut h = HostLoad::new(2);
        let t0 = SimTime::ZERO;
        h.admit(t0, 100.0);
        h.admit(t0, 50.0);
        h.depth = 2;
        h.outstanding_long_ms = 100.0;
        h.ewma_turnaround_ms = Some(75.0);
        assert!(h.backlog_ms(t0) > 0.0);
        let crash_at = t0 + SimDuration::from_millis(30);
        h.reset(crash_at);
        assert_eq!(h.depth, 0);
        assert_eq!(h.outstanding_long_ms, 0.0);
        assert_eq!(h.ewma_turnaround_ms, None);
        assert_eq!(h.backlog_ms(crash_at), 0.0, "cores free up at the reset");
        // And the host admits again from the reset instant.
        let f = h.admit(crash_at, 10.0);
        assert_eq!(f, crash_at + SimDuration::from_millis(10));
    }

    #[test]
    fn outcome_ids_unique_across_hosts() {
        // Guards the sub-workload construction in run_with against id
        // collisions: every original id appears exactly once in the merge.
        let cluster = Cluster::new(5, 2);
        let w = workload(1_000, 5, 2, 0.9);
        for p in Placement::ALL {
            let run = cluster.run(p, &w);
            let mut ids: Vec<u64> = run.outcomes.iter().map(|o| o.id).collect();
            ids.dedup();
            assert_eq!(ids.len(), 1_000, "{}: duplicate outcome ids", p.name());
            assert_eq!(ids, (0..1_000).collect::<Vec<u64>>());
        }
    }
}
