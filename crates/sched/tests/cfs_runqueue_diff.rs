//! Differential test for the heap-backed CFS runqueue.
//!
//! Drives the production [`CfsRunqueue`] (4-ary heap) and a naive
//! sorted-`Vec` reference model through randomized push / pop / pop_last /
//! remove / reweight interleavings and asserts identical observable
//! behaviour at every step: pick sequences, peeks, lengths, total weights,
//! and the monotonic `min_vruntime` floor. Pids come dense from 0 (as the
//! machine spawns them) or sparse across the whole `u64` range, including
//! `Pid(1 << 40)` and `Pid(u64::MAX)`: the queue holds nothing indexed by
//! pid, so any pid must work.
//!
//! Randomised cases come from the workspace's seeded `SimRng` (no proptest
//! dependency): a fixed number of cases from fixed seeds, so failures are
//! exactly reproducible.

use sfs_sched::{CfsRunqueue, Pid};
use sfs_simcore::SimRng;

/// The naive reference: a flat list scanned linearly, plus the same
/// min_vruntime/total_weight bookkeeping the real queue promises.
#[derive(Default)]
struct RefModel {
    entries: Vec<(u64, Pid, u32)>,
    min_vruntime: u64,
    total_weight: u64,
}

impl RefModel {
    fn enqueue(&mut self, pid: Pid, v: u64, w: u32) {
        assert!(
            !self.entries.iter().any(|e| e.1 == pid),
            "model double-enqueue"
        );
        self.entries.push((v, pid, w));
        self.total_weight += w as u64;
    }

    fn pos_min(&self) -> Option<usize> {
        (0..self.entries.len()).min_by_key(|&i| (self.entries[i].0, self.entries[i].1 .0))
    }

    fn peek(&self) -> Option<(u64, Pid)> {
        self.pos_min()
            .map(|i| (self.entries[i].0, self.entries[i].1))
    }

    fn pop(&mut self) -> Option<(u64, Pid)> {
        let i = self.pos_min()?;
        let (v, p, w) = self.entries.remove(i);
        self.total_weight -= w as u64;
        if v > self.min_vruntime {
            self.min_vruntime = v;
        }
        Some((v, p))
    }

    fn pop_last(&mut self) -> Option<(u64, Pid)> {
        let i =
            (0..self.entries.len()).max_by_key(|&i| (self.entries[i].0, self.entries[i].1 .0))?;
        let (v, p, w) = self.entries.remove(i);
        self.total_weight -= w as u64;
        Some((v, p))
    }

    fn remove(&mut self, pid: Pid, v: u64) -> bool {
        match self.entries.iter().position(|e| e.1 == pid && e.0 == v) {
            Some(i) => {
                let (_, _, w) = self.entries.remove(i);
                self.total_weight -= w as u64;
                true
            }
            None => false,
        }
    }
}

/// One queued task as the driver tracks it (so removes/reweights use the
/// exact vruntime the queue was given, like the machine does).
#[derive(Clone, Copy)]
struct Queued {
    pid: Pid,
    vruntime: u64,
    weight: u32,
}

fn check_invariants(rq: &CfsRunqueue, model: &RefModel, case: u64, step: usize) {
    assert_eq!(
        rq.len(),
        model.entries.len(),
        "len (case {case} step {step})"
    );
    assert_eq!(
        rq.is_empty(),
        model.entries.is_empty(),
        "is_empty (case {case} step {step})"
    );
    assert_eq!(
        rq.total_weight(),
        model.total_weight,
        "total_weight (case {case} step {step})"
    );
    assert_eq!(
        rq.min_vruntime(),
        model.min_vruntime,
        "min_vruntime (case {case} step {step})"
    );
    assert_eq!(rq.peek(), model.peek(), "peek (case {case} step {step})");
}

#[test]
fn randomized_interleavings_match_reference_model() {
    interleavings("interleavings", 5_000, Pid);
}

/// The `n`-th pid of a case whose pids are sparse over the whole `u64`
/// range: the extremes first, then an odd-multiplier scatter (a bijection
/// on `u64`, so distinct `n` give distinct pids).
fn sparse_pid(n: u64) -> Pid {
    match n {
        0 => Pid(u64::MAX),
        1 => Pid(1 << 40),
        2 => Pid(u64::MAX - 1),
        3 => Pid(0),
        _ => Pid(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    }
}

#[test]
fn sparse_and_huge_pids_match_reference_model() {
    // A narrow vruntime range makes `(vruntime, pid)` ties common, so the
    // pid half of the key decides many picks.
    interleavings("sparse", 50, sparse_pid);
}

/// Randomized interleavings with vruntimes drawn from `0..=max_vruntime`
/// and the `n`-th fresh pid of a case given by `pid_of(n)`.
fn interleavings(tag: &str, max_vruntime: u64, pid_of: impl Fn(u64) -> Pid) {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(0xCF5_D1FF)
            .derive(tag)
            .derive(&case.to_string());
        let mut rq = CfsRunqueue::new();
        let mut model = RefModel::default();
        let mut queued: Vec<Queued> = Vec::new();
        let mut next_pid = 0u64;
        let steps = rng.uniform_u64(50, 400) as usize;
        for step in 0..steps {
            match rng.uniform_u64(0, 99) {
                // Push a fresh task at a placed vruntime.
                0..=39 => {
                    let pid = pid_of(next_pid);
                    next_pid += 1;
                    let v = rq.place_vruntime(rng.uniform_u64(0, max_vruntime));
                    assert_eq!(v, model.min_vruntime.max(v), "placement respects floor");
                    let w = [15u32, 1024, 88761][rng.uniform_u64(0, 2) as usize];
                    rq.enqueue(pid, v, w);
                    model.enqueue(pid, v, w);
                    queued.push(Queued {
                        pid,
                        vruntime: v,
                        weight: w,
                    });
                }
                // Pick the leftmost task.
                40..=69 => {
                    let got = rq.pop();
                    let want = model.pop();
                    assert_eq!(got, want, "pop (case {case} step {step})");
                    if let Some((_, pid)) = got {
                        queued.retain(|q| q.pid != pid);
                    }
                }
                // Steal the rightmost task.
                70..=79 => {
                    let got = rq.pop_last();
                    let want = model.pop_last();
                    assert_eq!(got, want, "pop_last (case {case} step {step})");
                    if let Some((_, pid)) = got {
                        queued.retain(|q| q.pid != pid);
                    }
                }
                // Remove a specific queued task (policy change).
                80..=89 => {
                    if queued.is_empty() {
                        continue;
                    }
                    let i = rng.uniform_u64(0, queued.len() as u64 - 1) as usize;
                    let q = queued.swap_remove(i);
                    assert!(rq.remove(q.pid, q.vruntime), "remove live entry");
                    assert!(model.remove(q.pid, q.vruntime));
                    // Removing again (or with a stale vruntime) must fail
                    // without corrupting the weights.
                    assert!(!rq.remove(q.pid, q.vruntime));
                    assert!(!rq.remove(q.pid, q.vruntime.wrapping_add(1)));
                }
                // Reweight = remove + re-enqueue at a re-placed vruntime,
                // exactly how the machine changes a queued task's nice.
                _ => {
                    if queued.is_empty() {
                        continue;
                    }
                    let i = rng.uniform_u64(0, queued.len() as u64 - 1) as usize;
                    let q = &mut queued[i];
                    assert!(rq.remove(q.pid, q.vruntime));
                    assert!(model.remove(q.pid, q.vruntime));
                    let v = rq.place_vruntime(q.vruntime);
                    let w = [15u32, 1024, 88761][rng.uniform_u64(0, 2) as usize];
                    rq.enqueue(q.pid, v, w);
                    model.enqueue(q.pid, v, w);
                    q.vruntime = v;
                    q.weight = w;
                }
            }
            check_invariants(&rq, &model, case, step);
        }
        // Drain: the remaining pick sequence must match entirely.
        loop {
            let got = rq.pop();
            let want = model.pop();
            assert_eq!(got, want, "drain (case {case})");
            if got.is_none() {
                break;
            }
        }
        check_invariants(&rq, &model, case, usize::MAX);
    }
}

#[test]
fn pick_sequence_is_globally_sorted_after_bulk_load() {
    let mut rng = SimRng::seed_from_u64(0xCF5_50B7);
    let mut rq = CfsRunqueue::new();
    let mut keys: Vec<(u64, u64)> = Vec::new();
    for pid in 0..2_000u64 {
        let v = rng.uniform_u64(0, 10_000);
        rq.enqueue(Pid(pid), v, 1024);
        keys.push((v, pid));
    }
    keys.sort_unstable();
    let picked: Vec<(u64, u64)> = std::iter::from_fn(|| rq.pop().map(|(v, p)| (v, p.0))).collect();
    assert_eq!(picked, keys);
    assert_eq!(rq.total_weight(), 0);
    assert_eq!(rq.min_vruntime(), keys.last().unwrap().0);
}

#[test]
fn pick_sequence_is_sorted_with_sparse_pids() {
    let mut rng = SimRng::seed_from_u64(0xCF5_5BA5);
    let mut rq = CfsRunqueue::new();
    let mut keys: Vec<(u64, u64)> = Vec::new();
    for n in 0..2_000u64 {
        let pid = sparse_pid(n);
        let v = rng.uniform_u64(0, 100);
        rq.enqueue(pid, v, 1024);
        keys.push((v, pid.0));
    }
    assert!(rq.contains(Pid(u64::MAX)) && rq.contains(Pid(1 << 40)));
    assert!(!rq.contains(Pid(12_345)));
    keys.sort_unstable();
    let picked: Vec<(u64, u64)> = std::iter::from_fn(|| rq.pop().map(|(v, p)| (v, p.0))).collect();
    assert_eq!(picked, keys);
    assert_eq!(rq.total_weight(), 0);
}
