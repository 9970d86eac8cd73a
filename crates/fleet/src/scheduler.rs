//! The fleet event scheduler: which job advances next.
//!
//! A fleet run repeatedly advances the unfinished job whose next event
//! (injected fault or job end) is earliest. The seed-visible contract is:
//!
//! 1. among unfinished jobs, the minimum `next_event_at()` wins;
//! 2. when several jobs tie on that minimum, the tied *job indices in
//!    ascending order* form the candidate list, and one candidate is drawn
//!    uniformly from the fleet's dedicated tie-break `SimRng` stream — and the
//!    stream is consumed **only** when there are two or more candidates.
//!
//! [`HeapScheduler`] implements this contract with a `BinaryHeap` keyed on
//! `(next_event_at, job_index)` so each pick costs O(log J) instead of the
//! O(J) linear scan the runner used before. Entries are lazily invalidated:
//! after a job advances, its fresh `(time, index)` key is pushed and any
//! stale key still in the heap is dropped on pop (a pop is stale when the job
//! has finished or its current `next_event_at()` no longer matches the stored
//! time). Because `Reverse<(SimTime, usize)>` pops in ascending `(time,
//! index)` order, the tied candidates surface exactly in ascending index
//! order — the same list the linear scan builds — so the tie-break stream is
//! consumed identically and the whole interleaving (and therefore
//! `FleetReport::render`) is byte-identical to the naive reference per seed.
//!
//! [`NaiveScanScheduler`] is that retained reference: the original O(J)
//! scan-every-job implementation, kept so the oracle tests can pin the heap
//! byte-identical against it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use byterobust_core::JobExecution;
use byterobust_sim::{SimRng, SimTime};

/// Which scheduler implementation a [`FleetRunner`](crate::FleetRunner) run
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The O(log J) binary-heap scheduler (production default).
    #[default]
    Heap,
    /// The retained O(J) linear-scan reference, for oracle tests.
    NaiveScan,
}

/// Operation counters for one scheduler instance. Self-profiling data for
/// the observability plane: heap and naive runs *differ* here by design
/// (that asymmetry is the point of the comparison), so these counters are
/// never rendered into the deterministic report — they surface through
/// `BENCH_obs.json` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerOps {
    /// Successful picks (`next` calls that returned a job).
    pub picks: u64,
    /// Keys pushed into the heap (initial seeding, tie losers, reschedules).
    pub heap_pushes: u64,
    /// Lazily-invalidated keys dropped on pop (stale time, finished job, or
    /// adjacent duplicate in the tie gather).
    pub stale_drops: u64,
    /// Picks that consumed the tie-break stream (two or more candidates).
    pub tie_draws: u64,
    /// Per-job examinations by the naive scan (its O(J)-per-pick cost).
    pub scan_comparisons: u64,
}

/// Scheduler state for one fleet run.
#[derive(Debug, Clone)]
pub enum EventScheduler {
    /// Heap-based scheduling (lazy invalidation).
    Heap(HeapScheduler),
    /// Linear-scan reference scheduling.
    NaiveScan(NaiveScanScheduler),
}

impl EventScheduler {
    /// Builds a scheduler of the requested kind, seeded with every job's
    /// initial next-event time.
    pub fn new(kind: SchedulerKind, executions: &[JobExecution]) -> Self {
        match kind {
            SchedulerKind::Heap => EventScheduler::Heap(HeapScheduler::new(executions)),
            SchedulerKind::NaiveScan => EventScheduler::NaiveScan(NaiveScanScheduler::default()),
        }
    }

    /// The operation counters accumulated so far.
    pub fn ops(&self) -> SchedulerOps {
        match self {
            EventScheduler::Heap(heap) => heap.ops,
            EventScheduler::NaiveScan(scan) => scan.ops,
        }
    }

    /// Picks the next job to advance: `(event_time, job_index)`. Returns
    /// `None` when every job is finished. `tie_rng` is consumed only when two
    /// or more jobs tie on the minimum event time.
    pub fn next(
        &mut self,
        executions: &[JobExecution],
        tie_rng: &mut SimRng,
    ) -> Option<(SimTime, usize)> {
        match self {
            EventScheduler::Heap(heap) => heap.next(executions, tie_rng),
            EventScheduler::NaiveScan(scan) => scan.next(executions, tie_rng),
        }
    }

    /// Re-registers a job after it advanced (its `next_event_at` changed).
    /// Finished jobs are not re-registered.
    pub fn reschedule(&mut self, index: usize, executions: &[JobExecution]) {
        if let EventScheduler::Heap(heap) = self {
            heap.reschedule(index, executions);
        }
    }
}

/// O(log J) scheduler: a min-heap of `(next_event_at, job_index)` keys with
/// lazy invalidation.
#[derive(Debug, Clone)]
pub struct HeapScheduler {
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Scratch list of tied candidates, reused across picks so the hot loop
    /// allocates nothing after warm-up.
    tied: Vec<(SimTime, usize)>,
    /// Self-profiling counters (never rendered; see [`SchedulerOps`]).
    ops: SchedulerOps,
}

impl HeapScheduler {
    /// Seeds the heap with every unfinished job's next-event time.
    pub fn new(executions: &[JobExecution]) -> Self {
        let heap: BinaryHeap<Reverse<(SimTime, usize)>> = executions
            .iter()
            .enumerate()
            .filter(|(_, execution)| !execution.is_finished())
            .map(|(i, execution)| Reverse((execution.next_event_at(), i)))
            .collect();
        let ops = SchedulerOps {
            heap_pushes: heap.len() as u64,
            ..SchedulerOps::default()
        };
        HeapScheduler {
            heap,
            tied: Vec::new(),
            ops,
        }
    }

    /// Whether a popped key is still current for its job.
    fn is_live(executions: &[JobExecution], at: SimTime, index: usize) -> bool {
        !executions[index].is_finished() && executions[index].next_event_at() == at
    }

    fn next(
        &mut self,
        executions: &[JobExecution],
        tie_rng: &mut SimRng,
    ) -> Option<(SimTime, usize)> {
        // Find the earliest live key, dropping stale pops.
        let (event_at, first) = loop {
            let Reverse((at, index)) = self.heap.pop()?;
            if Self::is_live(executions, at, index) {
                break (at, index);
            }
            self.ops.stale_drops += 1;
        };

        // Gather every live peer tied on the same time. `Reverse<(SimTime,
        // usize)>` pops in ascending (time, index) order, so candidates
        // accumulate in ascending job-index order — the same candidate list
        // the naive scan builds, which keeps the tie-break stream byte-
        // compatible.
        self.tied.clear();
        self.tied.push((event_at, first));
        while let Some(&Reverse((at, index))) = self.heap.peek() {
            if at != event_at {
                break;
            }
            self.heap.pop();
            // Pops arrive in ascending (time, index) order, so a duplicate
            // key for the same job (e.g. a double reschedule) is adjacent —
            // drop it so the tie list holds each candidate exactly once.
            if Self::is_live(executions, at, index) && self.tied.last() != Some(&(at, index)) {
                self.tied.push((at, index));
            } else {
                self.ops.stale_drops += 1;
            }
        }

        let chosen = if self.tied.len() == 1 {
            0
        } else {
            self.ops.tie_draws += 1;
            tie_rng.index(self.tied.len())
        };
        let (_, index) = self.tied[chosen];
        // Losing candidates go back into the heap; the winner is re-pushed by
        // `reschedule` once it has advanced (its key changes).
        for (i, &(at, peer)) in self.tied.iter().enumerate() {
            if i != chosen {
                self.heap.push(Reverse((at, peer)));
                self.ops.heap_pushes += 1;
            }
        }
        self.ops.picks += 1;
        Some((event_at, index))
    }

    fn reschedule(&mut self, index: usize, executions: &[JobExecution]) {
        if !executions[index].is_finished() {
            self.heap
                .push(Reverse((executions[index].next_event_at(), index)));
            self.ops.heap_pushes += 1;
        }
    }
}

/// The retained O(J) reference: scan every job per pick. Semantically the
/// original `FleetRunner::run` selection loop, kept verbatim so the oracle
/// tests can pin the heap scheduler byte-identical against it.
#[derive(Debug, Clone, Default)]
pub struct NaiveScanScheduler {
    /// Self-profiling counters (never rendered; see [`SchedulerOps`]).
    ops: SchedulerOps,
}

impl NaiveScanScheduler {
    fn next(
        &mut self,
        executions: &[JobExecution],
        tie_rng: &mut SimRng,
    ) -> Option<(SimTime, usize)> {
        let mut earliest: Option<SimTime> = None;
        let mut tied: Vec<usize> = Vec::new();
        for (i, execution) in executions.iter().enumerate() {
            self.ops.scan_comparisons += 1;
            if execution.is_finished() {
                continue;
            }
            let at = execution.next_event_at();
            match earliest {
                None => {
                    earliest = Some(at);
                    tied = vec![i];
                }
                Some(best) if at < best => {
                    earliest = Some(at);
                    tied = vec![i];
                }
                Some(best) if at == best => tied.push(i),
                Some(_) => {}
            }
        }
        let event_at = earliest?;
        let index = if tied.len() == 1 {
            tied[0]
        } else {
            self.ops.tie_draws += 1;
            tied[tie_rng.index(tied.len())]
        };
        self.ops.picks += 1;
        Some((event_at, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_core::JobConfig;

    fn executions(n: usize) -> Vec<JobExecution> {
        (0..n)
            .map(|i| JobExecution::new(JobConfig::small_test(), 100 + i as u64))
            .collect()
    }

    #[test]
    fn heap_and_naive_agree_pick_by_pick() {
        let mut execs = executions(4);
        let mut heap = EventScheduler::new(SchedulerKind::Heap, &execs);
        let mut naive = EventScheduler::new(SchedulerKind::NaiveScan, &execs);
        let mut heap_rng = SimRng::new(0xF1EE7);
        let mut naive_rng = SimRng::new(0xF1EE7);
        // Drive the real executions with the heap's picks and check the naive
        // scan would have picked identically at every step.
        loop {
            let expected = naive.next(&execs, &mut naive_rng);
            let got = heap.next(&execs, &mut heap_rng);
            assert_eq!(got, expected);
            let Some((_, index)) = got else { break };
            execs[index].advance();
            heap.reschedule(index, &execs);
        }
        assert!(execs.iter().all(|e| e.is_finished()));
        // Both schedulers made the same picks and drew the tie stream the
        // same number of times; only the per-implementation cost counters
        // (heap pushes vs. scan comparisons) differ.
        let (heap_ops, naive_ops) = (heap.ops(), naive.ops());
        assert_eq!(heap_ops.picks, naive_ops.picks);
        assert!(heap_ops.picks > 0);
        assert_eq!(heap_ops.tie_draws, naive_ops.tie_draws);
        assert_eq!(heap_ops.scan_comparisons, 0, "the heap never scans");
        assert!(naive_ops.scan_comparisons >= naive_ops.picks * 4);
        assert_eq!(naive_ops.heap_pushes, 0, "the scan never pushes");
        assert!(heap_ops.heap_pushes > 0);
    }

    #[test]
    fn ties_surface_in_ascending_index_order() {
        // Fresh executions all start with some next event; two identical
        // configs with identical seeds tie exactly.
        let mut execs = vec![
            JobExecution::new(JobConfig::small_test(), 42),
            JobExecution::new(JobConfig::small_test(), 42),
            JobExecution::new(JobConfig::small_test(), 42),
        ];
        let at = execs[0].next_event_at();
        assert!(execs.iter().all(|e| e.next_event_at() == at));
        let mut heap = EventScheduler::new(SchedulerKind::Heap, &execs);
        let mut naive = EventScheduler::new(SchedulerKind::NaiveScan, &execs);
        // Same tie-break stream must choose the same index from {0, 1, 2}.
        for seed in 0..16u64 {
            let pick_heap = heap
                .next(&execs, &mut SimRng::new(seed))
                .expect("jobs pending");
            let pick_naive = naive
                .next(&execs, &mut SimRng::new(seed))
                .expect("jobs pending");
            assert_eq!(pick_heap, pick_naive, "seed {seed}");
            // Restore the heap for the next probe: the winner was consumed.
            heap.reschedule(pick_heap.1, &execs);
        }
        // Advancing the chosen job breaks the tie for subsequent picks.
        let (_, index) = heap.next(&execs, &mut SimRng::new(1)).unwrap();
        execs[index].advance();
        heap.reschedule(index, &execs);
        let (_, next_index) = heap.next(&execs, &mut SimRng::new(2)).unwrap();
        assert!(!execs[next_index].is_finished());
    }

    #[test]
    fn stale_keys_are_dropped() {
        let mut execs = executions(2);
        let mut heap = EventScheduler::new(SchedulerKind::Heap, &execs);
        let mut rng = SimRng::new(7);
        let (_, index) = heap.next(&execs, &mut rng).unwrap();
        // Advance the job but ALSO push a duplicate fresh key: the duplicate
        // becomes stale after the next advance and must be skipped silently.
        execs[index].advance();
        heap.reschedule(index, &execs);
        heap.reschedule(index, &execs);
        let mut picks = 0;
        while let Some((_, i)) = heap.next(&execs, &mut rng) {
            execs[i].advance();
            heap.reschedule(i, &execs);
            picks += 1;
            if picks > 10_000 {
                panic!("scheduler failed to terminate");
            }
        }
        assert!(execs.iter().all(|e| e.is_finished()));
    }
}
