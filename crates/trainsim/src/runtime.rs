//! The simulated state of a running training job.
//!
//! [`TrainingRuntime`] is the data-plane view of a running job: its step
//! counter and code version, the fault currently applied to it (hang,
//! fail-slow, NaN, crash) with the machines it is rooted at, and the stack
//! capture the on-demand tracer would collect in each of those situations.
//! The lifecycle driver moves the step counter in whole productive intervals
//! with [`TrainingRuntime::restore_to_step`]; the runtime emits no per-step
//! metrics.

use std::collections::HashSet;

use byterobust_cluster::MachineId;
use byterobust_parallelism::{GroupKind, ParallelTopology, Rank};
use byterobust_sim::SimDuration;

use crate::job::JobSpec;
use crate::stacktrace::{self, ProcessKind, StackCapture, StackFrame, StackGroup, StackTrace};
use crate::step::{CodeVersion, StepModel, TrainPhase};

/// Aggregate status of the job as the workload model sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeStatus {
    /// Making normal progress.
    Running,
    /// No forward progress: one or more ranks are blocked and collectives
    /// never complete.
    Hung,
    /// Progressing but slower than nominal (fail-slow / MFU decline).
    Degraded,
    /// Producing NaN losses.
    NanLoss,
    /// The training processes have crashed (explicit failure).
    Crashed,
}

/// Fault effect currently applied to the runtime.
#[derive(Debug, Clone, PartialEq)]
enum ActiveFault {
    None,
    Hang {
        victims: Vec<MachineId>,
    },
    FailSlow {
        victims: Vec<MachineId>,
        slowdown: f64,
    },
    Nan {
        victims: Vec<MachineId>,
    },
    Crash,
}

/// The simulated training job runtime.
#[derive(Debug, Clone)]
pub struct TrainingRuntime {
    job: JobSpec,
    step_model: StepModel,
    topology: ParallelTopology,
    code: CodeVersion,
    step: u64,
    fault: ActiveFault,
}

impl TrainingRuntime {
    /// Creates a runtime at step 0 with the initial code version.
    pub fn new(job: JobSpec) -> Self {
        let topology = ParallelTopology::new(job.parallelism);
        let step_model = StepModel::new(job.clone());
        TrainingRuntime {
            job,
            step_model,
            topology,
            code: CodeVersion::initial(),
            step: 0,
            fault: ActiveFault::None,
        }
    }

    /// The job specification.
    pub fn job(&self) -> &JobSpec {
        &self.job
    }

    /// The parallel topology of the job.
    pub fn topology(&self) -> &ParallelTopology {
        &self.topology
    }

    /// Current optimizer step.
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// Currently deployed code version.
    pub fn code_version(&self) -> &CodeVersion {
        &self.code
    }

    /// Deploys a new code version (hot update or rollback).
    pub fn set_code_version(&mut self, code: CodeVersion) {
        self.code = code;
    }

    /// Current aggregate status.
    pub fn status(&self) -> RuntimeStatus {
        match &self.fault {
            ActiveFault::None => RuntimeStatus::Running,
            ActiveFault::Hang { .. } => RuntimeStatus::Hung,
            ActiveFault::FailSlow { .. } => RuntimeStatus::Degraded,
            ActiveFault::Nan { .. } => RuntimeStatus::NanLoss,
            ActiveFault::Crash => RuntimeStatus::Crashed,
        }
    }

    /// Machines the active fault is rooted at: the ground truth behind
    /// [`TrainingRuntime::rank_phases`]. Empty when no fault is active or
    /// the processes crashed.
    pub fn fault_victims(&self) -> Vec<MachineId> {
        match &self.fault {
            ActiveFault::Hang { victims }
            | ActiveFault::FailSlow { victims, .. }
            | ActiveFault::Nan { victims } => victims.clone(),
            _ => Vec::new(),
        }
    }

    /// Injects a job hang rooted at the given machines.
    pub fn inject_hang(&mut self, victims: Vec<MachineId>) {
        self.fault = ActiveFault::Hang { victims };
    }

    /// Injects a fail-slow condition rooted at the given machines.
    pub fn inject_fail_slow(&mut self, victims: Vec<MachineId>, slowdown: f64) {
        self.fault = ActiveFault::FailSlow {
            victims,
            slowdown: slowdown.max(1.0),
        };
    }

    /// Injects NaN losses rooted at the given machines (SDC-style).
    pub fn inject_nan(&mut self, victims: Vec<MachineId>) {
        self.fault = ActiveFault::Nan { victims };
    }

    /// Crashes the training processes (explicit failure).
    pub fn inject_crash(&mut self) {
        self.fault = ActiveFault::Crash;
    }

    /// Clears any active fault (after recovery).
    pub fn clear_fault(&mut self) {
        self.fault = ActiveFault::None;
    }

    /// Rolls training progress back by `steps` (checkpoint restore /
    /// intentional rollback after a manual restart).
    pub fn rollback_steps(&mut self, steps: u64) {
        self.step = self.step.saturating_sub(steps);
    }

    /// Restores progress to an absolute step (loading a checkpoint).
    pub fn restore_to_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Duration of a nominal step under the current code version at full
    /// cluster health (used for planning, e.g. ETTR accounting of recomputed
    /// steps).
    pub fn nominal_step_duration(&self) -> SimDuration {
        self.step_model
            .step(&self.code, 1.0, SimDuration::ZERO)
            .total()
    }

    /// The phase every rank is currently in, reflecting the active fault.
    /// This is the ground truth the on-demand tracer samples.
    ///
    /// * Normal operation / fail-slow: every trainer is in data-parallel
    ///   gradient synchronization (the dominant group in Fig. 7); fail-slow
    ///   victims lag behind in backward compute.
    /// * Hang: ranks on victim machines are stuck in backward collectives,
    ///   ranks sharing a pipeline group with a victim are stuck in pipeline
    ///   P2P (send or recv depending on their stage relative to the victim),
    ///   and everyone else has proceeded to gradient synchronization.
    pub fn rank_phases(&self) -> Vec<(Rank, TrainPhase)> {
        let mapping = self.topology.mapping();
        let mut phases = Vec::with_capacity(mapping.world_size());
        match &self.fault {
            ActiveFault::Hang { victims } | ActiveFault::Nan { victims }
                if matches!(self.fault, ActiveFault::Hang { .. }) =>
            {
                let victim_set: HashSet<MachineId> = victims.iter().copied().collect();
                let victim_ranks: Vec<Rank> = mapping
                    .all_ranks()
                    .filter(|&r| victim_set.contains(&mapping.machine_of(r)))
                    .collect();
                let victim_rank_set: HashSet<Rank> = victim_ranks.iter().copied().collect();
                // Ranks sharing a PP group with any victim rank.
                let mut pp_neighbors: HashSet<Rank> = HashSet::new();
                for &v in &victim_ranks {
                    for r in self.topology.group_of(v, GroupKind::Pipeline).ranks {
                        if !victim_rank_set.contains(&r) {
                            pp_neighbors.insert(r);
                        }
                    }
                }
                for rank in mapping.all_ranks() {
                    let phase = if victim_rank_set.contains(&rank) {
                        TrainPhase::Backward
                    } else if pp_neighbors.contains(&rank) {
                        TrainPhase::PipelineComm
                    } else {
                        TrainPhase::GradReduceScatter
                    };
                    phases.push((rank, phase));
                }
            }
            ActiveFault::FailSlow { victims, .. } => {
                let victim_set: HashSet<MachineId> = victims.iter().copied().collect();
                for rank in mapping.all_ranks() {
                    let phase = if victim_set.contains(&mapping.machine_of(rank)) {
                        TrainPhase::Backward
                    } else {
                        TrainPhase::GradReduceScatter
                    };
                    phases.push((rank, phase));
                }
            }
            _ => {
                for rank in mapping.all_ranks() {
                    phases.push((rank, TrainPhase::GradReduceScatter));
                }
            }
        }
        phases
    }

    /// The stack template of the trainer on `rank` in `phase`. Pipeline
    /// P2P outliers split between `irecv` (even pipeline stages) and `isend`
    /// (odd ones), mirroring the Fig. 7 example where different stages block
    /// on different P2P directions.
    fn trainer_frames(&self, rank: Rank, phase: TrainPhase) -> &'static [StackFrame] {
        if phase == TrainPhase::PipelineComm
            && self.topology.mapping().coords(rank).pp.is_multiple_of(2)
        {
            stacktrace::trainer_pp_recv_frames()
        } else {
            stacktrace::trainer_frames(phase)
        }
    }

    /// One on-demand capture (§3, §5.1), grouped by stack template in a
    /// single pass over [`TrainingRuntime::rank_phases`]: every rank's
    /// trainer joins the group of its phase's template, and every rank's
    /// data-loader and checkpoint workers sit in their idle templates. The
    /// robust daemon (one per machine) is counted but not grouped, as it
    /// takes no part in the aggregation. Nothing is materialized per rank
    /// beyond its place in one rank list.
    pub fn capture(&self) -> StackCapture {
        let phases = self.rank_phases();
        let mut groups: Vec<StackGroup> = Vec::new();
        let mut ranks = Vec::with_capacity(phases.len());
        for &(rank, phase) in &phases {
            let frames = self.trainer_frames(rank, phase);
            // Each template is its own `static`, so its address names it.
            match groups.iter_mut().find(|g| std::ptr::eq(g.frames, frames)) {
                Some(group) => group.ranks.push(rank),
                None => groups.push(StackGroup {
                    process: ProcessKind::Trainer,
                    frames,
                    ranks: vec![rank],
                }),
            }
            ranks.push(rank);
        }
        groups.push(StackGroup {
            process: ProcessKind::DataLoader,
            frames: stacktrace::dataloader_frames(false),
            ranks: ranks.clone(),
        });
        groups.push(StackGroup {
            process: ProcessKind::CheckpointWorker,
            frames: stacktrace::checkpoint_worker_frames(false),
            ranks,
        });
        StackCapture {
            groups,
            process_count: phases.len() * 3 + self.topology.mapping().machine_count(),
        }
    }

    /// The same capture as [`TrainingRuntime::capture`], materialized as one
    /// [`StackTrace`] per process: for each rank the trainer, one data-loader
    /// worker and the asynchronous checkpoint worker, then the robust daemon
    /// once per machine. The per-rank oracle for the grouped capture.
    pub fn capture_stacks(&self) -> Vec<StackTrace> {
        let mapping = self.topology.mapping();
        let mut stacks = Vec::new();
        for (rank, phase) in self.rank_phases() {
            stacks.push(StackTrace::from_template(
                rank,
                ProcessKind::Trainer,
                self.trainer_frames(rank, phase),
            ));
            stacks.push(StackTrace::from_template(
                rank,
                ProcessKind::DataLoader,
                stacktrace::dataloader_frames(false),
            ));
            stacks.push(StackTrace::from_template(
                rank,
                ProcessKind::CheckpointWorker,
                stacktrace::checkpoint_worker_frames(false),
            ));
        }
        // One robust daemon per machine (attached to its first rank).
        for machine_idx in 0..mapping.machine_count() {
            let first_rank = mapping.ranks_on_machine(MachineId(machine_idx as u32))[0];
            stacks.push(StackTrace::from_template(
                first_rank,
                ProcessKind::RobustDaemon,
                stacktrace::daemon_frames(),
            ));
        }
        stacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> TrainingRuntime {
        TrainingRuntime::new(JobSpec::small_test())
    }

    #[test]
    fn hang_stops_progress_and_zeroes_traffic() {
        let mut rt = runtime();
        rt.inject_hang(vec![MachineId(3)]);
        assert_eq!(rt.status(), RuntimeStatus::Hung);
        assert_eq!(rt.fault_victims(), vec![MachineId(3)]);
        rt.clear_fault();
        assert_eq!(rt.status(), RuntimeStatus::Running);
        assert!(rt.fault_victims().is_empty());
    }

    #[test]
    fn nan_fault_produces_nan_loss_but_progresses() {
        let mut rt = runtime();
        rt.inject_nan(vec![MachineId(1)]);
        assert_eq!(rt.status(), RuntimeStatus::NanLoss);
        assert_eq!(rt.fault_victims(), vec![MachineId(1)]);
    }

    #[test]
    fn fail_slow_reduces_mfu() {
        let mut rt = runtime();
        rt.inject_fail_slow(vec![MachineId(2)], 2.5);
        assert_eq!(rt.status(), RuntimeStatus::Degraded);
        assert_eq!(rt.fault_victims(), vec![MachineId(2)]);
    }

    #[test]
    fn rollback_and_restore() {
        let mut rt = runtime();
        rt.restore_to_step(10);
        rt.rollback_steps(3);
        assert_eq!(rt.current_step(), 7);
        rt.restore_to_step(2);
        assert_eq!(rt.current_step(), 2);
        rt.rollback_steps(100);
        assert_eq!(rt.current_step(), 0);
    }

    #[test]
    fn hang_phase_map_isolates_pp_group() {
        let mut rt = runtime();
        let victim = MachineId(5);
        rt.inject_hang(vec![victim]);
        let phases = rt.rank_phases();
        let mapping = rt.topology().mapping();
        let mut victim_backward = 0;
        let mut pp_comm = 0;
        let mut grad_sync = 0;
        for (rank, phase) in &phases {
            if mapping.machine_of(*rank) == victim {
                assert_eq!(*phase, TrainPhase::Backward);
                victim_backward += 1;
            } else {
                match phase {
                    TrainPhase::PipelineComm => pp_comm += 1,
                    TrainPhase::GradReduceScatter => grad_sync += 1,
                    other => panic!("unexpected phase {other:?}"),
                }
            }
        }
        assert_eq!(victim_backward, rt.job().parallelism.gpus_per_machine);
        assert!(pp_comm > 0, "pipeline neighbours must be blocked");
        assert!(grad_sync > pp_comm, "healthy ranks must dominate");
    }

    #[test]
    fn capture_stacks_covers_all_processes() {
        let rt = runtime();
        let stacks = rt.capture_stacks();
        let world = rt.job().world_size();
        let machines = rt.job().machines();
        // trainer + dataloader + ckpt worker per rank, one daemon per machine.
        assert_eq!(stacks.len(), world * 3 + machines);
        assert_eq!(rt.capture().process_count, stacks.len());
    }

    #[test]
    fn capture_groups_every_rank_once_per_process() {
        let mut rt = runtime();
        rt.inject_hang(vec![MachineId(5)]);
        let capture = rt.capture();
        let world = rt.job().world_size();
        for process in [
            ProcessKind::Trainer,
            ProcessKind::DataLoader,
            ProcessKind::CheckpointWorker,
        ] {
            let mut ranks: Vec<Rank> = capture
                .groups
                .iter()
                .filter(|g| g.process == process)
                .flat_map(|g| g.ranks.iter().copied())
                .collect();
            ranks.sort();
            assert_eq!(
                ranks,
                rt.topology().mapping().all_ranks().collect::<Vec<_>>()
            );
            assert_eq!(ranks.len(), world);
        }
        assert!(capture
            .groups
            .iter()
            .all(|g| g.process != ProcessKind::RobustDaemon));
        for group in &capture.groups {
            assert!(group.ranks.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn crash_status() {
        let mut rt = runtime();
        rt.inject_crash();
        assert_eq!(rt.status(), RuntimeStatus::Crashed);
        assert!(rt.fault_victims().is_empty());
    }

    #[test]
    fn code_version_update_changes_step_time() {
        let mut rt = runtime();
        let before = rt.nominal_step_duration();
        let improved = rt.code_version().improved(0.0);
        rt.set_code_version(improved);
        let after = rt.nominal_step_duration();
        assert!(after < before);
    }
}
