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

/// Where a machine's ranks stand under the active fault (see
/// [`TrainingRuntime::rank_phases`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum MachineRole {
    /// Every rank synchronizes gradients.
    Clean,
    /// A fault victim: every rank lags in backward compute.
    Victim,
    /// Hosts a hung victim's pipeline neighbour: each rank blocks in P2P or
    /// synchronizes gradients by its own pipeline group.
    Neighbour,
}

/// The phase lookup [`TrainingRuntime::capture`] classifies ranks with: a
/// role per machine and, under a hang, a blocked flag per pipeline group
/// (rank `tp + TP·dp + TP·DP·pp` sits in pipeline group `rank % (TP·DP)`).
struct PhaseFlags {
    /// Each machine's role; empty when every machine is clean.
    machine: Vec<MachineRole>,
    /// Whether each pipeline group holds a hung victim rank; empty unless
    /// the fault is a hang.
    pp_blocked: Vec<bool>,
}

impl PhaseFlags {
    fn role(&self, machine: usize) -> MachineRole {
        self.machine
            .get(machine)
            .copied()
            .unwrap_or(MachineRole::Clean)
    }

    /// The phase of a rank on a [`MachineRole::Neighbour`] machine.
    fn neighbour_phase(&self, rank: Rank) -> TrainPhase {
        if self.pp_blocked[rank.index() % self.pp_blocked.len()] {
            TrainPhase::PipelineComm
        } else {
            TrainPhase::GradReduceScatter
        }
    }
}

/// The ranks of the trainer group showing `frames`, opened at the end of
/// `groups` if this is the template's first rank.
fn trainer_group<'a>(
    groups: &'a mut Vec<StackGroup>,
    frames: &'static [StackFrame],
) -> &'a mut Vec<Rank> {
    // Each template is its own `static`, so its address names it.
    let index = match groups.iter().position(|g| std::ptr::eq(g.frames, frames)) {
        Some(index) => index,
        None => {
            groups.push(StackGroup {
                process: ProcessKind::Trainer,
                frames,
                ranks: Vec::new(),
            });
            groups.len() - 1
        }
    };
    &mut groups[index].ranks
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

    /// The phase lookup for [`TrainingRuntime::capture`], built from the
    /// victims' own ranks and their pipeline groups, so it costs nothing per
    /// healthy rank.
    fn phase_flags(&self) -> PhaseFlags {
        let mut flags = PhaseFlags {
            machine: Vec::new(),
            pp_blocked: Vec::new(),
        };
        let (victims, hang) = match &self.fault {
            ActiveFault::Hang { victims } => (victims, true),
            ActiveFault::FailSlow { victims, .. } => (victims, false),
            ActiveFault::Nan { .. } | ActiveFault::Crash | ActiveFault::None => return flags,
        };
        let config = self.topology.config();
        let machines = config.machines();
        let gpus = config.gpus_per_machine;
        let pipeline_groups = config.tp * config.dp;
        // A victim outside the job hosts no rank, as in `rank_phases`.
        let victims = || victims.iter().filter(|v| v.index() < machines);
        flags.machine = vec![MachineRole::Clean; machines];
        for victim in victims() {
            flags.machine[victim.index()] = MachineRole::Victim;
        }
        if hang {
            flags.pp_blocked = vec![false; pipeline_groups];
            for victim in victims() {
                let first = victim.index() * gpus;
                for group in (first..first + gpus).map(|rank| rank % pipeline_groups) {
                    flags.pp_blocked[group] = true;
                    for rank in (group..config.world_size()).step_by(pipeline_groups) {
                        let host = &mut flags.machine[rank / gpus];
                        if *host == MachineRole::Clean {
                            *host = MachineRole::Neighbour;
                        }
                    }
                }
            }
        }
        flags
    }

    /// One on-demand capture (§3, §5.1), grouped by stack template in a
    /// single pass over the machines, with no hashing
    /// ([`TrainingRuntime::rank_phases`] is the oracle it agrees with): a
    /// clean or victim machine's ranks all join one trainer group, and only
    /// a hung victim's pipeline neighbours are classified rank by rank.
    /// Every rank's data-loader and checkpoint workers sit in their idle
    /// templates. The robust daemon (one per machine) is counted but not
    /// grouped, as it takes no part in the aggregation. Nothing is
    /// materialized per rank beyond its place in the rank lists.
    pub fn capture(&self) -> StackCapture {
        let config = self.topology.config();
        let world = config.world_size();
        let gpus = config.gpus_per_machine;
        let flags = self.phase_flags();
        let mut groups: Vec<StackGroup> = Vec::new();
        for machine in 0..config.machines() {
            let first = (machine * gpus) as u32;
            let ranks = (first..first + gpus as u32).map(Rank);
            match flags.role(machine) {
                MachineRole::Clean => {
                    let frames = stacktrace::trainer_frames(TrainPhase::GradReduceScatter);
                    trainer_group(&mut groups, frames).extend(ranks);
                }
                MachineRole::Victim => {
                    let frames = stacktrace::trainer_frames(TrainPhase::Backward);
                    trainer_group(&mut groups, frames).extend(ranks);
                }
                MachineRole::Neighbour => {
                    for rank in ranks {
                        let frames = self.trainer_frames(rank, flags.neighbour_phase(rank));
                        trainer_group(&mut groups, frames).push(rank);
                    }
                }
            }
        }
        let ranks: Vec<Rank> = (0..world as u32).map(Rank).collect();
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
            process_count: world * 3 + config.machines(),
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
        assert_eq!(
            rt.fault,
            ActiveFault::Hang {
                victims: vec![MachineId(3)]
            }
        );
        rt.clear_fault();
        assert_eq!(rt.fault, ActiveFault::None);
    }

    #[test]
    fn nan_fault_produces_nan_loss_but_progresses() {
        let mut rt = runtime();
        rt.inject_nan(vec![MachineId(1)]);
        assert_eq!(
            rt.fault,
            ActiveFault::Nan {
                victims: vec![MachineId(1)]
            }
        );
    }

    #[test]
    fn fail_slow_reduces_mfu() {
        let mut rt = runtime();
        rt.inject_fail_slow(vec![MachineId(2)], 2.5);
        assert_eq!(
            rt.fault,
            ActiveFault::FailSlow {
                victims: vec![MachineId(2)],
                slowdown: 2.5
            }
        );
    }

    #[test]
    fn rollback_and_restore() {
        let mut rt = runtime();
        rt.restore_to_step(10);
        assert_eq!(rt.current_step(), 10);
        rt.restore_to_step(2);
        assert_eq!(rt.current_step(), 2);
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

    /// The capture as it was built before the phase flags: one pass over
    /// [`TrainingRuntime::rank_phases`], each trainer joining its
    /// template's group in order of first appearance.
    fn capture_from_rank_phases(rt: &TrainingRuntime) -> StackCapture {
        let phases = rt.rank_phases();
        let mut groups: Vec<StackGroup> = Vec::new();
        for &(rank, phase) in &phases {
            let frames = rt.trainer_frames(rank, phase);
            match groups.iter_mut().find(|g| std::ptr::eq(g.frames, frames)) {
                Some(group) => group.ranks.push(rank),
                None => groups.push(StackGroup {
                    process: ProcessKind::Trainer,
                    frames,
                    ranks: vec![rank],
                }),
            }
        }
        let ranks: Vec<Rank> = phases.iter().map(|&(rank, _)| rank).collect();
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
            process_count: phases.len() * 3 + rt.topology().mapping().machine_count(),
        }
    }

    #[test]
    fn flag_capture_equals_rank_phases_grouped_by_template() {
        let fig7 = JobSpec {
            parallelism: byterobust_parallelism::ParallelismConfig::fig7_example(),
            ..JobSpec::small_test()
        };
        for job in [fig7, JobSpec::small_test(), JobSpec::production_dense()] {
            let last = MachineId(job.machines() as u32 - 1);
            let middle = MachineId(job.machines() as u32 / 2);
            let outside = MachineId(job.machines() as u32 + 3);
            let victim_sets = [
                vec![MachineId(0)],
                vec![last],
                vec![MachineId(0), middle, last],
                vec![middle, middle],
                vec![outside],
                vec![MachineId(1), outside],
                vec![],
            ];
            let mut runtimes = vec![runtime_for(&job, |_| {})];
            runtimes.push(runtime_for(&job, |rt| rt.inject_crash()));
            for victims in &victim_sets {
                runtimes.push(runtime_for(&job, |rt| rt.inject_hang(victims.clone())));
                runtimes.push(runtime_for(&job, |rt| {
                    rt.inject_fail_slow(victims.clone(), 2.0)
                }));
                runtimes.push(runtime_for(&job, |rt| rt.inject_nan(victims.clone())));
            }
            for rt in &runtimes {
                assert_eq!(
                    rt.capture(),
                    capture_from_rank_phases(rt),
                    "{:?} under {:?}",
                    job.parallelism,
                    rt.fault
                );
            }
        }
    }

    fn runtime_for(job: &JobSpec, inject: impl FnOnce(&mut TrainingRuntime)) -> TrainingRuntime {
        let mut rt = TrainingRuntime::new(job.clone());
        inject(&mut rt);
        rt
    }

    #[test]
    fn crash_status() {
        let mut rt = runtime();
        rt.inject_crash();
        assert_eq!(rt.fault, ActiveFault::Crash);
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
