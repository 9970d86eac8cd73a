//! Hierarchical stop-time checks (§4.2) and the NaN-loss case-study suite
//! (§4.3).
//!
//! After a job is suspended the diagnoser runs progressively heavier tests:
//!
//! 1. **EUD** (NVIDIA Extended Utility Diagnostics) per machine — catches
//!    outright GPU faults but has only ~70% recall on silent data corruption
//!    (§9),
//! 2. **intra-machine NCCL all-to-all** — verifies inter-GPU bandwidth,
//! 3. **inter-machine NCCL all-gather with neighbours** — verifies network
//!    connectivity and data integrity,
//! 4. **bit-wise alignment test ("MiniGPT")** — every machine trains a small
//!    reference model on fixed inputs for one step; machines whose outputs
//!    differ bit-wise are SDC suspects.
//!
//! The diagnoser reports the suspect machines it found, how long the checks
//! took, and whether everything passed (in which case the controller falls
//! back to reattempt → rollback → dual-phase replay, Fig. 5).

use byterobust_cluster::{Cluster, FaultKind, MachineId, NicState};
use byterobust_sim::{SimDuration, SimRng};
use byterobust_telemetry::LogClass;

/// Timing and accuracy parameters of the stop-time test suites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagnoserConfig {
    /// Duration of an EUD run on one machine (machines run in parallel).
    pub eud_duration: SimDuration,
    /// Duration of the intra-machine all-to-all test.
    pub intra_nccl_duration: SimDuration,
    /// Duration of the inter-machine all-gather test.
    pub inter_nccl_duration: SimDuration,
    /// Duration of the bit-wise alignment (MiniGPT) test.
    pub bitwise_duration: SimDuration,
    /// Probability that EUD catches an SDC-prone GPU (§9: ~70% recall).
    pub eud_sdc_recall: f64,
    /// Probability that the bit-wise alignment test catches an SDC-prone GPU
    /// in one run (the fault is input-dependent and may not fire).
    pub bitwise_sdc_recall: f64,
}

impl Default for DiagnoserConfig {
    fn default() -> Self {
        DiagnoserConfig {
            eud_duration: SimDuration::from_mins(3),
            intra_nccl_duration: SimDuration::from_mins(2),
            inter_nccl_duration: SimDuration::from_mins(3),
            bitwise_duration: SimDuration::from_mins(5),
            eud_sdc_recall: 0.70,
            bitwise_sdc_recall: 0.80,
        }
    }
}

/// What the diagnoser concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosisConclusion {
    /// Specific machines failed the checks and should be evicted.
    FaultyMachines,
    /// The symptom points at user code (rollback is the right next step).
    UserCodeSuspected,
    /// Every test passed; the failure is assumed transient (reattempt).
    AllTestsPassed,
}

/// The outcome of one stop-time diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisOutcome {
    /// Conclusion of the checks.
    pub conclusion: DiagnosisConclusion,
    /// Machines implicated (empty unless `FaultyMachines`).
    pub suspects: Vec<MachineId>,
    /// Wall-clock time the checks took (charged as localization time).
    pub duration: SimDuration,
}

/// The diagnoser sub-module of the Robust Agent.
#[derive(Debug, Clone)]
pub struct Diagnoser {
    /// Configuration.
    pub config: DiagnoserConfig,
    rng: SimRng,
}

impl Diagnoser {
    /// Creates a diagnoser with its own RNG stream (SDC detection is
    /// probabilistic).
    pub fn new(rng: SimRng) -> Self {
        Diagnoser {
            config: DiagnoserConfig::default(),
            rng,
        }
    }

    /// Creates a diagnoser with custom timing/accuracy parameters.
    pub fn with_config(config: DiagnoserConfig, rng: SimRng) -> Self {
        Diagnoser { config, rng }
    }

    /// EUD over the given machines: returns machines with outright GPU faults
    /// plus (with limited recall) SDC-prone machines.
    pub fn run_eud(&mut self, cluster: &Cluster, machines: &[MachineId]) -> Vec<MachineId> {
        let mut suspects = Vec::new();
        for &id in machines {
            let machine = cluster.machine(id);
            let hard_fault = machine.gpus.iter().any(|g| !g.is_usable());
            let sdc_caught =
                machine.has_sdc_prone_gpu() && self.rng.chance(self.config.eud_sdc_recall);
            if hard_fault || sdc_caught {
                suspects.push(id);
            }
        }
        suspects
    }

    /// Intra-machine NCCL all-to-all: catches machines whose intra-node
    /// interconnect or GPUs cannot sustain collective traffic.
    pub fn run_intra_nccl(&mut self, cluster: &Cluster, machines: &[MachineId]) -> Vec<MachineId> {
        machines
            .iter()
            .copied()
            .filter(|&id| {
                let m = cluster.machine(id);
                m.gpus
                    .iter()
                    .any(|g| !g.is_usable() || g.pcie_bandwidth_frac < 0.5)
            })
            .collect()
    }

    /// Inter-machine NCCL all-gather with neighbours: catches machines whose
    /// NIC is down or flapping.
    pub fn run_inter_nccl(&mut self, cluster: &Cluster, machines: &[MachineId]) -> Vec<MachineId> {
        machines
            .iter()
            .copied()
            .filter(|&id| cluster.machine(id).nic != NicState::Up)
            .collect()
    }

    /// Bit-wise alignment test (the MiniGPT suite, §4.3 / §9): each machine
    /// trains a fixed reference model for one step; machines with SDC-prone
    /// GPUs produce mismatching outputs with `bitwise_sdc_recall` probability.
    pub fn run_bitwise_alignment(
        &mut self,
        cluster: &Cluster,
        machines: &[MachineId],
    ) -> Vec<MachineId> {
        machines
            .iter()
            .copied()
            .filter(|&id| {
                cluster.machine(id).has_sdc_prone_gpu()
                    && self.rng.chance(self.config.bitwise_sdc_recall)
            })
            .collect()
    }

    /// Full stop-time diagnosis for a symptom, following §4.2/§4.3:
    /// log-class routing first, then EUD → intra NCCL → inter NCCL, and for
    /// NaN symptoms additionally the bit-wise alignment test.
    pub fn diagnose(
        &mut self,
        cluster: &Cluster,
        machines: &[MachineId],
        symptom: FaultKind,
        log_class: LogClass,
    ) -> DiagnosisOutcome {
        // User-space errors are routed to rollback without burning test time.
        if log_class == LogClass::UserCode {
            return DiagnosisOutcome {
                conclusion: DiagnosisConclusion::UserCodeSuspected,
                suspects: Vec::new(),
                duration: SimDuration::from_secs(30),
            };
        }

        let mut duration = SimDuration::ZERO;
        let mut suspects;

        // Step 1: EUD.
        duration += self.config.eud_duration;
        suspects = self.run_eud(cluster, machines);

        // Step 2: intra-machine all-to-all if EUD found nothing.
        if suspects.is_empty() {
            duration += self.config.intra_nccl_duration;
            suspects = self.run_intra_nccl(cluster, machines);
        }

        // Step 3: inter-machine all-gather.
        if suspects.is_empty() {
            duration += self.config.inter_nccl_duration;
            suspects = self.run_inter_nccl(cluster, machines);
        }

        // Step 4: bit-wise alignment for NaN-class symptoms.
        if suspects.is_empty() && symptom == FaultKind::NanValue {
            duration += self.config.bitwise_duration;
            suspects = self.run_bitwise_alignment(cluster, machines);
        }

        suspects.sort();
        suspects.dedup();
        let conclusion = if suspects.is_empty() {
            DiagnosisConclusion::AllTestsPassed
        } else {
            DiagnosisConclusion::FaultyMachines
        };
        DiagnosisOutcome {
            conclusion,
            suspects,
            duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::ClusterSpec;

    fn cluster() -> Cluster {
        Cluster::build(ClusterSpec::small_test())
    }

    fn all_active(cluster: &Cluster) -> Vec<MachineId> {
        cluster.active_machines()
    }

    #[test]
    fn healthy_cluster_passes_all_tests() {
        let cluster = cluster();
        let mut d = Diagnoser::new(SimRng::new(1));
        let outcome = d.diagnose(
            &cluster,
            &all_active(&cluster),
            FaultKind::CudaError,
            LogClass::CudaOrGpu,
        );
        assert_eq!(outcome.conclusion, DiagnosisConclusion::AllTestsPassed);
        assert!(outcome.suspects.is_empty());
        // All three network/GPU suites were run.
        assert!(outcome.duration >= SimDuration::from_mins(8));
    }

    #[test]
    fn broken_gpu_caught_by_eud() {
        let mut cluster = cluster();
        cluster.machine_mut(MachineId(4)).gpu_mut(2).mark_faulty();
        let mut d = Diagnoser::new(SimRng::new(2));
        let outcome = d.diagnose(
            &cluster,
            &all_active(&cluster),
            FaultKind::CudaError,
            LogClass::CudaOrGpu,
        );
        assert_eq!(outcome.conclusion, DiagnosisConclusion::FaultyMachines);
        assert_eq!(outcome.suspects, vec![MachineId(4)]);
        // EUD alone sufficed.
        assert_eq!(outcome.duration, d.config.eud_duration);
    }

    #[test]
    fn nic_fault_caught_by_inter_nccl() {
        let mut cluster = cluster();
        cluster.machine_mut(MachineId(9)).nic = NicState::Flapping;
        let mut d = Diagnoser::new(SimRng::new(3));
        let outcome = d.diagnose(
            &cluster,
            &all_active(&cluster),
            FaultKind::InfinibandError,
            LogClass::Communication,
        );
        assert_eq!(outcome.suspects, vec![MachineId(9)]);
        assert_eq!(
            outcome.duration,
            d.config.eud_duration + d.config.intra_nccl_duration + d.config.inter_nccl_duration
        );
    }

    #[test]
    fn user_code_errors_short_circuit_to_rollback() {
        let cluster = cluster();
        let mut d = Diagnoser::new(SimRng::new(4));
        let outcome = d.diagnose(
            &cluster,
            &all_active(&cluster),
            FaultKind::CudaError,
            LogClass::UserCode,
        );
        assert_eq!(outcome.conclusion, DiagnosisConclusion::UserCodeSuspected);
        assert!(outcome.duration < SimDuration::from_mins(1));
    }

    #[test]
    fn sdc_machine_caught_by_bitwise_alignment_most_of_the_time() {
        let mut caught = 0;
        let trials = 50;
        for seed in 0..trials {
            let mut cluster = cluster();
            cluster.machine_mut(MachineId(7)).gpu_mut(0).sdc_prone = true;
            let mut d = Diagnoser::new(SimRng::new(seed));
            let outcome = d.diagnose(
                &cluster,
                &all_active(&cluster),
                FaultKind::NanValue,
                LogClass::Unknown,
            );
            if outcome.suspects.contains(&MachineId(7)) {
                caught += 1;
            }
        }
        // EUD (70% recall) plus bit-wise alignment (80% recall) should catch
        // the SDC machine in the vast majority of trials, but not always.
        assert!(caught > trials * 7 / 10, "caught {caught}/{trials}");
    }

    #[test]
    fn sdc_machine_sometimes_escapes_all_checks() {
        // The controller must handle the "all tests passed but the fault is
        // real" case via reattempt/rollback/replay — verify it can happen.
        let mut escaped = false;
        for seed in 0..200 {
            let mut cluster = cluster();
            cluster.machine_mut(MachineId(7)).gpu_mut(0).sdc_prone = true;
            let mut d = Diagnoser::new(SimRng::new(seed));
            let outcome = d.diagnose(
                &cluster,
                &all_active(&cluster),
                FaultKind::NanValue,
                LogClass::Unknown,
            );
            if outcome.conclusion == DiagnosisConclusion::AllTestsPassed {
                escaped = true;
                break;
            }
        }
        assert!(
            escaped,
            "SDC should occasionally evade the stop-time checks"
        );
    }

    #[test]
    fn degraded_pcie_caught_by_intra_nccl() {
        let mut cluster = cluster();
        cluster
            .machine_mut(MachineId(2))
            .gpu_mut(5)
            .pcie_bandwidth_frac = 0.3;
        let mut d = Diagnoser::new(SimRng::new(9));
        let suspects = d.run_intra_nccl(&cluster, &all_active(&cluster));
        assert_eq!(suspects, vec![MachineId(2)]);
    }
}
