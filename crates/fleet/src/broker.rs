//! The fleet resource broker: admission control, preemption, and cross-job
//! machine migration over the shared warm-standby pool.
//!
//! Every machine grant in a brokered fleet goes through [`FleetBroker`]
//! instead of the raw [`WarmStandbyPool`]. While the pool can cover a
//! request, the broker is a strict pass-through — a brokered run of a
//! non-starved fleet is byte-identical to a broker-disabled run (pinned by
//! the oracle tests). When a job's incident drains the pool, the broker
//! closes the gap in priority order:
//!
//! 1. **Preemption** — in-flight pool replenishments are earmarked for the
//!    jobs whose evictions consumed the standbys they replace. A starving
//!    higher-priority job may commandeer a lower-priority job's slot: it
//!    waits out the remaining provisioning instead of paying the full
//!    reschedule path, and the victim's earmark is gone.
//! 2. **Migration** — an over-provisioned job (one holding spare warm
//!    machines beyond its own needs) donates a spare to the starving job.
//!    The `Machine` object moves between the jobs' clusters wholesale via
//!    the [`FleetMachineRegistry`], so the machine keeps its `MachineId` —
//!    and with it its fleet-wide incident and repeat-offender history.
//! 3. **Queued admission** — under an admission limit, jobs start only when
//!    fleet capacity exists; queued jobs hold their cluster but report no
//!    events until a finishing job frees their footprint.
//!
//! Whatever the broker does is observable twice: as [`BrokerEvent`]s in the
//! fleet report, and as `RecorderEvent::CapacityStarvation` markers inside
//! each affected incident's flight-recorder capture — so postmortems and the
//! warehouse attribute the delay to capacity starvation, not failure
//! handling.

use byterobust_cluster::{FleetMachineRegistry, MachineId, MigrationRecord};
use byterobust_obs::{names, SpanKind, TraceRecorder};
use byterobust_recovery::{RestartCostModel, SchedulingOutcome, StandbyScheduler, WarmStandbyPool};
use byterobust_sim::{SimDuration, SimTime};

use crate::runner::FleetConfig;

/// Warm spares a migration donor always keeps for itself: donating below
/// this would just move the starvation to the donor's next eviction.
const DONOR_KEEPS: usize = 2;

/// Scheduling priority of a fleet job. Higher priorities preempt standby
/// capacity reserved by lower ones and are admitted first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum JobPriority {
    /// Preemptible background work.
    BestEffort,
    /// The default tier.
    #[default]
    Standard,
    /// Flagship training runs: admitted first, never preempted or stripped.
    Critical,
}

impl JobPriority {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            JobPriority::BestEffort => "best-effort",
            JobPriority::Standard => "standard",
            JobPriority::Critical => "critical",
        }
    }
}

/// Broker policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerConfig {
    /// Maximum machine footprint admitted concurrently. `None` admits every
    /// job at time zero (admission control off).
    pub admission_limit: Option<usize>,
    /// Ready standbys held in reserve for the fleet's top priority tier:
    /// a request from a lower-priority job never draws the pool below this
    /// floor (the held-back machines count as its shortfall). The reserve is
    /// only meaningful in fleets that actually mix priorities, and never
    /// binds while the pool is comfortably stocked.
    pub reserve_for_priority: usize,
}

/// One broker intervention, in fleet event order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerEvent {
    /// A job did not fit under the admission limit at time zero.
    Queued {
        /// The queued job.
        job: usize,
        /// Its machine footprint.
        demand: usize,
    },
    /// A queued job was admitted once capacity freed up.
    Admitted {
        /// The admitted job.
        job: usize,
        /// When it started.
        at: SimTime,
    },
    /// A replenishment slot earmarked for `victim` was commandeered.
    Preempted {
        /// The starving beneficiary.
        job: usize,
        /// The lower-priority job whose slot was taken.
        victim: usize,
        /// When the grant happened.
        at: SimTime,
        /// How long the beneficiary waits for the slot to finish
        /// provisioning.
        wait: SimDuration,
    },
    /// A spare machine migrated from an over-provisioned donor job.
    Migrated {
        /// The starving beneficiary.
        job: usize,
        /// The donor job.
        from_job: usize,
        /// The machine that moved (id and history preserved).
        machine: MachineId,
        /// When the grant happened.
        at: SimTime,
    },
    /// Machines neither preemption nor migration could cover; they paid the
    /// full reschedule path.
    Residual {
        /// The starving job.
        job: usize,
        /// When the grant happened.
        at: SimTime,
        /// Machines rescheduled from the free pool.
        machines: usize,
    },
    /// Ready standbys withheld from a lower-priority request: the broker kept
    /// them in reserve for the fleet's top priority tier.
    ReserveHeld {
        /// The lower-priority job that was refused.
        job: usize,
        /// When the grant happened.
        at: SimTime,
        /// Machines withheld.
        machines: usize,
    },
}

/// What the broker did over a fleet run, for the report.
#[derive(Debug, Clone, Default)]
pub struct BrokerSummary {
    /// Replenishment slots commandeered from lower-priority jobs.
    pub preempted_slots: usize,
    /// Machines migrated between jobs.
    pub migrated_machines: usize,
    /// Jobs that waited in the admission queue.
    pub queued_jobs: usize,
    /// Machines that still paid the full reschedule path.
    pub residual_shortfall_machines: usize,
    /// Ready standbys withheld from lower-priority requests (kept in reserve
    /// for the top priority tier).
    pub reserve_held_machines: usize,
    /// Deterministically rendered event lines, in fleet event order.
    pub lines: Vec<String>,
}

impl BrokerSummary {
    /// Whether the broker intervened at all. A brokered run with no activity
    /// renders byte-identically to a broker-disabled run.
    pub fn has_activity(&self) -> bool {
        !self.lines.is_empty()
    }
}

/// The broker itself: owns the shared pool, the machine registry, and all
/// policy state for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetBroker {
    pool: WarmStandbyPool,
    policy: Option<BrokerConfig>,
    priorities: Vec<JobPriority>,
    labels: Vec<String>,
    demands: Vec<usize>,
    registry: FleetMachineRegistry,
    /// In-flight pool replenishments, earmarked for the job whose eviction
    /// consumed the standby each slot replaces: `(completes_at, owner_job)`,
    /// kept sorted by completion time (grant times are monotone).
    slot_owners: Vec<(SimTime, usize)>,
    /// Migrations granted during the current advance, applied to the jobs'
    /// clusters by the runner once the advancing job's borrow ends.
    pending_migrations: Vec<MigrationRecord>,
    events: Vec<BrokerEvent>,
    /// Jobs still waiting for admission, in admission order.
    queue: Vec<usize>,
    held: Vec<bool>,
    finished: Vec<bool>,
    footprint_in_use: usize,
}

impl FleetBroker {
    /// Builds the broker for a fleet run. `policy == None` is the
    /// broker-disabled mode: a pure pass-through to the pool with no
    /// bookkeeping.
    pub fn new(config: &FleetConfig, pool: WarmStandbyPool) -> Self {
        let jobs = config.jobs.len();
        FleetBroker {
            pool,
            policy: config.broker,
            priorities: config.jobs.iter().map(|job| job.priority).collect(),
            labels: config.jobs.iter().map(|job| job.label.clone()).collect(),
            demands: config
                .jobs
                .iter()
                .map(|job| job.config.job.machines())
                .collect(),
            registry: FleetMachineRegistry::new(),
            slot_owners: Vec::new(),
            pending_migrations: Vec::new(),
            events: Vec::new(),
            queue: Vec::new(),
            held: vec![false; jobs],
            finished: vec![false; jobs],
            footprint_in_use: 0,
        }
    }

    /// Whether broker policy (vs. pass-through) is active.
    pub fn enabled(&self) -> bool {
        self.policy.is_some()
    }

    /// The shared pool (for end-of-run stats).
    pub fn pool(&self) -> &WarmStandbyPool {
        &self.pool
    }

    /// The machine registry (lease sets, spares, migration log).
    pub fn registry(&self) -> &FleetMachineRegistry {
        &self.registry
    }

    /// Jobs currently held in the admission queue (alert-signal gauge).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Registers one job's cluster membership with the registry (broker
    /// enabled only; jobs in index order).
    pub fn register_job(&mut self, job: usize, members: &[MachineId], spares: &[MachineId]) {
        if self.enabled() {
            self.registry.register_job(job, members, spares);
        }
    }

    /// Refreshes a job's donatable-spare set after it advanced (it may have
    /// activated standbys of its own).
    pub fn sync_spares(&mut self, job: usize, spares: &[MachineId]) {
        if self.enabled() {
            self.registry.sync_spares(job, spares);
        }
    }

    /// Returns a swept machine to the shared pool (deduplicated on identity).
    pub fn restock(&mut self, machine: MachineId) -> bool {
        self.pool.restock(machine)
    }

    /// Decides which jobs start at time zero. Returns the indices to hold in
    /// the admission queue. Admission is strict FIFO in (priority desc, index
    /// asc) order: a job that does not fit blocks everything behind it.
    ///
    /// # Panics
    /// Panics if any single job's footprint exceeds the admission limit (it
    /// could never start).
    pub fn plan_admission(&mut self) -> Vec<usize> {
        let Some(BrokerConfig {
            admission_limit: Some(limit),
            ..
        }) = self.policy
        else {
            return Vec::new();
        };
        if let Some(&max) = self.demands.iter().max() {
            assert!(
                max <= limit,
                "admission limit {limit} cannot ever fit a {max}-machine job"
            );
        }
        let mut order: Vec<usize> = (0..self.demands.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.priorities[i]), i));
        let mut held = Vec::new();
        let mut blocked = false;
        for &job in &order {
            if !blocked && self.footprint_in_use + self.demands[job] <= limit {
                self.footprint_in_use += self.demands[job];
            } else {
                blocked = true;
                self.held[job] = true;
                self.queue.push(job);
                held.push(job);
                self.events.push(BrokerEvent::Queued {
                    job,
                    demand: self.demands[job],
                });
            }
        }
        held.sort_unstable();
        held
    }

    /// Frees a finished job's footprint and admits queued jobs that now fit,
    /// in queue order. Returns the newly admitted job indices.
    pub fn on_job_finished(&mut self, job: usize, at: SimTime) -> Vec<usize> {
        // A finished job no longer claims the priority reserve (see
        // `schedule_for`), admission limit or not.
        self.finished[job] = true;
        let Some(BrokerConfig {
            admission_limit: Some(limit),
            ..
        }) = self.policy
        else {
            return Vec::new();
        };
        self.footprint_in_use = self.footprint_in_use.saturating_sub(self.demands[job]);
        let mut admitted = Vec::new();
        while let Some(&next) = self.queue.first() {
            if self.footprint_in_use + self.demands[next] > limit {
                break;
            }
            self.queue.remove(0);
            self.footprint_in_use += self.demands[next];
            self.held[next] = false;
            admitted.push(next);
            self.events.push(BrokerEvent::Admitted { job: next, at });
        }
        admitted
    }

    /// Migrations granted during the last advance, for the runner to apply
    /// to the donor and receiver clusters.
    pub fn take_pending_migrations(&mut self) -> Vec<MigrationRecord> {
        std::mem::take(&mut self.pending_migrations)
    }

    /// Replays the event log into `recorder` as instant trace spans, one per
    /// intervention. A broker that never intervened records nothing, so the
    /// trace of a brokered-but-idle run stays byte-identical to a
    /// broker-disabled run (the same contract the report's broker section
    /// keeps).
    pub fn record_trace(&self, recorder: &mut TraceRecorder) {
        for event in &self.events {
            match *event {
                BrokerEvent::Queued { demand, .. } => {
                    let span = recorder.instant(
                        SpanKind::Admission,
                        names::ADMISSION_HOLD,
                        None,
                        SimTime::ZERO,
                    );
                    recorder.set_value(span, demand as u64);
                }
                BrokerEvent::Admitted { job, at } => {
                    let span =
                        recorder.instant(SpanKind::Admission, names::ADMISSION_RELEASE, None, at);
                    recorder.set_value(span, job as u64);
                }
                BrokerEvent::Preempted { at, wait, .. } => {
                    let span =
                        recorder.instant(SpanKind::Preemption, names::PREEMPT_SLOT, None, at);
                    recorder.set_value(span, wait.as_millis());
                }
                BrokerEvent::Migrated { machine, at, .. } => {
                    let span =
                        recorder.instant(SpanKind::Migration, names::MIGRATE_MACHINE, None, at);
                    recorder.set_machine(span, machine);
                }
                BrokerEvent::Residual { at, machines, .. } => {
                    let span =
                        recorder.instant(SpanKind::Admission, names::GRANT_RESIDUAL, None, at);
                    recorder.set_value(span, machines as u64);
                }
                BrokerEvent::ReserveHeld { at, machines, .. } => {
                    let span =
                        recorder.instant(SpanKind::Admission, names::GRANT_RESERVE_HELD, None, at);
                    recorder.set_value(span, machines as u64);
                }
            }
        }
    }

    /// Summarizes the run for the fleet report. `None` when the broker was
    /// disabled.
    pub fn summary(&self) -> Option<BrokerSummary> {
        self.policy?;
        let mut summary = BrokerSummary::default();
        for event in &self.events {
            let line = match *event {
                BrokerEvent::Queued { job, demand } => {
                    summary.queued_jobs += 1;
                    format!(
                        "  [queued] {} ({}, {} machines) waits for admission",
                        self.labels[job],
                        self.priorities[job].label(),
                        demand
                    )
                }
                BrokerEvent::Admitted { job, at } => {
                    format!("  [{}] {} admitted from the queue", at, self.labels[job])
                }
                BrokerEvent::Preempted {
                    job,
                    victim,
                    at,
                    wait,
                } => {
                    summary.preempted_slots += 1;
                    format!(
                        "  [{}] {} preempted a replenishment slot from {} (waits {})",
                        at, self.labels[job], self.labels[victim], wait
                    )
                }
                BrokerEvent::Migrated {
                    job,
                    from_job,
                    machine,
                    at,
                } => {
                    summary.migrated_machines += 1;
                    format!(
                        "  [{}] {} migrated into {} from {} (history travels with it)",
                        at, machine, self.labels[job], self.labels[from_job]
                    )
                }
                BrokerEvent::Residual { job, at, machines } => {
                    summary.residual_shortfall_machines += machines;
                    format!(
                        "  [{}] {}: {} machine(s) fell through to the full reschedule path",
                        at, self.labels[job], machines
                    )
                }
                BrokerEvent::ReserveHeld { job, at, machines } => {
                    summary.reserve_held_machines += machines;
                    format!(
                        "  [{}] {}: {} ready standby(s) withheld for the critical tier",
                        at, self.labels[job], machines
                    )
                }
            };
            summary.lines.push(line);
        }
        Some(summary)
    }

    /// Covers one job's eviction batch. Pass-through to the pool while it can
    /// cover the request; on shortfall (broker enabled) the gap is closed per
    /// machine by whichever of preemption / migration is cheaper, with the
    /// full reschedule path as the residual.
    pub fn schedule_for(
        &mut self,
        job: usize,
        model: &RestartCostModel,
        evicted: usize,
        now: SimTime,
    ) -> SchedulingOutcome {
        if evicted == 0 || self.policy.is_none() {
            return self.pool.schedule(model, evicted, now);
        }
        // Priority reservation: a request from below the fleet's top priority
        // tier never drains the pool's last `reserve_for_priority` standbys —
        // they stay ready for the critical jobs this broker exists to keep
        // moving.
        // The reserve protects jobs that can still use it: finished jobs'
        // priorities no longer count (held jobs do — they will run).
        let top_priority = self
            .priorities
            .iter()
            .zip(&self.finished)
            .filter(|(_, &finished)| !finished)
            .map(|(&priority, _)| priority)
            .max()
            .unwrap_or_default();
        let reserve = self.policy.map(|p| p.reserve_for_priority).unwrap_or(0);
        let floor = if self.priorities[job] < top_priority {
            reserve
        } else {
            0
        };
        self.pool.tick(now);
        let coverable = evicted.min(self.pool.ready());
        let grant = self.pool.request_with_floor(evicted, now, floor);
        if grant.granted < coverable {
            self.events.push(BrokerEvent::ReserveHeld {
                job,
                at: now,
                machines: coverable - grant.granted,
            });
        }
        // Keep the replenishment earmarks in sync with the pool: completed
        // slots became ready standbys, new slots (provisioned for what this
        // request consumed) belong to the requesting job.
        self.slot_owners.retain(|&(t, _)| t > now);
        while self.slot_owners.len() < self.pool.in_flight() {
            self.slot_owners
                .push((now + WarmStandbyPool::PROVISION_TIME, job));
        }

        let mut outcome = SchedulingOutcome {
            granted: grant.granted,
            ..SchedulingOutcome::default()
        };
        let mut slowest = if grant.granted > 0 {
            RestartCostModel::STANDBY_AWAKEN
        } else {
            SimDuration::ZERO
        };

        let mut uncovered = grant.shortfall;
        while uncovered > 0 {
            // Cheapest eligible preemption: the earliest-completing slot
            // earmarked for a strictly lower-priority job, if waiting it out
            // beats the reschedule path.
            let slot = self
                .slot_owners
                .iter()
                .position(|&(t, owner)| {
                    self.priorities[owner] < self.priorities[job]
                        && model.preempted_slot_time(now, t) < model.reschedule_time(1)
                })
                .map(|pos| (pos, model.preempted_slot_time(now, self.slot_owners[pos].0)));
            // Best migration donor: an over-provisioned job of equal or lower
            // priority that is not held in the admission queue.
            let allowed: Vec<usize> = (0..self.priorities.len())
                .filter(|&candidate| {
                    candidate != job
                        && !self.held[candidate]
                        && self.priorities[candidate] <= self.priorities[job]
                })
                .collect();
            let donor = self.registry.best_donor(job, &allowed, DONOR_KEEPS);

            // Per machine, take the cheaper of the two mechanisms (preemption
            // wins ties); fall through to the reschedule residual when
            // neither exists.
            let prefer_slot = match (&slot, &donor) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some((_, slot_cost)), Some(_)) => *slot_cost <= model.migration_time(),
            };
            match (slot, donor) {
                (Some((pos, slot_cost)), _) if prefer_slot => {
                    let (completes_at, victim) = self.slot_owners.remove(pos);
                    assert!(self.pool.cancel_provisioning(completes_at));
                    outcome.preempted += 1;
                    slowest = slowest.max(slot_cost);
                    self.events.push(BrokerEvent::Preempted {
                        job,
                        victim,
                        at: now,
                        wait: completes_at.saturating_since(now),
                    });
                }
                (_, Some((from_job, machine))) => {
                    self.registry.migrate(machine, from_job, job, now);
                    self.pending_migrations.push(MigrationRecord {
                        machine,
                        from_job,
                        to_job: job,
                        at: now,
                    });
                    outcome.migrated += 1;
                    slowest = slowest.max(model.migration_time());
                    self.events.push(BrokerEvent::Migrated {
                        job,
                        from_job,
                        machine,
                        at: now,
                    });
                }
                _ => unreachable!("prefer_slot covers the remaining cases"),
            }
            uncovered -= 1;
        }

        if uncovered > 0 {
            outcome.shortfall = uncovered;
            slowest = slowest.max(model.reschedule_time(uncovered));
            self.events.push(BrokerEvent::Residual {
                job,
                at: now,
                machines: uncovered,
            });
        }
        outcome.duration = slowest;
        outcome
    }
}

/// Scopes a broker to one job for the duration of an advance, so
/// `JobExecution::advance_with_scheduler` can route grants through the fleet
/// broker without knowing about job indices.
#[derive(Debug)]
pub struct BrokeredScheduler<'a> {
    broker: &'a mut FleetBroker,
    job: usize,
}

impl<'a> BrokeredScheduler<'a> {
    /// Scopes `broker` to `job`.
    pub fn new(broker: &'a mut FleetBroker, job: usize) -> Self {
        BrokeredScheduler { broker, job }
    }
}

impl StandbyScheduler for BrokeredScheduler<'_> {
    fn schedule(
        &mut self,
        model: &RestartCostModel,
        evicted: usize,
        now: SimTime,
    ) -> SchedulingOutcome {
        self.broker.schedule_for(self.job, model, evicted, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{FleetConfig, FleetJob};
    use byterobust_core::JobConfig;

    fn config(broker: Option<BrokerConfig>) -> FleetConfig {
        let mut config = FleetConfig::new(vec![
            FleetJob::new("critical", JobConfig::small_test()).with_priority(JobPriority::Critical),
            FleetJob::new("donor", JobConfig::small_test()).with_priority(JobPriority::BestEffort),
            FleetJob::new("queued", JobConfig::small_test()).with_priority(JobPriority::BestEffort),
        ]);
        config.broker = broker;
        config
    }

    fn model() -> RestartCostModel {
        RestartCostModel::for_job(16)
    }

    fn ids(range: std::ops::Range<u32>) -> Vec<MachineId> {
        range.map(MachineId).collect()
    }

    #[test]
    fn disabled_broker_is_a_pool_pass_through() {
        let config = config(None);
        let mut broker = FleetBroker::new(&config, config.shared_pool());
        let mut reference = config.shared_pool();
        assert!(!broker.enabled());
        assert!(broker.plan_admission().is_empty());
        for round in 0..4u64 {
            let now = SimTime::from_secs(round * 1800);
            let got = broker.schedule_for(0, &model(), 2, now);
            let expected = reference.schedule(&model(), 2, now);
            assert_eq!(got, expected, "round {round}");
        }
        assert!(broker.summary().is_none());
        assert!(broker.events.is_empty());
    }

    #[test]
    fn admission_queue_holds_and_releases_in_priority_order() {
        let config = config(Some(BrokerConfig {
            admission_limit: Some(32),
            ..BrokerConfig::default()
        }));
        let mut broker = FleetBroker::new(&config, config.shared_pool());
        // 3 x 16 machines under a 32 limit: the critical job and the first
        // best-effort job start; the second best-effort job queues.
        let held = broker.plan_admission();
        assert_eq!(held, vec![2]);
        let admitted = broker.on_job_finished(0, SimTime::from_hours(48));
        assert_eq!(admitted, vec![2]);
        let summary = broker.summary().expect("broker enabled");
        assert_eq!(summary.queued_jobs, 1);
        assert!(summary.has_activity());
    }

    #[test]
    #[should_panic(expected = "cannot ever fit")]
    fn impossible_admission_limit_panics() {
        let config = config(Some(BrokerConfig {
            admission_limit: Some(8),
            ..BrokerConfig::default()
        }));
        let mut broker = FleetBroker::new(&config, config.shared_pool());
        broker.plan_admission();
    }

    #[test]
    fn starving_critical_job_preempts_lower_priority_slots() {
        let mut config = config(Some(BrokerConfig::default()));
        config.pool_override = Some(2);
        let mut broker = FleetBroker::new(&config, config.shared_pool());
        broker.register_job(0, &ids(0..18), &ids(16..18));
        broker.register_job(1, &ids(0..18), &ids(16..18));
        broker.register_job(2, &ids(0..18), &ids(16..18));
        // The best-effort job drains the pool; its consumption earmarks the
        // replenishment slots.
        let drain = broker.schedule_for(1, &model(), 2, SimTime::ZERO);
        assert_eq!(drain.granted, 2);
        assert!(!drain.starved());
        // The critical job's eviction five minutes later finds an empty pool
        // and commandeers a best-effort slot that is far enough into its
        // provisioning (120 s remaining + awaken beats the reschedule path)
        // instead of rescheduling.
        let now = SimTime::from_secs(300);
        let starved = broker.schedule_for(0, &model(), 1, now);
        assert_eq!(starved.preempted, 1);
        assert_eq!(starved.shortfall, 0);
        assert!(starved.starved());
        assert!(
            starved.duration < model().reschedule_time(1),
            "preemption must beat the reschedule path: {}",
            starved.duration
        );
        assert!(matches!(
            broker.events.last(),
            Some(BrokerEvent::Preempted {
                job: 0,
                victim: 1,
                ..
            })
        ));
        // An equal-priority job cannot preempt: the remaining slot belongs to
        // job 1, and job 2 is also best-effort (and has no donors with >= 2
        // eligible spares that it does not already hold).
        let peer = broker.schedule_for(2, &model(), 1, now);
        assert_eq!(peer.preempted, 0);
        assert_eq!(peer.shortfall, 1);
    }

    #[test]
    fn reserve_is_released_once_the_critical_tier_finishes() {
        let mut config = config(Some(BrokerConfig {
            reserve_for_priority: 1,
            ..BrokerConfig::default()
        }));
        config.pool_override = Some(1);
        let mut broker = FleetBroker::new(&config, config.shared_pool());
        broker.register_job(0, &ids(0..18), &ids(16..18));
        broker.register_job(1, &ids(0..18), &ids(16..18));
        broker.register_job(2, &ids(0..18), &ids(16..18));
        // While the critical job is alive, the pool's last standby is
        // withheld from a best-effort request (no donors: every spare id
        // collides across the identically-shaped jobs).
        let held = broker.schedule_for(1, &model(), 1, SimTime::ZERO);
        assert_eq!(held.granted, 0);
        assert_eq!(held.shortfall, 1);
        assert!(matches!(
            broker.events.first(),
            Some(BrokerEvent::ReserveHeld {
                job: 1,
                machines: 1,
                ..
            })
        ));
        // Once the critical job finishes, the reserve no longer applies and
        // the same request is granted from the still-ready standby.
        broker.on_job_finished(0, SimTime::from_secs(60));
        let granted = broker.schedule_for(1, &model(), 1, SimTime::from_secs(120));
        assert_eq!(granted.granted, 1);
        assert_eq!(granted.shortfall, 0);
        assert!(!granted.starved());
    }

    #[test]
    fn starving_job_migrates_a_spare_from_an_over_provisioned_donor() {
        let mut config = config(Some(BrokerConfig::default()));
        config.pool_override = Some(1);
        let mut broker = FleetBroker::new(&config, config.shared_pool());
        // Donor (job 1) holds fat spares 20..26 outside the receiver's id
        // range; no replenishment slots exist yet, so migration is the only
        // option.
        broker.register_job(0, &ids(0..18), &ids(16..18));
        broker.register_job(1, &ids(0..26), &ids(20..26));
        broker.register_job(2, &ids(0..18), &ids(16..18));
        let starved = broker.schedule_for(0, &model(), 3, SimTime::ZERO);
        assert_eq!(starved.granted, 1);
        assert_eq!(starved.migrated, 2);
        assert_eq!(starved.shortfall, 0);
        assert_eq!(starved.duration, model().migration_time());
        let pending = broker.take_pending_migrations();
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].machine, MachineId(20));
        assert_eq!(pending[0].from_job, 1);
        assert_eq!(pending[0].to_job, 0);
        assert_eq!(broker.registry().migrations().len(), 2);
    }
}
