//! Restart-strategy cost models (§8.2.1, Table 7, Fig. 12).
//!
//! Four ways to get a job running again after an interruption are compared:
//!
//! * **Requeue** — kill and resubmit the whole job: clear job metadata,
//!   reallocate instance quotas, rebuild every pod. Cost grows with job scale.
//! * **Reschedule** — keep the job, spin up replacement machines only for the
//!   evicted ones and reinstall their pods.
//! * **Oracle** — assume an unlimited pool of ready warm standbys; every
//!   eviction is covered by simply awakening a standby.
//! * **Warm standby (ByteRobust)** — awaken P99-provisioned standbys; only
//!   evictions beyond the pool require rescheduling the shortfall.
//!
//! The in-place hot-update path (code changes with no machine change) is also
//! modelled here because Table 7 compares it against a full requeue.

use byterobust_sim::{SimDuration, SimTime};

use crate::standby::WarmStandbyPool;

/// What a [`StandbyScheduler`] did to cover one eviction batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulingOutcome {
    /// Scheduling time charged to the incident (the slowest covering path).
    pub duration: SimDuration,
    /// Machines covered by ready warm standbys.
    pub granted: usize,
    /// Machines covered by preempting a lower-priority job's replenishment
    /// slot (zero outside a brokered fleet).
    pub preempted: usize,
    /// Machines covered by migrating a spare machine from another job (zero
    /// outside a brokered fleet).
    pub migrated: usize,
    /// Machines nothing could cover: rescheduled from the free pool at full
    /// cost. Any non-zero value here (or in `preempted`/`migrated`) means the
    /// incident's delay was partly capacity starvation, not failure handling.
    pub shortfall: usize,
}

impl SchedulingOutcome {
    /// Whether the standby pool ran dry while covering this eviction batch —
    /// the capacity-starvation marker the flight recorder attributes.
    pub fn starved(&self) -> bool {
        self.preempted + self.migrated + self.shortfall > 0
    }
}

/// A source of replacement machines for evictions. The plain
/// [`WarmStandbyPool`] implements it for solo jobs; a fleet broker implements
/// it to mediate grants across concurrent jobs (preempting lower-priority
/// replenishments and migrating spare machines when the shared pool runs
/// dry).
pub trait StandbyScheduler {
    /// Covers `evicted` machines at `now`, charging the slowest covering
    /// path. `evicted == 0` is the in-place (hot-update) restart.
    fn schedule(
        &mut self,
        model: &RestartCostModel,
        evicted: usize,
        now: SimTime,
    ) -> SchedulingOutcome;
}

impl StandbyScheduler for WarmStandbyPool {
    fn schedule(
        &mut self,
        model: &RestartCostModel,
        evicted: usize,
        now: SimTime,
    ) -> SchedulingOutcome {
        if evicted == 0 {
            return SchedulingOutcome {
                duration: model.hot_update_time(),
                ..SchedulingOutcome::default()
            };
        }
        let grant = self.request(evicted, now);
        let duration = if grant.shortfall == 0 {
            model.standby_awaken
        } else {
            // The granted standbys awaken in parallel with rescheduling the
            // shortfall; the slower path dominates.
            model
                .standby_awaken
                .max(model.reschedule_time(grant.shortfall))
        };
        SchedulingOutcome {
            duration,
            granted: grant.granted,
            shortfall: grant.shortfall,
            ..SchedulingOutcome::default()
        }
    }
}

/// Which restart strategy is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestartStrategy {
    /// Kill and requeue the entire job.
    Requeue,
    /// Reschedule replacements only for evicted machines.
    Reschedule,
    /// Unlimited warm standbys (upper bound).
    Oracle,
    /// ByteRobust: P99-provisioned warm standbys with reschedule fallback.
    WarmStandby,
}

impl RestartStrategy {
    /// All strategies in Fig. 12 order.
    pub const ALL: [RestartStrategy; 4] = [
        RestartStrategy::Requeue,
        RestartStrategy::Reschedule,
        RestartStrategy::Oracle,
        RestartStrategy::WarmStandby,
    ];

    /// Label used in figures.
    pub fn name(self) -> &'static str {
        match self {
            RestartStrategy::Requeue => "Requeue",
            RestartStrategy::Reschedule => "Reschedule",
            RestartStrategy::Oracle => "Oracle",
            RestartStrategy::WarmStandby => "ByteRobust",
        }
    }
}

/// Scale-dependent scheduling-cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartCostModel {
    /// Machines in the job.
    pub job_machines: usize,
    /// Base cost of a full requeue at the 128-machine reference scale
    /// (clearing metadata, quota reallocation, pod rebuild; Table 7 row 1).
    pub requeue_base: SimDuration,
    /// Cost of rescheduling and rebuilding the pod of one replacement batch
    /// (dominated by image install; largely scale-independent).
    pub reschedule_pod_build: SimDuration,
    /// Extra machine-allocation latency for a reschedule.
    pub reschedule_allocation: SimDuration,
    /// Time to awaken a warm standby and have it join at the barrier.
    pub standby_awaken: SimDuration,
    /// Base cost of an in-place hot update at the reference scale (Table 7
    /// row 2).
    pub hot_update_base: SimDuration,
}

impl RestartCostModel {
    /// Reference scale the base costs are calibrated at (128 machines).
    pub const REFERENCE_MACHINES: f64 = 128.0;

    /// Creates the cost model for a job of the given size, with defaults
    /// calibrated to Table 7 / Fig. 12 magnitudes.
    pub fn for_job(job_machines: usize) -> Self {
        RestartCostModel {
            job_machines,
            requeue_base: SimDuration::from_secs(454),
            reschedule_pod_build: SimDuration::from_secs(260),
            reschedule_allocation: SimDuration::from_secs(90),
            standby_awaken: SimDuration::from_secs(60),
            hot_update_base: SimDuration::from_secs(46),
        }
    }

    fn scale_factor(&self, exponent: f64) -> f64 {
        (self.job_machines as f64 / Self::REFERENCE_MACHINES)
            .max(0.01)
            .powf(exponent)
    }

    /// Scheduling time of a full requeue. Grows sub-linearly with scale
    /// (metadata clearing, quota reallocation and pod rebuild all touch every
    /// machine, but run with parallelism): calibrated to Table 7's
    /// 454 s → 768 s from 128 to 1024 machines.
    pub fn requeue_time(&self) -> SimDuration {
        self.requeue_base.mul_f64(self.scale_factor(0.25))
    }

    /// Scheduling time of an in-place hot update: no machine change, only a
    /// coordinated process restart, nearly flat in scale (Table 7:
    /// 46 s → 65 s).
    pub fn hot_update_time(&self) -> SimDuration {
        self.hot_update_base.mul_f64(self.scale_factor(0.165))
    }

    /// Scheduling time of a reschedule covering `evicted` machines.
    pub fn reschedule_time(&self, evicted: usize) -> SimDuration {
        if evicted == 0 {
            return self.hot_update_time();
        }
        // Pod builds for replacement machines run in parallel; allocation has
        // a small per-machine component.
        let allocation =
            self.reschedule_allocation + SimDuration::from_secs(2).mul(evicted.min(64) as u64);
        self.reschedule_pod_build.mul_f64(self.scale_factor(0.1)) + allocation
    }

    /// Scheduling time of the oracle: every eviction covered by a ready
    /// standby.
    pub fn oracle_time(&self, evicted: usize) -> SimDuration {
        if evicted == 0 {
            return self.hot_update_time();
        }
        self.standby_awaken
    }

    /// Scheduling time of ByteRobust's warm-standby strategy for an eviction
    /// of `evicted` machines, mutating the pool. If the pool covers all
    /// evictions the cost is a standby awaken; any shortfall additionally
    /// pays the reschedule path for the missing machines (the job cannot
    /// resume until all replacements are ready).
    pub fn warm_standby_time(
        &self,
        pool: &mut WarmStandbyPool,
        evicted: usize,
        now: SimTime,
    ) -> SimDuration {
        pool.schedule(self, evicted, now).duration
    }

    /// Time to migrate a healthy spare machine from another job into this
    /// one: drain it from the donor, re-target its (pre-built) pod at the
    /// receiving job's image, and join at the barrier. No machine allocation
    /// and no image install — strictly cheaper than rescheduling from the
    /// free pool.
    pub fn migration_time(&self) -> SimDuration {
        self.standby_awaken + SimDuration::from_secs(120)
    }

    /// Time for a machine whose replenishment slot was preempted from another
    /// job to come online: wait out the remaining provisioning, then awaken.
    pub fn preempted_slot_time(&self, now: SimTime, completes_at: SimTime) -> SimDuration {
        completes_at.saturating_since(now) + self.standby_awaken
    }

    /// Scheduling time for a non-mutating strategy (requeue / reschedule /
    /// oracle).
    pub fn time_for(&self, strategy: RestartStrategy, evicted: usize) -> SimDuration {
        match strategy {
            RestartStrategy::Requeue => self.requeue_time(),
            RestartStrategy::Reschedule => self.reschedule_time(evicted),
            RestartStrategy::Oracle => self.oracle_time(evicted),
            RestartStrategy::WarmStandby => {
                // Stateless approximation: assume the pool covers the P99 case.
                self.standby_awaken
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standby::StandbyPoolConfig;
    use byterobust_sim::SimTime;

    #[test]
    fn requeue_times_match_table7_shape() {
        let times: Vec<f64> = [128usize, 256, 512, 1024]
            .iter()
            .map(|&m| RestartCostModel::for_job(m).requeue_time().as_secs_f64())
            .collect();
        // Table 7: 454, 545, 635, 768 seconds. Allow 10% tolerance.
        let expected = [454.0, 545.0, 635.0, 768.0];
        for (t, e) in times.iter().zip(expected.iter()) {
            assert!((t - e).abs() / e < 0.10, "got {t}, expected ~{e}");
        }
    }

    #[test]
    fn hot_update_times_match_table7_shape() {
        let times: Vec<f64> = [128usize, 256, 512, 1024]
            .iter()
            .map(|&m| RestartCostModel::for_job(m).hot_update_time().as_secs_f64())
            .collect();
        let expected = [46.0, 51.0, 54.0, 65.0];
        for (t, e) in times.iter().zip(expected.iter()) {
            assert!((t - e).abs() / e < 0.15, "got {t}, expected ~{e}");
        }
        // Hot update is ~11x faster than requeue at the largest scale.
        let model = RestartCostModel::for_job(1024);
        let speedup = model.requeue_time().as_secs_f64() / model.hot_update_time().as_secs_f64();
        assert!(speedup > 9.0 && speedup < 14.0, "speedup = {speedup}");
    }

    #[test]
    fn strategy_ordering_for_small_evictions() {
        let model = RestartCostModel::for_job(1024);
        let requeue = model.time_for(RestartStrategy::Requeue, 2);
        let reschedule = model.time_for(RestartStrategy::Reschedule, 2);
        let oracle = model.time_for(RestartStrategy::Oracle, 2);
        let warm = model.time_for(RestartStrategy::WarmStandby, 2);
        assert!(
            requeue > reschedule,
            "requeue {requeue} vs reschedule {reschedule}"
        );
        assert!(reschedule > oracle);
        assert!(warm >= oracle);
        assert!(warm < reschedule);
    }

    #[test]
    fn warm_standby_falls_back_on_catastrophic_eviction() {
        let model = RestartCostModel::for_job(1024);
        let mut pool = WarmStandbyPool::new(StandbyPoolConfig::for_job(1024, 0.002));
        let small = model.warm_standby_time(&mut pool, 1, SimTime::ZERO);
        assert_eq!(small, model.standby_awaken);
        // Catastrophic: 32 machines evicted at once (switch failure).
        let mut pool = WarmStandbyPool::new(StandbyPoolConfig::for_job(1024, 0.002));
        let catastrophic = model.warm_standby_time(&mut pool, 32, SimTime::ZERO);
        assert!(catastrophic > small);
        assert!(catastrophic >= model.reschedule_time(32 - pool.target_size()));
    }

    #[test]
    fn zero_eviction_is_a_hot_update() {
        let model = RestartCostModel::for_job(256);
        assert_eq!(model.reschedule_time(0), model.hot_update_time());
        assert_eq!(model.oracle_time(0), model.hot_update_time());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(RestartStrategy::WarmStandby.name(), "ByteRobust");
        assert_eq!(RestartStrategy::ALL.len(), 4);
    }

    #[test]
    fn pool_scheduler_reports_starvation() {
        let model = RestartCostModel::for_job(1024);
        let mut pool = WarmStandbyPool::new(StandbyPoolConfig::for_job(1024, 0.002));
        // In-place restart: no machines, hot-update cost, no starvation.
        let inplace = pool.schedule(&model, 0, SimTime::ZERO);
        assert_eq!(inplace.duration, model.hot_update_time());
        assert!(!inplace.starved());
        // Covered eviction: awaken cost, no starvation.
        let covered = pool.schedule(&model, 1, SimTime::ZERO);
        assert_eq!(covered.duration, model.standby_awaken);
        assert_eq!(covered.granted, 1);
        assert!(!covered.starved());
        // A drained pool reports the shortfall so the incident can be
        // attributed to capacity starvation.
        let starved = pool.schedule(&model, 40, SimTime::ZERO);
        assert!(starved.shortfall > 0);
        assert!(starved.starved());
        assert_eq!(starved.duration, model.reschedule_time(starved.shortfall));
    }

    #[test]
    fn migration_beats_reschedule_and_preemption_is_bounded() {
        let model = RestartCostModel::for_job(128);
        assert!(
            model.migration_time() < model.reschedule_time(1),
            "migration ({}) must be strictly cheaper than rescheduling ({})",
            model.migration_time(),
            model.reschedule_time(1)
        );
        // A slot completing immediately costs just the awaken; one completing
        // later costs the wait on top.
        let now = SimTime::from_secs(100);
        assert_eq!(model.preempted_slot_time(now, now), model.standby_awaken);
        assert_eq!(
            model.preempted_slot_time(now, now + SimDuration::from_secs(90)),
            model.standby_awaken + SimDuration::from_secs(90)
        );
    }
}
