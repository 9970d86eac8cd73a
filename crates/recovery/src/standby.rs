//! Warm-standby machine pool (§6.2).
//!
//! ByteRobust keeps a small pool of pre-provisioned machines — pod environment
//! initialized, self-checked, sleeping in a low-power polling loop — sized at
//! the P99 of the binomial simultaneous-failure distribution. On eviction the
//! controller awakens standbys instead of asking the cluster scheduler for new
//! machines; the pool is replenished asynchronously afterwards.

use std::collections::BTreeSet;

use byterobust_cluster::MachineId;
use byterobust_sim::{SimDuration, SimTime};

use crate::binomial::binomial_quantile;

/// Sizing and timing parameters for the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandbyPoolConfig {
    /// Machines in the training job.
    pub job_machines: usize,
    /// Probability that an individual machine fails within the provisioning
    /// horizon (derived from historical data; §6.2).
    pub per_machine_failure_prob: f64,
    /// Quantile of the simultaneous-failure distribution to provision for.
    pub quantile: f64,
    /// Time to wake a sleeping standby and let it join the job at the next
    /// barrier (§7: the barrier poll loop).
    pub awaken_time: SimDuration,
    /// Time to provision a brand-new standby from the free pool: machine
    /// allocation, image installation, library download, self-check.
    pub provision_time: SimDuration,
}

impl StandbyPoolConfig {
    /// Production-flavoured defaults for a job of `job_machines` machines.
    pub fn for_job(job_machines: usize, per_machine_failure_prob: f64) -> Self {
        StandbyPoolConfig {
            job_machines,
            per_machine_failure_prob,
            quantile: 0.99,
            awaken_time: SimDuration::from_secs(60),
            provision_time: SimDuration::from_secs(420),
        }
    }

    /// The P99 pool size for this configuration.
    pub fn p99_pool_size(&self) -> usize {
        binomial_quantile(
            self.job_machines as u64,
            self.per_machine_failure_prob,
            self.quantile,
        )
        .max(1) as usize
    }
}

/// The result of asking the pool to cover an eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandbyGrant {
    /// Standbys awakened immediately.
    pub granted: usize,
    /// Machines that still need to be rescheduled from the free pool
    /// (evictions exceeding the ready standbys).
    pub shortfall: usize,
}

/// The warm-standby pool state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStandbyPool {
    config: StandbyPoolConfig,
    target_size: usize,
    ready: usize,
    /// Completion times of in-flight replenishments.
    provisioning: Vec<SimTime>,
    /// Identities of restocked machines currently sitting in the ready pool.
    /// Freshly provisioned standbys are anonymous; machines returned through
    /// [`WarmStandbyPool::restock`] keep their identity so a double return of
    /// the same machine (e.g. two sweeps both naming it) cannot inflate the
    /// ready count.
    restocked: BTreeSet<MachineId>,
    /// Requests that could not be fully covered by ready standbys.
    shortfall_events: usize,
    /// Machines across all requests that had to be covered outside the pool.
    shortfall_machines: usize,
}

impl WarmStandbyPool {
    /// Creates a pool at its target (P99) size, fully provisioned.
    pub fn new(config: StandbyPoolConfig) -> Self {
        let target = config.p99_pool_size();
        Self::with_target_size(config, target)
    }

    /// Creates a pool with an explicit target size (e.g. a deliberately
    /// under-provisioned pool for starvation drills), fully provisioned.
    pub fn with_target_size(config: StandbyPoolConfig, target: usize) -> Self {
        WarmStandbyPool {
            config,
            target_size: target,
            ready: target,
            provisioning: Vec::new(),
            restocked: BTreeSet::new(),
            shortfall_events: 0,
            shortfall_machines: 0,
        }
    }

    /// The pool's sizing configuration.
    pub fn config(&self) -> &StandbyPoolConfig {
        &self.config
    }

    /// Target (P99) pool size.
    pub fn target_size(&self) -> usize {
        self.target_size
    }

    /// Standbys ready right now.
    pub fn ready(&self) -> usize {
        self.ready
    }

    /// Replenishments still in flight.
    pub fn in_flight(&self) -> usize {
        self.provisioning.len()
    }

    /// Moves completed replenishments into the ready pool as of `now`.
    pub fn tick(&mut self, now: SimTime) {
        let (done, pending): (Vec<SimTime>, Vec<SimTime>) =
            self.provisioning.iter().partition(|&&t| t <= now);
        self.ready += done.len();
        self.provisioning = pending;
    }

    /// Requests standbys to cover `evicted` machines at time `now`.
    ///
    /// Ready standbys are granted immediately; any shortfall must be
    /// rescheduled by the caller. Replenishment for everything consumed is
    /// kicked off asynchronously and completes after the provisioning delay.
    pub fn request(&mut self, evicted: usize, now: SimTime) -> StandbyGrant {
        self.request_with_floor(evicted, now, 0)
    }

    /// Like [`WarmStandbyPool::request`], but never draws the pool below
    /// `floor` ready standbys — a fleet broker holds the last standbys in
    /// reserve for higher-priority jobs, so a lower-priority request sees
    /// them as a shortfall. `floor == 0` is exactly `request`.
    pub fn request_with_floor(
        &mut self,
        evicted: usize,
        now: SimTime,
        floor: usize,
    ) -> StandbyGrant {
        self.tick(now);
        let granted = evicted.min(self.ready.saturating_sub(floor));
        let shortfall = evicted - granted;
        self.ready -= granted;
        if shortfall > 0 {
            self.shortfall_events += 1;
            self.shortfall_machines += shortfall;
        }
        // Granted standbys leave the pool; named restocked members are drawn
        // first (smallest id first, deterministically) so their identities
        // become eligible for a future restock once they are back out in a
        // job.
        for _ in 0..granted.min(self.restocked.len()) {
            let first = *self.restocked.iter().next().expect("non-empty set");
            self.restocked.remove(&first);
        }
        // Replenish what was consumed (and any standing deficit vs target).
        let deficit = self
            .target_size
            .saturating_sub(self.ready + self.provisioning.len());
        for _ in 0..deficit {
            self.provisioning.push(now + self.config.provision_time);
        }
        StandbyGrant { granted, shortfall }
    }

    /// Returns a cleared machine to the ready pool — an over-evicted machine
    /// that passed a background stress-test sweep re-enters as a warm standby
    /// (it is already provisioned; only the sweep stood between it and the
    /// pool). Returns `true` when the machine actually joined, `false` when
    /// it was already sitting in the pool (two sweeps can both name the same
    /// machine; a duplicate return must not inflate the ready count). The
    /// pool may transiently exceed its target size; the next `request` simply
    /// provisions less.
    pub fn restock(&mut self, machine: MachineId) -> bool {
        if !self.restocked.insert(machine) {
            return false;
        }
        self.ready += 1;
        true
    }

    /// Cancels one in-flight replenishment completing exactly at
    /// `completes_at` (a fleet broker reassigning a lower-priority job's
    /// replenishment slot to a starving job). Returns `false` if no such
    /// replenishment is in flight.
    pub fn cancel_provisioning(&mut self, completes_at: SimTime) -> bool {
        match self.provisioning.iter().position(|&t| t == completes_at) {
            Some(index) => {
                self.provisioning.remove(index);
                true
            }
            None => false,
        }
    }

    /// Completion times of in-flight replenishments (sorted ascending).
    pub fn provisioning_times(&self) -> Vec<SimTime> {
        let mut times = self.provisioning.clone();
        times.sort_unstable();
        times
    }

    /// Requests that could not be fully covered by ready standbys so far.
    pub fn shortfall_events(&self) -> usize {
        self.shortfall_events
    }

    /// Total machines across all requests that the pool could not cover.
    pub fn shortfall_machines(&self) -> usize {
        self.shortfall_machines
    }

    /// Time for granted standbys to join the job (wake from sleep + barrier).
    pub fn awaken_time(&self) -> SimDuration {
        self.config.awaken_time
    }

    /// Time for the caller to reschedule a shortfall machine from scratch.
    pub fn provision_time(&self) -> SimDuration {
        self.config.provision_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> WarmStandbyPool {
        WarmStandbyPool::new(StandbyPoolConfig::for_job(1024, 0.002))
    }

    #[test]
    fn pool_sized_at_p99() {
        let p = pool();
        assert_eq!(p.target_size(), p.config().p99_pool_size());
        assert!(
            p.target_size() >= 3 && p.target_size() <= 10,
            "size = {}",
            p.target_size()
        );
        assert_eq!(p.ready(), p.target_size());
    }

    #[test]
    fn table5_pool_sizes_grow_with_scale() {
        // Table 5 provisions 2, 2, 3, 4 standby machines for 128→1024-machine
        // jobs; the binomial P99 should be small and non-decreasing in scale.
        let sizes: Vec<usize> = [128usize, 256, 512, 1024]
            .iter()
            .map(|&m| StandbyPoolConfig::for_job(m, 0.002).p99_pool_size())
            .collect();
        for pair in sizes.windows(2) {
            assert!(pair[0] <= pair[1], "sizes = {sizes:?}");
        }
        assert!(sizes[0] >= 1 && sizes[3] <= 10, "sizes = {sizes:?}");
    }

    #[test]
    fn request_within_pool_has_no_shortfall() {
        let mut p = pool();
        let grant = p.request(2, SimTime::ZERO);
        assert_eq!(grant.granted, 2);
        assert_eq!(grant.shortfall, 0);
        assert_eq!(p.ready(), p.target_size() - 2);
        assert_eq!(p.in_flight(), 2);
    }

    #[test]
    fn request_beyond_pool_reports_shortfall() {
        let mut p = pool();
        let big = p.target_size() + 30;
        let grant = p.request(big, SimTime::ZERO);
        assert_eq!(grant.granted, p.target_size());
        assert_eq!(grant.shortfall, 30);
        assert_eq!(p.ready(), 0);
    }

    #[test]
    fn replenishment_completes_after_provision_time() {
        let mut p = pool();
        let consumed = p.target_size();
        p.request(consumed, SimTime::ZERO);
        assert_eq!(p.ready(), 0);
        // Before provisioning finishes nothing is ready.
        p.tick(SimTime::ZERO + SimDuration::from_secs(60));
        assert_eq!(p.ready(), 0);
        // After the provisioning delay the pool is full again.
        p.tick(SimTime::ZERO + p.provision_time());
        assert_eq!(p.ready(), consumed);
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn restocked_machines_are_immediately_grantable() {
        let mut p = pool();
        let consumed = p.target_size();
        p.request(consumed, SimTime::ZERO);
        assert_eq!(p.ready(), 0);
        // A swept machine returns before provisioning completes and covers
        // the next eviction with no shortfall.
        assert!(p.restock(MachineId(7)));
        assert_eq!(p.ready(), 1);
        let grant = p.request(1, SimTime::ZERO + SimDuration::from_secs(30));
        assert_eq!(grant.granted, 1);
        assert_eq!(grant.shortfall, 0);
    }

    #[test]
    fn restock_deduplicates_machines_already_in_the_pool() {
        // Regression: two stress-test sweeps can both clear the same machine
        // (same fleet id implicated by two incidents); returning it twice
        // must not count it as two ready standbys.
        let mut p = pool();
        let consumed = p.target_size();
        p.request(consumed, SimTime::ZERO);
        assert_eq!(p.ready(), 0);
        assert!(p.restock(MachineId(4)), "first return joins the pool");
        assert!(
            !p.restock(MachineId(4)),
            "second return of the same machine is a duplicate"
        );
        assert_eq!(p.ready(), 1, "duplicate restock must not inflate ready");
        assert!(p.restock(MachineId(5)), "a different machine still joins");
        assert_eq!(p.ready(), 2);
        // Once the machine has been drawn back out of the pool it can
        // legitimately return again after a later incident.
        let grant = p.request(2, SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(grant.granted, 2);
        assert!(
            p.restock(MachineId(4)),
            "a machine drawn out of the pool can be restocked again"
        );
    }

    #[test]
    fn shortfall_stats_accumulate() {
        let mut p = pool();
        assert_eq!(p.shortfall_events(), 0);
        let big = p.target_size() + 5;
        p.request(big, SimTime::ZERO);
        assert_eq!(p.shortfall_events(), 1);
        assert_eq!(p.shortfall_machines(), 5);
        // A covered request leaves the stats untouched.
        p.tick(SimTime::ZERO + p.provision_time());
        p.request(1, SimTime::ZERO + p.provision_time());
        assert_eq!(p.shortfall_events(), 1);
        assert_eq!(p.shortfall_machines(), 5);
    }

    #[test]
    fn reserve_floor_holds_back_the_last_standbys() {
        let mut p = pool();
        let target = p.target_size();
        // A low-priority request against a floor of 1 leaves one standby
        // ready and reports the held-back machine as a shortfall.
        let grant = p.request_with_floor(target, SimTime::ZERO, 1);
        assert_eq!(grant.granted, target - 1);
        assert_eq!(grant.shortfall, 1);
        assert_eq!(p.ready(), 1);
        // The reserved standby is still grantable to a floor-exempt request.
        let grant = p.request(1, SimTime::ZERO);
        assert_eq!(grant.granted, 1);
        assert_eq!(grant.shortfall, 0);
        // A floor above the ready count grants nothing.
        let grant = p.request_with_floor(1, SimTime::ZERO, target + 5);
        assert_eq!(grant.granted, 0);
        assert_eq!(grant.shortfall, 1);
    }

    #[test]
    fn cancel_provisioning_removes_one_slot() {
        let mut p = pool();
        p.request(2, SimTime::ZERO);
        assert_eq!(p.in_flight(), 2);
        let completes = p.provisioning_times()[0];
        assert!(p.cancel_provisioning(completes));
        assert_eq!(p.in_flight(), 1);
        // Cancelling a time with no matching slot is a no-op.
        assert!(!p.cancel_provisioning(SimTime::from_secs(1)));
        assert_eq!(p.in_flight(), 1);
    }

    #[test]
    fn successive_failures_are_covered_after_replenishment() {
        let mut p = pool();
        let t0 = SimTime::ZERO;
        p.request(1, t0);
        // A second failure one hour later is fully covered.
        let t1 = t0 + SimDuration::from_hours(1);
        let grant = p.request(1, t1);
        assert_eq!(grant.shortfall, 0);
    }
}
