//! Job reports: everything the §8.1 deployment figures and tables are
//! derived from.

use std::collections::BTreeMap;

use byterobust_cluster::{FaultCategory, FaultKind, RootCause};
use byterobust_incident::codec::{
    parse_document, render_document, CodecError, Decode, EncodeMembers, JsonValue, JsonWriter,
};
use byterobust_incident::struct_codec;
use byterobust_incident::{IncidentDossier, IncidentStore};
use byterobust_recovery::FailoverCost;
use byterobust_sim::SimTime;
use byterobust_trainsim::loss_at;

use crate::ettr::EttrTracker;
use crate::ft::ResolutionMechanism;

/// One resolved incident: the flat summary of a dossier, without its
/// capture. Always read off a dossier
/// ([`IncidentRecord::from`]), never kept beside one.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentRecord {
    /// When the incident started.
    pub at: SimTime,
    /// Symptom.
    pub kind: FaultKind,
    /// Category (explicit / implicit / manual restart).
    pub category: FaultCategory,
    /// Ground-truth root cause.
    pub root_cause: RootCause,
    /// Mechanism that resolved it.
    pub mechanism: ResolutionMechanism,
    /// Unproductive-time breakdown.
    pub cost: FailoverCost,
    /// Number of machines evicted.
    pub evicted_count: usize,
    /// Whether the eviction over-evicted healthy machines.
    pub over_evicted: bool,
}

impl From<&IncidentDossier> for IncidentRecord {
    fn from(dossier: &IncidentDossier) -> IncidentRecord {
        IncidentRecord {
            at: dossier.at,
            kind: dossier.kind,
            category: dossier.category,
            root_cause: dossier.root_cause,
            mechanism: dossier.mechanism,
            cost: dossier.cost,
            evicted_count: dossier.evicted.len(),
            over_evicted: dossier.over_evicted,
        }
    }
}

impl IncidentRecord {
    /// The record of every dossier in `store`, in store order: the content
    /// [`JobReport::incidents`] always has.
    pub fn all_of(store: &IncidentStore) -> Vec<IncidentRecord> {
        store
            .all()
            .iter()
            .map(|dossier| IncidentRecord::from(dossier.as_ref()))
            .collect()
    }
}

/// A point of the reported MFU / loss series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Simulated time of the sample.
    pub at: SimTime,
    /// Optimizer step at the sample.
    pub step: u64,
    /// Sampled value.
    pub value: f64,
}

/// The full report of one simulated job run. Each fact is held once: the
/// loss curve is derived from the MFU series' steps
/// ([`JobReport::loss_series`]), the incident records are read off the
/// store, and each dossier classifies itself on read.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Human-readable name of the job.
    pub job_name: String,
    /// ETTR accounting.
    pub ettr: EttrTracker,
    /// Absolute MFU over time (one sample per productive interval).
    pub mfu_series: Vec<SeriesPoint>,
    /// Every incident, in order: [`IncidentRecord::all_of`] the store below.
    pub incidents: Vec<IncidentRecord>,
    /// The incident store: one dossier per incident (flight-recorder capture
    /// and the facts its classification and postmortem are computed from).
    /// The incident aggregations below are computed as store queries.
    pub incident_store: IncidentStore,
    /// Final optimizer step reached.
    pub final_step: u64,
    /// Number of code versions deployed over the job (hot updates applied).
    pub code_versions_deployed: u32,
}

impl JobReport {
    /// Training loss over time: one point per MFU sample, at the same
    /// instant and step, valued [`loss_at`] that step. Derived on every
    /// call, so it is never stored beside the MFU series it restates.
    pub fn loss_series(&self) -> Vec<SeriesPoint> {
        self.mfu_series
            .iter()
            .map(|point| SeriesPoint {
                value: loss_at(point.step),
                ..*point
            })
            .collect()
    }

    /// Relative MFU series: each sample divided by the minimum sample, the
    /// normalization used by Fig. 2 and Fig. 11.
    pub fn relative_mfu_series(&self) -> Vec<SeriesPoint> {
        let min = self
            .mfu_series
            .iter()
            .map(|p| p.value)
            .fold(f64::INFINITY, f64::min);
        if !min.is_finite() || min <= 0.0 {
            return self.mfu_series.clone();
        }
        self.mfu_series
            .iter()
            .map(|p| SeriesPoint {
                value: p.value / min,
                ..*p
            })
            .collect()
    }

    /// Incident counts grouped by (Table 4 mechanism label, category),
    /// computed as an incident-store query.
    pub fn resolution_counts(&self) -> BTreeMap<(&'static str, &'static str), usize> {
        self.incident_store.resolution_counts()
    }

    /// Mean unproductive-time breakdown per incident category (Fig. 3):
    /// (detection, localization, failover) means in seconds.
    pub fn unproductive_breakdown(&self) -> BTreeMap<&'static str, (f64, f64, f64)> {
        let mut sums: BTreeMap<&'static str, (f64, f64, f64, usize)> = BTreeMap::new();
        for incident in &self.incidents {
            let category = match incident.category {
                FaultCategory::Explicit => "Explicit",
                FaultCategory::Implicit => "Implicit",
                FaultCategory::ManualRestart => "Manual Restart",
            };
            let entry = sums.entry(category).or_insert((0.0, 0.0, 0.0, 0));
            entry.0 += incident.cost.detection.as_secs_f64();
            entry.1 += incident.cost.localization.as_secs_f64();
            entry.2 += incident.cost.failover_only().as_secs_f64();
            entry.3 += 1;
        }
        sums.into_iter()
            .map(|(k, (d, l, f, n))| (k, (d / n as f64, l / n as f64, f / n as f64)))
            .collect()
    }

    /// Total number of machines evicted over the run, and how many of those
    /// evictions were over-evictions (the §9 false-positive discussion),
    /// computed as an incident-store query.
    pub fn eviction_stats(&self) -> (usize, usize) {
        self.incident_store.eviction_stats()
    }

    /// Exports the full report — ETTR segments, MFU series and the complete
    /// incident store — as one self-describing JSON document via the in-repo
    /// codec. Nothing derived is written: import reads the incident records
    /// off the store again, and the loss curve follows from the MFU steps. Deterministic: equal reports
    /// export byte-identical text, and
    /// `JobReport::import_json(r.export_json())` reproduces `r` exactly
    /// (pinned by the persistence tests and the `persistence-roundtrip` CI
    /// job).
    pub fn export_json(&self) -> String {
        render_document(JOB_REPORT_FORMAT, |w| self.encode_members(w))
    }

    /// Imports a report previously written by [`JobReport::export_json`].
    /// Corruption and shape mismatches come back as a positioned
    /// [`CodecError`], never a panic.
    pub fn import_json(text: &str) -> Result<JobReport, CodecError> {
        JobReport::decode(&parse_document(text, JOB_REPORT_FORMAT)?)
    }
}

/// Format header written by [`JobReport::export_json`].
pub const JOB_REPORT_FORMAT: &str = "byterobust-job-report";

struct_codec!(SeriesPoint { at, step, value });
// The incident records and the loss curve are not written: the records are
// read off the store again on decode and the loss curve off the MFU steps,
// so a document cannot carry either disagreeing with what it derives from.
impl EncodeMembers for JobReport {
    fn encode_members(&self, w: &mut JsonWriter) {
        w.member("job_name", &self.job_name);
        w.member("ettr", &self.ettr);
        w.member("mfu_series", &self.mfu_series);
        w.member("incident_store", &self.incident_store);
        w.member("final_step", &self.final_step);
        w.member("code_versions_deployed", &self.code_versions_deployed);
    }
}

impl Decode for JobReport {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let incident_store: IncidentStore = value.field("incident_store")?;
        Ok(JobReport {
            job_name: value.field("job_name")?,
            ettr: value.field("ettr")?,
            mfu_series: value.field("mfu_series")?,
            incidents: IncidentRecord::all_of(&incident_store),
            incident_store,
            final_step: value.field("final_step")?,
            code_versions_deployed: value.field("code_versions_deployed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::MachineId;
    use byterobust_incident::{IncidentCapture, IncidentDossier};
    use byterobust_sim::SimDuration;

    /// A resolved infrastructure incident with one evicted machine, the
    /// way the lifecycle driver would store it.
    fn dossier(seq: u64, kind: FaultKind, mechanism: ResolutionMechanism) -> IncidentDossier {
        let cost = FailoverCost {
            detection: SimDuration::from_secs(30),
            localization: SimDuration::from_secs(120),
            scheduling: SimDuration::from_secs(60),
            pod_build: SimDuration::ZERO,
            checkpoint_load: SimDuration::from_secs(20),
            recompute: SimDuration::from_secs(15),
        };
        let at = SimTime::from_hours(1);
        IncidentDossier {
            seq,
            at,
            kind,
            category: kind.category(),
            root_cause: RootCause::Infrastructure,
            concluded_cause: RootCause::Infrastructure,
            mechanism,
            cost,
            evicted: Box::new([MachineId(0)]),
            over_evicted: false,
            resumed_step: 0,
            reproducible: true,
            capture: IncidentCapture::default(),
        }
    }

    fn report() -> JobReport {
        let mut incident_store = IncidentStore::new();
        for (seq, (kind, mechanism)) in [
            (FaultKind::CudaError, ResolutionMechanism::StopTimeEviction),
            (FaultKind::CudaError, ResolutionMechanism::Reattempt),
            (FaultKind::JobHang, ResolutionMechanism::AnalyzerEviction),
            (
                FaultKind::CodeDataAdjustment,
                ResolutionMechanism::HotUpdate,
            ),
        ]
        .into_iter()
        .enumerate()
        {
            incident_store.insert(dossier(seq as u64 + 1, kind, mechanism));
        }
        let incidents = IncidentRecord::all_of(&incident_store);
        JobReport {
            job_name: "test".to_string(),
            ettr: EttrTracker::new(),
            mfu_series: vec![
                SeriesPoint {
                    at: SimTime::from_hours(1),
                    step: 10,
                    value: 0.30,
                },
                SeriesPoint {
                    at: SimTime::from_hours(2),
                    step: 20,
                    value: 0.45,
                },
            ],
            incidents,
            incident_store,
            final_step: 1000,
            code_versions_deployed: 3,
        }
    }

    #[test]
    fn the_loss_curve_follows_the_mfu_steps() {
        let r = report();
        let loss = r.loss_series();
        assert_eq!(loss.len(), r.mfu_series.len());
        for (loss, mfu) in loss.iter().zip(&r.mfu_series) {
            assert_eq!((loss.at, loss.step), (mfu.at, mfu.step));
            assert_eq!(loss.value.to_bits(), loss_at(mfu.step).to_bits());
        }
    }

    #[test]
    fn relative_mfu_normalizes_to_minimum() {
        let r = report();
        let rel = r.relative_mfu_series();
        assert!((rel[0].value - 1.0).abs() < 1e-9);
        assert!((rel[1].value - 1.5).abs() < 1e-9);
    }

    #[test]
    fn resolution_counts_grouped_by_label_and_category() {
        let r = report();
        let counts = r.resolution_counts();
        assert_eq!(counts[&("AutoFT-ER", "Explicit")], 2);
        assert_eq!(counts[&("Analyzer-ER", "Implicit")], 1);
        assert_eq!(counts[&("AutoFT-HU", "Manual Restart")], 1);
    }

    #[test]
    fn mechanism_shares_sum_to_one() {
        let r = report();
        let shares = r.incident_store.mechanism_shares();
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resolution_time_is_scheduling_plus_load() {
        let r = report();
        let cuda: Vec<_> = r
            .incident_store
            .all()
            .iter()
            .filter(|d| d.kind == FaultKind::CudaError)
            .collect();
        assert_eq!(cuda.len(), 2);
        for dossier in cuda {
            assert_eq!(dossier.resolution_time(), SimDuration::from_secs(80));
        }
    }

    #[test]
    fn unproductive_breakdown_has_all_categories() {
        let r = report();
        let breakdown = r.unproductive_breakdown();
        assert!(breakdown.contains_key("Explicit"));
        assert!(breakdown.contains_key("Implicit"));
        assert!(breakdown.contains_key("Manual Restart"));
        let (d, l, f) = breakdown["Explicit"];
        assert!(d > 0.0 && l > 0.0 && f > 0.0);
    }

    #[test]
    fn eviction_stats_counts() {
        let r = report();
        let (total, over) = r.eviction_stats();
        assert_eq!(total, 4);
        assert_eq!(over, 0);
    }

    #[test]
    fn export_import_round_trips_the_full_report() {
        let mut r = report();
        r.ettr.record_productive(SimDuration::from_hours(9));
        r.ettr.record_unproductive(SimDuration::from_mins(30));
        r.ettr.record_productive(SimDuration::from_hours(2));
        let exported = r.export_json();
        let imported = JobReport::import_json(&exported).expect("import succeeds");
        assert_eq!(imported, r);
        // The export is a fixed point, and every derived aggregation agrees.
        assert_eq!(imported.export_json(), exported);
        assert_eq!(imported.ettr.cumulative_ettr(), r.ettr.cumulative_ettr());
        assert_eq!(imported.resolution_counts(), r.resolution_counts());
        assert_eq!(imported.eviction_stats(), r.eviction_stats());

        // Corruption fails with an error, not a panic.
        assert!(JobReport::import_json(&exported[..exported.len() / 2]).is_err());
        assert!(JobReport::import_json("{}").is_err());
        let foreign = exported.replace(JOB_REPORT_FORMAT, "not-a-job-report");
        assert!(JobReport::import_json(&foreign).is_err());
    }

    #[test]
    fn records_are_read_off_their_dossiers() {
        let r = report();
        for (record, dossier) in r.incidents.iter().zip(r.incident_store.all()) {
            assert_eq!(record.at, dossier.at);
            assert_eq!(record.kind, dossier.kind);
            assert_eq!(record.category, dossier.category);
            assert_eq!(record.root_cause, dossier.root_cause);
            assert_eq!(record.mechanism, dossier.mechanism);
            assert_eq!(record.cost, dossier.cost);
            assert_eq!(record.evicted_count, dossier.evicted.len());
            assert_eq!(record.over_evicted, dossier.over_evicted);
        }
        assert_eq!(r.incidents.len(), r.incident_store.len());
    }
}
