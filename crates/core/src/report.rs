//! Job reports: everything the §8.1 deployment figures and tables are
//! derived from.

use std::collections::BTreeMap;

use byterobust_cluster::{FaultCategory, FaultKind, RootCause};
use byterobust_incident::codec::{check_format, CodecError, Decode, Encode, JsonValue};
use byterobust_incident::IncidentStore;
use byterobust_recovery::FailoverCost;
use byterobust_sim::{SimDuration, SimTime};

use crate::ettr::EttrTracker;
use crate::ft::ResolutionMechanism;

/// One resolved incident.
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

impl IncidentRecord {
    /// The "resolution time" Table 6 measures: from failure localization to
    /// successful restart (scheduling + pod rebuild + checkpoint load).
    pub fn resolution_time(&self) -> SimDuration {
        self.cost.scheduling + self.cost.pod_build + self.cost.checkpoint_load
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

/// The full report of one simulated job run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Human-readable name of the job.
    pub job_name: String,
    /// ETTR accounting.
    pub ettr: EttrTracker,
    /// Absolute MFU over time (one sample per productive interval).
    pub mfu_series: Vec<SeriesPoint>,
    /// Training loss over time.
    pub loss_series: Vec<SeriesPoint>,
    /// Every incident, in order.
    pub incidents: Vec<IncidentRecord>,
    /// The incident store: one dossier per incident (flight-recorder capture,
    /// classification, postmortem source). The incident aggregations below
    /// are computed as store queries.
    pub incident_store: IncidentStore,
    /// Final optimizer step reached.
    pub final_step: u64,
    /// Number of code versions deployed over the job (hot updates applied).
    pub code_versions_deployed: u32,
}

impl JobReport {
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

    /// Share of incidents resolved by each concrete mechanism (the §4.2
    /// "lesson" percentages: eviction, reattempt, rollback, dual-phase
    /// replay, ...), computed as an incident-store query.
    pub fn mechanism_shares(&self) -> BTreeMap<&'static str, f64> {
        self.incident_store.mechanism_shares()
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

    /// Mean and max resolution time (Table 6 "ours" columns) per symptom, in
    /// seconds, computed as an incident-store query.
    pub fn resolution_time_by_symptom(&self) -> BTreeMap<FaultKind, (f64, f64)> {
        self.incident_store.resolution_time_by_symptom()
    }

    /// Incident counts per symptom (Table 1-style distribution), computed as
    /// an incident-store query.
    pub fn incident_counts_by_symptom(&self) -> BTreeMap<FaultKind, usize> {
        self.incident_store.counts_by_symptom()
    }

    /// Total number of machines evicted over the run, and how many of those
    /// evictions were over-evictions (the §9 false-positive discussion),
    /// computed as an incident-store query.
    pub fn eviction_stats(&self) -> (usize, usize) {
        self.incident_store.eviction_stats()
    }

    /// Exports the full report — ETTR segments, MFU/loss series, incident
    /// records, and the complete incident store — as one self-describing
    /// JSON document via the in-repo codec. Deterministic: equal reports
    /// export byte-identical text, and
    /// `JobReport::import_json(r.export_json())` reproduces `r` exactly
    /// (pinned by the persistence tests and the `persistence-roundtrip` CI
    /// job).
    pub fn export_json(&self) -> String {
        JsonValue::object(vec![
            ("format", JsonValue::Str(JOB_REPORT_FORMAT.to_string())),
            (
                "version",
                JsonValue::U64(byterobust_incident::codec::FORMAT_VERSION),
            ),
            ("job_name", self.job_name.encode()),
            ("ettr", self.ettr.encode()),
            ("mfu_series", self.mfu_series.encode()),
            ("loss_series", self.loss_series.encode()),
            ("incidents", self.incidents.encode()),
            ("incident_store", self.incident_store.encode()),
            ("final_step", self.final_step.encode()),
            (
                "code_versions_deployed",
                self.code_versions_deployed.encode(),
            ),
        ])
        .render()
    }

    /// Imports a report previously written by [`JobReport::export_json`].
    /// Corruption and shape mismatches come back as a positioned
    /// [`CodecError`], never a panic.
    pub fn import_json(text: &str) -> Result<JobReport, CodecError> {
        let document = JsonValue::parse(text)?;
        check_format(&document, JOB_REPORT_FORMAT)?;
        Ok(JobReport {
            job_name: document.field("job_name")?,
            ettr: document.field("ettr")?,
            mfu_series: document.field("mfu_series")?,
            loss_series: document.field("loss_series")?,
            incidents: document.field("incidents")?,
            incident_store: document.field("incident_store")?,
            final_step: document.field("final_step")?,
            code_versions_deployed: document.field("code_versions_deployed")?,
        })
    }
}

/// Format header written by [`JobReport::export_json`].
pub const JOB_REPORT_FORMAT: &str = "byterobust-job-report";

impl Encode for SeriesPoint {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("at", self.at.encode()),
            ("step", self.step.encode()),
            ("value", self.value.encode()),
        ])
    }
}

impl Decode for SeriesPoint {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(SeriesPoint {
            at: value.field("at")?,
            step: value.field("step")?,
            value: value.field("value")?,
        })
    }
}

impl Encode for IncidentRecord {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("at", self.at.encode()),
            ("kind", self.kind.encode()),
            ("category", self.category.encode()),
            ("root_cause", self.root_cause.encode()),
            ("mechanism", self.mechanism.encode()),
            ("cost", self.cost.encode()),
            ("evicted_count", self.evicted_count.encode()),
            ("over_evicted", self.over_evicted.encode()),
        ])
    }
}

impl Decode for IncidentRecord {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(IncidentRecord {
            at: value.field("at")?,
            kind: value.field("kind")?,
            category: value.field("category")?,
            root_cause: value.field("root_cause")?,
            mechanism: value.field("mechanism")?,
            cost: value.field("cost")?,
            evicted_count: value.field("evicted_count")?,
            over_evicted: value.field("over_evicted")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::MachineId;
    use byterobust_incident::{
        ClassificationInput, ClassificationMatrix, IncidentCapture, IncidentDossier,
    };

    fn record(kind: FaultKind, mechanism: ResolutionMechanism) -> IncidentRecord {
        IncidentRecord {
            at: SimTime::from_hours(1),
            kind,
            category: kind.category(),
            root_cause: RootCause::Infrastructure,
            mechanism,
            cost: FailoverCost {
                detection: SimDuration::from_secs(30),
                localization: SimDuration::from_secs(120),
                scheduling: SimDuration::from_secs(60),
                pod_build: SimDuration::ZERO,
                checkpoint_load: SimDuration::from_secs(20),
                recompute: SimDuration::from_secs(15),
            },
            evicted_count: 1,
            over_evicted: false,
        }
    }

    /// The store dossier corresponding to [`record`], mirroring how the
    /// lifecycle driver builds both from the same incident.
    fn dossier(seq: u64, record: &IncidentRecord) -> IncidentDossier {
        let classification =
            ClassificationMatrix::byterobust_default().classify(&ClassificationInput {
                category: record.category,
                root_cause: record.root_cause,
                mechanism: record.mechanism,
                blast_radius: record.evicted_count,
                over_evicted: record.over_evicted,
                reproducible: true,
                downtime: record.cost.total(),
            });
        IncidentDossier {
            seq,
            at: record.at,
            kind: record.kind,
            category: record.category,
            root_cause: record.root_cause,
            concluded_cause: record.root_cause,
            mechanism: record.mechanism,
            cost: record.cost,
            evicted: (0..record.evicted_count)
                .map(|i| MachineId(i as u32))
                .collect(),
            over_evicted: record.over_evicted,
            resumed_step: 0,
            classification,
            capture: IncidentCapture::empty(seq, record.kind, record.at),
        }
    }

    fn report() -> JobReport {
        let incidents = vec![
            record(FaultKind::CudaError, ResolutionMechanism::StopTimeEviction),
            record(FaultKind::CudaError, ResolutionMechanism::Reattempt),
            record(FaultKind::JobHang, ResolutionMechanism::AnalyzerEviction),
            record(
                FaultKind::CodeDataAdjustment,
                ResolutionMechanism::HotUpdate,
            ),
        ];
        let mut incident_store = IncidentStore::new();
        for (i, incident) in incidents.iter().enumerate() {
            incident_store.insert(dossier(i as u64 + 1, incident));
        }
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
            loss_series: vec![],
            incidents,
            incident_store,
            final_step: 1000,
            code_versions_deployed: 3,
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
        let shares = r.mechanism_shares();
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resolution_time_is_scheduling_plus_load() {
        let r = report();
        let by_symptom = r.resolution_time_by_symptom();
        let (mean, max) = by_symptom[&FaultKind::CudaError];
        assert!((mean - 80.0).abs() < 1e-9);
        assert!((max - 80.0).abs() < 1e-9);
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
}
