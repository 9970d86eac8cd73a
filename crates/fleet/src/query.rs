//! The unified fleet query vocabulary: one request/response pair for every
//! read surface the fleet grew in PRs 2–8.
//!
//! Three query dialects existed before this module: [`IncidentQuery`]
//! against stores and the warehouse, [`TraceQuery`]/`trace_get` against the
//! sim-time trace, and ad-hoc helper methods against the alert timeline.
//! [`FleetQuery`] folds them into one dispatchable vocabulary and
//! [`QueryResponse`] into one deterministic answer document.
//! `IncidentStore::query`, the fleet's epoch snapshots, and `trace_get`
//! share the same filter cores (`byterobust_incident::filter` for
//! incidents; the span/alert predicates here are equally conjunctive).
//!
//! Both sides are codec documents (`byterobust-fleet-query` /
//! `byterobust-query-response`), so a query stream can be captured, shipped,
//! and replayed — which is exactly what the live-vs-post-hoc determinism
//! oracle does: the same `FleetQuery` served during the run (by
//! [`WarehouseService`](crate::service::WarehouseService)) and after it
//! (by [`FleetReport::answer`](crate::report::FleetReport::answer) or an
//! epoch replay) must render byte-identical responses.
//!
//! [`QueryResponse::render`] is the byte-identity artifact: two responses
//! render the same text iff their content is identical, and the rendering
//! is in the sim-time (deterministic) domain — no wall-clock numbers ever
//! appear in it.

use std::fmt::Write as _;

use byterobust_cluster::{FaultCategory, FaultKind};
use byterobust_incident::codec::{
    check_format, CodecError, Decode, Encode, JsonValue, FORMAT_VERSION,
};
use byterobust_incident::{IncidentDossier, IncidentQuery, ResolutionMechanism, Severity};
use byterobust_obs::{Alert, AlertSeverity, AlertTimeline, SpanKind, TraceQuery, TraceSpan};
use byterobust_sim::SimTime;

/// Format header of an exported [`FleetQuery`] document.
pub const QUERY_FORMAT: &str = "byterobust-fleet-query";

/// Format header of an exported [`QueryResponse`] document.
pub const RESPONSE_FORMAT: &str = "byterobust-query-response";

/// A conjunctive filter over the alert timeline; `None`/`false` fields
/// match everything. The alert-lookup arm of the unified vocabulary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertQuery {
    /// Only alerts fired by this rule.
    pub rule: Option<String>,
    /// Only alerts at this severity.
    pub severity: Option<AlertSeverity>,
    /// Only alerts that escalated.
    pub escalated_only: bool,
    /// Only alerts still unresolved at run end.
    pub unresolved_only: bool,
}

impl AlertQuery {
    /// Matches everything.
    pub fn any() -> Self {
        AlertQuery::default()
    }

    /// Restricts to one rule name.
    pub fn rule(mut self, rule: impl Into<String>) -> Self {
        self.rule = Some(rule.into());
        self
    }

    /// Restricts to one severity.
    pub fn severity(mut self, severity: AlertSeverity) -> Self {
        self.severity = Some(severity);
        self
    }

    /// Restricts to escalated alerts.
    pub fn escalated(mut self) -> Self {
        self.escalated_only = true;
        self
    }

    /// Restricts to alerts unresolved at run end.
    pub fn unresolved(mut self) -> Self {
        self.unresolved_only = true;
        self
    }

    /// The conjunctive predicate (every bound field must hold).
    pub fn matches(&self, alert: &Alert) -> bool {
        if let Some(rule) = &self.rule {
            if &alert.rule != rule {
                return false;
            }
        }
        if let Some(severity) = self.severity {
            if alert.severity != severity {
                return false;
            }
        }
        if self.escalated_only && alert.escalated_at.is_none() {
            return false;
        }
        if self.unresolved_only && alert.resolved_at.is_some() {
            return false;
        }
        true
    }
}

/// One query against any fleet read surface. Dispatched by
/// [`FleetReport::answer`](crate::report::FleetReport::answer) (post-hoc,
/// all five arms) and by
/// [`WarehouseService`](crate::service::WarehouseService) (live, the three
/// warehouse-backed arms).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetQuery {
    /// Matching incidents as summary rows, in canonical
    /// (start time, job, seq) order.
    Incidents(IncidentQuery),
    /// Matching incidents as full dossiers, in canonical order.
    Dossiers(IncidentQuery),
    /// The fleet-wide warehouse digest: totals, per-job counts, severity
    /// and category histograms.
    Digest,
    /// Matching sim-time trace spans, in canonical trace order.
    Spans(TraceQuery),
    /// Matching alerts from the run's timeline, in canonical order.
    Alerts(AlertQuery),
}

impl FleetQuery {
    /// Short stable label of the query arm, for stats and telemetry.
    pub fn arm(&self) -> &'static str {
        match self {
            FleetQuery::Incidents(_) => "incidents",
            FleetQuery::Dossiers(_) => "dossiers",
            FleetQuery::Digest => "digest",
            FleetQuery::Spans(_) => "spans",
            FleetQuery::Alerts(_) => "alerts",
        }
    }

    /// Exports the query as a self-describing codec document.
    pub fn export_json(&self) -> String {
        JsonValue::object(vec![
            ("format", JsonValue::Str(QUERY_FORMAT.to_string())),
            ("version", JsonValue::U64(FORMAT_VERSION)),
            ("query", self.encode()),
        ])
        .render()
    }

    /// Imports a query document written by [`FleetQuery::export_json`].
    pub fn import_json(text: &str) -> Result<FleetQuery, CodecError> {
        let document = JsonValue::parse(text)?;
        check_format(&document, QUERY_FORMAT)?;
        document.field("query")
    }
}

/// One matching incident as a compact summary row (the `Incidents` arm's
/// unit of answer; the `Dossiers` arm returns the full document instead).
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentRow {
    /// The job whose shard holds the incident.
    pub job: String,
    /// Per-job incident sequence number.
    pub seq: u64,
    /// When the incident began.
    pub at: SimTime,
    /// Symptom.
    pub kind: FaultKind,
    /// Category.
    pub category: FaultCategory,
    /// Classified severity.
    pub severity: Severity,
    /// Resolution mechanism.
    pub mechanism: ResolutionMechanism,
    /// How many machines were evicted resolving it.
    pub evicted: usize,
}

impl IncidentRow {
    /// Builds the row for one dossier under its job label.
    pub fn of(job: &str, dossier: &IncidentDossier) -> IncidentRow {
        IncidentRow {
            job: job.to_string(),
            seq: dossier.seq,
            at: dossier.at,
            kind: dossier.kind,
            category: dossier.category,
            severity: dossier.classification.severity,
            mechanism: dossier.mechanism,
            evicted: dossier.evicted.len(),
        }
    }
}

/// The `Digest` arm's answer: fleet-wide warehouse aggregates at one
/// consistent point in time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WarehouseDigest {
    /// Total incidents across every shard.
    pub total: u64,
    /// Per-job incident counts, sorted by job label.
    pub jobs: Vec<(String, u64)>,
    /// Incident counts per severity, ascending severity order.
    pub severity: Vec<(Severity, u64)>,
    /// Incident counts per category, ascending category order.
    pub category: Vec<(FaultCategory, u64)>,
}

/// The deterministic answer to one [`FleetQuery`]. Rendering
/// ([`QueryResponse::render`]) is the byte-identity artifact the oracles
/// compare; encoding makes it a shippable codec document.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`FleetQuery::Incidents`].
    Incidents(Vec<IncidentRow>),
    /// Answer to [`FleetQuery::Dossiers`]: (job, dossier) pairs.
    Dossiers(Vec<(String, IncidentDossier)>),
    /// Answer to [`FleetQuery::Digest`].
    Digest(WarehouseDigest),
    /// Answer to [`FleetQuery::Spans`].
    Spans(Vec<TraceSpan>),
    /// Answer to [`FleetQuery::Alerts`]: the rule-set name plus matching
    /// alerts.
    Alerts(String, Vec<Alert>),
}

impl QueryResponse {
    /// Builds the `Incidents` answer from (job, dossier) hits already in
    /// canonical order.
    pub fn incidents<'a>(hits: impl IntoIterator<Item = (&'a str, &'a IncidentDossier)>) -> Self {
        QueryResponse::Incidents(
            hits.into_iter()
                .map(|(job, dossier)| IncidentRow::of(job, dossier))
                .collect(),
        )
    }

    /// Builds the `Dossiers` answer from (job, dossier) hits already in
    /// canonical order.
    pub fn dossiers<'a>(hits: impl IntoIterator<Item = (&'a str, &'a IncidentDossier)>) -> Self {
        QueryResponse::Dossiers(
            hits.into_iter()
                .map(|(job, dossier)| (job.to_string(), dossier.clone()))
                .collect(),
        )
    }

    /// The deterministic rendering: two responses render the same text iff
    /// their content is identical. Sim-time domain only — no wall-clock
    /// numbers, so the text is byte-identical across live and post-hoc
    /// serving, schedulers, spill modes, and harness threading.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            QueryResponse::Incidents(rows) => {
                let _ = writeln!(out, "== incidents: {} hit(s) ==", rows.len());
                for row in rows {
                    let _ = writeln!(
                        out,
                        "  {} #{} at {} {:?} {:?} {} {:?} evicted={}",
                        row.job,
                        row.seq,
                        row.at,
                        row.kind,
                        row.category,
                        row.severity.label(),
                        row.mechanism,
                        row.evicted,
                    );
                }
            }
            QueryResponse::Dossiers(hits) => {
                let _ = writeln!(out, "== dossiers: {} hit(s) ==", hits.len());
                for (job, dossier) in hits {
                    let evicted: Vec<String> =
                        dossier.evicted.iter().map(|m| m.to_string()).collect();
                    let _ = writeln!(
                        out,
                        "  {} #{} at {} {:?} {} {:?}->{:?} {:?} cost={} evicted=[{}] over={} \
                         resumed={}",
                        job,
                        dossier.seq,
                        dossier.at,
                        dossier.kind,
                        dossier.classification.severity.label(),
                        dossier.root_cause,
                        dossier.concluded_cause,
                        dossier.mechanism,
                        dossier.cost.total(),
                        evicted.join(", "),
                        dossier.over_evicted,
                        dossier.resumed_step,
                    );
                }
            }
            QueryResponse::Digest(digest) => {
                let _ = writeln!(
                    out,
                    "== digest: {} incident(s) across {} job(s) ==",
                    digest.total,
                    digest.jobs.len()
                );
                for (job, count) in &digest.jobs {
                    let _ = writeln!(out, "  job {job}: {count}");
                }
                for (severity, count) in &digest.severity {
                    let _ = writeln!(out, "  {:>5}: {count}", severity.label());
                }
                for (category, count) in &digest.category {
                    let _ = writeln!(out, "  {category:?}: {count}");
                }
            }
            QueryResponse::Spans(spans) => {
                let _ = writeln!(out, "== spans: {} hit(s) ==", spans.len());
                for span in spans {
                    let _ = writeln!(
                        out,
                        "  [{}] {} {} {}..{} incident={:?} machine={:?} value={}",
                        span.scope,
                        span.kind.label(),
                        span.name,
                        span.start,
                        span.end,
                        span.incident,
                        span.machine,
                        span.value,
                    );
                }
            }
            QueryResponse::Alerts(rule_set, alerts) => {
                let _ = writeln!(out, "== alerts ({rule_set}): {} hit(s) ==", alerts.len());
                for alert in alerts {
                    let _ = writeln!(
                        out,
                        "  #{} {} [{}] {:?} fired={} escalated={:?} resolved={:?} peak={:.3}",
                        alert.seq,
                        alert.rule,
                        alert.signal,
                        alert.severity,
                        alert.fired_at,
                        alert.escalated_at,
                        alert.resolved_at,
                        alert.peak,
                    );
                }
            }
        }
        out
    }

    /// Exports the response as a self-describing codec document.
    pub fn export_json(&self) -> String {
        JsonValue::object(vec![
            ("format", JsonValue::Str(RESPONSE_FORMAT.to_string())),
            ("version", JsonValue::U64(FORMAT_VERSION)),
            ("response", self.encode()),
        ])
        .render()
    }

    /// Imports a response document written by
    /// [`QueryResponse::export_json`].
    pub fn import_json(text: &str) -> Result<QueryResponse, CodecError> {
        let document = JsonValue::parse(text)?;
        check_format(&document, RESPONSE_FORMAT)?;
        document.field("response")
    }
}

/// Filters an alert timeline with the shared conjunctive predicate,
/// preserving canonical order — the alert-arm analogue of
/// `IncidentStore::query` and `trace_get`.
pub fn alert_get<'a>(timeline: &'a AlertTimeline, query: &AlertQuery) -> Vec<&'a Alert> {
    timeline
        .alerts
        .iter()
        .filter(|alert| query.matches(alert))
        .collect()
}

// ---------------------------------------------------------------------------
// Codec impls
// ---------------------------------------------------------------------------

/// Decodes an optional field: absent or `null` is `None`.
fn opt_field<T: Decode>(value: &JsonValue, name: &str) -> Result<Option<T>, CodecError> {
    match value.get(name) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(field) => Ok(Some(T::decode(field)?)),
    }
}

fn encode_opt<T: Encode>(value: &Option<T>) -> JsonValue {
    match value {
        Some(inner) => inner.encode(),
        None => JsonValue::Null,
    }
}

impl Encode for AlertQuery {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("rule", encode_opt(&self.rule)),
            ("severity", encode_opt(&self.severity)),
            ("escalated_only", self.escalated_only.encode()),
            ("unresolved_only", self.unresolved_only.encode()),
        ])
    }
}

impl Decode for AlertQuery {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(AlertQuery {
            rule: opt_field(value, "rule")?,
            severity: opt_field(value, "severity")?,
            escalated_only: value.field("escalated_only")?,
            unresolved_only: value.field("unresolved_only")?,
        })
    }
}

/// `IncidentQuery` as a codec object (the incident crate keeps the type
/// itself codec-free; the wire shape is owned by the fleet vocabulary).
fn encode_incident_query(query: &IncidentQuery) -> JsonValue {
    JsonValue::object(vec![
        ("category", encode_opt(&query.category)),
        ("kind", encode_opt(&query.kind)),
        ("min_severity", encode_opt(&query.min_severity)),
        (
            "window_from",
            encode_opt(&query.window.map(|(from, _)| from)),
        ),
        ("window_to", encode_opt(&query.window.map(|(_, to)| to))),
        ("machine", encode_opt(&query.machine)),
        ("mechanism", encode_opt(&query.mechanism)),
    ])
}

fn decode_incident_query(value: &JsonValue) -> Result<IncidentQuery, CodecError> {
    let from: Option<SimTime> = opt_field(value, "window_from")?;
    let to: Option<SimTime> = opt_field(value, "window_to")?;
    let window = match (from, to) {
        (Some(from), Some(to)) => Some((from, to)),
        (None, None) => None,
        _ => {
            return Err(CodecError::other(
                "window_from and window_to must be present together".to_string(),
            ))
        }
    };
    Ok(IncidentQuery {
        category: opt_field(value, "category")?,
        kind: opt_field(value, "kind")?,
        min_severity: opt_field(value, "min_severity")?,
        window,
        machine: opt_field(value, "machine")?,
        mechanism: opt_field(value, "mechanism")?,
    })
}

fn encode_trace_query(query: &TraceQuery) -> JsonValue {
    JsonValue::object(vec![
        ("scope", encode_opt(&query.scope)),
        ("kind", encode_opt(&query.kind)),
        ("incident", encode_opt(&query.incident)),
        ("machine", encode_opt(&query.machine)),
        ("from", encode_opt(&query.from)),
        ("until", encode_opt(&query.until)),
    ])
}

fn decode_trace_query(value: &JsonValue) -> Result<TraceQuery, CodecError> {
    Ok(TraceQuery {
        scope: opt_field(value, "scope")?,
        kind: opt_field::<SpanKind>(value, "kind")?,
        incident: opt_field(value, "incident")?,
        machine: opt_field(value, "machine")?,
        from: opt_field(value, "from")?,
        until: opt_field(value, "until")?,
    })
}

impl Encode for FleetQuery {
    fn encode(&self) -> JsonValue {
        let (arm, body) = match self {
            FleetQuery::Incidents(query) => ("incidents", encode_incident_query(query)),
            FleetQuery::Dossiers(query) => ("dossiers", encode_incident_query(query)),
            FleetQuery::Digest => ("digest", JsonValue::Null),
            FleetQuery::Spans(query) => ("spans", encode_trace_query(query)),
            FleetQuery::Alerts(query) => ("alerts", query.encode()),
        };
        JsonValue::object(vec![
            ("arm", JsonValue::Str(arm.to_string())),
            ("body", body),
        ])
    }
}

impl Decode for FleetQuery {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let arm: String = value.field("arm")?;
        let body = value
            .get("body")
            .ok_or_else(|| CodecError::other("query has no body".to_string()))?;
        match arm.as_str() {
            "incidents" => Ok(FleetQuery::Incidents(decode_incident_query(body)?)),
            "dossiers" => Ok(FleetQuery::Dossiers(decode_incident_query(body)?)),
            "digest" => Ok(FleetQuery::Digest),
            "spans" => Ok(FleetQuery::Spans(decode_trace_query(body)?)),
            "alerts" => Ok(FleetQuery::Alerts(AlertQuery::decode(body)?)),
            other => Err(CodecError::other(format!("unknown query arm `{other}`"))),
        }
    }
}

impl Encode for IncidentRow {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("job", self.job.encode()),
            ("seq", self.seq.encode()),
            ("at", self.at.encode()),
            ("kind", self.kind.encode()),
            ("category", self.category.encode()),
            ("severity", self.severity.encode()),
            ("mechanism", self.mechanism.encode()),
            ("evicted", self.evicted.encode()),
        ])
    }
}

impl Decode for IncidentRow {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(IncidentRow {
            job: value.field("job")?,
            seq: value.field("seq")?,
            at: value.field("at")?,
            kind: value.field("kind")?,
            category: value.field("category")?,
            severity: value.field("severity")?,
            mechanism: value.field("mechanism")?,
            evicted: value.field("evicted")?,
        })
    }
}

impl Encode for WarehouseDigest {
    fn encode(&self) -> JsonValue {
        let pairs = |items: &[(String, u64)]| {
            JsonValue::Array(
                items
                    .iter()
                    .map(|(name, count)| {
                        JsonValue::object(vec![
                            ("name", JsonValue::Str(name.clone())),
                            ("count", count.encode()),
                        ])
                    })
                    .collect(),
            )
        };
        JsonValue::object(vec![
            ("total", self.total.encode()),
            ("jobs", pairs(&self.jobs)),
            (
                "severity",
                JsonValue::Array(
                    self.severity
                        .iter()
                        .map(|(severity, count)| {
                            JsonValue::object(vec![
                                ("severity", severity.encode()),
                                ("count", count.encode()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "category",
                JsonValue::Array(
                    self.category
                        .iter()
                        .map(|(category, count)| {
                            JsonValue::object(vec![
                                ("category", category.encode()),
                                ("count", count.encode()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Decode for WarehouseDigest {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let array = |name: &str| -> Result<Vec<JsonValue>, CodecError> {
            match value.get(name) {
                Some(JsonValue::Array(items)) => Ok(items.clone()),
                _ => Err(CodecError::other(format!("missing or non-array `{name}`"))),
            }
        };
        let jobs = array("jobs")?
            .iter()
            .map(|item| Ok((item.field("name")?, item.field("count")?)))
            .collect::<Result<_, CodecError>>()?;
        let severity = array("severity")?
            .iter()
            .map(|item| Ok((item.field("severity")?, item.field("count")?)))
            .collect::<Result<_, CodecError>>()?;
        let category = array("category")?
            .iter()
            .map(|item| Ok((item.field("category")?, item.field("count")?)))
            .collect::<Result<_, CodecError>>()?;
        Ok(WarehouseDigest {
            total: value.field("total")?,
            jobs,
            severity,
            category,
        })
    }
}

impl Encode for QueryResponse {
    fn encode(&self) -> JsonValue {
        let (arm, body) = match self {
            QueryResponse::Incidents(rows) => (
                "incidents",
                JsonValue::Array(rows.iter().map(Encode::encode).collect()),
            ),
            QueryResponse::Dossiers(hits) => (
                "dossiers",
                JsonValue::Array(
                    hits.iter()
                        .map(|(job, dossier)| {
                            JsonValue::object(vec![
                                ("job", job.encode()),
                                ("dossier", dossier.encode()),
                            ])
                        })
                        .collect(),
                ),
            ),
            QueryResponse::Digest(digest) => ("digest", digest.encode()),
            QueryResponse::Spans(spans) => (
                "spans",
                JsonValue::Array(spans.iter().map(Encode::encode).collect()),
            ),
            QueryResponse::Alerts(rule_set, alerts) => (
                "alerts",
                JsonValue::object(vec![
                    ("rule_set", rule_set.encode()),
                    (
                        "alerts",
                        JsonValue::Array(alerts.iter().map(Encode::encode).collect()),
                    ),
                ]),
            ),
        };
        JsonValue::object(vec![
            ("arm", JsonValue::Str(arm.to_string())),
            ("body", body),
        ])
    }
}

impl Decode for QueryResponse {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let arm: String = value.field("arm")?;
        let body = value
            .get("body")
            .ok_or_else(|| CodecError::other("response has no body".to_string()))?;
        let items = || -> Result<&Vec<JsonValue>, CodecError> {
            match body {
                JsonValue::Array(items) => Ok(items),
                _ => Err(CodecError::other(format!("`{arm}` body must be an array"))),
            }
        };
        match arm.as_str() {
            "incidents" => Ok(QueryResponse::Incidents(
                items()?
                    .iter()
                    .map(IncidentRow::decode)
                    .collect::<Result<_, _>>()?,
            )),
            "dossiers" => Ok(QueryResponse::Dossiers(
                items()?
                    .iter()
                    .map(|item| Ok((item.field("job")?, item.field("dossier")?)))
                    .collect::<Result<_, CodecError>>()?,
            )),
            "digest" => Ok(QueryResponse::Digest(WarehouseDigest::decode(body)?)),
            "spans" => Ok(QueryResponse::Spans(
                items()?
                    .iter()
                    .map(TraceSpan::decode)
                    .collect::<Result<_, _>>()?,
            )),
            "alerts" => {
                let rule_set: String = body.field("rule_set")?;
                let alerts = match body.get("alerts") {
                    Some(JsonValue::Array(items)) => {
                        items.iter().map(Alert::decode).collect::<Result<_, _>>()?
                    }
                    _ => {
                        return Err(CodecError::other(
                            "missing or non-array `alerts`".to_string(),
                        ))
                    }
                };
                Ok(QueryResponse::Alerts(rule_set, alerts))
            }
            other => Err(CodecError::other(format!("unknown response arm `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::MachineId;
    use byterobust_obs::SpanKind;
    use byterobust_sim::SimTime;

    fn round_trip(query: FleetQuery) {
        let text = query.export_json();
        let back = FleetQuery::import_json(&text).expect("query round-trips");
        assert_eq!(query, back, "document:\n{text}");
    }

    #[test]
    fn every_query_arm_round_trips_through_the_codec() {
        round_trip(FleetQuery::Incidents(IncidentQuery::any()));
        round_trip(FleetQuery::Incidents(
            IncidentQuery::any()
                .machine(MachineId(7))
                .at_least(Severity::ALL[2])
                .window(SimTime::from_hours(1), SimTime::from_hours(9)),
        ));
        round_trip(FleetQuery::Dossiers(
            IncidentQuery::any().category(FaultCategory::Explicit),
        ));
        round_trip(FleetQuery::Digest);
        round_trip(FleetQuery::Spans(TraceQuery {
            scope: Some("fleet".to_string()),
            kind: Some(SpanKind::Warehouse),
            incident: Some(3),
            machine: None,
            from: Some(SimTime::from_hours(2)),
            until: None,
        }));
        round_trip(FleetQuery::Alerts(
            AlertQuery::any().rule("pool-dry").escalated(),
        ));
    }

    #[test]
    fn responses_round_trip_and_render_deterministically() {
        let digest = QueryResponse::Digest(WarehouseDigest {
            total: 3,
            jobs: vec![("alpha".to_string(), 2), ("beta".to_string(), 1)],
            severity: vec![(Severity::ALL[0], 2), (Severity::ALL[3], 1)],
            category: vec![(FaultCategory::Explicit, 3)],
        });
        let text = digest.export_json();
        let back = QueryResponse::import_json(&text).expect("response round-trips");
        assert_eq!(digest, back);
        assert_eq!(digest.render(), back.render());

        let alerts = QueryResponse::Alerts(
            "drill-rules".to_string(),
            vec![Alert {
                seq: 0,
                rule: "pool-dry".to_string(),
                signal: "pool_ready".to_string(),
                severity: AlertSeverity::ALL[0],
                fired_at: SimTime::from_hours(1),
                escalated_at: Some(SimTime::from_hours(2)),
                resolved_at: None,
                peak: 4.5,
            }],
        );
        let back = QueryResponse::import_json(&alerts.export_json()).expect("round-trips");
        assert_eq!(alerts.render(), back.render());
    }

    #[test]
    fn malformed_query_documents_are_rejected() {
        assert!(FleetQuery::import_json("{}").is_err());
        assert!(FleetQuery::import_json("not json").is_err());
        // Wrong format tag.
        let other = QueryResponse::Digest(WarehouseDigest::default()).export_json();
        assert!(FleetQuery::import_json(&other).is_err());
    }

    #[test]
    fn alert_query_predicate_is_conjunctive() {
        let alert = Alert {
            seq: 1,
            rule: "queue-deep".to_string(),
            signal: "admission_queue".to_string(),
            severity: AlertSeverity::ALL[1],
            fired_at: SimTime::from_hours(3),
            escalated_at: None,
            resolved_at: Some(SimTime::from_hours(4)),
            peak: 2.0,
        };
        assert!(AlertQuery::any().matches(&alert));
        assert!(AlertQuery::any().rule("queue-deep").matches(&alert));
        assert!(!AlertQuery::any().rule("pool-dry").matches(&alert));
        assert!(!AlertQuery::any().escalated().matches(&alert));
        assert!(!AlertQuery::any().unresolved().matches(&alert));
        assert!(AlertQuery::any()
            .severity(AlertSeverity::ALL[1])
            .matches(&alert));
    }
}
