//! One metrics document and one regression gate for QoR and perf numbers.
//!
//! A [`MetricsDocument`] is a schema tag plus one [`CircuitMetrics`]
//! record per circuit: a flat, sorted `name → f64` metric map, plus the
//! repetition count (perf) or the info-only phase wall-clock times (QoR).
//! The two schemas are the two committed baseline families:
//!
//! * [`Schema::Qor`] freezes *what* the flow produces — the numbers the
//!   paper's result tables are made of (LUTs, folding level, LEs, SMBs,
//!   logic and routed delay, wirelength, channel width) plus the peak of
//!   every convergence series ([`CircuitMetrics::from_mapping`]).
//! * [`Schema::Perf`] tracks *how fast* it produces them — the median
//!   and p95 of every phase over N repeated runs plus peak memory
//!   ([`CircuitMetrics::from_samples`]).
//!
//! [`diff`] compares a fresh document against a committed baseline under
//! a [`Gate`]; `band` is the per-metric policy:
//!
//! * **QoR** bands are symmetric — structural metrics must match exactly,
//!   analytic floats get a tight relative band, physical-design outcomes
//!   a looser one, and anything else (phase times included) is reported
//!   but never gated. `exact` collapses every band to zero: the
//!   determinism gate. A circuit missing from the new document fails.
//! * **Perf** checks are one-sided and double-banded on `*.median_ms`
//!   only: a slowdown must exceed *both* the relative band and an
//!   absolute guard so microsecond phases cannot fail on scheduler
//!   jitter; speedups, p95s and memory are informational. A circuit
//!   missing from the new document only informs (perf-smoke measures
//!   one benchmark against the full-suite baseline).
//!
//! The `nanomap qor-diff` / `perf-diff` subcommands, `scripts/qor.sh`
//! and CI are thin wrappers over this module.

use std::collections::{BTreeMap, BTreeSet};

use nanomap_arch::ChannelConfig;
use nanomap_observe::{json, JsonValue, MetricsSnapshot};

use crate::artifact::versions;
use crate::diff::{number_map, number_object, DiffEntry, DiffStatus};
use crate::report::MappingReport;

/// Encoding of "no folding" in the `folding_level` metric.
const NO_FOLDING: f64 = -1.0;

/// Which baseline family a document belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schema {
    /// Quality of results (`nanomap-qor-v1`): records carry `phase_times`.
    Qor,
    /// Run-time performance (`nanomap-perf-v1`): records carry `runs`.
    Perf,
}

impl Schema {
    /// The on-disk schema tag.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Qor => versions::QOR,
            Self::Perf => versions::PERF,
        }
    }
}

/// The metrics of one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitMetrics {
    /// Circuit name.
    pub circuit: String,
    /// Runs aggregated into a perf record (`None` for QoR).
    pub runs: Option<u32>,
    /// Metrics, name → value (sorted, deterministic).
    pub metrics: BTreeMap<String, f64>,
    /// Wall-clock milliseconds per phase of a QoR record — reported,
    /// never gated (empty for perf).
    pub phase_times: BTreeMap<String, f64>,
}

impl CircuitMetrics {
    /// QoR record of a finished mapping, the channel configuration it
    /// targeted, and the observability snapshot of the run (for
    /// convergence-series peaks).
    pub fn from_mapping(
        report: &MappingReport,
        channels: &ChannelConfig,
        snapshot: &MetricsSnapshot,
    ) -> Self {
        let mut r = Self::empty(&report.circuit, None);
        r.set("num_luts", f64::from(report.num_luts));
        r.set("num_ffs", f64::from(report.num_ffs));
        r.set(
            "folding_level",
            report.folding_level.map_or(NO_FOLDING, f64::from),
        );
        r.set("stages", f64::from(report.stages));
        r.set("num_les", f64::from(report.num_les));
        r.set("delay_ns", report.delay_ns);
        r.set("area_um2", report.area_um2);
        let width = channels.direct + channels.length1 + channels.length4 + channels.global;
        r.set("channel_width", f64::from(width));
        if let Some(p) = &report.physical {
            r.set("num_smbs", f64::from(p.num_smbs));
            r.set("critical_path_delay_ns", p.routed_delay_ns);
            r.set("routed_wirelength", p.usage.total() as f64);
        }
        // Budget telemetry rides along only when it happened, so
        // unbudgeted runs stay byte-identical to pre-budget baselines.
        if report.degraded {
            r.set("degraded", 1.0);
            r.set("degraded_phases", report.degradations.len() as f64);
        }
        for (&name, series) in &snapshot.series {
            if series.count > 0 {
                r.set(&format!("peak.{name}"), series.peak());
            }
        }
        let times = report.phase_times.entries();
        r.phase_times = times.map(|(k, v)| (k.to_string(), v)).collect();
        r
    }

    /// Perf record aggregating repeated per-run samples. `samples` maps
    /// a metric base name (e.g. `"pack_ms"`) to its per-run values; each
    /// becomes `<base>.median_ms`/`<base>.p95_ms` with the `_ms` suffix
    /// of the base stripped. Non-timing extras (e.g. `peak_rss_kb`) pass
    /// through [`Self::set`].
    pub fn from_samples(circuit: &str, runs: u32, samples: &BTreeMap<String, Vec<f64>>) -> Self {
        let mut r = Self::empty(circuit, Some(runs));
        for (base, values) in samples {
            if values.is_empty() {
                continue;
            }
            let stem = base.strip_suffix("_ms").unwrap_or(base);
            r.set(&format!("{stem}.median_ms"), percentile(values, 0.50));
            r.set(&format!("{stem}.p95_ms"), percentile(values, 0.95));
        }
        r
    }

    fn empty(circuit: &str, runs: Option<u32>) -> Self {
        Self {
            circuit: circuit.to_string(),
            runs,
            metrics: BTreeMap::new(),
            phase_times: BTreeMap::new(),
        }
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn to_json(&self, schema: Schema) -> JsonValue {
        let mut value = JsonValue::object().with("circuit", self.circuit.as_str());
        if let Some(runs) = self.runs {
            value.set("runs", runs);
        }
        value.set("metrics", number_object(&self.metrics));
        if schema == Schema::Qor {
            value.set("phase_times", number_object(&self.phase_times));
        }
        value
    }

    fn from_json(value: &JsonValue, schema: Schema) -> Result<Self, String> {
        let circuit = value
            .get("circuit")
            .and_then(JsonValue::as_str)
            .ok_or("report missing string `circuit`")?
            .to_string();
        let (runs, phase_times) = match schema {
            Schema::Qor => (None, number_map(value.get("phase_times"), "phase_times")?),
            Schema::Perf => {
                let runs = value.get("runs").and_then(JsonValue::as_int);
                let runs = runs.ok_or("perf report missing integer `runs`")?;
                let runs = runs.clamp(0, i64::from(u32::MAX)) as u32;
                (Some(runs), BTreeMap::new())
            }
        };
        Ok(Self {
            circuit,
            runs,
            metrics: number_map(value.get("metrics"), "metrics")?,
            phase_times,
        })
    }
}

/// Midpoint-interpolated percentile of an unsorted sample set (`q` in
/// 0..=1). Empty input yields 0.
pub(crate) fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A schema-tagged document: one record per circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDocument {
    /// Baseline family.
    pub schema: Schema,
    /// Per-circuit records in insertion order.
    pub circuits: Vec<CircuitMetrics>,
}

impl MetricsDocument {
    /// Bundles records into a document.
    pub fn new(schema: Schema, circuits: Vec<CircuitMetrics>) -> Self {
        Self { schema, circuits }
    }

    /// Looks up a circuit's record by name.
    pub fn circuit(&self, name: &str) -> Option<&CircuitMetrics> {
        self.circuits.iter().find(|r| r.circuit == name)
    }

    /// Deterministic JSON serialization with the schema tag.
    pub fn to_json(&self) -> JsonValue {
        let circuits = self.circuits.iter().map(|r| r.to_json(self.schema));
        JsonValue::object()
            .with("schema", self.schema.tag())
            .with("circuits", JsonValue::Array(circuits.collect()))
    }

    /// Parses a document that must carry `schema`'s tag.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, a wrong/missing schema tag, or malformed
    /// records.
    pub fn parse(text: &str, schema: Schema) -> Result<Self, String> {
        let value = json::parse(text)?;
        let expected = schema.tag();
        match value.get("schema").and_then(JsonValue::as_str) {
            Some(tag) if tag == expected => {}
            Some(other) => return Err(format!("schema `{other}`, expected `{expected}`")),
            None => return Err(format!("missing `schema` tag, expected `{expected}`")),
        }
        let circuits = value
            .get("circuits")
            .and_then(JsonValue::as_array)
            .ok_or("missing `circuits` array")?
            .iter()
            .map(|r| CircuitMetrics::from_json(r, schema))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { schema, circuits })
    }
}

/// How [`diff`] judges a new document against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Symmetric per-metric bands; `exact` demands bit-for-bit equality
    /// of every gated metric.
    Qor {
        /// Zero-tolerance determinism mode.
        exact: bool,
    },
    /// One-sided check of `*.median_ms`: fails only when a slowdown
    /// exceeds both `rel` (relative to the baseline) and `abs_ms`.
    Perf {
        /// Relative slowdown band.
        rel: f64,
        /// Absolute guard band in milliseconds.
        abs_ms: f64,
    },
}

impl Gate {
    /// The perf gate's defaults: a +100 % relative band (perf gates catch
    /// real regressions, not machine noise) and a 25 ms absolute guard,
    /// below which no delta fails whatever the relative change.
    pub const PERF_DEFAULT: Self = Self::Perf {
        rel: 1.0,
        abs_ms: 25.0,
    };

    /// Whether `new` stays within band `tol` of baseline `base`.
    fn passes(self, base: f64, new: f64, tol: f64) -> bool {
        match self {
            // Symmetric: improvements beyond tolerance also fail,
            // forcing the baseline to stay honest.
            Self::Qor { exact } => {
                let allowed = if exact { 0.0 } else { tol * base.abs() + 1e-9 };
                (new - base).abs() <= allowed
            }
            Self::Perf { abs_ms, .. } => {
                let slowdown = new - base;
                !(slowdown > tol * base.abs() && slowdown > abs_ms)
            }
        }
    }
}

/// Relative band of `metric` under `gate`, or `None` for report-only
/// metrics that never gate.
///
/// QoR: structural results of the deterministic flow (counts, folding
/// level, channel width) must match exactly. Analytic model outputs get
/// a tight band for cross-platform float noise. Physical-design outcomes
/// sit downstream of `exp()`/`sqrt()` in the annealer — libm differences
/// can legitimately shift them a little — so they get a looser band, and
/// the convergence-series peaks looser still. Exact mode collapses every
/// band to zero.
///
/// Perf: only run-time medians gate; p95 and memory are trend telemetry.
pub(crate) fn band(gate: Gate, metric: &str) -> Option<f64> {
    match gate {
        Gate::Qor { exact } => {
            let tol = match metric {
                "num_luts" | "num_ffs" | "folding_level" | "stages" | "num_les" | "num_smbs"
                | "channel_width" => 0.0,
                "delay_ns" | "area_um2" => 0.01,
                "critical_path_delay_ns" => 0.10,
                "routed_wirelength" => 0.20,
                name if name.starts_with("peak.") => 0.30,
                _ => return None,
            };
            Some(if exact { 0.0 } else { tol })
        }
        Gate::Perf { rel, .. } => metric.ends_with(".median_ms").then_some(rel),
    }
}

/// Compares a new document against a baseline, metric by metric.
///
/// Per circuit, metrics come in name order; QoR `phase_times` follow as
/// `time.<phase>` [`DiffStatus::Info`] entries. A circuit missing on
/// either side yields one entry named `<circuit>`: a failure when the
/// QoR gate loses a circuit, informational otherwise.
pub fn diff(baseline: &MetricsDocument, new: &MetricsDocument, gate: Gate) -> Vec<DiffEntry> {
    let whole = |circuit: &str, status| DiffEntry {
        circuit: circuit.to_string(),
        metric: "<circuit>".into(),
        baseline: None,
        new: None,
        tolerance: None,
        status,
    };
    let mut entries = Vec::new();
    for base in &baseline.circuits {
        let Some(fresh) = new.circuit(&base.circuit) else {
            entries.push(whole(
                &base.circuit,
                match gate {
                    Gate::Qor { .. } => DiffStatus::MissingInNew,
                    Gate::Perf { .. } => DiffStatus::Info,
                },
            ));
            continue;
        };
        let names: BTreeSet<&String> = base.metrics.keys().chain(fresh.metrics.keys()).collect();
        for name in names {
            let b = base.metrics.get(name).copied();
            let n = fresh.metrics.get(name).copied();
            let tolerance = band(gate, name);
            let status = match (b, n, tolerance) {
                (None, Some(_), _) => DiffStatus::MissingInBaseline,
                (Some(_), None, Some(_)) => DiffStatus::MissingInNew,
                (Some(b), Some(n), Some(tol)) if !gate.passes(b, n, tol) => DiffStatus::Regression,
                (Some(_), Some(_), Some(_)) => DiffStatus::Ok,
                _ => DiffStatus::Info,
            };
            entries.push(DiffEntry {
                circuit: base.circuit.clone(),
                metric: name.clone(),
                baseline: b,
                new: n,
                tolerance,
                status,
            });
        }
        for (name, &b) in &base.phase_times {
            entries.push(DiffEntry {
                circuit: base.circuit.clone(),
                metric: format!("time.{name}"),
                baseline: Some(b),
                new: fresh.phase_times.get(name).copied(),
                tolerance: None,
                status: DiffStatus::Info,
            });
        }
    }
    for fresh in &new.circuits {
        if baseline.circuit(&fresh.circuit).is_none() {
            entries.push(whole(&fresh.circuit, DiffStatus::MissingInBaseline));
        }
    }
    entries
}
