//! [`crate::gate`] under the QoR schema: symmetric bands, exact mode,
//! and a vanished circuit failing the gate.

mod tests {
    use crate::diff::{has_regression, DiffStatus};
    use crate::gate::{band, diff, CircuitMetrics, Gate, MetricsDocument, Schema};

    const TOLERANT: Gate = Gate::Qor { exact: false };
    const EXACT: Gate = Gate::Qor { exact: true };

    fn report(circuit: &str, metrics: &[(&str, f64)]) -> CircuitMetrics {
        CircuitMetrics {
            circuit: circuit.into(),
            runs: None,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            phase_times: [("total_ms".to_string(), 12.5)].into_iter().collect(),
        }
    }

    fn doc(reports: Vec<CircuitMetrics>) -> MetricsDocument {
        MetricsDocument::new(Schema::Qor, reports)
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = doc(vec![report(
            "ex1",
            &[
                ("num_les", 34.0),
                ("delay_ns", 17.02),
                ("folding_level", 1.0),
                ("peak.place.cost", 123.456),
            ],
        )]);
        let text = doc.to_json().to_pretty_string();
        let parsed = MetricsDocument::parse(&text, Schema::Qor).expect("parses");
        assert_eq!(parsed, doc);
        // Serialization is deterministic.
        assert_eq!(text, parsed.to_json().to_pretty_string());
        // QoR records carry phase times and no run count.
        assert!(text.contains("\"phase_times\"") && !text.contains("\"runs\""));
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let parse = |text| MetricsDocument::parse(text, Schema::Qor);
        assert!(parse(r#"{"schema":"v999","circuits":[]}"#).is_err());
        assert!(parse(r#"{"schema":"nanomap-perf-v1","circuits":[]}"#).is_err());
        assert!(parse(r#"{"circuits":[]}"#).is_err());
        assert!(parse("not json").is_err());
    }

    #[test]
    fn identical_documents_pass() {
        let doc = doc(vec![report(
            "ex1",
            &[("num_les", 34.0), ("delay_ns", 17.0)],
        )]);
        let entries = diff(&doc, &doc, TOLERANT);
        assert!(!has_regression(&entries));
        assert!(entries.iter().any(|e| e.metric == "time.total_ms"));
    }

    #[test]
    fn exact_metrics_fail_on_any_change() {
        let base = doc(vec![report("ex1", &[("num_les", 34.0)])]);
        let new = doc(vec![report("ex1", &[("num_les", 35.0)])]);
        let entries = diff(&base, &new, TOLERANT);
        assert!(has_regression(&entries));
        let e = entries.iter().find(|e| e.metric == "num_les").unwrap();
        assert_eq!(e.status, DiffStatus::Regression);
    }

    #[test]
    fn tolerant_metrics_absorb_small_drift_both_ways() {
        let base = doc(vec![report("ex1", &[("routed_wirelength", 100.0)])]);
        for (value, ok) in [(110.0, true), (85.0, true), (121.0, false), (79.0, false)] {
            let new = doc(vec![report("ex1", &[("routed_wirelength", value)])]);
            let entries = diff(&base, &new, TOLERANT);
            assert_eq!(!has_regression(&entries), ok, "value {value}");
        }
    }

    #[test]
    fn missing_circuit_or_metric_fails_missing_baseline_informs() {
        let base = doc(vec![report("ex1", &[("num_les", 34.0)])]);
        let gone = doc(vec![]);
        assert!(has_regression(&diff(&base, &gone, TOLERANT)));
        // Metric disappeared.
        let dropped = doc(vec![report("ex1", &[])]);
        assert!(has_regression(&diff(&base, &dropped, TOLERANT)));
        // New metric appeared: informational only.
        let grown = doc(vec![report("ex1", &[("num_les", 34.0), ("num_smbs", 3.0)])]);
        assert!(!has_regression(&diff(&base, &grown, TOLERANT)));
    }

    #[test]
    fn exact_mode_rejects_any_drift_in_gated_metrics() {
        let base = doc(vec![report(
            "ex1",
            &[("routed_wirelength", 100.0), ("delay_ns", 17.02)],
        )]);
        // Drift well inside the normal tolerance band still fails exactly.
        let drifted = doc(vec![report(
            "ex1",
            &[("routed_wirelength", 101.0), ("delay_ns", 17.02)],
        )]);
        assert!(!has_regression(&diff(&base, &drifted, TOLERANT)));
        assert!(has_regression(&diff(&base, &drifted, EXACT)));
        // A perfect reproduction passes both modes.
        assert!(!has_regression(&diff(&base, &base.clone(), EXACT)));
        // Unknown (report-only) metrics stay informational in exact mode.
        let exotic_a = doc(vec![report("ex1", &[("exotic_metric", 1.0)])]);
        let exotic_b = doc(vec![report("ex1", &[("exotic_metric", 2.0)])]);
        assert!(!has_regression(&diff(&exotic_a, &exotic_b, EXACT)));
    }

    #[test]
    fn failure_detail_reports_absolute_and_relative_delta() {
        let base = doc(vec![report("ex1", &[("num_les", 34.0)])]);
        let new = doc(vec![report("ex1", &[("num_les", 35.0)])]);
        let entries = diff(&base, &new, EXACT);
        let e = entries.iter().find(|e| e.metric == "num_les").unwrap();
        assert!(e.status.fails());
        let detail = e.failure_detail();
        assert!(detail.contains("+1.000000"), "{detail}");
        assert!(detail.contains("+2.9412%"), "{detail}");
        // Missing sides are named, not silently blank.
        let gone = doc(vec![report("ex1", &[])]);
        let entries = diff(&base, &gone, TOLERANT);
        let e = entries.iter().find(|e| e.metric == "num_les").unwrap();
        assert!(e.failure_detail().contains("no new value"));
    }

    #[test]
    fn unknown_metrics_never_gate() {
        let base = doc(vec![report("ex1", &[("exotic_metric", 1.0)])]);
        let new = doc(vec![report("ex1", &[("exotic_metric", 99.0)])]);
        assert!(!has_regression(&diff(&base, &new, TOLERANT)));
    }

    #[test]
    fn tolerances_cover_the_qor_metric_set() {
        for gated in [
            "num_luts",
            "folding_level",
            "num_les",
            "num_smbs",
            "channel_width",
            "delay_ns",
            "critical_path_delay_ns",
            "routed_wirelength",
            "peak.place.cost",
            "peak.route.overuse",
        ] {
            assert!(band(TOLERANT, gated).is_some(), "{gated} must gate");
            assert_eq!(band(EXACT, gated), Some(0.0), "{gated} exact band");
        }
        assert!(band(TOLERANT, "something_else").is_none());
        assert!(band(EXACT, "something_else").is_none());
    }
}
