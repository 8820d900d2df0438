//! [`crate::gate`] under the perf schema: one-sided, double-banded
//! checks of phase medians, and absent circuits only informing.

mod tests {
    use std::collections::BTreeMap;

    use crate::diff::has_regression;
    use crate::gate::{band, diff, percentile, CircuitMetrics, Gate, MetricsDocument, Schema};

    fn gate(rel: f64, abs_ms: f64) -> Gate {
        Gate::Perf { rel, abs_ms }
    }

    fn report(circuit: &str, metrics: &[(&str, f64)]) -> CircuitMetrics {
        CircuitMetrics {
            circuit: circuit.into(),
            runs: Some(5),
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            phase_times: BTreeMap::new(),
        }
    }

    fn doc(reports: Vec<CircuitMetrics>) -> MetricsDocument {
        MetricsDocument::new(Schema::Perf, reports)
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = doc(vec![report(
            "ex1",
            &[
                ("pack.median_ms", 12.0),
                ("pack.p95_ms", 14.5),
                ("peak_rss_kb", 30_000.0),
            ],
        )]);
        let text = doc.to_json().to_pretty_string();
        let parsed = MetricsDocument::parse(&text, Schema::Perf).expect("parses");
        assert_eq!(parsed, doc);
        assert_eq!(text, parsed.to_json().to_pretty_string());
        // Perf records carry the run count and no phase times.
        assert!(text.contains("\"runs\": 5") && !text.contains("\"phase_times\""));
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let parse = |text| MetricsDocument::parse(text, Schema::Perf);
        assert!(parse(r#"{"schema":"nanomap-qor-v1","circuits":[]}"#).is_err());
        assert!(parse(r#"{"circuits":[]}"#).is_err());
        assert!(parse("not json").is_err());
        // A perf record without its run count is malformed.
        assert!(parse(
            r#"{"schema":"nanomap-perf-v1","circuits":[{"circuit":"ex1","metrics":{}}]}"#
        )
        .is_err());
    }

    #[test]
    fn from_samples_computes_median_and_p95() {
        let samples: BTreeMap<String, Vec<f64>> =
            [("place_ms".to_string(), vec![10.0, 20.0, 30.0, 40.0, 50.0])].into();
        let r = CircuitMetrics::from_samples("ex1", 5, &samples);
        assert_eq!(r.runs, Some(5));
        assert_eq!(r.metrics["place.median_ms"], 30.0);
        assert!((r.metrics["place.p95_ms"] - 48.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 1.0), 5.0);
    }

    #[test]
    fn gate_is_one_sided_and_double_banded() {
        let base = doc(vec![report("ex1", &[("place.median_ms", 100.0)])]);
        // Big relative AND absolute slowdown: fails.
        let slow = doc(vec![report("ex1", &[("place.median_ms", 300.0)])]);
        assert!(has_regression(&diff(&base, &slow, gate(0.5, 25.0))));
        // Large relative but tiny absolute delta: guarded.
        let tiny_base = doc(vec![report("ex1", &[("fast.median_ms", 1.0)])]);
        let tiny_slow = doc(vec![report("ex1", &[("fast.median_ms", 10.0)])]);
        assert!(!has_regression(&diff(
            &tiny_base,
            &tiny_slow,
            gate(0.5, 25.0)
        )));
        // Large absolute but small relative delta: tolerated.
        let wide = doc(vec![report("ex1", &[("place.median_ms", 130.0)])]);
        assert!(!has_regression(&diff(&base, &wide, gate(0.5, 25.0))));
        // Speedups never fail, however large.
        let fast = doc(vec![report("ex1", &[("place.median_ms", 1.0)])]);
        assert!(!has_regression(&diff(&base, &fast, gate(0.5, 25.0))));
    }

    #[test]
    fn p95_and_memory_are_informational() {
        let base = doc(vec![report(
            "ex1",
            &[("place.p95_ms", 10.0), ("peak_rss_kb", 10_000.0)],
        )]);
        let blown = doc(vec![report(
            "ex1",
            &[("place.p95_ms", 9_999.0), ("peak_rss_kb", 9e9)],
        )]);
        assert!(!has_regression(&diff(&base, &blown, gate(0.1, 1.0))));
        assert_eq!(band(gate(0.1, 1.0), "place.p95_ms"), None);
        assert_eq!(band(gate(0.1, 1.0), "place.median_ms"), Some(0.1));
    }

    #[test]
    fn missing_circuit_in_new_is_informational() {
        // perf-smoke diffs one measured benchmark against the full-suite
        // baseline; absent circuits must not fail the gate.
        let base = doc(vec![
            report("ex1", &[("place.median_ms", 10.0)]),
            report("FIR", &[("place.median_ms", 20.0)]),
        ]);
        let partial = doc(vec![report("ex1", &[("place.median_ms", 10.0)])]);
        assert!(!has_regression(&diff(&base, &partial, gate(0.5, 25.0))));
        // But a gated metric vanishing from a measured circuit still fails.
        let dropped = doc(vec![report("ex1", &[]), report("FIR", &[])]);
        assert!(has_regression(&diff(&base, &dropped, gate(0.5, 25.0))));
    }
}
