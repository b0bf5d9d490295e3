//! What one run prints: context, every metric by name with its unit and
//! sample count, and the closing one-line JSON result.

use crate::stats::Tally;
use cardir_telemetry::Json;

/// End-to-end metrics every workload reports: the result line of an
/// untraced run. Names and units are those of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics: the result line of a traced run.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("xml.load_s", "s"),
    ("cache.build_s", "s"),
    ("join.discover_s", "s"),
    ("join.run_s", "s"),
    ("join.candidates", "count"),
    ("join.exact_pairs", "count"),
    ("join.exact_per_candidate", "ratio"),
    ("join.thread_balance", "ratio"),
    ("kernel.ns_per_edge", "ns"),
    ("kernel.edges_scanned", "count"),
    ("incremental.apply_ms", "ms"),
    ("incremental.pairs_recomputed", "count"),
    ("incremental.snapshot_ms", "ms"),
    ("incremental.materialize_ms", "ms"),
    ("journal.apply_ms", "ms"),
    ("journal.self_ms", "ms"),
    ("journal.bytes_per_edit", "B"),
    ("journal.compactions", "count"),
    ("journal.replay_s", "s"),
    ("session.apply_ms", "ms"),
    ("session.publish_ms", "ms"),
    ("session.read_us", "us"),
    ("session.config_build_ms", "ms"),
    ("query.parse_us", "us"),
    ("query.eval_ms", "ms"),
    ("query.candidates", "count"),
    ("query.bindings", "count"),
    ("api.encode_ms", "ms"),
    ("api.body_bytes", "B"),
    ("http.relation_self_ms", "ms"),
    ("http.bulk_self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.uncovered_share", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Raw samples behind the value (0 for counts and derived values).
    pub samples: usize,
    /// How the value was obtained, when that is not a plain measurement.
    pub note: &'static str,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Run parameters printed with every result.
    pub context: Vec<(&'static str, String)>,
    /// Metrics in the order measured.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Checks that failed outside any single operation.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a run parameter.
    pub fn context(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }

    /// Records a metric measured from `samples` raw samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, "");
    }

    /// Records a metric obtained by subtracting spans of separate passes.
    pub fn derived(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, 0, "derived");
    }

    fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &'static str,
    ) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note,
        });
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// `true` when operations ran, none failed and no check failed.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable block: context, every metric, every problem.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.context {
            out.push_str(&format!("# {key} = {value}\n"));
        }
        out.push_str(&format!(
            "error_ratio = {} ratio (failed {} of {} attempted)\n",
            self.tally.error_ratio(),
            self.tally.failed,
            self.tally.attempted
        ));
        for m in &self.metrics {
            let mut line = format!("{} = {} {}", m.name, m.value, m.unit);
            if m.samples > 0 {
                line.push_str(&format!(" (n={})", m.samples));
            }
            if !m.note.is_empty() {
                line.push_str(&format!(" [{}]", m.note));
            }
            out.push_str(&line);
            out.push('\n');
        }
        for p in &self.problems {
            out.push_str(&format!("PROBLEM: {p}\n"));
        }
        out
    }

    /// The closing result line over the metrics named in `wanted`. A
    /// wanted metric that was never measured is reported as an error.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != *unit {
                return Err(format!("metric {name} measured in {} not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            metrics.push((
                name.to_string(),
                Json::obj([("value", Json::F64(m.value)), ("unit", Json::from(*unit))]),
            ));
        }
        let line = Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", Json::Obj(metrics)),
        ]);
        Ok(line.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_wanted_metrics() {
        let mut report = Report::default();
        report.metric("setup_s", 0.8127, "s", 3);
        report.metric("latency_ms", 1.25, "ms", 40);
        report.metric("other", 7.0, "count", 0);
        report.tally.record(true);
        let line = report
            .result_line(&[("latency_ms", "ms"), ("setup_s", "s")])
            .unwrap();
        let json = cardir_telemetry::parse_json(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("metrics object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["latency_ms", "setup_s"]);
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(report.result_line(&[("missing", "s")]).is_err());
        assert!(report.result_line(&[("setup_s", "ms")]).is_err());
    }

    #[test]
    fn an_injected_wrong_answer_makes_the_run_incorrect() {
        let mut report = Report::default();
        report.metric("setup_s", 1.0, "s", 1);
        for _ in 0..9 {
            report.tally.record(true);
        }
        // One answer that differs from the oracle.
        report.tally.record(false);
        assert!(!report.correct());
        assert!((report.tally.error_ratio() - 0.1).abs() < 1e-12);
        let line = report.result_line(&[("setup_s", "s")]).unwrap();
        let json = cardir_telemetry::parse_json(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(10));
    }

    #[test]
    fn a_run_that_attempted_nothing_is_not_correct() {
        let mut report = Report::default();
        report.metric("setup_s", 1.0, "s", 1);
        assert!(!report.correct());
        let line = report.result_line(&[("setup_s", "s")]).unwrap();
        let json = cardir_telemetry::parse_json(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn metric_names_fit_the_benchmark_json_rules() {
        let valid = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(unit.len() <= 16, "{unit}");
        }
    }
}
