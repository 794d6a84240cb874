//! What a run prints: a fixture record, one line per metric, and the result
//! object as the last line of standard output.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    /// Evaluations attempted in the timed phase (refusals count as
    /// attempts).
    pub attempted: u64,
    /// Attempts that failed, were refused or lost, or failed a
    /// correctness check.
    pub failed: u64,
    /// Why the run is not correct, one entry per failed check.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `key=value` facts describing the fixture and the run.
    pub fixture: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.fixture.push((key.to_string(), value.to_string()));
    }

    /// Record a failed correctness check that invalidated `evals` attempts.
    pub fn fail_check(&mut self, evals: u64, problem: String) {
        self.failed += evals.max(1);
        self.problems.push(problem);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The fixture as one JSON object.
    pub fn fixture_json(&self) -> String {
        let fields: Vec<String> = self
            .fixture
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", k, v.replace('"', "'")))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The final result line.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics
        )
    }
}

/// A finite number as JSON (Rust's shortest round-trip form keeps every
/// digit); non-finite values, which JSON cannot carry, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.result_json(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        r.fail_check(3, "mismatch".into());
        assert!(!r.correct());
        assert!(r
            .result_json()
            .starts_with("{\"correct\":false,\"attempted\":10,\"failed\":3"));
    }
}
