//! The result line: one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`, each metric `{"value", "unit"}`.

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl RunResult {
    /// Render the single-line JSON object. Values keep every digit `f64`
    /// has (Rust prints the shortest string that round-trips).
    ///
    /// # Errors
    /// A metric that is not finite, or whose name the contract would refuse,
    /// is a bug in the benchmark: say which, print nothing.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !name_ok(&m.name) {
                return Err(format!("metric name {:?} is outside the contract", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if self.metrics[..i].iter().any(|p| p.name == m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }

    #[test]
    fn renders_the_contract_shape() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                metric("latency_ms", 1.2034, "ms"),
                metric("setup_s", 0.8127, "s"),
                metric("hstreams.actions_per_op", 219.0, "count"),
            ],
        };
        assert_eq!(
            r.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"hstreams.actions_per_op\": {\"value\": 219, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn keeps_all_digits_and_stays_plain_decimal() {
        let r = RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![metric("tiny", 1.25e-7, "s"), metric("x", 0.1 + 0.2, "s")],
        };
        let s = r.to_json().unwrap();
        assert!(s.contains("\"value\": 0.000000125,"), "{s}");
        assert!(s.contains("0.30000000000000004"), "{s}");
        assert!(!s.contains('\n'));
    }

    #[test]
    fn refuses_what_the_driver_would_refuse() {
        let bad = |m: Metric| RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![metric("ok", 1.0, "s"), m],
        };
        assert!(bad(metric("nan", f64::NAN, "s")).to_json().is_err());
        assert!(bad(metric("inf", f64::INFINITY, "s")).to_json().is_err());
        assert!(bad(metric("has space", 1.0, "s")).to_json().is_err());
        assert!(bad(metric("ok", 2.0, "s")).to_json().is_err());
    }
}
