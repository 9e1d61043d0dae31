//! Turning an [`Outcome`] into what people and the driver read: the
//! table on standard output, the one-line JSON result, and the detail
//! object the `run`/`trace` suites collect into `results.json`.

use crate::json::{self, obj, Value};
use crate::run::{Metric, Outcome};
use crate::schema;

/// Which metric list the result line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `--trace 0`: every gated end-to-end metric.
    EndToEnd,
    /// `--trace 1`: every per-layer metric.
    Layers,
}

impl Pass {
    /// `(name, unit)` of every metric the result line must carry.
    pub fn names(self) -> Vec<(&'static str, &'static str)> {
        match self {
            Pass::EndToEnd => schema::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect(),
            Pass::Layers => schema::PER_LAYER.to_vec(),
        }
    }
}

fn find<'a>(outcome: &'a Outcome, name: &str) -> &'a Metric {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{}: metric {name} was never measured", outcome.workload))
}

/// Print every metric by name with its unit, then notes and findings.
pub fn print(outcome: &Outcome) {
    println!("workload {}", outcome.workload);
    for m in &outcome.metrics {
        let s = &m.summary;
        if s.n > 1 {
            println!(
                "  {:<36} {:>16} {:<8} q1 {} q3 {} n {}",
                m.name,
                json::number(s.median),
                m.unit,
                json::number(s.q1),
                json::number(s.q3),
                s.n
            );
        } else {
            println!("  {:<36} {:>16} {}", m.name, json::number(s.median), m.unit);
        }
    }
    println!(
        "  operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for finding in &outcome.findings {
        println!("  AUDIT FAILED: {finding}");
    }
    println!(
        "  audit: {}",
        if outcome.correct { "passed" } else { "FAILED" }
    );
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric exactly `value` and `unit`.
pub fn result_line(outcome: &Outcome, pass: Pass) -> String {
    let metrics = pass.names().into_iter().map(|(name, unit)| {
        let m = find(outcome, name);
        debug_assert_eq!(m.unit, unit, "{name}");
        (
            name,
            obj([
                ("value", Value::Num(m.summary.median)),
                ("unit", Value::Str(unit.into())),
            ]),
        )
    });
    obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}

/// Everything about the run, quartiles and sample counts included.
pub fn detail(outcome: &Outcome) -> Value {
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name,
            obj([
                ("value", Value::Num(m.summary.median)),
                ("unit", Value::Str(m.unit.into())),
                ("q1", Value::Num(m.summary.q1)),
                ("q3", Value::Num(m.summary.q3)),
                ("n", Value::Num(m.summary.n as f64)),
            ]),
        )
    });
    let strings = |items: &[String]| Value::Arr(items.iter().cloned().map(Value::Str).collect());
    obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", obj(metrics)),
        ("notes", strings(&outcome.notes)),
        ("findings", strings(&outcome.findings)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn sample_outcome() -> Outcome {
        let mut metrics: Vec<Metric> = schema::END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| Metric {
                name: m.name,
                unit: m.unit,
                summary: Summary::of(&[10.0 + i as f64, 10.5 + i as f64, 11.0 + i as f64]),
            })
            .collect();
        metrics.push(Metric::single("failed_share", "ratio", 0.0));
        metrics.push(Metric::single("escalations", "count", 0.0));
        Outcome {
            workload: "inproc_oltp",
            correct: true,
            findings: vec![],
            attempted: 2_200,
            failed: 0,
            metrics,
            notes: vec!["a note".into()],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&sample_outcome(), Pass::EndToEnd);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = schema::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        for (_, m) in metrics {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
    }
}
