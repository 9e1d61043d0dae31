//! `compare A.json B.json`: is B worse than A by more than the
//! benchmark's own bounds?

use crate::json::{self, Value};
use crate::schema::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// One side's own quartiles are further apart than the bound, so
    /// the pair cannot show the metric unchanged.
    Unresolved,
    /// Shown for the reader; carries no bound.
    Ungated,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Ungated => "ungated",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse: f64,
    /// `None`: shown for the reader, never judged.
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

struct Side {
    median: f64,
    spread: f64,
}

fn side(results: &Value, workload: &str, metric: &str) -> Result<Side, String> {
    let m = results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("{workload}.{metric} is missing"))?;
    let num = |key: &str| {
        m.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}.{metric}.{key} is not a number"))
    };
    let median = num("value")?;
    let spread = if median == 0.0 {
        0.0
    } else {
        (num("q3")? - num("q1")?) / median.abs()
    };
    Ok(Side { median, spread })
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(a: &Side, b: &Side, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if a.median != 0.0 {
        delta / a.median.abs()
    } else if delta > 0.0 {
        // An exact-zero metric: any increase is infinitely worse.
        f64::INFINITY
    } else {
        0.0
    }
}

fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> (f64, Verdict) {
    let worse = worsening(a, b, better);
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if a.spread > bound || b.spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// One row per workload × end-to-end metric, in schema order.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let gated = schema::END_TO_END
        .iter()
        .map(|m| (m.name, m.better, Some(m.bound)));
    let exact = schema::EXACT_ZERO
        .iter()
        .map(|&(name, _)| (name, Better::Lower, Some(0.0)));
    let tail = (schema::UNGATED_TAIL.0, Better::Lower, None);
    let metrics: Vec<_> = gated.chain(exact).chain([tail]).collect();
    let mut rows = Vec::new();
    for w in &schema::WORKLOADS {
        for &(metric, better, bound) in &metrics {
            let (sa, sb) = (side(a, w.name, metric)?, side(b, w.name, metric)?);
            let (worse, verdict) = match bound {
                Some(bound) => judge(&sa, &sb, better, bound),
                None => (worsening(&sa, &sb, better), Verdict::Ungated),
            };
            rows.push(Row {
                workload: w.name.into(),
                metric,
                a: sa.median,
                b: sb.median,
                worse,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the table; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let rows = compare(&load(path_a)?, &load(path_b)?)?;
    println!(
        "{:<18} {:<16} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for r in &rows {
        let bound = r
            .bound
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        println!(
            "{:<18} {:<16} {:>16} {:>16} {:>8.2}% {:>6}  {}",
            r.workload,
            r.metric,
            json::number(r.a),
            json::number(r.b),
            r.worse * 100.0,
            bound,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} regressed (txn_p99_us is shown ungated)",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    Ok(count(Verdict::Regressed) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // Throughput down 12 % against a 10 % bound.
        let (worse, v) = judge(&s(100.0, 0.01), &s(88.0, 0.01), Better::Higher, 0.10);
        assert!((worse - 0.12).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        // Throughput up is never a regression.
        assert_eq!(
            judge(&s(100.0, 0.01), &s(130.0, 0.01), Better::Higher, 0.10).1,
            Verdict::Ok
        );
        // Latency up 5 % within a 10 % bound.
        assert_eq!(
            judge(&s(20.0, 0.02), &s(21.0, 0.02), Better::Lower, 0.10).1,
            Verdict::Ok
        );
        // Within the bound, but one side is noisier than the bound.
        assert_eq!(
            judge(&s(20.0, 0.02), &s(21.0, 0.15), Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        // Exact-zero metrics: equal is ok, any increase regresses.
        assert_eq!(
            judge(&s(0.0, 0.0), &s(0.0, 0.0), Better::Lower, 0.0).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&s(0.0, 0.0), &s(1.0, 0.0), Better::Lower, 0.0).1,
            Verdict::Regressed
        );
    }
}
