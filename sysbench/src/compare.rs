//! `sysbench compare a.json b.json`: is any end-to-end metric of suite
//! output `b` worse than in `a` by more than its bound?

use crate::json::Json;
use crate::report::{END_TO_END, WORKLOADS};

/// One metric on one workload, compared.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub before: f64,
    pub after: f64,
    /// Share of `before` by which `after` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
}

impl Row {
    pub fn regressed(&self) -> bool {
        self.worse_by > self.bound
    }
}

fn metric_value(suite: &Json, workload: &str, metric: &str) -> Result<f64, String> {
    suite
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no end-to-end {metric} for {workload}"))
}

/// Compares every end-to-end metric of every workload present in both
/// suite outputs. A workload missing from either side is an error, not
/// a pass.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let before = metric_value(a, workload, m.name)?;
            let after = metric_value(b, workload, m.name)?;
            if before <= 0.0 {
                return Err(format!("{workload} {}: baseline is {before}", m.name));
            }
            let change = (after - before) / before;
            rows.push(Row {
                workload: workload.to_owned(),
                metric: m.name,
                before,
                after,
                worse_by: if m.higher_is_better { -change } else { change },
                bound: m.bound,
            });
        }
    }
    Ok(rows)
}

/// Runs the comparison on two files and prints a table. Returns the
/// process exit code: 0 when nothing regressed, 1 otherwise, 2 on
/// unreadable input.
pub fn main(a_path: &str, b_path: &str) -> i32 {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => compare(&a, &b),
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("sysbench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<16} {:<15} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut regressions = 0;
    for r in &rows {
        println!(
            "{:<16} {:<15} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{}",
            r.workload,
            r.metric,
            r.before,
            r.after,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.regressed() { "  REGRESSED" } else { "" }
        );
        regressions += r.regressed() as usize;
    }
    println!("{regressions} of {} pairs beyond their bound", rows.len());
    (regressions > 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(scale: impl Fn(&str, &str) -> f64) -> Json {
        let mut workloads = Json::obj();
        for (w, _) in WORKLOADS {
            let mut metrics = Json::obj();
            for m in &END_TO_END {
                metrics.set(
                    m.name,
                    Json::obj()
                        .with("value", 100.0 * scale(w, m.name))
                        .with("unit", m.unit),
                );
            }
            workloads.set(
                w,
                Json::obj().with("end_to_end", Json::obj().with("metrics", metrics)),
            );
        }
        Json::obj().with("workloads", workloads)
    }

    #[test]
    fn equal_suites_pass() {
        let rows = compare(&suite(|_, _| 1.0), &suite(|_, _| 1.0)).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(rows.iter().all(|r| !r.regressed() && r.worse_by == 0.0));
    }

    #[test]
    fn direction_and_bound_decide() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        // read_ops_s (higher is better) drops two points past its bound
        // on one workload; read_p50_us (lower is better) halves everywhere.
        let drop = bound("read_ops_s") + 0.02;
        let b = suite(|w, m| match (w, m) {
            ("serve_read", "read_ops_s") => 1.0 - drop,
            (_, "read_p50_us") => 0.5,
            _ => 1.0,
        });
        let rows = compare(&suite(|_, _| 1.0), &b).unwrap();
        let bad: Vec<_> = rows.iter().filter(|r| r.regressed()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(
            (bad[0].workload.as_str(), bad[0].metric),
            ("serve_read", "read_ops_s")
        );
        assert!((bad[0].worse_by - drop).abs() < 1e-12);
        // Within the bound is not a regression.
        let ok = suite(|_, m| {
            if m == "read_ops_s" {
                1.0 - drop + 0.03
            } else {
                1.0
            }
        });
        assert!(compare(&suite(|_, _| 1.0), &ok)
            .unwrap()
            .iter()
            .all(|r| !r.regressed()));
        // Lower-is-better metrics regress upward.
        let rise = 1.0 + bound("read_p50_us") + 0.01;
        let slow = suite(|_, m| if m == "read_p50_us" { rise } else { 1.0 });
        assert_eq!(
            compare(&suite(|_, _| 1.0), &slow)
                .unwrap()
                .iter()
                .filter(|r| r.regressed())
                .count(),
            WORKLOADS.len()
        );
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let partial = Json::obj().with("workloads", Json::obj());
        assert!(compare(&suite(|_, _| 1.0), &partial).is_err());
    }
}
