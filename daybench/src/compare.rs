//! A/A (or A/B) comparator over two result sets.
//!
//! A result set is a directory holding `<workload>.jsonl`, one result
//! line per run as the benchmark printed it. For each workload and
//! end-to-end metric the comparator sets the medians side by side and
//! judges the change against the metric's bound. When either side's
//! run-to-run spread (quartile distance over median) is wider than the
//! bound, the verdict is "unresolved" — unless every run of B is
//! better than every run of A. Any rise in the failed share of
//! operations is flagged on its own.

use std::path::Path;

use serde::Value;

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::NAMES;

/// How one metric moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound: no call can be made.
    Unresolved,
}

/// Quartile distance over median: the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / m.abs())
}

/// Judge metric `def` from runs `a` (parent) to runs `b` (change).
pub fn verdict(def: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let sign = match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive = worse, as a share of the parent's median.
    let worse = sign * (mb - ma) / ma.abs();
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_none_or(|s| s > def.bound));
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    if noisy {
        if b_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

/// One run's result line, reduced to what the comparator reads.
#[derive(Debug, Clone)]
pub struct RunResult {
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// Parse a result line.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("bad result line: {e}"))?;
        let num = |v: &Value| match v {
            Value::F64(x) => Some(*x),
            Value::I64(x) => Some(*x as f64),
            Value::U64(x) => Some(*x as f64),
            _ => None,
        };
        let field = |name: &str| {
            v.field(name)
                .ok()
                .and_then(num)
                .ok_or_else(|| format!("result line lacks `{name}`"))
        };
        let metrics = v
            .field("metrics")
            .ok()
            .and_then(Value::as_map)
            .ok_or("result line lacks `metrics`")?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), num(m.field("value").ok()?)?)))
            .collect();
        Ok(RunResult {
            attempted: field("attempted")?,
            failed: field("failed")?,
            metrics,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

fn load(dir: &Path, workload: &str) -> Result<Vec<RunResult>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(Vec::new());
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(RunResult::parse)
        .collect()
}

/// Failed share of all operations across runs.
fn fail_share(runs: &[RunResult]) -> f64 {
    let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
    runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
}

/// `daybench compare A_DIR B_DIR`: print a verdict table; exit 1 on
/// any regression or rise in failures, 0 otherwise.
pub fn main(args: &[String]) -> i32 {
    let [a_dir, b_dir] = args else {
        eprintln!("usage: daybench compare A_DIR B_DIR");
        return 2;
    };
    let mut bad = false;
    for workload in NAMES {
        let (a, b) = match (
            load(Path::new(a_dir), workload),
            load(Path::new(b_dir), workload),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{workload}: {e}");
                return 2;
            }
        };
        if a.is_empty() || b.is_empty() {
            continue;
        }
        println!("{workload}: {} runs vs {} runs", a.len(), b.len());
        for def in &END_TO_END {
            let pick = |runs: &[RunResult]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metric(def.name)).collect()
            };
            let (va, vb) = (pick(&a), pick(&b));
            let v = verdict(def, &va, &vb);
            bad |= v == Verdict::Regressed;
            let show = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.6}"));
            println!(
                "  {:<14} A median {:>14} spread {:>9}   B median {:>14} spread {:>9}   bound {:<7} {:?}",
                def.name,
                show(median(&va)),
                show(spread(&va)),
                show(median(&vb)),
                show(spread(&vb)),
                def.bound,
                v
            );
        }
        let (fa, fb) = (fail_share(&a), fail_share(&b));
        if fb > fa {
            bad = true;
            println!("  fail_ratio ROSE: {fa:e} -> {fb:e}");
        } else {
            println!("  fail_ratio {fa:e} -> {fb:e}");
        }
    }
    i32::from(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "t",
        unit: "ms",
        better: Better::Lower,
        bound: 0.1,
    };
    const HIGHER: EndToEnd = EndToEnd {
        better: Better::Higher,
        ..LOWER
    };

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn steady_runs_give_same_regressed_and_improved() {
        let a = around(100.0, 0.02);
        assert_eq!(verdict(&LOWER, &a, &around(104.0, 0.02)), Verdict::Same);
        assert_eq!(
            verdict(&LOWER, &a, &around(115.0, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&LOWER, &a, &around(85.0, 0.02)), Verdict::Improved);
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&HIGHER, &a, &around(85.0, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&HIGHER, &a, &around(115.0, 0.02)),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_always_wins() {
        let a = around(100.0, 0.3);
        assert!(spread(&a).unwrap() > LOWER.bound);
        assert_eq!(
            verdict(&LOWER, &a, &around(100.0, 0.02)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&LOWER, &a, &around(130.0, 0.02)),
            Verdict::Unresolved
        );
        // Every B run beats every A run: an improvement despite noise.
        assert_eq!(verdict(&LOWER, &a, &around(50.0, 0.02)), Verdict::Improved);
        assert_eq!(verdict(&LOWER, &a, &[]), Verdict::Unresolved);
    }

    #[test]
    fn result_lines_parse_and_failures_are_pooled() {
        let line = "{\"correct\": true, \"attempted\": 200, \"failed\": 1, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
                    \"ok_ratio\": {\"value\": 1, \"unit\": \"1\"}}}";
        let r = RunResult::parse(line).unwrap();
        assert_eq!(r.metric("setup_s"), Some(0.5));
        assert_eq!(r.metric("ok_ratio"), Some(1.0));
        assert_eq!(r.metric("missing"), None);
        let clean = RunResult {
            failed: 0.0,
            ..r.clone()
        };
        assert_eq!(fail_share(&[r.clone(), clean.clone()]), 1.0 / 400.0);
        assert!(fail_share(std::slice::from_ref(&clean)) < fail_share(&[r]));
        assert!(RunResult::parse("{}").is_err());
    }
}
