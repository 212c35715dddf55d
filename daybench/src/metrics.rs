//! The metric tables `BENCHMARK.json` mirrors, and the result line.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, errors).
    Lower,
    /// Larger is better (throughput, success share).
    Higher,
}

/// One end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ticks_per_s", "1/s", Better::Higher, 0.25),
    e2e("tick_p50_ms", "ms", Better::Lower, 0.25),
    e2e("tick_p95_ms", "ms", Better::Lower, 0.25),
    e2e("query_p50_us", "us", Better::Lower, 0.15),
    e2e("query_p99_us", "us", Better::Lower, 0.25),
    e2e("day_mre", "1", Better::Lower, 0.0001),
    e2e("ok_ratio", "1", Better::Higher, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
];

/// Method labels of every roster, with the key their per-method
/// metrics use.
pub const METHOD_KEYS: [(&str, &str); 8] = [
    ("gravity", "gravity"),
    ("kruithof-full", "kruithof-full"),
    ("kruithof-marginals", "kruithof-marginals"),
    ("entropy(1e3)", "entropy"),
    ("bayes(1e3)", "bayes"),
    ("fanout(K=10)", "fanout"),
    ("vardi(0.01,K=50)", "vardi"),
    ("wcb(revised)", "wcb"),
];

/// Metric key of a method label.
pub fn method_key(label: &str) -> Option<&'static str> {
    METHOD_KEYS
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, k)| *k)
}

/// Per-layer metrics (name, unit), reported by every traced run.
/// Lower is better for all of them except `coordinator.overlap`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("traffic.generate_ms".into(), "ms"),
        ("feed.build_ms".into(), "ms"),
        ("collect.lost_polls".into(), "count"),
        ("stream.engine_build_ms".into(), "ms"),
    ];
    for (_, key) in METHOD_KEYS {
        out.push((format!("stream.{key}.busy_ms"), "ms"));
        out.push((format!("stream.{key}.p95_us"), "us"));
    }
    out.push(("stream.shared_ms".into(), "ms"));
    for name in [
        "stream.degraded_ticks",
        "stream.masked_rows",
        "stream.imputed_rows",
        "stream.quarantines",
    ] {
        out.push((name.into(), "count"));
    }
    out.extend([
        ("checkpoint.save_us".into(), "us"),
        ("checkpoint.restore_us".into(), "us"),
        ("checkpoint.bytes".into(), "bytes"),
    ]);
    for kind in ["Tick", "TickDone"] {
        out.push((format!("wire.{kind}.encode_us"), "us"));
        out.push((format!("wire.{kind}.decode_us"), "us"));
    }
    out.extend([
        ("wire.bytes_per_round".into(), "bytes"),
        ("coordinator.overhead_ms".into(), "ms"),
        ("coordinator.overlap".into(), "ratio"),
        ("transport.reconnects".into(), "count"),
        ("transport.resends".into(), "count"),
        ("restarts".into(), "count"),
    ]);
    for verb in ["estimate", "stats", "health", "whatif"] {
        out.push((format!("protocol.{verb}.us"), "us"));
        out.push((format!("protocol.{verb}.bytes"), "bytes"));
    }
    out.extend([
        ("protocol.io_us".into(), "us"),
        ("client.late_ms".into(), "ms"),
        ("trace.overhead_pct".into(), "%"),
        ("trace.unexplained_pct".into(), "%"),
    ]);
    out
}

/// Named values collected by a run, in insertion order.
#[derive(Debug, Default)]
pub struct Values {
    entries: Vec<(String, f64, String)>,
}

impl Values {
    /// Record `name = value unit`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.entries.push((name.into(), value, unit.to_string()));
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Render a JSON number: finite values with every digit, anything
/// else as `null`.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// listed metrics from `values`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &[(String, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(values.get(name).unwrap_or(f64::NAN))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde::Value {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn str_of<'a>(v: &'a serde::Value, key: &str) -> &'a str {
        match v.field(key) {
            Ok(serde::Value::Str(s)) => s,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn f64_of(v: &serde::Value, key: &str) -> f64 {
        match v.field(key) {
            Ok(serde::Value::F64(x)) => *x,
            Ok(serde::Value::I64(x)) => *x as f64,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let json = benchmark_json();
        let e2e = json.field("end_to_end").unwrap().as_seq().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "unit"), want.unit);
            let better = match want.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(str_of(got, "better"), better);
            assert_eq!(f64_of(got, "bound"), want.bound);
        }
        let layers = json.field("per_layer").unwrap().as_seq().unwrap();
        let want = per_layer();
        assert_eq!(layers.len(), want.len());
        for (got, (name, unit)) in layers.iter().zip(&want) {
            assert_eq!(str_of(got, "name"), name);
            assert_eq!(str_of(got, "unit"), *unit);
            let better = if name == "coordinator.overlap" {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(str_of(got, "better"), better, "{name}");
        }
        let workloads = json.field("workloads").unwrap().as_seq().unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
        assert_eq!(names, crate::workload::NAMES);
    }

    #[test]
    fn result_line_keeps_every_digit_and_nulls_missing_values() {
        let mut values = Values::default();
        values.set("a", 0.1 + 0.2, "s");
        let names = vec![("a".to_string(), "s"), ("b".to_string(), "ms")];
        let line = result_line(true, 3, 0, &names, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
