//! The metric registry and the result line the benchmark prints.
//!
//! `END_TO_END` and `per_layer()` mirror `BENCHMARK.json` at the repository
//! root (a unit test keeps them in step). A metric's phase, where it has
//! one, is the last component of its name: `cold`/`relearn` for the
//! estate scans, `paper` for the pipeline pass, `steady`/`storm` for the
//! serve phases.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
];

/// Phases of the evaluation-engine layers (estate scans + paper pass).
pub const EVAL_PHASES: [&str; 3] = ["cold", "relearn", "paper"];
/// Phases of the estate scans.
pub const SCAN_PHASES: [&str; 2] = ["cold", "relearn"];
/// Phases of the serve run.
pub const SERVE_PHASES: [&str; 2] = ["steady", "storm"];
/// The paper pass: the only phase that can fit SARIMAX-family and TBATS
/// candidates (the estate runs the HES grid only).
const PAPER_PHASE: [&str; 1] = ["paper"];

/// Per-phase per-layer metrics: `(stem, unit, better)`, one metric per
/// phase of the listed phase set.
const PHASED: &[(&str, &str, &str, &[&str])] = &[
    ("kernels.batch_ets_s", "s", "lower", &EVAL_PHASES),
    ("kernels.batch_css_s", "s", "lower", &EVAL_PHASES),
    ("kernels.batch_tbats_s", "s", "lower", &EVAL_PHASES),
    ("lockstep.advance_s", "s", "lower", &EVAL_PHASES),
    ("lockstep.stage_s", "s", "lower", &EVAL_PHASES),
    ("lockstep.tell_s", "s", "lower", &EVAL_PHASES),
    ("lockstep.rounds", "count", "lower", &EVAL_PHASES),
    ("lockstep.batched_evals", "count", "higher", &EVAL_PHASES),
    ("evaluate.objective_evals", "count", "lower", &EVAL_PHASES),
    ("evaluate.attempts", "count", "lower", &EVAL_PHASES),
    ("evaluate.fits", "count", "higher", &EVAL_PHASES),
    ("evaluate.failures", "count", "lower", &EVAL_PHASES),
    ("evaluate.cache_hits", "count", "higher", &EVAL_PHASES),
    ("evaluate.warm_starts", "count", "higher", &EVAL_PHASES),
    ("evaluate.fit_s.arima", "s", "lower", &PAPER_PHASE),
    ("evaluate.fit_s.sarimax", "s", "lower", &PAPER_PHASE),
    ("evaluate.fit_s.sarimax_fft", "s", "lower", &PAPER_PHASE),
    ("evaluate.fit_s.hes", "s", "lower", &EVAL_PHASES),
    ("evaluate.fit_s.tbats", "s", "lower", &PAPER_PHASE),
    ("evaluate.ns_per_eval", "ns", "lower", &EVAL_PHASES),
    ("evaluate.useful_frac", "ratio", "higher", &EVAL_PHASES),
    ("evaluate.parallel_eff", "ratio", "higher", &EVAL_PHASES),
    ("evaluate.reuse_hits", "count", "higher", &SCAN_PHASES),
    ("evaluate.reuse_misses", "count", "lower", &SCAN_PHASES),
    ("evaluate.reuse_fallbacks", "count", "lower", &SCAN_PHASES),
    ("fleet.wave_s.p50", "s", "lower", &SCAN_PHASES),
    ("fleet.wave_s.max", "s", "lower", &SCAN_PHASES),
    ("fleet.prelude_s", "s", "lower", &SCAN_PHASES),
    ("source.load_s", "s", "lower", &SCAN_PHASES),
    ("fleet.unattributed_frac", "ratio", "lower", &SCAN_PHASES),
    ("repository.shard_loads", "count", "lower", &SCAN_PHASES),
    (
        "repository.entries_appended",
        "count",
        "lower",
        &SCAN_PHASES,
    ),
    ("repository.evictions", "count", "lower", &SCAN_PHASES),
    ("repository.compactions", "count", "lower", &SCAN_PHASES),
    ("engine.rescores", "count", "higher", &SERVE_PHASES),
    ("engine.relearns", "count", "lower", &SERVE_PHASES),
    ("alerts.fired", "count", "lower", &SERVE_PHASES),
];

/// Per-layer metrics without a phase: `(name, unit, better)`.
const UNPHASED: &[(&str, &str, &str)] = &[
    ("pipeline.forecast_s.p50", "s", "lower"),
    ("pipeline.forecast_s.max", "s", "lower"),
    ("pipeline.plan_s", "s", "lower"),
    ("pipeline.job_s.p50", "s", "lower"),
    ("repository.fitted_at_many_s", "s", "lower"),
    ("repository.fetch_many_s", "s", "lower"),
    ("repository.flush_s", "s", "lower"),
    ("engine.rescore_ms.p50", "ms", "lower"),
    ("engine.rescore_ms.p99", "ms", "lower"),
    ("engine.relearn_ms.p50", "ms", "lower"),
    ("engine.first_fit_ms.p50", "ms", "lower"),
    ("engine.forecast_read_ms.p50", "ms", "lower"),
    ("engine.page_read_ms.p50", "ms", "lower"),
    ("serve.push_ms.p50", "ms", "lower"),
    ("serve.push_ms.p99", "ms", "lower"),
    ("serve.read_ms.p50", "ms", "lower"),
    ("serve.read_ms.p99", "ms", "lower"),
    ("serve.storm_read_ms.p50", "ms", "lower"),
    ("serve.storm_read_ms.p95", "ms", "lower"),
    ("serve.max_rps", "1/s", "higher"),
    ("serve.connect_ms.p50", "ms", "lower"),
    ("serve.http_overhead_ms.push", "ms", "lower"),
    ("serve.http_overhead_ms.read", "ms", "lower"),
    ("serve.storm_wait_ms", "ms", "lower"),
    ("serve.non_200", "count", "lower"),
    ("gen.late_ms.p99", "ms", "lower"),
    ("gen.late_ms.max", "ms", "lower"),
    ("gen.backlog_end", "count", "lower"),
    ("self_s.fleet", "s", "lower"),
    ("self_s.source", "s", "lower"),
    ("self_s.repository", "s", "lower"),
    ("self_s.pipeline", "s", "lower"),
    ("self_s.engine", "s", "lower"),
    ("self_s.serve", "s", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, in registry order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for &(stem, unit, better, phases) in PHASED {
        for phase in phases {
            out.push((format!("{stem}.{phase}"), unit, better));
        }
    }
    for &(name, unit, better) in UNPHASED {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, series, requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Record an output check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let line = what();
            eprintln!("CHECK FAILED: {line}");
            self.problems.push(line);
        }
    }
}

/// The result line: every end-to-end metric (untraced) or every
/// per-layer metric (traced), with layers a workload bypasses reading 0.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let registry: Vec<(String, &str)> = if traced {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    // A workload may measure metrics of the other mode; any other name is
    // a typo that would silently read 0.
    let layers = per_layer();
    for name in outcome.metrics.keys() {
        let e2e = END_TO_END.iter().any(|&(n, _)| n == name);
        if !e2e && !layers.iter().any(|(n, _, _)| n == name) {
            return Err(format!("metric {name} is not in the registry"));
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in &registry {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if traced => 0.0,
            // Every workload measures every end-to-end metric.
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and `BENCHMARK.json` name the same metrics.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = serde_json::from_str_value(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let serde::Value::Object(root) = &json else {
                panic!("not an object")
            };
            let (_, serde::Value::Array(items)) = root.iter().find(|(k, _)| k == key).expect(key)
            else {
                panic!("{key} is not an array")
            };
            items
                .iter()
                .map(|item| {
                    let serde::Value::Object(fields) = item else {
                        panic!("metric is not an object")
                    };
                    let get = |f: &str| match fields.iter().find(|(k, _)| k == f) {
                        Some((_, serde::Value::String(s))) => s.clone(),
                        _ => panic!("metric lacks {f}"),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn untraced_line_needs_every_end_to_end_metric() {
        let mut outcome = Outcome::default();
        outcome.set("setup_s", 0.5);
        outcome.set("peak_rss_mb", 10.0);
        assert!(result_line(&outcome, false).is_err());
        outcome.set("jobs_per_s", 100.0);
        let line = result_line(&outcome, false).unwrap();
        assert!(line.ends_with("\"jobs_per_s\": {\"value\": 100.0, \"unit\": \"1/s\"}}}"));
    }

    #[test]
    fn traced_line_reports_idle_layers_as_zero() {
        let mut outcome = Outcome::default();
        outcome.set("kernels.batch_ets_s.cold", 0.5);
        let line = result_line(&outcome, true).unwrap();
        assert!(line.contains("\"kernels.batch_css_s.cold\": {\"value\": 0.0"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
}
