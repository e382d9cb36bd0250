//! `paper-auto`: the paper's per-database pipeline.
//!
//! `Pipeline::run` with `--method auto` (the SARIMAX, HES and TBATS union
//! grid at 2 evaluator threads) on every hourly metric × instance series
//! of Experiments One (OLAP) and Two (OLTP), with each experiment's shock
//! calendar as exogenous columns. Passes over the 12 series repeat until
//! `--seconds` is spent; `jobs_per_s` is the series per second of the
//! median pass. Afterwards one
//! series of each experiment is re-run untimed on a fresh pipeline, and its
//! champion and RMSE bits must equal the first pass's.
//!
//! Stresses planning on 1008-point series (interpolation, split, ACF/PACF,
//! ADF), the shared evaluation queue, `css_batch`, `ets_batch`, the TBATS
//! filter and Nelder-Mead. Bypasses the repository, waves and HTTP.

use crate::estate::eval_metrics;
use crate::report::Outcome;
use crate::stats::{interquartile_mean, max, median};
use crate::trace::Tracer;
use crate::{scratch_dir, Args, SETUP_GAP, THREADS};
use dwcp::planner::{EvalStats, EvaluationOptions, MethodChoice, Pipeline, PipelineConfig};
use dwcp::series::TimeSeries;
use dwcp::workload::{olap_scenario, oltp_scenario, Metric};
use std::time::Instant;

/// Identical set-up repetitions, `SETUP_GAP` apart; `setup_s` is the mean
/// of their middle half.
const SETUP_REPS: usize = 21;
/// Series re-run after the timed passes, one per experiment, whose
/// champions and RMSE bits must equal the first pass's.
const RECHECKS: usize = 2;

/// One series of the pass: key, hourly observations, exogenous columns.
struct Series {
    key: String,
    series: TimeSeries,
    exog: Vec<Vec<f64>>,
}

/// Simulate both experiments and extract their hourly series.
fn set_up(seed: u64) -> Result<Vec<Series>, Box<dyn std::error::Error>> {
    let mut out = Vec::new();
    for (i, scenario) in [olap_scenario(), oltp_scenario()].into_iter().enumerate() {
        let repo = scenario.run(seed.wrapping_mul(2).wrapping_add(i as u64))?;
        let hours = scenario.hours();
        let exog = scenario.exogenous_columns(scenario.start, hours);
        for instance in scenario.instance_names() {
            for metric in Metric::ALL {
                out.push(Series {
                    key: format!("{}/{instance}/{}", scenario.kind.label(), metric.label()),
                    series: repo.hourly_series(&instance, metric, scenario.start, hours)?,
                    exog: exog.clone(),
                });
            }
        }
    }
    Ok(out)
}

fn config() -> PipelineConfig {
    let mut config = PipelineConfig::hourly(MethodChoice::Auto);
    config.eval = EvaluationOptions {
        threads: THREADS,
        ..config.eval
    };
    config
}

/// One pass's measurements.
struct Pass {
    wall_s: f64,
    /// `Pipeline::run` wall per series.
    run_s: Vec<f64>,
    /// Evaluation wall (`stats.wall_time`) per series.
    forecast_s: Vec<f64>,
    stats: EvalStats,
    /// Champion and RMSE bits per series, in series order.
    champions: Vec<(String, u64)>,
    digest: u64,
}

fn pass(series: &[Series], tracer: &Tracer, out: &mut Outcome) -> Pass {
    let pipeline = Pipeline::new(config());
    let mut p = Pass {
        wall_s: 0.0,
        run_s: Vec::new(),
        forecast_s: Vec::new(),
        stats: EvalStats::default(),
        champions: Vec::new(),
        digest: 0xcbf2_9ce4_8422_2325,
    };
    for s in series {
        out.attempted += 1;
        let t0 = Instant::now();
        let result = tracer.span("pipeline", "paper", || pipeline.run(&s.series, &s.exog));
        let run_s = t0.elapsed().as_secs_f64();
        p.wall_s += run_s;
        match result {
            Ok(outcome) => {
                let rmse = outcome.accuracy.rmse;
                out.check(rmse.is_finite(), || {
                    format!("{}: champion RMSE {rmse}", s.key)
                });
                p.run_s.push(run_s);
                p.forecast_s.push(outcome.stats.wall_time.as_secs_f64());
                p.stats.merge(&outcome.stats);
                for byte in outcome.champion.bytes().chain(rmse.to_bits().to_le_bytes()) {
                    p.digest = (p.digest ^ u64::from(byte)).wrapping_mul(0x1_0000_0000_01b3);
                }
                p.champions.push((outcome.champion.clone(), rmse.to_bits()));
                eprintln!(
                    "  {:<28} {:>6.2}s  {} (rmse {rmse:.4}, {} evaluated)",
                    s.key, run_s, outcome.champion, outcome.evaluated
                );
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("{}: no champion: {e}", s.key));
                p.champions.push((String::new(), f64::NAN.to_bits()));
            }
        }
    }
    // Evaluation wall summed over the pass, for the parallel efficiency.
    p.stats.wall_time = p
        .forecast_s
        .iter()
        .map(|&s| std::time::Duration::from_secs_f64(s))
        .sum();
    p
}

/// Re-run one series of each experiment (chosen by the seed) untimed on a
/// fresh `Pipeline` and require the first pass's champion and RMSE bits.
fn recheck(series: &[Series], first: &Pass, seed: u64, out: &mut Outcome) {
    let pipeline = Pipeline::new(config());
    let per_experiment = (series.len() / RECHECKS).max(1);
    for k in 0..RECHECKS {
        let i = k * per_experiment + (seed as usize) % per_experiment;
        let (Some(s), Some((champion, rmse_bits))) = (series.get(i), first.champions.get(i)) else {
            continue;
        };
        out.attempted += 1;
        match pipeline.run(&s.series, &s.exog) {
            Ok(again) => out.check(
                again.champion == *champion && again.accuracy.rmse.to_bits() == *rmse_bits,
                || {
                    format!(
                        "{}: re-run elected {} (rmse {}), first pass {champion} (rmse {})",
                        s.key,
                        again.champion,
                        again.accuracy.rmse,
                        f64::from_bits(*rmse_bits)
                    )
                },
            ),
            Err(e) => {
                out.failed += 1;
                out.check(false, || {
                    format!("{}: re-run found no champion: {e}", s.key)
                });
            }
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut series = Vec::new();
    for _ in 0..SETUP_REPS {
        std::thread::sleep(SETUP_GAP);
        let t0 = Instant::now();
        series = set_up(args.seed)?;
        setup.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", interquartile_mean(&setup));
    out.check(series.len() == 12, || {
        format!("{} series, expected 12", series.len())
    });

    let untraced = Tracer::new(false, origin);
    let mut passes: Vec<Pass> = Vec::new();
    if args.trace {
        let baseline = pass(&series, &untraced, &mut out);
        let tracer = Tracer::new(true, origin);
        let root = tracer.begin("run", "paper");
        let traced = pass(&series, &tracer, &mut out);
        tracer.end(root);
        out.set(
            "trace.overhead_frac",
            (traced.wall_s - baseline.wall_s) / baseline.wall_s,
        );
        eval_metrics(&mut out, "paper", &traced.stats);
        out.set("pipeline.forecast_s.p50", median(&traced.forecast_s));
        out.set("pipeline.forecast_s.max", max(&traced.forecast_s));
        let plan_s: f64 = traced
            .run_s
            .iter()
            .zip(&traced.forecast_s)
            .map(|(run, eval)| run - eval)
            .sum();
        out.set("pipeline.plan_s", plan_s);
        out.set("self_s.pipeline", tracer.self_time("pipeline"));
        out.set("trace.unattributed_frac", tracer.unattributed_share());
        tracer.write_jsonl(&scratch_dir().join(format!("trace-paper-auto-{}.jsonl", args.seed)))?;
        passes.push(baseline);
        passes.push(traced);
    } else {
        let mut last = 0.0;
        while passes.is_empty() || origin.elapsed().as_secs_f64() + last <= args.seconds {
            let p = pass(&series, &untraced, &mut out);
            last = p.wall_s;
            eprintln!("paper pass {}: {:.2}s", passes.len() + 1, p.wall_s);
            passes.push(p);
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let wall_s = median(&walls);
        out.set("jobs_per_s", series.len() as f64 / wall_s);
    }
    let digest = passes[0].digest;
    out.check(passes.iter().all(|p| p.digest == digest), || {
        "champion digest differs between passes".to_string()
    });
    eprintln!("champion digest {digest:016x}");
    recheck(&series, &passes[0], args.seed, &mut out);
    Ok(out)
}
