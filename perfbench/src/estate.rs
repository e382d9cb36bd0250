//! `estate-hes`: the nightly estate relearn.
//!
//! A generated estate of HES-daily jobs (97 observations each) is scanned
//! cold by `EstateScheduler::run_with_progress` into a fresh 64-shard
//! `ShardedRepository` in waves of 1024 at 2 threads, then scanned again an
//! hour later, when every job reuses its stored champion. Cycles of
//! (fresh repository, cold scan, relearn scan) repeat until `--seconds`
//! is spent. `jobs_per_s` is the rate of a whole cycle, built from each
//! phase's median over every wave.
//!
//! Stresses fleet waves, shard I/O, per-job planning on short series and
//! `ets_batch`. Bypasses HTTP, the engine mutex, `css_batch`, TBATS and the
//! Fourier/exogenous stages.

use crate::report::{Outcome, SCAN_PHASES};
use crate::stats::{interquartile_mean, max, median};
use crate::trace::Tracer;
use crate::{scratch_dir, Args, SETUP_GAP, THREADS};
use dwcp::planner::{
    EstateScheduler, EvalStats, EvaluationOptions, FleetOptions, JobSource, MethodChoice,
    ModelFamily, Pipeline, PipelineConfig, SeriesJob, ShardIoStats, ShardedRepository, WaveOptions,
    WaveReport,
};
use dwcp::series::Granularity;
use dwcp::workload::EstateSpec;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Observations per series: the daily protocol's 90 plus a week.
const OBSERVATIONS: usize = 97;
const SHARDS: usize = 64;
const WAVE: usize = 1024;
/// Jobs per scan: eight full waves.
const JOBS: usize = 8 * WAVE;
/// Staleness clock of the cold scan; the relearn runs an hour later, well
/// inside the one-week retention window.
const NOW: u64 = 1_600_000_000;
const RELEARN_AFTER: u64 = 3600;
/// Identical set-up repetitions, `SETUP_GAP` apart; `setup_s` is the mean
/// of their middle half.
const SETUP_REPS: usize = 51;
/// Jobs run one at a time through `Pipeline::run` in the traced run.
const PIPELINE_SAMPLE: usize = 48;

/// The HES branch of Figure 4 on the daily protocol: five ETS candidates,
/// no order grid, no Fourier or exogenous stage.
fn job_config() -> PipelineConfig {
    PipelineConfig {
        method: MethodChoice::Hes,
        grid: Default::default(),
        granularity: Granularity::Daily,
        max_candidates: 8,
        fourier_stage: false,
        auto_detect_shocks: false,
        eval: EvaluationOptions {
            threads: THREADS,
            ..Default::default()
        },
    }
}

/// The estate as a `JobSource`: series are generated on demand, so only
/// the live wave is ever resident. Each `load` is a `source` span; the
/// first one ends the scan's prelude (dedupe, staleness scan, sort).
struct Source<'a> {
    spec: EstateSpec,
    config: PipelineConfig,
    tracer: &'a Tracer,
    phase: &'static str,
    first_load: Cell<Option<Instant>>,
}

impl JobSource for Source<'_> {
    fn keys(&self) -> Vec<String> {
        self.spec.keys()
    }

    fn load(&self, key: &str) -> dwcp::planner::Result<SeriesJob> {
        if self.first_load.get().is_none() {
            self.first_load.set(Some(Instant::now()));
        }
        Ok(self.tracer.span("source", self.phase, || {
            SeriesJob::new(key, self.spec.series(key), self.config.clone())
        }))
    }
}

/// One scan's measurements.
struct Scan {
    report: WaveReport,
    /// `(jobs, seconds)` per wave.
    waves: Vec<(usize, f64)>,
    /// Job keys per wave, in wave order.
    wave_keys: Vec<Vec<String>>,
    io: ShardIoStats,
    prelude_s: f64,
}

/// Champion RMSE and reuse flag per job key.
type Champions = BTreeMap<String, (f64, bool)>;

fn scan(
    scheduler: &mut EstateScheduler,
    spec: EstateSpec,
    tracer: &Tracer,
    phase: &'static str,
    champions: &mut Champions,
    out: &mut Outcome,
) -> Result<Scan, Box<dyn std::error::Error>> {
    let source = Source {
        spec,
        config: job_config(),
        tracer,
        phase,
        first_load: Cell::new(None),
    };
    let io_before = scheduler.repository.io_stats();
    let mut waves = Vec::new();
    let mut wave_keys = Vec::new();
    let mut done_before = 0usize;
    let started = Instant::now();
    let open = tracer.begin("fleet", phase);
    let report = scheduler.run_with_progress(&source, &mut |progress, results| {
        waves.push((
            progress.jobs_done - done_before,
            progress.wave_wall.as_secs_f64(),
        ));
        done_before = progress.jobs_done;
        wave_keys.push(results.iter().map(|r| r.key.clone()).collect());
        for r in results {
            match &r.outcome {
                Ok(o) => {
                    champions.insert(r.key.clone(), (o.accuracy.rmse, r.reused));
                }
                Err(e) => out.check(false, || format!("{phase} job {} failed: {e}", r.key)),
            }
        }
    })?;
    tracer.end(open);
    let io_after = scheduler.repository.io_stats();
    let prelude_s = source
        .first_load
        .get()
        .map_or(0.0, |t| t.duration_since(started).as_secs_f64());
    Ok(Scan {
        report,
        waves,
        wave_keys,
        io: ShardIoStats {
            shard_loads: io_after.shard_loads - io_before.shard_loads,
            entries_appended: io_after.entries_appended - io_before.entries_appended,
            compactions: io_after.compactions - io_before.compactions,
            lenient_skips: io_after.lenient_skips - io_before.lenient_skips,
            evictions: io_after.evictions - io_before.evictions,
        },
        prelude_s,
    })
}

/// The set-up a scan needs: the estate spec, its key list and an empty
/// repository at `dir`.
fn set_up(
    seed: u64,
    dir: &Path,
) -> Result<(EstateSpec, ShardedRepository), Box<dyn std::error::Error>> {
    let spec = EstateSpec::new(JOBS, OBSERVATIONS, seed);
    let keys = spec.keys();
    if keys.len() != JOBS {
        return Err(format!("estate generated {} keys, expected {JOBS}", keys.len()).into());
    }
    let _ = std::fs::remove_dir_all(dir);
    let repository = ShardedRepository::create(dir, SHARDS)?;
    Ok((spec, repository))
}

fn repo_dir(i: usize) -> PathBuf {
    scratch_dir().join("tmp").join(format!("estate-{i}"))
}

/// One cycle: a cold scan into a fresh repository, then the relearn scan.
struct Cycle {
    cold: Scan,
    relearn: Scan,
    scheduler: EstateScheduler,
    wall_s: f64,
}

fn cycle(
    spec: EstateSpec,
    repository: ShardedRepository,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<Cycle, Box<dyn std::error::Error>> {
    let started = Instant::now();
    let mut scheduler = EstateScheduler::new(
        FleetOptions {
            threads: THREADS,
            now: NOW,
            ..Default::default()
        },
        WaveOptions {
            wave_size: WAVE,
            checkpoint: None,
            max_waves: 0,
        },
        repository,
    );
    let mut cold_champions = Champions::new();
    let cold = scan(
        &mut scheduler,
        spec,
        tracer,
        "cold",
        &mut cold_champions,
        out,
    )?;
    scheduler.fleet.now = NOW + RELEARN_AFTER;
    let mut relearn_champions = Champions::new();
    let relearn = scan(
        &mut scheduler,
        spec,
        tracer,
        "relearn",
        &mut relearn_champions,
        out,
    )?;
    let wall_s = started.elapsed().as_secs_f64();

    // Output checks: every job completes in both scans, the relearn reuses
    // every stored champion and never scores worse than its baseline.
    for (phase, s, champions) in [
        ("cold", &cold, &cold_champions),
        ("relearn", &relearn, &relearn_champions),
    ] {
        let r = &s.report;
        out.attempted += r.total_jobs as u64;
        out.failed += r.failed as u64;
        out.check(
            r.completed + r.failed == JOBS && r.total_jobs == JOBS,
            || {
                format!(
                    "{phase}: completed {} + failed {} != {JOBS} jobs",
                    r.completed, r.failed
                )
            },
        );
        out.check(champions.len() == JOBS, || {
            format!("{phase}: {} champions for {JOBS} jobs", champions.len())
        });
        out.check(champions.values().all(|(rmse, _)| rmse.is_finite()), || {
            format!("{phase}: a champion has a non-finite RMSE")
        });
    }
    let rs = &relearn.report.stats;
    out.check(rs.reuse_hits == JOBS && rs.reuse_misses == 0, || {
        format!(
            "relearn reuse {} hits / {} misses of {JOBS}",
            rs.reuse_hits, rs.reuse_misses
        )
    });
    let cs = &cold.report.stats;
    out.check(cs.reuse_hits == 0, || {
        format!(
            "cold scan reused {} champions from a fresh repository",
            cs.reuse_hits
        )
    });
    let worse = relearn_champions
        .iter()
        .filter(|(key, (rmse, reused))| {
            !reused || cold_champions.get(*key).is_none_or(|(base, _)| rmse > base)
        })
        .count();
    out.check(worse == 0, || {
        format!("{worse} relearned jobs did not reuse their champion or scored above baseline")
    });
    Ok(Cycle {
        cold,
        relearn,
        scheduler,
        wall_s,
    })
}

pub fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let origin = Instant::now();

    // Set-up: spec, keys and a fresh repository, timed over identical
    // repetitions spread across a few seconds.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        std::thread::sleep(SETUP_GAP);
        let t0 = Instant::now();
        let (_, repository) = set_up(args.seed, &repo_dir(i))?;
        setup.push(t0.elapsed().as_secs_f64());
        drop(repository);
    }
    out.set("setup_s", interquartile_mean(&setup));

    if args.trace {
        return traced(args, out, origin);
    }

    let untraced = Tracer::new(false, origin);
    let mut cold_rates = Vec::new();
    let mut relearn_rates = Vec::new();
    let mut cycles = 0usize;
    let mut last_cycle_s = 0.0;
    while cycles == 0 || origin.elapsed().as_secs_f64() + last_cycle_s <= args.seconds {
        let (spec, repository) = if cycles < SETUP_REPS {
            let dir = repo_dir(cycles);
            (
                EstateSpec::new(JOBS, OBSERVATIONS, args.seed),
                ShardedRepository::open(&dir)?,
            )
        } else {
            set_up(args.seed, &repo_dir(cycles))?
        };
        let c = cycle(spec, repository, &untraced, &mut out)?;
        cold_rates.extend(c.cold.waves.iter().map(|&(n, s)| n as f64 / s));
        relearn_rates.extend(c.relearn.waves.iter().map(|&(n, s)| n as f64 / s));
        last_cycle_s = c.wall_s;
        cycles += 1;
        let rates = |s: &Scan| {
            s.waves
                .iter()
                .map(|&(n, w)| format!("{:.0}", n as f64 / w))
                .collect::<Vec<_>>()
                .join(" ")
        };
        eprintln!(
            "  cold waves: {}\n  relearn waves: {}",
            rates(&c.cold),
            rates(&c.relearn)
        );
        eprintln!(
            "estate cycle {cycles}: cold {:.0} jobs/s, relearn {:.0} jobs/s ({:.1}s)",
            c.cold.report.jobs_per_second(),
            c.relearn.report.jobs_per_second(),
            c.wall_s
        );
    }
    // Jobs per second over a whole nightly cycle: the cold and relearn
    // scans have the same jobs, so the cycle rate is the harmonic mean of
    // the two phases' median wave rates.
    let (cold, relearn) = (median(&cold_rates), median(&relearn_rates));
    eprintln!("median waves: cold {cold:.0} jobs/s, relearn {relearn:.0} jobs/s");
    out.set("jobs_per_s", 2.0 / (1.0 / cold + 1.0 / relearn));
    Ok(out)
}

/// The traced run: one untraced cycle (the overhead baseline), one traced
/// cycle, repository probes over the traced cycle's wave key sets, and a
/// sample of jobs run one at a time through `Pipeline::run`.
fn traced(
    args: &Args,
    mut out: Outcome,
    origin: Instant,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let untraced = Tracer::new(false, origin);
    let spec = EstateSpec::new(JOBS, OBSERVATIONS, args.seed);
    let baseline = cycle(
        spec,
        ShardedRepository::open(&repo_dir(0))?,
        &untraced,
        &mut out,
    )?;

    let tracer = Tracer::new(true, origin);
    let root = tracer.begin("run", "estate");
    let mut c = cycle(
        spec,
        ShardedRepository::open(&repo_dir(1))?,
        &tracer,
        &mut out,
    )?;
    tracer.end(root);
    out.set(
        "trace.overhead_frac",
        (c.wall_s - baseline.wall_s) / baseline.wall_s,
    );

    for (phase, s) in SCAN_PHASES.iter().zip([&c.cold, &c.relearn]) {
        eval_metrics(&mut out, phase, &s.report.stats);
        let st = &s.report.stats;
        out.set(format!("evaluate.reuse_hits.{phase}"), st.reuse_hits as f64);
        out.set(
            format!("evaluate.reuse_misses.{phase}"),
            st.reuse_misses as f64,
        );
        out.set(
            format!("evaluate.reuse_fallbacks.{phase}"),
            st.reuse_fallbacks as f64,
        );
        let walls: Vec<f64> = s.waves.iter().map(|&(_, w)| w).collect();
        out.set(format!("fleet.wave_s.p50.{phase}"), median(&walls));
        out.set(format!("fleet.wave_s.max.{phase}"), max(&walls));
        out.set(format!("fleet.prelude_s.{phase}"), s.prelude_s);
        let load_s = tracer.total("source", phase);
        out.set(format!("source.load_s.{phase}"), load_s);
        let capacity = walls.iter().sum::<f64>() * THREADS as f64;
        out.set(
            format!("fleet.unattributed_frac.{phase}"),
            1.0 - (load_s + fit_seconds(st)) / capacity,
        );
        out.set(
            format!("repository.shard_loads.{phase}"),
            s.io.shard_loads as f64,
        );
        out.set(
            format!("repository.entries_appended.{phase}"),
            s.io.entries_appended as f64,
        );
        out.set(
            format!("repository.evictions.{phase}"),
            s.io.evictions as f64,
        );
        out.set(
            format!("repository.compactions.{phase}"),
            s.io.compactions as f64,
        );
    }

    // Repository probes: the staleness scan over every key, then per wave
    // the champion prefetch and a flush of the wave's champions stored back.
    let repo = &mut c.scheduler.repository;
    let keys: Vec<String> = c.relearn.wave_keys.concat();
    let t0 = Instant::now();
    tracer.span("repository", "probe", || repo.fitted_at_many(&keys))?;
    out.set("repository.fitted_at_many_s", t0.elapsed().as_secs_f64());
    let (mut fetch_s, mut flush_s) = (0.0, 0.0);
    for wave in &c.relearn.wave_keys {
        let t0 = Instant::now();
        let records = tracer.span("repository", "probe", || repo.fetch_many(wave))?;
        fetch_s += t0.elapsed().as_secs_f64();
        out.check(records.len() == wave.len(), || {
            format!(
                "prefetch found {} of {} stored champions",
                records.len(),
                wave.len()
            )
        });
        for record in records.into_values() {
            repo.store(record)?;
        }
        let t0 = Instant::now();
        tracer.span("repository", "probe", || repo.flush())?;
        flush_s += t0.elapsed().as_secs_f64();
        repo.evict_clean();
    }
    out.set("repository.fetch_many_s", fetch_s);
    out.set("repository.flush_s", flush_s);

    // Per-job cost outside the scheduler: a sample of jobs one at a time.
    let pipeline = Pipeline::new(job_config());
    let mut job_s = Vec::with_capacity(PIPELINE_SAMPLE);
    for i in 0..PIPELINE_SAMPLE {
        let key = spec.key(i * JOBS / PIPELINE_SAMPLE);
        let series = spec.series(&key);
        let t0 = Instant::now();
        let outcome = tracer.span("pipeline", "estate", || pipeline.run(&series, &[]));
        job_s.push(t0.elapsed().as_secs_f64());
        out.check(outcome.is_ok(), || format!("Pipeline::run failed on {key}"));
    }
    out.set("pipeline.job_s.p50", median(&job_s));

    for layer in ["fleet", "source", "repository", "pipeline"] {
        out.set(format!("self_s.{layer}"), tracer.self_time(layer));
    }
    out.set("trace.unattributed_frac", tracer.unattributed_share());
    tracer.write_jsonl(&scratch_dir().join(format!("trace-estate-hes-{}.jsonl", args.seed)))?;
    Ok(out)
}

/// Evaluation-engine and kernel metrics of one phase from its `EvalStats`.
pub fn eval_metrics(out: &mut Outcome, phase: &str, stats: &EvalStats) {
    let ls = &stats.lockstep;
    out.set(
        format!("kernels.batch_ets_s.{phase}"),
        ls.batch_ets.as_secs_f64(),
    );
    out.set(
        format!("kernels.batch_css_s.{phase}"),
        ls.batch_css.as_secs_f64(),
    );
    out.set(
        format!("kernels.batch_tbats_s.{phase}"),
        ls.batch_tbats.as_secs_f64(),
    );
    out.set(
        format!("lockstep.advance_s.{phase}"),
        ls.advance.as_secs_f64(),
    );
    out.set(format!("lockstep.stage_s.{phase}"), ls.stage.as_secs_f64());
    out.set(format!("lockstep.tell_s.{phase}"), ls.tell.as_secs_f64());
    out.set(format!("lockstep.rounds.{phase}"), ls.rounds as f64);
    out.set(
        format!("lockstep.batched_evals.{phase}"),
        ls.batched_evals as f64,
    );
    let (attempts, fits, failures) = stats.families.iter().fold((0, 0, 0), |acc, f| {
        (acc.0 + f.attempts, acc.1 + f.fits, acc.2 + f.failures)
    });
    out.set(
        format!("evaluate.objective_evals.{phase}"),
        stats.objective_evals as f64,
    );
    out.set(format!("evaluate.attempts.{phase}"), attempts as f64);
    out.set(format!("evaluate.fits.{phase}"), fits as f64);
    out.set(format!("evaluate.failures.{phase}"), failures as f64);
    out.set(
        format!("evaluate.cache_hits.{phase}"),
        stats.cache_hits as f64,
    );
    out.set(
        format!("evaluate.warm_starts.{phase}"),
        stats.warm_starts as f64,
    );
    // Families that never run in a phase (all but HES in the estate) have
    // no metric there.
    for family in ModelFamily::ALL {
        let f = stats.family(family);
        if family != ModelFamily::Hes && f.attempts == 0 {
            continue;
        }
        let label = match family {
            ModelFamily::Arima => "arima",
            ModelFamily::Sarimax => "sarimax",
            ModelFamily::SarimaxFftExogenous => "sarimax_fft",
            ModelFamily::Hes => "hes",
            ModelFamily::Tbats => "tbats",
        };
        out.set(
            format!("evaluate.fit_s.{label}.{phase}"),
            f.fit_time.as_secs_f64(),
        );
    }
    let fit_time = fit_seconds(stats);
    out.set(
        format!("evaluate.ns_per_eval.{phase}"),
        fit_time * 1e9 / stats.objective_evals.max(1) as f64,
    );
    out.set(
        format!("evaluate.useful_frac.{phase}"),
        fits as f64 / attempts.max(1) as f64,
    );
    let wall = stats.wall_time.as_secs_f64();
    out.set(
        format!("evaluate.parallel_eff.{phase}"),
        if wall > 0.0 {
            fit_time / (wall * THREADS as f64)
        } else {
            0.0
        },
    );
}

/// Fit time summed over families and workers.
pub fn fit_seconds(stats: &EvalStats) -> f64 {
    stats
        .families
        .iter()
        .map(|f| f.fit_time.as_secs_f64())
        .sum()
}
