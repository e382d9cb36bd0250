//! `serve-storm`: the resident daemon under an open-loop mix.
//!
//! 64 HES-hourly tenants are warmed with their first fits during set-up and
//! handed to `dwcp::serve::start` on 2 workers. Two client threads then
//! drive the daemon open loop, each request timed from its due time: one
//! pushes one hour of 15-minute CSV points per request, round-robin over
//! the tenants, the other alternates `GET /forecast` and `GET /series`.
//!
//! * **Steady phase** — 500 pushes/s and 500 reads/s, a small fraction of
//!   what the daemon sustains; every push completes one hour and is a
//!   frozen re-score.
//! * **Storm phase** — every tenant crosses the one-week staleness age in
//!   the same round, so 64 grid searches queue on the engine mutex while
//!   reads keep arriving.
//! * **Rate search** (traced runs) — on the freshly relearned tenants, the
//!   highest offered rate of the same mix at which push p99 stays within
//!   5 ms and the generator's lateness does not grow.
//!
//! The latencies are reported as per-layer metrics (`serve.*`): on a
//! 2-vCPU guest they follow the host's contention, which moved them by
//! 20–30% between identical batches, beyond any regression bound an
//! end-to-end metric may carry. The untraced run's `jobs_per_s` is the
//! storm's grid searches per second: one over the median service time of
//! a storm push, each of which relearns one tenant behind the engine mutex.
//!
//! Each tenant's whole push sequence is first run on its own in-process
//! `Engine`. Noisy data can push a frozen re-score past the degraded-RMSE
//! rule, which would start a grid search in the steady phase; a tenant
//! whose sequence does so is redrawn from the seed, so the steady phase
//! and the rate search run no grid search by construction (and the run
//! checks it). The daemon's champions must equal these in-process ones,
//! bit for bit.
//!
//! Stresses HTTP, the engine mutex, ingest and the frozen re-score; the
//! storm adds full HES grid searches. Bypasses waves and shard I/O.

use crate::report::{Outcome, SERVE_PHASES};
use crate::stats::{beyond, max, median, percentile};
use crate::trace::Tracer;
use crate::{scratch_dir, Args, THREADS};
use dwcp::planner::repository::RelearnReason;
use dwcp::planner::{
    AlertRule, Engine, EngineConfig, EvaluationOptions, MethodChoice, PipelineConfig, ScoreAction,
    StepOutcome,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tenants served by the daemon.
const TENANTS: usize = 64;
/// Hours pushed per tenant before its first fit: the hourly protocol's
/// 1008 complete aggregates, one more, and the live bucket.
const WARM_HOURS: usize = 1010;
/// Hours each tenant is advanced in one bulk push during set-up. A
/// champion turns stale after more than one week (168 hours) of data.
const PRE_HOURS: usize = 72;
/// Steady rounds before the storm; a round pushes one hour to every
/// tenant, so round `STEADY_ROUNDS + 1` finds every champion stale.
const STEADY_ROUNDS: usize = 168 - PRE_HOURS;
/// Steady-phase offered rates, requests per second.
const PUSH_RATE: f64 = 500.0;
const READ_RATE: f64 = 500.0;
/// Steady samples due before this offset are warm-up and not reported.
const WARMUP_S: f64 = 0.5;
/// Reads continue this long after the last storm push completes.
const STORM_TAIL_S: f64 = 0.2;
/// Rate-search limits: push p99, and growth of the generator's lateness.
const P99_LIMIT_MS: f64 = 5.0;
const LATE_TREND_LIMIT_MS: f64 = 1.0;
/// The rate search climbs a ladder of offered rates (requests per second)
/// from the first, each rung `SEARCH_STEP` times the last, and stops at the
/// first rung that fails twice in a row.
const SEARCH_FROM_RPS: f64 = 2400.0;
const SEARCH_STEP: f64 = 1.08;
/// Rate-search probes and pushes per probe; together they stay within the
/// 168 rounds before the relearned champions turn stale.
const PROBES: usize = 12;
const PROBE_PUSHES: usize = 896;
/// Rounds every tenant is pushed over the run.
const RUN_ROUNDS: usize = STEADY_ROUNDS + 1 + PROBES * PROBE_PUSHES / TENANTS;
/// Redraws of one tenant's signal before the inputs are declared unusable.
const MAX_DRAWS: u64 = 16;
/// Identical set-up repetitions; `setup_s` sums each tenant's median
/// warm-up over them.
const SETUP_REPS: usize = 5;
/// Epoch origin of the generated data (a whole hour).
const ORIGIN: u64 = 1_600_000_000 - 1_600_000_000 % 3600;

/// One tenant's generated signal: hourly means that repeat daily (level,
/// two harmonics, a fixed 24-hour pattern) plus uniform noise.
#[derive(Debug, Clone)]
struct Tenant {
    key: String,
    level: f64,
    amp: f64,
    phase: f64,
    noise: f64,
    seed: u64,
    pattern: [f64; 24],
}

/// SplitMix64: the seed's only consumer.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Tenant `i`'s signal, drawn from the seed. `draw` > 0 redraws it.
fn tenant(seed: u64, i: usize, draw: u64) -> Tenant {
    let mut rng = Rng(seed ^ (i as u64) << 32 ^ draw << 48 ^ 0x5e7e_57a7);
    let amp = 8.0 + 10.0 * rng.next();
    let mut pattern = [0.0; 24];
    for p in pattern.iter_mut() {
        *p = 1.5 * (rng.next() - 0.5);
    }
    Tenant {
        key: format!("tenant{i:03}-cpu"),
        level: 35.0 + 30.0 * rng.next(),
        amp,
        phase: std::f64::consts::TAU * rng.next(),
        noise: 1.5 + rng.next(),
        seed: (rng.next() * (1u64 << 53) as f64) as u64,
        pattern,
    }
}

/// Champion and live RMSE a tenant's push of each round must return.
type Expected = Vec<(String, f64)>;

/// The run's tenants, each one's expected scores, and how many draws were
/// replaced.
type Inputs = (Vec<Tenant>, Vec<Expected>, usize);

/// Run one tenant's whole push sequence on its own in-process engine:
/// warm-up, the steady rounds, the storm round and the rate search's
/// rounds. `None` when a push other than the storm's ran a grid search
/// (the degraded-RMSE rule fired) or the storm's did not relearn for
/// staleness.
fn dry_run(t: &Tenant) -> Result<Option<Expected>, Box<dyn std::error::Error>> {
    let quiet = Tracer::new(false, Instant::now());
    let mut engine = Engine::new(engine_config());
    if warm_tenant(&mut engine, t, &quiet).is_err() {
        return Ok(None);
    }
    let mut expected = Vec::with_capacity(RUN_ROUNDS);
    for round in 0..RUN_ROUNDS {
        let hour = WARM_HOURS + PRE_HOURS + round;
        let StepOutcome::Scored(s) = engine.push_batch(&t.key, &t.points(hour..hour + 1))? else {
            return Ok(None);
        };
        let want = if round == STEADY_ROUNDS {
            ScoreAction::Relearned(RelearnReason::Stale)
        } else {
            ScoreAction::Rescored
        };
        if s.action != want {
            return Ok(None);
        }
        expected.push((s.champion, s.live_rmse));
    }
    Ok(Some(expected))
}

/// The run's tenants and the scores each push must return. A tenant whose
/// noise would make a frozen re-score cross the degraded-RMSE rule is
/// redrawn (from the seed), so the steady phase and the rate search run
/// no grid search by construction.
fn inputs(seed: u64) -> Result<Inputs, Box<dyn std::error::Error>> {
    let mut tenants = Vec::with_capacity(TENANTS);
    let mut expected = Vec::with_capacity(TENANTS);
    let mut redraws = 0;
    for i in 0..TENANTS {
        let mut draw = 0;
        loop {
            let t = tenant(seed, i, draw);
            if let Some(e) = dry_run(&t)? {
                tenants.push(t);
                expected.push(e);
                break;
            }
            draw += 1;
            redraws += 1;
            if draw == MAX_DRAWS {
                return Err(format!("tenant {i}: no clean draw in {MAX_DRAWS}").into());
            }
        }
    }
    Ok((tenants, expected, redraws))
}

impl Tenant {
    fn hourly_mean(&self, hour: usize) -> f64 {
        let day = std::f64::consts::TAU * (hour % 24) as f64 / 24.0;
        self.level
            + self.amp * (day + self.phase).sin()
            + 0.3 * self.amp * (2.0 * day + self.phase).cos()
            + self.pattern[hour % 24]
            + self.noise(hour)
    }

    fn noise(&self, hour: usize) -> f64 {
        self.noise * (2.0 * Rng(self.seed ^ hour as u64).next() - 1.0)
    }

    /// The four 15-minute points of `hour`; their mean is the hourly mean.
    fn points(&self, hours: std::ops::Range<usize>) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity(hours.len() * 4);
        for hour in hours {
            let mean = self.hourly_mean(hour);
            for q in 0..4u64 {
                let ts = ORIGIN + hour as u64 * 3600 + q * 900;
                out.push((ts, mean + (q as f64 - 1.5) * 0.4));
            }
        }
        out
    }
}

fn engine_config() -> EngineConfig {
    let mut pipeline = PipelineConfig::hourly(MethodChoice::Hes);
    pipeline.eval = EvaluationOptions {
        threads: THREADS,
        ..pipeline.eval
    };
    let mut config = EngineConfig::new(pipeline);
    config.rules = vec![AlertRule::new("cpu-80", 80.0)];
    config
}

/// Warm one tenant: its first fit, then `PRE_HOURS` more in one bulk push
/// (one frozen re-score). Returns the first fit's time in ms.
fn warm_tenant(
    engine: &mut Engine,
    t: &Tenant,
    tracer: &Tracer,
) -> Result<f64, Box<dyn std::error::Error>> {
    let points = t.points(0..WARM_HOURS);
    let t0 = Instant::now();
    let first = tracer.span("engine", "warm", || engine.push_batch(&t.key, &points))?;
    let fit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let bulk = t.points(WARM_HOURS..WARM_HOURS + PRE_HOURS);
    let advanced = tracer.span("engine", "warm", || engine.push_batch(&t.key, &bulk))?;
    match (first, advanced) {
        (StepOutcome::Scored(a), StepOutcome::Scored(b))
            if a.action == ScoreAction::Learned && b.action == ScoreAction::Rescored =>
        {
            Ok(fit_ms)
        }
        other => Err(format!("{}: warm-up gave {other:?}", t.key).into()),
    }
}

/// An engine with every tenant warmed; returns the first-fit times.
fn warm_engine(
    tenants: &[Tenant],
    tracer: &Tracer,
) -> Result<(Engine, Vec<f64>), Box<dyn std::error::Error>> {
    let mut engine = Engine::new(engine_config());
    let mut fit_ms = Vec::with_capacity(tenants.len());
    for t in tenants {
        fit_ms.push(warm_tenant(&mut engine, t, tracer)?);
    }
    Ok((engine, fit_ms))
}

// ---------------------------------------------------------------------------
// Requests and the open-loop generator
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Push,
    Forecast,
    Page,
}

/// One logical request: what it asks of which tenant.
#[derive(Debug, Clone, Copy)]
struct Req {
    kind: Kind,
    tenant: usize,
    /// Hour pushed (push) or page cursor (page read).
    arg: usize,
}

/// Push `i` of a phase that starts after `rounds_done` rounds: tenants
/// round-robin, one new hour per tenant per round.
fn push_req(rounds_done: usize, i: usize) -> Req {
    Req {
        kind: Kind::Push,
        tenant: i % TENANTS,
        arg: WARM_HOURS + PRE_HOURS + rounds_done + i / TENANTS,
    }
}

/// Read `i`: forecasts and week-long series pages, alternating.
fn read_req(i: usize) -> Req {
    Req {
        kind: if i.is_multiple_of(2) {
            Kind::Forecast
        } else {
            Kind::Page
        },
        tenant: (i / 2) % TENANTS,
        arg: (i * 37) % 800,
    }
}

fn http_text(req: &Req, tenants: &[Tenant]) -> String {
    let t = &tenants[req.tenant];
    match req.kind {
        Kind::Push => {
            let mut body = String::new();
            for (ts, v) in t.points(req.arg..req.arg + 1) {
                body.push_str(&format!("{ts},{v}\n"));
            }
            format!(
                "POST /push?workload={} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                t.key,
                body.len()
            )
        }
        Kind::Forecast => format!(
            "GET /forecast?workload={} HTTP/1.1\r\nHost: bench\r\n\r\n",
            t.key
        ),
        Kind::Page => format!(
            "GET /series?workload={}&cursor={}&limit=168 HTTP/1.1\r\nHost: bench\r\n\r\n",
            t.key, req.arg
        ),
    }
}

/// One request as the generator saw it; times are seconds since the
/// run's origin.
#[derive(Debug, Clone)]
struct Sample {
    req: Req,
    due: f64,
    sent: f64,
    done: f64,
    connect_ms: f64,
    status: u16,
    verdict: Verdict,
}

/// What a response said, judged as it arrives so no body is kept.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// A read (its body is not inspected).
    Read,
    /// A push scored by a frozen re-score, with the expected champion and
    /// bit-identical RMSE when `true`.
    Rescored(bool),
    /// A push that relearned because the champion was stale, likewise.
    StaleRelearn(bool),
    /// A push that ran any other scoring action, or an unreadable body.
    Other,
}

impl Sample {
    /// Latency from the due time, which counts the wait a stall imposes
    /// on later requests.
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
    fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
    fn service_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }
}

/// One HTTP/1.1 exchange on a fresh connection: connect time, status and
/// body.
fn exchange(addr: SocketAddr, request: &str) -> std::io::Result<(f64, u16, String)> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect_ms = t0.elapsed().as_secs_f64() * 1e3;
    stream.set_nodelay(true)?;
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((connect_ms, status, body))
}

/// What every generator thread shares: the daemon, the tenants and the
/// run's clock.
#[derive(Clone, Copy)]
struct Target<'a> {
    addr: SocketAddr,
    tenants: &'a [Tenant],
    origin: Instant,
}

/// Where one generator thread stops.
enum Until<'a> {
    /// After this many requests.
    Count(usize),
    /// At the first request due more than `tail` seconds after the instant
    /// the other thread posts here.
    Posted(&'a Mutex<Option<Instant>>, f64),
}

/// Drive requests open loop at `rate` per second: request `i` is due at
/// `start + i / rate` and is sent then, or as soon as the previous one
/// completes if the generator runs late.
fn drive(
    target: Target<'_>,
    start: Instant,
    rate: f64,
    until: Until<'_>,
    make: impl Fn(usize) -> Req,
    judge: impl Fn(&Req, &str) -> Verdict,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for i in 0.. {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        match &until {
            Until::Count(n) if i >= *n => break,
            Until::Posted(slot, tail) => {
                let posted = *slot.lock().unwrap_or_else(|e| e.into_inner());
                if posted.is_some_and(|end| due > end + Duration::from_secs_f64(*tail)) {
                    break;
                }
            }
            Until::Count(_) => {}
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = make(i);
        let text = http_text(&req, target.tenants);
        let sent = Instant::now();
        let (connect_ms, status, body) =
            exchange(target.addr, &text).unwrap_or((0.0, 0, String::new()));
        let done = Instant::now();
        let secs = |t: Instant| t.duration_since(target.origin).as_secs_f64();
        samples.push(Sample {
            req,
            due: secs(due),
            sent: secs(sent),
            done: secs(done),
            connect_ms,
            status,
            verdict: if status == 200 {
                judge(&req, &body)
            } else {
                eprintln!("HTTP {status} for {req:?}: {body}");
                Verdict::Other
            },
        });
    }
    samples
}

/// Pushes and reads of one open-loop phase.
struct Phase {
    pushes: Vec<Sample>,
    reads: Vec<Sample>,
}

/// Run `pushes` pushes at `push_rate`, starting after `rounds_done`
/// rounds, with the reader alongside at `read_rate` (reads numbered from
/// `reads_done`) until `tail` seconds after the last push completes. The
/// reads are due half a push interval after the pushes, so at equal rates
/// the two streams interleave instead of colliding by construction.
fn open_loop(
    target: Target<'_>,
    expected: &[Expected],
    rounds_done: usize,
    pushes: usize,
    (push_rate, read_rate): (f64, f64),
    reads_done: usize,
    tail: f64,
) -> Phase {
    let posted = Mutex::new(None);
    let start = Instant::now() + Duration::from_millis(20);
    let read_start = start + Duration::from_secs_f64(0.5 / push_rate);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            drive(
                target,
                read_start,
                read_rate,
                Until::Posted(&posted, tail),
                |i| read_req(reads_done + i),
                |_, _| Verdict::Read,
            )
        });
        let pushes = drive(
            target,
            start,
            push_rate,
            Until::Count(pushes),
            |i| push_req(rounds_done, i),
            |req, body| judge_push(expected, req, body),
        );
        *posted.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
        let reads = reader.join().expect("the reader thread does not panic");
        Phase { pushes, reads }
    })
}

/// Judge a push response against the in-process dry run: its scoring
/// action, and whether champion and RMSE equal the expected ones bit for
/// bit.
fn judge_push(expected: &[Expected], req: &Req, body: &str) -> Verdict {
    let Ok(serde::Value::Object(root)) = serde_json::from_str_value(body) else {
        return Verdict::Other;
    };
    let Some((_, serde::Value::Object(fields))) = root.iter().find(|(k, _)| k == "outcome") else {
        return Verdict::Other;
    };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let text = |name: &str| match get(name) {
        Some(serde::Value::String(s)) => s.as_str(),
        _ => "",
    };
    let rmse = match get("live_rmse") {
        Some(serde::Value::Number(n)) => *n,
        _ => f64::NAN,
    };
    let round = req.arg - WARM_HOURS - PRE_HOURS;
    let matches = expected
        .get(req.tenant)
        .and_then(|e| e.get(round))
        .is_some_and(|(champion, want)| {
            text("champion") == champion && rmse.to_bits() == want.to_bits()
        });
    match (text("action"), text("relearn_reason")) {
        ("rescored", _) => Verdict::Rescored(matches),
        ("relearned", "stale") => Verdict::StaleRelearn(matches),
        _ => Verdict::Other,
    }
}

// ---------------------------------------------------------------------------
// Rate search
// ---------------------------------------------------------------------------

/// One probe of the rate search.
#[derive(Debug)]
struct Probe {
    rate: f64,
    push_p99_ms: f64,
    late_trend_ms: f64,
    pass: bool,
}

/// Offer `rate` requests per second of the steady mix (half pushes, half
/// reads) for `PROBE_PUSHES` pushes. It passes when push p99 stays within
/// the limit and the generator's lateness over the last tenth of requests
/// is no worse than over the first tenth.
fn probe(
    target: Target<'_>,
    expected: &[Expected],
    rounds_done: usize,
    reads_done: usize,
    rate: f64,
) -> (Probe, Phase) {
    let phase = open_loop(
        target,
        expected,
        rounds_done,
        PROBE_PUSHES,
        (rate / 2.0, rate / 2.0),
        reads_done,
        0.0,
    );
    let lat: Vec<f64> = phase.pushes.iter().map(Sample::latency_ms).collect();
    let push_p99_ms = percentile(&lat, 99.0);
    let mut all: Vec<&Sample> = phase.pushes.iter().chain(&phase.reads).collect();
    all.sort_by(|a, b| a.due.total_cmp(&b.due));
    let n = (all.len() / 10).max(1);
    let late = |v: &[&Sample]| median(&v.iter().map(|s| s.late_ms()).collect::<Vec<_>>());
    let late_trend_ms = late(&all[all.len() - n..]) - late(&all[..n]);
    let pass = push_p99_ms <= P99_LIMIT_MS && late_trend_ms <= LATE_TREND_LIMIT_MS;
    (
        Probe {
            rate,
            push_p99_ms,
            late_trend_ms,
            pass,
        },
        phase,
    )
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

pub fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let quiet = Tracer::new(false, origin);
    let (tenants, expected, redraws) = inputs(args.seed)?;
    eprintln!(
        "inputs: {TENANTS} tenants ({redraws} redrawn) in {:.2}s",
        origin.elapsed().as_secs_f64()
    );

    // Set-up: warm every tenant and start the daemon, repeated. `setup_s`
    // is the sum over tenants of each one's median warm-up plus the median
    // engine creation and daemon start, so a passing stall of the machine
    // moves one sample of one tenant. The last daemon serves the run.
    // Generating the inputs above is the benchmark's own reference run (the
    // answers every response is checked against), not the daemon's set-up.
    let mut warm_s: Vec<Vec<f64>> = (0..TENANTS)
        .map(|_| Vec::with_capacity(SETUP_REPS))
        .collect();
    let mut start_s = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            stop(old);
        }
        let t0 = Instant::now();
        let mut engine = Engine::new(engine_config());
        let mut fixed_s = t0.elapsed().as_secs_f64();
        for (t, samples) in tenants.iter().zip(&mut warm_s) {
            let t0 = Instant::now();
            warm_tenant(&mut engine, t, &quiet)?;
            samples.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        server = Some(dwcp::serve::start(engine, "127.0.0.1:0", THREADS)?);
        fixed_s += t0.elapsed().as_secs_f64();
        start_s.push(fixed_s);
    }
    let tenants_s: f64 = warm_s.iter().map(|s| median(s)).sum();
    out.set("setup_s", tenants_s + median(&start_s));
    let server = server.ok_or("no daemon started")?;
    let target = Target {
        addr: server.addr(),
        tenants: &tenants,
        origin,
    };

    // Steady phase, then the storm round in which every champion turns
    // stale.
    let steady_cut = TENANTS * STEADY_ROUNDS;
    let storm_cut = steady_cut + TENANTS;
    let main = open_loop(
        target,
        &expected,
        0,
        storm_cut,
        (PUSH_RATE, READ_RATE),
        0,
        STORM_TAIL_S,
    );
    let warm_end = main.pushes.first().map_or(0.0, |s| s.due) + WARMUP_S;
    let storm_start = main.pushes.get(steady_cut).map_or(0.0, |s| s.due);
    let storm_end = main.pushes.last().map_or(0.0, |s| s.done);
    let steady_push: Vec<&Sample> = main.pushes[..steady_cut]
        .iter()
        .filter(|s| s.due >= warm_end)
        .collect();
    let steady_read: Vec<&Sample> = main
        .reads
        .iter()
        .filter(|s| s.due >= warm_end && s.due < storm_start)
        .collect();
    let storm_read: Vec<&Sample> = main
        .reads
        .iter()
        .filter(|s| s.due >= storm_start && s.due <= storm_end)
        .collect();
    let lat = |v: &[&Sample]| v.iter().map(|s| s.latency_ms()).collect::<Vec<f64>>();
    let (push_lat, read_lat, storm_lat) = (lat(&steady_push), lat(&steady_read), lat(&storm_read));
    eprintln!(
        "steady: {} pushes p50 {:.3} p99 {:.3} ms, {} reads p50 {:.3} p99 {:.3} ms",
        push_lat.len(),
        median(&push_lat),
        percentile(&push_lat, 99.0),
        read_lat.len(),
        median(&read_lat),
        percentile(&read_lat, 99.0),
    );
    let service: Vec<f64> = steady_push.iter().map(|s| s.service_ms()).collect();
    let late: Vec<f64> = steady_push.iter().map(|s| s.late_ms()).collect();
    let connect: Vec<f64> = steady_push.iter().map(|s| s.connect_ms).collect();
    eprintln!(
        "steady push p99 parts: service {:.2} late {:.2} connect {:.2} ms",
        percentile(&service, 99.0),
        percentile(&late, 99.0),
        percentile(&connect, 99.0)
    );
    let storm_service: Vec<f64> = main.pushes[steady_cut..storm_cut]
        .iter()
        .map(Sample::service_ms)
        .collect();
    eprintln!(
        "storm: {:.3}s, push service p50 {:.2} ms, {} reads p50 {:.2} p95 {:.2} ms, max {:.2} ms",
        storm_end - storm_start,
        median(&storm_service),
        storm_lat.len(),
        median(&storm_lat),
        percentile(&storm_lat, 95.0),
        max(&storm_lat),
    );
    out.set("jobs_per_s", 1e3 / median(&storm_service));
    for (what, v, q) in [
        ("steady push p99", &push_lat, 99.0),
        ("steady read p99", &read_lat, 99.0),
        ("storm read p95", &storm_lat, 95.0),
    ] {
        let n = beyond(v, q);
        out.check(n >= 10, || format!("{what} rests on {n} samples beyond it"));
    }

    // Traced runs add the rate search on the relearned tenants, within the
    // rounds left before their champions turn stale. A failed rung is
    // probed once more, so a passing stall of the machine does not end the
    // climb.
    let mut rounds_done = STEADY_ROUNDS + 1;
    let mut reads_done = main.reads.len();
    let mut search: Vec<Phase> = Vec::new();
    let mut max_rps = 0.0;
    let mut rate = SEARCH_FROM_RPS;
    let mut failed_once = false;
    for _ in 0..if args.trace { PROBES } else { 0 } {
        let (p, phase) = probe(target, &expected, rounds_done, reads_done, rate);
        rounds_done += PROBE_PUSHES / TENANTS;
        reads_done += phase.reads.len();
        eprintln!(
            "probe {:.0} req/s: push p99 {:.2} ms, lateness trend {:.2} ms -> {}",
            p.rate,
            p.push_p99_ms,
            p.late_trend_ms,
            if p.pass { "pass" } else { "fail" }
        );
        search.push(phase);
        if p.pass {
            max_rps = rate;
            rate *= SEARCH_STEP;
            failed_once = false;
        } else if failed_once {
            break;
        } else {
            failed_once = true;
        }
    }

    // The daemon's own counters, then a clean shutdown.
    let mut statuses = Vec::new();
    for t in &tenants {
        let request = format!(
            "GET /status?workload={} HTTP/1.1\r\nHost: bench\r\n\r\n",
            t.key
        );
        statuses.push(exchange(target.addr, &request)?);
    }
    stop(server);

    // Latencies from the due time. They follow the host's contention more
    // than the program (see `BENCHMARK.json`), so they are per-layer
    // metrics of the traced run rather than bounded end-to-end ones.
    out.set("serve.push_ms.p50", median(&push_lat));
    out.set("serve.push_ms.p99", percentile(&push_lat, 99.0));
    out.set("serve.read_ms.p50", median(&read_lat));
    out.set("serve.read_ms.p99", percentile(&read_lat, 99.0));
    out.set("serve.storm_read_ms.p50", median(&storm_lat));
    out.set("serve.storm_read_ms.p95", percentile(&storm_lat, 95.0));
    out.set("serve.max_rps", max_rps);

    // Every push in the order the daemon applied it, every read.
    let pushes: Vec<&Sample> = main
        .pushes
        .iter()
        .chain(search.iter().flat_map(|p| &p.pushes))
        .collect();
    let reads: Vec<&Sample> = main
        .reads
        .iter()
        .chain(search.iter().flat_map(|p| &p.reads))
        .collect();
    let non_200 = pushes
        .iter()
        .chain(&reads)
        .filter(|s| s.status != 200)
        .count()
        + statuses.iter().filter(|(_, s, _)| *s != 200).count();
    out.attempted = (pushes.len() + reads.len() + statuses.len()) as u64;
    out.failed = non_200 as u64;
    out.set("serve.non_200", non_200 as f64);

    // Output checks: the steady phase and the rate search ran no grid
    // search, the storm exactly one per tenant, for staleness, and every
    // daemon champion equals the in-process dry run's, bit for bit.
    let count = |range: std::ops::Range<usize>, keep: fn(Verdict) -> bool| {
        pushes[range].iter().filter(|s| keep(s.verdict)).count()
    };
    let not_rescored = |v: Verdict| !matches!(v, Verdict::Rescored(_));
    let steady_searches = count(0..steady_cut, not_rescored);
    let stale_relearns = count(steady_cut..storm_cut, |v| {
        matches!(v, Verdict::StaleRelearn(_))
    });
    let search_searches = count(storm_cut..pushes.len(), not_rescored);
    let mismatches = count(0..pushes.len(), |v| {
        !matches!(v, Verdict::Rescored(true) | Verdict::StaleRelearn(true))
    });
    out.check(steady_searches == 0, || {
        format!("{steady_searches} pushes of the steady phase were not frozen re-scores")
    });
    out.check(stale_relearns == TENANTS, || {
        format!("{stale_relearns} stale relearns in the storm, expected {TENANTS}")
    });
    out.check(search_searches == 0, || {
        format!("{search_searches} pushes of the rate search were not frozen re-scores")
    });
    out.check(mismatches == 0, || {
        format!("{mismatches} daemon champions differ from the in-process engine")
    });
    for (_, status, body) in &statuses {
        out.check(*status == 200 && body.contains("\"relearns\":2,"), || {
            format!("status {status}: {body}")
        });
    }

    if args.trace {
        // The identical request sequence against an in-process engine, with
        // no HTTP and no contention: untraced, then traced.
        let push_seq: Vec<(Req, f64)> = pushes.iter().map(|s| (s.req, s.due)).collect();
        let read_seq: Vec<(Req, f64)> = reads.iter().map(|s| (s.req, s.due)).collect();
        let storm = steady_cut..storm_cut;
        let untraced = replay(
            &tenants,
            &push_seq,
            &read_seq,
            storm.clone(),
            Tracer::new(false, origin),
        )?;
        let tracer = Tracer::new(true, origin);
        let root = tracer.begin("run", "replay");
        let replay = replay(&tenants, &push_seq, &read_seq, storm, tracer)?;
        replay.tracer.end(root);
        out.set(
            "trace.overhead_frac",
            (replay.wall_s - untraced.wall_s) / untraced.wall_s,
        );
        traced_metrics(
            &mut out,
            &main,
            &steady_push,
            &steady_read,
            &storm_lat,
            &replay,
            warm_end,
            storm_start,
        );
        let tracer = &replay.tracer;
        for (i, s) in pushes.iter().chain(&reads).enumerate() {
            let at = |secs: f64| origin + Duration::from_secs_f64(secs);
            tracer.record("serve", "http", at(s.sent), at(s.done), i as u64 + 1);
        }
        for layer in ["engine", "serve"] {
            out.set(format!("self_s.{layer}"), tracer.self_time(layer));
        }
        out.set("trace.unattributed_frac", tracer.unattributed_share());
        tracer
            .write_jsonl(&scratch_dir().join(format!("trace-serve-storm-{}.jsonl", args.seed)))?;
    }
    Ok(out)
}

fn stop(server: dwcp::serve::ServerHandle) {
    server.shutdown();
    server.wait();
}

/// The in-process replay's results.
struct Replay {
    first_fit_ms: Vec<f64>,
    rescore_ms: Vec<f64>,
    relearn_ms: Vec<f64>,
    forecast_ms: Vec<f64>,
    page_ms: Vec<f64>,
    /// `(rescores, relearns, alerts)` in the steady phase, the storm and
    /// the rate search.
    counts: [(usize, usize, usize); 3],
    wall_s: f64,
    tracer: Tracer,
}

/// Replay the daemon's request sequence against an in-process engine: the
/// same warm-up, the same pushes in the same order, and the reads merged
/// in by due time, each call timed.
fn replay(
    tenants: &[Tenant],
    pushes: &[(Req, f64)],
    reads: &[(Req, f64)],
    storm: std::ops::Range<usize>,
    tracer: Tracer,
) -> Result<Replay, Box<dyn std::error::Error>> {
    let started = Instant::now();
    let (mut engine, first_fit_ms) = warm_engine(tenants, &tracer)?;
    let mut r = Replay {
        first_fit_ms,
        rescore_ms: Vec::new(),
        relearn_ms: Vec::new(),
        forecast_ms: Vec::new(),
        page_ms: Vec::new(),
        counts: [(0, 0, 0); 3],
        wall_s: 0.0,
        tracer,
    };
    let mut reads = reads.iter().peekable();
    for (i, (push, due)) in pushes.iter().enumerate() {
        while let Some((read, _)) = reads.next_if(|(_, read_due)| read_due <= due) {
            let key = &tenants[read.tenant].key;
            let t0 = Instant::now();
            let found = match read.kind {
                Kind::Forecast => r.tracer.span("engine", "read", || {
                    engine.forecast(key).map(|f| f.forecast.mean.len())
                }),
                _ => r.tracer.span("engine", "read", || {
                    engine.read_page(key, read.arg, 168).map(|p| p.values.len())
                }),
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if found.is_none() {
                return Err(format!("replayed read of {key} found nothing").into());
            }
            match read.kind {
                Kind::Forecast => r.forecast_ms.push(ms),
                _ => r.page_ms.push(ms),
            }
        }
        let t = &tenants[push.tenant];
        let points = t.points(push.arg..push.arg + 1);
        let (slot, phase) = if i < storm.start {
            (0, "steady")
        } else if storm.contains(&i) {
            (1, "storm")
        } else {
            (2, "search")
        };
        let t0 = Instant::now();
        let outcome = r
            .tracer
            .span("engine", phase, || engine.push_batch(&t.key, &points))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let StepOutcome::Scored(summary) = outcome else {
            return Err(format!("replayed push {i} did not score").into());
        };
        if summary.action == ScoreAction::Rescored {
            r.rescore_ms.push(ms);
            r.counts[slot].0 += 1;
        } else {
            r.relearn_ms.push(ms);
            r.counts[slot].1 += 1;
        }
        r.counts[slot].2 += summary.alerts.len();
    }
    r.wall_s = started.elapsed().as_secs_f64();
    Ok(r)
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    out: &mut Outcome,
    main: &Phase,
    steady_push: &[&Sample],
    steady_read: &[&Sample],
    storm_lat: &[f64],
    replay: &Replay,
    warm_end: f64,
    storm_start: f64,
) {
    out.set("engine.rescore_ms.p50", median(&replay.rescore_ms));
    out.set(
        "engine.rescore_ms.p99",
        percentile(&replay.rescore_ms, 99.0),
    );
    out.set("engine.relearn_ms.p50", median(&replay.relearn_ms));
    out.set("engine.first_fit_ms.p50", median(&replay.first_fit_ms));
    out.set("engine.forecast_read_ms.p50", median(&replay.forecast_ms));
    out.set("engine.page_read_ms.p50", median(&replay.page_ms));
    for (slot, phase) in SERVE_PHASES.iter().enumerate() {
        let (rescores, relearns, alerts) = replay.counts[slot];
        out.set(format!("engine.rescores.{phase}"), rescores as f64);
        out.set(format!("engine.relearns.{phase}"), relearns as f64);
        out.set(format!("alerts.fired.{phase}"), alerts as f64);
    }
    let steady: Vec<&Sample> = steady_push.iter().chain(steady_read).copied().collect();
    out.set(
        "serve.connect_ms.p50",
        median(&steady.iter().map(|s| s.connect_ms).collect::<Vec<_>>()),
    );
    let service = |v: &[&Sample]| median(&v.iter().map(|s| s.service_ms()).collect::<Vec<_>>());
    out.set(
        "serve.http_overhead_ms.push",
        service(steady_push) - median(&replay.rescore_ms),
    );
    let engine_read = median(&[replay.forecast_ms.clone(), replay.page_ms.clone()].concat());
    out.set(
        "serve.http_overhead_ms.read",
        service(steady_read) - engine_read,
    );
    let read_lat: Vec<f64> = steady_read.iter().map(|s| s.latency_ms()).collect();
    out.set("serve.storm_wait_ms", median(storm_lat) - median(&read_lat));
    let late: Vec<f64> = steady.iter().map(|s| s.late_ms()).collect();
    out.set("gen.late_ms.p99", percentile(&late, 99.0));
    out.set("gen.late_ms.max", max(&late));
    // Requests due in the steady phase still unanswered when it ends.
    let backlog = main
        .pushes
        .iter()
        .chain(&main.reads)
        .filter(|s| s.due >= warm_end && s.due < storm_start && s.done > storm_start)
        .count();
    out.set("gen.backlog_end", backlog as f64);
}
