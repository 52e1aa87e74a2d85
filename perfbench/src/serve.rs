//! `serve_mixed`: seeded request streams into one serve broker.
//!
//! Each *step* restarts the service from the same state: a fresh
//! journal-backed [`EvalCache`] loaded from a journal pre-filled with
//! the points of a fixed seed's stream, and a new [`Broker`] with the default
//! configuration. One generator thread then sends a seeded request
//! stream, either on a Poisson schedule at a fixed rate (open loop) or
//! as fast as a window of outstanding requests allows (closed loop, the
//! batch client). Latency runs from each request's scheduled send time
//! to its reply line.
//!
//! An untraced run spends its window on closed-loop batch steps. A
//! traced run makes a few of those, then spends the window on the
//! nominal-rate latency phase and the `serve.sustained_rps` ladder.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use busnet_core::cache::EvalCache;
use busnet_core::scenario::{run_sweep_with, Evaluator, SweepOptions};
use busnet_core::serve::{
    parse_request, row_json, Broker, BrokerConfig, EvalRequest, ReplySink, Request,
};
use busnet_sim::exec::ExecutionMode;

use crate::report::{median, quantile, Report};
use crate::rng::Rng;
use crate::{alloc, Metrics};

/// Nominal open-loop rate, requests per second: far below the rate the
/// broker sustains on a 2-CPU host (about 30 000), so the latency
/// figures describe service rather than queueing.
const NOMINAL_RPS: f64 = 1000.0;
/// Fixed p99 latency limit of the `serve.sustained_rps` ladder.
const P99_LIMIT_MS: f64 = 100.0;
/// Ratio between neighbouring ladder rates: 5%, finer than the largest
/// bound the benchmark contract allows (0.25).
const LADDER_RATIO: f64 = 1.05;
/// How long before a send time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(100);
/// Share of the offered rate a probe's replies must keep up with (a
/// Poisson stream of 9 000 requests strays about 1% from its rate).
const KEEP_PACE: f64 = 0.97;
/// Where the first ladder scan starts, as a share of the closed-loop
/// throughput.
const SCAN_FROM: f64 = 0.7;
/// Share of a traced run's window by whose end the nominal-rate phase
/// stops.
const NOMINAL_SHARE: f64 = 0.5;
/// Fewest timed closed-loop batch steps per run (all a traced run makes).
const MIN_BATCHES: usize = 5;
/// Untimed closed-loop steps that track the heap for `peak_heap_mb`,
/// made before the timed ones.
const HEAP_STEPS: usize = 15;
/// Requests per nominal-rate step and heap step; the p99 of one
/// nominal step has 20 samples beyond it.
const STREAM: usize = 2000;
/// Requests per batch step and ladder probe: long enough that one
/// scheduling hiccup does not decide a probe.
const LONG_STREAM: usize = 9000;
/// Outstanding requests of the closed-loop batch client: enough to keep
/// both pool workers busy, and below the broker's default queue depth
/// (256), so it is never refused.
const WINDOW: usize = 200;
/// Seed of the stream whose distinct points fill the journal.
const JOURNAL_SEED: u64 = 0x5EED_0F0D;
/// Share of `sim` requests in the stream.
const SIM_SHARE: f64 = 0.10;
/// Zipf exponent of point popularity.
const ZIPF_S: f64 = 1.0;
/// The small simulation budget of `sim` requests: the serve default
/// shape (4 replications, warmup a tenth of the measured cycles).
const SIM_BUDGET: &str = r#""budget":{"replications":4,"cycles":2000,"warmup":200}"#;

/// Every in-domain analytic request body (without its id).
fn analytic_space() -> Vec<String> {
    let mut out = Vec::new();
    let point = |n: u32, m: u32, r: u32, extra: &str, ev: &str| {
        format!(r#""scenario":{{"n":{n},"m":{m},"r":{r}{extra}}},"evaluator":"{ev}""#)
    };
    for n in 1..=32 {
        for m in [4, 8, 16, 32] {
            for r in [4, 8, 16] {
                for buf in ["buffered", "depth4"] {
                    for p in ["0.5", "1"] {
                        let extra = format!(r#","p":{p},"buffering":"{buf}""#);
                        out.push(point(n, m, r, &extra, "pfqn"));
                        out.push(point(n, m, r, &extra, "pfqn-buzen"));
                    }
                }
                out.push(point(n, m, r, r#","policy":"mem""#, "approx"));
                out.push(point(n, m, r, r#","p":0.5"#, "fluid"));
                if n <= 16 && m <= 16 {
                    out.push(point(n, m, r, "", "reduced"));
                    for buf in ["unbuffered", "buffered", "depth4"] {
                        out.push(point(
                            n,
                            m,
                            r,
                            &format!(r#","buffering":"{buf}""#),
                            "approx-depth",
                        ));
                    }
                }
                if n <= 8 && m <= 8 {
                    out.push(point(n, m, r, r#","policy":"mem""#, "exact"));
                }
                if n <= 12 && m <= 12 {
                    for b in [1, 2, 4] {
                        out.push(point(n, m, r, &format!(r#","buses":{b}"#), "multibus"));
                    }
                }
            }
        }
    }
    out
}

/// Every in-domain `sim` request body. All share `n = 8`, so each
/// costs about the same to simulate whichever the seed makes popular.
fn sim_space() -> Vec<String> {
    let mut out = Vec::new();
    for m in [8, 16] {
        for r in 2..=33 {
            for p in ["0.5", "1"] {
                for buf in ["unbuffered", "buffered", "depth4"] {
                    out.push(format!(
                        r#""scenario":{{"n":8,"m":{m},"r":{r},"p":{p},"buffering":"{buf}"}},"evaluator":"sim",{SIM_BUDGET}"#
                    ));
                }
            }
        }
    }
    out
}

/// Every request body a stream can draw from: the analytic points, then
/// the `sim` points. Streams name bodies by index.
struct Universe {
    bodies: Vec<String>,
    analytic: usize,
}

impl Universe {
    fn new() -> Self {
        let mut bodies = analytic_space();
        let analytic = bodies.len();
        bodies.extend(sim_space());
        Universe { bodies, analytic }
    }
}

/// Zipf sampler over a seeded permutation of a range of points.
struct Popularity {
    points: Vec<u32>,
    cdf: Vec<f64>,
}

impl Popularity {
    fn new(mut points: Vec<u32>, rng: &mut Rng) -> Self {
        rng.shuffle(&mut points);
        let mut acc = 0.0;
        let cdf = (0..points.len())
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        Popularity { points, cdf: cdf.into_iter().map(|c| c / total).collect() }
    }

    fn draw(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let i = self.cdf.partition_point(|&c| c < u).min(self.points.len() - 1);
        self.points[i]
    }
}

/// One seeded request stream: its points and its Poisson gaps.
struct Stream {
    points: Vec<u32>,
    /// Gaps between sends at a rate of 1 request per second, seconds.
    gaps: Vec<f64>,
}

impl Stream {
    fn new(u: &Universe, seed: u64, len: usize) -> Self {
        let mut rng = Rng::new(seed);
        let (a, all) = (u.analytic as u32, u.bodies.len() as u32);
        let analytic = Popularity::new((0..a).collect(), &mut rng);
        let sim = Popularity::new((a..all).collect(), &mut rng);
        let mut points = Vec::with_capacity(len);
        let mut gaps = Vec::with_capacity(len);
        for _ in 0..len {
            let pool = if rng.unit() < SIM_SHARE { &sim } else { &analytic };
            points.push(pool.draw(&mut rng));
            gaps.push(-(1.0 - rng.unit()).ln());
        }
        Stream { points, gaps }
    }
}

fn line(id: usize, body: &str) -> String {
    format!(r#"{{"id":{id},{body}}}"#)
}

fn eval_request(body: &str) -> Result<EvalRequest, String> {
    match parse_request(&line(0, body)) {
        Ok(Request::Eval(req)) => Ok(req),
        Ok(Request::Stats { .. }) => Err("unexpected stats op".to_owned()),
        Err(e) => Err(e.line()),
    }
}

/// Evaluates `bodies` into a fresh journal at `dir` through the sweep
/// driver, one call per evaluator configuration.
fn prefill<'a>(dir: &Path, bodies: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let cache = EvalCache::with_dir(dir).map_err(|e| format!("journal {}: {e}", dir.display()))?;
    let mut groups: Vec<(String, Vec<EvalRequest>)> = Vec::new();
    for body in bodies {
        let req = eval_request(body)?;
        let key = req.evaluator.build(req.budget).config_fingerprint();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(req),
            None => groups.push((key, vec![req])),
        }
    }
    for (_, members) in groups {
        let evaluator = members[0].evaluator.build(members[0].budget);
        let scenarios: Vec<_> = members.iter().map(|r| r.scenario.clone()).collect();
        let refs: [&dyn Evaluator; 1] = [evaluator.as_ref()];
        let options =
            SweepOptions { cache: Some(&cache), ..SweepOptions::new(ExecutionMode::Serial) };
        run_sweep_with(&scenarios, &refs, &options, |_, _, _| {});
    }
    Ok(())
}

/// One reply line as it arrived.
struct Arrival {
    id: usize,
    at: Instant,
    line: String,
}

/// The reply writer: timestamps each complete line and wakes the
/// generator.
struct Collector {
    shared: Arc<(Mutex<Vec<Arrival>>, Condvar)>,
    partial: Vec<u8>,
}

impl Write for Collector {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let at = Instant::now();
        self.partial.extend_from_slice(buf);
        while let Some(end) = self.partial.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = self.partial.drain(..=end).collect();
            let line = String::from_utf8_lossy(&raw[..end]).into_owned();
            let id = line
                .strip_prefix(r#"{"id":"#)
                .and_then(|rest| rest.split(',').next())
                .and_then(|id| id.parse().ok())
                .unwrap_or(usize::MAX);
            let (inbox, wake) = &*self.shared;
            inbox.lock().unwrap_or_else(PoisonError::into_inner).push(Arrival { id, at, line });
            wake.notify_all();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How a step offers its stream.
#[derive(Clone, Copy)]
enum Offer {
    /// Poisson arrivals at this many requests per second.
    Open(f64),
    /// As fast as [`WINDOW`] outstanding requests allow.
    Closed,
}

/// What one step measured.
struct Step {
    /// Setup: journal load plus broker start, seconds.
    setup_s: f64,
    load_ms: f64,
    /// Per request: ms from scheduled send to reply (`inf` if none).
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    parse_us: Vec<f64>,
    submit_us: Vec<f64>,
    /// Per request: (reply class, ms from submit start to reply).
    classed: Vec<(&'static str, f64)>,
    /// Last scheduled send to last reply, ms.
    drain_ms: f64,
    /// First send to last reply, seconds.
    makespan_s: f64,
    /// Requests with exactly one reply line, that line ok.
    ok: usize,
    /// Per request: every reply line it got.
    replies: Vec<Vec<String>>,
    counters: busnet_core::serve::BrokerCounters,
    cache: busnet_core::cache::CacheStats,
    allocs: u64,
    /// Highest heap growth from restart to drain, MiB (heap steps).
    peak_mb: f64,
}

impl Step {
    /// Within the latency limit, nothing refused or lost, and no
    /// growing backlog: the replies kept pace with the offered rate.
    fn passes(&self, rate: f64) -> bool {
        self.ok == self.latency_ms.len()
            && quantile(&self.latency_ms, 0.99) <= P99_LIMIT_MS
            && self.drain_ms <= P99_LIMIT_MS
            && self.achieved_rps() >= KEEP_PACE * rate
    }

    fn achieved_rps(&self) -> f64 {
        self.latency_ms.len() as f64 / self.makespan_s
    }
}

fn reply_status(line: &str) -> Option<&str> {
    let rest = &line[line.find(r#""status":""#)? + 10..];
    rest.split('"').next()
}

fn is_ok(line: &str) -> bool {
    matches!(reply_status(line), Some("fresh" | "cached"))
}

/// Restarts the service from `journal` in a fresh directory under
/// `work` and offers it `stream`; with `heap`, tracks the heap from the
/// restart to the last reply.
fn run_step(
    journal: &Path,
    work: &Path,
    u: &Universe,
    stream: &Stream,
    offer: Offer,
    heap: bool,
) -> Result<Step, String> {
    let lines: Vec<String> =
        stream.points.iter().enumerate().map(|(i, &p)| line(i, &u.bodies[p as usize])).collect();
    let n = lines.len();
    let mut due = vec![Duration::ZERO; n];
    if let Offer::Open(rate) = offer {
        let mut at = 0.0;
        for (d, gap) in due.iter_mut().zip(&stream.gaps) {
            at += gap / rate;
            *d = Duration::from_secs_f64(at);
        }
    }
    let mut lag_ms = Vec::with_capacity(n);
    let mut parse_us = Vec::with_capacity(n);
    let mut submit_us = Vec::with_capacity(n);
    let mut sent_at = Vec::with_capacity(n);
    let mut submit_end = Vec::with_capacity(n);
    let mut scheduled = Vec::with_capacity(n);
    let dir = work.join("step");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    std::fs::copy(journal, dir.join("evalcache.jsonl")).map_err(|e| e.to_string())?;
    if heap {
        alloc::start_heap();
    }
    let t = Instant::now();
    let cache = Arc::new(EvalCache::with_dir(&dir).map_err(|e| e.to_string())?);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let broker = Broker::new(Arc::clone(&cache), BrokerConfig::default());
    let setup_s = t.elapsed().as_secs_f64();

    let shared = Arc::new((Mutex::new(Vec::with_capacity(n)), Condvar::new()));
    let sink: Arc<ReplySink> = Arc::new(ReplySink::new(Box::new(Collector {
        shared: Arc::clone(&shared),
        partial: Vec::new(),
    })));
    let allocs = alloc::total();
    let start = Instant::now();
    for (i, text) in lines.iter().enumerate() {
        let when = match offer {
            Offer::Open(_) => {
                // Sleep to just short of the send time, then yield until
                // it: a sleeping thread can wake a millisecond late,
                // which would be charged to every request it delays,
                // while yielding leaves the CPUs to the broker's threads
                // whenever they have work.
                let when = start + due[i];
                if let Some(ahead) = when.checked_duration_since(Instant::now() + SPIN) {
                    std::thread::sleep(ahead);
                }
                while Instant::now() < when {
                    std::thread::yield_now();
                }
                when
            }
            Offer::Closed => {
                let (inbox, wake) = &*shared;
                let mut guard = inbox.lock().unwrap_or_else(PoisonError::into_inner);
                while i - guard.len().min(i) >= WINDOW {
                    guard = wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
                Instant::now()
            }
        };
        let t0 = Instant::now();
        lag_ms.push((t0 - when).as_secs_f64() * 1e3);
        let parsed = parse_request(text);
        let t1 = Instant::now();
        match parsed {
            Ok(Request::Eval(req)) => broker.submit(req, &sink),
            Ok(Request::Stats { .. }) => return Err("unexpected stats op".to_owned()),
            Err(e) => return Err(format!("generated request rejected: {}", e.line())),
        }
        let t2 = Instant::now();
        parse_us.push((t1 - t0).as_secs_f64() * 1e6);
        submit_us.push((t2 - t1).as_secs_f64() * 1e6);
        scheduled.push(when);
        sent_at.push(t1);
        submit_end.push(t2);
    }
    let last_scheduled = *scheduled.last().expect("non-empty stream");
    {
        let (inbox, wake) = &*shared;
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut guard = inbox.lock().unwrap_or_else(PoisonError::into_inner);
        while guard.len() < n && Instant::now() < deadline {
            guard = wake
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
    let allocs = alloc::total() - allocs;
    let counters = broker.counters();
    drop(broker);
    let peak_mb = if heap { alloc::stop_heap() } else { 0.0 };
    let stats = cache.stats();
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);

    let arrivals = std::mem::take(&mut *shared.0.lock().unwrap_or_else(PoisonError::into_inner));
    let mut replies: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut latency_ms = vec![f64::INFINITY; n];
    let mut classed = Vec::with_capacity(n);
    let mut last = start;
    for a in arrivals {
        let Some(slot) = replies.get_mut(a.id) else { continue };
        last = last.max(a.at);
        let class = match reply_status(&a.line).unwrap_or("?") {
            "cached" if a.at <= submit_end[a.id] => "cached_inline",
            "cached" => "coalesced",
            "fresh" if stream.points[a.id] as usize >= u.analytic => "fresh_sim",
            "fresh" => "fresh_analytic",
            _ => "other",
        };
        if slot.is_empty() {
            latency_ms[a.id] = (a.at - scheduled[a.id]).as_secs_f64() * 1e3;
            classed.push((class, (a.at - sent_at[a.id]).as_secs_f64() * 1e3));
        }
        slot.push(a.line);
    }
    let mut ok = 0;
    for (i, r) in replies.iter().enumerate() {
        if r.len() == 1 && is_ok(&r[0]) {
            ok += 1;
        } else {
            latency_ms[i] = f64::INFINITY;
        }
    }
    Ok(Step {
        setup_s,
        load_ms,
        latency_ms,
        lag_ms,
        parse_us,
        submit_us,
        classed,
        drain_ms: (last.max(last_scheduled) - last_scheduled).as_secs_f64() * 1e3,
        makespan_s: (last - start).as_secs_f64(),
        ok,
        replies,
        counters,
        cache: stats,
        allocs,
        peak_mb,
    })
}

/// The ladder rates `NOMINAL_RPS * LADDER_RATIO^k`.
fn rung(k: i32) -> f64 {
    NOMINAL_RPS * LADDER_RATIO.powi(k)
}

/// The rung nearest `rate`.
fn rung_near(rate: f64) -> i32 {
    ((rate / NOMINAL_RPS).ln() / LADDER_RATIO.ln()).round() as i32
}

/// Removes the work directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The seed of the run's `j`-th stream.
fn stream_seed(seed: u64, j: usize) -> u64 {
    Rng::new(seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Replies folded in as each step ends (so memory does not grow with
/// the step count), checked against direct evaluations after the
/// window.
#[derive(Default)]
struct Tally {
    /// Per point answered ok: every distinct row it got.
    rows: HashMap<u32, Vec<String>>,
    ok_rows: u64,
    steps: usize,
    /// Requests without exactly one reply line.
    not_one: u64,
    attempted: u64,
    failed: u64,
    /// Ladder probe requests not answered ok.
    refused: u64,
}

impl Tally {
    /// Folds in (and drops) the replies of `step`. A ladder probe above
    /// the broker's capacity is refused by design (that is what fails a
    /// rung), so its refusals are kept apart from failures.
    fn add(&mut self, step: &mut Step, stream: &Stream, probe: bool) {
        self.steps += 1;
        for (i, r) in std::mem::take(&mut step.replies).into_iter().enumerate() {
            self.not_one += u64::from(r.len() != 1);
            let ok = match r.into_iter().next() {
                Some(first) if is_ok(&first) => {
                    self.ok_rows += 1;
                    let row = first
                        .find(r#""row":"#)
                        .map_or("", |p| &first[p + 6..first.len() - 1])
                        .to_owned();
                    let seen = self.rows.entry(stream.points[i]).or_default();
                    if !seen.contains(&row) {
                        seen.push(row);
                    }
                    true
                }
                _ => false,
            };
            if probe {
                self.refused += u64::from(!ok);
            } else {
                self.attempted += 1;
                self.failed += u64::from(!ok);
            }
        }
    }
}

/// The service as every step restarts it, and the tally of every reply
/// it gave.
struct Service {
    u: Universe,
    journal: PathBuf,
    /// The points the journal holds.
    journal_points: HashSet<u32>,
    work: PathBuf,
    seed: u64,
    streams: usize,
    tally: Tally,
}

impl Service {
    /// A new stream of `len` requests. Every step gets a stream of its
    /// own (the ladder excepted), so no figure hinges on one stream's
    /// mix.
    fn fresh(&mut self, len: usize) -> Stream {
        self.streams += 1;
        Stream::new(&self.u, stream_seed(self.seed, self.streams), len)
    }

    /// Restarts the service, offers it `stream` and tallies the replies
    /// (`probe`: a ladder probe, whose refusals are not failures).
    fn step(
        &mut self,
        stream: &Stream,
        offer: Offer,
        heap: bool,
        probe: bool,
    ) -> Result<Step, String> {
        let mut step = run_step(&self.journal, &self.work, &self.u, stream, offer, heap)?;
        self.tally.add(&mut step, stream, probe);
        Ok(step)
    }
}

/// Runs `serve_mixed` for `seconds` and fills `report`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<Metrics, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = WorkDir(cwd.join(".perfbench_work").join(format!("serve-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&work.0);
    let u = Universe::new();
    // The journal holds the distinct points of a stream made from a
    // seed of its own: the state a restarted server finds on disk. It
    // is the same for every run, so that its size (which sets most of
    // the heap and the load time) does not vary with `--seed`.
    let mut journal_points = HashSet::new();
    let old: Vec<u32> = Stream::new(&u, JOURNAL_SEED, LONG_STREAM)
        .points
        .into_iter()
        .filter(|&p| journal_points.insert(p))
        .collect();
    let prefill_dir = work.0.join("prefill");
    prefill(&prefill_dir, old.iter().map(|&p| u.bodies[p as usize].as_str()))?;
    let mut svc = Service {
        u,
        journal: prefill_dir.join("evalcache.jsonl"),
        journal_points,
        work: work.0.clone(),
        seed,
        streams: 0,
        tally: Tally::default(),
    };

    let mut heap_mb = Vec::with_capacity(HEAP_STEPS);
    for _ in 0..HEAP_STEPS {
        let stream = svc.fresh(STREAM);
        heap_mb.push(svc.step(&stream, Offer::Closed, true, false)?.peak_mb);
    }
    // Batch steps run back to back: a step that follows nearly idle
    // nominal-rate steps runs markedly slower than one that follows
    // heavy load.
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let (mut batch, mut setups, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    while batch.len() < MIN_BATCHES || (!trace && started.elapsed() < window) {
        let stream = svc.fresh(LONG_STREAM);
        let s = svc.step(&stream, Offer::Closed, false, false)?;
        batch.push(s.makespan_s);
        setups.push(s.setup_s);
        loads.push(s.load_ms);
    }
    report.note(format!(
        "serve_mixed: {HEAP_STEPS} heap steps of {STREAM} requests, {} timed batch steps of \
         {LONG_STREAM}; batch seconds min {} q1 {} median {} q3 {}",
        batch.len(),
        quantile(&batch, 0.0),
        quantile(&batch, 0.25),
        median(&batch),
        quantile(&batch, 0.75)
    ));
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("batch_s", median(&batch));
    m.set("peak_heap_mb", median(&heap_mb));
    if trace {
        let closed = LONG_STREAM as f64 / median(&batch);
        latency_and_ladder(&mut svc, seconds, started, closed, report, &mut m)?;
        m.set("cache.load_ms", median(&loads));
    }

    // Correctness: exactly one reply per request, and every ok row equal
    // to a direct evaluation made now, after the timed window.
    let tally = &svc.tally;
    let mut mismatched = Vec::new();
    for (&point, rows) in &tally.rows {
        let body = &svc.u.bodies[point as usize];
        let req = eval_request(body)?;
        let direct = req
            .evaluator
            .build(req.budget)
            .evaluate(&req.scenario)
            .map(|e| row_json(&e))
            .map_err(|e| format!("direct evaluation of {body}: {e}"))?;
        if rows.len() != 1 || rows[0] != direct {
            mismatched.push(body.as_str());
        }
    }
    report.note(format!(
        "ladder probe requests not answered ok (refused above capacity): {}",
        tally.refused
    ));
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.check(
        "one_reply_each",
        tally.not_one == 0,
        format!("{} requests without exactly one reply, over {} steps", tally.not_one, tally.steps),
    );
    report.check(
        "rows_match_direct",
        mismatched.is_empty() && tally.ok_rows > 0,
        format!(
            "{} ok rows, {} distinct points{}",
            tally.ok_rows,
            tally.rows.len(),
            if mismatched.is_empty() {
                String::new()
            } else {
                format!("; differing: {}", mismatched.join(" "))
            }
        ),
    );
    Ok(m)
}

/// The traced run's latency and ladder phases: nominal-rate steps until
/// `NOMINAL_SHARE` of the window, each stream offered untraced and
/// traced, then ladder scans over one long stream until the window
/// closes (at least three). `closed` is the closed-loop throughput,
/// requests per second.
fn latency_and_ladder(
    svc: &mut Service,
    seconds: f64,
    started: Instant,
    closed: f64,
    report: &mut Report,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut nominal: Vec<Step> = Vec::new();
    let mut traced: Vec<(Step, Stream)> = Vec::new();
    while nominal.len() < 2 || started.elapsed().as_secs_f64() < NOMINAL_SHARE * seconds {
        let stream = svc.fresh(STREAM);
        nominal.push(svc.step(&stream, Offer::Open(NOMINAL_RPS), false, false)?);
        alloc::set_counting(true);
        let s = svc.step(&stream, Offer::Open(NOMINAL_RPS), false, false);
        alloc::set_counting(false);
        traced.push((s?, stream));
    }
    // The ladder: each scan climbs one rung at a time, the first from
    // below the closed-loop throughput and later ones from three rungs
    // below where the last stopped. A rung fails only when a repeat
    // probe fails too, so one scheduling hiccup cannot end a scan. A
    // scan's figure is the throughput achieved at its highest passing
    // rung.
    let ladder = svc.fresh(LONG_STREAM);
    let mut sustained: Vec<f64> = Vec::new();
    let mut probes = 0;
    let mut k = rung_near(SCAN_FROM * closed);
    while sustained.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let (mut best, mut passed) = (0.0, false);
        loop {
            let mut kept = None;
            for _ in 0..2 {
                let probe = svc.step(&ladder, Offer::Open(rung(k)), false, true)?;
                probes += 1;
                if probe.passes(rung(k)) {
                    kept = Some(probe.achieved_rps());
                    break;
                }
            }
            match kept {
                Some(achieved) => {
                    (best, passed) = (achieved, true);
                    k += 1;
                }
                // Started above the knee: walk down to a passing rung.
                None if !passed && k > 0 => k -= 1,
                None => break,
            }
        }
        sustained.push(best);
        k = (k - 3).max(0);
    }

    let pooled = |steps: &mut dyn Iterator<Item = &Step>, f: fn(&Step) -> &Vec<f64>| {
        steps.flat_map(|s| f(s).iter().copied()).collect::<Vec<f64>>()
    };
    let latency = pooled(&mut nominal.iter(), |s| &s.latency_ms);
    let lag = pooled(&mut nominal.iter(), |s| &s.lag_ms);
    report.note(format!(
        "nominal {NOMINAL_RPS} req/s, p99 limit {P99_LIMIT_MS} ms; {} nominal steps of \
         {STREAM} requests, {} latency samples; ladder: {probes} probes, highest passing \
         rung per scan (achieved req/s): {sustained:?}",
        nominal.len(),
        latency.len()
    ));
    // Each step's percentile (a step has 20 samples beyond its p99),
    // then the median over steps, so one disturbed step cannot move
    // it.
    let per_step = |q: f64| -> f64 {
        median(&nominal.iter().map(|s| quantile(&s.latency_ms, q)).collect::<Vec<_>>())
    };
    let (p50, p99) = (per_step(0.5), per_step(0.99));
    report.note(format!(
        "latency at the nominal rate (median over steps of each step's percentile): \
         p50 {p50} ms, p99 {p99} ms; send lag p99 {} ms",
        quantile(&lag, 0.99)
    ));
    m.set("serve.latency_p50_ms", p50);
    m.set("serve.latency_p99_ms", p99);
    m.set("serve.sustained_rps", median(&sustained));
    m.set("bench.send_lag_ms.p99", quantile(&lag, 0.99));
    let parse = pooled(&mut traced.iter().map(|(s, _)| s), |s| &s.parse_us);
    let submit = pooled(&mut traced.iter().map(|(s, _)| s), |s| &s.submit_us);
    m.set("serve.parse_us.p50", median(&parse));
    m.set("serve.parse_us.p99", quantile(&parse, 0.99));
    m.set("serve.submit_us.p50", median(&submit));
    m.set("serve.submit_us.p99", quantile(&submit, 0.99));
    for class in ["cached_inline", "coalesced", "fresh_analytic", "fresh_sim"] {
        let v: Vec<f64> = traced
            .iter()
            .flat_map(|(s, _)| s.classed.iter())
            .filter(|(c, _)| *c == class)
            .map(|(_, ms)| *ms)
            .collect();
        m.set(&format!("serve.reply_ms.{class}.p99"), quantile(&v, 0.99));
    }
    // Counts from the first traced step.
    let (first, stream) = &traced[0];
    let c = first.counters;
    let requests = c.requests as f64;
    m.set("serve.allocs_per_request", first.allocs as f64 / requests);
    m.set("serve.coalesced", c.coalesced as f64);
    m.set("serve.cache_replies", c.cache_replies as f64);
    m.set("serve.overloaded", c.overloaded as f64);
    m.set("serve.evaluated", c.evaluated as f64);
    m.set("serve.evaluator_calls", c.evaluator_calls as f64);
    m.set("serve.dedup_ratio", 1.0 - c.evaluator_calls as f64 / (c.requests - c.overloaded) as f64);
    let mut known = svc.journal_points.clone();
    let repeats = stream.points.iter().filter(|&&p| !known.insert(p)).count();
    m.set("serve.repeat_share", repeats as f64 / stream.points.len() as f64);
    m.set("cache.load_records", first.cache.loaded as f64);
    m.set("cache.hits", first.cache.hits as f64);
    m.set("cache.misses", first.cache.misses as f64);
    m.set("cache.appended", first.cache.appended as f64);
    m.set("cache.lookups_per_request", (first.cache.hits + first.cache.misses) as f64 / requests);
    let traced_latency = pooled(&mut traced.iter().map(|(s, _)| s), |s| &s.latency_ms);
    m.set("bench.trace_overhead", median(&traced_latency) / median(&latency));
    Ok(())
}
