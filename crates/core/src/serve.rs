//! The batch-serving front end: protocol parsing and the request
//! broker behind `busnet serve`.
//!
//! A serve session turns the sweep machinery into an always-on
//! service: clients connect over a Unix or TCP socket and exchange
//! JSON lines. One request names one `(scenario, evaluator, budget)`
//! point:
//!
//! ```json
//! {"id":1,"scenario":{"n":8,"m":16,"r":8},"evaluator":"pfqn","budget":{"replications":4}}
//! ```
//!
//! The scenario's optional `workload` field is `"uniform"` (the
//! default) or `"FLAG:VALUE"`, where `FLAG` names one of the `busnet
//! sim`/`sweep` workload flags — `hot-spot`, `module-weights`,
//! `think-probs`, `burst` — and `VALUE` follows that flag's grammar:
//! `"hot-spot:0.2@0"`, `"module-weights:4,2,1,1"`,
//! `"think-probs:1,1,0.5,0.25"`, `"burst:0.9:0.05:0.9:500:0.5@0"`. Both
//! paths parse it with [`Workload::parse_flag`], so they accept the
//! same specs and reject the rest with the same message.
//!
//! A request earns exactly one reply line tagged with the request id and a
//! status:
//!
//! * `fresh` — this request caused the evaluation;
//! * `cached` — replayed from the memo cache/journal or coalesced onto
//!   an identical in-flight request (bit-identical to `fresh` rows by
//!   the cache's `f64::to_bits` round-trip);
//! * `degraded` — the supervisor's analytic fallback stood in after
//!   retries were exhausted under `on_failure = degrade`;
//! * `failed` — a structured error (out-of-domain scenario, exhausted
//!   retries);
//! * `error` — the request itself was malformed (bad JSON, unknown
//!   evaluator, invalid parameters);
//! * `overloaded` — the pending queue is full; retry later.
//!
//! # The broker
//!
//! [`Broker`] is the shared middle: connection threads [`Broker::submit`]
//! parsed requests, a scheduler thread coalesces everything pending
//! into per-configuration batches (same evaluator, budget, and
//! supervisor settings), and each batch runs as **one**
//! [`run_sweep_with`] call on a shared [`ExecPool`] worker. That
//! reuses the whole amortization stack across clients: the memo cache
//! dedupes repeat points, identical concurrent requests coalesce onto
//! one in-flight evaluation, and axis-incremental grouping
//! (`Evaluator::incremental_key`) lets O(R) solvers and shared sampler
//! pools amortize requests from *different* clients. Every unit runs
//! under the [`Supervisor`], so a panicking or over-budget point
//! degrades that one reply instead of the server.
//!
//! Request lifecycle: `submit` checks the in-flight table (coalesce),
//! then the memo cache (immediate `cached` reply), then enqueues the
//! point — or replies `overloaded` when `queue_depth` points are
//! already waiting. Completion resolves the in-flight entry *after*
//! inserting the result into the cache, so a racing duplicate always
//! lands on one side or the other — never evaluates twice. That
//! `submit` lookup is the only cache lookup a request pays: batches
//! run their sweep without a cache.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use busnet_sim::event::EngineKind;
use busnet_sim::exec::{ExecPool, ExecutionMode};
use busnet_sim::sink::LineSink;

use crate::cache::{cache_key, EvalCache};
use crate::json::{self, Json};
use crate::params::{
    ArbitrationKind, Buffering, BusPolicy, SystemParams, Workload, WORKLOAD_FLAGS,
};
use crate::row::{self, Row};
use crate::scenario::{
    evaluator_calls, run_sweep_with, Evaluation, Evaluator, EvaluatorKind, OnFailure, Scenario,
    SimBudget, Stopping, Supervisor, SweepOptions, SweepRecord, UnitStatus,
};
use crate::sim::bus::UnitBudget;

/// Where a connection's replies go: any shared writer behind the
/// whole-line lock (a socket write half, a log, a test buffer).
pub type ReplySink = LineSink<Box<dyn Write + Send>>;

/// One parsed protocol line.
#[derive(Debug)]
pub enum Request {
    /// Evaluate one scenario point.
    Eval(EvalRequest),
    /// Report broker/cache/evaluator-call statistics.
    Stats {
        /// The request id to echo (a JSON fragment).
        id: String,
    },
}

/// A parsed evaluation request.
#[derive(Debug)]
pub struct EvalRequest {
    /// The client's id for this request, kept as a JSON fragment
    /// (`7` or `"client-1"`) and echoed verbatim in the reply.
    pub id: String,
    /// The operating point to evaluate.
    pub scenario: Scenario,
    /// Which vehicle evaluates it.
    pub evaluator: EvaluatorKind,
    /// Simulation budget (replications, cycles, seed, engine,
    /// stopping rule).
    pub budget: SimBudget,
    /// Per-request override of the server's `--max-retries`.
    pub max_retries: Option<u32>,
    /// Per-request override of the server's `--on-failure`.
    pub on_failure: Option<OnFailure>,
    /// Per-request override of the server's `--unit-budget`.
    pub unit_budget: Option<UnitBudget>,
}

/// A structured protocol-level error: the reply for a line that never
/// became a valid request.
#[derive(Debug, PartialEq)]
pub struct ErrorReply {
    /// The request id when one was parseable, else `null`.
    pub id: String,
    /// Human-readable cause.
    pub message: String,
}

impl ErrorReply {
    fn anonymous(message: impl Into<String>) -> Self {
        ErrorReply { id: "null".to_owned(), message: message.into() }
    }

    /// The reply line for this error.
    pub fn line(&self) -> String {
        format!(
            "{{\"id\":{},\"status\":\"error\",\"error\":\"{}\"}}",
            self.id,
            json::escape(&self.message)
        )
    }
}

/// The deterministic result-row payload shared by `fresh`, `cached`,
/// and `degraded` replies: the `row::SERVE` projection of the row
/// schema. Metric floats are formatted from their exact bits, so a
/// cached replay renders byte-identically to the fresh evaluation it
/// memoized.
pub fn row_json(e: &Evaluation) -> String {
    let mut out = String::with_capacity(320);
    row::json_row(&row::SERVE, &Row::of_evaluation(e), &mut out);
    out
}

/// Parses one protocol line.
///
/// # Errors
///
/// A structured [`ErrorReply`] (echoing the request id when it was
/// parseable) for malformed JSON, unknown fields/ops/evaluators, or
/// invalid scenario/budget values. Parsing never panics: a bad line
/// costs its sender one error reply, not the connection.
pub fn parse_request(line: &str) -> Result<Request, ErrorReply> {
    let doc = Json::parse(line)
        .filter(|d| matches!(d, Json::Obj(_)))
        .ok_or_else(|| ErrorReply::anonymous("malformed JSON request"))?;
    let id = match doc.field("id") {
        None | Some(Json::Null) => "null".to_owned(),
        Some(Json::Int(v)) => v.to_string(),
        Some(Json::Str(s)) => format!("\"{s}\""),
        Some(_) => return Err(ErrorReply::anonymous("\"id\" must be an integer or a string")),
    };
    let fail = |message: String| ErrorReply { id: id.clone(), message };
    if let Some(op) = doc.field("op") {
        let op = op.str().ok_or_else(|| fail("\"op\" must be a string".to_owned()))?;
        return match op {
            "stats" => Ok(Request::Stats { id }),
            other => Err(fail(format!("unknown op `{other}` (expected stats)"))),
        };
    }
    let known =
        ["id", "scenario", "evaluator", "budget", "max_retries", "on_failure", "unit_budget"];
    check_fields(&doc, "request", &known).map_err(&fail)?;
    let scenario_obj =
        doc.field("scenario").ok_or_else(|| fail("missing \"scenario\"".to_owned()))?;
    let scenario = parse_scenario(scenario_obj).map_err(&fail)?;
    let evaluator = match doc.field("evaluator") {
        None => EvaluatorKind::Sim,
        Some(v) => {
            let name = v.str().ok_or_else(|| fail("\"evaluator\" must be a string".to_owned()))?;
            EvaluatorKind::from_name(name)
                .ok_or_else(|| fail(format!("unknown evaluator `{name}`")))?
        }
    };
    let budget = match doc.field("budget") {
        None => default_budget(),
        Some(v) => parse_budget(v).map_err(&fail)?,
    };
    let max_retries = match doc.field("max_retries") {
        None => None,
        Some(v) => Some(
            u32::try_from(
                v.int().ok_or_else(|| fail("\"max_retries\" must be an integer".to_owned()))?,
            )
            .map_err(|_| fail("\"max_retries\" out of range".to_owned()))?,
        ),
    };
    let on_failure = match doc.field("on_failure") {
        None => None,
        Some(v) => {
            let name = v.str().ok_or_else(|| fail("\"on_failure\" must be a string".to_owned()))?;
            Some(OnFailure::from_name(name).ok_or_else(|| {
                fail(format!("bad on_failure `{name}` (expected abort|skip|degrade)"))
            })?)
        }
    };
    let unit_budget = match doc.field("unit_budget") {
        None => None,
        Some(v) => Some(parse_unit_budget(v).map_err(&fail)?),
    };
    Ok(Request::Eval(EvalRequest {
        id,
        scenario,
        evaluator,
        budget,
        max_retries,
        on_failure,
        unit_budget,
    }))
}

/// The serve-side default budget (mirrors the `busnet sweep` flag
/// defaults, with serial per-unit execution: parallelism comes from
/// the pool, and serial units keep every reply bit-identical to any
/// other execution shape).
fn default_budget() -> SimBudget {
    SimBudget {
        replications: 4,
        warmup: 5_000,
        measure: 50_000,
        master_seed: 0x1985_0414,
        mode: ExecutionMode::Serial,
        engine: EngineKind::Cycle,
        stopping: Stopping::Fixed,
    }
}

/// Checks that `v` is an object whose fields are all `known` ones.
fn check_fields(v: &Json, what: &str, known: &[&str]) -> Result<(), String> {
    let Json::Obj(fields) = v else { return Err(format!("\"{what}\" must be an object")) };
    match fields.iter().find(|(name, _)| !known.contains(&name.as_str())) {
        Some((name, _)) => Err(format!("unknown {what} field `{name}`")),
        None => Ok(()),
    }
}

/// The optional integer field `name` of the object `what`.
fn int_field(v: &Json, what: &str, name: &str) -> Result<Option<u64>, String> {
    let int =
        |j: &Json| j.int().ok_or_else(|| format!("{what} field \"{name}\" must be an integer"));
    v.field(name).map(int).transpose()
}

fn parse_scenario(v: &Json) -> Result<Scenario, String> {
    let known = ["n", "m", "r", "p", "policy", "buffering", "arbitration", "workload", "buses"];
    check_fields(v, "scenario", &known)?;
    let dimension = |name: &str| -> Result<u32, String> {
        let raw = int_field(v, "scenario", name)?
            .ok_or_else(|| format!("missing scenario field \"{name}\""))?;
        u32::try_from(raw).map_err(|_| format!("scenario field \"{name}\" out of range"))
    };
    let mut params = SystemParams::new(dimension("n")?, dimension("m")?, dimension("r")?)
        .map_err(|e| e.to_string())?;
    if let Some(p) = v.field("p") {
        let p = p.number().ok_or("scenario field \"p\" must be a number")?;
        params = params.with_request_probability(p).map_err(|e| e.to_string())?;
    }
    let mut scenario = Scenario::new(params);
    if let Some(policy) = v.field("policy") {
        let policy = policy.str().and_then(BusPolicy::from_name);
        scenario = scenario.with_policy(policy.ok_or("bad scenario policy (expected proc|mem)")?);
    }
    if let Some(buffering) = v.field("buffering") {
        let name = buffering.str().ok_or("scenario field \"buffering\" must be a string")?;
        scenario = scenario.with_buffering(Buffering::from_name(name).ok_or_else(|| {
            format!("bad buffering `{name}` (expected unbuffered|buffered|depthK|infinite)")
        })?);
    }
    if let Some(arbitration) = v.field("arbitration") {
        let name = arbitration.str().ok_or("scenario field \"arbitration\" must be a string")?;
        scenario =
            scenario.with_arbitration(ArbitrationKind::from_name(name).ok_or_else(|| {
                format!("bad arbitration `{name}` (expected random|round-robin|lru|priority)")
            })?);
    }
    if let Some(workload) = v.field("workload") {
        let spec = workload.str().ok_or("scenario field \"workload\" must be a string")?;
        let workload = match spec.split_once(':') {
            _ if spec == "uniform" => Workload::Uniform,
            Some((flag, value)) => Workload::parse_flag(flag, value)?,
            None => {
                return Err(format!(
                    "bad workload `{spec}` (expected uniform or FLAG:VALUE, FLAG one of {})",
                    WORKLOAD_FLAGS.join("|")
                ))
            }
        };
        scenario = scenario.with_workload(workload);
    }
    if let Some(buses) = int_field(v, "scenario", "buses")? {
        scenario = scenario
            .with_buses(u32::try_from(buses).map_err(|_| "buses out of range".to_owned())?)
            .map_err(|e| e.to_string())?;
    }
    scenario.validate().map_err(|e| e.to_string())?;
    Ok(scenario)
}

fn parse_budget(v: &Json) -> Result<SimBudget, String> {
    let known = ["replications", "cycles", "warmup", "seed", "engine", "ci_width", "max_reps"];
    check_fields(v, "budget", &known)?;
    let mut budget = default_budget();
    let int_field = |name: &str| int_field(v, "budget", name);
    if let Some(reps) = int_field("replications")? {
        budget.replications =
            u32::try_from(reps).map_err(|_| "replications out of range".to_owned())?;
    }
    if let Some(cycles) = int_field("cycles")? {
        budget.measure = cycles;
    }
    if let Some(warmup) = int_field("warmup")? {
        budget.warmup = warmup;
    }
    if let Some(seed) = int_field("seed")? {
        budget.master_seed = seed;
    }
    if let Some(engine) = v.field("engine") {
        let name = engine.str().ok_or("budget field \"engine\" must be a string")?;
        budget.engine = EngineKind::from_name(name)
            .ok_or_else(|| format!("bad engine `{name}` (expected cycle|event)"))?;
    }
    if let Some(ci) = v.field("ci_width") {
        let ci_width = ci.number().ok_or("budget field \"ci_width\" must be a number")?;
        if !(ci_width.is_finite() && ci_width > 0.0) {
            return Err("ci_width must be positive".to_owned());
        }
        let max_reps = match int_field("max_reps")? {
            Some(m) => u32::try_from(m).map_err(|_| "max_reps out of range".to_owned())?,
            None => budget.replications.max(1),
        };
        budget.stopping = Stopping::Adaptive { ci_width, max_reps };
    } else if v.field("max_reps").is_some() {
        return Err("max_reps needs ci_width".to_owned());
    }
    Ok(budget)
}

fn parse_unit_budget(v: &Json) -> Result<UnitBudget, String> {
    check_fields(v, "unit_budget", &["events", "millis"])?;
    let budget = UnitBudget {
        max_events: int_field(v, "unit_budget", "events")?.filter(|&e| e > 0),
        max_millis: int_field(v, "unit_budget", "millis")?.filter(|&m| m > 0),
    };
    if budget.is_unlimited() {
        return Err("unit_budget must bound events and/or millis".to_owned());
    }
    Ok(budget)
}

/// Broker tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct BrokerConfig {
    /// Pool workers — the number of batches evaluating concurrently.
    pub threads: usize,
    /// Maximum points awaiting batch formation before new requests get
    /// an `overloaded` reply.
    pub queue_depth: usize,
    /// Server-default supervision (per-request fields override
    /// `max_retries`, `on_failure`, `unit_budget`).
    pub supervisor: Supervisor,
    /// Intra-batch unit fan-out. [`ExecutionMode::Serial`] (the
    /// default) keeps each batch on its one pool worker; results are
    /// bit-identical either way.
    pub mode: ExecutionMode,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            threads: 2,
            queue_depth: 256,
            supervisor: Supervisor::default(),
            mode: ExecutionMode::Serial,
        }
    }
}

/// Broker activity counters (a snapshot; see [`Broker::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrokerCounters {
    /// Evaluation requests submitted.
    pub requests: u64,
    /// Requests that coalesced onto an identical in-flight point.
    pub coalesced: u64,
    /// Requests answered immediately from the memo cache.
    pub cache_replies: u64,
    /// Requests refused with an `overloaded` reply.
    pub overloaded: u64,
    /// Points this broker actually evaluated (fresh, non-replayed
    /// records) — `requests - coalesced - cache_replies` minus
    /// intra-batch replays.
    pub evaluated: u64,
    /// Process-wide evaluator calls since this broker started.
    pub evaluator_calls: u64,
}

/// One queued point awaiting batch formation.
struct Pending {
    scenario: Scenario,
    kind: EvaluatorKind,
    budget: SimBudget,
    supervisor: Supervisor,
    /// Batch-compatibility key: evaluator config fingerprint plus
    /// supervisor settings. Points sharing it run in one
    /// [`run_sweep_with`] call.
    group: String,
}

/// A reply destination registered for an in-flight point.
struct Waiter {
    id: String,
    /// Whether this request caused the evaluation (its reply says
    /// `fresh`; coalesced waiters say `cached`).
    origin: bool,
    sink: Arc<ReplySink>,
}

#[derive(Default)]
struct BrokerState {
    /// Points awaiting batch formation, in arrival order.
    pending: Vec<Pending>,
    /// Cache key → replies owed, for every not-yet-resolved point.
    inflight: HashMap<String, Vec<Waiter>>,
    closed: bool,
}

struct Shared {
    cache: Arc<EvalCache>,
    queue_depth: usize,
    default_supervisor: Supervisor,
    mode: ExecutionMode,
    state: Mutex<BrokerState>,
    wake: Condvar,
    requests: AtomicU64,
    coalesced: AtomicU64,
    cache_replies: AtomicU64,
    overloaded: AtomicU64,
    evaluated: AtomicU64,
    calls_baseline: u64,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, BrokerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Caches one completed record, then delivers it to every waiter
    /// of its point: a duplicate arriving during resolution hits the
    /// cache instead. The broker's own lookup in [`Broker::submit`] is
    /// the only one a request pays, so the batch sweep runs uncached.
    fn resolve(&self, fingerprint: &str, record: &SweepRecord) {
        let key = cache_key(fingerprint, &record.scenario);
        if let Some(evaluation) = record.cacheable() {
            self.cache.insert(&key, evaluation);
        }
        let waiters = self.lock_state().inflight.remove(&key).unwrap_or_default();
        if !record.cached && !record.screened && record.result.is_ok() {
            self.evaluated.fetch_add(1, Ordering::Relaxed);
        }
        enum Payload {
            Row(String),
            Error(String),
        }
        let (status, payload) = match &record.result {
            Ok(eval) => {
                let status = match record.status {
                    UnitStatus::Ok if record.cached => "cached",
                    UnitStatus::Ok => "fresh",
                    UnitStatus::Degraded => "degraded",
                    UnitStatus::Failed => "failed",
                };
                (status, Payload::Row(row_json(eval)))
            }
            Err(e) => ("failed", Payload::Error(e.to_string())),
        };
        for waiter in waiters {
            // Coalesced duplicates were served by someone else's
            // evaluation: their reply is a cache-style replay of the
            // same row bytes.
            let status = if !waiter.origin && status == "fresh" { "cached" } else { status };
            let line = match &payload {
                Payload::Row(row) => {
                    format!("{{\"id\":{},\"status\":\"{status}\",\"row\":{row}}}", waiter.id)
                }
                Payload::Error(message) => format!(
                    "{{\"id\":{},\"status\":\"{status}\",\"error\":\"{}\"}}",
                    waiter.id,
                    json::escape(message)
                ),
            };
            // A dead client costs its own replies, nobody else's.
            let _ = waiter.sink.writeln(&line);
        }
    }
}

/// The shared request broker: dedup, coalescing, batching, and
/// supervised execution for a serve session. See the module docs for
/// the request lifecycle.
pub struct Broker {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
    pool: Mutex<Option<Arc<ExecPool>>>,
}

impl Broker {
    /// Starts a broker over `cache` (shared with any number of
    /// brokers/sweeps) with the given tuning.
    pub fn new(cache: Arc<EvalCache>, config: BrokerConfig) -> Broker {
        let shared = Arc::new(Shared {
            cache,
            queue_depth: config.queue_depth.max(1),
            default_supervisor: config.supervisor,
            mode: config.mode,
            state: Mutex::new(BrokerState::default()),
            wake: Condvar::new(),
            requests: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            cache_replies: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            evaluated: AtomicU64::new(0),
            calls_baseline: evaluator_calls(),
        });
        let pool = Arc::new(ExecPool::new(config.threads, config.threads.max(1) * 2));
        let scheduler = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("busnet-broker".to_owned())
                .spawn(move || scheduler_loop(&shared, &pool))
                .expect("spawn broker scheduler")
        };
        Broker { shared, scheduler: Mutex::new(Some(scheduler)), pool: Mutex::new(Some(pool)) }
    }

    /// Submits one evaluation request; the reply (exactly one line)
    /// goes to `sink` when available — immediately for cache hits and
    /// rejections, on batch completion otherwise.
    pub fn submit(&self, req: EvalRequest, sink: &Arc<ReplySink>) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        let mut supervisor = self.shared.default_supervisor;
        if let Some(r) = req.max_retries {
            supervisor.max_retries = r;
        }
        if let Some(f) = req.on_failure {
            supervisor.on_failure = f;
        }
        if let Some(b) = req.unit_budget {
            supervisor.unit_budget = Some(b);
        }
        // The evaluator instance is rebuilt per batch; here it only
        // supplies the config fingerprint for the cache key.
        let fingerprint = req.evaluator.build(req.budget).config_fingerprint();
        let key = cache_key(&fingerprint, &req.scenario);
        let group = format!("{fingerprint}|sup={supervisor:?}");
        let mut state = self.shared.lock_state();
        if state.closed {
            drop(state);
            let reply = ErrorReply { id: req.id, message: "server is shutting down".to_owned() };
            let _ = sink.writeln(&reply.line());
            return;
        }
        if let Some(waiters) = state.inflight.get_mut(&key) {
            self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
            waiters.push(Waiter { id: req.id, origin: false, sink: Arc::clone(sink) });
            return;
        }
        if let Some(hit) = self.shared.cache.lookup(&key) {
            drop(state);
            self.shared.cache_replies.fetch_add(1, Ordering::Relaxed);
            let row = row_json(&hit.attach(req.evaluator.name(), &req.scenario));
            let _ =
                sink.writeln(&format!("{{\"id\":{},\"status\":\"cached\",\"row\":{row}}}", req.id));
            return;
        }
        if state.pending.len() >= self.shared.queue_depth {
            drop(state);
            self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
            let _ = sink.writeln(&format!("{{\"id\":{},\"status\":\"overloaded\"}}", req.id));
            return;
        }
        state
            .inflight
            .insert(key, vec![Waiter { id: req.id, origin: true, sink: Arc::clone(sink) }]);
        state.pending.push(Pending {
            scenario: req.scenario,
            kind: req.evaluator,
            budget: req.budget,
            supervisor,
            group,
        });
        drop(state);
        self.shared.wake.notify_one();
    }

    /// A counter snapshot.
    pub fn counters(&self) -> BrokerCounters {
        BrokerCounters {
            requests: self.shared.requests.load(Ordering::Relaxed),
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            cache_replies: self.shared.cache_replies.load(Ordering::Relaxed),
            overloaded: self.shared.overloaded.load(Ordering::Relaxed),
            evaluated: self.shared.evaluated.load(Ordering::Relaxed),
            evaluator_calls: evaluator_calls() - self.shared.calls_baseline,
        }
    }

    /// The reply line for a `stats` op.
    pub fn stats_line(&self, id: &str) -> String {
        let c = self.counters();
        let cache = self.shared.cache.stats();
        format!(
            "{{\"id\":{id},\"status\":\"stats\",\"requests\":{},\"coalesced\":{},\
             \"cache_replies\":{},\"overloaded\":{},\"evaluated\":{},\"evaluator_calls\":{},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"loaded\":{},\"appended\":{}}}}}",
            c.requests,
            c.coalesced,
            c.cache_replies,
            c.overloaded,
            c.evaluated,
            c.evaluator_calls,
            cache.hits,
            cache.misses,
            cache.loaded,
            cache.appended,
        )
    }

    /// Graceful shutdown: stop accepting, flush every pending point
    /// through its batch, and return once **all** owed replies have
    /// been written to their sinks — the SIGTERM drain.
    pub fn drain(&self) {
        self.shared.lock_state().closed = true;
        self.shared.wake.notify_all();
        let scheduler = self.scheduler.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(handle) = scheduler {
            let _ = handle.join();
        }
        let pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(pool) = pool {
            Arc::into_inner(pool).expect("scheduler exited, no other pool owner").drain();
        }
        debug_assert!(self.shared.lock_state().inflight.is_empty(), "drain resolved every point");
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Collects pending points into per-configuration batches and hands
/// each batch to the pool as one supervised `run_sweep_with` call.
fn scheduler_loop(shared: &Arc<Shared>, pool: &Arc<ExecPool>) {
    loop {
        let drained: Vec<Pending> = {
            let mut state = shared.lock_state();
            loop {
                if !state.pending.is_empty() {
                    break std::mem::take(&mut state.pending);
                }
                if state.closed {
                    return;
                }
                state = shared.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Group by batch-compatibility key, preserving arrival order
        // within and across groups.
        let mut groups: Vec<(String, Vec<Pending>)> = Vec::new();
        for point in drained {
            match groups.iter_mut().find(|(g, _)| *g == point.group) {
                Some((_, members)) => members.push(point),
                None => groups.push((point.group.clone(), vec![point])),
            }
        }
        for (_, members) in groups {
            let shared = Arc::clone(shared);
            // Blocking submit: with the pool's own queue full, batch
            // formation stalls and the pending queue absorbs load
            // until `queue_depth` turns it into `overloaded` replies.
            pool.submit(move || run_batch(&shared, &members));
        }
    }
}

fn run_batch(shared: &Shared, members: &[Pending]) {
    let kind = members[0].kind;
    let budget = members[0].budget;
    let supervisor = members[0].supervisor;
    let evaluator = kind.build(budget);
    let fingerprint = evaluator.config_fingerprint();
    let scenarios: Vec<Scenario> = members.iter().map(|p| p.scenario.clone()).collect();
    let refs: Vec<&dyn Evaluator> = vec![evaluator.as_ref()];
    let options = SweepOptions { supervise: Some(&supervisor), ..SweepOptions::new(shared.mode) };
    run_sweep_with(&scenarios, &refs, &options, |_, _, record| {
        shared.resolve(&fingerprint, record);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` into a shared buffer, so tests can read replies back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sink_pair() -> (Arc<ReplySink>, SharedBuf) {
        let buf = SharedBuf::default();
        let sink: Arc<ReplySink> =
            Arc::new(LineSink::new(Box::new(buf.clone()) as Box<dyn Write + Send>));
        (sink, buf)
    }

    fn eval_request(line: &str) -> EvalRequest {
        match parse_request(line) {
            Ok(Request::Eval(req)) => req,
            other => panic!("expected an eval request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_full_request() {
        let req = eval_request(
            r#"{"id":"c1-7","scenario":{"n":8,"m":16,"r":8,"p":0.5,"policy":"mem","buffering":"buffered","arbitration":"lru","buses":1},"evaluator":"pfqn","budget":{"replications":2,"cycles":10000,"seed":7},"max_retries":1,"on_failure":"degrade","unit_budget":{"events":100000}}"#,
        );
        assert_eq!(req.id, "\"c1-7\"");
        assert_eq!(req.evaluator, EvaluatorKind::Pfqn);
        assert_eq!(req.scenario.params.n(), 8);
        assert_eq!(req.scenario.params.p(), 0.5);
        assert_eq!(req.scenario.policy, BusPolicy::MemoryPriority);
        assert_eq!(req.scenario.buffering, Buffering::Buffered);
        assert_eq!(req.budget.replications, 2);
        assert_eq!(req.budget.measure, 10_000);
        assert_eq!(req.budget.master_seed, 7);
        assert_eq!(req.max_retries, Some(1));
        assert_eq!(req.on_failure, Some(OnFailure::Degrade));
        assert_eq!(req.unit_budget.unwrap().max_events, Some(100_000));
    }

    #[test]
    fn bad_requests_get_structured_errors() {
        let cases = [
            ("{nope", "malformed"),
            (r#"{"id":1}"#, "missing \"scenario\""),
            (r#"{"id":1,"scenario":{"n":8,"m":8,"r":8},"evaluator":"nope"}"#, "unknown evaluator"),
            (r#"{"id":1,"scenario":{"n":0,"m":8,"r":8}}"#, "invalid parameter"),
            (r#"{"id":1,"scenario":{"n":8,"m":8,"r":8},"frobnicate":true}"#, "unknown request"),
            (r#"{"id":1,"op":"reboot"}"#, "unknown op"),
            (
                r#"{"id":1,"scenario":{"n":8,"m":8,"r":8},"budget":{"teraflops":9}}"#,
                "unknown budget",
            ),
        ];
        for (line, needle) in cases {
            let err = parse_request(line).expect_err(line);
            assert!(err.message.contains(needle), "`{}` !~ `{needle}`", err.message);
            assert!(err.line().starts_with("{\"id\":"), "reply is structured: {}", err.line());
        }
        // Ids are echoed in errors whenever they were parseable.
        let err = parse_request(r#"{"id":42,"op":"reboot"}"#).unwrap_err();
        assert_eq!(err.id, "42");
    }

    /// Every workload the CLI flags can build is servable through the
    /// same parser, and its reply row is the row of the direct
    /// evaluation.
    #[test]
    fn serve_reaches_every_workload() {
        let budget = SimBudget { replications: 2, warmup: 200, measure: 2_000, ..default_budget() };
        let cases = [
            ("hot-spot:0.2@1", Workload::hot_spot(0.2, 1), EvaluatorKind::Pfqn),
            (
                "module-weights:4,2,1,1",
                Workload::weighted([4.0, 2.0, 1.0, 1.0]),
                EvaluatorKind::Pfqn,
            ),
            (
                "think-probs:1,0.5,0.5,0.25",
                Workload::heterogeneous([1.0, 0.5, 0.5, 0.25]),
                EvaluatorKind::Sim,
            ),
            (
                "burst:0.9:0.05:0.9:500:0.5@0",
                Workload::on_off_burst(0.9, 0.05, 0.9, 500, Some((0.5, 0))),
                EvaluatorKind::Sim,
            ),
        ];
        for (spec, workload, kind) in cases {
            let line = format!(
                r#"{{"id":1,"scenario":{{"n":4,"m":4,"r":2,"buffering":"buffered","workload":"{spec}"}},"evaluator":"{}","budget":{{"replications":2,"cycles":2000,"warmup":200}}}}"#,
                kind.name()
            );
            let scenario = Scenario::new(SystemParams::new(4, 4, 2).unwrap())
                .with_buffering(Buffering::Buffered)
                .with_workload(workload.unwrap());
            let direct = kind.build(budget).evaluate(&scenario).expect("in domain");
            let broker = Broker::new(Arc::new(EvalCache::new()), BrokerConfig::default());
            let (sink, buf) = sink_pair();
            broker.submit(eval_request(&line), &sink);
            broker.drain();
            let reply = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            let want = format!("{{\"id\":1,\"status\":\"fresh\",\"row\":{}}}\n", row_json(&direct));
            assert_eq!(reply, want, "{line}");
        }
    }

    #[test]
    fn broker_dedupes_identical_requests() {
        let cache = Arc::new(EvalCache::new());
        let broker = Broker::new(Arc::clone(&cache), BrokerConfig::default());
        let (sink, buf) = sink_pair();
        let duplicates = 8;
        for i in 0..duplicates {
            let req = eval_request(&format!(
                r#"{{"id":{i},"scenario":{{"n":8,"m":16,"r":8,"buffering":"buffered"}},"evaluator":"pfqn"}}"#
            ));
            broker.submit(req, &sink);
        }
        broker.drain();
        let counters = broker.counters();
        assert_eq!(counters.requests, duplicates);
        assert_eq!(counters.evaluated, 1, "one evaluation serves all duplicates");
        assert_eq!(
            counters.coalesced + counters.cache_replies,
            duplicates - 1,
            "every duplicate rode the first evaluation"
        );
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, duplicates, "exactly one reply per request");
        let rows: Vec<&str> = lines
            .iter()
            .map(|l| l.split_once(",\"row\":").expect("result reply carries a row").1)
            .collect();
        assert!(rows.iter().all(|r| *r == rows[0]), "duplicate rows are byte-identical");
        let fresh = lines.iter().filter(|l| l.contains("\"status\":\"fresh\"")).count();
        let cached = lines.iter().filter(|l| l.contains("\"status\":\"cached\"")).count();
        assert_eq!(fresh, 1, "exactly one request caused the evaluation");
        assert_eq!(cached as u64, duplicates - 1);
    }

    /// Each request that is not coalesced looks the cache up exactly
    /// once: on a stream that sheds nothing, cache hits plus misses
    /// equal the requests minus the coalesced ones, and only a point's
    /// first arrival misses.
    #[test]
    fn broker_looks_up_the_cache_once_per_request() {
        let cache = Arc::new(EvalCache::new());
        let broker = Broker::new(
            Arc::clone(&cache),
            BrokerConfig { queue_depth: 1 << 20, ..BrokerConfig::default() },
        );
        let (sink, buf) = sink_pair();
        let (unique, per_phase) = (40u64, 300u64);
        let submit = |i: u64| {
            let req = eval_request(&format!(
                r#"{{"id":{i},"scenario":{{"n":{},"m":16,"r":8,"buffering":"buffered"}},"evaluator":"pfqn"}}"#,
                1 + (i * 7) % unique
            ));
            broker.submit(req, &sink);
        };
        // Phase one races repeats against in-flight evaluations; once
        // every reply is out, phase two repeats resolved points only.
        (0..per_phase).for_each(submit);
        let replies = || String::from_utf8(buf.0.lock().unwrap().clone()).unwrap().lines().count();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while replies() < per_phase as usize {
            assert!(std::time::Instant::now() < deadline, "phase one replies never arrived");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        (per_phase..2 * per_phase).for_each(submit);
        broker.drain();
        let counters = broker.counters();
        let stats = cache.stats();
        assert_eq!(counters.overloaded, 0, "the stream must not shed");
        assert_eq!(stats.hits + stats.misses, counters.requests - counters.coalesced);
        assert_eq!(stats.misses, unique, "only a point's first arrival misses");
        assert_eq!(stats.hits, counters.cache_replies);
        assert_eq!(counters.evaluated, unique);
        assert_eq!(replies() as u64, 2 * per_phase);
    }

    #[test]
    fn broker_replies_failed_for_out_of_domain_points() {
        let cache = Arc::new(EvalCache::new());
        let broker = Broker::new(Arc::clone(&cache), BrokerConfig::default());
        let (sink, buf) = sink_pair();
        // The §3.1.1 exact chain requires memory priority; the default
        // processor-priority point is out of its domain.
        let req = eval_request(r#"{"id":1,"scenario":{"n":4,"m":4,"r":4},"evaluator":"exact"}"#);
        broker.submit(req, &sink);
        broker.drain();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"status\":\"failed\""), "got: {text}");
        assert!(text.contains("does not support"), "error names the domain issue: {text}");
    }

    #[test]
    fn broker_sheds_load_with_overloaded_replies() {
        let cache = Arc::new(EvalCache::new());
        let broker = Broker::new(
            Arc::clone(&cache),
            BrokerConfig { queue_depth: 1, ..BrokerConfig::default() },
        );
        let (sink, buf) = sink_pair();
        // Distinct points, submitted faster than the queue depth of 1
        // can drain: at least one must be shed (the exact count races
        // with the scheduler, which is the point of backpressure).
        for i in 0..64u32 {
            let req = eval_request(&format!(
                r#"{{"id":{i},"scenario":{{"n":{},"m":16,"r":8,"buffering":"buffered"}},"evaluator":"pfqn"}}"#,
                i + 1
            ));
            broker.submit(req, &sink);
        }
        broker.drain();
        let counters = broker.counters();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 64, "every request got exactly one reply");
        assert_eq!(
            text.matches("\"status\":\"overloaded\"").count() as u64,
            counters.overloaded,
            "shed requests got the explicit backpressure reply"
        );
    }
}
