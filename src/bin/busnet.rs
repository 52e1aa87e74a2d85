//! `busnet` command-line interface: regenerate the paper's experiments
//! or sweep arbitrary scenario grids across evaluators.
//!
//! ```text
//! busnet list
//! busnet run table1
//! busnet run table3 --quick
//! busnet run all --quick
//! busnet sim --n 8 --m 16 --r 8 [--memory-priority] [--buffered] [--p 0.5]
//!            [--buffer-depth K|inf] [--seed 7] [--cycles 200000] [--warmup 20000]
//!            [--arbitration random|round-robin|lru|priority] [--engine cycle|event]
//!            [--hot-spot 0.3@0] [--module-weights 4,2,1,1] [--think-probs 1,1,0.5,0.25]
//!            [--burst 0.9:0.05:0.9:500[:0.5@0]]
//! busnet sweep --n 2..64 --r 2,6,10 --evaluator sim,reduced --format csv
//! busnet sweep --buffer-depth 0,1,2,4,inf --evaluator sim,approx-depth
//! busnet sweep --hot-spot 0,0.1,0.2,0.4 --buffer-depth 0,1,4 --evaluator sim --engine event
//! busnet sweep --n 8..32:8 --evaluator sim --engine event --ci-width 0.02
//! busnet sweep --n 1000000 --m 1000000 --buffer-depth 4 --evaluator fluid
//! busnet sweep --n 8 --m 8,16 --p 0.2,1 --evaluator sim --ci-width 0.02 --screen fluid
//! busnet sweep --n 8 --m 8 --buses 1..8 --evaluator multibus
//! busnet sweep --n 1..64 --evaluator pfqn --cache-dir .busnet-cache
//! busnet serve --unix /tmp/busnet.sock --cache-dir .busnet-cache --threads 4
//! busnet request --unix /tmp/busnet.sock < requests.jsonl
//! busnet bench-sweep [--out BENCH_sweep.json] [--engine cycle|event] [--smoke]
//! ```

use std::collections::HashSet;
use std::process::ExitCode;
use std::time::Instant;

use std::io::Write;

use busnet::core::cache::EvalCache;
use busnet::core::params::{
    parse_number_list, ArbitrationKind, Buffering, BusPolicy, SystemParams, Workload,
    WORKLOAD_FLAGS,
};
use busnet::core::row::{self, Row};
use busnet::core::scenario::{
    run_sweep, run_sweep_screened, run_sweep_with, Evaluator, EvaluatorKind, OnFailure,
    PfqnAlgorithm, PfqnEval, ScenarioGrid, ScreenPlan, SimBudget, Stopping, Supervisor,
    SweepOptions, SweepRecord, UnitStatus, ALL_EVALUATOR_KINDS,
};
use busnet::core::serve::{parse_request, Broker, BrokerConfig, ReplySink, Request};
use busnet::core::sim::bus::{AdaptiveOutcome, AdaptivePlan, BusSimBuilder, UnitBudget};
use busnet::core::CoreError;
use busnet::report::experiments::{Effort, ExperimentId, ALL_EXPERIMENTS};
use busnet::sim::event::{EngineKind, EventQueue, HeapEventQueue};
use busnet::sim::exec::ExecutionMode;
use busnet::sim::fault::{silence_injected_panics, FaultPlan};
use busnet::sim::sink::LineSink;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("available experiments:");
            for id in ALL_EXPERIMENTS {
                println!("  {}", id.name());
            }
            println!("available evaluators (for `sweep --evaluator`):");
            for kind in ALL_EVALUATOR_KINDS {
                println!("  {}", kind.name());
            }
            ExitCode::SUCCESS
        }
        Some("run") => run_experiments(&args[1..]),
        Some("sim") => exit_code(run_sim(&args[1..])),
        Some("sweep") => exit_code(run_sweep_cmd(&args[1..])),
        Some("serve") => exit_code(run_serve(&args[1..])),
        Some("request") => exit_code(run_request(&args[1..])),
        Some("bench-sweep") => run_bench_sweep(&args[1..]),
        _ => {
            eprintln!(
                "usage: busnet <list | run <experiment|all> [--quick] | sim ... | sweep ... | \
                 bench-sweep [--out FILE] [--engine cycle|event] [--smoke]>\n\
                 \n\
                 sim   --n N --m M --r R [--p P] [--buffered] [--buffer-depth K|inf]\n      \
                 [--memory-priority] [--seed S] [--cycles C] [--warmup W]\n      \
                 [--arbitration KIND] [--engine cycle|event]\n      \
                 [--hot-spot FRAC[@MODULE]] [--module-weights W1,..,Wm]\n      \
                 [--think-probs P1,..,Pn] [--burst ONP:OFFP:STAY:DWELL[:FRAC@MODULE]]\n      \
                 [--ci-width X [--max-reps K]]\n\
                 sweep --n SPEC --m SPEC --r SPEC [--p LIST] [--policy proc|mem|both]\n      \
                 [--buffering unbuffered|buffered|depthK|infinite|both]\n      \
                 [--buffer-depth LIST(K|inf)] [--arbitration LIST|all]\n      \
                 [--hot-spot LIST(FRAC[@MODULE])] [--module-weights W1,..,Wm]\n      \
                 [--think-probs P1,..,Pn] [--burst ONP:OFFP:STAY:DWELL[:FRAC@MODULE]]\n      \
                 [--buses SPEC]\n      \
                 [--evaluator LIST] [--engine cycle|event] [--format csv|json]\n      \
                 [--replications K] [--cycles C] [--warmup W] [--seed S] [--serial]\n      \
                 [--ci-width X [--max-reps K]] [--screen fluid [--screen-tol T]]\n      \
                 [--cache-dir DIR [--resume]] [--max-retries K]\n      \
                 [--unit-budget EVENTS[:MILLIS]] [--on-failure abort|skip|degrade]\n      \
                 [--fault-plan seed=S:rate=R[:sites=a,b][:delay-ms=D] | off]\n\
                 serve --unix PATH | --tcp ADDR [--cache-dir DIR] [--threads K]\n      \
                 [--queue-depth Q] [--max-retries K] [--unit-budget EVENTS[:MILLIS]]\n      \
                 [--on-failure abort|skip|degrade]\n\
                 request --unix PATH | --tcp ADDR  (JSON-line requests on stdin)\n\
                 \n\
                 SPEC is a comma list (2,6,10), an inclusive range (2..64), or a stepped\n\
                 range (2..16:2). KIND is random|round-robin|lru|priority."
            );
            ExitCode::FAILURE
        }
    }
}

/// A subcommand's exit: its own code, or `FAILURE` after printing its
/// error to stderr.
fn exit_code(result: Result<ExitCode, String>) -> ExitCode {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// Appended to a flag error of `sim`, `sweep`, `serve` and `request`.
fn usage_hint(e: String) -> String {
    format!("{e}\nrun `busnet` without arguments for usage")
}

fn run_experiments(args: &[String]) -> ExitCode {
    let Some(which) = args.first() else {
        eprintln!("usage: busnet run <experiment|all> [--quick]");
        return ExitCode::FAILURE;
    };
    let effort = if args.iter().any(|a| a == "--quick") { Effort::Quick } else { Effort::Paper };
    let ids: Vec<ExperimentId> = if which == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else {
        match ExperimentId::from_name(which) {
            Some(id) => vec![id],
            None => {
                eprintln!("unknown experiment `{which}`; try `busnet list`");
                return ExitCode::FAILURE;
            }
        }
    };
    for id in ids {
        println!("================ {} ================", id.name());
        match id.run_rendered(effort) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("experiment {} failed: {e}", id.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Strict flag cursor: every flag must be known, every value must
/// parse, and leftovers are an error.
struct Flags<'a> {
    args: &'a [String],
    used: HashSet<usize>,
    errors: Vec<String>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, used: HashSet::new(), errors: Vec::new() }
    }

    /// Consumes a boolean flag, returning whether it was present.
    fn switch(&mut self, name: &str) -> bool {
        let mut present = false;
        for (i, a) in self.args.iter().enumerate() {
            if a == name {
                self.used.insert(i);
                present = true;
            }
        }
        present
    }

    /// Consumes `name VALUE`, returning the raw value if present.
    fn value(&mut self, name: &str) -> Option<&'a str> {
        let i = self.args.iter().position(|a| a == name)?;
        self.used.insert(i);
        match self.args.get(i + 1) {
            Some(v) => {
                self.used.insert(i + 1);
                Some(v)
            }
            None => {
                self.errors.push(format!("flag {name} expects a value"));
                None
            }
        }
    }

    /// Consumes and parses `name VALUE`, with a default.
    fn parse<T: std::str::FromStr>(&mut self, name: &str, default: T) -> T {
        match self.value(name) {
            Some(raw) => match raw.parse() {
                Ok(v) => v,
                Err(_) => {
                    self.errors.push(format!("bad value for {name}: {raw}"));
                    default
                }
            },
            None => default,
        }
    }

    /// Fails on any unconsumed argument or accumulated error.
    fn finish(self) -> Result<(), String> {
        let mut errors = self.errors;
        for (i, a) in self.args.iter().enumerate() {
            if !self.used.contains(&i) {
                errors.push(format!("unknown flag or stray argument: {a}"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("\n"))
        }
    }
}

fn run_sim(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::new(args);
    let n: u32 = flags.parse("--n", 8);
    let m: u32 = flags.parse("--m", 16);
    let r: u32 = flags.parse("--r", 8);
    let p: f64 = flags.parse("--p", 1.0);
    let seed: u64 = flags.parse("--seed", 42);
    let cycles: u64 = flags.parse("--cycles", 200_000);
    // Explicit warmup control; the historical default remains a tenth
    // of the measured window.
    let warmup: u64 = flags.parse("--warmup", cycles / 10);
    let memory_priority = flags.switch("--memory-priority");
    let buffered = flags.switch("--buffered");
    let depth_spec = flags.value("--buffer-depth");
    let arbitration_spec = flags.value("--arbitration").unwrap_or("random");
    let engine_spec = flags.value("--engine").unwrap_or("cycle");
    let ci_width_spec = flags.value("--ci-width");
    let max_reps: u32 = flags.parse("--max-reps", 8);
    let workloads = workload_flags(&mut flags);
    flags.finish().map_err(usage_hint)?;
    let workload = match workloads? {
        mut workloads if workloads.len() == 1 => workloads.remove(0),
        _ => {
            return Err("busnet sim takes a single --hot-spot fraction (lists are for sweep)".into())
        }
    };
    let ci_width = ci_width_spec.map(parse_ci_width).transpose()?;
    if ci_width.is_some() && cycles == 0 {
        return Err("--ci-width needs a positive --cycles budget (got --cycles 0)".into());
    }
    let buffering = match depth_spec {
        None if buffered => Buffering::Buffered,
        None => Buffering::Unbuffered,
        Some(spec) => {
            let b = parse_buffer_depth(spec)?;
            if buffered && !b.is_buffered() {
                return Err(format!("--buffered conflicts with --buffer-depth {spec}"));
            }
            b
        }
    };
    let arbitration = ArbitrationKind::from_name(arbitration_spec).ok_or_else(|| {
        format!("bad --arbitration `{arbitration_spec}` (expected random|round-robin|lru|priority)")
    })?;
    let engine = EngineKind::from_name(engine_spec)
        .ok_or_else(|| format!("bad --engine `{engine_spec}` (expected cycle|event)"))?;

    let params = SystemParams::new(n, m, r)
        .and_then(|q| q.with_request_probability(p))
        .map_err(|e| format!("invalid parameters: {e}"))?;
    workload.validate(n, m).map_err(|e| format!("invalid workload: {e}"))?;
    let policy =
        if memory_priority { BusPolicy::MemoryPriority } else { BusPolicy::ProcessorPriority };

    let mut builder = BusSimBuilder::new(params)
        .policy(policy)
        .buffering(buffering)
        .arbitration(arbitration)
        .workload(workload.clone())
        .engine(engine)
        .seed(seed)
        .warmup_cycles(warmup)
        .measure_cycles(cycles);
    // Bursty runs record one telemetry window per phase dwell so the
    // transient trajectory is visible in the output.
    if let Some(spec) = workload.mmpp_spec() {
        builder = builder.window_cycles(spec.dwell());
    }
    let mut adaptive = None;
    let report = match ci_width {
        None => builder.run(),
        Some(ci_width) => {
            let plan = AdaptivePlan {
                ci_width,
                batch_cycles: (cycles / 4).max(1),
                min_batches: 8,
                max_measure: cycles.saturating_mul(u64::from(max_reps.max(1))),
                prior: None,
            };
            let AdaptiveOutcome { report, batches, half_width_95, converged } =
                builder.run_adaptive(&plan);
            adaptive = Some((batches, half_width_95, converged));
            report
        }
    };
    let metrics = report.metrics();
    println!(
        "n={n} m={m} r={r} p={p} {policy:?} buffering={} arbitration={} workload={} engine={} \
         seed={seed} warmup={warmup}",
        buffering.name(),
        arbitration.name(),
        workload.name(),
        engine.name()
    );
    println!("  EBW                  {:.4}", metrics.ebw);
    println!("  bus utilization      {:.4}", metrics.bus_utilization);
    println!("  memory utilization   {:.4}", metrics.memory_utilization);
    println!("  processor efficiency {:.4}", metrics.processor_efficiency);
    println!("  mean wait (cycles)   {:.4}", report.wait.mean());
    println!("  mean round trip      {:.4}", report.round_trip.mean());
    println!("  fairness (Jain)      {:.4}", report.fairness_index());
    if report.buffer_depth() > 0 {
        println!("  buffer depth k       {}", report.buffer_depth());
        println!("  mean input queue     {:.4}", report.mean_input_queue());
        println!("  mean output queue    {:.4}", report.mean_output_queue());
        println!("  P(input full)        {:.4}", report.input_full_fraction());
        println!("  blocked completions  {}", report.blocked_completions);
    }
    if !workload.is_uniform() {
        if let Some(hot) = report.hot_module() {
            println!("  hot module           {hot}");
            println!(
                "  hot reference share  {:.4}",
                report.module_reference_shares().get(hot).copied().unwrap_or(0.0)
            );
            println!("  hot module util      {:.4}", report.module_utilization(hot));
            println!("  hot mean input queue {:.4}", report.module_mean_input_queue(hot));
        }
    }
    if let Some(series) = &report.windows {
        let total: u64 = series.phase_cycles.iter().sum::<u64>().max(1);
        println!("  telemetry windows    {} x {} cycles", series.windows.len(), series.width);
        for (phase, &in_phase) in series.phase_cycles.iter().enumerate() {
            println!("  phase {phase} occupancy    {:.4}", in_phase as f64 / total as f64);
        }
    }
    println!("  engine events        {}", report.events);
    if let Some((batches, half_width_95, converged)) = adaptive {
        println!("  measured cycles      {}", report.measured_cycles);
        println!("  CI half-width (95%)  {half_width_95:.6}");
        println!("  batch means          {batches}");
        println!(
            "  adaptive stop        {}",
            if converged { "converged" } else { "budget exhausted" }
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Consumes the workload flags (`--hot-spot`, `--module-weights`,
/// `--think-probs`, `--burst`) into a workload axis, parsed by
/// [`Workload::parse_flag`]. The four are mutually exclusive;
/// `--hot-spot` accepts a comma list (one workload per fraction), the
/// others describe a single workload.
fn workload_flags(flags: &mut Flags) -> Result<Vec<Workload>, String> {
    let given: Vec<(&str, &str)> = WORKLOAD_FLAGS
        .iter()
        .filter_map(|&flag| Some((flag, flags.value(&format!("--{flag}"))?)))
        .collect();
    match given[..] {
        [] => Ok(vec![Workload::Uniform]),
        [("hot-spot", list)] => {
            list.split(',').map(|item| Workload::parse_flag("hot-spot", item)).collect()
        }
        [(flag, spec)] => Ok(vec![Workload::parse_flag(flag, spec)?]),
        _ => Err("--hot-spot, --module-weights, --think-probs, and --burst are mutually \
                  exclusive"
            .to_owned()),
    }
}

/// Consumes the supervision flags shared by `sweep` and `serve`:
/// `--max-retries K` (default 2), `--unit-budget EVENTS[:MILLIS]` and
/// `--on-failure abort|skip|degrade` (default skip).
fn supervisor_flags(flags: &mut Flags) -> Result<Supervisor, String> {
    let max_retries: u32 = flags.parse("--max-retries", 2);
    let unit_budget_spec = flags.value("--unit-budget");
    let on_failure_spec = flags.value("--on-failure").unwrap_or("skip");
    let on_failure = OnFailure::from_name(on_failure_spec).ok_or_else(|| {
        format!("bad --on-failure `{on_failure_spec}` (expected abort|skip|degrade)")
    })?;
    let unit_budget = unit_budget_spec.map(parse_unit_budget).transpose()?.flatten();
    Ok(Supervisor { max_retries, on_failure, unit_budget, ..Supervisor::default() })
}

/// Parses a `--unit-budget` value: `EVENTS[:MILLIS]`, with `0` meaning
/// "unlimited" on either axis (both zero disables the watchdog).
fn parse_unit_budget(spec: &str) -> Result<Option<UnitBudget>, String> {
    let bad = || format!("bad --unit-budget `{spec}` (expected EVENTS[:MILLIS], 0 = unlimited)");
    let (events_raw, millis_raw) = match spec.split_once(':') {
        None => (spec, "0"),
        Some((e, m)) => (e, m),
    };
    let events: u64 = events_raw.parse().map_err(|_| bad())?;
    let millis: u64 = millis_raw.parse().map_err(|_| bad())?;
    let budget = UnitBudget {
        max_events: (events > 0).then_some(events),
        max_millis: (millis > 0).then_some(millis),
    };
    Ok((!budget.is_unlimited()).then_some(budget))
}

/// Parses a `--ci-width` value: a positive finite number.
fn parse_ci_width(spec: &str) -> Result<f64, String> {
    match spec.parse::<f64>() {
        Ok(w) if w.is_finite() && w > 0.0 => Ok(w),
        _ => Err(format!("bad --ci-width `{spec}` (expected a positive number)")),
    }
}

/// Parses a `--buffer-depth` value: a non-negative integer or `inf`.
fn parse_buffer_depth(spec: &str) -> Result<Buffering, String> {
    match spec {
        "inf" | "infinite" => Ok(Buffering::Infinite),
        _ => {
            let depth: u32 = spec
                .parse()
                .map_err(|_| format!("bad --buffer-depth `{spec}` (expected an integer or inf)"))?;
            let buffering = Buffering::Depth(depth);
            buffering.validate().map_err(|e| e.to_string())?;
            Ok(buffering)
        }
    }
}

/// Parses an axis spec: `2,6,10`, `2..64` (inclusive), or `2..16:2`.
fn parse_u32_spec(spec: &str) -> Result<Vec<u32>, String> {
    let bad = |why: &str| Err(format!("bad axis spec `{spec}`: {why}"));
    if let Some((range, step)) = spec.split_once(':') {
        let step: u32 = match step.parse() {
            Ok(0) | Err(_) => return bad("step must be a positive integer"),
            Ok(s) => s,
        };
        let Ok(mut values) = parse_u32_spec(range) else {
            return bad("expected LO..HI before the step");
        };
        if !range.contains("..") {
            return bad("a step requires a LO..HI range");
        }
        let Some(&lo) = values.first() else {
            return bad("range is empty");
        };
        values.retain(|v| (v - lo) % step == 0);
        return Ok(values);
    }
    if let Some((lo, hi)) = spec.split_once("..") {
        let (Ok(lo), Ok(hi)) = (lo.parse::<u32>(), hi.parse::<u32>()) else {
            return bad("expected integers around `..`");
        };
        if lo > hi {
            return bad("range is empty");
        }
        return Ok((lo..=hi).collect());
    }
    spec.split(',')
        .map(|v| v.parse().map_err(|_| format!("bad axis spec `{spec}`: `{v}` is not an integer")))
        .collect()
}

/// Output encoding of sweep rows.
#[derive(Clone, Copy, PartialEq)]
enum SweepFormat {
    Csv,
    Json,
}

/// Writes one sweep row into `out` (a buffered writer: rows hit the
/// kernel in large blocks instead of one `write(2)` per record, which
/// measurably dominated large-grid sweeps when stdout was a pipe),
/// rendering through `line`, a buffer reused across records.
/// Skip/failure diagnostics still go straight to stderr.
fn emit_record(record: &SweepRecord, format: SweepFormat, line: &mut String, out: &mut impl Write) {
    let s = &record.scenario;
    if let Err(CoreError::UnsupportedScenario { .. }) = &record.result {
        eprintln!(
            "# skipped [{} @ {}]: outside the evaluator's domain",
            record.evaluator,
            s.label()
        );
        return;
    }
    // Hard failures still stream a structured row (scenario identity,
    // empty metrics, a `failed` status) so downstream accounting sees
    // every grid point exactly once; the human diagnostic goes to
    // stderr.
    line.clear();
    let row = Row::of_record(record);
    match format {
        SweepFormat::Csv => row::csv_row(&row::SWEEP, &row, line),
        SweepFormat::Json => row::json_row(&row::SWEEP, &row, line),
    }
    line.push('\n');
    out.write_all(line.as_bytes()).expect("stdout closed mid-sweep");
    if let Err(e) = &record.result {
        eprintln!("# FAILED [{} @ {}]: {e}", record.evaluator, s.label());
    }
}

/// Classifies a sweep record for the exit summary.
fn record_outcome(record: &SweepRecord) -> (bool, bool) {
    match &record.result {
        Ok(_) => (true, false),
        Err(CoreError::UnsupportedScenario { .. }) => (false, false),
        Err(_) => (false, true),
    }
}

fn run_sweep_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::new(args);
    let n_spec = flags.value("--n").unwrap_or("8");
    let m_spec = flags.value("--m").unwrap_or("16");
    let r_spec = flags.value("--r").unwrap_or("8");
    let p_spec = flags.value("--p").unwrap_or("1");
    let policy_spec = flags.value("--policy").unwrap_or("proc");
    let buffering_spec = flags.value("--buffering");
    let depth_spec = flags.value("--buffer-depth");
    let arbitration_spec = flags.value("--arbitration").unwrap_or("random");
    let engine_spec = flags.value("--engine").unwrap_or("cycle");
    let evaluator_spec = flags.value("--evaluator").unwrap_or("sim");
    let format_spec = flags.value("--format").unwrap_or("csv");
    let replications: u32 = flags.parse("--replications", 4);
    let cycles: u64 = flags.parse("--cycles", 50_000);
    let warmup: u64 = flags.parse("--warmup", 5_000);
    let seed: u64 = flags.parse("--seed", 0x1985_0414);
    let serial = flags.switch("--serial");
    let ci_width_spec = flags.value("--ci-width");
    let max_reps: u32 = flags.parse("--max-reps", replications.max(1));
    let workloads = workload_flags(&mut flags);
    let buses_spec = flags.value("--buses").unwrap_or("1");
    let screen_spec = flags.value("--screen");
    let screen_tol: f64 = flags.parse("--screen-tol", 0.05);
    let cache_dir_spec = flags.value("--cache-dir");
    let supervisor = supervisor_flags(&mut flags);
    let resume = flags.switch("--resume");
    let fault_plan_spec = flags.value("--fault-plan");
    flags.finish().map_err(usage_hint)?;

    let (n, m, r) = match (parse_u32_spec(n_spec), parse_u32_spec(m_spec), parse_u32_spec(r_spec)) {
        (Ok(n), Ok(m), Ok(r)) => (n, m, r),
        (n, m, r) => {
            return Err([n.err(), m.err(), r.err()]
                .into_iter()
                .flatten()
                .collect::<Vec<_>>()
                .join("\n"))
        }
    };
    let p = parse_number_list(p_spec)?;
    let policies = match policy_spec {
        "both" => vec![BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority],
        other => vec![BusPolicy::from_name(other)
            .ok_or_else(|| format!("bad --policy `{other}` (expected proc|mem|both)"))?],
    };
    let bufferings = match (buffering_spec, depth_spec) {
        (Some(_), Some(_)) => {
            return Err("--buffering and --buffer-depth are mutually exclusive".to_owned())
        }
        (None, None) => vec![Buffering::Unbuffered],
        (Some("both"), None) => vec![Buffering::Unbuffered, Buffering::Buffered],
        (Some(other), None) => vec![Buffering::from_name(other).ok_or_else(|| {
            format!("bad --buffering `{other}` (expected unbuffered|buffered|depthK|infinite|both)")
        })?],
        (None, Some(spec)) => spec.split(',').map(parse_buffer_depth).collect::<Result<_, _>>()?,
    };
    let arbitrations: Vec<ArbitrationKind> = if arbitration_spec == "all" {
        ArbitrationKind::ALL.to_vec()
    } else {
        arbitration_spec
            .split(',')
            .map(|name| {
                ArbitrationKind::from_name(name).ok_or_else(|| {
                    format!(
                        "bad --arbitration `{name}` (expected random|round-robin|lru|priority|all)"
                    )
                })
            })
            .collect::<Result<_, _>>()?
    };
    let engine = EngineKind::from_name(engine_spec)
        .ok_or_else(|| format!("bad --engine `{engine_spec}` (expected cycle|event)"))?;
    let format = match format_spec {
        "csv" => SweepFormat::Csv,
        "json" => SweepFormat::Json,
        other => return Err(format!("bad --format `{other}` (expected csv|json)")),
    };
    let kinds: Vec<EvaluatorKind> = evaluator_spec
        .split(',')
        .map(|name| {
            EvaluatorKind::from_name(name)
                .ok_or_else(|| format!("unknown evaluator `{name}`; try `busnet list`"))
        })
        .collect::<Result<_, _>>()?;

    let workloads = workloads?;
    let buses = parse_u32_spec(buses_spec)?;
    let screen: Option<ScreenPlan> = match screen_spec {
        None => None,
        Some("fluid") => {
            if !(screen_tol.is_finite() && screen_tol > 0.0) {
                return Err(format!("bad --screen-tol `{screen_tol}` (expected > 0)"));
            }
            Some(ScreenPlan { tolerance: screen_tol, ..ScreenPlan::default() })
        }
        Some(other) => return Err(format!("bad --screen `{other}` (expected fluid)")),
    };
    let supervisor = supervisor?;
    // Deterministic fault injection: an explicit `--fault-plan` wins,
    // else the `BUSNET_FAULT_PLAN` environment variable arms the same
    // sites (so CI chaos jobs can wrap unmodified invocations).
    let faults = match fault_plan_spec {
        Some(spec) => {
            FaultPlan::parse(spec).map_err(|e| format!("bad --fault-plan `{spec}`: {e}"))?
        }
        None => FaultPlan::from_env(),
    };
    if faults.is_some() {
        // Injected panics are expected control flow under a fault plan;
        // keep the default hook's backtrace noise for real panics only.
        silence_injected_panics();
    }
    if resume && cache_dir_spec.is_none() {
        return Err("--resume needs --cache-dir (the journal is the checkpoint)".to_owned());
    }
    // The evaluation memo cache: in-memory dedup is always on inside
    // `run_sweep_with`; `--cache-dir` additionally persists results to
    // a JSON-lines journal so a re-run of the same grid replays from
    // disk without touching an evaluator. `--resume` is the same
    // machinery made explicit: completed points replay byte-identically
    // from the journal and the sweep continues from the first missing
    // unit (a torn trailing line from a killed run is recovered on
    // load).
    let cache = match cache_dir_spec {
        None => None,
        Some(dir) => Some(
            EvalCache::with_dir_faulted(std::path::Path::new(dir), faults.clone())
                .map_err(|e| format!("cannot open --cache-dir `{dir}`: {e}"))?,
        ),
    };
    if resume {
        let loaded = cache.as_ref().map_or(0, |c| c.stats().loaded);
        eprintln!("# resume: {loaded} completed point(s) loaded from the journal");
    }

    let grid = ScenarioGrid::new()
        .n_values(n)
        .m_values(m)
        .r_values(r)
        .p_values(p)
        .policies(policies)
        .bufferings(bufferings)
        .arbitrations(arbitrations)
        .workloads(workloads)
        .buses_values(buses);
    let scenarios = grid.scenarios().map_err(|e| format!("invalid sweep point: {e}"))?;

    let stopping = match ci_width_spec.map(parse_ci_width).transpose()? {
        None => Stopping::Fixed,
        Some(ci_width) => Stopping::Adaptive { ci_width, max_reps },
    };

    // The sweep scheduler fans out (scenario × evaluator × replication)
    // work units over the work-stealing pool; `--serial` collapses it
    // for timing comparisons.
    let sweep_mode = if serial { ExecutionMode::Serial } else { ExecutionMode::Parallel };
    let budget = SimBudget {
        replications,
        warmup,
        measure: cycles,
        master_seed: seed,
        mode: ExecutionMode::Serial,
        engine,
        stopping,
    };
    let evaluators: Vec<Box<dyn Evaluator>> = kinds.iter().map(|k| k.build(budget)).collect();
    let refs: Vec<&dyn Evaluator> = evaluators.iter().map(AsRef::as_ref).collect();

    // Rows accumulate in a buffered writer: one kernel write per
    // block, not per record (the per-row `println!` flushes measurably
    // dominated large grids when stdout was a pipe).
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::with_capacity(64 * 1024, stdout.lock());
    let mut line = String::with_capacity(512);
    if format == SweepFormat::Csv {
        row::csv_header(&row::SWEEP, &mut line);
        writeln!(out, "{line}").expect("stdout closed");
    }
    // Live progress only when stderr is a terminal; piped stderr gets
    // just the skip reports and the final summary. Throttled to every
    // 16th record (and the last) so the progress path does no per-point
    // formatting work on large grids.
    let live_progress = std::io::IsTerminal::is_terminal(&std::io::stderr());
    let start = Instant::now();
    // The CLI always runs supervised: every work unit is isolated
    // behind `catch_unwind` with the retry/fallback policy, so a
    // single pathological point cannot take down the whole sweep.
    let options = SweepOptions {
        screen: screen.as_ref(),
        cache: cache.as_ref(),
        supervise: Some(&supervisor),
        faults: faults.as_ref(),
        ..SweepOptions::new(sweep_mode)
    };
    let records = run_sweep_with(&scenarios, &refs, &options, |done, total, record| {
        emit_record(record, format, &mut line, &mut out);
        if live_progress && (done % 16 == 0 || done == total) {
            eprint!("\r# {done}/{total} points");
        }
    });
    out.flush().expect("stdout closed");
    drop(out);
    let evaluated = records.iter().filter(|r| record_outcome(r).0).count();
    let failed = records.iter().filter(|r| record_outcome(r).1).count();
    let screened = records.iter().filter(|r| r.screened).count();
    let degraded = records.iter().filter(|r| r.status == UnitStatus::Degraded).count();
    eprintln!(
        "{}# swept {} points x {} evaluators: {evaluated} evaluated ({screened} screened, \
         {degraded} degraded), {} out of domain, {failed} failed, {:.2}s",
        if live_progress { "\r" } else { "" },
        scenarios.len(),
        refs.len(),
        records.len() - evaluated - failed,
        start.elapsed().as_secs_f64()
    );
    if let Some(plan) = &faults {
        let stats = plan.stats();
        eprintln!(
            "# faults [{}]: {} injected ({} unit panic(s), {} unit delay(s), {} journal append \
             error(s), {} journal load error(s))",
            plan.spec(),
            stats.total(),
            stats.panics,
            stats.delays,
            stats.append_errors,
            stats.load_errors
        );
    }
    if let Some(cache) = &cache {
        let stats = cache.stats();
        let replayed = records.iter().filter(|r| r.cached).count();
        eprintln!(
            "# cache: {replayed} record(s) replayed; {} hit(s), {} miss(es), {} loaded from \
             disk, {} appended",
            stats.hits, stats.misses, stats.loaded, stats.appended
        );
        if stats.skipped > 0 {
            eprintln!("# cache: {} malformed/foreign journal line(s) skipped", stats.skipped);
        }
    }
    if failed > 0 {
        return Err(format!("# {failed} evaluation(s) failed hard"));
    }
    if evaluated == 0 {
        return Err("# no scenario/evaluator pair was in domain; nothing evaluated".to_owned());
    }
    Ok(ExitCode::SUCCESS)
}

/// The process-wide shutdown latch: flipped by SIGTERM/SIGINT, polled
/// by the serve accept loop so a signal turns into a graceful drain.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_sig: i32) {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs `on_shutdown_signal` for SIGTERM and SIGINT. This is the
/// binary's single unsafe dependency on the C runtime; the handler
/// only stores to an atomic (async-signal-safe).
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
        signal(SIGINT, on_shutdown_signal as *const () as usize);
    }
}

/// One serve-mode client connection: read request lines until EOF,
/// submitting each to the shared broker. Replies go through the
/// connection's locked line sink — immediately for errors/stats, on
/// batch completion for evaluations — so concurrent completions never
/// interleave mid-line.
fn serve_connection(input: impl std::io::Read, output: Box<dyn Write + Send>, broker: &Broker) {
    use std::io::BufRead;
    let sink: std::sync::Arc<ReplySink> = std::sync::Arc::new(LineSink::new(output));
    for line in std::io::BufReader::new(input).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Ok(Request::Eval(req)) => broker.submit(req, &sink),
            Ok(Request::Stats { id }) => {
                let _ = sink.writeln(&broker.stats_line(&id));
            }
            // A bad line costs one error reply, never the connection.
            Err(err) => {
                let _ = sink.writeln(&err.line());
            }
        }
    }
    // Dropping our sink reference does not close the stream while the
    // broker still owes this connection replies: each pending waiter
    // holds its own Arc, so the write half lives until the last reply
    // is written.
}

/// Where a serve session listens (or a request client connects).
enum Endpoint {
    Unix(String),
    Tcp(String),
}

fn parse_endpoint(unix: Option<&str>, tcp: Option<&str>) -> Result<Endpoint, String> {
    match (unix, tcp) {
        (Some(path), None) => Ok(Endpoint::Unix(path.to_owned())),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr.to_owned())),
        (Some(_), Some(_)) => Err("--unix and --tcp are mutually exclusive".to_owned()),
        (None, None) => Err("one of --unix PATH or --tcp ADDR is required".to_owned()),
    }
}

/// `busnet serve`: the always-on batch evaluation service. Accepts
/// JSON-line requests over a Unix or TCP socket, funnels every client
/// through one shared [`Broker`] (dedup against the memo cache,
/// coalescing of identical in-flight points, per-configuration
/// batching on a bounded pool, supervised execution), and drains
/// gracefully on SIGTERM: in-flight batches finish and every owed
/// reply is written before exit.
fn run_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::new(args);
    let unix_spec = flags.value("--unix");
    let tcp_spec = flags.value("--tcp");
    let cache_dir_spec = flags.value("--cache-dir");
    let threads: usize = flags.parse("--threads", 2);
    let queue_depth: usize = flags.parse("--queue-depth", 256);
    let supervisor = supervisor_flags(&mut flags);
    flags.finish().map_err(usage_hint)?;
    let endpoint = parse_endpoint(unix_spec, tcp_spec)?;
    let supervisor = supervisor?;
    let cache = match cache_dir_spec {
        Some(dir) => EvalCache::with_dir(std::path::Path::new(dir))
            .map_err(|e| format!("cannot open cache dir `{dir}`: {e}"))?,
        None => EvalCache::new(),
    };
    let broker = std::sync::Arc::new(Broker::new(
        std::sync::Arc::new(cache),
        BrokerConfig { threads, queue_depth, supervisor, mode: ExecutionMode::Serial },
    ));
    install_shutdown_handler();

    let nonblocking = |_| "cannot set the listener nonblocking".to_owned();
    match endpoint {
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .map_err(|e| format!("cannot bind unix socket `{path}`: {e}"))?;
            listener.set_nonblocking(true).map_err(nonblocking)?;
            accept_until_shutdown(
                &broker,
                &format!("unix:{path}"),
                || listener.accept().map(|(s, _)| s),
                |s| s.try_clone(),
            );
            drop(listener);
            let _ = std::fs::remove_file(&path);
        }
        Endpoint::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .map_err(|e| format!("cannot bind tcp address `{addr}`: {e}"))?;
            listener.set_nonblocking(true).map_err(nonblocking)?;
            accept_until_shutdown(
                &broker,
                &format!("tcp:{addr}"),
                || listener.accept().map(|(s, _)| s),
                |s| s.try_clone(),
            );
        }
    }
    // Graceful drain: flush pending points through their batches and
    // write every owed reply before exiting. Connections still blocked
    // in read die with the process.
    eprintln!("# shutdown: draining in-flight batches");
    broker.drain();
    let c = broker.counters();
    eprintln!(
        "# served {} request(s): {} evaluated, {} coalesced, {} cache replies, {} shed",
        c.requests, c.evaluated, c.coalesced, c.cache_replies, c.overloaded
    );
    Ok(ExitCode::SUCCESS)
}

/// The serve accept loop on the listener at `label`: runs until the
/// SIGTERM latch flips, giving each accepted connection its own reader
/// thread (and `try_clone`'s copy of the stream as its reply writer).
/// `accept` is nonblocking so the latch is polled between accepts.
fn accept_until_shutdown<S: std::io::Read + Write + Send + 'static>(
    broker: &std::sync::Arc<Broker>,
    label: &str,
    accept: impl Fn() -> std::io::Result<S>,
    try_clone: impl Fn(&S) -> std::io::Result<S>,
) {
    println!("# serving on {label}");
    let _ = std::io::stdout().flush();
    let poll = std::time::Duration::from_millis(25);
    while !SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
        match accept() {
            Ok(stream) => {
                let broker = std::sync::Arc::clone(broker);
                let Ok(writer) = try_clone(&stream) else { continue };
                std::thread::spawn(move || serve_connection(stream, Box::new(writer), &broker));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(poll),
            Err(e) => {
                eprintln!("# accept failed: {e}");
                std::thread::sleep(poll);
            }
        }
    }
}

/// `busnet request`: a line-oriented client for `busnet serve`. Sends
/// every nonempty stdin line as a request, half-closes the write side,
/// and copies reply lines to stdout until the server has answered them
/// all (the connection closes once the last owed reply is written).
fn run_request(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::new(args);
    let unix_spec = flags.value("--unix");
    let tcp_spec = flags.value("--tcp");
    flags.finish().map_err(usage_hint)?;
    fn roundtrip(
        mut write_half: impl Write,
        read_half: impl std::io::Read,
        half_close: impl FnOnce() -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        use std::io::BufRead;
        let stdin = std::io::stdin();
        let mut batch = String::new();
        for line in stdin.lock().lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            batch.push_str(&line);
            batch.push('\n');
        }
        write_half.write_all(batch.as_bytes())?;
        write_half.flush()?;
        let _ = half_close();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for reply in std::io::BufReader::new(read_half).lines() {
            let reply = reply?;
            out.write_all(reply.as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()
    }
    let write_close = std::net::Shutdown::Write;
    let result = match parse_endpoint(unix_spec, tcp_spec)? {
        Endpoint::Unix(path) => {
            let stream = std::os::unix::net::UnixStream::connect(&path)
                .map_err(|e| format!("cannot connect to unix socket `{path}`: {e}"))?;
            roundtrip(&stream, &stream, || stream.shutdown(write_close))
        }
        Endpoint::Tcp(addr) => {
            let stream = std::net::TcpStream::connect(&addr)
                .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
            roundtrip(&stream, &stream, || stream.shutdown(write_close))
        }
    };
    result.map(|()| ExitCode::SUCCESS).map_err(|e| format!("request round trip failed: {e}"))
}

/// A fast sanity pass for CI: a handful of Table 3/4-style points on
/// the event engine, gated by a pinned **event budget** per scenario —
/// a portable proxy for wall-clock regressions. The event engine
/// executes O(activity) events (≈ 4 per round trip plus think timers
/// and blocked-service rechecks); a regression that reintroduces
/// per-idle-cycle work blows the budget by ~`(r + 2)/p`×.
fn run_bench_smoke() -> ExitCode {
    let grid = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8, 24])
        .p_values([0.2, 1.0])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered]);
    let scenarios = grid.scenarios().expect("static grid is valid");
    let mut failures = 0u32;
    for scenario in &scenarios {
        let report = BusSimBuilder::new(scenario.params)
            .buffering(scenario.buffering)
            .engine(EngineKind::Event)
            .seed(0x5EED)
            .warmup_cycles(1_000)
            .measure_cycles(10_000)
            .run();
        // Returns are measured-window only; scale to the whole run and
        // allow 8 events per return (4 needed + headroom for blocked
        // rechecks), plus per-entity slack for dropped think timers.
        let total = 1_000 + 10_000u64;
        let scaled_returns = report.returns * total / report.measured_cycles;
        let budget = 8 * scaled_returns + 4 * u64::from(scenario.params.n()) + 64;
        let ok = report.events <= budget;
        println!(
            "# smoke {}: events {} budget {budget} returns {} -> {}",
            scenario.label(),
            report.events,
            report.returns,
            if ok { "ok" } else { "OVER BUDGET" },
        );
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("# smoke: {failures} scenario(s) exceeded the pinned event budget");
        return ExitCode::FAILURE;
    }
    println!("# smoke: all {} scenarios within the event budget", scenarios.len());

    // Screening slice: the fluid pre-pass must keep saving simulated
    // events on the Table 3-4 grid (with its p axis) at equal CI width.
    let screen_grid = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8])
        .p_values([0.2, 1.0])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid");
    let screen_budget = SimBudget {
        replications: 2,
        warmup: 1_000,
        measure: 10_000,
        master_seed: 0x5EED,
        mode: ExecutionMode::Serial,
        engine: EngineKind::Event,
        stopping: Stopping::Fixed,
    }
    .with_ci_width(0.05, 8);
    let screen_sim = busnet::core::scenario::BusSimEval::new(screen_budget);
    let screen_evaluators: [&dyn Evaluator; 1] = [&screen_sim];
    let plain = run_sweep(&screen_grid, &screen_evaluators, ExecutionMode::Serial, |_, _, _| {});
    let screened = run_sweep_screened(
        &screen_grid,
        &screen_evaluators,
        ExecutionMode::Serial,
        Some(&ScreenPlan::default()),
        |_, _, _| {},
    );
    let events = |records: &[SweepRecord]| -> u64 {
        records.iter().filter_map(|r| r.result.as_ref().ok().map(|e| e.simulated_events())).sum()
    };
    let plain_events = events(&plain);
    let screened_events = events(&screened);
    let screened_points = screened.iter().filter(|r| r.screened).count();
    let savings = 1.0 - screened_events as f64 / plain_events as f64;
    println!(
        "# smoke screening: {screened_points}/{} points screened, {plain_events} -> \
         {screened_events} events ({:.1}% fewer)",
        screen_grid.len(),
        savings * 100.0
    );
    if screened_points == 0 || savings < 0.25 {
        eprintln!(
            "# smoke: fluid screening saved only {:.1}% (< 25%) of simulated events",
            savings * 100.0
        );
        return ExitCode::FAILURE;
    }

    // Amortization slice: the population-axis sweep must do O(R)
    // recursion steps (one warm-started solver pass), not the scratch
    // triangle R(R+1)/2. Serial mode keeps every solver call on this
    // thread, where the thread-local iteration counter meters exactly.
    let r = 64u32;
    let amort_grid = ScenarioGrid::new()
        .n_values((1..=r).collect::<Vec<_>>())
        .m_values([8])
        .r_values([8])
        .bufferings([Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid");
    let mva = PfqnEval { algorithm: PfqnAlgorithm::Mva };
    let amort_evaluators: [&dyn Evaluator; 1] = [&mva];
    let meter = |options: &SweepOptions| -> u64 {
        let before = busnet::queueing::solver_iterations();
        run_sweep_with(&amort_grid, &amort_evaluators, options, |_, _, _| {});
        busnet::queueing::solver_iterations() - before
    };
    let incremental = meter(&SweepOptions::new(ExecutionMode::Serial));
    let scratch = meter(&SweepOptions {
        group_incremental: false,
        ..SweepOptions::new(ExecutionMode::Serial)
    });
    let triangle = u64::from(r) * u64::from(r + 1) / 2;
    println!(
        "# smoke amortization: R={r} population sweep, incremental {incremental} solver \
         iterations vs scratch {scratch} (triangle {triangle})"
    );
    if incremental != u64::from(r) || scratch != triangle {
        eprintln!(
            "# smoke: incremental sweep did {incremental} solver iterations (want {r}), \
             scratch did {scratch} (want {triangle})"
        );
        return ExitCode::FAILURE;
    }

    // Cache slice: a warm re-run of a simulated sweep must replay every
    // record from the memo cache — zero evaluator calls, zero events.
    let cache_grid = ScenarioGrid::new()
        .n_values([4, 8])
        .m_values([8])
        .r_values([8])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid");
    let cache_sim = busnet::core::scenario::BusSimEval::new(SimBudget {
        replications: 2,
        warmup: 1_000,
        measure: 10_000,
        master_seed: 0x5EED,
        mode: ExecutionMode::Serial,
        engine: EngineKind::Event,
        stopping: Stopping::Fixed,
    });
    let cache_evaluators: [&dyn Evaluator; 1] = [&cache_sim];
    let cache = EvalCache::new();
    let cached_options =
        SweepOptions { cache: Some(&cache), ..SweepOptions::new(ExecutionMode::Serial) };
    let cold = run_sweep_with(&cache_grid, &cache_evaluators, &cached_options, |_, _, _| {});
    let misses_after_cold = cache.stats().misses;
    let warm = run_sweep_with(&cache_grid, &cache_evaluators, &cached_options, |_, _, _| {});
    let cold_events = events(&cold);
    let replayed = warm.iter().filter(|r| r.cached).count();
    println!(
        "# smoke cache: cold run simulated {cold_events} events across {} pairs; warm re-run \
         replayed {replayed} record(s) with {} evaluator call(s)",
        cold.len(),
        cache.stats().misses - misses_after_cold
    );
    if replayed != warm.len() || cache.stats().misses != misses_after_cold {
        eprintln!("# smoke: warm cached re-run was not a full replay");
        return ExitCode::FAILURE;
    }

    // MMPP slice: phase boundaries add O(cycles / dwell) work, not
    // per-cycle work, so bursty event throughput (events/second) must
    // stay within 15% of the stationary baseline on the same grid. The
    // gate reads the median of interleaved per-pair ratios.
    let mmpp_slice = |workloads: Vec<Workload>| -> (f64, u64) {
        let slice = ScenarioGrid::new()
            .n_values([8])
            .m_values([8, 16])
            .r_values([8])
            .p_values([1.0])
            .bufferings([Buffering::Unbuffered, Buffering::Buffered])
            .workloads(workloads)
            .scenarios()
            .expect("static grid is valid");
        let sim = busnet::core::scenario::BusSimEval::new(SimBudget {
            replications: 2,
            warmup: 1_000,
            measure: 50_000,
            master_seed: 0x5EED,
            mode: ExecutionMode::Serial,
            engine: EngineKind::Event,
            stopping: Stopping::Fixed,
        });
        let evaluators: [&dyn Evaluator; 1] = [&sim];
        let start = Instant::now();
        let records = run_sweep(&slice, &evaluators, ExecutionMode::Serial, |_, _, _| {});
        (start.elapsed().as_secs_f64(), events(&records))
    };
    let burst = Workload::on_off_burst(1.0, 0.1, 0.9, 500, None).expect("valid burst");
    let (mut stationary_events, mut bursty_events) = (0, 0);
    let mmpp_ratios = interleaved_ratios(
        || {
            let (secs, events) = mmpp_slice(vec![Workload::Uniform]);
            stationary_events = events;
            events as f64 / secs
        },
        || {
            let (secs, events) = mmpp_slice(vec![burst.clone()]);
            bursty_events = events;
            events as f64 / secs
        },
    );
    let mmpp_ratio = mmpp_ratios[mmpp_ratios.len() / 2];
    println!(
        "# smoke mmpp: stationary {stationary_events} events, bursty {bursty_events} events, \
         {} interleaved pairs -> median {mmpp_ratio:.2}x event throughput (pair range \
         {:.2}x..{:.2}x)",
        mmpp_ratios.len(),
        mmpp_ratios[0],
        mmpp_ratios[mmpp_ratios.len() - 1],
    );
    if mmpp_ratio < 0.85 {
        eprintln!(
            "# smoke: bursty event throughput {mmpp_ratio:.2}x of stationary (< 0.85x floor)"
        );
        return ExitCode::FAILURE;
    }

    // Supervision slice: the per-unit catch_unwind + retry/budget
    // plumbing must be bit-invisible in the results and cost <= 5%
    // event throughput on the Table 3-4 smoke grid, read as the median
    // of interleaved per-pair time ratios.
    let sup_grid = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8])
        .p_values([0.2, 1.0])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid");
    let sup_sim = busnet::core::scenario::BusSimEval::new(SimBudget {
        replications: 2,
        warmup: 1_000,
        measure: 50_000,
        master_seed: 0x5EED,
        mode: ExecutionMode::Serial,
        engine: EngineKind::Event,
        stopping: Stopping::Fixed,
    });
    let sup_evaluators: [&dyn Evaluator; 1] = [&sup_sim];
    let supervisor = Supervisor::default();
    let time_supervised = |supervise: bool| -> (f64, Vec<SweepRecord>) {
        let options = SweepOptions {
            supervise: supervise.then_some(&supervisor),
            ..SweepOptions::new(ExecutionMode::Serial)
        };
        let start = Instant::now();
        let records = run_sweep_with(&sup_grid, &sup_evaluators, &options, |_, _, _| {});
        (start.elapsed().as_secs_f64(), records)
    };
    let (mut bare_records, mut sup_records) = (Vec::new(), Vec::new());
    let (mut bare_total, mut sup_total) = (0.0, 0.0);
    let ratios = interleaved_ratios(
        || {
            let (secs, records) = time_supervised(false);
            (bare_records, bare_total) = (records, bare_total + secs);
            secs
        },
        || {
            let (secs, records) = time_supervised(true);
            (sup_records, sup_total) = (records, sup_total + secs);
            secs
        },
    );
    let sup_identical = bare_records
        .iter()
        .zip(&sup_records)
        .all(|(a, b)| matches!((&a.result, &b.result), (Ok(x), Ok(y)) if x == y));
    let sup_overhead = ratios[ratios.len() / 2] - 1.0;
    let pairs = ratios.len() as f64;
    println!(
        "# smoke supervised_vs_bare: bare {:.3}s, supervised {:.3}s (mean of {pairs} \
         interleaved pairs) -> median {:.1}% overhead (pair range {:.1}%..{:.1}%), \
         bit-identical: {sup_identical}",
        bare_total / pairs,
        sup_total / pairs,
        sup_overhead * 100.0,
        (ratios[0] - 1.0) * 100.0,
        (ratios[ratios.len() - 1] - 1.0) * 100.0,
    );
    if !sup_identical {
        eprintln!("# smoke: supervised sweep was not bit-identical to the bare sweep");
        return ExitCode::FAILURE;
    }
    if sup_overhead > 0.05 {
        eprintln!(
            "# smoke: supervision overhead {:.1}% exceeds the 5% throughput budget",
            sup_overhead * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Measures `a` and `b` in interleaved pairs, flipping which runs first
/// every pair, and returns the per-pair ratios `b / a`, sorted; the
/// count is odd, so the median is the middle entry. Noise or drift
/// that hits a minority of the pairs cannot move the median far, while
/// it can swing a one-sided best-of-N of either side.
fn interleaved_ratios(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Vec<f64> {
    const PAIRS: usize = 21;
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let first = a();
                b() / first
            } else {
                let second = b();
                second / a()
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios
}

/// Times `ops` schedule/pop churn cycles on an event queue, returning
/// seconds. Each op pops one event and schedules a replacement at a
/// pseudo-random delta within `horizon`.
fn time_queue_churn<Q>(
    queue: &mut Q,
    ops: u64,
    horizon: u64,
    schedule: fn(&mut Q, u64),
    pop: fn(&mut Q) -> u64,
) -> f64 {
    let mut state = 0x9E37_79B9u64;
    let mut now = 0u64;
    // Seed a small pending population.
    for _ in 0..32 {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        schedule(queue, now + (state >> 33) % horizon);
    }
    let start = Instant::now();
    for _ in 0..ops {
        now = pop(queue);
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        schedule(queue, now + (state >> 33) % horizon);
    }
    start.elapsed().as_secs_f64()
}

/// Fixed 32-point sweep timed serial vs parallel (on the engine chosen
/// with `--engine`), plus an event-vs-cycle engine comparison on a
/// large-`r`, low-`p` slice — the regime the event kernel exists for —
/// a timing-wheel vs binary-heap queue microbench, and an adaptive
/// (`--ci-width`) vs fixed-replication event-cost comparison at the
/// Table 3–4 points. Writes the JSON baseline consumed by
/// BENCH_sweep.json. `--smoke` instead runs the fast CI sanity pass
/// with a pinned per-scenario event budget.
fn run_bench_sweep(args: &[String]) -> ExitCode {
    let mut flags = Flags::new(args);
    let out: String = flags.parse("--out", "BENCH_sweep.json".to_owned());
    let engine_spec = flags.value("--engine").unwrap_or("cycle").to_owned();
    let smoke = flags.switch("--smoke");
    if let Err(e) = flags.finish() {
        eprintln!("{e}\nusage: busnet bench-sweep [--out FILE] [--engine cycle|event] [--smoke]");
        return ExitCode::FAILURE;
    }
    if smoke {
        return run_bench_smoke();
    }
    let Some(engine) = EngineKind::from_name(&engine_spec) else {
        eprintln!("bad --engine `{engine_spec}` (expected cycle|event)");
        return ExitCode::FAILURE;
    };

    // 32 points: m x r x buffering at n = 8 — the Table 3/4 style grid.
    let grid = ScenarioGrid::new()
        .n_values([8])
        .m_values([4, 8, 12, 16])
        .r_values([2, 6, 10, 14])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered]);
    let scenarios = grid.scenarios().expect("static grid is valid");
    assert_eq!(scenarios.len(), 32);
    let budget = SimBudget {
        replications: 4,
        warmup: 5_000,
        measure: 50_000,
        master_seed: 0x1985_0414,
        mode: ExecutionMode::Serial,
        engine,
        stopping: Stopping::Fixed,
    };
    let sim = busnet::core::scenario::BusSimEval::new(budget);
    let evaluators: [&dyn Evaluator; 1] = [&sim];

    let time = |mode: ExecutionMode| {
        let start = Instant::now();
        let records = run_sweep(&scenarios, &evaluators, mode, |_, _, _| {});
        let secs = start.elapsed().as_secs_f64();
        (secs, records)
    };
    eprintln!("# timing 32-point sweep ({} engine), serial...", engine.name());
    let (serial_secs, serial_records) = time(ExecutionMode::Serial);
    eprintln!("# serial: {serial_secs:.2}s; parallel...");
    let (parallel_secs, parallel_records) = time(ExecutionMode::Parallel);
    let identical =
        serial_records.iter().zip(&parallel_records).all(|(a, b)| match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => x == y,
            _ => false,
        });
    let threads = ExecutionMode::Parallel.threads();
    let speedup = serial_secs / parallel_secs;
    eprintln!(
        "# parallel: {parallel_secs:.2}s on {threads} threads -> {speedup:.2}x, bit-identical: {identical}"
    );

    // Event-vs-cycle slice: large r, low p, where idle cycles dominate
    // and the event kernel's time-to-next-event pays off.
    let slice = ScenarioGrid::new()
        .n_values([8])
        .m_values([4, 8, 16])
        .r_values([16, 24, 32])
        .p_values([0.1, 0.2])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid");
    eprintln!("# timing {}-point large-r/low-p slice, cycle vs event engine...", slice.len());
    let time_engine = |engine: EngineKind| {
        let sim = busnet::core::scenario::BusSimEval::new(budget.with_engine(engine));
        let evaluators: [&dyn Evaluator; 1] = [&sim];
        let start = Instant::now();
        let records = run_sweep(&slice, &evaluators, ExecutionMode::Serial, |_, _, _| {});
        (start.elapsed().as_secs_f64(), records)
    };
    let (cycle_secs, cycle_records) = time_engine(EngineKind::Cycle);
    let (event_secs, event_records) = time_engine(EngineKind::Event);
    let engine_speedup = cycle_secs / event_secs;
    // The engines use independent RNG streams: their estimates agree
    // statistically, not bitwise. Record the worst relative gap.
    let max_rel_gap = cycle_records
        .iter()
        .zip(&event_records)
        .filter_map(|(a, b)| match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => Some(((x.ebw() - y.ebw()) / x.ebw()).abs()),
            _ => None,
        })
        .fold(0.0f64, f64::max);
    eprintln!(
        "# cycle: {cycle_secs:.2}s, event: {event_secs:.2}s -> {engine_speedup:.2}x, \
         max relative EBW gap {max_rel_gap:.4}"
    );

    // Hot-spot vs uniform workload cost on the event engine: the
    // alias-table module draw is O(1) regardless of skew, so the
    // non-uniform path must stay within ~10% of uniform *event
    // throughput* (events/second — the two runs execute different
    // event counts, since a hot spot throttles completions).
    eprintln!("# timing hot-spot vs uniform workload slice (event engine)...");
    let workload_slice = |workloads: Vec<busnet::core::params::Workload>| {
        let slice = ScenarioGrid::new()
            .n_values([8])
            .m_values([8, 16])
            .r_values([8, 16])
            .p_values([0.2, 1.0])
            .bufferings([Buffering::Unbuffered, Buffering::Buffered])
            .workloads(workloads)
            .scenarios()
            .expect("static grid is valid");
        let sim = busnet::core::scenario::BusSimEval::new(budget.with_engine(EngineKind::Event));
        let evaluators: [&dyn Evaluator; 1] = [&sim];
        let start = Instant::now();
        let records = run_sweep(&slice, &evaluators, ExecutionMode::Serial, |_, _, _| {});
        let secs = start.elapsed().as_secs_f64();
        let events: u64 = records
            .iter()
            .filter_map(|r| r.result.as_ref().ok().map(|e| e.simulated_events()))
            .sum();
        (secs, events)
    };
    let (uniform_secs, uniform_events) =
        workload_slice(vec![busnet::core::params::Workload::Uniform]);
    let (hotspot_secs, hotspot_events) = workload_slice(vec![
        busnet::core::params::Workload::hot_spot(0.2, 0).expect("valid fraction"),
    ]);
    let uniform_eps = uniform_events as f64 / uniform_secs;
    let hotspot_eps = hotspot_events as f64 / hotspot_secs;
    let workload_ratio = hotspot_eps / uniform_eps;
    eprintln!(
        "# uniform: {uniform_events} events in {uniform_secs:.2}s ({:.1}M ev/s); \
         hot-spot 0.2: {hotspot_events} events in {hotspot_secs:.2}s ({:.1}M ev/s) -> {workload_ratio:.2}x",
        uniform_eps / 1e6,
        hotspot_eps / 1e6
    );

    // Bursty (MMPP) vs uniform on the same slice: phase boundaries and
    // window telemetry must amortize to O(cycles / dwell), keeping
    // event throughput within 15% of stationary.
    eprintln!("# timing bursty (MMPP) vs uniform workload slice (event engine)...");
    let (mmpp_secs, mmpp_events) =
        workload_slice(vec![busnet::core::params::Workload::on_off_burst(
            1.0, 0.1, 0.9, 500, None,
        )
        .expect("valid burst")]);
    let mmpp_eps = mmpp_events as f64 / mmpp_secs;
    let mmpp_ratio = mmpp_eps / uniform_eps;
    eprintln!(
        "# bursty 1.0/0.1 stay 0.9 dwell 500: {mmpp_events} events in {mmpp_secs:.2}s \
         ({:.1}M ev/s) -> {mmpp_ratio:.2}x",
        mmpp_eps / 1e6
    );

    // The PR 3 (pre-timing-wheel) kernel's event_seconds on this
    // project's reference container — a host-specific constant kept
    // only so regenerated files carry the kernel-over-kernel
    // trajectory; the ratio is meaningless across different hardware.
    const PR3_EVENT_SECONDS_BASELINE: f64 = 0.119;

    // Queue microbench: timing wheel vs the reference binary heap at
    // short / typical / beyond-window horizons (in 2-phase keys).
    eprintln!("# timing queue churn, wheel vs heap...");
    let queue_ops = 2_000_000u64;
    let mut queue_json_parts = Vec::new();
    for horizon in [64u64, 1_024, 16_384] {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let wheel_secs = time_queue_churn(
            &mut wheel,
            queue_ops,
            horizon,
            |q, t| q.schedule(t, 0),
            |q| q.pop().expect("population stays positive").0,
        );
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        let heap_secs = time_queue_churn(
            &mut heap,
            queue_ops,
            horizon,
            |q, t| q.schedule(t, 0),
            |q| q.pop().expect("population stays positive").0,
        );
        eprintln!(
            "#   horizon {horizon}: wheel {:.1} ns/op, heap {:.1} ns/op -> {:.2}x",
            wheel_secs / queue_ops as f64 * 1e9,
            heap_secs / queue_ops as f64 * 1e9,
            heap_secs / wheel_secs
        );
        queue_json_parts.push(format!(
            "{{\"horizon\": {horizon}, \"wheel_ns_per_op\": {:.1}, \"heap_ns_per_op\": {:.1}, \
             \"speedup\": {:.2}}}",
            wheel_secs / queue_ops as f64 * 1e9,
            heap_secs / queue_ops as f64 * 1e9,
            heap_secs / wheel_secs
        ));
    }

    // Adaptive vs fixed event cost at the Table 3–4 points: target the
    // fixed scheme's own achieved precision, count simulated events.
    eprintln!("# adaptive --ci-width vs fixed replications at the Table 3-4 points...");
    let t34 = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid");
    let fixed_budget = SimBudget { engine: EngineKind::Event, ..budget };
    let mut fixed_events = 0u64;
    let mut adaptive_events = 0u64;
    let mut widest_gap: f64 = 0.0;
    for scenario in &t34 {
        let fixed = busnet::core::scenario::BusSimEval::new(fixed_budget)
            .evaluate(scenario)
            .expect("in domain");
        let adaptive_budget = fixed_budget.with_ci_width(fixed.half_width_95.max(1e-9), 16);
        let adaptive = busnet::core::scenario::BusSimEval::new(adaptive_budget)
            .evaluate(scenario)
            .expect("in domain");
        let fe = fixed.simulated_events();
        let ae = adaptive.simulated_events();
        fixed_events += fe;
        adaptive_events += ae;
        widest_gap = widest_gap.max(adaptive.half_width_95 - fixed.half_width_95);
        eprintln!(
            "#   {}: fixed {} events (hw {:.4}), adaptive {} events (hw {:.4})",
            scenario.label(),
            fe,
            fixed.half_width_95,
            ae,
            adaptive.half_width_95
        );
    }
    let event_savings = 1.0 - adaptive_events as f64 / fixed_events as f64;
    eprintln!(
        "# adaptive uses {:.1}% fewer events at matched CI width (max width excess {widest_gap:.5})",
        event_savings * 100.0
    );

    // Fluid screening on top of the adaptive baseline: the Table 3–4
    // grid extended with its p axis, one adaptive evaluator at a fixed
    // CI target, with and without the `--screen fluid` pre-pass. Both
    // runs enforce the same half-width target, so the event savings
    // are measured at equal CI width.
    eprintln!("# fluid screening vs plain adaptive on the Table 3-4 grid (with p axis)...");
    let screen_grid = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8])
        .p_values([0.2, 1.0])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid");
    let screen_ci = 0.02;
    let screen_budget =
        SimBudget { engine: EngineKind::Event, ..budget }.with_ci_width(screen_ci, 16);
    let screen_sim = busnet::core::scenario::BusSimEval::new(screen_budget);
    let screen_evaluators: [&dyn Evaluator; 1] = [&screen_sim];
    let screen_plan = ScreenPlan::default();
    let plain_records =
        run_sweep(&screen_grid, &screen_evaluators, ExecutionMode::Serial, |_, _, _| {});
    let screened_records = run_sweep_screened(
        &screen_grid,
        &screen_evaluators,
        ExecutionMode::Serial,
        Some(&screen_plan),
        |_, _, _| {},
    );
    let sum_events = |records: &[SweepRecord]| -> u64 {
        records.iter().filter_map(|r| r.result.as_ref().ok().map(|e| e.simulated_events())).sum()
    };
    let max_width = |records: &[SweepRecord]| -> f64 {
        records
            .iter()
            .filter_map(|r| r.result.as_ref().ok().map(|e| e.half_width_95))
            .fold(0.0, f64::max)
    };
    let plain_screen_events = sum_events(&plain_records);
    let screened_events = sum_events(&screened_records);
    let screened_points = screened_records.iter().filter(|r| r.screened).count();
    let screening_savings = 1.0 - screened_events as f64 / plain_screen_events as f64;
    let plain_width = max_width(&plain_records);
    let screened_width = max_width(&screened_records);
    eprintln!(
        "# screening: {screened_points}/{} points screened; {plain_screen_events} -> \
         {screened_events} events ({:.1}% fewer), max CI width {plain_width:.4} -> \
         {screened_width:.4}",
        screen_grid.len(),
        screening_savings * 100.0
    );

    // Sweep amortization, analytic side: a population-axis sweep
    // re-solved from scratch at every point pays the triangular
    // R(R+1)/2 recursion; axis-incremental grouping warm-starts one
    // solver pass (exactly R steps). Individual sweeps finish in
    // microseconds, so both variants are looped for a stable clock.
    let amort_r = 128u32;
    let amort_rounds = 50u32;
    eprintln!(
        "# sweep amortization: incremental vs scratch population sweep \
         (R = {amort_r}, {amort_rounds} rounds)..."
    );
    let amort_grid = ScenarioGrid::new()
        .n_values((1..=amort_r).collect::<Vec<_>>())
        .m_values([16])
        .r_values([8])
        .bufferings([Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid");
    let mva = PfqnEval { algorithm: PfqnAlgorithm::Mva };
    let amort_evaluators: [&dyn Evaluator; 1] = [&mva];
    let time_amort = |options: &SweepOptions| -> (f64, u64) {
        let before = busnet::queueing::solver_iterations();
        let start = Instant::now();
        for _ in 0..amort_rounds {
            run_sweep_with(&amort_grid, &amort_evaluators, options, |_, _, _| {});
        }
        let secs = start.elapsed().as_secs_f64();
        (secs, (busnet::queueing::solver_iterations() - before) / u64::from(amort_rounds))
    };
    let (incr_secs, incr_iters) = time_amort(&SweepOptions::new(ExecutionMode::Serial));
    let (scratch_secs, scratch_iters) = time_amort(&SweepOptions {
        group_incremental: false,
        ..SweepOptions::new(ExecutionMode::Serial)
    });
    let amort_speedup = scratch_secs / incr_secs;
    eprintln!(
        "# amortization: scratch {scratch_secs:.3}s ({scratch_iters} solver iterations/sweep), \
         incremental {incr_secs:.3}s ({incr_iters}) -> {amort_speedup:.2}x"
    );
    if amort_speedup < 5.0 {
        eprintln!("# amortization: incremental sweep only {amort_speedup:.2}x faster (< 5x)");
        return ExitCode::FAILURE;
    }

    // Sweep amortization, cached side: re-running a simulated sweep
    // against a warm memo cache must replay every record without a
    // single evaluator call.
    eprintln!("# sweep amortization: cold vs warm cached simulated sweep...");
    let cache_grid = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid");
    let cache_sim = busnet::core::scenario::BusSimEval::new(budget.with_engine(EngineKind::Event));
    let cache_evaluators: [&dyn Evaluator; 1] = [&cache_sim];
    let cache = EvalCache::new();
    let cached_options =
        SweepOptions { cache: Some(&cache), ..SweepOptions::new(ExecutionMode::Serial) };
    let time_cached = || {
        let start = Instant::now();
        let records = run_sweep_with(&cache_grid, &cache_evaluators, &cached_options, |_, _, _| {});
        (start.elapsed().as_secs_f64(), records)
    };
    let (cold_secs, _cold_records) = time_cached();
    let misses_after_cold = cache.stats().misses;
    let (warm_secs, warm_records) = time_cached();
    let warm_misses = cache.stats().misses - misses_after_cold;
    let cache_speedup = cold_secs / warm_secs;
    eprintln!(
        "# cache: cold {cold_secs:.3}s, warm {warm_secs:.4}s -> {cache_speedup:.0}x, \
         {warm_misses} warm evaluator call(s)"
    );
    if warm_misses != 0 || !warm_records.iter().all(|r| r.cached) {
        eprintln!("# cache: warm re-run was not a full replay");
        return ExitCode::FAILURE;
    }

    // Supervision overhead on the 32-point grid: the serial run above
    // is the bare baseline; one supervised re-run (catch_unwind +
    // retry/budget plumbing, no faults) measures the isolation tax.
    eprintln!("# timing supervised re-run of the 32-point sweep (serial)...");
    let bench_supervisor = Supervisor::default();
    let supervised_options = SweepOptions {
        supervise: Some(&bench_supervisor),
        ..SweepOptions::new(ExecutionMode::Serial)
    };
    let sup_start = Instant::now();
    let supervised_records =
        run_sweep_with(&scenarios, &evaluators, &supervised_options, |_, _, _| {});
    let supervised_secs = sup_start.elapsed().as_secs_f64();
    let supervised_identical = serial_records
        .iter()
        .zip(&supervised_records)
        .all(|(a, b)| matches!((&a.result, &b.result), (Ok(x), Ok(y)) if x == y));
    let supervised_overhead = supervised_secs / serial_secs - 1.0;
    eprintln!(
        "# supervised: {supervised_secs:.2}s vs bare {serial_secs:.2}s -> {:.1}% overhead, \
         bit-identical: {supervised_identical}",
        supervised_overhead * 100.0
    );

    // Serve-mode dedup: a duplicate-heavy request stream (four
    // clients' worth of the same 16-point grid) through the broker.
    // Coalescing plus the memo cache must hold actual evaluations to
    // the unique-point count.
    eprintln!("# timing the serve broker over a duplicate-heavy request stream...");
    let serve_cache = std::sync::Arc::new(EvalCache::new());
    let broker = Broker::new(
        std::sync::Arc::clone(&serve_cache),
        BrokerConfig { threads, ..BrokerConfig::default() },
    );
    let serve_sink: std::sync::Arc<ReplySink> =
        std::sync::Arc::new(LineSink::new(Box::new(std::io::sink()) as Box<dyn Write + Send>));
    let serve_unique = 16u64;
    let serve_requests = 64u64;
    let serve_start = Instant::now();
    for i in 0..serve_requests {
        let n = 2 + (i % serve_unique) * 2;
        let line = format!(
            "{{\"id\":{i},\"scenario\":{{\"n\":{n},\"m\":16,\"r\":8,\
             \"buffering\":\"buffered\"}},\"evaluator\":\"pfqn\"}}"
        );
        match parse_request(&line) {
            Ok(Request::Eval(req)) => broker.submit(req, &serve_sink),
            other => {
                eprintln!("bench request failed to parse: {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    broker.drain();
    let serve_secs = serve_start.elapsed().as_secs_f64();
    let serve_counters = broker.counters();
    let serve_saved = 1.0 - serve_counters.evaluated as f64 / serve_counters.requests as f64;
    eprintln!(
        "# serve dedup: {} requests -> {} evaluated ({} coalesced, {} cache replies), \
         {:.0}% evaluator calls saved",
        serve_counters.requests,
        serve_counters.evaluated,
        serve_counters.coalesced,
        serve_counters.cache_replies,
        serve_saved * 100.0
    );
    if serve_saved < 0.5 {
        eprintln!("# FAIL: duplicate-heavy serve stream saved under 50% of evaluator calls");
        return ExitCode::FAILURE;
    }

    let host_cpus = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);

    let json = format!(
        "{{\n  \"benchmark\": \"32-point scenario sweep (n=8, m in 4..16, r in 2..14, both bufferings)\",\n  \
         \"engine\": \"{engine}\",\n  \
         \"host\": {{\n    \"os\": \"{host_os}\",\n    \"arch\": \"{host_arch}\",\n    \
         \"cpus\": {host_cpus},\n    \"worker_threads\": {threads}\n  }},\n  \
         \"replications\": 4,\n  \"measure_cycles\": 50000,\n  \"threads\": {threads},\n  \
         \"serial_seconds\": {serial_secs:.3},\n  \"parallel_seconds\": {parallel_secs:.3},\n  \
         \"speedup\": {speedup:.2},\n  \"bit_identical\": {identical},\n  \
         \"event_vs_cycle\": {{\n    \
         \"slice\": \"n=8, m in {{4,8,16}}, r in {{16,24,32}}, p in {{0.1,0.2}}, both bufferings\",\n    \
         \"points\": {points},\n    \"cycle_seconds\": {cycle_secs:.3},\n    \
         \"event_seconds\": {event_secs:.3},\n    \"speedup\": {engine_speedup:.2},\n    \
         \"max_rel_ebw_gap\": {max_rel_gap:.4},\n    \
         \"pr3_baseline_event_seconds\": {pr3_baseline},\n    \
         \"throughput_vs_pr3_baseline\": {vs_pr3:.2}\n  }},\n  \
         \"queue_vs_heap\": {{\n    \"ops\": {queue_ops},\n    \"runs\": [\n      {queue_runs}\n    ]\n  }},\n  \
         \"hotspot_vs_uniform\": {{\n    \
         \"slice\": \"n=8, m in {{8,16}}, r in {{8,16}}, p in {{0.2,1.0}}, both bufferings, event engine\",\n    \
         \"hot_fraction\": 0.2,\n    \
         \"uniform_seconds\": {uniform_secs:.3},\n    \"uniform_events\": {uniform_events},\n    \
         \"hotspot_seconds\": {hotspot_secs:.3},\n    \"hotspot_events\": {hotspot_events},\n    \
         \"event_throughput_ratio\": {workload_ratio:.3},\n    \
         \"acceptance\": \"non-uniform event throughput within 10% of uniform\"\n  }},\n  \
         \"mmpp_vs_uniform\": {{\n    \
         \"slice\": \"n=8, m in {{8,16}}, r in {{8,16}}, p in {{0.2,1.0}}, both bufferings, event engine\",\n    \
         \"burst\": \"on 1.0 / off 0.1, stay 0.9, dwell 500\",\n    \
         \"uniform_seconds\": {uniform_secs:.3},\n    \"uniform_events\": {uniform_events},\n    \
         \"mmpp_seconds\": {mmpp_secs:.3},\n    \"mmpp_events\": {mmpp_events},\n    \
         \"event_throughput_ratio\": {mmpp_ratio:.3},\n    \
         \"acceptance\": \"bursty event throughput within 15% of stationary uniform\"\n  }},\n  \
         \"adaptive_vs_fixed\": {{\n    \
         \"points\": \"Table 3-4 (n=8, m in {{8,16}}, r=8, p=1, both bufferings)\",\n    \
         \"fixed_events\": {fixed_events},\n    \"adaptive_events\": {adaptive_events},\n    \
         \"event_savings\": {event_savings:.3},\n    \"max_ci_width_excess\": {widest_gap:.6}\n  }},\n  \
         \"fluid_screening\": {{\n    \
         \"points\": \"Table 3-4 with p axis (n=8, m in {{8,16}}, r=8, p in {{0.2,1.0}}, both bufferings)\",\n    \
         \"ci_width\": {screen_ci},\n    \"screen_tol\": {screen_tol},\n    \
         \"adaptive_events\": {plain_screen_events},\n    \"screened_events\": {screened_events},\n    \
         \"screened_points\": {screened_points},\n    \"total_points\": {screen_points},\n    \
         \"event_savings\": {screening_savings:.3},\n    \
         \"max_ci_width_plain\": {plain_width:.6},\n    \"max_ci_width_screened\": {screened_width:.6},\n    \
         \"acceptance\": \"screening saves >= 25% of simulated events at equal CI width\"\n  }},\n  \
         \"sweep_amortization\": {{\n    \
         \"population_axis\": {{\n      \
         \"slice\": \"n in 1..={amort_r}, m=16, r=8, buffered, mva evaluator, {amort_rounds} rounds\",\n      \
         \"scratch_seconds\": {scratch_secs:.3},\n      \"incremental_seconds\": {incr_secs:.3},\n      \
         \"speedup\": {amort_speedup:.2},\n      \
         \"scratch_solver_iterations\": {scratch_iters},\n      \
         \"incremental_solver_iterations\": {incr_iters},\n      \
         \"acceptance\": \"incremental population sweep >= 5x faster than scratch at R = {amort_r}\"\n    }},\n    \
         \"eval_cache\": {{\n      \
         \"slice\": \"Table 3-4 (n=8, m in {{8,16}}, r=8, both bufferings), event engine\",\n      \
         \"cold_seconds\": {cold_secs:.3},\n      \"warm_seconds\": {warm_secs:.4},\n      \
         \"speedup\": {cache_speedup:.0},\n      \"warm_evaluator_calls\": {warm_misses},\n      \
         \"acceptance\": \"fully warm cached re-run performs zero evaluator calls\"\n    }}\n  }},\n  \
         \"supervised_vs_bare\": {{\n    \
         \"slice\": \"the 32-point grid above, serial, supervised (catch_unwind + retry/budget) vs bare\",\n    \
         \"bare_seconds\": {serial_secs:.3},\n    \"supervised_seconds\": {supervised_secs:.3},\n    \
         \"overhead\": {supervised_overhead:.4},\n    \"bit_identical\": {supervised_identical},\n    \
         \"acceptance\": \"supervision overhead <= 5% event throughput, results bit-identical\"\n  }},\n  \
         \"serve_dedup\": {{\n    \
         \"stream\": \"64 requests over 16 unique pfqn points (4 clients' worth of duplicates)\",\n    \
         \"requests\": {serve_requests},\n    \"unique_points\": {serve_unique},\n    \
         \"evaluated\": {serve_evaluated},\n    \"coalesced\": {serve_coalesced},\n    \
         \"cache_replies\": {serve_cache_replies},\n    \"seconds\": {serve_secs:.6},\n    \
         \"evaluator_calls_saved\": {serve_saved:.3},\n    \
         \"acceptance\": \"duplicate-heavy stream saves >= 50% of evaluator calls\"\n  }}\n}}\n",
        engine = engine.name(),
        host_os = std::env::consts::OS,
        host_arch = std::env::consts::ARCH,
        points = slice.len(),
        pr3_baseline = PR3_EVENT_SECONDS_BASELINE,
        vs_pr3 = PR3_EVENT_SECONDS_BASELINE / event_secs,
        queue_runs = queue_json_parts.join(",\n      "),
        serve_evaluated = serve_counters.evaluated,
        serve_coalesced = serve_counters.coalesced,
        serve_cache_replies = serve_counters.cache_replies,
        screen_tol = screen_plan.tolerance,
        screen_points = screen_grid.len(),
    );
    match std::fs::write(&out, &json) {
        Ok(()) => {
            println!("{json}");
            println!("# written to {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
