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
    run_sweep_with, Evaluator, EvaluatorKind, OnFailure, ScenarioGrid, ScreenPlan, SimBudget,
    Stopping, Supervisor, SweepOptions, SweepRecord, UnitStatus, ALL_EVALUATOR_KINDS,
};
use busnet::core::serve::{parse_request, Broker, BrokerConfig, ReplySink, Request};
use busnet::core::sim::bus::{AdaptiveOutcome, AdaptivePlan, BusSimBuilder, UnitBudget};
use busnet::core::CoreError;
use busnet::report::experiments::{Effort, ExperimentId, ALL_EXPERIMENTS};
use busnet::sim::event::EngineKind;
use busnet::sim::exec::ExecutionMode;
use busnet::sim::fault::{silence_injected_panics, FaultPlan};
use busnet::sim::sink::LineSink;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => exit_code(run_list(&args[1..])),
        Some("run") => exit_code(run_experiments(&args[1..])),
        Some("sim") => exit_code(run_sim(&args[1..])),
        Some("sweep") => exit_code(run_sweep_cmd(&args[1..])),
        Some("serve") => exit_code(run_serve(&args[1..])),
        Some("request") => exit_code(run_request(&args[1..])),
        _ => {
            eprintln!(
                "usage: busnet <list | run <experiment|all> [--quick] | sim ... | sweep ... | \
                 serve ... | request ...>\n\
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

/// Appended to a flag error of every subcommand.
fn usage_hint(e: String) -> String {
    format!("{e}\nrun `busnet` without arguments for usage")
}

fn run_list(args: &[String]) -> Result<ExitCode, String> {
    Flags::new(args).finish().map_err(usage_hint)?;
    println!("available experiments:");
    for id in ALL_EXPERIMENTS {
        println!("  {}", id.name());
    }
    println!("available evaluators (for `sweep --evaluator`):");
    for kind in ALL_EVALUATOR_KINDS {
        println!("  {}", kind.name());
    }
    Ok(ExitCode::SUCCESS)
}

fn run_experiments(args: &[String]) -> Result<ExitCode, String> {
    let Some(which) = args.first() else {
        return Err("usage: busnet run <experiment|all> [--quick]".to_owned());
    };
    let ids: Vec<ExperimentId> = if which == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else {
        let id = ExperimentId::from_name(which)
            .ok_or_else(|| format!("unknown experiment `{which}`; try `busnet list`"))?;
        vec![id]
    };
    let mut flags = Flags::new(&args[1..]);
    let effort = if flags.switch("--quick") { Effort::Quick } else { Effort::Paper };
    flags.finish().map_err(usage_hint)?;
    for id in ids {
        println!("================ {} ================", id.name());
        let text =
            id.run_rendered(effort).map_err(|e| format!("experiment {} failed: {e}", id.name()))?;
        println!("{text}");
    }
    Ok(ExitCode::SUCCESS)
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
