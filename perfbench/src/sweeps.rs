//! The two sweep workloads: `sim_sweep` (simulation engines) and
//! `model_sweep` (analytic evaluators).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use busnet_core::analytic::pfqn::pfqn_ebw_deterministic_workload;
use busnet_core::params::{Buffering, BusPolicy, Workload};
use busnet_core::scenario::{
    evaluator_calls, run_sweep_with, Evaluator, EvaluatorKind, Scenario, ScenarioGrid, SimBudget,
    Stopping, Supervisor, SweepOptions, SweepRecord, UnitStatus,
};
use busnet_core::CoreError;
use busnet_sim::event::EngineKind;
use busnet_sim::exec::ExecutionMode;

use crate::report::{fnv1a, median, quantile, Report};
use crate::rng::Rng;
use crate::trace::{covered_ns, Recorder, Span, SpanKind, Traced};
use crate::{alloc, Metrics};

/// Worker threads of the simulation sweep (the host's 2 CPUs).
const SIM_THREADS: usize = 2;
/// Largest population of the model sweep's main grid (`n = 1..=R`).
const MODEL_R: u32 = 16;
/// Set-up is timed in blocks of this many builds: one build takes a few
/// microseconds, too close to the timer and cache noise to time alone.
/// One block is timed before every timed pass, so the set-up figures
/// span the window as the pass times do; `setup_s` is the median
/// block's time per build.
const SETUP_BLOCK: usize = 200;
/// Untimed passes that track the heap for `peak_heap_mb`, made before
/// the timed passes.
const HEAP_PASSES: usize = 3;

/// One `run_sweep_with` call: a grid and the evaluators swept over it.
struct Part {
    scenarios: Vec<Scenario>,
    evaluators: Vec<Box<dyn Evaluator>>,
    /// Per evaluator: its label in per-layer metric names.
    labels: Vec<&'static str>,
    /// Per evaluator: warmup cycles per replication (simulators).
    warmups: Vec<u64>,
}

/// A sweep workload: one or more parts run back to back.
struct Sweep {
    parts: Vec<Part>,
    mode: ExecutionMode,
}

fn sim_budget(seed: u64, engine: EngineKind) -> SimBudget {
    SimBudget {
        replications: 2,
        warmup: 2_000,
        measure: 20_000,
        master_seed: seed,
        mode: ExecutionMode::Serial,
        engine,
        stopping: Stopping::Fixed,
    }
}

/// `sim_sweep`: a Table 3–4-style grid through both simulation engines.
fn build_sim(seed: u64) -> Sweep {
    let scenarios = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([4, 16, 32])
        .p_values([0.2, 1.0])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered, Buffering::Depth(4)])
        .workloads([Workload::Uniform, Workload::hot_spot(0.2, 0).expect("valid hot spot")])
        .scenarios()
        .expect("sim grid is valid");
    let budgets = [sim_budget(seed, EngineKind::Cycle), sim_budget(seed, EngineKind::Event)];
    Sweep {
        parts: vec![Part {
            scenarios,
            evaluators: budgets.iter().map(|b| EvaluatorKind::Sim.build(*b)).collect(),
            labels: vec!["sim-cycle", "sim-event"],
            warmups: budgets.iter().map(|b| b.warmup).collect(),
        }],
        mode: ExecutionMode::Threads(SIM_THREADS),
    }
}

fn analytic_part(kinds: &[EvaluatorKind], scenarios: Vec<Scenario>) -> Part {
    Part {
        scenarios,
        evaluators: kinds.iter().map(|k| k.build(SimBudget::quick())).collect(),
        labels: kinds.iter().map(|k| k.name()).collect(),
        warmups: vec![0; kinds.len()],
    }
}

/// `model_sweep`: every analytic evaluator, serially. Both priority
/// policies keep `approx` (memory priority only) in its domain. `exact`
/// and `multibus` get their own small grid (n, m <= 12): the multibus
/// chain becomes very slow long before the edge of its domain. The seed
/// shuffles the order of the points, which leaves the work unchanged.
fn build_model(seed: u64) -> Sweep {
    let mut rng = Rng::new(seed);
    let mut main = ScenarioGrid::new()
        .n_values((1..=MODEL_R).collect::<Vec<_>>())
        .m_values([8, 16, 32])
        .r_values([4, 8, 16])
        .policies([BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered, Buffering::Depth(4)])
        .scenarios()
        .expect("model grid is valid");
    let mut small = ScenarioGrid::new()
        .n_values((1..=12).collect::<Vec<_>>())
        .m_values([4, 8, 12])
        .r_values([4, 8])
        .policies([BusPolicy::MemoryPriority])
        .buses_values([1, 2, 4])
        .scenarios()
        .expect("small grid is valid");
    rng.shuffle(&mut main);
    rng.shuffle(&mut small);
    use EvaluatorKind::*;
    Sweep {
        parts: vec![
            analytic_part(&[Pfqn, PfqnBuzen, Approx, DepthApprox, Reduced, Fluid], main),
            analytic_part(&[Exact, Multibus], small),
        ],
        mode: ExecutionMode::Serial,
    }
}

/// What one pass over every part produced.
struct Pass {
    secs: f64,
    fingerprint: u64,
    /// Highest heap growth during the sweep calls, MiB (when tracked).
    peak_mb: f64,
    records: Vec<SweepRecord>,
    /// Per part: the `run_sweep_with` call's start and end.
    bounds: Vec<(u64, u64)>,
    calls: u64,
    solver_iterations: u64,
}

fn record_line(out: &mut String, r: &SweepRecord) {
    let _ = write!(out, "{}|{}|{}|", r.evaluator, r.scenario.label(), r.status.name());
    match &r.result {
        Ok(e) => {
            let m = &e.metrics;
            for v in [m.ebw, e.half_width_95, m.bus_utilization, m.processor_efficiency] {
                let _ = write!(out, "{:016x}|", v.to_bits());
            }
            let _ = writeln!(out, "{}|{}", e.replications, e.simulated_events);
        }
        Err(err) => {
            let _ = writeln!(out, "{err}");
        }
    }
}

fn run_pass(w: &Sweep, rec: &Recorder, traced: bool, group: bool, heap: bool) -> Pass {
    let supervisor = Supervisor::default();
    let options = SweepOptions {
        supervise: Some(&supervisor),
        group_incremental: group,
        ..SweepOptions::new(w.mode)
    };
    let calls = evaluator_calls();
    let iterations = busnet_queueing::solver_iterations();
    if heap {
        alloc::start_heap();
    }
    let start = Instant::now();
    let mut records = Vec::new();
    let mut bounds = Vec::new();
    let mut slot = 0;
    for part in &w.parts {
        let wrapped: Vec<Traced<'_>> = part
            .evaluators
            .iter()
            .enumerate()
            .map(|(i, e)| Traced {
                inner: e.as_ref(),
                slot: slot + i,
                warmup: part.warmups[i],
                rec,
            })
            .collect();
        let refs: Vec<&dyn Evaluator> = if traced {
            wrapped.iter().map(|t| t as &dyn Evaluator).collect()
        } else {
            part.evaluators.iter().map(|e| e.as_ref()).collect()
        };
        slot += part.evaluators.len();
        let t0 = rec.now();
        records.extend(run_sweep_with(&part.scenarios, &refs, &options, |_, _, _| {}));
        bounds.push((t0, rec.now()));
    }
    let secs = start.elapsed().as_secs_f64();
    let peak_mb = if heap { alloc::stop_heap() } else { 0.0 };
    let mut canon = String::new();
    for r in &records {
        record_line(&mut canon, r);
    }
    Pass {
        secs,
        fingerprint: fnv1a(canon.as_bytes()),
        peak_mb,
        records,
        bounds,
        calls: evaluator_calls() - calls,
        solver_iterations: busnet_queueing::solver_iterations() - iterations,
    }
}

/// Whether a record was answered ok, skipped as out of domain, or
/// failed.
fn outcome(r: &SweepRecord) -> Option<bool> {
    match (&r.result, r.status) {
        (Err(CoreError::UnsupportedScenario { .. }), _) => None,
        (Ok(_), UnitStatus::Ok) => Some(true),
        _ => Some(false),
    }
}

/// Each simulated EBW against its analytic reference, with the
/// tolerances the repository's model-vs-simulation suites use: the §4
/// reduced chain within 9% (unbuffered; `tests/model_vs_sim.rs`); on
/// buffered rows the constant-service simulation between its two
/// service-variability idealizations, the exponential-service
/// product-form model no more than 4% above it and the
/// deterministic-service AMVA no more than 4% below it
/// (`tests/workloads.rs`, unbounded buffers; on depth-limited rows only
/// the deterministic side). Both suites validate these tolerances at
/// saturation (`p = 1`) only, so the `p = 0.2` rows count as having no
/// reference.
fn check_sim_references(records: &[SweepRecord], report: &mut Report) {
    let reduced = EvaluatorKind::Reduced.build(SimBudget::quick());
    let pfqn = EvaluatorKind::Pfqn.build(SimBudget::quick());
    let (mut checked, mut bad, mut unreferenced) = (0, Vec::new(), 0);
    for r in records {
        let Ok(sim) = &r.result else { continue };
        let s = &r.scenario;
        let ebw = sim.ebw();
        let (models, ok) = if s.params.p() < 1.0 {
            unreferenced += 1;
            continue;
        } else if reduced.supports(s) {
            let model = reduced.evaluate(s).map(|e| e.ebw()).unwrap_or(f64::NAN);
            (format!("reduced {model:.4}"), ((ebw - model) / ebw).abs() <= 0.09)
        } else if pfqn.supports(s) {
            let exp = pfqn.evaluate(s).map(|e| e.ebw()).unwrap_or(f64::NAN);
            let det = pfqn_ebw_deterministic_workload(&s.params, &s.workload).unwrap_or(f64::NAN);
            // The product-form network has unbounded queues, and a
            // finite buffer can only lower the simulated EBW: on
            // depth-limited rows only the deterministic side holds.
            let unbounded = matches!(s.buffering, Buffering::Buffered);
            let ok = (exp <= ebw * 1.04 || !unbounded) && det >= ebw * 0.96;
            (format!("pfqn {exp:.4}, deterministic {det:.4}"), ok)
        } else {
            unreferenced += 1;
            continue;
        };
        checked += 1;
        if !ok {
            bad.push(format!("{} {} (sim {ebw:.4}, {models})", r.evaluator, s.label()));
        }
    }
    report.check(
        "sim_vs_model",
        bad.is_empty() && checked > 0,
        format!(
            "{checked} sim rows checked, {unreferenced} without a reference{}",
            if bad.is_empty() { String::new() } else { format!("; outside: {}", bad.join(", ")) }
        ),
    );
}

/// `pfqn` and `pfqn-buzen` agree within 1e-9 at every shared point.
fn check_pfqn_pair(records: &[SweepRecord], report: &mut Report) {
    let mut mva: HashMap<String, f64> = HashMap::new();
    let mut compared = 0;
    let mut worst = 0.0f64;
    for r in records {
        let Ok(e) = &r.result else { continue };
        let key = r.scenario.label();
        match e.evaluator {
            "pfqn" => {
                mva.insert(key, e.ebw());
            }
            "pfqn-buzen" => {
                if let Some(&a) = mva.get(&key) {
                    compared += 1;
                    worst = worst.max(((a - e.ebw()) / a).abs());
                }
            }
            _ => {}
        }
    }
    report.check(
        "pfqn_eq_buzen",
        compared > 0 && worst <= 1e-9,
        format!("{compared} points, worst relative gap {worst:e}"),
    );
}

fn label_of(w: &Sweep, slot: usize) -> &'static str {
    w.parts.iter().flat_map(|p| p.labels.iter()).nth(slot).copied().unwrap_or("?")
}

/// Per-layer metrics from the spans of the traced passes.
fn layer_metrics(w: &Sweep, passes: &[(Pass, Vec<Span>)], out: &mut Metrics) {
    let threads = w.mode.threads() as f64;
    let all: Vec<&Span> = passes.iter().flat_map(|(_, s)| s.iter()).collect();
    let units = |label: &str| -> Vec<&Span> {
        all.iter()
            .copied()
            .filter(|s| s.kind == SpanKind::Unit && s.points > 0 && label_of(w, s.slot) == label)
            .collect()
    };
    let ratio = |spans: &[&Span], den: fn(&Span) -> u64| -> f64 {
        let d: u64 = spans.iter().map(|s| den(s)).sum();
        if d == 0 {
            0.0
        } else {
            spans.iter().map(|s| s.ns()).sum::<u64>() as f64 / d as f64
        }
    };
    let cycle = units("sim-cycle");
    let event = units("sim-event");
    out.set("sim.cycle.ns_per_cycle", ratio(&cycle, |s| s.events));
    let (hot, uniform): (Vec<&Span>, Vec<&Span>) = event.iter().partition(|s| s.hot);
    out.set("sim.event.ns_per_event.uniform", ratio(&uniform, |s| s.events));
    out.set("sim.event.ns_per_event.hot_spot", ratio(&hot, |s| s.events));
    let (ev, cy) = event.iter().fold((0u64, 0u64), |(e, c), s| (e + s.events, c + s.cycles));
    out.set("sim.event.events_per_cycle", if cy == 0 { 0.0 } else { ev as f64 / cy as f64 });
    let sims: Vec<&Span> = cycle.iter().chain(event.iter()).copied().collect();
    let unit_ms: Vec<f64> = sims.iter().map(|s| s.ns() as f64 / 1e6).collect();
    out.set("sim.unit_ms.p50", median(&unit_ms));
    out.set("sim.unit_ms.max", quantile(&unit_ms, 1.0));
    out.set(
        "sim.allocs_per_unit",
        sims.iter().map(|s| s.allocs).sum::<u64>() as f64 / sims.len().max(1) as f64,
    );

    let mut busy = Vec::new();
    let mut plan = Vec::new();
    let mut self_ms = Vec::new();
    let mut combine = Vec::new();
    for (pass, spans) in passes {
        let work: u64 = spans.iter().filter(|s| s.kind == SpanKind::Unit).map(Span::ns).sum();
        busy.push(work as f64 / (pass.secs * 1e9 * threads));
        let (mut p, mut own) = (0u64, 0u64);
        for &(a, b) in &pass.bounds {
            let children: Vec<Span> =
                spans.iter().filter(|s| s.start >= a && s.end <= b).copied().collect();
            p += children.iter().map(|s| s.start).min().unwrap_or(b) - a;
            own += (b - a) - covered_ns(&children, a, b);
        }
        plan.push(p as f64 / 1e6);
        self_ms.push(own as f64 / 1e6);
        let c: u64 = spans.iter().filter(|s| s.kind == SpanKind::Combine).map(Span::ns).sum();
        combine.push(c as f64 / 1e6);
    }
    out.set("exec.busy_fraction", median(&busy));
    out.set("scenario.plan_ms", median(&plan));
    out.set("scenario.self_ms", median(&self_ms));
    out.set("scenario.combine_ms", median(&combine));
    if let Some((pass, spans)) = passes.first() {
        let groups: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Group).collect();
        out.set("scenario.evaluator_calls", pass.calls as f64);
        out.set("scenario.groups", groups.len() as f64);
        out.set("scenario.grouped_points", f64::from(groups.iter().map(|s| s.points).sum::<u32>()));
        out.set("queueing.solver_iterations", pass.solver_iterations as f64);
    }
    for name in crate::ANALYTIC {
        let spans: Vec<&Span> = all
            .iter()
            .copied()
            .filter(|s| {
                matches!(s.kind, SpanKind::Unit | SpanKind::Group)
                    && s.points > 0
                    && label_of(w, s.slot) == name
            })
            .collect();
        let points: u64 = spans.iter().map(|s| u64::from(s.points)).sum();
        let ns: u64 = spans.iter().map(|s| s.ns()).sum();
        let us = if points == 0 { 0.0 } else { ns as f64 / points as f64 / 1e3 };
        out.set(&format!("analytic.{name}.us_per_point"), us);
    }
}

/// Runs one sweep workload for `seconds` and fills `report`.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Metrics {
    let build = |seed| if workload == "sim_sweep" { build_sim(seed) } else { build_model(seed) };
    // Set-up: grid expansion and evaluator construction.
    let setup_block = || {
        let t = Instant::now();
        for _ in 0..SETUP_BLOCK {
            std::hint::black_box(build(seed));
        }
        t.elapsed().as_secs_f64() / SETUP_BLOCK as f64
    };
    let mut setup = Vec::new();
    let w = build(seed);
    let rec = Recorder::new();
    // Untimed passes with the heap tracked. The first keeps its records
    // for the checks; the timed passes keep none, so the benchmark's own
    // memory does not grow with the pass count.
    let mut heap_mb = Vec::with_capacity(HEAP_PASSES);
    let mut fingerprints = Vec::new();
    let mut first: Option<Pass> = None;
    for _ in 0..HEAP_PASSES {
        let pass = run_pass(&w, &rec, false, true, true);
        heap_mb.push(pass.peak_mb);
        rec.take();
        fingerprints.push(pass.fingerprint);
        first.get_or_insert(pass);
    }
    let first = first.expect("at least one heap pass");
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Vec<Span>)> = Vec::new();
    // At least two timed passes (traced runs: two of each kind,
    // alternating).
    while start.elapsed() < window || plain.len() < 2 || (trace && traced.len() < 2) {
        setup.push(setup_block());
        let mut pass = run_pass(&w, &rec, false, true, false);
        rec.take();
        pass.records = Vec::new();
        fingerprints.push(pass.fingerprint);
        plain.push(pass);
        if trace {
            alloc::set_counting(true);
            let mut pass = run_pass(&w, &rec, true, true, false);
            alloc::set_counting(false);
            pass.records = Vec::new();
            let spans = rec.take();
            traced.push((pass, spans));
        }
    }
    let pairs = first.records.len() as u64;
    let outcomes: Vec<Option<bool>> = first.records.iter().map(outcome).collect();
    let skipped = outcomes.iter().filter(|o| o.is_none()).count() as u64;
    report.attempted = pairs - skipped;
    report.failed = outcomes.iter().filter(|o| **o == Some(false)).count() as u64;
    report.note(format!(
        "{workload}: {HEAP_PASSES} heap passes, {} timed passes, {pairs} pairs per pass, \
         {skipped} out of domain (skipped)",
        plain.len()
    ));
    let same = fingerprints.iter().all(|&f| f == first.fingerprint);
    report.check(
        "repeat_identical",
        same,
        format!("{} passes, fingerprint {:016x}", fingerprints.len(), first.fingerprint),
    );
    if trace {
        let same = traced.iter().all(|(p, _)| p.fingerprint == first.fingerprint);
        report.check("traced_identical", same, format!("{} traced passes", traced.len()));
    }
    if workload == "sim_sweep" {
        check_sim_references(&first.records, report);
    } else {
        check_pfqn_pair(&first.records, report);
        let ungrouped = run_pass(&w, &rec, false, false, false);
        report.check(
            "ungrouped_identical",
            ungrouped.fingerprint == first.fingerprint,
            format!("fingerprint {:016x}", ungrouped.fingerprint),
        );
    }

    let mut m = Metrics::default();
    let secs: Vec<f64> = plain.iter().map(|p| p.secs).collect();
    let batch = median(&secs);
    report.note(format!(
        "timed pass seconds: min {} q1 {} median {batch} q3 {}",
        quantile(&secs, 0.0),
        quantile(&secs, 0.25),
        quantile(&secs, 0.75)
    ));
    m.set("setup_s", median(&setup));
    m.set("batch_s", batch);
    m.set("peak_heap_mb", median(&heap_mb));
    if trace {
        layer_metrics(&w, &traced, &mut m);
        let t: Vec<f64> = traced.iter().map(|(p, _)| p.secs).collect();
        m.set("bench.trace_overhead", median(&t) / batch);
    }
    m
}
