//! Chaos suite for the supervised sweep: under arbitrary deterministic
//! fault plans every surviving point must be bit-identical to a
//! fault-free run, every casualty must surface as a structured record,
//! and `--resume` after a mid-sweep kill must reproduce the
//! uninterrupted output byte for byte.

use std::process::Command;

use busnet::core::params::BusPolicy;
use busnet::core::scenario::{
    run_sweep_with, BusSimEval, Evaluator, OnFailure, Scenario, ScenarioGrid, SimBudget,
    Supervisor, SweepOptions, SweepRecord, UnitStatus,
};
use busnet::core::sim::bus::UnitBudget;
use busnet::core::CoreError;
use busnet::sim::exec::ExecutionMode;
use busnet::sim::fault::{silence_injected_panics, FaultPlan, FaultSite};

fn smoke_grid() -> Vec<Scenario> {
    ScenarioGrid::new()
        .n_values([2, 4, 8])
        .m_values([8])
        .r_values([4])
        .p_values([0.5, 1.0])
        .policies([BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority])
        .scenarios()
        .unwrap()
}

fn supervised(
    scenarios: &[Scenario],
    sup: &Supervisor,
    faults: Option<&FaultPlan>,
) -> Vec<SweepRecord> {
    let sim = BusSimEval::new(SimBudget::quick());
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let options =
        SweepOptions { supervise: Some(sup), faults, ..SweepOptions::new(ExecutionMode::Parallel) };
    run_sweep_with(scenarios, &evaluators, &options, |_, _, _| {})
}

fn assert_survivors_identical(baseline: &[SweepRecord], chaos: &[SweepRecord]) {
    assert_eq!(baseline.len(), chaos.len());
    for (b, c) in baseline.iter().zip(chaos) {
        assert_eq!(b.scenario, c.scenario);
        if c.status == UnitStatus::Ok {
            match (&b.result, &c.result) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x, y, "survivor diverged at {}", c.scenario.label());
                }
                (Err(_), Err(_)) => {}
                _ => panic!("Ok/Err mismatch at {}", c.scenario.label()),
            }
        }
    }
}

/// Property: for arbitrary injected fault plans (a seeded family
/// standing in for proptest generation), surviving points are
/// bit-identical to the fault-free sweep and every record is accounted
/// for as ok, degraded, or failed.
#[test]
fn survivors_bit_identical_under_arbitrary_fault_plans() {
    silence_injected_panics();
    let scenarios = smoke_grid();
    let sup =
        Supervisor { backoff_base_ms: 0, on_failure: OnFailure::Degrade, ..Supervisor::default() };
    let baseline = supervised(&scenarios, &sup, None);
    for (seed, rate) in
        [(1u64, 0.1), (2, 0.25), (3, 0.4), (0xDEAD_BEEF, 0.6), (42, 0.35), (1985, 0.5)]
    {
        let plan = FaultPlan::new(seed, rate).unwrap().with_delay_ms(1);
        let chaos = supervised(&scenarios, &sup, Some(&plan));
        assert_survivors_identical(&baseline, &chaos);
        let ok = chaos.iter().filter(|r| r.status == UnitStatus::Ok).count();
        let degraded = chaos.iter().filter(|r| r.status == UnitStatus::Degraded).count();
        let failed = chaos.iter().filter(|r| r.status == UnitStatus::Failed).count();
        assert_eq!(
            ok + degraded + failed,
            chaos.len(),
            "every record accounted for (plan seed={seed} rate={rate})"
        );
        for r in &chaos {
            match r.status {
                UnitStatus::Ok => assert!(r.result.is_ok(), "ok rows carry results"),
                UnitStatus::Degraded => {
                    let e = r.result.as_ref().expect("degraded rows carry a fallback value");
                    assert!(e.ebw().is_finite() && e.ebw() > 0.0, "validated fallback");
                }
                UnitStatus::Failed => assert!(r.result.is_err(), "failed rows carry the error"),
            }
        }
    }
}

/// A plan that kills every attempt with retries disabled: under `skip`
/// every pair must surface as a structured `failed` record carrying the
/// injected panic, and the sweep itself must not unwind.
#[test]
fn brutal_plan_yields_structured_failures() {
    silence_injected_panics();
    let scenarios = smoke_grid();
    let sup = Supervisor {
        max_retries: 0,
        backoff_base_ms: 0,
        on_failure: OnFailure::Skip,
        ..Supervisor::default()
    };
    let plan = FaultPlan::new(7, 1.0).unwrap().with_sites(&[FaultSite::UnitPanic]);
    let chaos = supervised(&scenarios, &sup, Some(&plan));
    assert_eq!(chaos.len(), scenarios.len());
    for r in &chaos {
        assert_eq!(r.status, UnitStatus::Failed);
        assert_eq!(r.attempts, 1);
        match &r.result {
            Err(CoreError::Panicked { message }) => {
                assert!(message.contains("busnet-fault-injected"), "{message}");
            }
            other => panic!("expected an injected panic, got {other:?}"),
        }
    }
    assert!(plan.stats().panics >= scenarios.len() as u64);
}

/// Fault decisions are keyed on unit identity, not thread or timing:
/// serial and parallel chaos sweeps inject identically and produce
/// identical records.
#[test]
fn serial_and_parallel_chaos_sweeps_match() {
    silence_injected_panics();
    let scenarios = smoke_grid();
    let sup =
        Supervisor { backoff_base_ms: 0, on_failure: OnFailure::Degrade, ..Supervisor::default() };
    let sim = BusSimEval::new(SimBudget::quick());
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let run = |mode: ExecutionMode| {
        let plan = FaultPlan::new(11, 0.45).unwrap().with_delay_ms(1);
        let options =
            SweepOptions { supervise: Some(&sup), faults: Some(&plan), ..SweepOptions::new(mode) };
        run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {})
    };
    let serial = run(ExecutionMode::Serial);
    let parallel = run(ExecutionMode::Parallel);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.scenario, p.scenario);
        assert_eq!(s.status, p.status, "at {}", s.scenario.label());
        assert_eq!(s.attempts, p.attempts, "at {}", s.scenario.label());
        match (&s.result, &p.result) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("Ok/Err mismatch at {}", s.scenario.label()),
        }
    }
}

/// The budget watchdog: an absurdly small event ceiling trips every
/// simulation unit (degrading under `degrade`), while a generous
/// ceiling is bit-invisible — budgeted-but-untripped runs match the
/// unbudgeted baseline exactly.
#[test]
fn budget_watchdog_trips_and_is_otherwise_invisible() {
    let scenarios = smoke_grid();
    let baseline = supervised(&scenarios, &Supervisor::default(), None);

    let tight = Supervisor {
        max_retries: 0,
        backoff_base_ms: 0,
        on_failure: OnFailure::Degrade,
        unit_budget: Some(UnitBudget { max_events: Some(5), max_millis: None }),
        ..Supervisor::default()
    };
    let tripped = supervised(&scenarios, &tight, None);
    assert!(
        tripped.iter().all(|r| r.status == UnitStatus::Degraded),
        "a 5-event ceiling must trip every simulated point"
    );

    let roomy = Supervisor {
        unit_budget: Some(UnitBudget { max_events: Some(u64::MAX / 2), max_millis: None }),
        ..Supervisor::default()
    };
    let untripped = supervised(&scenarios, &roomy, None);
    for (b, u) in baseline.iter().zip(&untripped) {
        assert_eq!(u.status, UnitStatus::Ok);
        assert_eq!(
            b.result.as_ref().unwrap(),
            u.result.as_ref().unwrap(),
            "untripped budget changed {}",
            b.scenario.label()
        );
    }
}

fn busnet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_busnet")).args(args).output().expect("spawns")
}

/// `--resume` after a mid-sweep kill: a partial run leaves a journal
/// with a torn trailing line; resuming onto the full grid must emit a
/// CSV byte-identical to an uninterrupted run.
#[test]
fn resume_after_kill_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("busnet-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let partial_dir = base.join("partial");
    let fresh_dir = base.join("fresh");
    let sweep = |extra: &[&str]| {
        let mut args = vec![
            "sweep",
            "--n",
            "2,4,6,8",
            "--m",
            "8",
            "--r",
            "4",
            "--evaluator",
            "sim",
            "--cycles",
            "2000",
            "--warmup",
            "200",
            "--replications",
            "2",
            "--seed",
            "7",
        ];
        args.extend_from_slice(extra);
        busnet(&args)
    };
    // "Killed" run: only half the grid completed before the plug was
    // pulled, and the last journal line was torn mid-write.
    let partial_dirs = partial_dir.to_str().unwrap().to_owned();
    let partial = busnet(&[
        "sweep",
        "--n",
        "2,4",
        "--m",
        "8",
        "--r",
        "4",
        "--evaluator",
        "sim",
        "--cycles",
        "2000",
        "--warmup",
        "200",
        "--replications",
        "2",
        "--seed",
        "7",
        "--cache-dir",
        &partial_dirs,
    ]);
    assert!(partial.status.success());
    let journal = partial_dir.join("evalcache.jsonl");
    let mut torn = std::fs::read(&journal).unwrap();
    torn.extend_from_slice(b"{\"schema\":\"busnet-evalcache-v2\",\"key\":\"cut");
    std::fs::write(&journal, &torn).unwrap();

    let resumed = sweep(&["--cache-dir", &partial_dirs, "--resume"]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("# resume: 2 completed point(s)"), "{stderr}");
    assert!(stderr.contains("truncated torn trailing line"), "{stderr}");

    let fresh_dirs = fresh_dir.to_str().unwrap().to_owned();
    let uninterrupted = sweep(&["--cache-dir", &fresh_dirs]);
    assert!(uninterrupted.status.success());
    assert_eq!(
        resumed.stdout, uninterrupted.stdout,
        "resumed CSV must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// A CLI chaos sweep that kills well over 20 % of first attempts must
/// complete with exit 0 under `--on-failure degrade`, and its surviving
/// rows must match the fault-free CSV.
#[test]
fn cli_chaos_sweep_survives_and_matches() {
    let grid = [
        "sweep",
        "--n",
        "2,4,6,8",
        "--m",
        "8",
        "--r",
        "4",
        "--p",
        "0.5,1",
        "--evaluator",
        "sim",
        "--cycles",
        "2000",
        "--warmup",
        "200",
        "--replications",
        "2",
        "--seed",
        "7",
    ];
    let bare = busnet(&grid);
    assert!(bare.status.success());
    let mut chaos_args = grid.to_vec();
    chaos_args.extend_from_slice(&["--fault-plan", "seed=5:rate=0.45", "--on-failure", "degrade"]);
    let chaos = busnet(&chaos_args);
    assert!(chaos.status.success(), "{}", String::from_utf8_lossy(&chaos.stderr));
    let stderr = String::from_utf8_lossy(&chaos.stderr);
    assert!(stderr.contains("# faults [seed=5:rate=0.45"), "{stderr}");
    let rows = |out: &[u8]| {
        String::from_utf8_lossy(out).lines().skip(1).map(str::to_owned).collect::<Vec<_>>()
    };
    let bare_rows = rows(&bare.stdout);
    let chaos_rows = rows(&chaos.stdout);
    assert_eq!(bare_rows.len(), chaos_rows.len());
    let mut survivors = 0usize;
    for (b, c) in bare_rows.iter().zip(&chaos_rows) {
        // The first 26 columns are the scenario identity and metrics;
        // status/attempts/degraded may legitimately differ.
        let head = |row: &str| row.split(',').take(26).collect::<Vec<_>>().join(",");
        if c.contains(",ok,") {
            assert_eq!(head(b), head(c), "surviving row diverged");
            survivors += 1;
        }
    }
    assert!(survivors > 0, "some rows must survive at rate 0.45 with retries");
}

/// No hostile CLI input may reach a panic: every parse error must come
/// back as a clean diagnostic (satellite: typed errors over asserts).
#[test]
fn hostile_cli_inputs_never_panic() {
    let cases: &[&[&str]] = &[
        &["sim", "--cycles", "0", "--ci-width", "0.01"],
        &["sim", "--n", "0"],
        &["sim", "--n", "-3"],
        &["sim", "--p", "2.5"],
        &["sim", "--buffer-depth", "wat"],
        &["sim", "--arbitration", "coinflip"],
        &["sim", "--hot-spot", "1.5@99"],
        &["sim", "--burst", "1:2"],
        &["sweep", "--n", ".."],
        &["sweep", "--n", "4..2"],
        &["sweep", "--n", "2..8:0"],
        &["sweep", "--n", "8:2"],
        &["sweep", "--m", ""],
        &["sweep", "--evaluator", "ouija"],
        &["sweep", "--on-failure", "retry-forever"],
        &["sweep", "--unit-budget", "lots"],
        &["sweep", "--fault-plan", "rate=2"],
        &["sweep", "--fault-plan", "seed=x:rate=0.1"],
        &["sweep", "--resume"],
        &["sweep", "--ci-width", "-1"],
        &["sweep", "--screen", "crystal-ball"],
        &["sweep", "--buses", "1..0"],
        &["run", "no-such-experiment"],
    ];
    for case in cases {
        let out = busnet(case);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "hostile input unexpectedly succeeded: busnet {case:?}");
        assert!(!stderr.contains("panicked"), "busnet {case:?} panicked:\n{stderr}");
    }
}

/// `run` and `list` parse through the same strict flag cursor as the
/// other subcommands: a misspelt `--quick` must not silently fall back
/// to paper effort, and an unknown subcommand prints the usage.
#[test]
fn run_and_list_reject_unknown_arguments() {
    for (case, offender) in [
        (&["run", "table1", "--quik"][..], "--quik"),
        (&["run", "table1", "stray", "--quick"][..], "stray"),
        (&["list", "--all"][..], "--all"),
    ] {
        let out = busnet(case);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "busnet {case:?} unexpectedly succeeded");
        assert!(
            stderr.contains(&format!("unknown flag or stray argument: {offender}")),
            "busnet {case:?} stderr:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "busnet {case:?} ran before rejecting its arguments");
    }
    let out = busnet(&["no-such-subcommand", "--quick"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: busnet <list | run"));
}

/// Regression: a unit panicking mid-sweep under the supervisor used to
/// poison the shared cache mutex, turning every later lookup/insert
/// into a `PoisonError` panic. The cache now recovers the guard, so a
/// chaos sweep's survivors land in the cache and a follow-up sweep
/// replays them.
#[test]
fn mid_sweep_panics_do_not_poison_the_cache() {
    use busnet::core::cache::EvalCache;

    silence_injected_panics();
    let scenarios = smoke_grid();
    let cache = EvalCache::new();
    let sim = BusSimEval::new(SimBudget::quick());
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let sup = Supervisor {
        max_retries: 0,
        backoff_base_ms: 0,
        on_failure: OnFailure::Skip,
        ..Supervisor::default()
    };
    let plan = FaultPlan::new(23, 0.5).unwrap().with_sites(&[FaultSite::UnitPanic]);
    let options = SweepOptions {
        cache: Some(&cache),
        supervise: Some(&sup),
        faults: Some(&plan),
        ..SweepOptions::new(ExecutionMode::Parallel)
    };
    let chaos = run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {});
    let survivors = chaos.iter().filter(|r| r.status == UnitStatus::Ok).count();
    let failed = chaos.iter().filter(|r| r.status == UnitStatus::Failed).count();
    assert!(
        survivors > 0 && failed > 0,
        "plan must split the grid ({survivors} ok, {failed} failed)"
    );

    // The cache stayed usable through the panics: survivors were
    // inserted, and a fault-free follow-up sweep replays every one of
    // them while freshly evaluating only the casualties.
    assert_eq!(cache.len(), survivors, "every survivor was cached despite mid-sweep panics");
    let options =
        SweepOptions { cache: Some(&cache), ..SweepOptions::new(ExecutionMode::Parallel) };
    let replay = run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {});
    for (c, r) in chaos.iter().zip(&replay) {
        assert_eq!(r.status, UnitStatus::Ok, "follow-up sweep fills the gaps");
        let replayed = r.result.as_ref().expect("fault-free record");
        match (c.status, &c.result) {
            (UnitStatus::Ok, Ok(original)) => {
                assert!(r.cached, "survivor replays from the cache at {}", r.scenario.label());
                assert_eq!(original, replayed, "cached replay bit-identical");
            }
            _ => assert!(!r.cached, "casualties re-evaluate at {}", r.scenario.label()),
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits as usize, survivors, "one hit per survivor on replay");
}
