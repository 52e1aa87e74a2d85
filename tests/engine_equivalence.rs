//! Differential validation of the two bus engines: the event-driven
//! kernel must reproduce the cycle-stepped reference statistically
//! (overlapping 95% confidence intervals on EBW and latency across a
//! grid of paper configs) and be bit-identical across execution modes
//! and repeated runs with the same master seed.
//!
//! Statistical-agreement semantics live in `common::stats`, shared
//! with the model-vs-sim, adaptive-precision, and workload suites.

mod common;

use common::stats::{assert_ci_overlap, assert_welch_agree, master_seed};

use busnet::core::params::{ArbitrationKind, Buffering, SystemParams};
use busnet::core::scenario::{BusSimEval, Evaluator, Scenario, ScenarioGrid, SimBudget};
use busnet::core::sim::bus::{BusSimBuilder, EngineKind};
use busnet::sim::exec::ExecutionMode;
use busnet::sim::seeds::SeedSequence;
use busnet::sim::stats::RunningStats;

fn budget(engine: EngineKind) -> SimBudget {
    SimBudget { replications: 5, warmup: 4_000, measure: 40_000, ..SimBudget::quick() }
        .with_engine(engine)
        .with_master_seed(master_seed())
}

/// The Table 3 (unbuffered) and Table 4 (buffered) corner configs at
/// `n = 8`, plus a small saturated system.
fn paper_operating_points() -> Vec<Scenario> {
    let mut scenarios = ScenarioGrid::new()
        .n_values([8])
        .m_values([4, 16])
        .r_values([2, 12])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .unwrap();
    scenarios.push(Scenario::new(SystemParams::new(4, 4, 8).unwrap()));
    scenarios
}

/// Both engines estimate the same EBW: their 95% intervals (plus a
/// small numerical slack) must overlap at every paper operating point.
#[test]
fn engines_produce_overlapping_ebw_intervals() {
    let cycle = BusSimEval::new(budget(EngineKind::Cycle));
    let event = BusSimEval::new(budget(EngineKind::Event));
    for scenario in paper_operating_points() {
        let a = cycle.evaluate(&scenario).unwrap();
        let b = event.evaluate(&scenario).unwrap();
        assert_ci_overlap(
            &scenario.label(),
            (a.ebw(), a.half_width_95),
            (b.ebw(), b.half_width_95),
            0.01 * a.ebw(),
        );
    }
}

/// Same property for the latency distribution: mean round-trip times
/// agree under Welch's two-sample 95% interval.
#[test]
fn engines_produce_overlapping_latency_intervals() {
    let seeds = SeedSequence::new(master_seed());
    let mean_round_trip = |engine: EngineKind, buffering: Buffering| {
        let mut stats = RunningStats::new();
        for seed in (0..5).map(|i| seeds.stream(i)) {
            let report = BusSimBuilder::new(SystemParams::new(8, 8, 8).unwrap())
                .buffering(buffering)
                .engine(engine)
                .seed(seed)
                .warmup_cycles(4_000)
                .measure_cycles(40_000)
                .run();
            stats.push(report.round_trip.mean());
        }
        stats
    };
    for buffering in [Buffering::Unbuffered, Buffering::Buffered] {
        let a = mean_round_trip(EngineKind::Cycle, buffering);
        let b = mean_round_trip(EngineKind::Event, buffering);
        assert_welch_agree(&format!("{buffering:?} round trip"), &a, &b, 0.01 * a.mean());
    }
}

/// The equivalence holds under every arbitration kind, not just the
/// paper's uniform random (arbitration changes fairness, not capacity).
#[test]
fn engines_agree_under_every_arbitration_kind() {
    let scenario = Scenario::new(SystemParams::new(8, 8, 6).unwrap());
    for kind in ArbitrationKind::ALL {
        let s = scenario.clone().with_arbitration(kind);
        let a = BusSimEval::new(budget(EngineKind::Cycle)).evaluate(&s).unwrap();
        let b = BusSimEval::new(budget(EngineKind::Event)).evaluate(&s).unwrap();
        assert_ci_overlap(
            &format!("{kind:?}"),
            (a.ebw(), a.half_width_95),
            (b.ebw(), b.half_width_95),
            0.01 * a.ebw(),
        );
    }
}

/// The event engine is bit-identical across serial and parallel
/// replication execution: each replication is a pure function of its
/// seed, and result order is pinned.
#[test]
fn event_engine_bit_identical_across_execution_modes() {
    let scenario =
        Scenario::new(SystemParams::new(8, 16, 8).unwrap()).with_buffering(Buffering::Buffered);
    let serial = BusSimEval::new(budget(EngineKind::Event).with_mode(ExecutionMode::Serial))
        .evaluate(&scenario)
        .unwrap();
    for mode in [ExecutionMode::Parallel, ExecutionMode::Threads(3)] {
        let parallel =
            BusSimEval::new(budget(EngineKind::Event).with_mode(mode)).evaluate(&scenario).unwrap();
        assert_eq!(serial, parallel, "{mode:?}");
    }
}

/// Repeated runs with the same master seed are identical down to the
/// per-processor fairness vector; a different master seed diverges.
#[test]
fn event_engine_repeatable_under_master_seed() {
    let scenario =
        Scenario::new(SystemParams::new(8, 8, 10).unwrap().with_request_probability(0.4).unwrap());
    let eval = |seed: u64| {
        BusSimEval::new(budget(EngineKind::Event).with_master_seed(seed))
            .evaluate(&scenario)
            .unwrap()
    };
    let a = eval(0xBEEF);
    let b = eval(0xBEEF);
    assert_eq!(a, b);
    assert_eq!(a.per_processor_ebw, b.per_processor_ebw);
    let c = eval(0xF00D);
    assert_ne!(a.ebw(), c.ebw());
}

/// Fairness ordering is what the arbitration study expects: LRU and
/// round robin tighten the per-processor spread relative to fixed
/// priority under contention.
#[test]
fn arbitration_fairness_orders_sensibly() {
    let spread = |kind| {
        let s = Scenario::new(SystemParams::new(8, 2, 6).unwrap()).with_arbitration(kind);
        let e = BusSimEval::new(budget(EngineKind::Event)).evaluate(&s).unwrap();
        e.ebw_spread().unwrap()
    };
    let priority = spread(ArbitrationKind::Priority);
    let lru = spread(ArbitrationKind::Lru);
    let rr = spread(ArbitrationKind::RoundRobin);
    assert!(
        lru < priority && rr < priority,
        "fixed priority ({priority:.4}) should be the most unfair (lru {lru:.4}, rr {rr:.4})"
    );
}

/// The event engine executes O(activity) events: about 4 per round
/// trip plus think timers and blocked-service rechecks. A regression
/// that reintroduces per-idle-cycle work blows this budget by about
/// `(r + 2) / p` times. Event counts are seed-deterministic, so the
/// pinned budget is a wall-clock proxy that cannot flake.
#[test]
fn event_engine_stays_within_pinned_event_budget() {
    let scenarios = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8, 24])
        .p_values([0.2, 1.0])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .unwrap();
    assert_eq!(scenarios.len(), 16);
    for scenario in &scenarios {
        let report = BusSimBuilder::new(scenario.params)
            .buffering(scenario.buffering)
            .engine(EngineKind::Event)
            .seed(0x5EED)
            .warmup_cycles(1_000)
            .measure_cycles(10_000)
            .run();
        // Returns are counted over the measured window only: scale
        // them to the whole run and allow 8 events per return (4
        // needed plus headroom for blocked rechecks), plus slack per
        // processor for dropped think timers.
        let total = 1_000 + 10_000u64;
        let scaled_returns = report.returns * total / report.measured_cycles;
        let budget = 8 * scaled_returns + 4 * u64::from(scenario.params.n()) + 64;
        assert!(
            report.events <= budget,
            "{}: {} events over the budget {budget} ({} returns)",
            scenario.label(),
            report.events,
            report.returns
        );
    }
}
