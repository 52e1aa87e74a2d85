//! Fluid-model validation: the mean-field ODE versus simulation across
//! system sizes, fluid invariants under arbitrary parameters, the
//! million-processor wall-clock budget, the multibus evaluator wiring,
//! and the sweep-screening contract.

use std::time::Instant;

use busnet::core::analytic::fluid::{FluidModel, FluidOptions};
use busnet::core::analytic::multibus::multibus_bw_exact;
use busnet::core::params::{Buffering, SystemParams, Workload};
use busnet::core::scenario::{
    run_sweep, run_sweep_with, BusSimEval, Evaluator, EvaluatorKind, FluidEval, Scenario,
    ScenarioGrid, ScreenPlan, SimBudget, Stopping, SweepOptions, SweepRecord,
};
use busnet::sim::event::EngineKind;
use busnet::sim::exec::ExecutionMode;
use proptest::prelude::*;

fn sim_budget() -> SimBudget {
    SimBudget {
        replications: 2,
        warmup: 2_000,
        measure: 20_000,
        master_seed: 0x1985_0414,
        mode: ExecutionMode::Serial,
        engine: EngineKind::Event,
        stopping: Stopping::Fixed,
    }
}

/// The fluid model tracks the cycle-accurate simulator increasingly
/// well as the system grows: the mean-field approximation's error is
/// O(1/n), so the relative EBW gap at n = 512 must be under the
/// ISSUE acceptance bound of 5% and no larger than the small-system
/// gap.
#[test]
fn fluid_tracks_simulation_as_n_grows() {
    let sim = BusSimEval::new(sim_budget());
    let fluid = FluidEval::default();
    for buffering in [Buffering::Unbuffered, Buffering::Depth(4)] {
        let mut gaps = Vec::new();
        for (n, m) in [(8u32, 16u32), (64, 128), (512, 1024)] {
            let params = SystemParams::new(n, m, 8).unwrap().with_request_probability(0.2).unwrap();
            let scenario = Scenario::new(params).with_buffering(buffering);
            let simulated = sim.evaluate(&scenario).expect("in sim domain");
            let solution = fluid.solve(&scenario).expect("in fluid domain");
            assert!(solution.converged, "{}: fluid did not converge", scenario.label());
            let gap = ((solution.ebw - simulated.ebw()) / simulated.ebw()).abs();
            println!(
                "# fluid-vs-sim k={} n={n}: fluid {:.4} sim {:.4} gap {:.2}%",
                buffering.depth_label(),
                solution.ebw,
                simulated.ebw(),
                gap * 100.0
            );
            gaps.push(gap);
        }
        // The acceptance bound at n = 512, plus per-size sanity caps.
        assert!(gaps[2] <= 0.05, "k={}: gap at n=512 is {:.2}%", buffering.depth_label(), gaps[2]);
        assert!(gaps[1] <= 0.10, "k={}: gap at n=64 is {:.2}%", buffering.depth_label(), gaps[1]);
        assert!(gaps[0] <= 0.20, "k={}: gap at n=8 is {:.2}%", buffering.depth_label(), gaps[0]);
        // Mean-field error shrinks with n (small slack for sim noise).
        assert!(
            gaps[2] <= gaps[0] + 0.01,
            "k={}: gap grew with n: {gaps:?}",
            buffering.depth_label()
        );
    }
}

/// A million-processor point solves within the wall-clock budget even
/// in a debug build (the release CLI target is < 50 ms; debug RK4 is
/// roughly 20× slower, so 5 s is a generous ceiling).
#[test]
fn million_processor_point_solves_quickly() {
    let params =
        SystemParams::new(1_000_000, 1_000_000, 8).unwrap().with_request_probability(0.2).unwrap();
    let scenario = Scenario::new(params).with_buffering(Buffering::Depth(4));
    let start = Instant::now();
    let solution = FluidEval::default().solve(&scenario).expect("in fluid domain");
    let elapsed = start.elapsed();
    assert!(solution.converged);
    assert!((solution.ebw - 5.0).abs() < 1e-3, "saturated bus EBW {}", solution.ebw);
    assert!(elapsed.as_secs_f64() < 5.0, "fluid solve took {elapsed:?}");
}

/// EBW is non-decreasing in buffer depth at a module-bound operating
/// point (deeper buffers can only admit more work when the modules,
/// not the bus, are the bottleneck).
#[test]
fn fluid_ebw_monotone_in_depth_when_module_bound() {
    let params = SystemParams::new(128, 4, 8).unwrap();
    let workload = Workload::default();
    let mut last = 0.0;
    for depth in [0u32, 1, 2, 4, 8] {
        let buffering = if depth == 0 { Buffering::Unbuffered } else { Buffering::Depth(depth) };
        let model = FluidModel::new(params, buffering, &workload, 8.0).unwrap();
        let solution = model.solve(&FluidOptions::default());
        assert!(solution.converged, "k={depth}");
        assert!(
            solution.ebw >= last - 1e-6,
            "EBW fell from {last} to {} at k={depth}",
            solution.ebw
        );
        last = solution.ebw;
    }
}

/// The multibus evaluator is reachable through the sweep registry and
/// its bandwidth grows monotonically with the number of buses up to
/// the crossbar bound.
#[test]
fn multibus_sweep_reaches_crossbar_bound() {
    let kind = EvaluatorKind::from_name("multibus").expect("registered");
    let evaluator = kind.build(sim_budget());
    let scenarios = ScenarioGrid::new()
        .n_values([6])
        .m_values([6])
        .r_values([4])
        .buses_values([1, 2, 4, 6])
        .scenarios()
        .unwrap();
    let refs: [&dyn Evaluator; 1] = [evaluator.as_ref()];
    let records = run_sweep(&scenarios, &refs, ExecutionMode::Serial, |_, _, _| {});
    assert_eq!(records.len(), 4);
    let mut last = 0.0;
    for record in &records {
        let evaluation = record.result.as_ref().expect("in multibus domain");
        assert!(evaluation.ebw() >= last - 1e-12);
        last = evaluation.ebw();
    }
    // At b = min(n, m) the multiple-bus network IS the crossbar.
    let crossbar = multibus_bw_exact(6, 6, 6).unwrap();
    assert!((last - crossbar).abs() < 1e-9);
}

/// The screening contract: screened records carry the fluid
/// prediction under the simulator's name with zero simulated events
/// and the `screened` flag set; unscreened records still simulate and
/// land within the combined tolerance of the plain run.
#[test]
fn screened_sweep_skips_validated_points() {
    let scenarios = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8])
        .p_values([0.2, 1.0])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .unwrap();
    let sim = BusSimEval::new(sim_budget().with_ci_width(0.05, 8));
    let refs: [&dyn Evaluator; 1] = [&sim];
    let plain = run_sweep(&scenarios, &refs, ExecutionMode::Serial, |_, _, _| {});
    let plan = ScreenPlan::default();
    let options = SweepOptions { screen: Some(&plan), ..SweepOptions::new(ExecutionMode::Serial) };
    let screened = run_sweep_with(&scenarios, &refs, &options, |_, _, _| {});
    assert_eq!(plain.len(), screened.len());
    let count = screened.iter().filter(|r| r.screened).count();
    assert!(count > 0, "no point screened on the Table 3-4 grid with p axis");
    for (with, without) in screened.iter().zip(&plain) {
        assert_eq!(with.scenario.label(), without.scenario.label());
        let evaluation = with.result.as_ref().expect("in domain");
        let reference = without.result.as_ref().expect("in domain");
        if with.screened {
            // The fluid stand-in keeps the simulator's name (one
            // coherent evaluator column) but costs no events, and its
            // prediction matches the simulation it replaced within the
            // screening tolerance plus the CI width.
            assert_eq!(evaluation.evaluator, "sim");
            assert_eq!(evaluation.simulated_events(), 0);
            let slack = plan.tolerance * reference.ebw() + 3.0 * reference.half_width_95;
            assert!(
                (evaluation.ebw() - reference.ebw()).abs() <= slack,
                "{}: screened {:.4} vs simulated {:.4}",
                with.scenario.label(),
                evaluation.ebw(),
                reference.ebw()
            );
        } else {
            // Prior-seeded simulation: still a real run, same system.
            assert!(evaluation.simulated_events() > 0);
            let slack = plan.tolerance * reference.ebw()
                + 3.0 * (reference.half_width_95 + evaluation.half_width_95);
            assert!(
                (evaluation.ebw() - reference.ebw()).abs() <= slack,
                "{}: seeded {:.4} vs plain {:.4}",
                with.scenario.label(),
                evaluation.ebw(),
                reference.ebw()
            );
        }
    }
    // The whole point: screening must save at least a quarter of the
    // simulated events at equal CI width. Event counts are
    // seed-deterministic, so this floor cannot flake.
    let events = |records: &[SweepRecord]| -> u64 {
        records.iter().filter_map(|r| r.result.as_ref().ok().map(|e| e.simulated_events())).sum()
    };
    let (plain_events, screened_events) = (events(&plain), events(&screened));
    let savings = 1.0 - screened_events as f64 / plain_events as f64;
    assert!(
        savings >= 0.25,
        "fluid screening saved only {:.1}% (< 25%) of simulated events: {plain_events} -> \
         {screened_events}",
        savings * 100.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fluid invariants for arbitrary parameters: the solution is a
    /// physical state (EBW within the ceiling, queue-level fractions a
    /// probability distribution, processor mass conserved).
    #[test]
    fn fluid_solution_is_physical(
        n in 1u32..200,
        m in 1u32..64,
        r in 1u32..16,
        p10 in 1u32..=10,
        depth in 0u32..6,
    ) {
        let params = SystemParams::new(n, m, r)
            .unwrap()
            .with_request_probability(f64::from(p10) / 10.0)
            .unwrap();
        let buffering = if depth == 0 { Buffering::Unbuffered } else { Buffering::Depth(depth) };
        let scenario = Scenario::new(params).with_buffering(buffering);
        let solution = FluidEval::default().solve(&scenario).unwrap();
        prop_assert!(solution.ebw > 0.0);
        prop_assert!(solution.ebw <= params.max_ebw() + 1e-6);
        let total: f64 = solution.input_distribution.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "distribution sums to {total}");
        for &level in &solution.input_distribution {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&level));
        }
        prop_assert!(solution.conservation_error < 1e-6 * f64::from(n).max(1.0));
        prop_assert!(solution.thinking_mass >= -1e-9);
        prop_assert!(solution.waiting_mass >= -1e-9);
    }
}

/// The golden fluid points: a label, the scenario, and the expected
/// `to_bits` (hex) of `ebw throughput mean_input_queue residual
/// thinking_mass waiting_mass` followed by the RK4 step count.
fn golden_points() -> Vec<(&'static str, Scenario, &'static str)> {
    let point = |n: u32, m: u32, p: f64, buffering: Buffering, workload: Workload| {
        let params = SystemParams::new(n, m, 8).unwrap().with_request_probability(p).unwrap();
        Scenario::new(params).with_buffering(buffering).with_workload(workload)
    };
    let uniform = || Workload::Uniform;
    let hot = || Workload::hot_spot(0.2, 0).unwrap();
    let mixed = |n: u32| {
        let probs: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { 0.2 }).collect();
        Workload::heterogeneous(probs).unwrap()
    };
    let burst = || Workload::on_off_burst(1.0, 0.2, 0.8, 100, Some((0.2, 0))).unwrap();
    let (u, b, d4, inf) =
        (Buffering::Unbuffered, Buffering::Buffered, Buffering::Depth(4), Buffering::Infinite);
    let million = 1_000_000;
    vec![
        ("u-p0.2-uniform-n8", point(8, 8, 0.2, u, uniform()), "3ff97d1ade0eeb32 3fc464157e7255c2 0000000000000000 0000000000000000 40197d1ade0eeb32 3fc8d7e2cc1d95fe 200"),
        ("u-p1-hot-n8", point(8, 4, 1.0, u, hot()), "4003fffffff5b731 3fcfffffffef8b81 0000000000000000 3d8acb6000000000 8000000000000000 4017000000047be1 200"),
        ("u-p1-uniform-n1e6", point(million, million, 1.0, u, uniform()), "4013ffffffffffe6 3fdfffffffffffd6 0000000000000000 3c31cf8000000000 8000000000000000 4122dc606658846f 200"),
        ("u-p0.2-uniform-n1", point(1, 1, 0.2, u, uniform()), "3fc97d1ade0eeb32 3f9464157e7255c2 0000000000000000 0000000000000000 3fe97d1ade0eeb32 3f98d7e2cc1d95fe 200"),
        ("b-p0.2-mixed-n8", point(8, 16, 0.2, b, mixed(8)), "40110828e98fa09f 3fdb404175b29a98 3fa3c320b5ea3910 3c50000000000000 4008dbe36a985fdd 3fdc58561c211f9c 200"),
        ("b-p1-uniform-n1", point(1, 1, 1.0, b, uniform()), "3fe72456730f9646 3fb283785c0c7838 3fd0274cc6e3a1b8 3c78000000000000 8000000000000000 3fb8c391a8013f22 200"),
        ("b-p0.2-uniform-n1e6", point(million, million, 0.2, b, uniform()), "4014000000009c64 3fe0000000007d1d 3db19791fea80000 3c31eb8000000000 4033ffffffe7d335 411e844ffffe051f 200"),
        ("d4-p1-uniform-n1e6", point(million, million, 1.0, d4, uniform()), "4013ffffffffec23 3fdfffffffffe038 3db197a588500000 3c31ca8000000000 8000000000000000 411e8477fffe0573 200"),
        ("d4-p0.2-hot-n1e6", point(million, 64, 0.2, d4, hot()), "4013fffffffdd11a 3fdffffffffc81c3 3f9ef8a01d67808a 3dada7a380000000 4033ffffffe93774 412e8444737fe856 200"),
        ("d4-p1-mixed-n8", point(8, 8, 1.0, d4, mixed(8)), "400c6d7a82374b51 3fd6bdfb9b5f6f74 3fc7e59f67637e84 3c50000000000000 40079cfdefd0c66c 3fd6d3ba6d90e79c 200"),
        ("d4-p1-mmpp-n8", point(8, 8, 1.0, d4, burst()), "40065a42ca648adc 3fd1e1cf08506f16 3fd06bc2c065da73 3c70000000000000 4008de9042bf1474 3fd4bd209c04a112 400"),
        ("inf-p1-uniform-n8", point(8, 2, 1.0, inf, uniform()), "40011d5caccd8530 3fcb622de148d51a 400762170b8439a0 3c60000000000000 8000000000000000 3fcd4981a3e94df2 200"),
        ("inf-p0.2-hot-n8", point(8, 8, 0.2, inf, hot()), "3ff888128fbdc206 3fc3a00ed9649b38 3fa55e7dac78af58 3c7c000000000000 401888128fbdc204 3fc3a02d0accebf0 200"),
        ("inf-p1-mmpp-n1e6", point(million, million, 1.0, inf, burst()), "4013fffffffefad4 3fdffffffffe5e22 3ebad82b3e24ede0 3d9297af00000000 4023ffffffe755ae 4126e347ccc7e98f 400"),
        ("u-p0.2-mmpp-n8", point(8, 4, 0.2, u, burst()), "4000547ab16edde4 3fca20c44f17c96e 0000000000000000 3d8acb6000000000 400951eac5d00933 4007fba6cdb2709d 400"),
        ("inf-p0.2-mixed-n1", point(1, 4, 0.2, inf, mixed(1)), "3fec693177a31064 3fb6ba8df94f4050 3f9c12728e593ae0 3c50000000000000 8000000000000000 3fb75e8faddd825c 200"),
    ]
}

/// The fluid solver's outputs are pinned to the bit across the
/// buffering, request-probability, workload and size axes: the
/// analytic warm start and the RK4 integrator may be restructured for
/// speed, but never in a way that moves a single output bit.
#[test]
fn fluid_solution_bits_are_pinned() {
    let mut mismatches = Vec::new();
    for (label, scenario, expected) in golden_points() {
        let s = FluidEval::default().solve(&scenario).expect("in fluid domain");
        let fields =
            [s.ebw, s.throughput, s.mean_input_queue, s.residual, s.thinking_mass, s.waiting_mass];
        let mut got: Vec<String> = fields.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
        got.push(s.steps.to_string());
        let got = got.join(" ");
        if got != expected {
            mismatches.push(format!("{label}: got {got}\n{label}: pin {expected}"));
        }
    }
    assert!(mismatches.is_empty(), "fluid outputs moved:\n{}", mismatches.join("\n"));
}
