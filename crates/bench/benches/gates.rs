//! Wall-clock ratio gates on the event engine, run by CI as
//! `cargo bench -p busnet-bench --bench gates`; exits non-zero when a
//! gate fails.
//!
//! * Bursty (MMPP) event throughput stays at or above 0.85× the
//!   stationary uniform slice: phase boundaries add O(cycles / dwell)
//!   work, never per-cycle work.
//! * The supervised sweep (per-unit `catch_unwind` plus retry and
//!   budget plumbing, no faults) is bit-identical to the bare sweep and
//!   costs at most 5% more time on the Table 3–4 grid.
//!
//! Both gates read the median of interleaved per-pair ratios. The
//! deterministic gates (event budget, screening savings, solver
//! iteration counts, cache replay, serve dedup) are tier-1 tests.

use std::process::ExitCode;
use std::time::Instant;

use busnet_core::params::{Buffering, Workload};
use busnet_core::scenario::{
    run_sweep_with, BusSimEval, Evaluator, Scenario, ScenarioGrid, SimBudget, Stopping, Supervisor,
    SweepOptions, SweepRecord,
};
use busnet_sim::event::EngineKind;
use busnet_sim::exec::ExecutionMode;

/// Interleaved pairs per gate; odd, so the median is one pair's ratio.
const PAIRS: usize = 21;

/// Measures `a` and `b` in interleaved pairs, flipping which runs first
/// every pair, and returns the per-pair ratios `b / a`, sorted. Noise
/// or drift that hits a minority of the pairs cannot move the median
/// far, while it can swing a one-sided best-of-N of either side.
fn interleaved_ratios(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Vec<f64> {
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

/// The fixed-replication event-engine simulator both gates time.
fn sim() -> BusSimEval {
    BusSimEval::new(SimBudget {
        replications: 2,
        warmup: 1_000,
        measure: 50_000,
        master_seed: 0x5EED,
        mode: ExecutionMode::Serial,
        engine: EngineKind::Event,
        stopping: Stopping::Fixed,
    })
}

/// Times one sweep of `sim` over `scenarios`.
fn timed_sweep(
    scenarios: &[Scenario],
    sim: &BusSimEval,
    options: &SweepOptions,
) -> (f64, Vec<SweepRecord>) {
    let evaluators: [&dyn Evaluator; 1] = [sim];
    let start = Instant::now();
    let records = run_sweep_with(scenarios, &evaluators, options, |_, _, _| {});
    (start.elapsed().as_secs_f64(), records)
}

fn events(records: &[SweepRecord]) -> u64 {
    records.iter().filter_map(|r| r.result.as_ref().ok().map(|e| e.simulated_events())).sum()
}

/// The Table 3–4 points: n = 8, m ∈ {8, 16}, r = 8, both bufferings.
fn table34(p_values: &[f64], workload: Workload) -> Vec<Scenario> {
    ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8])
        .p_values(p_values)
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .workloads([workload])
        .scenarios()
        .expect("static grid is valid")
}

/// Bursty event throughput (events per second) over stationary, at
/// `p = 1`; passes at a median of 0.85× or more.
fn mmpp_gate() -> bool {
    let bare = SweepOptions::new(ExecutionMode::Serial);
    let throughput = |workload: Workload| {
        let (secs, records) = timed_sweep(&table34(&[1.0], workload), &sim(), &bare);
        events(&records) as f64 / secs
    };
    let burst = Workload::on_off_burst(1.0, 0.1, 0.9, 500, None).expect("valid burst");
    let ratios = interleaved_ratios(|| throughput(Workload::Uniform), || throughput(burst.clone()));
    let median = ratios[PAIRS / 2];
    println!(
        "gates mmpp: bursty/stationary event throughput median {median:.3}x over {PAIRS} \
         interleaved pairs (range {:.3}x..{:.3}x), floor 0.85x",
        ratios[0],
        ratios[PAIRS - 1]
    );
    median >= 0.85
}

/// Supervised over bare sweep time with the `p` axis; passes when the
/// results are bit-identical and the median overhead is at most 5%.
fn supervision_gate() -> bool {
    let (scenarios, sim) = (table34(&[0.2, 1.0], Workload::Uniform), sim());
    let supervisor = Supervisor::default();
    let bare = SweepOptions::new(ExecutionMode::Serial);
    let supervised = SweepOptions { supervise: Some(&supervisor), ..bare };
    let (mut bare_records, mut supervised_records) = (Vec::new(), Vec::new());
    let ratios = interleaved_ratios(
        || {
            let secs;
            (secs, bare_records) = timed_sweep(&scenarios, &sim, &bare);
            secs
        },
        || {
            let secs;
            (secs, supervised_records) = timed_sweep(&scenarios, &sim, &supervised);
            secs
        },
    );
    let identical = bare_records.len() == supervised_records.len()
        && bare_records
            .iter()
            .zip(&supervised_records)
            .all(|(a, b)| matches!((&a.result, &b.result), (Ok(x), Ok(y)) if x == y));
    let overhead = ratios[PAIRS / 2] - 1.0;
    println!(
        "gates supervision: supervised/bare time median {:+.1}% over {PAIRS} interleaved pairs \
         (range {:+.1}%..{:+.1}%), ceiling +5.0%, bit-identical: {identical}",
        overhead * 100.0,
        (ratios[0] - 1.0) * 100.0,
        (ratios[PAIRS - 1] - 1.0) * 100.0
    );
    identical && overhead <= 0.05
}

fn main() -> ExitCode {
    // Run both gates before judging, so one failure does not hide the other.
    let mmpp = mmpp_gate();
    let supervision = supervision_gate();
    if mmpp && supervision {
        ExitCode::SUCCESS
    } else {
        eprintln!("gates: FAILED (mmpp ok: {mmpp}, supervision ok: {supervision})");
        ExitCode::FAILURE
    }
}
