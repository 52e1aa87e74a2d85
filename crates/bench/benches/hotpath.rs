//! Microbenches of the simulation hot path introduced with the
//! high-throughput core: timing-wheel vs heap queue ops at varying
//! horizons, batched vs scalar geometric sampling, the work-stealing
//! scheduler at 1/2/4 threads, and the fluid evaluator's RK4 step and
//! full million-processor solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use busnet_core::analytic::fluid::{FluidModel, FluidOptions};
use busnet_core::params::{Buffering, SystemParams, Workload};
use busnet_sim::event::{
    sample_bernoulli_success, CategoricalAlias, EventQueue, GeometricAlias, GeometricSampler,
    HeapEventQueue,
};
use busnet_sim::exec::{parallel_map, ExecutionMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One schedule+pop churn cycle per op, deltas uniform in `horizon`.
fn churn<Q>(
    queue: &mut Q,
    ops: u64,
    horizon: u64,
    schedule: fn(&mut Q, u64),
    pop: fn(&mut Q) -> u64,
) {
    let mut state = 0x9E37_79B9u64;
    let mut now = 0u64;
    for _ in 0..32 {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        schedule(queue, now + (state >> 33) % horizon);
    }
    for _ in 0..ops {
        now = pop(queue);
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        schedule(queue, now + (state >> 33) % horizon);
    }
}

fn bench_queue_ops(c: &mut Criterion) {
    let ops: u64 = 100_000;
    let mut group = c.benchmark_group("queue_schedule_pop");
    group.throughput(Throughput::Elements(ops));
    for horizon in [64u64, 1_024, 16_384] {
        group.bench_with_input(BenchmarkId::new("wheel", horizon), &horizon, |b, &horizon| {
            b.iter(|| {
                let mut q: EventQueue<u32> = EventQueue::new();
                churn(
                    &mut q,
                    ops,
                    horizon,
                    |q, t| q.schedule(t, 0),
                    |q| q.pop().expect("non-empty").0,
                );
                black_box(q.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("heap", horizon), &horizon, |b, &horizon| {
            b.iter(|| {
                let mut q: HeapEventQueue<u32> = HeapEventQueue::new();
                churn(
                    &mut q,
                    ops,
                    horizon,
                    |q, t| q.schedule(t, 0),
                    |q| q.pop().expect("non-empty").0,
                );
                black_box(q.len())
            })
        });
    }
    group.finish();
}

fn bench_geometric_sampling(c: &mut Criterion) {
    let draws: u64 = 100_000;
    let mut group = c.benchmark_group("geometric_sampling");
    group.throughput(Throughput::Elements(draws));
    group.bench_function("scalar", |b| {
        // The pre-sampler path: `ln(1−p)` recomputed on every draw.
        let mut rng = SmallRng::seed_from_u64(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..draws {
                acc = acc
                    .wrapping_add(sample_bernoulli_success(&mut rng, 0.3, 0, 1, u64::MAX).unwrap());
            }
            black_box(acc)
        })
    });
    group.bench_function("cached", |b| {
        // Inverse-CDF with the `ln(1−p)` constant cached.
        let sampler = GeometricSampler::new(0.3);
        let mut rng = SmallRng::seed_from_u64(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..draws {
                acc = acc.wrapping_add(sampler.failures(&mut rng).unwrap());
            }
            black_box(acc)
        })
    });
    group.bench_function("alias", |b| {
        // The engines' path: O(1) Walker alias table, no logarithm.
        let sampler = GeometricAlias::new(0.3);
        let mut rng = SmallRng::seed_from_u64(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..draws {
                acc = acc.wrapping_add(sampler.failures(&mut rng));
            }
            black_box(acc)
        })
    });
    group.bench_function("batched", |b| {
        // The batch-fill API: one call per 256 draws.
        let sampler = GeometricSampler::new(0.3);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut buf = [0u64; 256];
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..draws / 256 {
                sampler.fill_failures(&mut rng, &mut buf);
                acc = acc.wrapping_add(buf.iter().sum::<u64>());
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_categorical_sampling(c: &mut Criterion) {
    // The workload module-target draw: the legacy uniform `gen_range`
    // path vs the Walker alias table a hot-spot distribution compiles
    // into. The alias draw must stay within the same order of cost so
    // non-uniform workloads don't tax the event engines' hot path.
    let draws: u64 = 100_000;
    let m = 16usize;
    let mut group = c.benchmark_group("categorical_sampling");
    group.throughput(Throughput::Elements(draws));
    group.bench_function("uniform_gen_range", |b| {
        let mut rng = SmallRng::seed_from_u64(11);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..draws {
                acc = acc.wrapping_add(rng.gen_range(0..m));
            }
            black_box(acc)
        })
    });
    group.bench_function("hot_spot_alias", |b| {
        // 40% extra mass on module 0, uniform remainder — the canonical
        // skewed workload.
        let mut weights = vec![0.6 / m as f64; m];
        weights[0] += 0.4;
        let table = CategoricalAlias::new(&weights).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..draws {
                acc = acc.wrapping_add(table.sample(&mut rng));
            }
            black_box(acc)
        })
    });
    group.bench_function("uniform_alias", |b| {
        // The same table machinery on a flat distribution: shows the
        // draw cost is shape-independent.
        let table = CategoricalAlias::new(&vec![1.0; m]).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..draws {
                acc = acc.wrapping_add(table.sample(&mut rng));
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_work_stealing(c: &mut Criterion) {
    // Deliberately imbalanced items: the first sixth cost ~100× the
    // rest, so static partitioning leaves most threads idle while the
    // stealing pool rebalances.
    let items: Vec<u64> = (0..240).collect();
    let work = |i: usize, &x: &u64| {
        let spin = if i < 40 { 20_000u64 } else { 200 };
        let mut acc = x;
        for _ in 0..spin {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        acc
    };
    let mut group = c.benchmark_group("work_stealing_map");
    group.throughput(Throughput::Elements(items.len() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            b.iter(|| black_box(parallel_map(&items, ExecutionMode::Threads(threads), work)))
        });
    }
    group.finish();
}

fn bench_fluid(c: &mut Criterion) {
    // The fluid hot path: one RK4 step over the class-structured state.
    // The state dimension depends on the buffer depth (k + 2 levels per
    // module class), never on n — the same step serves n = 8 and
    // n = 10^6.
    let mut group = c.benchmark_group("fluid_rk4_step");
    for depth in [0u32, 4, 64] {
        let buffering = if depth == 0 { Buffering::Unbuffered } else { Buffering::Depth(depth) };
        let params = SystemParams::new(1_000_000, 1_000_000, 8)
            .unwrap()
            .with_request_probability(0.2)
            .unwrap();
        let model = FluidModel::new(params, buffering, &Workload::default(), 8.0).unwrap();
        group.throughput(Throughput::Elements(model.state_dimension() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            let mut state = Vec::new();
            b.iter(|| {
                model.bench_step(&mut state);
                black_box(state.last().copied())
            })
        });
    }
    group.finish();

    // The headline number: a complete scenario evaluation (warm start
    // + integrate to steady state). The million-processor point shows
    // the cost is flat in n; the n = 8 points are what a sweep pays per
    // small point, with (p = 0.2) and without (p = 1, every think class
    // direct) the thinking-mass solve in the warm start.
    let mut group = c.benchmark_group("fluid_solve");
    for (n, p) in [(8u32, 1.0), (8, 0.2), (1_000, 0.2), (1_000_000, 0.2)] {
        group.bench_with_input(BenchmarkId::new(format!("p{p}"), n), &n, |b, &n| {
            let params = SystemParams::new(n, n, 8).unwrap().with_request_probability(p).unwrap();
            let model =
                FluidModel::new(params, Buffering::Depth(4), &Workload::default(), 8.0).unwrap();
            b.iter(|| black_box(model.solve(&FluidOptions::default()).ebw))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_queue_ops,
    bench_geometric_sampling,
    bench_categorical_sampling,
    bench_work_stealing,
    bench_fluid
);
criterion_main!(benches);
