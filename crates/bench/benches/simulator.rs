//! Criterion benchmarks of the cycle-accurate braid simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use msfu_distill::{Factory, FactoryConfig};
use msfu_layout::{FactoryMapper, GraphPartitionMapper, LinearMapper};
use msfu_sim::{SimConfig, SimEngine};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);

    for k in [2usize, 4, 8] {
        let factory = Factory::build(&FactoryConfig::single_level(k)).unwrap();
        let linear = LinearMapper::new().map_factory(&factory).unwrap();
        let gp = GraphPartitionMapper::new(1).map_factory(&factory).unwrap();

        group.bench_with_input(
            BenchmarkId::new("adaptive/linear-layout", k),
            &(&factory, &linear),
            |b, (f, l)| {
                b.iter(|| {
                    SimEngine::new(SimConfig::default())
                        .run(f.circuit(), l)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("adaptive/gp-layout", k),
            &(&factory, &gp),
            |b, (f, l)| {
                b.iter(|| {
                    SimEngine::new(SimConfig::default())
                        .run(f.circuit(), l)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dimension-ordered/linear-layout", k),
            &(&factory, &linear),
            |b, (f, l)| {
                b.iter(|| {
                    SimEngine::new(SimConfig::dimension_ordered())
                        .run(f.circuit(), l)
                        .unwrap()
                })
            },
        );
    }

    // A small two-level factory end to end.
    let two_level = Factory::build(&FactoryConfig::two_level(2)).unwrap();
    let layout = LinearMapper::new().map_factory(&two_level).unwrap();
    group.bench_function("adaptive/two-level-k2", |b| {
        b.iter(|| {
            SimEngine::new(SimConfig::default())
                .run(two_level.circuit(), &layout)
                .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
