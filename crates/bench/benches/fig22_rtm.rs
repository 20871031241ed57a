//! Fig 22 workload: cuSZp over early (sparse) vs late (reverberating) RTM
//! snapshots.

use baselines::common::CuszpAdapter;
use bench::{compress_once, eb_for, DATA_SCALE};
use criterion::{criterion_group, criterion_main, Criterion};
use datasets::DatasetId;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let shape = DATA_SCALE.shape(DatasetId::Rtm);
    let comp = CuszpAdapter::new();
    let mut group = c.benchmark_group("fig22_time_varying_rtm");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for step in [300usize, 1800, 3300] {
        let field = datasets::rtm::snapshot(step, &shape);
        let eb = eb_for(&field, 1e-2);
        group.bench_function(format!("t{step}"), |b| {
            b.iter(|| black_box(compress_once(&comp, black_box(&field), eb)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
