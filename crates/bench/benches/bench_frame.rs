//! Frame-op throughput: the row-major feature matrix the model layer
//! reads from the deal-closing table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use whatif_datagen::deal_closing;

fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for &n in &[1_000usize, 10_000] {
        let frame = deal_closing(n, 7).frame;
        group.bench_with_input(BenchmarkId::new("numeric_matrix", n), &frame, |b, f| {
            b.iter(|| {
                f.numeric_matrix(&["Call", "Chat", "Demo", "Renewal"])
                    .expect("numeric columns")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frame);
criterion_main!(benches);
