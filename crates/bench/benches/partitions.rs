//! Micro-benchmarks for the partition substrate (§4.6): refinement, constancy
//! scans, τ-based swap checks, and the error-rate shortcut. These are the
//! per-node costs behind every figure.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fastod_datagen::flight_like;
use fastod_partition::{
    check_constancy, check_order_compat, ProductScratch, SortedColumn, StrippedPartition,
    SwapScratch,
};

fn bench_partitions(c: &mut Criterion) {
    let enc = flight_like(10_000, 10, 0xBE7C4).encode();
    let p_carrier = StrippedPartition::from_codes(enc.codes(5), enc.cardinality(5));
    let tau_day = SortedColumn::build(enc.codes(2), enc.cardinality(2));

    let mut group = c.benchmark_group("partition");
    group.sample_size(30);

    group.bench_function("build_from_codes_10k", |b| {
        b.iter(|| StrippedPartition::from_codes(black_box(enc.codes(5)), enc.cardinality(5)))
    });

    group.bench_function("refine_10k", |b| {
        let mut scratch = ProductScratch::new();
        b.iter(|| {
            black_box(&p_carrier).refine(black_box(enc.codes(7)), enc.cardinality(7), &mut scratch)
        })
    });

    group.bench_function("constancy_scan_10k", |b| {
        b.iter(|| check_constancy(black_box(&p_carrier), black_box(enc.codes(7))))
    });

    group.bench_function("error_rate_check", |b| {
        let node = p_carrier.refine(enc.codes(7), enc.cardinality(7), &mut ProductScratch::new());
        b.iter(|| black_box(&p_carrier).error() == black_box(&node).error())
    });

    group.bench_function("swap_scan_10k", |b| {
        let mut scratch = SwapScratch::new();
        b.iter(|| {
            check_order_compat(
                black_box(&p_carrier),
                &tau_day,
                enc.codes(8),
                &mut scratch,
                Some(1),
            )
        })
    });

    group.bench_function("sorted_column_build_10k", |b| {
        b.iter(|| SortedColumn::build(black_box(enc.codes(2)), enc.cardinality(2)))
    });

    group.finish();
}

criterion_group!(benches, bench_partitions);
criterion_main!(benches);
