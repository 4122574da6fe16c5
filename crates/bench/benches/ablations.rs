//! Wall-clock ablations of the design choices DESIGN.md calls out:
//! short-circuit on/off (A1), pruning on/off (A3), prefix-class vs
//! maximal-clique clustering, the paper's tid-list kernel vs the
//! per-class bitmap/diffset choice, and full mining vs MaxEclat. Simulated-time versions of the same ablations
//! live in the `ablations` *binary*; these are real seconds on the build
//! machine.

use criterion::{criterion_group, criterion_main, Criterion};
use dbstore::HorizontalDb;
use eclat::pipeline::Serial;
use eclat::EclatConfig;
use mining_types::{MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};
use std::hint::black_box;

fn db() -> HorizontalDb {
    HorizontalDb::from_transactions(QuestGenerator::new(QuestParams::t10_i6(20_000)).generate_all())
}

fn bench_ablations(c: &mut Criterion) {
    let db = db();
    let minsup = MinSupport::from_percent(0.2);
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    group.bench_function("eclat_short_circuit_on", |b| {
        b.iter(|| {
            let mut m = OpMeter::new();
            black_box(
                eclat::pipeline::run(&db, minsup, &EclatConfig::default(), &mut m, &Serial).len(),
            )
        })
    });
    group.bench_function("eclat_short_circuit_off", |b| {
        let cfg = EclatConfig {
            short_circuit: false,
            ..Default::default()
        };
        b.iter(|| {
            let mut m = OpMeter::new();
            black_box(eclat::pipeline::run(&db, minsup, &cfg, &mut m, &Serial).len())
        })
    });
    group.bench_function("eclat_prune_on", |b| {
        let cfg = EclatConfig {
            prune: true,
            ..Default::default()
        };
        b.iter(|| {
            let mut m = OpMeter::new();
            black_box(eclat::pipeline::run(&db, minsup, &cfg, &mut m, &Serial).len())
        })
    });
    group.bench_function("repr_tidlist", |b| {
        b.iter(|| {
            let mut m = OpMeter::new();
            let cfg = EclatConfig::default();
            black_box(
                eclat::pipeline::run_tidlist_stats(&db, minsup, &cfg, &mut m)
                    .0
                    .len(),
            )
        })
    });
    group.bench_function("repr_auto", |b| {
        b.iter(|| {
            let mut m = OpMeter::new();
            black_box(
                eclat::pipeline::run(&db, minsup, &EclatConfig::default(), &mut m, &Serial).len(),
            )
        })
    });
    group.bench_function("clique_clustering", |b| {
        b.iter(|| {
            let mut m = OpMeter::new();
            black_box(
                eclat::clique::mine(
                    &db,
                    minsup,
                    &EclatConfig::default(),
                    &mut m,
                    &Serial,
                    "sequential",
                )
                .0
                .len(),
            )
        })
    });
    group.bench_function("maxeclat", |b| {
        b.iter(|| {
            let mut m = OpMeter::new();
            let cfg = EclatConfig::default();
            black_box(
                eclat::maximal::mine(&db, minsup, &cfg, &mut m, &Serial, "sequential")
                    .0
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // plots are pure overhead on this machine, and the default 3s+5s
    // warmup/measurement windows are oversized for deterministic kernels
    config = Criterion::default()
        .without_plots()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_ablations
}
criterion_main!(benches);
