//! Criterion bench for the plan cache: the cold `run` path (full GLogue
//! cost-based optimization per call) vs the warm `run_cached` path
//! (parameterize + sharded-LRU lookup + literal rebind) on repeated
//! templated queries, plus a multi-threaded cached replay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relgo::prelude::*;
use relgo::workloads::templates::{job_templates, snb_templates};
use std::sync::atomic::{AtomicU64, Ordering};

fn bench(c: &mut Criterion) {
    let (snb, sschema) = Session::snb(0.05, 42).expect("snb");
    let (imdb, ischema) = Session::imdb(0.15, 7).expect("imdb");
    let suites = [
        ("snb", &snb, snb_templates(&sschema)),
        ("job", &imdb, job_templates(&ischema)),
    ];

    let mut group = c.benchmark_group("fig_cache");
    group.sample_size(10);
    for (tag, session, templates) in &suites {
        for t in templates {
            // Cold: a fresh literal every iteration, optimizer always runs.
            let draw = AtomicU64::new(0);
            group.bench_with_input(
                BenchmarkId::new(format!("{tag}_cold"), t.name()),
                t,
                |b, t| {
                    b.iter(|| {
                        let q = t.instantiate(draw.fetch_add(1, Ordering::Relaxed)).unwrap();
                        session.run(&q, OptimizerMode::RelGo).unwrap()
                    })
                },
            );
            // Warm: same traffic through the plan cache (primed by the
            // first iteration's miss).
            let draw = AtomicU64::new(0);
            group.bench_with_input(
                BenchmarkId::new(format!("{tag}_warm"), t.name()),
                t,
                |b, t| {
                    b.iter(|| {
                        let q = t.instantiate(draw.fetch_add(1, Ordering::Relaxed)).unwrap();
                        session.run_cached(&q, OptimizerMode::RelGo).unwrap()
                    })
                },
            );
        }
    }

    // Multi-threaded cached replay of the whole SNB template set.
    let templates = snb_templates(&sschema);
    group.bench_function("snb_warm/replay_4x4", |b| {
        b.iter(|| replay_concurrent(&snb, &templates, OptimizerMode::RelGo, 4, 4).unwrap())
    });
    group.finish();

    let m = snb.cache_metrics();
    println!(
        "fig_cache snb cache metrics: hits={} misses={} evictions={}",
        m.hits, m.misses, m.evictions
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
