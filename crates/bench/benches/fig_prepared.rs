//! Criterion bench for the prepared-statement serving path: warm
//! `run_cached` (parameterize + cache probe + rebind) vs prepared
//! `execute` (validate + rebind only) vs `execute_batch` (shared batch
//! operator state) on repeated templated queries, plus the three-regime
//! concurrent replay.

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

    let mut group = c.benchmark_group("fig_prepared");
    group.sample_size(10);
    for (tag, session, templates) in &suites {
        for t in templates {
            // Warm cached baseline: parameterize + probe + rebind per call.
            let draw = AtomicU64::new(0);
            group.bench_with_input(
                BenchmarkId::new(format!("{tag}_cached"), t.name()),
                t,
                |b, t| {
                    b.iter(|| {
                        let q = t.instantiate(draw.fetch_add(1, Ordering::Relaxed)).unwrap();
                        session.run_cached(&q, OptimizerMode::RelGo).unwrap()
                    })
                },
            );
            // Prepared: rebind-only executes against the pinned skeleton.
            let stmt = session
                .prepare(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
                .expect("prepare");
            let draw = AtomicU64::new(0);
            group.bench_with_input(
                BenchmarkId::new(format!("{tag}_prepared"), t.name()),
                t,
                |b, t| {
                    b.iter(|| {
                        let bindings = t.bindings(draw.fetch_add(1, Ordering::Relaxed)).unwrap();
                        stmt.execute(&bindings).unwrap()
                    })
                },
            );
            // Batched: 8 bindings per iteration through the shared state.
            let draw = AtomicU64::new(0);
            group.bench_with_input(
                BenchmarkId::new(format!("{tag}_batched8"), t.name()),
                t,
                |b, t| {
                    b.iter(|| {
                        let base = draw.fetch_add(8, Ordering::Relaxed);
                        let batch: Vec<Vec<Value>> =
                            (base..base + 8).map(|d| t.bindings(d).unwrap()).collect();
                        stmt.execute_batch(&batch).unwrap()
                    })
                },
            );
        }
    }

    // Concurrent replay of the SNB template set under each serving regime.
    let templates = snb_templates(&sschema);
    for serve in [
        ServeMode::Cached,
        ServeMode::Prepared,
        ServeMode::PreparedBatched { batch: 4 },
    ] {
        group.bench_function(format!("snb_replay_4x4/{}", serve.name()), |b| {
            b.iter(|| {
                replay_concurrent_with(&snb, &templates, OptimizerMode::RelGo, 4, 4, serve).unwrap()
            })
        });
    }
    group.finish();

    let m = snb.cache_metrics();
    println!(
        "fig_prepared snb cache metrics: hits={} misses={} prepared_hits={}",
        m.hits, m.misses, m.prepared_hits
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
