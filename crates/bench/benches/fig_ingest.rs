//! Criterion bench for the ingest subsystem: commit latency of a small
//! delta, commit + optimizer-rewarm under the incremental vs full
//! statistics-refresh paths, and epoch-pinned cached reads (the reader
//! side of mixed serving).
//!
//! Each commit iteration inserts 8 fresh Likes rows and deletes the 8 rows
//! of the previous iteration, so the dataset size stays stable across the
//! sampled run while every commit still exercises inserts *and*
//! tombstones.

use criterion::{criterion_group, criterion_main, Criterion};
use relgo::prelude::*;
use relgo::workloads::templates::{snb_templates, QueryTemplate};
use std::sync::atomic::{AtomicI64, Ordering};

fn ingest_session(staleness: f64) -> (Session, Vec<QueryTemplate>) {
    let options = SessionOptions {
        stats_staleness: staleness,
        ..SessionOptions::default()
    };
    let (session, schema) = Session::snb_with(0.05, 42, options).expect("snb");
    let templates = snb_templates(&schema);
    // Warm the optimizer so commits have statistics state to maintain.
    for t in &templates {
        session
            .optimize(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
            .unwrap();
    }
    (session, templates)
}

/// Commit one 8-insert (+8-delete, after the first call) Likes batch.
fn commit_batch(session: &Session, next: &AtomicI64, lo0: i64, persons: i64, messages: i64) {
    let lo = next.fetch_add(8, Ordering::Relaxed);
    let mut batch = session.begin_ingest();
    for i in 0..8 {
        let id = lo + i;
        batch
            .insert_edge(
                "Likes",
                vec![
                    Value::Int(id),
                    Value::Int(id % persons),
                    Value::Int((id * 3) % messages),
                    Value::Date(18_500),
                ],
            )
            .unwrap();
        if lo > lo0 {
            batch.delete_row("Likes", id - 8).unwrap();
        }
    }
    batch.commit().unwrap();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_ingest");
    group.sample_size(10);

    for (tag, staleness) in [("incremental", 1.0), ("full", 0.0)] {
        // Pure commit latency.
        let (session, _) = ingest_session(staleness);
        let db = session.db();
        let persons = db.table("Person").unwrap().num_rows() as i64;
        let messages = db.table("Message").unwrap().num_rows() as i64;
        let lo0 = db.table("Likes").unwrap().num_rows() as i64 * 4;
        let next = AtomicI64::new(lo0);
        group.bench_function(format!("commit_likes8_{tag}"), |b| {
            b.iter(|| commit_batch(&session, &next, lo0, persons, messages))
        });
        // Commit + re-warming the optimizer against the new epoch: what
        // the staleness knob actually buys or costs per commit.
        let (session, templates) = ingest_session(staleness);
        let next = AtomicI64::new(lo0);
        group.bench_function(format!("commit_and_rewarm_{tag}"), |b| {
            b.iter(|| {
                commit_batch(&session, &next, lo0, persons, messages);
                for t in &templates {
                    session
                        .optimize(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
                        .unwrap();
                }
            })
        });
    }

    // Epoch-pinned cached reads (the reader side of mixed serving).
    let (session, templates) = ingest_session(1.0);
    session
        .run_cached(&templates[0].instantiate(0).unwrap(), OptimizerMode::RelGo)
        .unwrap();
    let cached = RunOptions {
        cached: true,
        ..RunOptions::new(OptimizerMode::RelGo)
    };
    group.bench_function("snapshot_cached_read", |b| {
        b.iter(|| {
            let snap = session.snapshot();
            snap.run_with(&templates[0].instantiate(1).unwrap(), &cached)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
