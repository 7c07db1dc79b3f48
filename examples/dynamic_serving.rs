//! Dynamic serving demo: ingest a dynamic-SNB update stream while the same
//! session serves templated IC queries.
//!
//! The walkthrough:
//!
//! 1. a manual ingest batch — insert a person and a knows edge, commit, and
//!    watch the epoch advance, statistics refresh incrementally, and the
//!    plan cache invalidate;
//! 2. snapshot isolation — a reader pinned to the pre-commit epoch keeps
//!    seeing the old data;
//! 3. a mixed replay (`ServeMode::Mixed`): concurrent writer threads
//!    committing update batches — racing on a shared marker row, so the
//!    losers observe first-committer-wins conflicts and retry — while
//!    reader threads serve snapshot-pinned verified cached queries plus
//!    prepared executes, with the per-replay cache-metric deltas printed
//!    at the end.
//!
//! Run with: `cargo run --release --example dynamic_serving [-- --quick]`
//! (`RELGO_THREADS=2` additionally gives every query 2 morsel workers.)

use relgo::prelude::*;
use relgo::workloads::dynamic::dynamic_snb;

fn main() -> Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sf, readers, rounds, commits, ops, writers) = if quick {
        (0.03, 2, 3, 3, 6, 2)
    } else {
        (0.1, 4, 8, 6, 25, 2)
    };

    println!("generating SNB-like data (sf={sf}) and building the session...");
    let (session, schema) = Session::snb_with(sf, 42, SessionOptions::default())?;
    // The dynamic-SNB bundle: IC read templates + a person/knows update
    // stream whose prefixes are safe to split across commits.
    let workload = dynamic_snb(&schema, &session.db(), 7, 8)?;
    let templates = &workload.templates;

    // --- 1. one manual ingest batch -----------------------------------
    let persons = session.db().table("Person")?.num_rows();
    let q = templates[0].instantiate(1)?;
    session.run_cached(&q, OptimizerMode::RelGo)?;
    let snap = session.snapshot();

    let new_person = 1_000_000i64;
    let mut batch = session.begin_ingest();
    batch.insert_row(
        "Person",
        vec![
            Value::Int(new_person),
            Value::str("Nov"),
            Value::Date(18_600),
        ],
    )?;
    batch.insert_edge(
        "Knows",
        vec![
            Value::Int(2_000_000),
            Value::Int(1),
            Value::Int(new_person),
            Value::Date(18_601),
        ],
    )?;
    // Plus the head of the generated update stream, through the same API.
    for op in &workload.ops {
        batch.insert_row(&op.table, op.row.clone())?;
    }
    let report = batch.commit()?;
    let stream_persons = workload.ops.iter().filter(|o| o.table == "Person").count();
    println!(
        "committed epoch {}: +{} rows into {:?} ({:.2}% of the data changed)",
        report.epoch,
        report.inserted,
        report.tables,
        report.changed_fraction * 100.0
    );
    match report.stats {
        StatsRefresh::Incremental { retained, evicted } => println!(
            "  statistics refreshed incrementally in {:?}: {retained} warm pattern counts kept, {evicted} evicted",
            report.stats_time
        ),
        StatsRefresh::Full => println!(
            "  statistics fully rebuilt in {:?} (past the staleness threshold)",
            report.stats_time
        ),
    }
    let out = session.run_cached(&q, OptimizerMode::RelGo)?;
    assert!(!out.cached, "the commit invalidated the cached plan");
    println!("  post-commit run_cached re-optimized (cache was invalidated)");

    // --- 2. snapshot isolation ----------------------------------------
    let new_persons = persons + 1 + stream_persons;
    assert_eq!(snap.epoch(), 0);
    assert_eq!(snap.db().table("Person")?.num_rows(), persons);
    assert_eq!(session.db().table("Person")?.num_rows(), new_persons);
    println!(
        "snapshot pinned to epoch 0 still sees {persons} persons; the live session sees {new_persons}"
    );

    // --- 3. mixed replay ----------------------------------------------
    println!(
        "mixed replay: {readers} readers x {rounds} rounds (verified) + {writers} writers x {commits} commits x {ops} rows..."
    );
    let before = session.cache_metrics();
    let report = replay_concurrent_with(
        &session,
        templates,
        OptimizerMode::RelGo,
        readers,
        rounds,
        ServeMode::Mixed {
            commits,
            ops_per_commit: ops,
            writers,
        },
    )?;
    let ms = |d: Option<std::time::Duration>| d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
    println!(
        "  {} queries ({} prepared, {} from cache/pins) in {:.1} ms ({:.0} q/s, p50 {:.3} ms, p99 {:.3} ms) — zero divergences",
        report.queries,
        report.prepared_queries,
        report.cached_queries,
        report.elapsed.as_secs_f64() * 1e3,
        report.throughput(),
        ms(report.p50()),
        ms(report.p99())
    );
    println!(
        "  writers: {} commits, {} rows committed, {} write conflicts retried, final epoch {}",
        report.commits,
        report.ingested_rows,
        report.conflicts,
        session.epoch()
    );
    // The per-replay cache-metric deltas: how serving behaved *during*
    // the ingest traffic.
    let m = report.metrics;
    println!(
        "  replay cache deltas: hits={} misses={} invalidations={} prepared_hits={} prepared_invalidations={}",
        m.hits, m.misses, m.invalidations, m.prepared_hits, m.prepared_invalidations
    );
    assert_eq!(report.commits, commits);
    let writer_rounds = commits.div_ceil(writers);
    assert_eq!(
        report.conflicts,
        commits - writer_rounds,
        "every multi-writer round produces exactly one marker conflict"
    );
    assert!(
        m.invalidations >= commits as u64,
        "every commit invalidates"
    );
    assert!(
        m.prepared_invalidations >= 1,
        "stale pins re-optimized after commits"
    );
    let delta = session.cache_metrics().since(&before);
    assert_eq!(m, delta, "report deltas equal the session-level diff");

    // The unified snapshot folds the ingest counters the replay produced
    // into the same registry the server's /metrics endpoint scrapes.
    let obs = session.observability_snapshot();
    println!(
        "  observability: epoch {}, {} series, {} ingest commits / {} conflicts / {} rows recorded",
        obs.epoch,
        obs.registry.names().len(),
        obs.registry.counter_sum("relgo_ingest_commits_total"),
        obs.registry.counter_sum("relgo_ingest_conflicts_total"),
        obs.registry.counter_sum("relgo_ingest_rows_total")
    );
    Ok(())
}
