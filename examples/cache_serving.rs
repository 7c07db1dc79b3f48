//! Plan-cache serving demo: replay a templated SNB workload from several
//! threads against one shared session.
//!
//! Each worker draws fresh literals for the same query templates; the
//! first instance of a template pays the converged optimizer, every later
//! instance rebinds the cached plan skeleton. The run prints per-phase
//! optimizer time and the cache's metric counters.
//!
//! Inter- and intra-query parallelism compose: `RELGO_THREADS=4` gives
//! every replayed query 4 morsel workers inside its graph operators while
//! the replay itself runs from several serving threads.
//!
//! Run with: `cargo run --release --example cache_serving [-- --quick]`

use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;

fn main() -> Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sf, threads, rounds) = if quick { (0.03, 2, 3) } else { (0.1, 4, 25) };

    println!("generating SNB-like data (sf={sf}) and building the session...");
    let options = SessionOptions::default();
    println!(
        "  serving threads: {threads}, intra-query morsel workers: {} (RELGO_THREADS)",
        options.threads
    );
    let (session, schema) = Session::snb_with(sf, 42, options)?;
    let templates = snb_templates(&schema);

    // Phase 1: cold — every template's first instance misses and pays the
    // full GLogue cost-based optimization.
    let mut cold_opt = std::time::Duration::ZERO;
    for t in &templates {
        let out = session.run_cached(&t.instantiate(0)?, OptimizerMode::RelGo)?;
        assert!(!out.cached);
        cold_opt += out.opt.elapsed;
        println!(
            "  cold {:<8} opt {:>8.3} ms  exec {:>8.3} ms  ({} rows)",
            t.name(),
            out.opt.elapsed.as_secs_f64() * 1e3,
            out.exec_time.as_secs_f64() * 1e3,
            out.table.num_rows()
        );
    }

    // Phase 2: warm concurrent replay through the shared plan cache.
    println!(
        "replaying {threads} threads x {rounds} rounds x {} templates...",
        templates.len()
    );
    let report = replay_concurrent(&session, &templates, OptimizerMode::RelGo, threads, rounds)?;
    println!(
        "  {} queries in {:.1} ms ({:.0} q/s), {} served from cache",
        report.queries,
        report.elapsed.as_secs_f64() * 1e3,
        report.throughput(),
        report.cached_queries
    );
    println!(
        "  summed opt time: cold phase {:.3} ms over {} queries, warm phase {:.3} ms over {} queries",
        cold_opt.as_secs_f64() * 1e3,
        templates.len(),
        report.opt_time.as_secs_f64() * 1e3,
        report.queries
    );

    let m = session.cache_metrics();
    println!(
        "  cache metrics: hits={} misses={} evictions={} invalidations={}",
        m.hits, m.misses, m.evictions, m.invalidations
    );
    assert_eq!(m.misses as usize, templates.len(), "one miss per template");
    assert_eq!(m.hits as usize, report.queries, "replay is hits-only");
    Ok(())
}
