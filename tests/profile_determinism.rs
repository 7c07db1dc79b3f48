//! Operator profiling is an *observer*, never a participant: turning it on
//! must not change a single result row, and the per-operator row counts it
//! reports must be a deterministic property of the plan and the data — not
//! of the thread count or the serving regime.
//!
//! Property tests sweep random SNB/JOB template draws through
//!
//! 1. `Session::run_profiled` (fresh optimization),
//! 2. `Session::run_with` with `cached` (plan-cache probe + rebind),
//! 3. `PreparedStatement::execute_with` (pinned skeleton),
//! 4. `Session::explain_analyze` (the rendered-report path),
//! 5. `Snapshot::run_with` (fresh optimization on a pinned epoch), and
//! 6. `Session::run_with` with `cached` under a generous deadline (the
//!    serving edge's deadline-armed path),
//!
//! at 1, 2, and 8 intra-query threads, and assert that every profiled
//! result is **bit-identical** to the unprofiled `Session::run` twin, and
//! that the per-operator `(kind, rows_in, rows_out)` sequence is identical
//! across all six regimes and all three thread counts.

use proptest::prelude::*;
use relgo::prelude::*;
use relgo::workloads::templates::{job_templates, snb_templates, QueryTemplate};
use std::sync::OnceLock;
use std::time::Duration;

const THREADS: [usize; 3] = [1, 2, 8];

fn options(threads: usize) -> SessionOptions {
    SessionOptions {
        threads,
        ..SessionOptions::default()
    }
}

/// Shared sessions (data + index + GLogue construction dominates test
/// time): one per thread count per dataset.
fn snb_sessions() -> &'static [(Session, SnbSchema); 3] {
    static CELL: OnceLock<[(Session, SnbSchema); 3]> = OnceLock::new();
    CELL.get_or_init(|| THREADS.map(|t| Session::snb_with(0.03, 42, options(t)).unwrap()))
}

fn job_sessions() -> &'static [(Session, ImdbSchema); 3] {
    static CELL: OnceLock<[(Session, ImdbSchema); 3]> = OnceLock::new();
    CELL.get_or_init(|| THREADS.map(|t| Session::imdb_with(0.05, 7, options(t)).unwrap()))
}

/// Row-for-row table equality (stricter than set equality).
fn bit_identical(a: &Table, b: &Table) -> bool {
    a.num_rows() == b.num_rows() && (0..a.num_rows() as u32).all(|r| a.row(r) == b.row(r))
}

/// The deterministic core of a [`PlanReport`]: operator kind and measured
/// cardinalities in operator-id order. Wall times, morsel counts, and
/// budget charges legitimately vary across threads and runs; row counts
/// must not.
fn op_rows(report: &relgo::prelude::PlanReport) -> Vec<(&'static str, u64, u64)> {
    report
        .ops
        .iter()
        .map(|op| (op.meta.kind, op.prof.rows_in, op.prof.rows_out))
        .collect()
}

/// Run one template draw through every profiled regime on one session;
/// returns the shared `(kind, rows_in, rows_out)` sequence for the
/// cross-thread-count comparison.
fn profiled_case(
    session: &Session,
    t: &QueryTemplate,
    draw: u64,
    mode: OptimizerMode,
) -> Vec<(&'static str, u64, u64)> {
    let name = t.name();
    let q = t.instantiate(draw).unwrap();
    let plain = session.run(&q, mode).unwrap().table;

    let (outcome, run_report) = session.run_profiled(&q, mode).unwrap();
    assert!(
        bit_identical(&plain, &outcome.table),
        "{name} draw {draw} {}: run_profiled changed the result",
        mode.name()
    );
    run_report.reconcile().unwrap();
    assert_eq!(
        run_report.root().map(|r| r.prof.rows_out),
        Some(plain.num_rows() as u64),
        "{name} draw {draw} {}: root cardinality disagrees with the result",
        mode.name()
    );

    let profiled = RunOptions {
        profile: ProfileMode::On,
        ..RunOptions::new(mode)
    };
    let cached = RunOptions {
        cached: true,
        ..profiled
    };
    let (outcome, cached_report) = session.run_with(&q, &cached).unwrap();
    let cached_report = cached_report.unwrap();
    assert!(
        bit_identical(&plain, &outcome.table),
        "{name} draw {draw} {}: cached run_with changed the result",
        mode.name()
    );

    // Prepare from the draw-0 instance so execute_with really rebinds.
    let stmt = session.prepare(&t.instantiate(0).unwrap(), mode).unwrap();
    let (outcome, prepared_report) = stmt
        .execute_with(&t.bindings(draw).unwrap(), None, ProfileMode::On)
        .unwrap();
    let prepared_report = prepared_report.unwrap();
    assert!(
        bit_identical(&plain, &outcome.table),
        "{name} draw {draw} {}: execute_with changed the result",
        mode.name()
    );

    let (outcome, snapshot_report) = session.snapshot().run_with(&q, &profiled).unwrap();
    let snapshot_report = snapshot_report.unwrap();
    assert!(
        bit_identical(&plain, &outcome.table),
        "{name} draw {draw} {}: Snapshot::run_with changed the result",
        mode.name()
    );

    let deadline = RunOptions {
        deadline: Some(TimeBudget::new(Duration::from_secs(600))),
        ..cached
    };
    let (outcome, deadline_report) = session.run_with(&q, &deadline).unwrap();
    let deadline_report = deadline_report.unwrap();
    assert!(
        bit_identical(&plain, &outcome.table),
        "{name} draw {draw} {}: deadline-armed run_with changed the result",
        mode.name()
    );

    let ea = session.explain_analyze(&q, mode).unwrap();
    assert!(
        bit_identical(&plain, &ea.outcome.table),
        "{name} draw {draw} {}: explain_analyze changed the result",
        mode.name()
    );

    let rows = op_rows(&run_report);
    for (regime, report) in [
        ("cached run_with", &cached_report),
        ("execute_with", &prepared_report),
        ("explain_analyze", &ea.report),
        ("Snapshot::run_with", &snapshot_report),
        ("deadline-armed run_with", &deadline_report),
    ] {
        assert_eq!(
            rows,
            op_rows(report),
            "{name} draw {draw} {}: {regime} measured different operator rows",
            mode.name()
        );
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn snb_profiles_are_regime_and_thread_invariant(
        idx in 0usize..5,
        draw in 0u64..60,
        relgo_mode in any::<bool>(),
    ) {
        let mode = if relgo_mode { OptimizerMode::RelGo } else { OptimizerMode::GRainDb };
        let mut per_threads = Vec::new();
        for (session, schema) in snb_sessions() {
            let t = &snb_templates(schema)[idx];
            per_threads.push(profiled_case(session, t, draw, mode));
        }
        prop_assert_eq!(&per_threads[0], &per_threads[1],
            "SNB template {} draw {}: 1- and 2-thread operator rows diverge", idx, draw);
        prop_assert_eq!(&per_threads[0], &per_threads[2],
            "SNB template {} draw {}: 1- and 8-thread operator rows diverge", idx, draw);
    }

    #[test]
    fn job_profiles_are_regime_and_thread_invariant(
        idx in 0usize..3,
        draw in 0u64..60,
        relgo_mode in any::<bool>(),
    ) {
        let mode = if relgo_mode { OptimizerMode::RelGo } else { OptimizerMode::GRainDb };
        let mut per_threads = Vec::new();
        for (session, schema) in job_sessions() {
            let t = &job_templates(schema)[idx];
            per_threads.push(profiled_case(session, t, draw, mode));
        }
        prop_assert_eq!(&per_threads[0], &per_threads[1],
            "JOB template {} draw {}: 1- and 2-thread operator rows diverge", idx, draw);
        prop_assert_eq!(&per_threads[0], &per_threads[2],
            "JOB template {} draw {}: 1- and 8-thread operator rows diverge", idx, draw);
    }
}

/// The no-profiling serving path must stay untaxed and untouched: a
/// session that has profiled once still answers unprofiled queries with
/// the same rows, and EXPLAIN (no analyze) never executes.
#[test]
fn explain_does_not_execute_and_profiling_leaves_no_residue() {
    let (session, schema) = Session::snb_with(0.03, 42, options(2)).unwrap();
    let t = &snb_templates(&schema)[0];
    let q = t.instantiate(3).unwrap();
    let before = session.run(&q, OptimizerMode::RelGo).unwrap().table;

    let rendered = session.explain(&q, OptimizerMode::RelGo).unwrap();
    assert!(rendered.contains("[op=0 est="), "{rendered}");
    assert!(
        !rendered.contains(" act="),
        "EXPLAIN must not execute: {rendered}"
    );

    let (_, report) = session.run_profiled(&q, OptimizerMode::RelGo).unwrap();
    assert_eq!(rendered.lines().count(), report.ops.len());

    let after = session.run(&q, OptimizerMode::RelGo).unwrap().table;
    assert!(bit_identical(&before, &after));
}
