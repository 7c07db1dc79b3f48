//! In-process query-suite machinery shared by every workload: the
//! DuckDbLike reference, checked RelGo executions, cold cycles, the
//! closed loop, and the per-layer probes of the traced run.

use crate::gate::{verify, Fingerprint};
use crate::stats::Samples;
use crate::{Outcome, Rng};
use relgo::core::{parameterize, rebind_plan};
use relgo::prelude::*;
use relgo::storage::Database;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Intra-query worker threads, and the client threads computing the
/// reference (pinned: the session default reads `RELGO_THREADS`).
pub const THREADS: usize = 2;

/// The operator kinds whose self time and rows the traced run reports.
const OPERATOR_KINDS: [&str; 8] = [
    "scan_vertex",
    "expand",
    "expand_intersect",
    "scan_graph_table",
    "project",
    "aggregate",
    "hash_join",
    "scan_table",
];

/// Set-up phases of every set-up of a run; `total` is what `setup_s`
/// reports.
#[derive(Default)]
pub struct SetupTimes {
    pub generate: Samples,
    pub view_build: Samples,
    pub open: Samples,
    pub total: Samples,
}

impl SetupTimes {
    /// Traced runs: time `GraphView::build` + `build_index` on a copy of
    /// the data, the graph layer's share of opening a session.
    pub fn time_view_build(&mut self, db: &Database, mapping: &RGMapping) -> Result<()> {
        let mut copy = db.clone();
        let t = Instant::now();
        let mut view = GraphView::build(&mut copy, mapping.clone())?;
        view.build_index()?;
        self.view_build.push(t.elapsed().as_secs_f64());
        Ok(())
    }

    pub fn report_layers(&self, out: &mut Outcome) {
        out.metric("datagen.generate_s", self.generate.median(), "s");
        out.metric("graph.view_build_s", self.view_build.median(), "s");
        out.metric("relgo.open_s", self.open.median(), "s");
    }
}

/// One timed query: its name, the pass it belongs to, and its reference.
pub struct Item {
    pub name: String,
    pub pass: usize,
    pub query: SpjmQuery,
    pub reference: Option<Fingerprint>,
    /// DuckDbLike execution time of the reference run.
    pub agnostic_exec: Duration,
}

impl Item {
    pub fn new(name: String, pass: usize, query: SpjmQuery) -> Item {
        Item {
            name,
            pass,
            query,
            reference: None,
            agnostic_exec: Duration::ZERO,
        }
    }

    fn reference(&self) -> Fingerprint {
        self.reference
            .expect("references are computed before any RelGo execution")
    }
}

/// The gate's reference: every item once under DuckDbLike (an independent
/// planner with a hash-join executor), spread over `clients` client threads.
/// With one client, each item's `agnostic_exec` is measured as RelGo's
/// executions are, so it can stand in `core.agnostic_ratio`.
pub fn compute_references(session: &Session, items: &mut [Item], clients: usize) -> Result<()> {
    let next = AtomicUsize::new(0);
    type Reference = Option<Result<(Fingerprint, Duration)>>;
    let results: Mutex<Vec<Reference>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let shared: &[Item] = items;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = shared.get(i) else { break };
                let r = session
                    .run(&item.query, OptimizerMode::DuckDbLike)
                    .map(|o| (Fingerprint::of_table(&o.table), o.exec_time));
                results.lock().expect("results lock")[i] = Some(r);
            });
        }
    });
    for (item, r) in items.iter_mut().zip(results.into_inner().expect("results")) {
        let (fp, exec) = r.expect("every item ran")?;
        item.reference = Some(fp);
        item.agnostic_exec = exec;
    }
    Ok(())
}

/// One timed RelGo execution, checked against its reference after the
/// timer stops.
pub fn run_checked(
    session: &Session,
    item: &Item,
    out: &mut Outcome,
) -> Option<(Duration, QueryOutcome)> {
    out.attempted += 1;
    let start = Instant::now();
    let result = session.run(&item.query, OptimizerMode::RelGo);
    let wall = start.elapsed();
    match result {
        Ok(o) => {
            let got = Fingerprint::of_table(&o.table);
            out.check(verify(&item.name, item.reference(), got));
            Some((wall, o))
        }
        Err(e) => {
            out.check(Err(format!("{}: {e}", item.name)));
            None
        }
    }
}

/// Cold cycles: `refresh_statistics()` drops the GLogue counts, then one
/// pass re-counts them while it runs. Returns every cycle's wall time and
/// the median optimize time the cold passes spent beyond a warm pass of the
/// same queries (the GLogue counting cost; traced runs only).
pub fn cold_cycles(
    session: &Session,
    pass: &[&Item],
    cycles: usize,
    trace: bool,
    out: &mut Outcome,
) -> Result<(Samples, f64)> {
    let mut wall_s = Samples::new();
    let (mut cold_opt, mut warm_opt) = (Samples::new(), Samples::new());
    let optimize_ms = |out: &mut Outcome| {
        pass.iter()
            .filter_map(|item| run_checked(session, item, out))
            .map(|(_, o)| o.opt.elapsed.as_secs_f64() * 1e3)
            .sum::<f64>()
    };
    for _ in 0..cycles {
        let start = Instant::now();
        session.refresh_statistics()?;
        let opt = optimize_ms(out);
        wall_s.push(start.elapsed().as_secs_f64());
        cold_opt.push(opt);
        if trace {
            warm_opt.push(optimize_ms(out));
        }
    }
    Ok((wall_s, (cold_opt.median() - warm_opt.median()) / 1e3))
}

/// Per-query layer measurements of the traced cycles.
#[derive(Default)]
pub struct LayerTimes {
    optimize_ms: Samples,
    plans_visited: Samples,
    execute_ms: Samples,
    /// kind → (self ms, rows) summed over profiled executions.
    kinds: BTreeMap<&'static str, (f64, f64)>,
    profiled: usize,
    max_qerror: f64,
    /// Untraced `Session::run` wall, and the optimize + execute part of it.
    run_wall_ms: Samples,
    run_covered_ms: Samples,
    /// `run_profiled` wall of the same queries.
    traced_wall_ms: Samples,
}

impl LayerTimes {
    /// One item under every layer probe: `run_profiled` first (so it meets
    /// the caches as an untraced run would), then `Session::optimize` and
    /// `Session::execute` on their own.
    fn probe(&mut self, session: &Session, item: &Item, out: &mut Outcome) -> Result<()> {
        out.attempted += 2;
        let t = Instant::now();
        let (outcome, report) = session.run_profiled(&item.query, OptimizerMode::RelGo)?;
        self.traced_wall_ms.push_ms(t.elapsed());
        let got = Fingerprint::of_table(&outcome.table);
        out.check(verify(&item.name, item.reference(), got));
        self.profiled += 1;
        for op in &report.ops {
            let e = self.kinds.entry(op.prof.kind).or_default();
            e.0 += op.prof.elapsed.as_secs_f64() * 1e3;
            e.1 += op.prof.rows_out as f64;
        }
        if let Some(q) = report.max_qerror() {
            self.max_qerror = self.max_qerror.max(q);
        }
        let t = Instant::now();
        let (plan, opt) = session.optimize(&item.query, OptimizerMode::RelGo)?;
        self.optimize_ms.push_ms(t.elapsed());
        self.plans_visited.push(opt.plans_visited as f64);
        let t = Instant::now();
        let table = session.execute(&plan, OptimizerMode::RelGo)?;
        self.execute_ms.push_ms(t.elapsed());
        out.check(verify(
            &item.name,
            item.reference(),
            Fingerprint::of_table(&table),
        ));
        Ok(())
    }

    /// Report the layer metrics measured over `items`.
    pub fn report(&self, items: &[Item], out: &mut Outcome) {
        out.metric("core.optimize_ms", self.optimize_ms.mean(), "ms");
        out.metric("core.plans_visited", self.plans_visited.mean(), "count");
        // Plan quality: DuckDbLike over RelGo execution time on the same
        // queries (RelGo's as per-item means of `Session::execute`).
        let relgo_ms = self.execute_ms.mean() * items.len() as f64;
        let agnostic_ms: f64 = items
            .iter()
            .map(|i| i.agnostic_exec.as_secs_f64() * 1e3)
            .sum();
        out.metric("core.agnostic_ratio", agnostic_ms / relgo_ms, "ratio");
        out.metric("exec.execute_ms", self.execute_ms.mean(), "ms");
        let n = self.profiled.max(1) as f64;
        for kind in OPERATOR_KINDS {
            let (ms, rows) = self.kinds.get(kind).copied().unwrap_or_default();
            out.metric(format!("exec.{kind}.self_ms"), ms / n, "ms");
            out.metric(format!("exec.{kind}.rows"), rows / n, "count");
        }
        out.metric("exec.max_qerror", self.max_qerror, "ratio");
        out.metric(
            "trace.overhead_frac",
            self.traced_wall_ms.mean() / self.run_wall_ms.mean() - 1.0,
            "ratio",
        );
        out.metric(
            "trace.coverage",
            self.run_covered_ms.sum() / self.run_wall_ms.sum(),
            "ratio",
        );
    }
}

/// What the closed loop measured.
pub struct LoopResult {
    /// Each item's `Session::run` latencies over the untraced cycles,
    /// indexed like the items.
    pub latency_ms: Vec<Samples>,
    pub cycles: usize,
}

/// The closed loop: whole cycles over every item in a fresh seeded order
/// until `deadline`. A traced run alternates untraced and traced cycles
/// (an even number of them) so the two see the same queries. Latencies
/// come from the untraced cycles.
pub fn closed_loop(
    session: &Session,
    items: &[Item],
    rng: &mut Rng,
    deadline: Instant,
    layers: Option<&mut LayerTimes>,
    out: &mut Outcome,
) -> Result<LoopResult> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    let mut latency_ms: Vec<Samples> = items.iter().map(|_| Samples::new()).collect();
    let mut cycles = 0usize;
    let mut layers = layers;
    let trace = layers.is_some();
    while cycles == 0 || Instant::now() < deadline || (trace && cycles % 2 == 1) {
        rng.shuffle(&mut order);
        for &i in &order {
            match layers.as_deref_mut() {
                Some(l) if cycles % 2 == 1 => l.probe(session, &items[i], out)?,
                l => {
                    if let Some((wall, o)) = run_checked(session, &items[i], out) {
                        latency_ms[i].push_ms(wall);
                        if let Some(l) = l {
                            l.run_wall_ms.push_ms(wall);
                            l.run_covered_ms.push_ms(o.opt.elapsed + o.exec_time);
                        }
                    }
                }
            }
        }
        cycles += 1;
    }
    Ok(LoopResult { latency_ms, cycles })
}

/// Mean wall time of the plan-cache layers' public entry points on a
/// workload's serving templates: `parameterize`, `PlanCache::lookup` (on a
/// private cache, so the session's counters are untouched) and
/// `rebind_plan` to another draw's literals.
pub fn template_layer_probe(
    session: &Session,
    templates: &[QueryTemplate],
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<()> {
    const ROUNDS: usize = 200;
    let cache = PlanCache::new(CacheConfig {
        shards: 8,
        capacity: 1024,
    });
    let mut skeletons = Vec::new();
    for t in templates {
        let q = t.instantiate(0)?;
        let pq = parameterize(&q);
        let plan = Arc::new(session.optimize(&q, OptimizerMode::RelGo)?.0);
        cache.insert(
            pq.key(OptimizerMode::RelGo),
            Arc::clone(&plan),
            pq.params.clone(),
        );
        skeletons.push((plan, pq.params));
    }
    let (mut param_us, mut lookup_us, mut rebind_us) =
        (Samples::new(), Samples::new(), Samples::new());
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for _ in 0..ROUNDS {
        for (t, (plan, base)) in templates.iter().zip(&skeletons) {
            let q = t.instantiate(rng.below(1 << 20))?;
            let start = Instant::now();
            let pq = parameterize(&q);
            param_us.push(us(start.elapsed()));
            let key = pq.key(OptimizerMode::RelGo);
            let start = Instant::now();
            let hit = cache.lookup(&key);
            lookup_us.push(us(start.elapsed()));
            if hit.is_none() {
                return Err(RelGoError::execution(format!(
                    "{}: the template's plan-cache key missed",
                    t.name()
                )));
            }
            let start = Instant::now();
            let rebound = rebind_plan(plan, base, &pq.params);
            rebind_us.push(us(start.elapsed()));
            rebound?;
        }
    }
    out.metric("core.parameterize_us", param_us.mean(), "us");
    out.metric("cache.lookup_us", lookup_us.mean(), "us");
    out.metric("core.rebind_us", rebind_us.mean(), "us");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo::workloads::snb_queries;

    #[test]
    fn checked_runs_trip_on_a_wrong_reference() {
        let options = SessionOptions {
            threads: 1,
            ..SessionOptions::default()
        };
        let (session, schema) = Session::snb_with(0.05, 42, options).unwrap();
        let query = snb_queries::ic2(&schema, 5, 18500).unwrap();
        let mut items = vec![Item::new("IC2".to_string(), 0, query)];
        compute_references(&session, &mut items, THREADS).unwrap();
        let mut out = Outcome::default();
        assert!(run_checked(&session, &items[0], &mut out).is_some());
        assert!(out.mismatches.is_empty(), "{:?}", out.mismatches);

        let good = items[0].reference.unwrap();
        items[0].reference = Some(Fingerprint {
            checksum: good.checksum ^ 1,
            ..good
        });
        run_checked(&session, &items[0], &mut out);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(out.mismatches[0].starts_with("IC2: expected"));
    }
}
