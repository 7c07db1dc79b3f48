//! The analytic workloads, `snb-ic` and `job`: one closed-loop client runs
//! a query suite in-process through `Session::run` under RelGo.
//!
//! A run sets up the session several times (`setup_s`), computes the
//! DuckDbLike reference of every query it will time (the gate), runs cold
//! cycles (`refresh_statistics()` + one suite pass, `cold_pass_s`), then
//! loops over the suite in seeded order until `--seconds` have passed.
//! Every RelGo execution is fingerprinted after its timer stops and must
//! equal its reference. `peak_rss_mb` covers the cold cycles and the loop;
//! the set-ups' and the reference's peak goes to the provenance line.

use crate::stats::{peak_rss_mb, reset_peak_rss, Samples};
use crate::suite::{self, Item, LayerTimes, SetupTimes, THREADS};
use crate::{Config, Outcome, Rng};
use relgo::datagen::{generate_imdb, generate_snb, ImdbParams, SnbParams};
use relgo::prelude::*;
use relgo::storage::Database;
use relgo::workloads::job_queries::job_queries;
use relgo::workloads::snb_queries::{self as snb, SnbSchema};
use relgo::workloads::templates::{job_templates, snb_templates};
use std::time::{Duration, Instant};

/// The data seed is pinned: `--seed` drives the parameter draws and the
/// query order, so run-to-run differences come from the program alone.
pub const DATA_SEED: u64 = 42;
const SNB_SF: f64 = 30.0;
const IMDB_SF: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Cold cycles per run; `cold_pass_s` is their median. A JOB cold pass
/// costs about twice an SNB one, so it runs fewer.
const SNB_COLD_CYCLES: usize = 5;
const JOB_COLD_CYCLES: usize = 3;
/// The fixed Fig. 1 parameter (a first name the SNB generator draws from).
const FIG1_NAME: &str = "Tom";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Snb,
    Imdb,
}

/// The pinned session settings shared by every workload.
pub fn session_options() -> SessionOptions {
    SessionOptions {
        threads: THREADS,
        ..SessionOptions::default()
    }
}

fn generate(ds: Dataset) -> (Database, RGMapping) {
    match ds {
        Dataset::Snb => generate_snb(&SnbParams {
            sf: SNB_SF,
            seed: DATA_SEED,
        }),
        Dataset::Imdb => generate_imdb(&ImdbParams {
            sf: IMDB_SF,
            seed: DATA_SEED,
        }),
    }
}

/// Generate and open the session `SETUPS` times, keeping the last one.
fn setup(ds: Dataset, trace: bool) -> Result<(Session, SetupTimes)> {
    let mut times = SetupTimes::default();
    let mut session = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let start = Instant::now();
        let (db, mapping) = generate(ds);
        let generated = start.elapsed();
        if trace {
            times.time_view_build(&db, &mapping)?;
        }
        let t = Instant::now();
        let s = Session::open_with(db, mapping, session_options())?;
        let opened = t.elapsed();
        times.generate.push(generated.as_secs_f64());
        times.open.push(opened.as_secs_f64());
        times.total.push((generated + opened).as_secs_f64());
        session = Some(s);
    }
    Ok((session.expect("SETUPS > 0"), times))
}

/// Hub persons by id tier. A pass's cost falls steeply with the id (at sf
/// 30 with the pinned data seed: person 0 about 530 ms, 1 about 210 ms,
/// 2–7 120–165 ms, 8–19 65–85 ms), so each run draws one person per tier
/// instead of four at random: the mix, and with it `qps`, stays the same
/// from seed to seed. Four persons keep the DuckDbLike reference (3–7 s per
/// person at sf 30) affordable.
const PERSON_TIERS: [std::ops::Range<i64>; 4] = [0..1, 1..2, 2..8, 8..20];

fn draw_persons(rng: &mut Rng) -> Vec<i64> {
    PERSON_TIERS
        .iter()
        .map(|tier| tier.start + rng.below((tier.end - tier.start) as u64) as i64)
        .collect()
}

fn snb_suite(s: &SnbSchema, p: i64) -> Result<Vec<(&'static str, SpjmQuery)>> {
    Ok(vec![
        ("IC1-1", snb::ic1(s, 1, p)?),
        ("IC1-2", snb::ic1(s, 2, p)?),
        ("IC1-3", snb::ic1(s, 3, p)?),
        ("IC2", snb::ic2(s, p, 18500)?),
        ("IC3-1", snb::ic3(s, 1, p, "country_3")?),
        ("IC3-2", snb::ic3(s, 2, p, "country_3")?),
        ("IC4", snb::ic4(s, p, 15500, 18500)?),
        ("IC5-1", snb::ic5(s, 1, p, 14000)?),
        ("IC5-2", snb::ic5(s, 2, p, 14000)?),
        ("IC6-1", snb::ic6(s, 1, p, "tag_3")?),
        ("IC6-2", snb::ic6(s, 2, p, "tag_3")?),
        ("IC7", snb::ic7(s, p)?),
        ("IC8", snb::ic8(s, p)?),
        ("IC9-1", snb::ic9(s, 1, p, 17000)?),
        ("IC9-2", snb::ic9(s, 2, p, 17000)?),
        ("IC11-1", snb::ic11(s, 1, p, "country_2")?),
        ("IC11-2", snb::ic11(s, 2, p, "country_2")?),
        ("IC12", snb::ic12(s, p, "class_1")?),
        ("fig1", snb::fig1_example(s, FIG1_NAME)?),
    ])
}

/// The run's timed queries, grouped into passes (one per drawn person for
/// `snb-ic`; the whole JOB suite is one pass), plus the pass the cold
/// cycles run.
fn build_items(
    ds: Dataset,
    session: &Session,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<(Vec<Item>, usize)> {
    match ds {
        Dataset::Snb => {
            let schema = SnbSchema::resolve(session.view().schema())?;
            let persons = draw_persons(rng);
            let mut items = Vec::new();
            for (pass, &p) in persons.iter().enumerate() {
                for (name, q) in snb_suite(&schema, p)? {
                    items.push(Item::new(format!("{name}@{p}"), pass, q));
                }
            }
            let persons: Vec<String> = persons.iter().map(i64::to_string).collect();
            out.note("persons", persons.join(","));
            // The cold cycles run the lightest tier's pass: GLogue counting
            // dominates a cold pass whichever person it runs.
            Ok((items, PERSON_TIERS.len() - 1))
        }
        Dataset::Imdb => {
            let schema = ImdbSchema::resolve(session.view().schema())?;
            let items = job_queries(&schema)?
                .into_iter()
                .map(|w| Item::new(w.name, 0, w.query))
                .collect();
            Ok((items, 0))
        }
    }
}

/// Record the peak resident set of everything so far (set-ups, references)
/// and restart the high-water mark, so `peak_rss_mb` measures the timed
/// phases alone.
pub fn note_peak_before_timing(out: &mut Outcome) -> Result<()> {
    let mb = reset_peak_rss()
        .map_err(|e| RelGoError::execution(format!("reset the peak resident set: {e}")))?;
    out.note("peak_rss_before_timing_mb", format!("{mb:.1}"));
    Ok(())
}

pub fn run(ds: Dataset, cfg: Config) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed);
    let (session, setup_times) = setup(ds, cfg.trace)?;
    let stats = session.view().stats();
    let (name, sf, cold_cycles) = match ds {
        Dataset::Snb => ("snb", SNB_SF, SNB_COLD_CYCLES),
        Dataset::Imdb => ("imdb", IMDB_SF, JOB_COLD_CYCLES),
    };
    out.note("dataset", name);
    out.note("sf", sf);
    out.note("data_seed", DATA_SEED);
    out.note("vertices", stats.total_vertices());
    out.note("edges", stats.total_edges());
    out.note("threads", THREADS);
    out.note("loop", "closed, 1 client");

    let (mut items, cold_pass) = build_items(ds, &session, &mut rng, &mut out)?;
    out.note("queries_per_cycle", items.len());
    // Traced runs time the reference on one client, as RelGo runs, for
    // `core.agnostic_ratio`; untraced runs spread it over both cores.
    let clients = if cfg.trace { 1 } else { THREADS };
    suite::compute_references(&session, &mut items, clients)?;
    note_peak_before_timing(&mut out)?;

    let pass: Vec<&Item> = items.iter().filter(|i| i.pass == cold_pass).collect();
    let (cold_s, cold_count_s) =
        suite::cold_cycles(&session, &pass, cold_cycles, cfg.trace, &mut out)?;

    let mut layers = LayerTimes::default();
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let timed = suite::closed_loop(
        &session,
        &items,
        &mut rng,
        deadline,
        cfg.trace.then_some(&mut layers),
        &mut out,
    )?;
    out.note("cycles", timed.cycles);

    if cfg.trace {
        setup_times.report_layers(&mut out);
        out.metric("glogue.cold_count_s", cold_count_s, "s");
        let patterns = session.glogue().cached_patterns();
        out.metric("glogue.patterns", patterns as f64, "count");
        layers.report(&items, &mut out);
        let templates = match ds {
            Dataset::Snb => snb_templates(&SnbSchema::resolve(session.view().schema())?),
            Dataset::Imdb => job_templates(&ImdbSchema::resolve(session.view().schema())?),
        };
        suite::template_layer_probe(&session, &templates, &mut rng, &mut out)?;
    } else {
        out.note("setup_runs_s", setup_times.total.list());
        out.note("cold_runs_s", cold_s.list());
        out.metric("setup_s", setup_times.total.median(), "s");
        out.metric("cold_pass_s", cold_s.median(), "s");
        // Each query at its median latency over the run's cycles: a stretch
        // of interference from outside the program moves a few cycles, not
        // the medians. qps is then the rate of a median cycle.
        let mut per_query = Samples::new();
        for samples in &timed.latency_ms {
            per_query.push(samples.median());
        }
        out.metric(
            "qps",
            per_query.len() as f64 / (per_query.sum() / 1e3),
            "1/s",
        );
        out.metric("query_p50_ms", per_query.median(), "ms");
        out.metric("query_p99_ms", per_query.quantile(0.99), "ms");
        let queries: usize = timed.latency_ms.iter().map(Samples::len).sum();
        out.note("timed_queries", queries);
    }
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(out)
}
