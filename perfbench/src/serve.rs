//! The `serve-mixed` workload: an in-process `relgo-server` with two
//! workers over a durable SNB session (WAL fsync on, a checkpoint every 64
//! commits), driven by two client threads with one connection each:
//!
//! * the reader, a closed loop on one keep-alive connection, alternating
//!   `/query` (plan-cache path) and `/execute` (prepared path) with seeded
//!   template draws; it reconnects whenever the server answers
//!   `Connection: close`;
//! * the writer, an open loop sending 20 `/ingest` commits per second (5
//!   rows of the seeded update stream each) and 100 `/query` reads per
//!   second, each on a fresh connection and timed from when it was due.
//!
//! After the load, a settle pass compares the server's answers with the
//! in-process DuckDbLike reference at the final epoch, and recovery from a
//! copy of the run's checkpoint and WAL tail must restore exactly the
//! acknowledged commits. Any failed or refused request fails the run.
//! `peak_rss_mb` covers the load alone; the peak of the phases before and
//! after it goes to the provenance line.

use crate::analytic::{note_peak_before_timing, session_options, DATA_SEED, SETUPS};
use crate::gate::{verify, Fingerprint};
use crate::http::{self, Conn, Response};
use crate::stats::{peak_rss_mb, reset_peak_rss, Samples, Windows};
use crate::suite::{self, Item, LayerTimes, SetupTimes, THREADS};
use crate::{Config, Outcome, Rng};
use relgo::datagen::{generate_snb, snb_update_stream, SnbParams, UpdateOp};
use relgo::metrics::{HistogramSnapshot, SampleValue};
use relgo::prelude::*;
use relgo::storage::Database;
use relgo::workloads::templates::snb_templates;
use relgo_server::{wire, ServeStats, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SF: f64 = 1.0;
const WORKERS: usize = 2;
const CHECKPOINT_RECORDS: u64 = 64;
const COMMITS_PER_S: u64 = 20;
const ROWS_PER_COMMIT: usize = 5;
const FRESH_READS_PER_S: u64 = 100;
/// The persons `snb_templates` draws from: the generator's hubs, ids 0–19.
/// The settle pass (and the in-process probes) draws each once per
/// template.
const HUB_PERSONS: u64 = 20;
const COLD_CYCLES: usize = 9;
const RECOVER_REPEATS: usize = 9;
/// Length of the in-process traced cycles on the templates.
const TRACE_SECONDS: u64 = 2;
/// Where runs keep their WAL and checkpoints, relative to the checkout.
const RUN_ROOT: &str = ".perfbench_run";
const WAL_FILE: &str = "session.wal";

fn wal_options() -> WalOptions {
    WalOptions {
        fsync: true,
        ..WalOptions::default()
    }
}

fn options() -> SessionOptions {
    SessionOptions {
        // The two workers already occupy both cores; intra-query threads
        // on top would only oversubscribe them.
        threads: 1,
        checkpoint: Some(CheckpointPolicy {
            max_records: CHECKPOINT_RECORDS,
            ..CheckpointPolicy::default()
        }),
        ..session_options()
    }
}

fn server_config(access_log: Option<&Path>) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        // The benchmark measures serving, not quotas: the default
        // cumulative budget (10M rows) runs out within a long run and
        // would turn reads into 429s.
        tenant_row_budget: usize::MAX,
        access_log: access_log.map(|p| p.display().to_string()),
        ..ServerConfig::default()
    }
}

fn base_data() -> (Database, RGMapping) {
    generate_snb(&SnbParams {
        sf: SF,
        seed: DATA_SEED,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> RelGoError + '_ {
    move |e| RelGoError::execution(format!("{what}: {e}"))
}

/// The run's scratch directory; removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir> {
        let dir = Path::new(RUN_ROOT).join(format!("serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(io_err("create run directory"))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(RUN_ROOT);
    }
}

/// Serve `session` on an ephemeral port while `body` runs, then shut the
/// server down (graceful drain) and join it, whatever `body` returned.
fn with_server<R>(
    session: &Session,
    templates: &[QueryTemplate],
    config: ServerConfig,
    body: impl FnOnce(SocketAddr) -> Result<R>,
) -> Result<(R, ServeStats)> {
    let bound = Server::new(session, templates, config).bind()?;
    let addr = bound.local_addr();
    std::thread::scope(|scope| {
        let server = scope.spawn(move || bound.run());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
        let shutdown = http::request_once(addr, "POST", "/shutdown", "");
        let stats = server
            .join()
            .map_err(|_| RelGoError::execution("server thread panicked".to_string()))?;
        let result = result.unwrap_or_else(|p| std::panic::resume_unwind(p));
        shutdown.map_err(io_err("shutdown"))?;
        Ok((result?, stats?))
    })
}

/// The `/ingest` body of a batch of update-stream rows (edge tables go
/// through the RGMapping-checked `edge|` form).
fn ingest_body(ops: &[UpdateOp], edge_tables: &[String]) -> String {
    let mut body = String::new();
    for op in ops {
        if edge_tables.contains(&op.table) {
            body.push_str("edge|");
        }
        body.push_str(&op.table);
        body.push('|');
        body.push_str(&wire::encode_row(&op.row));
        body.push('\n');
    }
    body
}

/// Check a query response: a 200 whose `ok rows=N` meta line matches the
/// rows that follow, every one of which decodes. Returns the rows and the
/// epoch the server answered at.
fn decode_rows(resp: &Response) -> std::result::Result<(Vec<Vec<Value>>, u64), String> {
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.body.trim_end()));
    }
    let mut lines = resp.body.lines();
    let meta = lines.next().unwrap_or("");
    let field = |key: &str| -> Option<u64> {
        meta.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    let (Some(n), Some(epoch)) = (field("rows="), field("epoch=")) else {
        return Err(format!("malformed meta line {meta:?}"));
    };
    let rows = lines
        .map(wire::decode_row)
        .collect::<Result<Vec<_>>>()
        .map_err(|e| format!("undecodable row: {e}"))?;
    if rows.len() as u64 != n {
        return Err(format!("meta says rows={n}, body has {}", rows.len()));
    }
    Ok((rows, epoch))
}

fn ok_or(resp: std::io::Result<Response>, what: &str) -> Result<Response> {
    let resp = resp.map_err(io_err(what))?;
    if resp.status != 200 {
        return Err(RelGoError::execution(format!(
            "{what}: status {}: {}",
            resp.status,
            resp.body.trim_end()
        )));
    }
    Ok(resp)
}

/// Warm-up on one connection, closed before timing starts: `/prepare` per
/// template, one `/query` and one `/execute` per template, one commit.
/// Returns the prepared-statement ids in template order.
fn warm_up(addr: SocketAddr, templates: &[QueryTemplate], commit: &str) -> Result<Vec<u64>> {
    let mut conn = Conn::connect(addr).map_err(io_err("warm-up connect"))?;
    let mut stmts = Vec::with_capacity(templates.len());
    for t in templates {
        let target = format!("/prepare?template={}", t.name());
        let resp = ok_or(conn.request("POST", &target, "", false), "warm-up prepare")?;
        let id = resp
            .body
            .trim()
            .strip_prefix("ok stmt=")
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| RelGoError::execution(format!("bad /prepare reply {:?}", resp.body)))?;
        stmts.push(id);
    }
    for (t, id) in templates.iter().zip(&stmts) {
        for target in [
            format!("/query?template={}&draw=0", t.name()),
            format!("/execute?stmt={id}&draw=0"),
        ] {
            let resp = conn
                .request("POST", &target, "", false)
                .map_err(io_err("warm-up"))?;
            decode_rows(&resp)
                .map_err(|e| RelGoError::execution(format!("warm-up {target}: {e}")))?;
        }
    }
    ok_or(
        conn.request("POST", "/ingest", commit, true),
        "warm-up ingest",
    )?;
    Ok(stmts)
}

/// Attempted and failed operations of one client population.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Count one client population into the run's totals; each of its errors
/// is a correctness-gate mismatch, so any failed request fails the run.
fn absorb(out: &mut Outcome, key: &'static str, tally: Tally, errors: Vec<String>) {
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.note(key, format!("{}/{}", tally.attempted, tally.failed));
    out.mismatches.extend(errors);
}

#[derive(Default)]
struct ReaderStats {
    rtt_ms: Windows,
    /// Client time between a response and the next request (response
    /// checks); the server's access log counts it into the next request's
    /// `micros`, whose timer starts before the blocking read.
    think_us: Samples,
    tally: Tally,
    reconnects: u64,
    errors: Vec<String>,
}

/// The closed-loop reader: one keep-alive connection, alternating the
/// plan-cache and prepared paths, until `deadline` has passed and the
/// writer has finished its schedule.
fn reader_loop(
    addr: SocketAddr,
    templates: &[QueryTemplate],
    stmts: &[u64],
    mut rng: Rng,
    load_start: Instant,
    deadline: Instant,
    writer_done: &AtomicBool,
) -> ReaderStats {
    let mut stats = ReaderStats::default();
    let mut conn = None;
    let mut i = 0u64;
    let mut answered: Option<Instant> = None;
    while Instant::now() < deadline || !writer_done.load(Ordering::Acquire) {
        let mut c = match conn.take() {
            Some(c) => c,
            None => match Conn::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    stats.tally.record(false);
                    stats.errors.push(format!("reader connect: {e}"));
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let t = rng.below(templates.len() as u64) as usize;
        let draw = rng.below(1 << 20);
        let target = if i.is_multiple_of(2) {
            format!(
                "/query?template={}&draw={draw}&tenant=reader",
                templates[t].name()
            )
        } else {
            format!("/execute?stmt={}&draw={draw}&tenant=reader", stmts[t])
        };
        i += 1;
        let start = Instant::now();
        if let Some(at) = answered.take() {
            stats
                .think_us
                .push(start.duration_since(at).as_secs_f64() * 1e6);
        }
        let resp = c.request("POST", &target, "", false);
        let rtt = start.elapsed();
        match resp {
            Ok(resp) => {
                let checked = decode_rows(&resp);
                stats.tally.record(checked.is_ok());
                match checked {
                    Ok(_) => stats.rtt_ms.push(start - load_start, ms(rtt)),
                    Err(e) => stats.errors.push(format!("reader {target}: {e}")),
                }
                if resp.closing {
                    stats.reconnects += 1;
                } else {
                    answered = Some(start + rtt);
                    conn = Some(c);
                }
            }
            Err(e) => {
                stats.tally.record(false);
                stats.errors.push(format!("reader {target}: {e}"));
            }
        }
    }
    stats
}

#[derive(Default)]
struct WriterStats {
    fresh_ms: Windows,
    /// Send-to-response span of the fresh reads (their handling plus the
    /// wait to be accepted).
    fresh_rtt_ms: Samples,
    commit_ms: Windows,
    connect_ms: Samples,
    late_ms: Samples,
    fresh: Tally,
    commits: Tally,
    errors: Vec<String>,
}

/// One open-loop request on a fresh connection; returns the response and
/// the connect and send-to-response spans.
fn fresh_request(
    addr: SocketAddr,
    target: &str,
    body: &str,
) -> std::io::Result<(Response, Duration, Duration)> {
    let start = Instant::now();
    let mut conn = Conn::connect(addr)?;
    let connected = start.elapsed();
    let sent = Instant::now();
    let resp = conn.request("POST", target, body, true)?;
    Ok((resp, connected, sent.elapsed()))
}

/// The open-loop writer: `COMMITS_PER_S` commits and `FRESH_READS_PER_S`
/// reads per second for `seconds`, each due at a fixed offset from
/// `start` and timed from that due time.
fn writer_loop(
    addr: SocketAddr,
    templates: &[QueryTemplate],
    commits: &[String],
    mut rng: Rng,
    start: Instant,
) -> WriterStats {
    let mut stats = WriterStats::default();
    let read_every = Duration::from_secs(1) / FRESH_READS_PER_S as u32;
    let commit_every = Duration::from_secs(1) / COMMITS_PER_S as u32;
    // Commits sit half a read interval off the read grid.
    let mut events: Vec<(Duration, Option<&String>)> = commits
        .iter()
        .enumerate()
        .map(|(k, body)| (commit_every * k as u32 + read_every / 2, Some(body)))
        .collect();
    let reads = FRESH_READS_PER_S as usize * commits.len() / COMMITS_PER_S as usize;
    events.extend((0..reads).map(|j| (read_every * j as u32, None)));
    events.sort_by_key(|(due, _)| *due);
    for (offset, commit) in events {
        let due = start + offset;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        stats
            .late_ms
            .push_ms(Instant::now().saturating_duration_since(due));
        let (target, body) = match commit {
            Some(body) => ("/ingest?tenant=writer".to_string(), body.as_str()),
            None => {
                let t = &templates[rng.below(templates.len() as u64) as usize];
                let draw = rng.below(1 << 20);
                (
                    format!("/query?template={}&draw={draw}&tenant=fresh", t.name()),
                    "",
                )
            }
        };
        let result = fresh_request(addr, &target, body);
        let since_due = due.elapsed();
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|(resp, connect, rtt)| {
                if commit.is_none() {
                    decode_rows(&resp)?;
                } else if resp.status != 200 || !resp.body.starts_with("ok epoch=") {
                    return Err(format!("status {}: {}", resp.status, resp.body.trim_end()));
                }
                Ok((connect, rtt))
            });
        let tally = if commit.is_some() {
            &mut stats.commits
        } else {
            &mut stats.fresh
        };
        tally.record(checked.is_ok());
        match checked {
            Ok((connect, rtt)) => {
                stats.connect_ms.push_ms(connect);
                if commit.is_some() {
                    stats.commit_ms.push(offset, ms(since_due));
                } else {
                    stats.fresh_ms.push(offset, ms(since_due));
                    stats.fresh_rtt_ms.push_ms(rtt);
                }
            }
            Err(e) => stats.errors.push(format!("writer {target}: {e}")),
        }
    }
    stats
}

/// What the traced run reads back from the access log, per population.
#[derive(Default)]
struct LogTotals {
    requests: f64,
    micros: f64,
    /// stage name → summed micros.
    stages: std::collections::BTreeMap<String, f64>,
}

impl LogTotals {
    fn stage_us(&self, stage: &str) -> f64 {
        self.stages.get(stage).copied().unwrap_or(0.0)
    }

    fn mean(&self, total: f64) -> f64 {
        total / self.requests.max(1.0)
    }

    /// The share of handling time the traced stages account for.
    fn coverage(&self) -> f64 {
        self.stages.values().sum::<f64>() / self.micros.max(1.0)
    }
}

/// The number after `"key":` in a JSON access-log line.
fn log_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Sum the access log's `micros` and `stages` per `tenant` (reader, fresh,
/// writer), counting successful requests only.
fn read_access_log(path: &Path) -> Result<std::collections::BTreeMap<String, LogTotals>> {
    let text = std::fs::read_to_string(path).map_err(io_err("read access log"))?;
    let mut totals = std::collections::BTreeMap::<String, LogTotals>::new();
    for line in text.lines() {
        let Some(tenant) = line
            .split_once("\"tenant\":\"")
            .and_then(|(_, rest)| rest.split('"').next())
        else {
            continue;
        };
        if log_u64(line, "status") != Some(200) {
            continue;
        }
        let t = totals.entry(tenant.to_string()).or_default();
        t.requests += 1.0;
        t.micros += log_u64(line, "micros").unwrap_or(0) as f64;
        if let Some((_, stages)) = line.split_once("\"stages\":{") {
            let stages = stages.split('}').next().unwrap_or("");
            for kv in stages.split(',').filter(|kv| !kv.is_empty()) {
                if let Some((k, v)) = kv.split_once(':') {
                    let us: f64 = v.parse().unwrap_or(0.0);
                    *t.stages.entry(k.trim_matches('"').to_string()).or_default() += us;
                }
            }
        }
    }
    Ok(totals)
}

/// The checkpoint-latency histogram of the session's metrics registry.
fn checkpoint_histogram(session: &Session) -> Option<HistogramSnapshot> {
    match session
        .observability_snapshot()
        .registry
        .get("relgo_checkpoint_seconds", &[])
    {
        Some(SampleValue::Histogram(h)) => Some(h.clone()),
        _ => None,
    }
}

/// Copy the regular files of `from` (the WAL and its checkpoints) into
/// `to`.
fn copy_files(from: &Path, to: &Path) -> Result<()> {
    std::fs::create_dir_all(to).map_err(io_err("create recovery directory"))?;
    for entry in std::fs::read_dir(from).map_err(io_err("list session directory"))? {
        let entry = entry.map_err(io_err("list session directory"))?;
        if entry.file_type().map_err(io_err("stat"))?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(io_err("copy session file"))?;
        }
    }
    Ok(())
}

/// Everything the timed phase produced, gathered inside the server's
/// lifetime.
struct Served {
    reader: ReaderStats,
    writer: WriterStats,
    acked: u64,
    wal: WalStats,
    cache: MetricsSnapshot,
    checkpoints: Option<HistogramSnapshot>,
    settle: Tally,
    cold_s: Samples,
    cold_count_s: f64,
    /// Peak resident set during the load.
    peak_rss_mb: f64,
}

pub fn run(cfg: Config) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed);
    let dir = RunDir::create()?;
    let access_log = cfg.trace.then(|| dir.0.join("access.log"));

    // The load's inputs: the update stream continues the base data's keys;
    // the first commit's rows go to the warm-up commit.
    let (base_db, mapping) = base_data();
    let commits = COMMITS_PER_S * cfg.seconds;
    let ops = snb_update_stream(&base_db, cfg.seed, ROWS_PER_COMMIT * (commits as usize + 1))?;
    let edge_tables: Vec<String> = mapping.edges().iter().map(|e| e.table.clone()).collect();
    let mut bodies: Vec<String> = ops
        .chunks(ROWS_PER_COMMIT)
        .map(|batch| ingest_body(batch, &edge_tables))
        .collect();
    let warm_commit = bodies.remove(0);

    let mut times = SetupTimes::default();
    let mut served = None;
    for s in 0..SETUPS {
        let last = s + 1 == SETUPS;
        let session_dir = dir.0.join(format!("setup-{s}"));
        std::fs::create_dir_all(&session_dir).map_err(io_err("create session directory"))?;
        let start = Instant::now();
        let (db, mapping) = base_data();
        times.generate.push(start.elapsed().as_secs_f64());
        if cfg.trace {
            times.time_view_build(&db, &mapping)?;
        }
        let t = Instant::now();
        let (session, _) = Session::open_durable(
            db,
            mapping,
            options(),
            session_dir.join(WAL_FILE),
            wal_options(),
        )?;
        times.open.push(t.elapsed().as_secs_f64());
        let schema = SnbSchema::resolve(session.view().schema())?;
        let templates = snb_templates(&schema);
        let config = server_config(access_log.as_deref().filter(|_| last));
        let (result, stats) = with_server(&session, &templates, config, |addr| {
            let stmts = warm_up(addr, &templates, &warm_commit)?;
            times.total.push(start.elapsed().as_secs_f64());
            if !last {
                return Ok(None);
            }
            serve_load(
                &session,
                &templates,
                addr,
                &stmts,
                &bodies,
                &session_dir,
                &dir.0,
                &mut rng,
                cfg,
                &mut out,
            )
            .map(Some)
        })?;
        if last {
            out.note("server_requests", stats.requests);
            out.note("server_connections", stats.connections);
            served = result;
        }
    }
    let served = served.expect("the last set-up serves the load");

    // Recovery from the copy taken after the load: the newest checkpoint
    // plus the WAL tail behind it.
    let mut recover_s = Samples::new();
    let mut replay_ms = Samples::new();
    let mut replayed = 0;
    for _ in 0..RECOVER_REPEATS {
        let t = Instant::now();
        let (session, report) = Session::open_durable(
            base_db.clone(),
            mapping.clone(),
            options(),
            dir.0.join("recover").join(WAL_FILE),
            wal_options(),
        )?;
        recover_s.push(t.elapsed().as_secs_f64());
        replay_ms.push_ms(report.replay_time);
        replayed = report.records;
        out.check(if report.epoch == served.acked {
            Ok(())
        } else {
            Err(format!(
                "recovered epoch {} but {} commits were acknowledged",
                report.epoch, served.acked
            ))
        });
        drop(session);
    }

    let Served {
        reader,
        writer,
        acked,
        wal,
        cache,
        checkpoints,
        settle,
        cold_s,
        cold_count_s,
        peak_rss_mb: load_peak_mb,
    } = served;
    out.note("peak_rss_after_load_mb", format!("{:.1}", peak_rss_mb()));
    for (key, tally, errors) in [
        ("reader_attempted_failed", reader.tally, reader.errors),
        ("fresh_attempted_failed", writer.fresh, writer.errors),
        ("commits_attempted_failed", writer.commits, Vec::new()),
        // The settle pass put its mismatches in `out` as it found them.
        ("settle_attempted_failed", settle, Vec::new()),
    ] {
        absorb(&mut out, key, tally, errors);
    }
    out.note("sf", SF);
    out.note("data_seed", DATA_SEED);
    out.note("workers", WORKERS);
    out.note("wal_fsync", true);
    out.note("checkpoint_every_commits", CHECKPOINT_RECORDS);
    out.note(
        "loop",
        format!(
            "reader closed on 1 keep-alive connection; writer open at {COMMITS_PER_S} commits/s x {ROWS_PER_COMMIT} rows + {FRESH_READS_PER_S} fresh reads/s"
        ),
    );
    out.note("acked_commits", acked);
    out.note("reader_reconnects", reader.reconnects);
    out.note(
        "writer_late_p50_ms",
        format!("{:.3}", writer.late_ms.median()),
    );
    out.note("writer_late_max_ms", format!("{:.3}", writer.late_ms.max()));
    out.note("timed_queries", reader.rtt_ms.all().len());

    if cfg.trace {
        times.report_layers(&mut out);
        out.metric("glogue.cold_count_s", cold_count_s, "s");
        let log = read_access_log(access_log.as_deref().expect("traced runs log"))?;
        let none = LogTotals::default();
        let reader_log = log.get("reader").unwrap_or(&none);
        for stage in [
            "parameterize",
            "cache_probe",
            "rebind",
            "optimize",
            "execute",
            "serialize",
        ] {
            out.metric(
                format!("server.stage.{stage}_us"),
                reader_log.mean(reader_log.stage_us(stage)),
                "us",
            );
        }
        let handling_us = reader_log.mean(reader_log.micros);
        out.metric("server.handling_us", handling_us, "us");
        out.metric(
            "server.network_us",
            reader.rtt_ms.all().mean() * 1e3 - handling_us,
            "us",
        );
        out.metric("server.coverage", reader_log.coverage(), "ratio");
        out.metric("client.think_us", reader.think_us.mean(), "us");
        let fresh_log = log.get("fresh").unwrap_or(&none);
        out.metric("server.fresh_coverage", fresh_log.coverage(), "ratio");
        out.metric("server.connect_ms", writer.connect_ms.mean(), "ms");
        out.metric(
            "server.accept_wait_ms",
            writer.fresh_rtt_ms.mean() - fresh_log.mean(fresh_log.micros) / 1e3,
            "ms",
        );
        let writer_log = log.get("writer").unwrap_or(&none);
        let wal_us = writer_log.stage_us("wal_append");
        out.metric("delta.wal_append_ms", writer_log.mean(wal_us) / 1e3, "ms");
        out.metric(
            "relgo.commit_apply_ms",
            writer_log.mean(writer_log.micros - wal_us) / 1e3,
            "ms",
        );
        let records = wal.records.max(1) as f64;
        out.metric(
            "delta.syncs_per_commit",
            wal.syncs as f64 / records,
            "ratio",
        );
        out.metric(
            "delta.wal_bytes_per_row",
            wal.bytes as f64 / (records * ROWS_PER_COMMIT as f64),
            "B",
        );
        let (ckpt_ms, ckpts) = checkpoints.map_or((0.0, 0), |h| {
            (h.sum_us as f64 / 1e3 / h.count.max(1) as f64, h.count)
        });
        out.metric("delta.checkpoint_ms", ckpt_ms, "ms");
        out.metric("delta.checkpoints", ckpts as f64, "count");
        out.metric("delta.replay_ms", replay_ms.median(), "ms");
        out.metric("delta.replayed_records", replayed as f64, "count");
        out.metric("cache.hit_ratio", cache.hit_ratio(), "ratio");
        out.metric("cache.invalidations", cache.invalidations as f64, "count");
        out.metric(
            "cache.prepared_invalidations",
            cache.prepared_invalidations as f64,
            "count",
        );
    } else {
        out.note("setup_runs_s", times.total.list());
        out.note("cold_runs_s", cold_s.list());
        out.metric("setup_s", times.total.median(), "s");
        out.metric("cold_pass_s", cold_s.median(), "s");
        // Serving statistics are medians over the one-second windows of the
        // load: a burst of interference from outside the program moves a
        // few windows, not the median.
        let rtt = &reader.rtt_ms;
        let qps = |w: &Samples| w.len() as f64 / (w.sum() / 1e3);
        let p = |q: f64| move |w: &Samples| w.quantile(q);
        out.metric("qps", rtt.median_of(qps), "1/s");
        out.metric("query_p50_ms", rtt.median_of(p(0.5)), "ms");
        out.metric("query_p99_ms", rtt.median_of(p(0.99)), "ms");
        let (fresh, commit) = (&writer.fresh_ms, &writer.commit_ms);
        out.metric("fresh_p50_ms", fresh.median_of(p(0.5)), "ms");
        out.metric("fresh_p90_ms", fresh.median_of(p(0.9)), "ms");
        out.metric("commit_p50_ms", commit.median_of(p(0.5)), "ms");
        out.metric("commit_p90_ms", commit.median_of(p(0.9)), "ms");
        out.metric("recover_s", recover_s.median(), "s");
    }
    out.metric("peak_rss_mb", load_peak_mb, "MB");
    drop(dir);
    Ok(out)
}

/// The timed phase and everything that must happen while the server is
/// still up: the load, a copy of the session files for recovery, the
/// settle pass, cold cycles, and (traced runs) the in-process probes.
#[allow(clippy::too_many_arguments)]
fn serve_load(
    session: &Session,
    templates: &[QueryTemplate],
    addr: SocketAddr,
    stmts: &[u64],
    commits: &[String],
    session_dir: &Path,
    run_dir: &Path,
    rng: &mut Rng,
    cfg: Config,
    out: &mut Outcome,
) -> Result<Served> {
    let wal_before = session.wal_stats().expect("durable session");
    let cache_before = session.cache_metrics();
    let ckpt_before = checkpoint_histogram(session);
    note_peak_before_timing(out)?;
    let writer_done = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(cfg.seconds);
    let (reader_rng, writer_rng) = (Rng::new(rng.next_u64()), Rng::new(rng.next_u64()));
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            reader_loop(
                addr,
                templates,
                stmts,
                reader_rng,
                start,
                deadline,
                &writer_done,
            )
        });
        let writer = scope.spawn(|| {
            let stats = writer_loop(addr, templates, commits, writer_rng, start);
            writer_done.store(true, Ordering::Release);
            stats
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    // The settle pass, cold cycles and recovery below are not part of the
    // load's peak.
    let peak_rss_mb = reset_peak_rss().map_err(io_err("reset the peak resident set"))?;
    // Warm-up commit + the writer's acknowledged ones.
    let acked = 1 + writer.commits.attempted - writer.commits.failed;
    let wal = session
        .wal_stats()
        .expect("durable session")
        .since(&wal_before);
    let cache = session.cache_metrics().since(&cache_before);
    let checkpoints = match (checkpoint_histogram(session), ckpt_before) {
        (Some(after), Some(before)) => Some(after.since(&before)),
        (after, _) => after,
    };
    copy_files(session_dir, &run_dir.join("recover"))?;

    // Settle: the server's answers on both paths against the in-process
    // DuckDbLike reference at the final epoch, for one draw per template
    // and hub person 0–19 (person = draw mod 20), so every run settles on
    // the same mix of heavy and light parameters.
    let mut draws: Vec<(usize, u64)> = Vec::new();
    let mut refs: Vec<Item> = Vec::new();
    for (t, template) in templates.iter().enumerate() {
        for person in 0..HUB_PERSONS {
            let draw = HUB_PERSONS * rng.below(1 << 16) + person;
            let name = format!("{}#{draw}", template.name());
            refs.push(Item::new(name, 0, template.instantiate(draw)?));
            draws.push((t, draw));
        }
    }
    // One client in traced runs, for `core.agnostic_ratio` (as in the
    // analytic workloads).
    let clients = if cfg.trace { 1 } else { THREADS };
    suite::compute_references(session, &mut refs, clients)?;
    let epoch = session.epoch();
    let mut settle = Tally::default();
    let mut conn = Conn::connect(addr).map_err(io_err("settle connect"))?;
    for (&(t, draw), item) in draws.iter().zip(&refs) {
        for target in [
            format!(
                "/query?template={}&draw={draw}&tenant=settle",
                templates[t].name()
            ),
            format!("/execute?stmt={}&draw={draw}&tenant=settle", stmts[t]),
        ] {
            let resp = conn
                .request("POST", &target, "", false)
                .map_err(io_err("settle"))?;
            let checked = decode_rows(&resp).and_then(|(rows, at)| {
                if at != epoch {
                    return Err(format!("answered at epoch {at}, settled at {epoch}"));
                }
                let got = Fingerprint::of_rows(rows.iter().map(Vec::as_slice));
                let reference = item.reference.expect("reference computed");
                verify(&format!("{} via {target}", item.name), reference, got)
            });
            settle.record(checked.is_ok());
            if let Err(e) = checked {
                out.mismatches.push(e);
            }
            if resp.closing {
                conn = Conn::connect(addr).map_err(io_err("settle reconnect"))?;
            }
        }
    }
    drop(conn);

    let pass: Vec<&Item> = refs.iter().collect();
    let (cold_s, cold_count_s) = suite::cold_cycles(session, &pass, COLD_CYCLES, cfg.trace, out)?;
    if cfg.trace {
        let mut layers = LayerTimes::default();
        let deadline = Instant::now() + Duration::from_secs(TRACE_SECONDS);
        suite::closed_loop(session, &refs, rng, deadline, Some(&mut layers), out)?;
        let patterns = session.glogue().cached_patterns();
        out.metric("glogue.patterns", patterns as f64, "count");
        layers.report(&refs, out);
        suite::template_layer_probe(session, templates, rng, out)?;
    }
    Ok(Served {
        reader,
        writer,
        acked,
        wal,
        cache,
        checkpoints,
        settle,
        cold_s,
        cold_count_s,
        peak_rss_mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::process::ExitCode;

    /// Run the closed-loop reader for a moment against a stand-in server
    /// that answers every request with `body` under `status`, and fold the
    /// reader into a run's outcome as `run` does.
    fn read_from_stand_in(status: u16, body: &str) -> Outcome {
        let options = SessionOptions {
            threads: 1,
            ..SessionOptions::default()
        };
        let (session, schema) = Session::snb_with(0.05, 42, options).unwrap();
        drop(session);
        let templates = snb_templates(&schema);
        let stmts: Vec<u64> = (0..templates.len() as u64).collect();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reply = format!(
            "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        let stop = AtomicBool::new(false);
        let writer_done = AtomicBool::new(true);
        let reader = std::thread::scope(|scope| {
            scope.spawn(|| {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let mut stream = stream.unwrap();
                    let mut lines = BufReader::new(stream.try_clone().unwrap());
                    let mut line = String::new();
                    // Requests carry no body: answer at each blank line.
                    while lines.read_line(&mut line).unwrap_or(0) > 0 {
                        if line == "\r\n" {
                            let _ = stream.write_all(reply.as_bytes());
                        }
                        line.clear();
                    }
                }
            });
            let start = Instant::now();
            let deadline = start + Duration::from_millis(100);
            let reader = reader_loop(
                addr,
                &templates,
                &stmts,
                Rng::new(1),
                start,
                deadline,
                &writer_done,
            );
            stop.store(true, Ordering::Release);
            // Wake the accept loop so it sees `stop`.
            drop(std::net::TcpStream::connect(addr));
            reader
        });
        let mut out = Outcome::default();
        absorb(
            &mut out,
            "reader_attempted_failed",
            reader.tally,
            reader.errors,
        );
        assert!(out.attempted > 0);
        out
    }

    /// How the run would exit with `out`, every listed metric measured.
    fn exit_code(mut out: Outcome) -> ExitCode {
        for name in crate::E2E_METRICS {
            out.metric(name, 1.0, "s");
        }
        let cfg = Config {
            seed: 1,
            seconds: 1,
            trace: false,
        };
        crate::finish("serve-mixed", cfg, out)
    }

    #[test]
    fn consistent_responses_pass_the_gate() {
        let body = format!(
            "ok rows=1 epoch=3\n{}\n",
            wire::encode_row(&[Value::Int(7)])
        );
        let out = read_from_stand_in(200, &body);
        assert!(out.correct(), "{:?}", out.mismatches);
        assert_eq!(exit_code(out), ExitCode::SUCCESS);
    }

    #[test]
    fn a_refused_request_fails_the_run() {
        let out = read_from_stand_in(503, "deadline exceeded\n");
        assert_eq!(out.failed, out.attempted);
        assert!(
            out.mismatches[0].contains("status 503"),
            "{:?}",
            out.mismatches
        );
        assert_eq!(exit_code(out), ExitCode::from(1));
    }

    #[test]
    fn a_row_count_disagreeing_with_the_body_fails_the_run() {
        let body = format!(
            "ok rows=2 epoch=3\n{}\n",
            wire::encode_row(&[Value::Int(7)])
        );
        let out = read_from_stand_in(200, &body);
        assert_eq!(out.failed, out.attempted);
        assert!(
            out.mismatches[0].contains("meta says rows=2, body has 1"),
            "{:?}",
            out.mismatches
        );
        assert_eq!(exit_code(out), ExitCode::from(1));
    }
}
