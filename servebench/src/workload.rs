//! The three serving workloads, their result checks and their metrics.
//!
//! A run sets the server up several times (the median is `setup_s`),
//! warms the plan cache with one pass over the fixed queries, measures
//! a window of reads (and, for `write_mix`, open-loop writes), then
//! checks every read against a reference computed after the window.
//! A traced run sends each query twice, once through `Session::query`
//! untraced and once through the traced request path of `trace.rs`,
//! alternating which goes first. Both paths run in the same window at
//! the same machine speed, so the paired times give the tracing overhead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gbj_engine::{
    max_q, median_q, Database, PlanChoice, PushdownPolicy, QueryMetrics, QueryOutput,
};
use gbj_exec::ProfileNode;
use gbj_server::{Server, ServerConfig};
use gbj_types::{Error, Result};
use rand::Rng;

use crate::adhoc::AdhocGen;
use crate::data::{rng, Dataset, Write, WriteGen};
use crate::model::{expected, fingerprint, fingerprint_set, FIXED};
use crate::trace::Tracer;

/// Plan-cache capacity of the server under test.
pub const PLAN_CACHE: usize = 16;
/// Set-ups per run, half before the timed window and half after it;
/// `setup_s` is their median. The machine's speed drifts over seconds,
/// so set-ups taken at both ends of the window are steadier than one
/// burst. The first set-up of a process also takes fresh pages from the
/// kernel, which later ones reuse; the median discounts it.
pub const SETUP_REPEATS: usize = 16;
/// The open-loop writer's rate.
pub const WRITES_PER_SECOND: u32 = 10;
/// A run whose writer starts writes later than this at p95 is invalid:
/// the load was not the stated rate.
pub const LATENESS_BOUND_MS: f64 = 25.0;
/// Reads a timed run must complete, so that at least ten latency
/// samples lie beyond the p95.
pub const MIN_READS: usize = 200;

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One closed-loop client cycling the fixed queries: all cache hits.
    ServeHot,
    /// One closed-loop client sending never-repeating queries: all misses.
    Adhoc,
    /// A closed-loop reader of the sweep queries plus an open-loop writer.
    WriteMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::ServeHot, Workload::Adhoc, Workload::WriteMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::Adhoc => "adhoc",
            Workload::WriteMix => "write_mix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// When the read loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time (a timed run).
    Time(Duration),
    /// After this many reads (deterministic counter checks).
    Reads(usize),
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub stop: Stop,
    pub trace: bool,
}

/// A read the loop sends.
#[derive(Debug, Clone)]
enum Query {
    Fixed(usize),
    Adhoc(String),
}

impl Query {
    fn sql(&self) -> &str {
        match self {
            Query::Fixed(q) => FIXED[*q].sql,
            Query::Adhoc(sql) => sql,
        }
    }
}

/// The workload's read sequence.
enum Source {
    Cycle { order: Vec<usize>, next: usize },
    Adhoc(AdhocGen),
}

impl Source {
    fn new(workload: Workload, seed: u64) -> Source {
        let mut order: Vec<usize> = (0..FIXED.len())
            .filter(|&q| workload != Workload::WriteMix || FIXED[q].sweep)
            .collect();
        let mut rng = rng(seed, 4);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        match workload {
            Workload::Adhoc => Source::Adhoc(AdhocGen::new(seed)),
            _ => Source::Cycle { order, next: 0 },
        }
    }

    fn next_query(&mut self) -> Query {
        match self {
            Source::Cycle { order, next } => {
                let q = order[*next % order.len()];
                *next += 1;
                Query::Fixed(q)
            }
            Source::Adhoc(gen) => Query::Adhoc(gen.next_sql()),
        }
    }
}

/// What one read returned, kept for the check after the window.
struct Observation {
    query: Query,
    epoch: u64,
    fingerprint: u64,
}

/// Work counters summed over one path's reads. The count fields are
/// machine-independent: the same seed and read count repeat them exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub reads: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub eager: u64,
    pub rows_in: u64,
    pub hash_entries: u64,
    pub result_rows: u64,
    pub q_error_max_sum: f64,
    pub q_error_median_sum: f64,
    pub rewrite_attempts: u64,
    pub rewrite_valid: u64,
    pub join_ns: u64,
    pub agg_ns: u64,
    pub peak_memory_bytes: u64,
}

impl Counters {
    fn add(&mut self, choice: PlanChoice, metrics: &QueryMetrics, cache_hit: bool) {
        self.reads += 1;
        if cache_hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
        // The two grouped-before-join shapes: a forward rewrite, or an
        // aggregated view kept in its written form.
        if choice != PlanChoice::Lazy {
            self.eager += 1;
        }
        fn walk(c: &mut Counters, node: &ProfileNode) {
            let m = &node.metrics;
            c.rows_in += m.rows_in;
            c.hash_entries += m.hash_entries;
            if node.operator.contains("Join") {
                c.join_ns += m.build_ns + m.probe_ns;
            } else if node.operator.contains("Aggregate") {
                c.agg_ns += m.build_ns + m.probe_ns;
            }
            for child in &node.children {
                walk(c, child);
            }
        }
        walk(self, &metrics.profile);
        self.result_rows += metrics.rows as u64;
        let audits = metrics.audits();
        self.q_error_max_sum += max_q(&audits);
        self.q_error_median_sum += median_q(&audits);
        self.peak_memory_bytes += metrics.peak_memory_bytes;
    }

    /// The machine-independent part, for exact comparison.
    pub fn deterministic(&self) -> (Vec<u64>, Vec<f64>) {
        (
            vec![
                self.reads,
                self.cache_hits,
                self.cache_misses,
                self.eager,
                self.rows_in,
                self.hash_entries,
                self.result_rows,
                self.rewrite_attempts,
                self.rewrite_valid,
            ],
            vec![self.q_error_max_sum, self.q_error_median_sum],
        )
    }
}

/// Timing of one completed read.
#[derive(Debug, Clone, Copy)]
struct ReadTime {
    start: Instant,
    end: Instant,
}

impl ReadTime {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// One write as the writer saw it.
#[derive(Debug, Clone)]
struct WriteRec {
    write: Write,
    due: Instant,
    start: Instant,
    end: Instant,
    epoch_after: u64,
    ok: bool,
}

/// A metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Human-readable lines, printed before the JSON result.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run does not measure the stated load, if it does not.
    pub invalid: Option<String>,
    /// Counters of the untraced and (in a traced run) traced reads.
    pub untraced: Counters,
    pub traced: Counters,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Set up `n` times: generate the instance, load it and start a server
/// over it. Each set-up's time goes onto `times`; every instance but
/// the last is dropped before the next set-up starts.
fn set_up(seed: u64, n: usize, times: &mut Vec<f64>) -> Result<(Dataset, Server)> {
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let start = Instant::now();
        let data = Dataset::generate(seed);
        let db = data.load()?;
        let server = Server::with_database(db, ServerConfig::default().with_plan_cache(PLAN_CACHE));
        times.push(start.elapsed().as_secs_f64());
        last = Some((data, server));
    }
    last.ok_or_else(|| Error::Plan("no set-up ran".into()))
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ok_single_row(result: &Result<gbj_server::WriteResponse>) -> bool {
    matches!(result, Ok(r) if matches!(r.outputs.as_slice(), [QueryOutput::Affected(1)]))
}

/// The open-loop writer: one write due every `1/WRITES_PER_SECOND`
/// seconds from `start` until `end` (or until `stop` is set), each
/// timed from when it was due.
fn writer(
    server: &Server,
    mut gen: WriteGen,
    start: Instant,
    end: Instant,
    stop: &AtomicBool,
) -> Vec<WriteRec> {
    let session = server.connect();
    let period = Duration::from_secs(1) / WRITES_PER_SECOND;
    let mut out = Vec::new();
    let mut due = start;
    while due < end && !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let write = gen.next_write();
        let started = Instant::now();
        let result = session.execute_write(&write.sql());
        let done = Instant::now();
        out.push(WriteRec {
            write,
            due,
            start: started,
            end: done,
            epoch_after: result.as_ref().map_or(0, |r| r.epoch_after),
            ok: ok_single_row(&result),
        });
        due += period;
    }
    out
}

/// The state of the model after the first `applied` writes, with the
/// expected fingerprint of each fixed query cached per state.
struct ModelCursor<'a> {
    data: Dataset,
    writes: &'a [WriteRec],
    applied: usize,
    cache: HashMap<(usize, usize), u64>,
}

impl<'a> ModelCursor<'a> {
    fn new(data: &Dataset, writes: &'a [WriteRec]) -> ModelCursor<'a> {
        ModelCursor {
            data: data.clone(),
            writes,
            applied: 0,
            cache: HashMap::new(),
        }
    }

    /// Expected fingerprint of fixed query `q` at `epoch`. Epochs must
    /// be asked for in non-decreasing order.
    fn expect(&mut self, q: usize, epoch: u64) -> u64 {
        while let Some(w) = self.writes.get(self.applied) {
            if !w.ok || w.epoch_after > epoch {
                break;
            }
            self.data.apply(&w.write);
            self.applied += 1;
        }
        let data = &self.data;
        *self
            .cache
            .entry((q, self.applied))
            .or_insert_with(|| fingerprint(&expected(q, data)))
    }
}

/// Check every observation: fixed queries against the model at the
/// epoch the read reported, ad-hoc queries against the same SQL on a
/// separate database that never rewrites and uses the row executor.
fn check(
    data: &Dataset,
    writes: &[WriteRec],
    observations: &mut [Observation],
    first_error: &mut Option<String>,
) -> Result<u64> {
    observations.sort_by_key(|o| o.epoch);
    let mut model = ModelCursor::new(data, writes);
    let mut reference: Option<Database> = None;
    let mut mismatches = 0;
    for o in observations.iter() {
        let expected = match &o.query {
            Query::Fixed(q) => model.expect(*q, o.epoch),
            Query::Adhoc(sql) => {
                let db = match &mut reference {
                    Some(db) => db,
                    None => reference.insert(reference_db(data)?),
                };
                fingerprint_set(&db.query(sql)?)
            }
        };
        if expected != o.fingerprint {
            mismatches += 1;
            first_error.get_or_insert_with(|| {
                format!("wrong result at epoch {}: {}", o.epoch, o.query.sql())
            });
        }
    }
    Ok(mismatches)
}

/// The reference for ad-hoc reads: the same rows, eager aggregation
/// never applied, row-at-a-time serial execution.
fn reference_db(data: &Dataset) -> Result<Database> {
    let mut db = data.load()?;
    let o = db.options_mut();
    o.policy = PushdownPolicy::Never;
    o.exec.vectorized = false;
    o.exec.threads = std::num::NonZeroUsize::MIN;
    o.exec.shards = std::num::NonZeroUsize::MIN;
    o.clamp_estimates = false;
    o.verify_rewrites = false;
    o.adaptive = false;
    Ok(db)
}

/// Reads collected on one path (untraced or traced).
#[derive(Default)]
struct Phase {
    times: Vec<ReadTime>,
    counters: Counters,
    failed: u64,
}

/// Run one workload.
pub fn run(cfg: Config) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (data, server) = set_up(cfg.seed, SETUP_REPEATS / 2, &mut setups)?;
    let initial_epoch = server.epoch();
    let session = server.connect();
    let mut first_error: Option<String> = None;

    // Warm-up: plan every fixed query once on each path.
    for f in &FIXED {
        session.query(f.sql)?;
    }
    let mut tracer = Tracer::new(PLAN_CACHE);
    if cfg.trace {
        for (i, f) in FIXED.iter().enumerate() {
            tracer.read(&server, i as u64, f.sql)?;
        }
        tracer.clear();
    }

    let mut source = Source::new(cfg.workload, cfg.seed);
    let mut observations: Vec<Observation> = Vec::new();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let before = server.metrics();
    let mut refresh_ms: Vec<f64> = Vec::new();

    let start = Instant::now();
    let (budget, read_limit) = match cfg.stop {
        Stop::Time(d) => (d, usize::MAX),
        Stop::Reads(n) => (Duration::from_secs(3600), n),
    };
    let end = start + budget;

    let stop = AtomicBool::new(false);
    let writes = std::thread::scope(|scope| -> Result<Vec<WriteRec>> {
        let writer_handle = (cfg.workload == Workload::WriteMix).then(|| {
            let (server, gen, stop) = (&server, WriteGen::new(cfg.seed, &data), &stop);
            scope.spawn(move || writer(server, gen, start, end, stop))
        });
        let mut reads = 0usize;
        let mut last_epoch = initial_epoch;
        let mut pairs = 0usize;
        while Instant::now() < end && reads < read_limit {
            let query = source.next_query();
            // Untraced only, or a traced pair in alternating order.
            let paths: &[bool] = match (cfg.trace, pairs % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            pairs += 1;
            for &in_traced in paths {
                let t0 = Instant::now();
                let result = if in_traced {
                    tracer.read(&server, reads as u64, query.sql()).map(|r| {
                        traced.counters.rewrite_attempts += 1;
                        traced.counters.rewrite_valid += u64::from(r.rewrite_valid);
                        (r.rows, r.epoch, r.report.choice, r.metrics, r.cache_hit)
                    })
                } else {
                    session
                        .query(query.sql())
                        .map(|r| (r.rows, r.epoch, r.report.choice, r.metrics, r.cache_hit))
                };
                let t1 = Instant::now();
                reads += 1;
                let phase = if in_traced {
                    &mut traced
                } else {
                    &mut untraced
                };
                match result {
                    Ok((rows, epoch, choice, metrics, hit)) => {
                        phase.times.push(ReadTime { start: t0, end: t1 });
                        phase.counters.add(choice, &metrics, hit);
                        // The first read at a new epoch re-forks the snapshot.
                        if in_traced && epoch != last_epoch {
                            if let Some(s) = tracer.named("server.snapshot").last() {
                                refresh_ms.push(s.ns() as f64 / 1e6);
                            }
                        }
                        last_epoch = epoch;
                        observations.push(Observation {
                            query: query.clone(),
                            epoch,
                            fingerprint: fingerprint_set(&rows),
                        });
                    }
                    Err(e) => {
                        phase.failed += 1;
                        first_error.get_or_insert_with(|| format!("read failed: {e}"));
                    }
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer_handle.map_or(Ok(Vec::new()), |h| {
            h.join()
                .map_err(|_| Error::Plan("writer thread panicked".into()))
        })
    })?;
    let window_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let after = server.metrics();

    // Checks, outside every timed window.
    let reads_checked = observations.len() as u64;
    let mismatches = check(&data, &writes, &mut observations, &mut first_error)?;
    set_up(cfg.seed, SETUP_REPEATS / 2, &mut setups)?;
    let failed_writes = writes.iter().filter(|w| !w.ok).count() as u64;
    if failed_writes > 0 {
        first_error.get_or_insert_with(|| "a write did not change exactly one row".into());
    }
    out.attempted = reads_checked + untraced.failed + traced.failed + writes.len() as u64;
    out.failed = mismatches + untraced.failed + traced.failed + failed_writes;

    // Write latency counts from when each write was due. It is printed
    // but not gated: see README.
    let write_lat: Vec<f64> = writes
        .iter()
        .map(|w| (w.end - w.due).as_secs_f64() * 1e3)
        .collect();
    let lateness: Vec<f64> = writes
        .iter()
        .map(|w| (w.start - w.due).as_secs_f64() * 1e3)
        .collect();
    let late_p95 = percentile(&lateness, 0.95);
    let timed = matches!(cfg.stop, Stop::Time(_));
    if timed && late_p95 > LATENESS_BOUND_MS {
        out.invalid = Some(format!(
            "writer lateness p95 {late_p95:.3} ms exceeds {LATENESS_BOUND_MS} ms"
        ));
    }

    let lat: Vec<f64> = untraced.times.iter().map(ReadTime::ms).collect();
    if timed && !cfg.trace && lat.len() < MIN_READS {
        out.invalid = Some(format!(
            "{} reads completed; a timed run needs {MIN_READS}",
            lat.len()
        ));
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.notes.push(format!(
        "reads={} window_s={window_s:.3} error_rate={error_rate} p95_samples={}",
        untraced.times.len() + traced.times.len(),
        lat.len(),
    ));
    out.notes.push(format!(
        "writes={} write_p50_ms={:.4} write_p95_ms={:.4} writer_late_p95_ms={late_p95:.4}",
        writes.len(),
        percentile(&write_lat, 0.5),
        percentile(&write_lat, 0.95),
    ));
    if let Some(e) = &first_error {
        out.notes.push(format!("first error: {e}"));
    }

    if cfg.trace {
        // The server's own counters, which only untraced reads move.
        let hits = after.cache_hits - before.cache_hits;
        let misses = after.cache_misses - before.cache_misses;
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        per_layer(
            &mut out,
            &tracer,
            &untraced,
            &traced,
            hit_ratio,
            &refresh_ms,
            &writes,
        );
    } else {
        out.metric("setup_s", percentile(&setups, 0.5), "s");
        out.metric("qps", untraced.times.len() as f64 / window_s, "1/s");
        out.metric("p50_ms", percentile(&lat, 0.5), "ms");
        out.metric("p95_ms", percentile(&lat, 0.95), "ms");
        out.metric("peak_rss_mb", rss, "MiB");
    }
    out.untraced = untraced.counters;
    out.traced = traced.counters;
    Ok(out)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    untraced: &Phase,
    traced: &Phase,
    cache_hit_ratio: f64,
    refresh_ms: &[f64],
    writes: &[WriteRec],
) {
    let c = &traced.counters;
    let reads = c.reads.max(1) as f64;
    let self_times = tracer.self_times();
    let total_ms = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |e| e.1.as_secs_f64() * 1e3)
    };
    let mean_us = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |e| e.1.as_secs_f64() * 1e6 / e.0.max(1) as f64)
    };
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };

    // Planning minus the parse and bind it repeats, on the reads that missed.
    let missed: std::collections::HashSet<u64> =
        tracer.named("engine.plan").map(|s| s.request).collect();
    let parse_bind_on_miss: f64 = tracer
        .spans
        .iter()
        .filter(|s| (s.name == "sql.parse" || s.name == "sql.bind") && missed.contains(&s.request))
        .map(|s| s.ns() as f64 / 1e6)
        .sum();
    let plan_ms = (total_ms("engine.plan") - parse_bind_on_miss).max(0.0);

    // Request-path qps of the two paths over the same paired queries.
    let request_ms: f64 = tracer
        .named("server.query")
        .map(|s| s.ns() as f64 / 1e6)
        .sum();
    let untraced_ms: f64 = untraced.times.iter().map(ReadTime::ms).sum();
    let untraced_qps = untraced.times.len() as f64 / (untraced_ms / 1e3).max(1e-9);
    let traced_qps = c.reads as f64 / (request_ms / 1e3).max(1e-9);
    let write_ms: Vec<f64> = writes
        .iter()
        .map(|w| (w.end - w.start).as_secs_f64() * 1e3)
        .collect();

    out.metric("sql.parse_us", mean_us("sql.parse"), "us");
    out.metric("sql.bind_us", mean_us("sql.bind"), "us");
    out.metric("core.rewrite_us", mean_us("core.rewrite"), "us");
    out.metric(
        "core.rewrite_valid_ratio",
        c.rewrite_valid as f64 / c.rewrite_attempts.max(1) as f64,
        "ratio",
    );
    out.metric("optimizer.optimize_us", mean_us("optimizer.optimize"), "us");
    out.metric("analyze.range_us", mean_us("analyze.range"), "us");
    out.metric(
        "engine.plan_ms",
        plan_ms / c.cache_misses.max(1) as f64,
        "ms",
    );
    out.metric("engine.estimate_ms", mean_us("engine.estimate") / 1e3, "ms");
    out.metric(
        "engine.audit_ms",
        total_ms("engine.execute_report") / reads,
        "ms",
    );
    out.metric("engine.eager_ratio", c.eager as f64 / reads, "ratio");
    out.metric("engine.q_error_max", c.q_error_max_sum / reads, "ratio");
    out.metric(
        "engine.q_error_median",
        c.q_error_median_sum / reads,
        "ratio",
    );
    out.metric("exec.exec_ms", total_ms("exec.execute") / reads, "ms");
    out.metric("exec.join_ms", c.join_ns as f64 / 1e6 / reads, "ms");
    out.metric("exec.agg_ms", c.agg_ns as f64 / 1e6 / reads, "ms");
    out.metric("exec.rows_in", c.rows_in as f64 / reads, "rows");
    out.metric(
        "exec.hash_entries",
        c.hash_entries as f64 / reads,
        "entries",
    );
    out.metric(
        "exec.rows_in_per_row_out",
        c.rows_in as f64 / c.result_rows.max(1) as f64,
        "ratio",
    );
    out.metric(
        "exec.peak_memory_kb",
        c.peak_memory_bytes as f64 / 1024.0 / reads,
        "KiB",
    );
    out.metric("server.query_ms", total_ms("server.query") / reads, "ms");
    out.metric("server.cache_hit_ratio", cache_hit_ratio, "ratio");
    out.metric("server.snapshot_ms", mean(refresh_ms), "ms");
    out.metric("server.write_ms", mean(&write_ms), "ms");
    out.metric(
        "trace.overhead_pct",
        (untraced_qps / traced_qps - 1.0) * 100.0,
        "%",
    );

    out.notes.push(format!(
        "traced: reads={} misses={} untraced_path_qps={untraced_qps:.3} traced_path_qps={traced_qps:.3}",
        c.reads, c.cache_misses
    ));
    out.notes.push(format!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span (self time)", "count", "total_ms", "mean_us"
    ));
    for (name, (n, d)) in &self_times {
        out.notes.push(format!(
            "{name:<24} {n:>8} {:>12.3} {:>12.3}",
            d.as_secs_f64() * 1e3,
            d.as_secs_f64() * 1e6 / (*n).max(1) as f64
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(query: Query, epoch: u64, fingerprint: u64) -> Observation {
        Observation {
            query,
            epoch,
            fingerprint,
        }
    }

    #[test]
    fn check_flags_wrong_fixed_and_adhoc_results() {
        let data = Dataset::generate(5);
        let fixed = fingerprint(&expected(0, &data));
        let adhoc = || Query::Adhoc(FIXED[2].sql.to_string());
        let right_adhoc = fingerprint(&expected(2, &data));
        let mut observations = vec![
            obs(Query::Fixed(0), 0, fixed),
            obs(Query::Fixed(0), 0, fixed ^ 1),
            obs(adhoc(), 0, right_adhoc),
            obs(adhoc(), 0, right_adhoc ^ 1),
        ];
        let mut first = None;
        let wrong = check(&data, &[], &mut observations, &mut first).unwrap();
        assert_eq!(wrong, 2);
        assert!(first.is_some());
    }

    #[test]
    fn model_applies_the_writes_committed_by_each_epoch() {
        let data = Dataset::generate(5);
        let now = Instant::now();
        let mut gen = WriteGen::new(5, &data);
        let writes: Vec<WriteRec> = (1..=3)
            .map(|epoch_after| WriteRec {
                write: gen.next_write(),
                due: now,
                start: now,
                end: now,
                epoch_after,
                ok: true,
            })
            .collect();
        let mut after_one = data.clone();
        after_one.apply(&writes[0].write);
        let mut after_all = after_one.clone();
        after_all.apply(&writes[1].write);
        after_all.apply(&writes[2].write);
        let fp = |d: &Dataset| fingerprint(&expected(0, d));
        assert_ne!(fp(&data), fp(&after_all), "the writes change the answer");
        let mut observations = vec![
            obs(Query::Fixed(0), 0, fp(&data)),
            obs(Query::Fixed(0), 1, fp(&after_one)),
            obs(Query::Fixed(0), 3, fp(&after_all)),
        ];
        let mut first = None;
        assert_eq!(
            check(&data, &writes, &mut observations, &mut first).unwrap(),
            0
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 10.0);
        assert_eq!(percentile(&xs, 0.95), 19.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
