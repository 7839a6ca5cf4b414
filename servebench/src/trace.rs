//! The traced request path: the calls `Session::query` makes, made
//! here one by one with a span around each, plus probe spans that time
//! the planning sub-layers separately.
//!
//! Spans live in memory and are summarised when the run ends. A span's
//! self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gbj_analyze::{analyze_plan, SeedDomains};
use gbj_catalog::Catalog;
use gbj_core::{eager_aggregate, reverse_transform, EagerOutcome, ReverseOutcome};
use gbj_engine::{Database, Estimator, QueryMetrics, QueryReport};
use gbj_exec::{ResourceGuard, ResourceLimits, ResultSet};
use gbj_expr::Expr;
use gbj_fd::FdContext;
use gbj_optimizer::Optimizer;
use gbj_plan::{BlockRelation, LogicalPlan, QueryBlock};
use gbj_server::{AdmissionConfig, AdmissionController, PlanCache, Server};
use gbj_sql::{Binder, Statement};
use gbj_types::{ColumnRef, Error, Result};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.plan`.
    pub name: &'static str,
    /// The request (read or write) this span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What one traced read produced.
pub struct TracedRead {
    pub rows: ResultSet,
    pub epoch: u64,
    pub cache_hit: bool,
    pub report: Arc<QueryReport>,
    pub metrics: QueryMetrics,
    /// Whether the rewrite probe found a valid rewrite.
    pub rewrite_valid: bool,
}

/// The span recorder plus the traced path's own plan cache and
/// admission controller, configured like the server's.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    cache: PlanCache,
    admission: Arc<AdmissionController>,
}

impl Tracer {
    /// A tracer whose plan cache holds `cache_capacity` plans.
    pub fn new(cache_capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            cache: PlanCache::new(cache_capacity),
            admission: Arc::new(AdmissionController::new(AdmissionConfig::default())),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for children.
    fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a probe span. Probes have no parent, so they stay
    /// out of the request's self-time accounting.
    fn probe<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = black_box(f());
        self.record(name, request, None, start, Instant::now());
        out
    }

    /// One read through the public calls `Session::query` makes:
    /// admission, `Server::with_snapshot`, a plan-cache lookup keyed on
    /// SQL + plan epoch, `Database::plan_query` on a miss, and
    /// `Database::execute_report_guarded`, whose execution part comes
    /// from `QueryMetrics.execution` and the rest of which is the
    /// post-execution audit. After the request span closes, the
    /// planning sub-layers are probed on the same snapshot and SQL.
    pub fn read(&mut self, server: &Server, request: u64, sql: &str) -> Result<TracedRead> {
        let start = Instant::now();
        // The root span is recorded first so children can point at it;
        // its end is filled in once the request path is done.
        let root = self.record("server.query", request, None, start, start);
        let admission = Arc::clone(&self.admission);
        let permit = admission.admit(0, None)?;
        // Admission stays in the request's self time.
        let admitted = Instant::now();
        let out = server.with_snapshot(|db| {
            self.record(
                "server.snapshot",
                request,
                Some(root),
                admitted,
                Instant::now(),
            );
            let epoch = db.epoch();
            let plan_epoch = db.plan_epoch();
            let guard = ResourceGuard::new(ResourceLimits::default());

            let t = Instant::now();
            let cached = self.cache.get(sql, plan_epoch);
            self.record(
                "server.cache_lookup",
                request,
                Some(root),
                t,
                Instant::now(),
            );
            let (report, cache_hit) = match cached {
                Some(report) => (report, true),
                None => {
                    let t = Instant::now();
                    let planned = db.plan_query(sql);
                    self.record("engine.plan", request, Some(root), t, Instant::now());
                    let report = Arc::new(planned?);
                    let t = Instant::now();
                    self.cache.insert(sql, plan_epoch, Arc::clone(&report));
                    self.record(
                        "server.cache_insert",
                        request,
                        Some(root),
                        t,
                        Instant::now(),
                    );
                    (report, false)
                }
            };

            let t = Instant::now();
            let executed = db.execute_report_guarded(&report, &guard);
            let end = Instant::now();
            let (rows, metrics) = executed?;
            let run = self.record("engine.execute_report", request, Some(root), t, end);
            self.record(
                "exec.execute",
                request,
                Some(run),
                t,
                (t + metrics.execution).min(end),
            );
            self.spans[root].end_ns = self.ns(end);

            let rewrite_valid = self.probe_planning(db, request, sql, &report)?;
            Ok(TracedRead {
                rows,
                epoch,
                cache_hit,
                report,
                metrics,
                rewrite_valid,
            })
        });
        drop(permit);
        if out.is_err() {
            self.spans[root].end_ns = self.ns(Instant::now());
        }
        out
    }

    /// Time parse, bind, rewrite, optimize, range analysis and
    /// estimation for `sql` on `db`. Returns whether the rewrite step
    /// found a valid rewrite.
    fn probe_planning(
        &mut self,
        db: &Database,
        request: u64,
        sql: &str,
        report: &QueryReport,
    ) -> Result<bool> {
        let stmt = self.probe("sql.parse", request, || gbj_sql::parse_sql(sql))?;
        let Statement::Select(select) = stmt else {
            return Err(Error::Unsupported("reads are SELECTs".into()));
        };
        let catalog = db.catalog();
        let bound = self.probe("sql.bind", request, || {
            Binder::new(catalog).bind_select(&select)
        })?;
        let block = &bound.block;
        let fd_ctx = fd_context(block, catalog);
        let mut options = gbj_core::TransformOptions::default();
        let assertions: Vec<Expr> = catalog.assertions().map(|a| a.check.clone()).collect();
        options.extra_conjuncts = gbj_core::theorem3::assertion_conjuncts(&fd_ctx, &assertions);

        // The rewrite the engine attempts: the forward transformation
        // for a grouped block, the §8 reverse one for a query over one
        // aggregated view.
        let rewritten: Option<QueryBlock> =
            if block.is_aggregating() {
                match self.probe("core.rewrite", request, || {
                    eager_aggregate(block, &fd_ctx, &options)
                })? {
                    EagerOutcome::Rewritten { block, .. } => Some(block),
                    EagerOutcome::NotApplicable { .. } => None,
                }
            } else if block.relations.iter().any(
                |r| matches!(r, BlockRelation::Derived { block, .. } if block.is_aggregating()),
            ) {
                match self.probe("core.rewrite", request, || {
                    reverse_transform(block, &fd_ctx)
                })? {
                    ReverseOutcome::Unfolded { block, .. } => Some(block),
                    ReverseOutcome::NotApplicable { .. } => None,
                }
            } else {
                None
            };

        for candidate in std::iter::once(block).chain(rewritten.as_ref()) {
            let plan = with_order_by(candidate.to_plan()?, &bound.order_by);
            self.probe("optimizer.optimize", request, || {
                Optimizer::standard().optimize(&plan)
            })?;
        }
        let seeds = SeedDomains::from_catalog(catalog);
        self.probe("analyze.range", request, || {
            analyze_plan(&report.plan, &seeds)
        });
        let feedback = db.feedback_snapshot();
        self.probe("engine.estimate", request, || {
            Estimator::with_feedback(db.storage(), &feedback).estimate_plan(&report.plan)
        });
        Ok(rewritten.is_some())
    }

    /// Per span name: (count, total self time) over request spans, and
    /// (count, total duration) over probe spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, Duration)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.ns().saturating_sub(covered[i]);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += Duration::from_nanos(own);
        }
        out
    }

    /// Spans of one name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Forget every span (after warm-up).
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

/// Register every base relation (also inside derived blocks) under its
/// qualifier, as the engine does before TestFD.
fn fd_context(block: &QueryBlock, catalog: &Catalog) -> FdContext {
    fn walk(block: &QueryBlock, catalog: &Catalog, ctx: &mut FdContext) {
        for rel in &block.relations {
            match rel {
                BlockRelation::Base {
                    table, qualifier, ..
                } => {
                    if let Some(def) = catalog.table(table) {
                        ctx.add_table(qualifier.clone(), def.clone());
                    }
                }
                BlockRelation::Derived { block, .. } => walk(block, catalog, ctx),
            }
        }
    }
    let mut ctx = FdContext::new();
    walk(block, catalog, &mut ctx);
    ctx
}

/// The presentation sort the engine adds on top of a lowered block.
fn with_order_by(plan: LogicalPlan, order_by: &[(ColumnRef, bool)]) -> LogicalPlan {
    if order_by.is_empty() {
        return plan;
    }
    LogicalPlan::Sort {
        input: Box::new(plan),
        keys: order_by
            .iter()
            .map(|(c, asc)| (Expr::bare(c.column.clone()), *asc))
            .collect(),
    }
}
