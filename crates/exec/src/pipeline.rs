//! The batch-native pipeline: end-to-end columnar execution with late
//! materialization.
//!
//! When [`ExecOptions::vectorized`](crate::ExecOptions) is set and the
//! *whole* plan passes [`supported`], the executor runs this pipeline
//! instead of the row engine: the scan produces [`ColumnarBatch`]es
//! directly ([`gbj_storage::ScanCursor::next_columnar`], no
//! intermediate row vec), filters and probe phases carry row-id
//! *selection vectors* over shared batches instead of copying rows,
//! string join/group keys hash on dictionary codes
//! ([`ColumnVector::Dict`]) or raw `i64`s instead of cloned [`Value`]s,
//! and payload columns materialize only at the pipeline breakers (hash
//! join and hash aggregate) — or at the very end, when the result set
//! is assembled.
//!
//! **The row engine stays the oracle.** Every operator here reproduces
//! the row path's observable behaviour exactly:
//!
//! - *Results*: byte-identical rows in the same order.
//! - *Errors*: [`supported`] admits only plans whose expressions are in
//!   the error-free vectorizable domain (see [`crate::vectorized`]) and
//!   whose aggregate arguments are evaluated row-major, so the first
//!   error — fault-injected scan failures included — is the same one
//!   the row engine would raise. Anything outside the gate takes the
//!   row engine wholesale; there is no per-operator mixing.
//! - *Counters*: the `[rows_in, rows_out, batches, hash_entries]`
//!   fingerprint, `state_bytes`, `selected`, and the guard's
//!   rows/memory charges follow the row path call-for-call (same
//!   charge order, same per-entry byte formulas), so profiles stay
//!   thread-count- and engine-invariant. Only the non-fingerprint
//!   `vectors`/`kernel_ns` observability counters differ in magnitude
//!   (cursor batches here vs morsel chunks there).
//!
//! At `threads > 1` the pipeline keeps columnar scans/filters/projects
//! but materializes rows at each breaker and delegates to the
//! morsel-driven parallel operators, which are already byte-identical
//! to serial — so results are identical at every thread count, with
//! the same operator names (`ParallelHashJoin`/`ParallelHashAggregate`)
//! the row engine reports.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use gbj_expr::{Accumulator, BoundExpr, Expr};
use gbj_plan::LogicalPlan;
use gbj_storage::{Bitmap, ColumnVector, ColumnarBatch, StringDict, NULL_CODE};
use gbj_types::{internal_err, GroupKey, Result, Truth, Value};

use crate::aggregate::{CompiledAggregate, ACC_ENTRY_BYTES};
use crate::executor::{input_batches, AggAlgo, ExecOptions, Executor, JoinAlgo};
use crate::guard::{row_bytes, ResourceGuard};
use crate::join::{split_equi_keys, EquiKey};
use crate::metrics::MetricsSink;
use crate::parallel::{parallel_hash_aggregate_with_keys, parallel_hash_join_with_keys};
use crate::result::ProfileNode;
use crate::vectorized::{
    compute_group_keys, compute_join_keys, eval_truth_vec, eval_value_vec, filter_selection,
    vectorizable,
};

/// A unit of the batch stream: a shared columnar batch plus an optional
/// selection vector. `sel: None` means every row is live; `Some(sel)`
/// restricts the chunk to the listed row ids, *in that order* — this is
/// how filters (and join residuals) avoid copying payload columns.
pub(crate) struct Chunk {
    /// The (possibly shared / oversized) columnar data.
    pub(crate) batch: ColumnarBatch,
    /// Live row ids into `batch`, in output order; `None` = all rows.
    pub(crate) sel: Option<Vec<u32>>,
}

impl Chunk {
    /// Number of live rows.
    fn out_len(&self) -> usize {
        self.sel.as_ref().map_or(self.batch.len(), Vec::len)
    }

    /// Iterate live row ids in output order.
    fn indices(&self) -> SelIter<'_> {
        match &self.sel {
            Some(sel) => SelIter::Sel(sel.iter()),
            None => SelIter::All(0..self.batch.len()),
        }
    }
}

/// Iterator over a chunk's live row ids.
enum SelIter<'a> {
    All(std::ops::Range<usize>),
    Sel(std::slice::Iter<'a, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::All(r) => r.next(),
            SelIter::Sel(it) => it.next().map(|&i| i as usize),
        }
    }
}

/// Total live rows across a chunk stream.
fn stream_len(chunks: &[Chunk]) -> usize {
    chunks.iter().map(Chunk::out_len).sum()
}

/// Materialize a chunk stream as rows (live rows only, in order).
fn chunk_rows(chunks: &[Chunk]) -> Vec<Vec<Value>> {
    let mut rows = Vec::with_capacity(stream_len(chunks));
    for ch in chunks {
        for i in ch.indices() {
            rows.push(ch.batch.columns().iter().map(|c| c.value(i)).collect());
        }
    }
    rows
}

/// Mark every column ordinal `expr` reads in `req`.
fn expr_columns(expr: &BoundExpr, req: &mut [bool]) {
    match expr {
        BoundExpr::Column(i) => {
            if let Some(slot) = req.get_mut(*i) {
                *slot = true;
            }
        }
        BoundExpr::Literal(_) => {}
        BoundExpr::Binary { left, right, .. } => {
            expr_columns(left, req);
            expr_columns(right, req);
        }
        BoundExpr::Not(e) | BoundExpr::Neg(e) => expr_columns(e, req),
        BoundExpr::IsNull { expr, .. } => expr_columns(expr, req),
    }
}

fn mark(req: &mut [bool], i: usize) {
    if let Some(slot) = req.get_mut(i) {
        *slot = true;
    }
}

/// Whole-plan gate: can `plan` run batch-native end to end?
///
/// Requires every operator to be batch-implemented and every expression
/// to be in the error-free vectorizable domain, with two carve-outs:
/// aggregate *arguments* only need to bind (they are evaluated
/// row-major inside the aggregate, preserving the row engine's error
/// order), and a join merely needs extractable equi keys with a
/// vectorizable (or absent) residual. A `false` anywhere sends the
/// whole plan to the row engine — never a per-operator mix — so error
/// behaviour is always exactly the oracle's.
#[must_use]
pub fn supported(plan: &LogicalPlan, options: &ExecOptions) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, predicate } => {
            supported(input, options)
                && input
                    .schema()
                    .ok()
                    .and_then(|s| predicate.bind(&s).ok())
                    .is_some_and(|b| vectorizable(&b))
        }
        LogicalPlan::Project { input, exprs, .. } => {
            supported(input, options)
                && input.schema().ok().is_some_and(|s| {
                    exprs
                        .iter()
                        .all(|(e, _)| e.bind(&s).ok().is_some_and(|b| vectorizable(&b)))
                })
        }
        LogicalPlan::SubqueryAlias { input, .. } => supported(input, options),
        LogicalPlan::Join {
            left,
            right,
            condition,
        } => {
            if !matches!(options.join, JoinAlgo::Auto | JoinAlgo::Hash) {
                return false;
            }
            if !supported(left, options) || !supported(right, options) {
                return false;
            }
            let (Ok(ls), Ok(rs)) = (left.schema(), right.schema()) else {
                return false;
            };
            let (keys, residual) = split_equi_keys(condition, &ls, &rs);
            if keys.is_empty() {
                return false;
            }
            match Expr::conjunction(residual) {
                None => true,
                Some(e) => e.bind(&ls.join(&rs)).ok().is_some_and(|b| vectorizable(&b)),
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            if options.agg != AggAlgo::Hash {
                return false;
            }
            if !supported(input, options) {
                return false;
            }
            let Ok(s) = input.schema() else {
                return false;
            };
            group_by
                .iter()
                .all(|e| e.bind(&s).ok().is_some_and(|b| vectorizable(&b)))
                && aggregates
                    .iter()
                    .all(|(call, _)| call.arg.as_ref().is_none_or(|e| e.bind(&s).is_ok()))
        }
        LogicalPlan::CrossJoin { .. } | LogicalPlan::Sort { .. } => false,
    }
}

/// Concatenate a chunk stream into one dense batch, compacting away
/// selection vectors. Columns whose `required` slot is `false` become
/// all-NULL placeholders (never read downstream); everything else is
/// gathered and merged variant-natively (typed vectors stay typed,
/// shared-dictionary columns keep their codes).
fn concat_chunks(chunks: &[Chunk], required: &[bool]) -> Result<ColumnarBatch> {
    let total = stream_len(chunks);
    if total > u32::MAX as usize {
        return Err(internal_err!(
            "batch of {total} rows exceeds selection-vector range"
        ));
    }
    let mut cols = Vec::with_capacity(required.len());
    for (c, req) in required.iter().enumerate() {
        if !*req {
            cols.push(ColumnVector::all_null(total));
            continue;
        }
        let mut parts = Vec::with_capacity(chunks.len());
        for ch in chunks {
            let col = ch.batch.column(c)?;
            parts.push(match &ch.sel {
                Some(sel) => col.gather(sel),
                None => col.clone(),
            });
        }
        cols.push(concat_columns(&parts, total));
    }
    ColumnarBatch::from_columns(cols, total)
}

/// Merge column parts of (ideally) one variant into a single vector.
/// Heterogeneous or foreign-dictionary parts decode through [`Value`]s.
fn concat_columns(parts: &[ColumnVector], total: usize) -> ColumnVector {
    fn merged_validity(parts: &[ColumnVector], total: usize) -> Bitmap {
        let mut v = Bitmap::new_all(total, true);
        let mut off = 0usize;
        for p in parts {
            for i in 0..p.len() {
                if !p.is_valid(i) {
                    v.set(off + i, false);
                }
            }
            off += p.len();
        }
        v
    }
    if parts.iter().all(|p| matches!(p, ColumnVector::Int { .. })) {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Int { values: v, .. } = p {
                values.extend_from_slice(v);
            }
        }
        let validity = merged_validity(parts, total);
        return ColumnVector::Int { values, validity };
    }
    if parts
        .iter()
        .all(|p| matches!(p, ColumnVector::Float { .. }))
    {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Float { values: v, .. } = p {
                values.extend_from_slice(v);
            }
        }
        let validity = merged_validity(parts, total);
        return ColumnVector::Float { values, validity };
    }
    if parts.iter().all(|p| matches!(p, ColumnVector::Bool { .. })) {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Bool { values: v, .. } = p {
                values.extend_from_slice(v);
            }
        }
        let validity = merged_validity(parts, total);
        return ColumnVector::Bool { values, validity };
    }
    if parts.iter().all(|p| matches!(p, ColumnVector::Str { .. })) {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Str { values: v, .. } = p {
                values.extend(v.iter().cloned());
            }
        }
        let validity = merged_validity(parts, total);
        return ColumnVector::Str { values, validity };
    }
    if let Some(ColumnVector::Dict { dict: first, .. }) = parts.first() {
        let shared = parts
            .iter()
            .all(|p| matches!(p, ColumnVector::Dict { dict, .. } if Arc::ptr_eq(dict, first)));
        if shared {
            let mut codes = Vec::with_capacity(total);
            for p in parts {
                if let ColumnVector::Dict { codes: c, .. } = p {
                    codes.extend_from_slice(c);
                }
            }
            return ColumnVector::Dict {
                codes,
                dict: Arc::clone(first),
            };
        }
    }
    let mut vals = Vec::with_capacity(total);
    for p in parts {
        for i in 0..p.len() {
            vals.push(p.value(i));
        }
    }
    ColumnVector::from_values(vals.iter())
}

impl Executor<'_> {
    /// Run `plan` batch-native and materialize the result rows at the
    /// very end. Callers must have checked [`supported`] first.
    pub(crate) fn run_batched(
        &self,
        plan: &LogicalPlan,
        guard: &ResourceGuard,
    ) -> Result<(Vec<Vec<Value>>, ProfileNode)> {
        let required = vec![true; plan.schema()?.len()];
        let (chunks, profile) = self.run_chunks(plan, &required, guard)?;
        Ok((chunk_rows(&chunks), profile))
    }

    /// Recursively execute `plan`, producing a chunk stream. `required`
    /// flags which output columns the parent will read; operators may
    /// emit all-NULL placeholders for the rest (late materialization) —
    /// except scans, which always build every column so fault-injection
    /// counters stay identical to the row path.
    fn run_chunks(
        &self,
        plan: &LogicalPlan,
        required: &[bool],
        guard: &ResourceGuard,
    ) -> Result<(Vec<Chunk>, ProfileNode)> {
        match plan {
            LogicalPlan::Scan { table, schema, .. } => {
                let sink = self.sink();
                let timer = sink.start_timer();
                let mut cursor = self.storage.open_scan(table)?;
                if cursor.arity() != schema.len() {
                    return Err(internal_err!("scan schema arity mismatch for {table}"));
                }
                let mut chunks = Vec::new();
                let mut n = 0usize;
                while let Some(batch) = cursor.next_columnar()? {
                    guard.charge_rows(batch.len())?;
                    sink.add_batches(1);
                    sink.add_vectors(1);
                    n += batch.len();
                    chunks.push(Chunk { batch, sel: None });
                }
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), "Scan", n, vec![])
                    .with_metrics(sink.finish(n, n));
                Ok((chunks, profile))
            }

            LogicalPlan::Filter { input, predicate } => {
                let in_schema = input.schema()?;
                let bound = predicate.bind(&in_schema)?;
                let mut child_req = required.to_vec();
                child_req.resize(in_schema.len(), false);
                expr_columns(&bound, &mut child_req);
                let (in_chunks, child) = self.run_chunks(input, &child_req, guard)?;
                let sink = self.sink();
                let timer = sink.start_timer();
                let n_in = stream_len(&in_chunks);
                let mut out_chunks = Vec::with_capacity(in_chunks.len());
                let mut out_count = 0usize;
                for ch in in_chunks {
                    guard.tick()?;
                    let kt = sink.start_timer();
                    sink.add_vectors(1);
                    let truths = eval_truth_vec(&bound, &ch.batch)?;
                    sink.record_kernel(kt);
                    let sel: Vec<u32> = match &ch.sel {
                        Some(sel) => sel
                            .iter()
                            .copied()
                            .filter(|&i| truths.get(i as usize) == Some(&Truth::True))
                            .collect(),
                        None => truths
                            .iter()
                            .enumerate()
                            .filter(|(_, t)| **t == Truth::True)
                            .map(|(i, _)| i as u32)
                            .collect(),
                    };
                    out_count += sel.len();
                    out_chunks.push(Chunk {
                        batch: ch.batch,
                        sel: Some(sel),
                    });
                }
                sink.add_selected(out_count as u64);
                guard.charge_rows(out_count)?;
                sink.add_batches(1);
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), "Filter", out_count, vec![child])
                    .with_metrics(sink.finish(n_in, out_count));
                Ok((out_chunks, profile))
            }

            LogicalPlan::Project {
                input,
                exprs,
                distinct,
            } => {
                let in_schema = input.schema()?;
                let bound: Vec<BoundExpr> = exprs
                    .iter()
                    .map(|(e, _)| e.bind(&in_schema))
                    .collect::<Result<_>>()?;
                let mut child_req = vec![false; in_schema.len()];
                for b in &bound {
                    expr_columns(b, &mut child_req);
                }
                let (in_chunks, child) = self.run_chunks(input, &child_req, guard)?;
                let sink = self.sink();
                let timer = sink.start_timer();
                let n_in = stream_len(&in_chunks);
                let mut out_chunks = Vec::with_capacity(in_chunks.len());
                let mut out_count = 0usize;
                let mut seen: HashSet<GroupKey> = HashSet::new();
                for ch in in_chunks {
                    guard.tick()?;
                    let kt = sink.start_timer();
                    sink.add_vectors(1);
                    let cols: Vec<ColumnVector> = bound
                        .iter()
                        .map(|b| Ok(eval_value_vec(b, &ch.batch)?.into_owned()))
                        .collect::<Result<_>>()?;
                    sink.record_kernel(kt);
                    let len = ch.batch.len();
                    let out_batch = ColumnarBatch::from_columns(cols, len)?;
                    let sel = if *distinct {
                        let mut kept: Vec<u32> = Vec::new();
                        for i in ch.indices() {
                            let key =
                                GroupKey(out_batch.columns().iter().map(|c| c.value(i)).collect());
                            if seen.insert(key) {
                                kept.push(i as u32);
                            }
                        }
                        Some(kept)
                    } else {
                        ch.sel
                    };
                    out_count += sel.as_ref().map_or(len, Vec::len);
                    out_chunks.push(Chunk {
                        batch: out_batch,
                        sel,
                    });
                }
                guard.charge_rows(out_count)?;
                let op = if *distinct {
                    sink.add_hash_entries(out_count as u64);
                    "ProjectDistinct"
                } else {
                    "Project"
                };
                sink.add_batches(1);
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), op, out_count, vec![child])
                    .with_metrics(sink.finish(n_in, out_count));
                Ok((out_chunks, profile))
            }

            LogicalPlan::SubqueryAlias { input, .. } => {
                let (chunks, child) = self.run_chunks(input, required, guard)?;
                let sink = self.sink();
                sink.add_batches(1);
                let n = stream_len(&chunks);
                Ok((
                    chunks,
                    ProfileNode::new(plan.label(), "SubqueryAlias", n, vec![child])
                        .with_metrics(sink.finish(n, n)),
                ))
            }

            LogicalPlan::Join {
                left,
                right,
                condition,
            } => {
                let lschema = left.schema()?;
                let rschema = right.schema()?;
                let joined_schema = lschema.join(&rschema);
                let (keys, residual) = split_equi_keys(condition, &lschema, &rschema);
                let residual_bound = Expr::conjunction(residual)
                    .map(|e| e.bind(&joined_schema))
                    .transpose()?;
                let l_arity = lschema.len();
                let r_arity = rschema.len();
                let parallel = self.options.threads.get() > 1;
                let (lreq, rreq) = if parallel {
                    (vec![true; l_arity], vec![true; r_arity])
                } else {
                    let mut lreq = vec![false; l_arity];
                    let mut rreq = vec![false; r_arity];
                    for (i, r) in required.iter().enumerate() {
                        if !*r {
                            continue;
                        }
                        if i < l_arity {
                            mark(&mut lreq, i);
                        } else {
                            mark(&mut rreq, i - l_arity);
                        }
                    }
                    for k in &keys {
                        mark(&mut lreq, k.left);
                        mark(&mut rreq, k.right);
                    }
                    if let Some(rb) = &residual_bound {
                        let mut jreq = vec![false; l_arity + r_arity];
                        expr_columns(rb, &mut jreq);
                        for (i, r) in jreq.iter().enumerate() {
                            if *r {
                                if i < l_arity {
                                    mark(&mut lreq, i);
                                } else {
                                    mark(&mut rreq, i - l_arity);
                                }
                            }
                        }
                    }
                    (lreq, rreq)
                };
                let (l_chunks, lp) = self.run_chunks(left, &lreq, guard)?;
                let (r_chunks, rp) = self.run_chunks(right, &rreq, guard)?;
                let l_len = stream_len(&l_chunks);
                let r_len = stream_len(&r_chunks);
                let sink = self.sink();
                sink.add_batches(input_batches(l_len) + input_batches(r_len));
                let (out_chunk, op) = if parallel {
                    let l = chunk_rows(&l_chunks);
                    let r = chunk_rows(&r_chunks);
                    let kt = sink.start_timer();
                    let lords: Vec<usize> = keys.iter().map(|k| k.left).collect();
                    let rords: Vec<usize> = keys.iter().map(|k| k.right).collect();
                    let lk = compute_join_keys(&l, l_arity, &lords, &sink)?;
                    let rk = compute_join_keys(&r, r_arity, &rords, &sink)?;
                    sink.record_kernel(kt);
                    let rows = parallel_hash_join_with_keys(
                        &l,
                        &r,
                        &keys,
                        &residual_bound,
                        Some(&lk),
                        Some(&rk),
                        guard,
                        self.options.threads,
                        &sink,
                    )?;
                    let batch = ColumnarBatch::from_rows(&rows, l_arity + r_arity)?;
                    (Chunk { batch, sel: None }, "ParallelHashJoin")
                } else {
                    (
                        join_columnar(
                            &l_chunks,
                            &r_chunks,
                            &lreq,
                            &rreq,
                            &keys,
                            &residual_bound,
                            guard,
                            &sink,
                        )?,
                        "HashJoin",
                    )
                };
                let out_count = out_chunk.out_len();
                guard.charge_rows(out_count)?;
                let profile = ProfileNode::new(plan.label(), op, out_count, vec![lp, rp])
                    .with_metrics(sink.finish(l_len + r_len, out_count));
                Ok((vec![out_chunk], profile))
            }

            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let in_schema = input.schema()?;
                let group_bound: Vec<BoundExpr> = group_by
                    .iter()
                    .map(|e| e.bind(&in_schema))
                    .collect::<Result<_>>()?;
                let compiled: Vec<CompiledAggregate> = aggregates
                    .iter()
                    .map(|(call, _)| {
                        let arg = call.arg.as_ref().map(|e| e.bind(&in_schema)).transpose()?;
                        Ok(CompiledAggregate {
                            call: call.clone(),
                            arg,
                        })
                    })
                    .collect::<Result<_>>()?;
                let parallel = self.options.threads.get() > 1;
                let args_vec = compiled
                    .iter()
                    .all(|c| c.arg.as_ref().is_none_or(vectorizable));
                let child_req = if parallel {
                    vec![true; in_schema.len()]
                } else {
                    let mut req = vec![false; in_schema.len()];
                    for b in &group_bound {
                        expr_columns(b, &mut req);
                    }
                    for c in &compiled {
                        if let Some(a) = &c.arg {
                            expr_columns(a, &mut req);
                        }
                    }
                    req
                };
                let (in_chunks, child) = self.run_chunks(input, &child_req, guard)?;
                let n_in = stream_len(&in_chunks);
                let sink = self.sink();
                sink.add_batches(input_batches(n_in));
                let (rows, op) = if parallel {
                    let in_rows = chunk_rows(&in_chunks);
                    let precomputed = if group_bound.is_empty() {
                        None
                    } else {
                        let kt = sink.start_timer();
                        let keys =
                            compute_group_keys(&in_rows, in_schema.len(), &group_bound, &sink)?;
                        sink.record_kernel(kt);
                        Some(keys)
                    };
                    (
                        parallel_hash_aggregate_with_keys(
                            &in_rows,
                            &group_bound,
                            &compiled,
                            precomputed.as_deref(),
                            guard,
                            self.options.threads,
                            &sink,
                        )?,
                        "ParallelHashAggregate",
                    )
                } else {
                    (
                        aggregate_columnar(
                            &in_chunks,
                            &group_bound,
                            &compiled,
                            args_vec,
                            guard,
                            &sink,
                        )?,
                        "HashAggregate",
                    )
                };
                guard.charge_rows(rows.len())?;
                let n_out = rows.len();
                let batch = ColumnarBatch::from_rows(&rows, plan.schema()?.len())?;
                let profile = ProfileNode::new(plan.label(), op, n_out, vec![child])
                    .with_metrics(sink.finish(n_in, n_out));
                Ok((vec![Chunk { batch, sel: None }], profile))
            }

            LogicalPlan::CrossJoin { .. } | LogicalPlan::Sort { .. } => Err(internal_err!(
                "operator {} is not batch-native; the supported() gate should have rejected it",
                plan.label()
            )),
        }
    }
}

/// The build-side index of the columnar hash join: `i64` codes for a
/// single typed-Int key, `u32` dictionary codes for a single dictionary
/// key, and `=ⁿ`-hashed [`GroupKey`]s otherwise. All three reproduce
/// the row path's search-condition semantics: NULL keys (invalid slots,
/// out-of-dictionary codes) are skipped on both sides.
enum JoinIndex {
    Int(HashMap<i64, Vec<u32>>),
    Dict(HashMap<u32, Vec<u32>>),
    Generic(HashMap<GroupKey, Vec<u32>>),
}

/// Serial columnar hash join: concatenate each side into one dense
/// batch, build on the right, probe with the left collecting `(l, r)`
/// row-id pairs, gather payload columns once per output, and apply the
/// residual as a selection vector. Counter and guard-charge order
/// mirror [`crate::join::hash_join_with_keys`] call-for-call.
#[allow(clippy::too_many_arguments)]
fn join_columnar(
    l_chunks: &[Chunk],
    r_chunks: &[Chunk],
    lreq: &[bool],
    rreq: &[bool],
    keys: &[EquiKey],
    residual: &Option<BoundExpr>,
    guard: &ResourceGuard,
    sink: &MetricsSink,
) -> Result<Chunk> {
    // Concatenating each side into one dense batch is this operator's
    // vector kernel: it compacts upstream selection vectors and lines
    // the key columns up for code-native hashing.
    let kt = sink.start_timer();
    let lbatch = concat_chunks(l_chunks, lreq)?;
    let rbatch = concat_chunks(r_chunks, rreq)?;
    sink.add_vectors(2);
    sink.record_kernel(kt);
    let lkey_cols: Vec<&ColumnVector> = keys
        .iter()
        .map(|k| lbatch.column(k.left))
        .collect::<Result<_>>()?;
    let rkey_cols: Vec<&ColumnVector> = keys
        .iter()
        .map(|k| rbatch.column(k.right))
        .collect::<Result<_>>()?;

    let mut build_bytes = 0u64;
    let mut build_entries = 0u64;
    let build_timer = sink.start_timer();
    let built = (|| -> Result<JoinIndex> {
        Ok(match (lkey_cols.as_slice(), rkey_cols.as_slice()) {
            ([ColumnVector::Int { .. }], [ColumnVector::Int { values, validity }]) => {
                let per = row_bytes(&[Value::Int(0)]) + std::mem::size_of::<usize>() as u64;
                let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
                for (i, v) in values.iter().enumerate() {
                    guard.tick()?;
                    if !validity.get(i) {
                        continue;
                    }
                    build_bytes += per;
                    build_entries += 1;
                    guard.charge_memory(per)?;
                    map.entry(*v).or_default().push(i as u32);
                }
                JoinIndex::Int(map)
            }
            ([ColumnVector::Dict { .. }], [ColumnVector::Dict { codes, dict }]) => {
                let base = row_bytes(&[Value::str("")]) + std::mem::size_of::<usize>() as u64;
                let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
                for (i, c) in codes.iter().enumerate() {
                    guard.tick()?;
                    let Some(s) = dict.get(*c) else {
                        continue;
                    };
                    let per = base + s.len() as u64;
                    build_bytes += per;
                    build_entries += 1;
                    guard.charge_memory(per)?;
                    map.entry(*c).or_default().push(i as u32);
                }
                JoinIndex::Dict(map)
            }
            _ => {
                let mut map: HashMap<GroupKey, Vec<u32>> = HashMap::new();
                for i in 0..rbatch.len() {
                    guard.tick()?;
                    if rkey_cols.iter().any(|c| !c.is_valid(i)) {
                        continue;
                    }
                    let key = GroupKey(rkey_cols.iter().map(|c| c.value(i)).collect());
                    let per = row_bytes(&key.0) + std::mem::size_of::<usize>() as u64;
                    build_bytes += per;
                    build_entries += 1;
                    guard.charge_memory(per)?;
                    map.entry(key).or_default().push(i as u32);
                }
                JoinIndex::Generic(map)
            }
        })
    })();
    sink.record_build(build_timer);
    sink.add_hash_entries(build_entries);
    sink.add_state_bytes(build_bytes);

    let probe_timer = sink.start_timer();
    let probed = built.and_then(|index| {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        match (&index, lkey_cols.as_slice()) {
            (JoinIndex::Int(map), [ColumnVector::Int { values, validity }]) => {
                for (i, v) in values.iter().enumerate() {
                    guard.tick()?;
                    if !validity.get(i) {
                        continue;
                    }
                    if let Some(hits) = map.get(v) {
                        for &ri in hits {
                            guard.tick()?;
                            pairs.push((i as u32, ri));
                        }
                    }
                }
            }
            (JoinIndex::Dict(map), [ColumnVector::Dict { codes, dict }]) => {
                // Probe on raw codes when both sides share a dictionary;
                // otherwise remap left codes to right codes by decoded
                // string once, up front. Left strings the right side has
                // never seen map to NULL_CODE, which is never in `map`.
                let rdict = match rkey_cols.as_slice() {
                    [ColumnVector::Dict { dict: rd, .. }] => Arc::clone(rd),
                    _ => return Err(internal_err!("join build/probe key shape diverged")),
                };
                let remap: Option<Vec<u32>> = if Arc::ptr_eq(dict, &rdict) {
                    None
                } else {
                    Some(
                        (0..dict.len() as u32)
                            .map(|lc| {
                                dict.get(lc)
                                    .and_then(|s| rdict.code_of(s))
                                    .unwrap_or(NULL_CODE)
                            })
                            .collect(),
                    )
                };
                for (i, c) in codes.iter().enumerate() {
                    guard.tick()?;
                    if (*c as usize) >= dict.len() {
                        continue;
                    }
                    let rc = match &remap {
                        None => *c,
                        Some(m) => m.get(*c as usize).copied().unwrap_or(NULL_CODE),
                    };
                    if let Some(hits) = map.get(&rc) {
                        for &ri in hits {
                            guard.tick()?;
                            pairs.push((i as u32, ri));
                        }
                    }
                }
            }
            (JoinIndex::Generic(map), _) => {
                for i in 0..lbatch.len() {
                    guard.tick()?;
                    if lkey_cols.iter().any(|c| !c.is_valid(i)) {
                        continue;
                    }
                    let key = GroupKey(lkey_cols.iter().map(|c| c.value(i)).collect());
                    if let Some(hits) = map.get(&key) {
                        for &ri in hits {
                            guard.tick()?;
                            pairs.push((i as u32, ri));
                        }
                    }
                }
            }
            _ => return Err(internal_err!("join build/probe key shape diverged")),
        }
        Ok(pairs)
    });
    sink.record_probe(probe_timer);
    guard.release_memory(build_bytes);
    let pairs = probed?;

    if pairs.len() > u32::MAX as usize {
        return Err(internal_err!(
            "join output of {} rows exceeds selection-vector range",
            pairs.len()
        ));
    }
    let lsel: Vec<u32> = pairs.iter().map(|&(li, _)| li).collect();
    let rsel: Vec<u32> = pairs.iter().map(|&(_, ri)| ri).collect();
    let total = pairs.len();
    let mut cols = Vec::with_capacity(lreq.len() + rreq.len());
    for (c, col) in lbatch.columns().iter().enumerate() {
        cols.push(if lreq.get(c) == Some(&true) {
            col.gather(&lsel)
        } else {
            ColumnVector::all_null(total)
        });
    }
    for (c, col) in rbatch.columns().iter().enumerate() {
        cols.push(if rreq.get(c) == Some(&true) {
            col.gather(&rsel)
        } else {
            ColumnVector::all_null(total)
        });
    }
    let out = ColumnarBatch::from_columns(cols, total)?;
    let sel = match residual {
        Some(rb) => Some(filter_selection(rb, &out)?),
        None => None,
    };
    Ok(Chunk { batch: out, sel })
}

/// Group lookup strategy for the columnar hash aggregate. Decided from
/// the first chunk's key-column variant; a later chunk of a different
/// shape demotes the table to the generic `=ⁿ` [`GroupKey`] map (the
/// decoded keys are kept in `order`, so demotion is lossless).
enum Keyer {
    Unset,
    Int(HashMap<Option<i64>, usize>),
    Dict {
        map: HashMap<u32, usize>,
        dict: Arc<StringDict>,
    },
    Generic(HashMap<GroupKey, usize>),
}

/// The columnar aggregation table: a compact key → slot map (see
/// [`Keyer`]) plus, per slot, the decoded `=ⁿ` group key (first-seen
/// order — this is the output order) and the accumulators.
struct Groups {
    keyer: Keyer,
    order: Vec<GroupKey>,
    accs: Vec<Vec<Accumulator>>,
}

impl Groups {
    fn new() -> Groups {
        Groups {
            keyer: Keyer::Unset,
            order: Vec::new(),
            accs: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    /// Pick (or keep) the lookup strategy for a chunk whose group-key
    /// columns are `key_cols`, demoting to generic on a shape change.
    fn prepare(&mut self, key_cols: &[ColumnVector]) {
        enum Want {
            Int,
            Dict(Arc<StringDict>),
            Generic,
        }
        let want = match key_cols {
            [ColumnVector::Int { .. }] => Want::Int,
            [ColumnVector::Dict { dict, .. }] => Want::Dict(Arc::clone(dict)),
            _ => Want::Generic,
        };
        match (&self.keyer, want) {
            (Keyer::Unset, Want::Int) => self.keyer = Keyer::Int(HashMap::new()),
            (Keyer::Unset, Want::Dict(d)) => {
                self.keyer = Keyer::Dict {
                    map: HashMap::new(),
                    dict: d,
                }
            }
            (Keyer::Unset, Want::Generic) => self.keyer = Keyer::Generic(HashMap::new()),
            (Keyer::Int(_), Want::Int) | (Keyer::Generic(_), _) => {}
            (Keyer::Dict { dict, .. }, Want::Dict(d)) if Arc::ptr_eq(dict, &d) => {}
            _ => self.demote(),
        }
    }

    /// Rebuild the lookup map as a generic `GroupKey` table from the
    /// decoded keys already in `order`.
    fn demote(&mut self) {
        let mut map = HashMap::with_capacity(self.order.len());
        for (slot, key) in self.order.iter().enumerate() {
            map.insert(key.clone(), slot);
        }
        self.keyer = Keyer::Generic(map);
    }

    /// Find or create the group slot for row `i`, charging the guard
    /// for new entries exactly as the row path does (decoded-key
    /// `row_bytes` + `ACC_ENTRY_BYTES` per aggregate, charged before
    /// insertion).
    fn slot(
        &mut self,
        key_cols: &[ColumnVector],
        i: usize,
        compiled: &[CompiledAggregate],
        table_bytes: &mut u64,
        guard: &ResourceGuard,
    ) -> Result<usize> {
        let acc_bytes = ACC_ENTRY_BYTES * compiled.len().max(1) as u64;
        match &mut self.keyer {
            Keyer::Int(map) => {
                let k = match key_cols.first() {
                    Some(ColumnVector::Int { values, validity }) if validity.get(i) => {
                        values.get(i).copied()
                    }
                    _ => None,
                };
                if let Some(&s) = map.get(&k) {
                    return Ok(s);
                }
                let key = GroupKey(vec![k.map_or(Value::Null, Value::Int)]);
                let entry_bytes = row_bytes(&key.0) + acc_bytes;
                *table_bytes += entry_bytes;
                guard.charge_memory(entry_bytes)?;
                let s = self.order.len();
                map.insert(k, s);
                self.order.push(key);
                self.accs
                    .push(compiled.iter().map(|a| a.call.accumulator()).collect());
                Ok(s)
            }
            Keyer::Dict { map, dict } => {
                let c = match key_cols.first() {
                    Some(ColumnVector::Dict { codes, .. }) => {
                        codes.get(i).copied().unwrap_or(NULL_CODE)
                    }
                    _ => NULL_CODE,
                };
                // Every invalid code is the same `=ⁿ` NULL group.
                let c = if (c as usize) < dict.len() {
                    c
                } else {
                    NULL_CODE
                };
                if let Some(&s) = map.get(&c) {
                    return Ok(s);
                }
                let key = GroupKey(vec![dict.get(c).map_or(Value::Null, Value::str)]);
                let entry_bytes = row_bytes(&key.0) + acc_bytes;
                *table_bytes += entry_bytes;
                guard.charge_memory(entry_bytes)?;
                let s = self.order.len();
                map.insert(c, s);
                self.order.push(key);
                self.accs
                    .push(compiled.iter().map(|a| a.call.accumulator()).collect());
                Ok(s)
            }
            Keyer::Generic(map) => {
                let key = GroupKey(key_cols.iter().map(|c| c.value(i)).collect());
                if let Some(&s) = map.get(&key) {
                    return Ok(s);
                }
                let entry_bytes = row_bytes(&key.0) + acc_bytes;
                *table_bytes += entry_bytes;
                guard.charge_memory(entry_bytes)?;
                let s = self.order.len();
                map.insert(key.clone(), s);
                self.order.push(key);
                self.accs
                    .push(compiled.iter().map(|a| a.call.accumulator()).collect());
                Ok(s)
            }
            Keyer::Unset => Err(internal_err!("group keyer used before prepare()")),
        }
    }

    fn accs_mut(&mut self, slot: usize) -> Result<&mut Vec<Accumulator>> {
        self.accs
            .get_mut(slot)
            .ok_or_else(|| internal_err!("group slot {slot} out of bounds"))
    }

    /// Drain into output rows: decoded key values ++ aggregate results,
    /// in first-seen group order.
    fn finish(self) -> Vec<Vec<Value>> {
        self.order
            .into_iter()
            .zip(self.accs)
            .map(|(key, accs)| {
                let mut row = key.0;
                row.extend(accs.iter().map(Accumulator::finish));
                row
            })
            .collect()
    }
}

/// Serial columnar hash aggregate: stream chunks (no concatenation),
/// evaluating group keys — and, when every argument is vectorizable,
/// aggregate arguments — column-at-a-time, and group via [`Groups`].
/// Non-vectorizable arguments are evaluated row-major per live row, so
/// the first error is the row engine's. Counter and guard-charge order
/// mirror [`crate::aggregate::hash_aggregate_with_keys`] call-for-call.
fn aggregate_columnar(
    chunks: &[Chunk],
    group_bound: &[BoundExpr],
    compiled: &[CompiledAggregate],
    args_vec: bool,
    guard: &ResourceGuard,
    sink: &MetricsSink,
) -> Result<Vec<Vec<Value>>> {
    // One chunk's evaluated aggregate-argument columns: one entry per
    // aggregate, `None` for `COUNT(*)`.
    fn arg_columns(
        compiled: &[CompiledAggregate],
        batch: &ColumnarBatch,
    ) -> Result<Vec<Option<ColumnVector>>> {
        compiled
            .iter()
            .map(|c| match &c.arg {
                Some(a) => Ok(Some(eval_value_vec(a, batch)?.into_owned())),
                None => Ok(None),
            })
            .collect()
    }
    fn update_from_cols(
        cols: &[Option<ColumnVector>],
        accs: &mut [Accumulator],
        i: usize,
    ) -> Result<()> {
        for (ac, acc) in cols.iter().zip(accs.iter_mut()) {
            match ac {
                Some(col) => acc.update(&col.value(i))?,
                None => acc.update(&Value::Int(1))?,
            }
        }
        Ok(())
    }

    if group_bound.is_empty() {
        // Scalar aggregate: exactly one group, even over empty input.
        let scalar_timer = sink.start_timer();
        let mut accs: Vec<Accumulator> = compiled.iter().map(|a| a.call.accumulator()).collect();
        for ch in chunks {
            let cols = if args_vec {
                let kt = sink.start_timer();
                sink.add_vectors(1);
                let cols = arg_columns(compiled, &ch.batch)?;
                sink.record_kernel(kt);
                Some(cols)
            } else {
                None
            };
            for i in ch.indices() {
                guard.tick()?;
                match &cols {
                    Some(cols) => update_from_cols(cols, &mut accs, i)?,
                    None => {
                        let row: Vec<Value> =
                            ch.batch.columns().iter().map(|c| c.value(i)).collect();
                        for (agg, acc) in compiled.iter().zip(accs.iter_mut()) {
                            agg.update(acc, &row)?;
                        }
                    }
                }
            }
        }
        sink.record_build(scalar_timer);
        return Ok(vec![accs.iter().map(Accumulator::finish).collect()]);
    }

    let build_timer = sink.start_timer();
    let mut table_bytes = 0u64;
    let mut groups = Groups::new();
    let filled = (|| -> Result<()> {
        for ch in chunks {
            let kt = sink.start_timer();
            sink.add_vectors(1);
            let key_cols: Vec<ColumnVector> = group_bound
                .iter()
                .map(|b| Ok(eval_value_vec(b, &ch.batch)?.into_owned()))
                .collect::<Result<_>>()?;
            let arg_cols = if args_vec {
                Some(arg_columns(compiled, &ch.batch)?)
            } else {
                None
            };
            sink.record_kernel(kt);
            groups.prepare(&key_cols);
            for i in ch.indices() {
                guard.tick()?;
                let slot = groups.slot(&key_cols, i, compiled, &mut table_bytes, guard)?;
                let accs = groups.accs_mut(slot)?;
                match &arg_cols {
                    Some(cols) => update_from_cols(cols, accs, i)?,
                    None => {
                        let row: Vec<Value> =
                            ch.batch.columns().iter().map(|c| c.value(i)).collect();
                        for (agg, acc) in compiled.iter().zip(accs.iter_mut()) {
                            agg.update(acc, &row)?;
                        }
                    }
                }
            }
        }
        Ok(())
    })();
    sink.record_build(build_timer);
    sink.add_hash_entries(groups.len() as u64);
    sink.add_state_bytes(table_bytes);
    let probe_timer = sink.start_timer();
    let out = filled.map(|()| groups.finish());
    sink.record_probe(probe_timer);
    guard.release_memory(table_bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[Option<i64>]) -> ColumnVector {
        let values: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect();
        ColumnVector::from_values(values.iter())
    }

    #[test]
    fn concat_chunks_compacts_selections_and_keeps_variants() {
        let b1 = ColumnarBatch::from_columns(vec![int_col(&[Some(1), Some(2), None])], 3).unwrap();
        let b2 = ColumnarBatch::from_columns(vec![int_col(&[Some(4), Some(5)])], 2).unwrap();
        let chunks = vec![
            Chunk {
                batch: b1,
                sel: Some(vec![2, 0]),
            },
            Chunk {
                batch: b2,
                sel: None,
            },
        ];
        assert_eq!(stream_len(&chunks), 4);
        let merged = concat_chunks(&chunks, &[true]).unwrap();
        assert!(matches!(
            merged.column(0).unwrap(),
            ColumnVector::Int { .. }
        ));
        assert_eq!(
            merged.to_rows(),
            vec![
                vec![Value::Null],
                vec![Value::Int(1)],
                vec![Value::Int(4)],
                vec![Value::Int(5)],
            ]
        );
    }

    #[test]
    fn concat_chunks_emits_null_placeholders_for_unrequired_columns() {
        let b = ColumnarBatch::from_columns(
            vec![int_col(&[Some(1), Some(2)]), int_col(&[Some(7), Some(8)])],
            2,
        )
        .unwrap();
        let chunks = vec![Chunk {
            batch: b,
            sel: None,
        }];
        let merged = concat_chunks(&chunks, &[true, false]).unwrap();
        assert_eq!(merged.column(0).unwrap().value(1), Value::Int(2));
        assert_eq!(merged.column(1).unwrap().value(0), Value::Null);
        assert_eq!(merged.column(1).unwrap().value(1), Value::Null);
    }

    #[test]
    fn concat_columns_merges_shared_dictionaries_code_native() {
        let mut b = gbj_storage::StringDictBuilder::default();
        let c0 = b.intern("x").unwrap();
        let c1 = b.intern("y").unwrap();
        let dict = Arc::new(b.finish());
        let p1 = ColumnVector::Dict {
            codes: vec![c0, NULL_CODE],
            dict: Arc::clone(&dict),
        };
        let p2 = ColumnVector::Dict {
            codes: vec![c1],
            dict: Arc::clone(&dict),
        };
        let merged = concat_columns(&[p1, p2], 3);
        match &merged {
            ColumnVector::Dict { codes, dict: d } => {
                assert!(Arc::ptr_eq(d, &dict), "shared dictionary must survive");
                assert_eq!(codes, &vec![c0, NULL_CODE, c1]);
            }
            other => panic!("expected Dict, got {other:?}"),
        }
    }

    #[test]
    fn groups_demote_preserves_slots_and_order() {
        let guard = ResourceGuard::new(crate::guard::ResourceLimits::default());
        let mut groups = Groups::new();
        let mut bytes = 0u64;
        let ints = vec![int_col(&[Some(10), None, Some(10)])];
        groups.prepare(&ints);
        let s0 = groups.slot(&ints, 0, &[], &mut bytes, &guard).unwrap();
        let s1 = groups.slot(&ints, 1, &[], &mut bytes, &guard).unwrap();
        let s2 = groups.slot(&ints, 2, &[], &mut bytes, &guard).unwrap();
        assert_eq!((s0, s1, s2), (0, 1, 0));
        // A Float chunk arrives: demote to generic; `=ⁿ` still matches
        // Float(10.0) into the Int(10) group and NULL into NULL.
        let floats = vec![ColumnVector::from_values(
            [Value::Float(10.0), Value::Null].iter(),
        )];
        groups.prepare(&floats);
        assert!(matches!(groups.keyer, Keyer::Generic(_)));
        let s3 = groups.slot(&floats, 0, &[], &mut bytes, &guard).unwrap();
        let s4 = groups.slot(&floats, 1, &[], &mut bytes, &guard).unwrap();
        assert_eq!((s3, s4), (0, 1));
        assert_eq!(groups.len(), 2);
    }
}
