//! Shape-level costing of fully lowered plans: the engine's only cost
//! model.
//!
//! [`gbj_core::CostModel`] is the paper's analytic Section 7 formula
//! over one abstract grouped-join query (five summary cardinalities);
//! the X10 experiment evaluates it, and its per-row constants are the
//! ones used here. The engine costs the *actual lowered plan trees*:
//! the lazy and eager candidates are both optimized to their
//! physical-ready shape, a per-node cardinality estimate is attached to
//! each ([`CardTree`], shape-congruent with the plan), and
//! [`shape_cost`] folds the same per-row constants over every operator
//! the executor will really run. This keeps the §7 decision
//! (join-input shrinkage vs. group-input growth, the duplicate-factor
//! term) while also charging for whatever else the optimizer produced —
//! extra projections cost nothing, but every scan, filter, sort, join
//! and aggregation touch is itemised.
//!
//! The optimizer crate cannot see the engine's `Estimator` (the engine
//! depends on the optimizer, not vice versa), so callers supply the
//! cardinalities as a plain [`CardTree`]; the engine converts its
//! `PlanEstimate` tree into one.

use gbj_core::CostModel;
use gbj_plan::LogicalPlan;

/// Estimated output cardinality for every node of a plan, mirroring the
/// plan's tree shape exactly (same arity at every node, children in plan
/// order).
#[derive(Debug, Clone, PartialEq)]
pub struct CardTree {
    /// Estimated output rows of this node.
    pub rows: f64,
    /// Child cardinalities, in plan order.
    pub children: Vec<CardTree>,
}

impl CardTree {
    /// A leaf estimate.
    #[must_use]
    pub fn leaf(rows: f64) -> CardTree {
        CardTree {
            rows,
            children: vec![],
        }
    }
}

/// The itemised cost of one lowered plan shape under the model. Mirrors
/// [`gbj_core::PlanCost`] but is summed over *every* operator in the
/// tree, plus a `scan_rows` term for the base-table touches that the
/// block-level model leaves implicit (both shapes scan the same tables,
/// so the term cancels in the comparison but keeps totals honest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeCost {
    /// Rows produced by scans, filters and sorts (one touch each).
    pub scan_rows: f64,
    /// Rows entering joins (all join nodes, both sides summed).
    pub join_input: f64,
    /// Rows leaving joins.
    pub join_output: f64,
    /// Rows entering group-bys.
    pub group_input: f64,
    /// Groups produced by all aggregations.
    pub groups: f64,
    /// Rows shipped between sites (distributed mode: the larger join
    /// side — the aggregation side in §7's setting — travels; 0
    /// locally).
    pub shipped_rows: f64,
    /// Total model cost (arbitrary units, comparable across shapes of
    /// the same query over the same data).
    pub total: f64,
}

impl ShapeCost {
    fn zero() -> ShapeCost {
        ShapeCost {
            scan_rows: 0.0,
            join_input: 0.0,
            join_output: 0.0,
            group_input: 0.0,
            groups: 0.0,
            shipped_rows: 0.0,
            total: 0.0,
        }
    }
}

/// Cost a lowered plan shape given per-node cardinality estimates.
///
/// `card` must be shape-congruent with `plan` (the engine builds it from
/// the same tree). If a child estimate is missing the walk substitutes a
/// zero-row leaf rather than guessing — a defensive fallback, not an
/// expected path.
#[must_use]
pub fn shape_cost(model: &CostModel, plan: &LogicalPlan, card: &CardTree) -> ShapeCost {
    let mut acc = ShapeCost::zero();
    walk(model, plan, card, &mut acc);
    acc.total = acc.scan_rows
        + model.c_join_row * acc.join_input
        + model.c_join_out * acc.join_output
        + model.c_group_row * acc.group_input
        + model.c_group_out * acc.groups
        + model.c_net_row * acc.shipped_rows;
    acc
}

fn child(card: &CardTree, idx: usize) -> CardTree {
    card.children
        .get(idx)
        .cloned()
        .unwrap_or_else(|| CardTree::leaf(0.0))
}

fn walk(model: &CostModel, plan: &LogicalPlan, card: &CardTree, acc: &mut ShapeCost) {
    match plan {
        LogicalPlan::Scan { .. } => acc.scan_rows += card.rows.max(0.0),
        LogicalPlan::Filter { input, .. } => {
            let c = child(card, 0);
            // A filter touches every input row once.
            acc.scan_rows += c.rows.max(0.0);
            walk(model, input, &c, acc);
        }
        LogicalPlan::Project { input, .. } | LogicalPlan::SubqueryAlias { input, .. } => {
            // Projection / re-qualification is free under the model.
            walk(model, input, &child(card, 0), acc);
        }
        LogicalPlan::Sort { input, .. } => {
            let c = child(card, 0);
            acc.scan_rows += c.rows.max(0.0);
            walk(model, input, &c, acc);
        }
        LogicalPlan::CrossJoin { left, right } | LogicalPlan::Join { left, right, .. } => {
            let l = child(card, 0);
            let r = child(card, 1);
            acc.join_input += l.rows.max(0.0) + r.rows.max(0.0);
            acc.join_output += card.rows.max(0.0);
            if model.distributed {
                // §7: the aggregation side (R1) travels to the other
                // site. At shape level that is the *larger* input — and
                // pre-aggregating below the join shrinks exactly that
                // side to one row per group, which is the distributed
                // payoff the block-level model encodes as
                // `r1_rows` vs `r1_groups` shipped.
                acc.shipped_rows += l.rows.max(0.0).max(r.rows.max(0.0));
            }
            walk(model, left, &l, acc);
            walk(model, right, &r, acc);
        }
        LogicalPlan::Aggregate { input, .. } => {
            let c = child(card, 0);
            acc.group_input += c.rows.max(0.0);
            acc.groups += card.rows.max(0.0);
            walk(model, input, &c, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::Expr;
    use gbj_types::{DataType, Field, Schema};

    fn scan(table: &str, q: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            qualifier: q.into(),
            schema: Schema::new(vec![
                Field::new("id", DataType::Int64, false).with_qualifier(q)
            ]),
        }
    }

    /// Lazy shape: Aggregate(Join(Scan E, Scan D)) with Figure 1
    /// cardinalities — and the eager shape of the same query with the
    /// aggregate pushed below the join. The shape costs must order the
    /// two plans exactly as the block-level model does.
    #[test]
    fn figure1_shape_costs_agree_with_block_model() {
        let model = CostModel::default();

        let lazy_plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan("Employee", "E")),
                right: Box::new(scan("Department", "D")),
                condition: Expr::col("E", "id").eq(Expr::col("D", "id")),
            }),
            group_by: vec![Expr::col("D", "id")],
            aggregates: vec![],
        };
        let lazy_card = CardTree {
            rows: 100.0,
            children: vec![CardTree {
                rows: 10_000.0,
                children: vec![CardTree::leaf(10_000.0), CardTree::leaf(100.0)],
            }],
        };

        let eager_plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Aggregate {
                input: Box::new(scan("Employee", "E")),
                group_by: vec![Expr::col("E", "id")],
                aggregates: vec![],
            }),
            right: Box::new(scan("Department", "D")),
            condition: Expr::col("E", "id").eq(Expr::col("D", "id")),
        };
        let eager_card = CardTree {
            rows: 100.0,
            children: vec![
                CardTree {
                    rows: 100.0,
                    children: vec![CardTree::leaf(10_000.0)],
                },
                CardTree::leaf(100.0),
            ],
        };

        let lazy = shape_cost(&model, &lazy_plan, &lazy_card);
        let eager = shape_cost(&model, &eager_plan, &eager_card);
        assert_eq!(lazy.join_input, 10_100.0);
        assert_eq!(lazy.group_input, 10_000.0);
        assert_eq!(eager.join_input, 200.0);
        assert_eq!(eager.group_input, 10_000.0);
        assert!(
            eager.total < lazy.total,
            "Figure 1: eager must win ({} vs {})",
            eager.total,
            lazy.total
        );

        // Both shapes scan the same base tables, so the scan term is
        // identical and cancels in the comparison.
        assert_eq!(lazy.scan_rows, eager.scan_rows);
    }

    /// Figure 8 in tree form: a selective join (50 output rows) under a
    /// near-key grouping (9000 eager groups) — lazy must win.
    #[test]
    fn figure8_shape_costs_prefer_lazy() {
        let model = CostModel::default();
        let join = |l: f64, r: f64, out: f64| CardTree {
            rows: out,
            children: vec![CardTree::leaf(l), CardTree::leaf(r)],
        };

        let lazy_plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan("R1", "R1")),
                right: Box::new(scan("R2", "R2")),
                condition: Expr::col("R1", "id").eq(Expr::col("R2", "id")),
            }),
            group_by: vec![Expr::col("R1", "id")],
            aggregates: vec![],
        };
        let lazy_card = CardTree {
            rows: 10.0,
            children: vec![join(10_000.0, 100.0, 50.0)],
        };

        let eager_plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Aggregate {
                input: Box::new(scan("R1", "R1")),
                group_by: vec![Expr::col("R1", "id")],
                aggregates: vec![],
            }),
            right: Box::new(scan("R2", "R2")),
            condition: Expr::col("R1", "id").eq(Expr::col("R2", "id")),
        };
        let eager_card = CardTree {
            rows: 10.0,
            children: vec![
                CardTree {
                    rows: 9_000.0,
                    children: vec![CardTree::leaf(10_000.0)],
                },
                CardTree::leaf(100.0),
            ],
        };

        let lazy = shape_cost(&model, &lazy_plan, &lazy_card);
        let eager = shape_cost(&model, &eager_plan, &eager_card);
        assert!(
            lazy.total < eager.total,
            "Figure 8: lazy must win ({} vs {})",
            lazy.total,
            eager.total
        );
    }

    /// Distributed mode ships the aggregation (larger) join input, so
    /// an eager shape that pre-aggregates it ships one row per group
    /// instead of the whole table.
    #[test]
    fn distributed_ships_aggregation_side() {
        let model = CostModel::distributed();
        let plan = LogicalPlan::Join {
            left: Box::new(scan("R1", "R1")),
            right: Box::new(scan("R2", "R2")),
            condition: Expr::col("R1", "id").eq(Expr::col("R2", "id")),
        };
        let card = CardTree {
            rows: 100.0,
            children: vec![CardTree::leaf(10_000.0), CardTree::leaf(100.0)],
        };
        let cost = shape_cost(&model, &plan, &card);
        assert_eq!(cost.shipped_rows, 10_000.0);
        assert!(cost.total > model.c_net_row * 10_000.0);

        // Pre-aggregating R1 below the join shrinks the shipped side to
        // one row per group.
        let eager = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Aggregate {
                input: Box::new(scan("R1", "R1")),
                group_by: vec![Expr::col("R1", "id")],
                aggregates: vec![],
            }),
            right: Box::new(scan("R2", "R2")),
            condition: Expr::col("R1", "id").eq(Expr::col("R2", "id")),
        };
        let eager_card = CardTree {
            rows: 100.0,
            children: vec![
                CardTree {
                    rows: 150.0,
                    children: vec![CardTree::leaf(10_000.0)],
                },
                CardTree::leaf(100.0),
            ],
        };
        let eager_cost = shape_cost(&model, &eager, &eager_card);
        assert_eq!(eager_cost.shipped_rows, 150.0);
        assert!(eager_cost.total < cost.total);
    }

    /// Missing estimates degrade to zero-row leaves instead of
    /// panicking: the walk is defensive against shape drift.
    #[test]
    fn shape_mismatch_degrades_to_zero() {
        let model = CostModel::default();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("T", "T")),
            predicate: Expr::col("T", "id").eq(Expr::col("T", "id")),
        };
        let cost = shape_cost(&model, &plan, &CardTree::leaf(5.0));
        assert_eq!(cost.scan_rows, 0.0, "missing child estimate counts 0");
        assert_eq!(cost.total, 0.0);
    }

    /// Projection and aliasing are free; sorts and filters charge one
    /// touch per input row.
    #[test]
    fn free_and_per_row_operators() {
        let model = CostModel::default();
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(scan("T", "T")),
                exprs: vec![(Expr::col("T", "id"), "id".into())],
                distinct: false,
            }),
            keys: vec![(Expr::col("T", "id"), true)],
        };
        let card = CardTree {
            rows: 7.0,
            children: vec![CardTree {
                rows: 7.0,
                children: vec![CardTree::leaf(7.0)],
            }],
        };
        let cost = shape_cost(&model, &plan, &card);
        // Sort touch (7) + scan touch (7); projection adds nothing.
        assert_eq!(cost.scan_rows, 14.0);
        assert_eq!(cost.total, 14.0);
    }
}
