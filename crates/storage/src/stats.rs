//! Per-column statistics of one table version.
//!
//! [`TableStats`] is the single statistics source the planner reads:
//! the estimator's NDVs and range histograms and the clamp seeds of the
//! range pass all come from it. One scan of the stored rows builds
//! every column's summary at once. A [`Table`] builds it lazily on the
//! first read and shares it with its clones until either side writes,
//! so a table version is summarised at most once.

use std::collections::{BTreeSet, HashSet};

use gbj_expr::BinaryOp;
use gbj_types::{DataType, GroupKey, Value};

use crate::table::Table;

/// Buckets per equi-depth histogram.
pub(crate) const HISTOGRAM_BUCKETS: usize = 32;

/// Largest Utf8 value set a summary keeps (the range pass's
/// `MAX_VALUE_SET`).
pub(crate) const VALUE_SET_MAX: usize = 16;

/// Selectivity assumed for predicates no statistic can analyse.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// An equi-depth (equi-height) histogram over one integer column:
/// `buckets` upper bounds chosen so each bucket holds ~the same number
/// of values. Estimates the selectivity of `col < x` and friends by
/// counting full buckets below `x` and linearly interpolating inside
/// the straddling bucket. NULLs are excluded from the buckets (a range
/// predicate is never *true* of NULL) and discount the selectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    min: i64,
    /// Upper bound of each bucket (ascending, last = column max).
    bounds: Vec<i64>,
    non_null: usize,
    total: usize,
}

impl EquiDepthHistogram {
    /// Build from a column's values. Returns `None` when there are no
    /// non-NULL integer values to summarise.
    #[must_use]
    pub fn build(values: &[Option<i64>], buckets: usize) -> Option<EquiDepthHistogram> {
        let ints = values.iter().filter_map(|v| *v).collect();
        EquiDepthHistogram::from_ints(ints, values.len(), buckets)
    }

    /// Build from the non-NULL integers of a column of `total` rows.
    fn from_ints(mut ints: Vec<i64>, total: usize, buckets: usize) -> Option<EquiDepthHistogram> {
        if ints.is_empty() {
            return None;
        }
        ints.sort_unstable();
        let non_null = ints.len();
        let buckets = buckets.max(1).min(non_null);
        let mut bounds = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            // Rank of this bucket's upper bound (1-based, inclusive).
            let rank = (b * non_null).div_ceil(buckets);
            if let Some(v) = ints.get(rank.saturating_sub(1)) {
                bounds.push(*v);
            }
        }
        let min = ints.first().copied()?;
        Some(EquiDepthHistogram {
            min,
            bounds,
            non_null,
            total,
        })
    }

    /// Estimated fraction of **non-NULL** values `≤ x`.
    #[must_use]
    pub fn fraction_le(&self, x: i64) -> f64 {
        if x < self.min {
            return 0.0;
        }
        let n = self.bounds.len() as f64;
        let mut lower = self.min;
        for (i, &upper) in self.bounds.iter().enumerate() {
            if x >= upper {
                lower = upper;
                continue;
            }
            // x falls inside bucket i: interpolate linearly.
            let width = (upper - lower) as f64;
            let within = if width <= 0.0 {
                1.0
            } else {
                ((x - lower) as f64 / width).clamp(0.0, 1.0)
            };
            return ((i as f64 + within) / n).clamp(0.0, 1.0);
        }
        1.0
    }

    /// Selectivity of `col op literal` over the whole column (NULLs
    /// count against: they never satisfy a range predicate).
    #[must_use]
    pub fn selectivity(&self, op: BinaryOp, lit: i64) -> f64 {
        let le = self.fraction_le(lit);
        // `fraction_lt` via the predecessor; exact enough for integers.
        let lt = self.fraction_le(lit.saturating_sub(1));
        let frac = match op {
            BinaryOp::Lt => lt,
            BinaryOp::LtEq => le,
            BinaryOp::Gt => 1.0 - le,
            BinaryOp::GtEq => 1.0 - lt,
            _ => return DEFAULT_SELECTIVITY,
        };
        let null_discount = if self.total == 0 {
            1.0
        } else {
            self.non_null as f64 / self.total as f64
        };
        (frac * null_discount).clamp(0.0, 1.0)
    }
}

/// The summary of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// NULL cells.
    pub nulls: usize,
    /// Distinct non-NULL values under `=ⁿ` (`0.0` and `-0.0` are one
    /// value, as in grouping).
    pub distinct: usize,
    /// Smallest numeric (Int or Float) value, as `f64`.
    pub min: Option<f64>,
    /// Largest numeric (Int or Float) value, as `f64`.
    pub max: Option<f64>,
    /// Equi-depth histogram of the Int values (32 buckets); `None`
    /// when the column holds none.
    pub histogram: Option<EquiDepthHistogram>,
    /// The distinct values of a Utf8 column when there are at most 16
    /// of them; `None` otherwise.
    pub values: Option<BTreeSet<String>>,
}

impl ColumnStats {
    /// Distinct values with NULL counted as one more when present: the
    /// number of `=ⁿ` groups the column forms.
    #[must_use]
    pub fn ndv(&self) -> usize {
        self.distinct + usize::from(self.nulls > 0)
    }
}

/// Row count and per-column summaries of one table version.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Stored rows.
    pub rows: usize,
    /// One summary per schema column, in schema order.
    pub columns: Vec<ColumnStats>,
}

/// Per-column accumulator of the single scan.
struct ColumnScan {
    nulls: usize,
    distinct: HashSet<GroupKey>,
    min: Option<f64>,
    max: Option<f64>,
    ints: Vec<i64>,
    /// `None` for a non-Utf8 column or once the set outgrew the cap.
    values: Option<BTreeSet<String>>,
}

impl TableStats {
    /// Summarise a table's current rows from scratch, in one scan.
    #[must_use]
    pub fn build(table: &Table) -> TableStats {
        let mut scans: Vec<ColumnScan> = table
            .schema()
            .fields()
            .iter()
            .map(|f| ColumnScan {
                nulls: 0,
                distinct: HashSet::new(),
                min: None,
                max: None,
                ints: Vec::new(),
                values: (f.data_type == DataType::Utf8).then(BTreeSet::new),
            })
            .collect();
        for row in table.value_rows() {
            for (i, scan) in scans.iter_mut().enumerate() {
                let v = row.get(i).unwrap_or(&Value::Null);
                let n = match v {
                    Value::Null => {
                        scan.nulls += 1;
                        continue;
                    }
                    Value::Int(x) => {
                        scan.ints.push(*x);
                        Some(*x as f64)
                    }
                    Value::Float(x) => Some(*x),
                    Value::Str(s) => {
                        if let Some(set) = &mut scan.values {
                            if !set.contains(s) {
                                set.insert(s.clone());
                            }
                            if set.len() > VALUE_SET_MAX {
                                scan.values = None;
                            }
                        }
                        None
                    }
                    Value::Bool(_) => None,
                };
                if let Some(n) = n {
                    scan.min = Some(scan.min.map_or(n, |m| m.min(n)));
                    scan.max = Some(scan.max.map_or(n, |m| m.max(n)));
                }
                scan.distinct.insert(GroupKey(vec![v.clone()]));
            }
        }
        let rows = table.len();
        TableStats {
            rows,
            columns: scans
                .into_iter()
                .map(|s| ColumnStats {
                    nulls: s.nulls,
                    distinct: s.distinct.len(),
                    min: s.min,
                    max: s.max,
                    histogram: EquiDepthHistogram::from_ints(s.ints, rows, HISTOGRAM_BUCKETS),
                    values: s.values,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::{Field, Schema};

    fn table(fields: Vec<Field>, rows: Vec<Vec<Value>>) -> Table {
        let mut t = Table::new(Schema::new(fields));
        for r in rows {
            t.push(r);
        }
        t
    }

    /// The summary of column `idx`, recomputed the naive way: one pass
    /// per statistic, straight from the definitions.
    fn naive(t: &Table, idx: usize) -> ColumnStats {
        let col: Vec<Value> = t.value_rows().map(|r| r[idx].clone()).collect();
        let non_null: Vec<&Value> = col.iter().filter(|v| !v.is_null()).collect();
        let mut distinct: Vec<&Value> = Vec::new();
        for v in &non_null {
            if !distinct
                .iter()
                .any(|d| GroupKey(vec![(*d).clone()]) == GroupKey(vec![(*v).clone()]))
            {
                distinct.push(v);
            }
        }
        let nums: Vec<f64> = non_null
            .iter()
            .filter_map(|v| match v {
                Value::Int(x) => Some(*x as f64),
                Value::Float(x) => Some(*x),
                _ => None,
            })
            .collect();
        let ints: Vec<Option<i64>> = col
            .iter()
            .map(|v| match v {
                Value::Int(x) => Some(*x),
                _ => None,
            })
            .collect();
        let strings: BTreeSet<String> = non_null
            .iter()
            .filter_map(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        let utf8 = t.schema().fields()[idx].data_type == DataType::Utf8;
        ColumnStats {
            nulls: col.len() - non_null.len(),
            distinct: distinct.len(),
            min: nums.iter().copied().reduce(f64::min),
            max: nums.iter().copied().reduce(f64::max),
            histogram: EquiDepthHistogram::build(&ints, HISTOGRAM_BUCKETS),
            values: (utf8 && strings.len() <= VALUE_SET_MAX).then_some(strings),
        }
    }

    fn assert_matches_naive(t: &Table) {
        let stats = TableStats::build(t);
        assert_eq!(stats.rows, t.len());
        assert_eq!(stats.columns.len(), t.schema().fields().len());
        for (i, c) in stats.columns.iter().enumerate() {
            assert_eq!(*c, naive(t, i), "column {i}");
        }
    }

    #[test]
    fn null_heavy_all_null_and_float_columns_match_a_naive_recompute() {
        let rows = (0..100i64)
            .map(|i| {
                vec![
                    if i % 5 == 0 {
                        Value::Int(i % 7)
                    } else {
                        Value::Null
                    },
                    Value::Null,
                    match i % 4 {
                        0 => Value::Null,
                        1 => Value::Float(0.0),
                        2 => Value::Float(-0.0),
                        _ => Value::Float(i as f64 / 3.0),
                    },
                ]
            })
            .collect();
        let t = table(
            vec![
                Field::new("sparse", DataType::Int64, true),
                Field::new("none", DataType::Int64, true),
                Field::new("f", DataType::Float64, true),
            ],
            rows,
        );
        assert_matches_naive(&t);
        let stats = TableStats::build(&t);
        let [sparse, none, f] = stats.columns.as_slice() else {
            panic!("three columns");
        };
        assert_eq!((sparse.nulls, sparse.distinct, sparse.ndv()), (80, 7, 8));
        assert_eq!((none.nulls, none.distinct, none.ndv()), (100, 0, 1));
        assert!(none.histogram.is_none() && none.min.is_none());
        assert_eq!(f.distinct, 26, "0.0 and -0.0 are one value under =ⁿ");
        assert!(f.histogram.is_none(), "no Int values, no histogram");
    }

    #[test]
    fn empty_table_matches_a_naive_recompute() {
        let t = table(
            vec![
                Field::new("x", DataType::Int64, true),
                Field::new("s", DataType::Utf8, true),
            ],
            Vec::new(),
        );
        assert_matches_naive(&t);
        let stats = TableStats::build(&t);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.columns[0].ndv(), 0);
        assert_eq!(stats.columns[1].values, Some(BTreeSet::new()));
    }

    #[test]
    fn utf8_value_sets_are_kept_up_to_the_cap() {
        for distinct in [1, VALUE_SET_MAX, VALUE_SET_MAX + 1, 40] {
            let rows = (0..60)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        if i % 9 == 0 {
                            Value::Null
                        } else {
                            Value::str(format!("v{}", i as usize % distinct))
                        },
                    ]
                })
                .collect();
            let t = table(
                vec![
                    Field::new("id", DataType::Int64, false),
                    Field::new("s", DataType::Utf8, true),
                ],
                rows,
            );
            assert_matches_naive(&t);
            let s = &TableStats::build(&t).columns[1];
            assert_eq!(
                s.values.is_some(),
                s.distinct <= VALUE_SET_MAX,
                "{distinct} distinct strings"
            );
        }
    }

    #[test]
    fn histogram_estimates_ranges_and_discounts_nulls() {
        let mut values: Vec<Option<i64>> = (0..100).map(Some).collect();
        values.extend([None; 100]);
        let h = EquiDepthHistogram::build(&values, HISTOGRAM_BUCKETS).unwrap();
        assert_eq!(h.fraction_le(-1), 0.0);
        assert_eq!(h.fraction_le(99), 1.0);
        // Half the rows are NULL: `x < 50` holds for about a quarter.
        let lt = h.selectivity(BinaryOp::Lt, 50);
        assert!((lt - 0.25).abs() < 0.02, "{lt}");
        assert_eq!(h.selectivity(BinaryOp::Eq, 5), DEFAULT_SELECTIVITY);
        assert!(EquiDepthHistogram::build(&[None, None], 4).is_none());
    }
}
