//! The fixed aggregate-join queries and an independent model of their
//! answers, plus the order-insensitive result fingerprint every check
//! compares.
//!
//! The model evaluates each fixed query directly over the generated
//! rows (`Dataset`) with plain Rust maps. It shares no code with the
//! engine: no parser, no planner, no executor.

use std::collections::BTreeMap;

use gbj_exec::ResultSet;
use gbj_types::Value;

use crate::data::{Dataset, DIM_ROWS};

/// A fixed query: its SQL and which schema it reads.
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    /// Short name used in reports.
    pub name: &'static str,
    /// The SQL text sent to the server.
    pub sql: &'static str,
    /// Whether it reads only the sweep schema (`Fact`/`Dim`).
    pub sweep: bool,
}

/// The serving working set: seven queries, so it fits the 16-entry
/// plan cache. With default options on the generated data:
/// `sweep_eager`, `sweep_filtered` and `paper_count` are planned eager,
/// `sweep_lazy` has a valid rewrite that the cost model declines,
/// `sweep_no_rewrite` has no valid rewrite (TestFD fails), and the two
/// `*_view` queries are §8 aggregated-view queries.
pub const FIXED: [Fixed; 7] = [
    Fixed {
        name: "sweep_eager",
        sql: "SELECT D.DimId, COUNT(F.FactId), SUM(F.V) FROM Fact F, Dim D \
              WHERE F.DimId = D.DimId GROUP BY D.DimId",
        sweep: true,
    },
    Fixed {
        name: "sweep_lazy",
        sql: "SELECT F.FactId, D.Cat, SUM(F.V) FROM Fact F, Dim D \
              WHERE F.DimId = D.DimId AND F.FactId < 2000 GROUP BY F.FactId, D.Cat",
        sweep: true,
    },
    Fixed {
        name: "sweep_no_rewrite",
        sql: "SELECT D.Cat, COUNT(F.FactId), SUM(F.V) FROM Fact F, Dim D \
              WHERE F.DimId = D.DimId GROUP BY D.Cat",
        sweep: true,
    },
    Fixed {
        name: "sweep_view",
        sql: "SELECT D.DimId, D.Cat, A.N, A.S FROM FactAgg A, Dim D WHERE A.DimId = D.DimId",
        sweep: true,
    },
    Fixed {
        name: "sweep_filtered",
        sql: "SELECT D.DimId, D.Cat, MIN(F.V), MAX(F.V) FROM Fact F, Dim D \
              WHERE F.DimId = D.DimId AND D.Cat = 'cat3' GROUP BY D.DimId, D.Cat",
        sweep: true,
    },
    Fixed {
        name: "paper_count",
        sql: "SELECT D.DeptID, D.Name, COUNT(E.EmpID) FROM Employee E, Department D \
              WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name",
        sweep: false,
    },
    Fixed {
        name: "paper_view",
        sql: "SELECT D.Name, V.N FROM DeptSize V, Department D WHERE V.DeptID = D.DeptID",
        sweep: false,
    },
];

/// Running `COUNT`/`SUM`/`MIN`/`MAX` over nullable integers with SQL
/// semantics: NULL inputs are skipped and an all-NULL `SUM`/`MIN`/`MAX`
/// is NULL.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    rows: i64,
    sum: Option<i64>,
    min: Option<i64>,
    max: Option<i64>,
}

impl Acc {
    fn add(&mut self, v: Option<i64>) {
        self.rows += 1;
        if let Some(v) = v {
            self.sum = Some(self.sum.unwrap_or(0) + v);
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        }
    }
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

fn opt(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// `Fact` rows that join `Dim`, as `(FactId, DimId, V)`.
fn joined(data: &Dataset) -> impl Iterator<Item = (i64, i64, Option<i64>)> + '_ {
    data.fact
        .iter()
        .enumerate()
        .filter_map(|(id, r)| r.map(|(dim, v)| (id as i64, dim, v)))
        .filter(|&(_, dim, _)| (0..DIM_ROWS as i64).contains(&dim))
}

/// The expected rows of `FIXED[q]` on `data`.
pub fn expected(q: usize, data: &Dataset) -> Vec<Vec<Value>> {
    let cat = |dim: i64| Value::str(data.dim_cat[dim as usize].clone());
    match FIXED[q].name {
        "sweep_eager" => {
            let mut groups: BTreeMap<i64, Acc> = BTreeMap::new();
            for (_, dim, v) in joined(data) {
                groups.entry(dim).or_default().add(v);
            }
            groups
                .into_iter()
                .map(|(d, a)| vec![int(d), int(a.rows), opt(a.sum)])
                .collect()
        }
        "sweep_lazy" => joined(data)
            .filter(|&(id, _, _)| id < 2000)
            .map(|(id, dim, v)| vec![int(id), cat(dim), opt(v)])
            .collect(),
        "sweep_no_rewrite" => {
            let mut groups: BTreeMap<String, Acc> = BTreeMap::new();
            for (_, dim, v) in joined(data) {
                groups
                    .entry(data.dim_cat[dim as usize].clone())
                    .or_default()
                    .add(v);
            }
            groups
                .into_iter()
                .map(|(c, a)| vec![Value::str(c), int(a.rows), opt(a.sum)])
                .collect()
        }
        "sweep_view" => {
            // The view groups every fact, joined or not; the join then
            // keeps the groups whose key has a `Dim` row.
            let mut groups: BTreeMap<i64, Acc> = BTreeMap::new();
            for (dim, v) in data.fact.iter().flatten() {
                groups.entry(*dim).or_default().add(*v);
            }
            groups
                .into_iter()
                .filter(|(d, _)| (0..DIM_ROWS as i64).contains(d))
                .map(|(d, a)| vec![int(d), cat(d), int(a.rows), opt(a.sum)])
                .collect()
        }
        "sweep_filtered" => {
            let mut groups: BTreeMap<i64, Acc> = BTreeMap::new();
            for (_, dim, v) in joined(data).filter(|&(_, d, _)| data.dim_cat[d as usize] == "cat3")
            {
                groups.entry(dim).or_default().add(v);
            }
            groups
                .into_iter()
                .map(|(d, a)| vec![int(d), cat(d), opt(a.min), opt(a.max)])
                .collect()
        }
        "paper_count" | "paper_view" => {
            // Every non-NULL DeptID has a Department row; the view's
            // NULL group joins nothing.
            let mut groups: BTreeMap<i64, i64> = BTreeMap::new();
            for d in data.emp_dept.iter().flatten() {
                *groups.entry(*d).or_default() += 1;
            }
            let name = |d: i64| Value::str(format!("Department-{d}"));
            groups
                .into_iter()
                .map(|(d, n)| {
                    if FIXED[q].name == "paper_count" {
                        vec![int(d), name(d), int(n)]
                    } else {
                        vec![name(d), int(n)]
                    }
                })
                .collect()
        }
        other => unreachable!("no model for fixed query {other}"),
    }
}

/// An order-insensitive fingerprint of a result: FNV-1a over the sorted
/// canonical rendering of every row (multiset equality, as `=ⁿ` asks).
pub fn fingerprint(rows: &[Vec<Value>]) -> u64 {
    let mut lines: Vec<String> = rows.iter().map(|r| render_row(r)).collect();
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h ^ lines.len() as u64
}

/// Fingerprint of a result set.
pub fn fingerprint_set(rs: &ResultSet) -> u64 {
    fingerprint(&rs.rows)
}

fn render_row(row: &[Value]) -> String {
    let mut s = String::new();
    for v in row {
        match v {
            Value::Null => s.push('N'),
            Value::Bool(b) => s.push_str(if *b { "T" } else { "F" }),
            Value::Int(i) => s.push_str(&format!("i{i}")),
            Value::Float(f) => s.push_str(&format!("f{f:?}")),
            Value::Str(t) => s.push_str(&format!("s{t:?}")),
        }
        s.push('|');
    }
    s
}
