//! The `adhoc` workload's query generator: seeded SPJG queries over the
//! sweep, EmpDept and Part/Supplier schemas whose text never repeats.
//!
//! Each query joins one schema's fact-like table to its dimension on
//! the foreign key (or reads one of the aggregated views), and varies:
//! literal filters, group keys, the aggregate list (`COUNT`, `SUM`,
//! `MIN`, `MAX`, `AVG`, `DISTINCT`), `HAVING` and `ORDER BY`. Group keys
//! that contain the dimension's key give eager-valid shapes; the others
//! (e.g. grouping on `D.Cat` alone) fail TestFD.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::Rng;

use crate::data::rng;

/// One schema's join template.
struct Schema {
    /// `FROM` clause with the join predicate.
    from: &'static str,
    join: &'static str,
    /// Group-key lists; each entry's first column names the `ORDER BY`.
    keys: &'static [&'static [(&'static str, &'static str)]],
    aggs: &'static [&'static str],
    /// Filter templates; `{}` takes a literal from `0..range`.
    filters: &'static [(&'static str, u64)],
}

const SWEEP: Schema = Schema {
    from: "Fact F, Dim D",
    join: "F.DimId = D.DimId",
    keys: &[
        &[("D.DimId", "DimId")],
        &[("D.DimId", "DimId"), ("D.Cat", "Cat")],
        &[("D.Cat", "Cat")],
        &[("F.DimId", "DimId")],
        &[("D.Cat", "Cat"), ("F.V", "V")],
    ],
    aggs: &[
        "COUNT(F.FactId)",
        "COUNT(*)",
        "SUM(F.V)",
        "MIN(F.V)",
        "MAX(F.V)",
        "AVG(F.V)",
        "COUNT(DISTINCT F.V)",
    ],
    filters: &[
        ("F.V < {}", 1000),
        ("F.V >= {}", 1000),
        ("D.DimId < {}", 100),
        ("F.FactId < {}", 20_000),
        ("D.Cat <> 'cat{}'", 17),
    ],
};

const EMP_DEPT: Schema = Schema {
    from: "Employee E, Department D",
    join: "E.DeptID = D.DeptID",
    keys: &[
        &[("D.DeptID", "DeptID")],
        &[("D.DeptID", "DeptID"), ("D.Name", "Name")],
        &[("D.Name", "Name")],
        &[("E.DeptID", "DeptID")],
    ],
    aggs: &[
        "COUNT(E.EmpID)",
        "MIN(E.LastName)",
        "MAX(E.FirstName)",
        "COUNT(DISTINCT E.LastName)",
        "AVG(E.EmpID)",
    ],
    filters: &[
        ("E.EmpID < {}", 10_000),
        ("D.DeptID > {}", 100),
        ("E.LastName > 'Last{}'", 10_000),
    ],
};

const PART_SUPPLIER: Schema = Schema {
    from: "Part P, Supplier S",
    join: "P.SupplierNo = S.SupplierNo",
    keys: &[
        &[("S.SupplierNo", "SupplierNo")],
        &[("S.SupplierNo", "SupplierNo"), ("S.Name", "Name")],
        &[("S.Name", "Name")],
        &[("P.ClassCode", "ClassCode")],
    ],
    aggs: &[
        "COUNT(P.PartNo)",
        "MIN(P.PartNo)",
        "MAX(P.PartName)",
        "AVG(P.PartNo)",
        "COUNT(DISTINCT P.ClassCode)",
        "SUM(P.PartNo)",
    ],
    filters: &[
        ("P.ClassCode < {}", 40),
        ("P.PartNo > {}", 125),
        ("S.SupplierNo < {}", 200),
    ],
};

/// Queries over the aggregated views (§8): `{}` takes a literal.
const VIEWS: [(&str, u64); 3] = [
    (
        "SELECT D.DimId, D.Cat, A.N, A.S FROM FactAgg A, Dim D \
         WHERE A.DimId = D.DimId AND A.N > {} AND D.DimId < {}",
        200,
    ),
    (
        "SELECT D.Name, V.N FROM DeptSize V, Department D \
         WHERE V.DeptID = D.DeptID AND V.N > {} AND D.DeptID < {}",
        100,
    ),
    (
        "SELECT S.Name, V.N, V.LastPart FROM SupplierParts V, Supplier S \
         WHERE V.SupplierNo = S.SupplierNo AND V.N > {} AND S.SupplierNo < {}",
        200,
    ),
];

/// A query shape: one of the view templates, or a schema with one of
/// its group-key lists.
#[derive(Clone, Copy)]
enum Shape {
    View(usize),
    Join(&'static Schema, usize),
}

/// Seeded generator of never-repeating SPJG query texts. It cycles
/// through every shape in a seeded order, so each run sends the same
/// mix of shapes; the seed picks the order, aggregates, filters,
/// literals, HAVING and ORDER BY.
pub struct AdhocGen {
    rng: StdRng,
    seen: HashSet<String>,
    shapes: Vec<Shape>,
    next: usize,
}

impl AdhocGen {
    /// The generator for `seed`.
    pub fn new(seed: u64) -> AdhocGen {
        let mut rng = rng(seed, 2);
        let mut shapes: Vec<Shape> = (0..VIEWS.len()).map(Shape::View).collect();
        for schema in [&SWEEP, &EMP_DEPT, &PART_SUPPLIER] {
            shapes.extend((0..schema.keys.len()).map(|k| Shape::Join(schema, k)));
        }
        for i in (1..shapes.len()).rev() {
            shapes.swap(i, rng.gen_range(0..=i));
        }
        AdhocGen {
            rng,
            seen: HashSet::new(),
            shapes,
            next: 0,
        }
    }

    /// The next query; its text differs from every earlier one.
    pub fn next_sql(&mut self) -> String {
        loop {
            let sql = self.draw();
            if self.seen.insert(sql.clone()) {
                return sql;
            }
        }
    }

    fn fill(&mut self, template: &str, range: u64) -> String {
        let mut out = String::new();
        let mut parts = template.split("{}").peekable();
        while let Some(p) = parts.next() {
            out.push_str(p);
            if parts.peek().is_some() {
                out.push_str(&self.rng.gen_range(0..range).to_string());
            }
        }
        out
    }

    fn draw(&mut self) -> String {
        let shape = self.shapes[self.next % self.shapes.len()];
        self.next += 1;
        let (schema, keys) = match shape {
            Shape::View(v) => {
                let (t, range) = VIEWS[v];
                return self.fill(t, range);
            }
            Shape::Join(schema, k) => (schema, schema.keys[k]),
        };
        let r = &mut self.rng;
        let n_aggs = r.gen_range(1..=3);
        let mut aggs: Vec<&str> = Vec::new();
        while aggs.len() < n_aggs {
            let a = schema.aggs[r.gen_range(0..schema.aggs.len())];
            if !aggs.contains(&a) {
                aggs.push(a);
            }
        }
        let n_filters = r.gen_range(0..3);
        let mut filters = Vec::new();
        for _ in 0..n_filters {
            let (t, range) = schema.filters[r.gen_range(0..schema.filters.len())];
            filters.push((t, range));
        }
        // HAVING may only name aggregates of the SELECT list.
        let having = r.gen_bool(0.25).then(|| r.gen_range(0..50));
        if having.is_some() && !aggs.contains(&"COUNT(*)") {
            aggs.push("COUNT(*)");
        }
        let order = r.gen_bool(0.3).then(|| r.gen_bool(0.5));

        let key_list: Vec<&str> = keys.iter().map(|k| k.0).collect();
        let mut sql = format!(
            "SELECT {}, {} FROM {} WHERE {}",
            key_list.join(", "),
            aggs.join(", "),
            schema.from,
            schema.join
        );
        for (t, range) in filters {
            sql.push_str(" AND ");
            let f = self.fill(t, range);
            sql.push_str(&f);
        }
        sql.push_str(" GROUP BY ");
        sql.push_str(&key_list.join(", "));
        if let Some(n) = having {
            sql.push_str(&format!(" HAVING COUNT(*) > {n}"));
        }
        if let Some(desc) = order {
            sql.push_str(" ORDER BY ");
            sql.push_str(keys[0].1);
            if desc {
                sql.push_str(" DESC");
            }
        }
        sql
    }
}
