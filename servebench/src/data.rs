//! Seeded input generation: the three schemas' rows, the aggregated
//! views, and the single-row writes on `Fact`.
//!
//! Everything the program sees is produced here from the workload seed:
//! table rows (loaded through `Database::insert_rows`) and SQL text. The
//! generated rows are also kept as plain Rust data, which is the model
//! the result checks in `model.rs` evaluate against.

use gbj_engine::Database;
use gbj_types::{Result, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sweep instance: 20k `Fact` rows over 100 `Dim` rows.
pub const FACT_ROWS: usize = 20_000;
/// `Dim` rows (and the number of matching `Fact.DimId` values).
pub const DIM_ROWS: usize = 100;
/// `Fact.DimId` values are drawn from `0..DIM_KEYS`; the keys at and
/// above `DIM_ROWS` have no `Dim` row, so about 5% of facts do not join.
pub const DIM_KEYS: u64 = 105;
/// Distinct `Dim.Cat` values.
pub const CATS: u64 = 17;
/// `Fact.V` is drawn from `0..V_RANGE`.
pub const V_RANGE: u64 = 1000;
/// EmpDept instance (the paper's Example 1): 10k employees, 100 departments.
pub const EMPLOYEES: usize = 10_000;
/// Departments.
pub const DEPARTMENTS: usize = 100;
/// Part/Supplier instance (the paper's Example 2) at the datagen defaults.
pub const PARTS: usize = 5_000;
/// Part classes.
pub const CLASSES: usize = 40;
/// Suppliers.
pub const SUPPLIERS: usize = 200;

/// The generator for one input stream of `seed`: the workspace's
/// seeded SplitMix64 (`crates/rand`), so the same seed yields the same
/// inputs on every platform and toolchain. Streams are decorrelated by
/// mixing `stream` into the seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// One `Fact` row: `(DimId, V)`; `FactId` is the row's index.
pub type FactRow = (i64, Option<i64>);

/// The generated instance, kept as plain data for the result model.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// `Dim.Cat` by `DimId`.
    pub dim_cat: Vec<String>,
    /// `Fact` rows by `FactId`; `None` once deleted.
    pub fact: Vec<Option<FactRow>>,
    /// `Employee.DeptID` by `EmpID`.
    pub emp_dept: Vec<Option<i64>>,
    /// `Employee.LastName` by `EmpID`.
    pub emp_last: Vec<String>,
    /// `Part.SupplierNo` by part index (`ClassCode = p % CLASSES`,
    /// `PartNo = p / CLASSES`).
    pub part_supplier: Vec<Option<i64>>,
}

const DDL: &str = "\
    CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(20) NOT NULL); \
    CREATE TABLE Fact (FactId INTEGER PRIMARY KEY, DimId INTEGER, V INTEGER); \
    CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30) NOT NULL); \
    CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, LastName VARCHAR(30) NOT NULL, \
        FirstName VARCHAR(30), DeptID INTEGER REFERENCES Department); \
    CREATE TABLE Supplier (SupplierNo INTEGER PRIMARY KEY, Name VARCHAR(30) NOT NULL, \
        Address VARCHAR(60)); \
    CREATE TABLE Part (ClassCode INTEGER, PartNo INTEGER, PartName VARCHAR(30) NOT NULL, \
        SupplierNo INTEGER REFERENCES Supplier, PRIMARY KEY (ClassCode, PartNo)); \
    CREATE VIEW FactAgg (DimId, N, S) AS \
        SELECT F.DimId, COUNT(F.FactId), SUM(F.V) FROM Fact F GROUP BY F.DimId; \
    CREATE VIEW DeptSize (DeptID, N) AS \
        SELECT E.DeptID, COUNT(E.EmpID) FROM Employee E GROUP BY E.DeptID; \
    CREATE VIEW SupplierParts (SupplierNo, N, LastPart) AS \
        SELECT P.SupplierNo, COUNT(P.PartNo), MAX(P.PartNo) FROM Part P GROUP BY P.SupplierNo;";

impl Dataset {
    /// The instance for `seed`.
    pub fn generate(seed: u64) -> Dataset {
        let mut rng = rng(seed, 1);
        let dim_cat = (0..DIM_ROWS)
            .map(|_| format!("cat{}", rng.gen_range(0..CATS)))
            .collect();
        let fact = (0..FACT_ROWS)
            .map(|_| {
                let dim = rng.gen_range(0..DIM_KEYS) as i64;
                let v = (!rng.gen_bool(0.02)).then(|| rng.gen_range(0..V_RANGE) as i64);
                Some((dim, v))
            })
            .collect();
        let emp_dept = (0..EMPLOYEES)
            .map(|_| (!rng.gen_bool(0.05)).then(|| rng.gen_range(0..DEPARTMENTS as i64)))
            .collect();
        let emp_last = (0..EMPLOYEES)
            .map(|_| format!("Last{}", rng.gen_range(0..EMPLOYEES)))
            .collect();
        let part_supplier = (0..PARTS)
            .map(|_| (!rng.gen_bool(0.05)).then(|| rng.gen_range(0..SUPPLIERS as i64)))
            .collect();
        Dataset {
            dim_cat,
            fact,
            emp_dept,
            emp_last,
            part_supplier,
        }
    }

    /// A database holding this instance, with default engine options.
    pub fn load(&self) -> Result<Database> {
        let mut db = Database::new();
        db.run_script(DDL)?;
        db.insert_rows(
            "Dim",
            self.dim_cat
                .iter()
                .enumerate()
                .map(|(d, c)| vec![Value::Int(d as i64), Value::str(c.clone())]),
        )?;
        db.insert_rows(
            "Fact",
            self.fact.iter().enumerate().filter_map(|(i, r)| {
                r.map(|(dim, v)| vec![Value::Int(i as i64), Value::Int(dim), opt_int(v)])
            }),
        )?;
        db.insert_rows(
            "Department",
            (0..DEPARTMENTS)
                .map(|d| vec![Value::Int(d as i64), Value::str(format!("Department-{d}"))]),
        )?;
        db.insert_rows(
            "Employee",
            self.emp_dept.iter().enumerate().map(|(e, d)| {
                vec![
                    Value::Int(e as i64),
                    Value::str(self.emp_last[e].clone()),
                    Value::str(format!("First{e}")),
                    opt_int(*d),
                ]
            }),
        )?;
        db.insert_rows(
            "Supplier",
            (0..SUPPLIERS).map(|s| {
                vec![
                    Value::Int(s as i64),
                    Value::str(format!("Supplier{s}")),
                    Value::str(format!("{s} Industrial Way")),
                ]
            }),
        )?;
        db.insert_rows(
            "Part",
            self.part_supplier.iter().enumerate().map(|(p, s)| {
                let (class, part_no) = ((p % CLASSES) as i64, (p / CLASSES) as i64);
                vec![
                    Value::Int(class),
                    Value::Int(part_no),
                    Value::str(format!("Part-{class}-{part_no}")),
                    opt_int(*s),
                ]
            }),
        )?;
        Ok(db)
    }

    /// Apply a write to the model, mirroring what the SQL does.
    pub fn apply(&mut self, write: &Write) {
        match *write {
            Write::Insert { id, dim, v } => {
                let idx = id as usize;
                if self.fact.len() <= idx {
                    self.fact.resize(idx + 1, None);
                }
                self.fact[idx] = Some((dim, Some(v)));
            }
            Write::Update { id, v } => {
                if let Some(Some(row)) = self.fact.get_mut(id as usize) {
                    row.1 = Some(v);
                }
            }
            Write::Delete { id } => {
                if let Some(slot) = self.fact.get_mut(id as usize) {
                    *slot = None;
                }
            }
        }
    }
}

fn opt_int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// A single-row write on `Fact`; every one changes exactly one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Write {
    /// Insert a fresh `FactId`.
    Insert { id: i64, dim: i64, v: i64 },
    /// Set `V` of a live row.
    Update { id: i64, v: i64 },
    /// Delete a live row.
    Delete { id: i64 },
}

impl Write {
    /// The SQL the server executes.
    pub fn sql(&self) -> String {
        match self {
            Write::Insert { id, dim, v } => format!("INSERT INTO Fact VALUES ({id}, {dim}, {v})"),
            Write::Update { id, v } => format!("UPDATE Fact SET V = {v} WHERE FactId = {id}"),
            Write::Delete { id } => format!("DELETE FROM Fact WHERE FactId = {id}"),
        }
    }
}

/// Seeded single-row writes on `Fact`, rotating INSERT, UPDATE and
/// DELETE so every run has the same mix. It tracks the live ids itself,
/// so every write touches exactly one row.
pub struct WriteGen {
    rng: StdRng,
    live: Vec<i64>,
    next_id: i64,
    issued: u64,
}

impl WriteGen {
    /// Writes against `data`'s current `Fact` rows.
    pub fn new(seed: u64, data: &Dataset) -> WriteGen {
        let live = (0..data.fact.len())
            .filter(|&i| data.fact[i].is_some())
            .map(|i| i as i64)
            .collect();
        WriteGen {
            rng: rng(seed, 3),
            live,
            next_id: data.fact.len() as i64,
            issued: 0,
        }
    }

    /// The next write.
    pub fn next_write(&mut self) -> Write {
        let v = self.rng.gen_range(0..V_RANGE) as i64;
        self.issued += 1;
        match self.issued % 3 {
            0 => {
                let id = self.next_id;
                self.next_id += 1;
                self.live.push(id);
                Write::Insert {
                    id,
                    dim: self.rng.gen_range(0..DIM_KEYS) as i64,
                    v,
                }
            }
            1 => Write::Update {
                id: self.live[self.rng.gen_range(0..self.live.len())],
                v,
            },
            _ => {
                let at = self.rng.gen_range(0..self.live.len());
                Write::Delete {
                    id: self.live.swap_remove(at),
                }
            }
        }
    }
}
