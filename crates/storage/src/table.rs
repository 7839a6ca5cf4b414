//! The stored table: a multiset of rows with implicit RowIDs and
//! hash indexes over declared keys.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use gbj_types::{Error, GroupKey, Result, Schema, Value};

use crate::stats::TableStats;

/// A stored row: its implicit RowID plus the column values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The implicit unique row identifier (paper §4.3).
    pub row_id: u64,
    /// Column values in schema order.
    pub values: Vec<Value>,
}

/// An index over one candidate key of a table.
///
/// PRIMARY KEY entries always participate; UNIQUE entries with any NULL
/// component are *not* indexed because SQL2's UNIQUE uses "NULL ≠ NULL"
/// semantics — such rows can never conflict.
#[derive(Debug, Clone)]
struct KeyIndex {
    columns: Vec<usize>,
    /// Whether NULLs are allowed in the key (UNIQUE yes, PRIMARY KEY no).
    allows_null: bool,
    /// `Arc`-shared so cloning a table for a snapshot is O(1) per
    /// index; mutation goes through `Arc::make_mut` (copy-on-write).
    entries: Arc<HashSet<GroupKey>>,
}

/// An in-memory base table.
///
/// Rows and key-index entries live behind `Arc`s, so [`Table::clone`]
/// (and hence a whole-database snapshot) is O(tables), not O(rows):
/// a clone shares the row storage, and the first mutation after a
/// snapshot pays a one-time copy-on-write of the mutated table only.
/// Snapshots therefore never observe torn state — they hold the exact
/// row vector that existed when they were taken.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    rows: Arc<Vec<Row>>,
    next_row_id: u64,
    /// Bumped on every mutation; invalidates lazy lookup sets.
    generation: u64,
    key_indexes: Vec<KeyIndex>,
    /// Lookup sets for foreign keys *into* this table, keyed by the
    /// referenced column ordinals, tagged with the generation they were
    /// built at. Built lazily, maintained incrementally on insert.
    ref_lookups: HashMap<Vec<usize>, (u64, HashSet<GroupKey>)>,
    /// The column statistics of this version, built on first read.
    /// Clones share the cell until either side writes.
    stats: Arc<OnceLock<TableStats>>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            rows: Arc::clone(&self.rows),
            next_row_id: self.next_row_id,
            generation: self.generation,
            key_indexes: self.key_indexes.clone(),
            // The lazy FK-lookup cache is not carried across clones: a
            // stale generation tag would force a rebuild anyway, and
            // dropping it keeps snapshots cheap.
            ref_lookups: HashMap::new(),
            stats: Arc::clone(&self.stats),
        }
    }
}

/// Clone the value at column ordinal `c`, treating a (never-expected)
/// out-of-range ordinal as NULL. Storage validates row arity before any
/// row reaches `Table`, so the fallback exists only to keep this module
/// panic-free under the `indexing_slicing` lint.
fn val_at(values: &[Value], c: usize) -> Value {
    values.get(c).cloned().unwrap_or(Value::Null)
}

impl Table {
    /// An empty table with the given (unqualified or table-qualified)
    /// schema.
    #[must_use]
    pub fn new(schema: Schema) -> Table {
        Table {
            schema,
            rows: Arc::new(Vec::new()),
            next_row_id: 0,
            generation: 0,
            key_indexes: Vec::new(),
            ref_lookups: HashMap::new(),
            stats: Arc::default(),
        }
    }

    /// Declare a key over column ordinals; `allows_null` is true for
    /// UNIQUE, false for PRIMARY KEY.
    pub(crate) fn add_key_index(&mut self, columns: Vec<usize>, allows_null: bool) {
        self.key_indexes.push(KeyIndex {
            columns,
            allows_null,
            entries: Arc::new(HashSet::new()),
        });
    }

    /// The table schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate the stored rows.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// The raw value vectors, for the executor's scan.
    pub fn value_rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| r.values.as_slice())
    }

    /// The column statistics of the current rows, built by one scan on
    /// the first call after a write and shared with clones taken since.
    #[must_use]
    pub fn stats(&self) -> &TableStats {
        self.stats.get_or_init(|| TableStats::build(self))
    }

    /// Drop the statistics of the previous version: cleared in place
    /// when no clone shares them, detached from the clones otherwise.
    fn invalidate_stats(&mut self) {
        match Arc::get_mut(&mut self.stats) {
            Some(cell) => {
                cell.take();
            }
            None => self.stats = Arc::default(),
        }
    }

    /// The stored rows as a slice (for batched scan cursors).
    pub(crate) fn raw_rows(&self) -> &[Row] {
        &self.rows
    }

    /// Check key uniqueness for a candidate row (without inserting).
    pub(crate) fn check_keys(&self, values: &[Value]) -> Result<()> {
        for idx in &self.key_indexes {
            let key_vals: Vec<Value> = idx.columns.iter().map(|&c| val_at(values, c)).collect();
            let has_null = key_vals.iter().any(Value::is_null);
            if has_null {
                if idx.allows_null {
                    continue; // UNIQUE: NULL ≠ NULL, never conflicts
                }
                return Err(Error::Constraint(format!(
                    "NULL in primary key column of key ({:?})",
                    idx.columns
                )));
            }
            if idx.entries.contains(&GroupKey(key_vals)) {
                return Err(Error::Constraint(format!(
                    "duplicate key value for key on columns {:?}",
                    idx.columns
                )));
            }
        }
        Ok(())
    }

    /// Append a row, updating indexes. The caller (Storage) has already
    /// validated constraints.
    pub(crate) fn push(&mut self, values: Vec<Value>) -> u64 {
        for idx in &mut self.key_indexes {
            let key_vals: Vec<Value> = idx.columns.iter().map(|&c| val_at(&values, c)).collect();
            if !key_vals.iter().any(Value::is_null) {
                Arc::make_mut(&mut idx.entries).insert(GroupKey(key_vals));
            }
        }
        self.generation += 1;
        self.invalidate_stats();
        // Keep current lookup sets current (incremental maintenance).
        for (cols, (gen, set)) in &mut self.ref_lookups {
            let key_vals: Vec<Value> = cols.iter().map(|&c| val_at(&values, c)).collect();
            if !key_vals.iter().any(Value::is_null) {
                set.insert(GroupKey(key_vals));
            }
            *gen = self.generation;
        }
        let id = self.next_row_id;
        self.next_row_id += 1;
        // Copy-on-write: the first push after a snapshot copies the row
        // vector; snapshots keep reading the old one untouched.
        Arc::make_mut(&mut self.rows).push(Row { row_id: id, values });
        id
    }

    /// Replace the stored rows wholesale (DELETE / UPDATE), rebuilding
    /// key indexes and invalidating lookup sets. Surviving rows keep
    /// their RowIDs; `next_row_id` never goes backwards, so IDs are
    /// never reused.
    pub(crate) fn replace_rows(&mut self, rows: Vec<Row>) {
        self.ref_lookups.clear();
        for idx in &mut self.key_indexes {
            let mut entries = HashSet::new();
            for row in &rows {
                let key_vals: Vec<Value> = idx
                    .columns
                    .iter()
                    .map(|&c| val_at(&row.values, c))
                    .collect();
                if !key_vals.iter().any(Value::is_null) {
                    entries.insert(GroupKey(key_vals));
                }
            }
            // Fresh Arcs: snapshots holding the old sets are unaffected.
            idx.entries = Arc::new(entries);
        }
        self.generation += 1;
        self.invalidate_stats();
        self.rows = Arc::new(rows);
    }

    /// Key-uniqueness check over an arbitrary candidate row multiset
    /// (used by UPDATE, which must validate the *final* state).
    pub(crate) fn check_keys_over(&self, rows: &[Row]) -> Result<()> {
        for idx in &self.key_indexes {
            let mut seen: HashSet<GroupKey> = HashSet::with_capacity(rows.len());
            for row in rows {
                let key_vals: Vec<Value> = idx
                    .columns
                    .iter()
                    .map(|&c| val_at(&row.values, c))
                    .collect();
                if key_vals.iter().any(Value::is_null) {
                    if idx.allows_null {
                        continue;
                    }
                    return Err(Error::Constraint(format!(
                        "NULL in primary key column of key ({:?})",
                        idx.columns
                    )));
                }
                if !seen.insert(GroupKey(key_vals)) {
                    return Err(Error::Constraint(format!(
                        "duplicate key value for key on columns {:?}",
                        idx.columns
                    )));
                }
            }
        }
        Ok(())
    }

    /// Whether a (fully non-NULL) key value exists under the given
    /// referenced columns — used for foreign-key validation. Builds a
    /// lookup set on first use.
    pub(crate) fn contains_key_value(&mut self, columns: &[usize], key: &[Value]) -> bool {
        // Fast path: an existing key index over exactly these columns.
        if let Some(idx) = self.key_indexes.iter().find(|i| i.columns == columns) {
            return idx.entries.contains(&GroupKey(key.to_vec()));
        }
        let generation = self.generation;
        let (gen, set) = self
            .ref_lookups
            .entry(columns.to_vec())
            .or_insert_with(|| (0, HashSet::new()));
        if *gen != generation {
            // (Re)build for the current generation; push() maintains it
            // incrementally afterwards.
            set.clear();
            for row in self.rows.iter() {
                let vals: Vec<Value> = columns.iter().map(|&c| val_at(&row.values, c)).collect();
                if !vals.iter().any(Value::is_null) {
                    set.insert(GroupKey(vals));
                }
            }
            *gen = generation;
        }
        set.contains(&GroupKey(key.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("x", DataType::Int64, true),
        ])
    }

    #[test]
    fn row_ids_are_sequential_and_unique() {
        let mut t = Table::new(schema());
        let a = t.push(vec![Value::Int(1), Value::Null]);
        let b = t.push(vec![Value::Int(2), Value::Null]);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        let ids: Vec<u64> = t.rows().map(|r| r.row_id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn duplicate_rows_are_allowed_as_multiset() {
        let mut t = Table::new(schema());
        t.push(vec![Value::Int(1), Value::Int(5)]);
        t.push(vec![Value::Int(1), Value::Int(5)]);
        assert_eq!(t.len(), 2, "tables are multisets");
    }

    #[test]
    fn primary_key_index_rejects_duplicates_and_nulls() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![0], false);
        t.check_keys(&[Value::Int(1), Value::Null]).unwrap();
        t.push(vec![Value::Int(1), Value::Null]);
        assert!(t.check_keys(&[Value::Int(1), Value::Int(9)]).is_err());
        assert!(t.check_keys(&[Value::Null, Value::Int(9)]).is_err());
        t.check_keys(&[Value::Int(2), Value::Null]).unwrap();
    }

    #[test]
    fn unique_index_allows_multiple_nulls() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![1], true);
        t.push(vec![Value::Int(1), Value::Null]);
        // A second NULL never conflicts (UNIQUE uses NULL ≠ NULL).
        t.check_keys(&[Value::Int(2), Value::Null]).unwrap();
        t.push(vec![Value::Int(2), Value::Null]);
        t.push(vec![Value::Int(3), Value::Int(7)]);
        assert!(t.check_keys(&[Value::Int(4), Value::Int(7)]).is_err());
    }

    #[test]
    fn contains_key_value_lookup() {
        let mut t = Table::new(schema());
        t.push(vec![Value::Int(1), Value::Int(10)]);
        t.push(vec![Value::Int(2), Value::Int(20)]);
        assert!(t.contains_key_value(&[0], &[Value::Int(1)]));
        assert!(!t.contains_key_value(&[0], &[Value::Int(3)]));
        // Lookup set stays correct across later pushes.
        t.push(vec![Value::Int(3), Value::Int(30)]);
        assert!(t.contains_key_value(&[0], &[Value::Int(3)]));
        // Composite lookup.
        assert!(t.contains_key_value(&[0, 1], &[Value::Int(2), Value::Int(20)]));
        assert!(!t.contains_key_value(&[0, 1], &[Value::Int(2), Value::Int(99)]));
    }

    #[test]
    fn clone_is_a_stable_snapshot() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![0], false);
        t.push(vec![Value::Int(1), Value::Null]);
        let mut snap = t.clone();
        // Writer-side mutations are invisible to the snapshot...
        t.push(vec![Value::Int(2), Value::Null]);
        t.replace_rows(Vec::new());
        assert_eq!(snap.len(), 1);
        assert_eq!(t.len(), 0);
        // ...including its key index and (rebuilt) FK lookup sets.
        assert!(snap.check_keys(&[Value::Int(1), Value::Null]).is_err());
        assert!(snap.contains_key_value(&[0], &[Value::Int(1)]));
        assert!(t.check_keys(&[Value::Int(1), Value::Null]).is_ok());
    }

    #[test]
    fn stats_are_shared_by_clones_until_a_write() {
        let mut t = Table::new(schema());
        t.push(vec![Value::Int(1), Value::Null]);
        let snap = t.clone();
        assert!(std::ptr::eq(t.stats(), snap.stats()), "one build, shared");
        t.push(vec![Value::Int(2), Value::Int(4)]);
        assert!(!std::ptr::eq(t.stats(), snap.stats()));
        assert_eq!((snap.stats().rows, t.stats().rows), (1, 2));
        assert_eq!(*t.stats(), TableStats::build(&t));
        t.replace_rows(Vec::new());
        assert_eq!(t.stats().rows, 0);
        assert_eq!(snap.stats().rows, 1, "the snapshot keeps its version");
    }

    #[test]
    fn contains_key_value_uses_key_index_fast_path() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![0], false);
        t.push(vec![Value::Int(5), Value::Null]);
        assert!(t.contains_key_value(&[0], &[Value::Int(5)]));
        assert!(!t.contains_key_value(&[0], &[Value::Int(6)]));
    }
}
