//! Incremental constraint checking: validate one candidate row against
//! an instance in (amortized) constant time per constraint, instead of
//! revalidating the whole table.
//!
//! For each constraint an [`ConstraintIndex`] maintains:
//!
//! * a hash map from the `X`-projection of every `X`-total row to the
//!   group's shared RHS image (FDs) or its row count (keys) — strong
//!   similarity and syntactic equality are transitive on the `X`-total
//!   part, so one representative per group suffices;
//! * the list of rows carrying `⊥` in `X` (for certain constraints,
//!   whose weak similarity escapes the hash map). A candidate row is
//!   checked against these pairwise; with the null lists short — the
//!   common case — the check is O(1) + O(#null rows).
//!
//! The index answers *admission* queries (`can_insert`) and is updated
//! by `insert`, `remove` and `shift_down`, so point updates and deletes
//! maintain it incrementally instead of rebuilding from scratch: a
//! removal is one hash lookup plus a scan of the affected group, and a
//! delete's id compaction touches every stored row id once but never
//! rehashes or reallocates the projections. This is what gives
//! `sqlnf_model::engine` linear bulk loads; the equivalence with full
//! revalidation is property-tested.

use crate::attrs::AttrSet;
use crate::constraint::{Constraint, Fd, Key, Modality};
use crate::similarity::weakly_similar;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// Why a candidate row is inadmissible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// An existing row the candidate conflicts with (an index into the
    /// insertion sequence).
    pub with_row: usize,
}

fn project_values(row: &Tuple, x: AttrSet) -> Vec<Value> {
    x.iter().map(|a| row.get(a).clone()).collect()
}

/// One X-total FD group: the shared RHS image plus every member row.
/// All members agree on the RHS projection (enforced at admission), so
/// any member serves as the conflict witness.
#[derive(Debug, Clone)]
struct FdGroup {
    rhs: Vec<Value>,
    rows: Vec<usize>,
}

/// Incremental state for one constraint.
#[derive(Debug, Clone)]
enum IndexKind {
    Fd {
        fd: Fd,
        /// X-total groups: X-projection → (RHS image, member row ids).
        groups: HashMap<Vec<Value>, FdGroup>,
        /// Rows with ⊥ somewhere in X (certain FDs only need these).
        null_rows: Vec<usize>,
    },
    Key {
        key: Key,
        /// X-total groups: X-projection → member row ids.
        groups: HashMap<Vec<Value>, Vec<usize>>,
        null_rows: Vec<usize>,
    },
}

/// Incremental checker for one constraint over a growing instance.
#[derive(Debug, Clone)]
pub struct ConstraintIndex {
    kind: IndexKind,
}

impl ConstraintIndex {
    /// An empty index for `c`.
    pub fn new(c: Constraint) -> ConstraintIndex {
        let kind = match c {
            Constraint::Fd(fd) => IndexKind::Fd {
                fd,
                groups: HashMap::new(),
                null_rows: Vec::new(),
            },
            Constraint::Key(key) => IndexKind::Key {
                key,
                groups: HashMap::new(),
                null_rows: Vec::new(),
            },
        };
        ConstraintIndex { kind }
    }

    /// Whether inserting `row` (as row id `row_id`) into the instance
    /// `rows` (the rows inserted so far, in order) keeps the constraint
    /// satisfied. `rows` is only consulted for weak-similarity checks
    /// against null-bearing rows.
    pub fn can_insert(&self, rows: &[Tuple], row: &Tuple) -> Result<(), Conflict> {
        self.can_insert_excluding(rows, row, None)
    }

    /// [`can_insert`](Self::can_insert), but any comparison against the
    /// row at index `exclude` is skipped. Used by point updates, where
    /// the candidate replaces an existing row: the old row is first
    /// [`remove`](Self::remove)d from the index, but still occupies its
    /// slot in `rows` while the replacement is validated.
    pub fn can_insert_excluding(
        &self,
        rows: &[Tuple],
        row: &Tuple,
        exclude: Option<usize>,
    ) -> Result<(), Conflict> {
        match &self.kind {
            IndexKind::Fd {
                fd,
                groups,
                null_rows,
            } => {
                let total = row.is_total_on(fd.lhs);
                if total {
                    if let Some(g) = groups.get(&project_values(row, fd.lhs)) {
                        if project_values(row, fd.rhs) != g.rhs {
                            return Err(Conflict {
                                with_row: g.rows[0],
                            });
                        }
                    }
                }
                // Certain FDs: weak similarity involving a null side.
                if fd.modality == Modality::Certain {
                    // The candidate against existing null rows…
                    for &r in null_rows {
                        if weakly_similar(row, &rows[r], fd.lhs) && !row.eq_on(&rows[r], fd.rhs) {
                            return Err(Conflict { with_row: r });
                        }
                    }
                    // …and, if the candidate itself has nulls in X, it
                    // is weakly similar to rows the hash map cannot
                    // find: scan.
                    if !total {
                        for (r, existing) in rows.iter().enumerate() {
                            if Some(r) == exclude {
                                continue;
                            }
                            if weakly_similar(row, existing, fd.lhs) && !row.eq_on(existing, fd.rhs)
                            {
                                return Err(Conflict { with_row: r });
                            }
                        }
                    }
                }
                Ok(())
            }
            IndexKind::Key {
                key,
                groups,
                null_rows,
            } => {
                let total = row.is_total_on(key.attrs);
                if total {
                    if let Some(members) = groups.get(&project_values(row, key.attrs)) {
                        return Err(Conflict {
                            with_row: members[0],
                        });
                    }
                }
                if key.modality == Modality::Certain {
                    for &r in null_rows {
                        if weakly_similar(row, &rows[r], key.attrs) {
                            return Err(Conflict { with_row: r });
                        }
                    }
                    if !total {
                        for (r, existing) in rows.iter().enumerate() {
                            if Some(r) == exclude {
                                continue;
                            }
                            if weakly_similar(row, existing, key.attrs) {
                                return Err(Conflict { with_row: r });
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Records `row` (id `row_id`) as inserted. Callers must have
    /// checked `can_insert` first; the index does not re-verify.
    pub fn insert(&mut self, row: &Tuple, row_id: usize) {
        match &mut self.kind {
            IndexKind::Fd {
                fd,
                groups,
                null_rows,
            } => {
                if row.is_total_on(fd.lhs) {
                    groups
                        .entry(project_values(row, fd.lhs))
                        .or_insert_with(|| FdGroup {
                            rhs: project_values(row, fd.rhs),
                            rows: Vec::new(),
                        })
                        .rows
                        .push(row_id);
                } else {
                    null_rows.push(row_id);
                }
            }
            IndexKind::Key {
                key,
                groups,
                null_rows,
            } => {
                if row.is_total_on(key.attrs) {
                    groups
                        .entry(project_values(row, key.attrs))
                        .or_default()
                        .push(row_id);
                } else {
                    null_rows.push(row_id);
                }
            }
        }
    }

    /// Forgets the membership of `row` (id `row_id`): one hash lookup
    /// plus a scan of the affected group. The caller passes the exact
    /// tuple the id was inserted with; ids of other rows are untouched
    /// (use [`shift_down`](Self::shift_down) after a positional
    /// delete).
    pub fn remove(&mut self, row: &Tuple, row_id: usize) {
        fn drop_id(ids: &mut Vec<usize>, row_id: usize) {
            // From the back: the newest rows (a rolled-back INSERT's)
            // sit at the end of their lists.
            if let Some(at) = ids.iter().rposition(|&r| r == row_id) {
                ids.swap_remove(at);
            }
        }
        match &mut self.kind {
            IndexKind::Fd {
                fd,
                groups,
                null_rows,
            } => {
                if row.is_total_on(fd.lhs) {
                    let proj = project_values(row, fd.lhs);
                    if let Some(g) = groups.get_mut(&proj) {
                        drop_id(&mut g.rows, row_id);
                        if g.rows.is_empty() {
                            groups.remove(&proj);
                        }
                    }
                } else {
                    drop_id(null_rows, row_id);
                }
            }
            IndexKind::Key {
                key,
                groups,
                null_rows,
            } => {
                if row.is_total_on(key.attrs) {
                    let proj = project_values(row, key.attrs);
                    if let Some(members) = groups.get_mut(&proj) {
                        drop_id(members, row_id);
                        if members.is_empty() {
                            groups.remove(&proj);
                        }
                    }
                } else {
                    drop_id(null_rows, row_id);
                }
            }
        }
    }

    /// Compacts row ids after the row at `removed` was deleted from the
    /// instance: every stored id greater than `removed` decrements by
    /// one. The id `removed` itself must already have been
    /// [`remove`](Self::remove)d. Touches each stored id once — no
    /// rehashing, no reallocation.
    pub fn shift_down(&mut self, removed: usize) {
        fn shift(ids: &mut [usize], removed: usize) {
            for r in ids {
                debug_assert_ne!(*r, removed, "removed id still indexed");
                if *r > removed {
                    *r -= 1;
                }
            }
        }
        match &mut self.kind {
            IndexKind::Fd {
                groups, null_rows, ..
            } => {
                for g in groups.values_mut() {
                    shift(&mut g.rows, removed);
                }
                shift(null_rows, removed);
            }
            IndexKind::Key {
                groups, null_rows, ..
            } => {
                for members in groups.values_mut() {
                    shift(members, removed);
                }
                shift(null_rows, removed);
            }
        }
    }

    /// Rebuilds the index from scratch over an instance (used after
    /// updates/deletes, which invalidate incremental state).
    pub fn rebuild(&mut self, table: &Table) {
        let c = match &self.kind {
            IndexKind::Fd { fd, .. } => Constraint::Fd(*fd),
            IndexKind::Key { key, .. } => Constraint::Key(*key),
        };
        *self = ConstraintIndex::new(c);
        for (i, row) in table.rows().iter().enumerate() {
            self.insert(row, i);
        }
    }
}

/// A bank of indexes, one per constraint of Σ, sharing admission and
/// insertion.
#[derive(Debug, Clone, Default)]
pub struct IndexBank {
    indexes: Vec<ConstraintIndex>,
}

impl IndexBank {
    /// Builds the bank for Σ over an existing instance.
    pub fn build(sigma: &crate::constraint::Sigma, table: &Table) -> IndexBank {
        let mut bank = IndexBank {
            indexes: sigma.iter().map(ConstraintIndex::new).collect(),
        };
        for idx in &mut bank.indexes {
            idx.rebuild(table);
        }
        bank
    }

    /// Checks every constraint; returns the first conflict with the
    /// index of the violated constraint.
    pub fn can_insert(&self, rows: &[Tuple], row: &Tuple) -> Result<(), (usize, Conflict)> {
        self.can_insert_excluding(rows, row, None)
    }

    /// [`can_insert`](Self::can_insert) skipping comparisons against
    /// the row at `exclude` (see
    /// [`ConstraintIndex::can_insert_excluding`]).
    pub fn can_insert_excluding(
        &self,
        rows: &[Tuple],
        row: &Tuple,
        exclude: Option<usize>,
    ) -> Result<(), (usize, Conflict)> {
        for (ci, idx) in self.indexes.iter().enumerate() {
            idx.can_insert_excluding(rows, row, exclude)
                .map_err(|c| (ci, c))?;
        }
        Ok(())
    }

    /// Records an accepted insert in every index.
    pub fn insert(&mut self, row: &Tuple, row_id: usize) {
        for idx in &mut self.indexes {
            idx.insert(row, row_id);
        }
    }

    /// Forgets `row` (id `row_id`) in every index (see
    /// [`ConstraintIndex::remove`]).
    pub fn remove(&mut self, row: &Tuple, row_id: usize) {
        for idx in &mut self.indexes {
            idx.remove(row, row_id);
        }
    }

    /// Compacts ids after a positional delete in every index (see
    /// [`ConstraintIndex::shift_down`]).
    pub fn shift_down(&mut self, removed: usize) {
        for idx in &mut self.indexes {
            idx.shift_down(removed);
        }
    }

    /// Rebuilds every index from scratch (only needed when the whole
    /// instance is replaced; mutations maintain the bank
    /// incrementally).
    pub fn rebuild(&mut self, table: &Table) {
        for idx in &mut self.indexes {
            idx.rebuild(table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Sigma;
    use crate::satisfy::satisfies_all;
    use crate::schema::TableSchema;
    use crate::tuple;

    fn schema() -> TableSchema {
        TableSchema::new("t", ["a", "b", "c"], &[])
    }

    /// Reference: would appending `row` keep Σ satisfied?
    fn naive_admissible(table: &Table, sigma: &Sigma, row: &Tuple) -> bool {
        let mut next = table.clone();
        next.push(row.clone());
        satisfies_all(&next, sigma)
    }

    #[test]
    fn fd_admission_matches_naive() {
        let sigma = Sigma::new().with(Fd::certain(
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1]),
        ));
        let mut table = Table::new(schema());
        let mut bank = IndexBank::build(&sigma, &table);
        let candidates = vec![
            tuple![1i64, 10i64, 0i64],
            tuple![1i64, 10i64, 1i64], // same group, same rhs: ok
            tuple![1i64, 20i64, 2i64], // conflicts
            tuple![null, 10i64, 3i64], // weakly similar to group 1, same b: ok
            tuple![null, 30i64, 4i64], // weakly similar, different b: conflict
            tuple![2i64, 30i64, 5i64], // fresh group… but wait: weakly similar to the ⊥ row!
        ];
        for cand in candidates {
            let expected = naive_admissible(&table, &sigma, &cand);
            let got = bank.can_insert(table.rows(), &cand).is_ok();
            assert_eq!(got, expected, "candidate {cand}");
            if expected {
                bank.insert(&cand, table.len());
                table.push(cand);
            }
        }
    }

    #[test]
    fn key_admission_matches_naive() {
        let sigma = Sigma::new().with(Key::certain(AttrSet::from_indices([0, 1])));
        let mut table = Table::new(schema());
        let mut bank = IndexBank::build(&sigma, &table);
        let candidates = vec![
            tuple![1i64, 1i64, 0i64],
            tuple![1i64, 2i64, 0i64],
            tuple![1i64, 1i64, 9i64], // duplicate key: conflict
            tuple![null, 3i64, 0i64], // ⊥ weakly matches nothing on b=3: ok
            tuple![null, 1i64, 0i64], // weakly matches (1,1): conflict
            tuple![2i64, 3i64, 0i64], // weakly matches (⊥,3): conflict
        ];
        for cand in candidates {
            let expected = naive_admissible(&table, &sigma, &cand);
            let got = bank.can_insert(table.rows(), &cand).is_ok();
            assert_eq!(got, expected, "candidate {cand}");
            if expected {
                bank.insert(&cand, table.len());
                table.push(cand);
            }
        }
    }

    #[test]
    fn conflict_reports_a_real_row() {
        let sigma = Sigma::new().with(Fd::possible(
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1]),
        ));
        let mut table = Table::new(schema());
        let mut bank = IndexBank::build(&sigma, &table);
        let first = tuple![7i64, 1i64, 0i64];
        bank.insert(&first, 0);
        table.push(first);
        let (ci, conflict) = bank
            .can_insert(table.rows(), &tuple![7i64, 2i64, 0i64])
            .unwrap_err();
        assert_eq!(ci, 0);
        assert_eq!(conflict.with_row, 0);
    }

    #[test]
    fn remove_and_shift_track_deletes() {
        let sigma = Sigma::new()
            .with(Key::certain(AttrSet::from_indices([0])))
            .with(Fd::certain(
                AttrSet::from_indices([1]),
                AttrSet::from_indices([2]),
            ));
        let mut table = Table::new(schema());
        let mut bank = IndexBank::build(&sigma, &table);
        let rows = vec![
            tuple![1i64, 5i64, 50i64],
            tuple![2i64, null, 50i64],
            tuple![3i64, 5i64, 50i64],
        ];
        for r in &rows {
            bank.can_insert(table.rows(), r).unwrap();
            bank.insert(r, table.len());
            table.push(r.clone());
        }
        // Delete the middle (null-bearing) row: remove + shift.
        let removed = table.rows()[1].clone();
        bank.remove(&removed, 1);
        bank.shift_down(1);
        let remaining = Table::from_rows(
            table.schema().clone(),
            vec![table.rows()[0].clone(), table.rows()[2].clone()],
        );
        // Key 1 is free again, key 3 (now id 1) still taken, and the
        // FD group {5}→{50} still rejects a divergent RHS.
        assert!(bank
            .can_insert(remaining.rows(), &tuple![2i64, 9i64, 0i64])
            .is_ok());
        let (_, c) = bank
            .can_insert(remaining.rows(), &tuple![3i64, 8i64, 0i64])
            .unwrap_err();
        assert_eq!(c.with_row, 1);
        assert!(bank
            .can_insert(remaining.rows(), &tuple![4i64, 5i64, 99i64])
            .is_err());
        // Updating row 0's key: remove old, validate replacement
        // excluding the slot, insert new.
        let old = remaining.rows()[0].clone();
        bank.remove(&old, 0);
        let new = tuple![3i64, 5i64, 50i64];
        // Key 3 is taken by row 1: conflict even mid-update.
        assert!(bank
            .can_insert_excluding(remaining.rows(), &new, Some(0))
            .is_err());
        let new_ok = tuple![7i64, 5i64, 50i64];
        bank.can_insert_excluding(remaining.rows(), &new_ok, Some(0))
            .unwrap();
        bank.insert(&new_ok, 0);
        let after = Table::from_rows(
            remaining.schema().clone(),
            vec![new_ok, remaining.rows()[1].clone()],
        );
        assert!(bank
            .can_insert(after.rows(), &tuple![7i64, 0i64, 0i64])
            .is_err());
        assert!(bank
            .can_insert(after.rows(), &tuple![1i64, 0i64, 0i64])
            .is_ok());
    }

    #[test]
    fn rebuild_after_mutation() {
        let sigma = Sigma::new().with(Key::possible(AttrSet::from_indices([0])));
        let mut table = Table::new(schema());
        table.push(tuple![1i64, 0i64, 0i64]);
        let mut bank = IndexBank::build(&sigma, &table);
        assert!(bank
            .can_insert(table.rows(), &tuple![1i64, 0i64, 0i64])
            .is_err());
        // Delete the row; after rebuild the key is free again.
        let empty = Table::new(schema());
        bank.rebuild(&empty);
        assert!(bank
            .can_insert(empty.rows(), &tuple![1i64, 0i64, 0i64])
            .is_ok());
    }
}
