//! Differential property for the incremental discovery engine: after
//! every batch of random inserts (fresh rows, near-duplicates of
//! existing rows, exact duplicates), the incremental `MINE` output —
//! FDs under all four semantics, keys, and the rendered report —
//! byte-equals a from-scratch mine of the same rows, with the
//! from-scratch side run at 1 and 4 threads (the determinism contract
//! makes those identical to each other, so the incremental replay must
//! match both) and the incremental side at the default and a zero
//! partition-cache budget. On top of the per-semantics equality, every
//! batch checks the cross-semantics lattice: each certain-mined FD has
//! a weak-mined cover on a sub-LHS.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlnf::discovery::cache::DEFAULT_CACHE_BUDGET;
use sqlnf::discovery::check::Semantics;
use sqlnf::discovery::classify::mine_report;
use sqlnf::discovery::incremental::IncrementalMiner;
use sqlnf::discovery::keys::mine_keys_budgeted;
use sqlnf::discovery::mine::{mine_fds, MinerConfig};
use sqlnf::prelude::*;

const COLS: usize = 6;
const MAX_LHS: usize = 3;

fn random_tuple(rng: &mut StdRng) -> Tuple {
    Tuple::new(
        (0..COLS)
            .map(|c| {
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..3 + c as i64))
                }
            })
            .collect::<Vec<_>>(),
    )
}

/// The next row of an insert trace, drawn from `rows` so far: half
/// fresh random rows, the rest copies of an existing row — with one
/// cell redrawn (it agrees with its source on most LHSs, so it refutes
/// holding verdicts) or exact (it breaks every key).
fn next_row(rng: &mut StdRng, rows: &[Tuple]) -> Tuple {
    let op = rng.gen_range(0..10);
    if op <= 4 || rows.is_empty() {
        return random_tuple(rng);
    }
    let mut row = rows[rng.gen_range(0..rows.len())].clone();
    if op <= 7 {
        let c = Attr::from(rng.gen_range(0..COLS));
        *row.get_mut(c) = random_tuple(rng).get(c).clone();
    }
    row
}

fn assert_incremental_matches(m: &mut IncrementalMiner, ctx: &str) {
    let table = m.table();
    let mut by_sem = Vec::with_capacity(Semantics::ALL.len());
    for sem in Semantics::ALL {
        let incr = m.mine_fds(sem, MAX_LHS, DEFAULT_CACHE_BUDGET);
        assert_eq!(incr, m.mine_fds(sem, MAX_LHS, 0), "{ctx}: {sem:?} budget 0");
        for threads in [1, 4] {
            let scratch = mine_fds(
                &table,
                MinerConfig::new(sem)
                    .with_max_lhs(MAX_LHS)
                    .with_threads(threads),
            );
            assert_eq!(scratch.fds, incr, "{ctx}: {sem:?} threads={threads}");
        }
        by_sem.push(incr);
    }
    // Lattice: certain ⊆ weak as implied sets — minimal LHSs may only
    // shrink under the laxer semantics.
    let (certain, weak) = (&by_sem[2], &by_sem[3]);
    for fd in certain {
        for a in fd.rhs {
            assert!(
                weak.iter()
                    .any(|w| w.lhs.is_subset(fd.lhs) && w.rhs.contains(a)),
                "{ctx}: certain-mined {:?} -> {a:?} has no weak cover",
                fd.lhs
            );
        }
    }
    assert_eq!(
        mine_keys_budgeted(&table, MAX_LHS, DEFAULT_CACHE_BUDGET),
        m.mine_keys(MAX_LHS, DEFAULT_CACHE_BUDGET),
        "{ctx}: keys"
    );
    assert_eq!(
        mine_report("t", &table, MAX_LHS, DEFAULT_CACHE_BUDGET),
        m.report("t", MAX_LHS, DEFAULT_CACHE_BUDGET),
        "{ctx}: report"
    );
}

fn run_dml_trace(seed: u64, batches: usize, ops_per_batch: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = TableSchema::new(
        "t",
        (0..COLS).map(|i| format!("c{i}")).collect::<Vec<_>>(),
        &[],
    );
    let mut table = Table::new(schema);
    for _ in 0..40 {
        table.push(random_tuple(&mut rng));
    }
    let mut m = IncrementalMiner::from_table(&table);
    let mut rows = table.rows().to_vec();
    assert_incremental_matches(&mut m, &format!("seed {seed} cold"));

    for batch in 0..batches {
        for _ in 0..ops_per_batch {
            let row = next_row(&mut rng, &rows);
            assert_eq!(m.insert(row.clone()), rows.len());
            rows.push(row);
        }
        assert_incremental_matches(&mut m, &format!("seed {seed} batch {batch}"));
    }
}

#[test]
fn incremental_matches_scratch_after_every_batch() {
    for seed in [3, 17, 92] {
        run_dml_trace(seed, 6, 12);
    }
}

#[test]
fn reconcile_audits_never_diverge() {
    // Reconcile after every delta: the audit itself asserts
    // incremental == from-scratch inside `report`.
    let mut rng = StdRng::seed_from_u64(7);
    let schema = TableSchema::new(
        "t",
        (0..COLS).map(|i| format!("c{i}")).collect::<Vec<_>>(),
        &[],
    );
    let mut m = IncrementalMiner::new(schema).with_reconcile_every(1);
    let mut rows = Vec::new();
    for step in 0..30 {
        let row = next_row(&mut rng, &rows);
        m.insert(row.clone());
        rows.push(row);
        let _ = m.report("t", MAX_LHS, DEFAULT_CACHE_BUDGET);
        assert_eq!(m.deltas_applied(), step + 1);
    }
}
