//! Per-layer timings of the model, store and incremental-discovery
//! layers, taken from the bench's side on a workload's own rows.

use crate::stats::median;
use crate::{ms_since, Report};
use sqlnf_discovery::prelude::*;
use sqlnf_model::engine::StoredTable;
use sqlnf_model::prelude::*;
use sqlnf_model::sql::{parse_statement, render_create_table, render_insert};
use sqlnf_serve::Store;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Rows of the workload's table whose single-row `INSERT`s are parsed,
/// admitted and executed.
const ROWS: usize = 20_000;
/// Statements executed against the durable store, each its own fsync.
const DURABLE_STMTS: usize = 500;

/// Mean microseconds per item of `n` items taking `ms` in total.
fn per_item_us(ms: f64, n: usize) -> f64 {
    ms * 1e3 / n.max(1) as f64
}

/// `model.sql_parse_us`, `model.admit_us`, `model.table_clone_ms` and
/// `serve.store.execute_us.{ephemeral,durable}` on the first rows of
/// `table`, under the constraints `sigma`.
pub fn model_and_store(
    table: &Table,
    sigma: &Sigma,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let schema = table.schema().clone();
    let rows = &table.rows()[..ROWS.min(table.len())];
    let stmts: Vec<String> = rows
        .iter()
        .map(|r| render_insert(schema.name(), std::slice::from_ref(r)))
        .collect();

    let t0 = Instant::now();
    for s in &stmts {
        black_box(parse_statement(s).map_err(|e| e.to_string())?);
    }
    report.metric(
        "model.sql_parse_us",
        per_item_us(ms_since(t0), stmts.len()),
        "us",
        stmts.len(),
    );

    let mut stored = StoredTable::new(schema.clone(), sigma.clone());
    let t0 = Instant::now();
    let mut refused = 0usize;
    for r in rows {
        refused += usize::from(stored.insert(r.clone()).is_err());
    }
    report.metric(
        "model.admit_us",
        per_item_us(ms_since(t0), rows.len()),
        "us",
        rows.len(),
    );
    report.check(refused == 0, || {
        format!("{refused} rows refused by the engine")
    });

    let mut clone_ms = vec![];
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(table.clone());
        clone_ms.push(ms_since(t0));
    }
    report.metric("model.table_clone_ms", median(&clone_ms), "ms", 3);

    let ddl = render_create_table(&schema, sigma);
    let ephemeral = Store::ephemeral();
    let durable_dir = work.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    let durable = Store::open(&durable_dir, 0).map_err(|e| e.to_string())?;
    for (label, store, n) in [
        ("ephemeral", &ephemeral, stmts.len()),
        ("durable", &durable, DURABLE_STMTS.min(stmts.len())),
    ] {
        store.execute_sql(&ddl).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut errors = 0usize;
        for s in &stmts[..n] {
            errors += usize::from(store.execute_sql(s).is_err());
        }
        report.metric(
            &format!("serve.store.execute_us.{label}"),
            per_item_us(ms_since(t0), n),
            "us",
            n,
        );
        report.check(errors == 0, || {
            format!("{errors} statements refused by the {label} store")
        });
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&durable_dir);
    Ok(())
}

/// Rows the incremental miner is seeded with before the timed deltas.
const INCR_BASE: usize = 100_000;
/// Rows per delta: one pipelined burst.
pub const BURST: usize = 32;
/// Deltas applied and re-mined.
const INCR_DELTAS: usize = 8;

/// `discovery.incr.apply_us` (per `IncrementalMiner::insert`) and
/// `discovery.incr.remine_ms` (possible, certain and weak FDs plus keys
/// after each 32-row delta — what the `WATCH` hub does per commit).
pub fn incremental(table: &Table, report: &mut Report) {
    let schema = table.schema().clone();
    let total = table.len().min(INCR_BASE + BURST * INCR_DELTAS);
    let base = total.saturating_sub(BURST * INCR_DELTAS);
    let mut miner = IncrementalMiner::from_table(&Table::from_rows(
        schema,
        table.rows()[..base].iter().cloned(),
    ));
    let remine = |m: &mut IncrementalMiner| {
        for sem in [Semantics::Possible, Semantics::Certain, Semantics::Weak] {
            black_box(m.mine_fds(sem, crate::disc::REPORT_LHS, DEFAULT_CACHE_BUDGET));
        }
        black_box(m.mine_keys(crate::disc::REPORT_LHS, DEFAULT_CACHE_BUDGET));
    };
    remine(&mut miner);
    let (mut apply_ms, mut remine_ms) = (0.0, vec![]);
    for delta in table.rows()[base..total].chunks(BURST) {
        let t0 = Instant::now();
        for row in delta {
            miner.insert(row.clone());
        }
        apply_ms += ms_since(t0);
        let t0 = Instant::now();
        remine(&mut miner);
        remine_ms.push(ms_since(t0));
    }
    report.metric(
        "discovery.incr.apply_us",
        per_item_us(apply_ms, total - base),
        "us",
        total - base,
    );
    report.metric(
        "discovery.incr.remine_ms",
        median(&remine_ms),
        "ms",
        remine_ms.len(),
    );
}
