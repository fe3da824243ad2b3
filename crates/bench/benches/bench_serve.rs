//! B8 — server write-path throughput: concurrent sessions streaming
//! pipelined `INSERT` bursts through the wire protocol into
//! constraint-guarded tables, with and without WAL durability, across
//! a worker-count sweep. Emits `BENCH_serve.json` with the
//! sustained statements/sec of each configuration (plus the `serve.*`
//! obs counters when built with `--features obs`).
//!
//! Clients pipeline with [`Client::send_batch`] — each burst is one
//! socket write and one reply read-off — so the server's group commit
//! sees real multi-frame batches instead of lock-step round trips, and
//! the sweep measures the write path, not the network ping-pong.

use sqlnf_bench::{banner, fmt_duration, measure, render_table, write_bench_json};
use sqlnf_obs::json::JsonValue;
use sqlnf_serve::{Client, ServeConfig, Server};
use std::path::PathBuf;

/// Tables the load spreads across, so writers contend on the commit
/// log rather than on one table lock.
const TABLES: usize = 4;

/// Statements per pipelined burst.
const PIPELINE_CHUNK: usize = 32;

fn ddl(table: usize) -> String {
    format!(
        "CREATE TABLE load{table} (
    id  INT NOT NULL,
    grp INT NOT NULL,
    val INT NOT NULL,
    CONSTRAINT pk CERTAIN KEY (id),
    CONSTRAINT fd CERTAIN FD (grp) -> (val)
);"
    )
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlnf_bench_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `clients` concurrent sessions, each inserting
/// `stmts_per_client` unique rows into its table (round-robin over
/// [`TABLES`]) in pipelined bursts; returns when all sessions are done
/// and the server has shut down.
fn run_load(clients: usize, stmts_per_client: usize, wal: Option<&PathBuf>) {
    let config = ServeConfig {
        workers: clients.min(8),
        wal_dir: wal.cloned(),
        ..ServeConfig::default()
    };
    let server = Server::start(config).expect("bind");
    let addr = server.local_addr();
    {
        let mut c = Client::connect(addr).expect("connect");
        for t in 0..TABLES {
            c.expect_ok(&ddl(t)).expect("ddl");
        }
        c.quit().expect("quit");
    }
    let handles: Vec<_> = (0..clients)
        .map(|k| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let table = k % TABLES;
                let stmts: Vec<String> = (0..stmts_per_client)
                    .map(|i| {
                        let id = (k * stmts_per_client + i) as i64;
                        let g = id / 4;
                        format!(
                            "INSERT INTO load{table} VALUES ({id}, {g}, {});",
                            g * 7 % 101
                        )
                    })
                    .collect();
                for chunk in stmts.chunks(PIPELINE_CHUNK) {
                    for reply in c.send_batch(chunk).expect("burst") {
                        assert!(reply.ok, "insert refused: {}", reply.message);
                    }
                }
                c.quit().expect("quit");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown().expect("shutdown");
}

fn main() {
    banner("B8 — serve throughput (pipelined wire protocol, worker sweep)");
    // (clients, stmts/client, durable). Worker count tracks client
    // count.
    let mut configs: Vec<(usize, usize, bool)> = vec![(1, 500, false), (4, 500, false)];
    for &clients in &[1usize, 2, 4, 8] {
        configs.push((clients, 500, true));
    }
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for &(clients, per_client, durable) in &configs {
        let id = if durable {
            format!("serve_{clients}x{per_client}_wal")
        } else {
            format!("serve_{clients}x{per_client}")
        };
        let dir = wal_dir(&id);
        let wal = durable.then(|| dir.clone());
        let record = measure(&id, 3, || {
            if let Some(d) = &wal {
                let _ = std::fs::remove_dir_all(d);
            }
            run_load(clients, per_client, wal.as_ref());
        });
        let total = (clients * per_client) as f64;
        let per_sec = total / record.median.as_secs_f64();

        // Per-verb latency percentiles, per-lock-tier wait shares, and
        // the group-commit batch profile come straight from the span
        // histograms the runs accumulated (all zero when built without
        // `--features obs`).
        let timer = |name: &str| record.obs.timers.iter().find(|t| t.name == name);
        let (sql_p50, sql_p99) = timer("serve.verb.sql")
            .map(|t| (t.p50_ns(), t.p99_ns()))
            .unwrap_or((0, 0));
        let dispatch_ns = timer("serve.dispatch").map_or(0, |t| t.total_ns).max(1) as f64;
        let share = |name: &str| timer(name).map_or(0, |t| t.total_ns) as f64 / dispatch_ns;
        let shares: Vec<(String, f64)> = ["snapshot", "registry", "table", "wal"]
            .iter()
            .map(|tier| {
                (
                    format!("lock_share_{tier}"),
                    share(&format!("serve.lock_wait.{tier}")),
                )
            })
            .chain([
                ("wal_append_share".to_owned(), share("serve.wal.append")),
                ("wal_fsync_share".to_owned(), share("serve.wal.fsync")),
            ])
            .collect();
        let wal_lock_share = share("serve.lock_wait.wal");
        // The batch-size histogram abuses the span plumbing: its "ns"
        // percentiles are frame counts per commit batch.
        let (batch_p50, batch_p99) = timer("serve.commit.batch_size")
            .map(|t| (t.p50_ns(), t.p99_ns()))
            .unwrap_or((0, 0));

        let mut record = record;
        record
            .extra
            .push(("stmts_per_sec".to_owned(), JsonValue::Float(per_sec)));
        record
            .extra
            .push(("sql_p50_ns".to_owned(), JsonValue::Int(sql_p50 as i128)));
        record
            .extra
            .push(("sql_p99_ns".to_owned(), JsonValue::Int(sql_p99 as i128)));
        record
            .extra
            .push(("batch_p50".to_owned(), JsonValue::Int(batch_p50 as i128)));
        record
            .extra
            .push(("batch_p99".to_owned(), JsonValue::Int(batch_p99 as i128)));
        for (name, value) in shares {
            record.extra.push((name, JsonValue::Float(value)));
        }
        rows.push(vec![
            id.clone(),
            fmt_duration(record.median),
            format!("{per_sec:.0}"),
            fmt_duration(std::time::Duration::from_nanos(sql_p50)),
            fmt_duration(std::time::Duration::from_nanos(sql_p99)),
            format!("{batch_p50}/{batch_p99}"),
            format!("{:.1}%", wal_lock_share * 100.0),
        ]);
        records.push(record);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!(
        "{}",
        render_table(
            &[
                "config",
                "median",
                "stmts/sec",
                "sql p50",
                "sql p99",
                "batch p50/p99",
                "wal-lock share"
            ],
            &rows
        )
    );
    match write_bench_json("serve", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}"),
    }
}
