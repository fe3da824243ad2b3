//! The `sqlnf-serve` load test: many concurrent wire-protocol sessions
//! hammering one constraint-guarded table, full `satisfy` revalidation
//! of the final state, and crash recovery from the WAL alone. The run
//! doubles as a throughput measurement and writes a `BENCH_serve.json`
//! annotated with the `serve.*` counters.
//!
//! It asserts exact values of process-global `sqlnf-obs` counters, so
//! it lives in a test binary of its own: no sibling test can open
//! sessions in the same process while it runs.

use sqlnf_serve::{Client, ServeConfig, Server, Store};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh per-test scratch directory.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("sqlnf_serve_load_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DDL: &str = "CREATE TABLE load (
    id  INT NOT NULL,
    grp INT NOT NULL,
    val INT NOT NULL,
    CONSTRAINT pk CERTAIN KEY (id),
    CONSTRAINT fd CERTAIN FD (grp) -> (val)
);";

const CLIENTS: usize = 8;
const STMTS: usize = 1_000;

/// ≥ 8 concurrent clients × ≥ 1 000 statements each, interleaving
/// admissible inserts with deliberate key violations. Invariants:
/// every violation is refused, every valid insert is admitted, the
/// final instance passes full constraint revalidation, and killing the
/// server (no snapshot, no fsync) loses nothing — recovery from the
/// WAL reproduces the exact store contents.
#[test]
fn concurrent_sessions_never_admit_a_violation() {
    let dir = scratch_dir("load");
    let mut exported = String::new();
    let mut record = sqlnf_bench::measure("serve_it_8x1000_wal", 1, || {
        let server = Server::start(ServeConfig {
            workers: CLIENTS,
            wal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr();
        {
            let mut c = Client::connect(addr).expect("connect");
            c.expect_ok(DDL).expect("ddl admitted");
            c.quit().expect("quit");
        }
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut admitted = 0usize;
                    let mut rejected = 0usize;
                    for i in 0..STMTS {
                        // Every 5th statement replays this client's own
                        // first id: a guaranteed CERTAIN KEY violation
                        // (grp/val stay consistent with the FD, so the
                        // key alone is what refuses it).
                        let violation = i % 5 == 4;
                        let id = if violation {
                            (k * STMTS) as i64
                        } else {
                            (k * STMTS + i) as i64
                        };
                        let g = id / 4;
                        let stmt = format!("INSERT INTO load VALUES ({id}, {g}, {});", g * 7 % 101);
                        let reply = c.request(&stmt).expect("reply");
                        assert_eq!(
                            reply.ok, !violation,
                            "client {k} statement {i}: {}",
                            reply.message
                        );
                        if reply.ok {
                            admitted += 1;
                        } else {
                            rejected += 1;
                        }
                    }
                    c.quit().expect("quit");
                    (admitted, rejected)
                })
            })
            .collect();
        let mut admitted = 0usize;
        let mut rejected = 0usize;
        for h in handles {
            let (a, r) = h.join().expect("client thread");
            admitted += a;
            rejected += r;
        }
        assert_eq!(admitted, CLIENTS * STMTS * 4 / 5);
        assert_eq!(rejected, CLIENTS * STMTS / 5);

        let store = server.store();
        // Full revalidation: every declared constraint holds on the
        // final instance (not just "the engine said so row by row").
        assert!(store.satisfies_all_constraints());
        let rows = store
            .with_table("load", |t| t.data().len())
            .expect("table exists");
        assert_eq!(rows, admitted);
        let stats = &store.stats;
        assert_eq!(stats.admitted.load(Ordering::Relaxed), admitted as u64 + 1);
        assert_eq!(stats.rejected.load(Ordering::Relaxed), rejected as u64);
        assert_eq!(stats.sessions.load(Ordering::Relaxed), CLIENTS as u64 + 1);
        exported = store.export_script();

        // Simulated crash: no final snapshot, no fsync.
        server.kill();
    });

    // Recovery must come from the WAL alone and reproduce the store.
    let reopened = Store::open(&dir, 0).expect("recover");
    assert_eq!(reopened.export_script(), exported);
    assert!(reopened.satisfies_all_constraints());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    // The run doubles as the serve throughput record: BENCH_serve.json
    // with sustained stmts/sec and the serve.* observability counters.
    let total = (CLIENTS * STMTS + 1) as f64;
    let per_sec = total / record.median.as_secs_f64();
    record.extra.push((
        "stmts_per_sec".to_owned(),
        sqlnf_obs::json::JsonValue::Float(per_sec),
    ));
    let out = scratch_dir("bench");
    let path = sqlnf_bench::write_bench_json_in(&out, "serve", &[record]).expect("write json");
    assert!(path.ends_with("BENCH_serve.json"));
    let text = std::fs::read_to_string(&path).expect("read json");
    let doc = sqlnf_obs::json::parse(&text).expect("valid JSON");
    let entry = &doc.get("entries").and_then(|v| v.as_array()).unwrap()[0];
    assert!(entry.get("stmts_per_sec").is_some());
    if sqlnf_obs::ENABLED {
        let counter = |name: &str| {
            entry
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("counter {name} missing from {text}"))
        };
        assert_eq!(counter("serve.sessions"), CLIENTS as u64 + 1);
        assert_eq!(
            counter("serve.stmt.admitted"),
            (CLIENTS * STMTS * 4 / 5) as u64 + 1
        );
        assert_eq!(counter("serve.stmt.rejected"), (CLIENTS * STMTS / 5) as u64);
        assert!(counter("serve.wal.bytes") > 0);
    }
    let _ = std::fs::remove_dir_all(&out);
}
