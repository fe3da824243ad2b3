//! End-to-end tests of the `sqlnf-serve` subsystem: the observability
//! verbs over the wire, restart after a graceful shutdown, and a
//! property test that replay reproduces the store byte-for-byte. The
//! concurrent load test lives in `serve_load.rs`, a binary of its own.

mod common;

use common::*;
use proptest::prelude::*;
use sqlnf::prelude::*;
use sqlnf_serve::{Client, ServeConfig, Server, Store};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh per-test scratch directory (no clock or RNG involved so the
/// proptest shim stays deterministic).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sqlnf_serve_it_{tag}_{}_{n}", std::process::id()));
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

/// The observability verbs answer over the wire: `METRICS` renders a
/// parseable exposition whose per-store gauges match this server's
/// `STATS` and whose per-verb histograms have seen at least this
/// session's statements (the histograms are process-global, so `>=`
/// is the strongest in-process claim — the CI smoke checks exact
/// equality against a fresh server process); `TRACE n` is bounded.
#[test]
fn metrics_and_trace_over_the_wire() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.expect_ok(DDL).expect("ddl");
    for id in 0..10i64 {
        let g = id / 4;
        c.expect_ok(&format!(
            "INSERT INTO load VALUES ({id}, {g}, {});",
            g * 7 % 101
        ))
        .expect("insert");
    }
    let stats: std::collections::BTreeMap<String, f64> = c
        .expect_ok("STATS")
        .expect("stats")
        .lines
        .iter()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(name, v)| (name.to_owned(), v.parse().unwrap()))
        .collect();
    let text = c.metrics().expect("metrics");
    let samples = sqlnf_serve::parse_exposition(&text).expect("exposition parses");
    let gauge = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == "sqlnf_store" && s.label("name") == Some(name))
            .unwrap_or_else(|| panic!("missing sqlnf_store gauge {name}"))
            .value
    };
    assert_eq!(gauge("stmt.admitted"), stats["stmt.admitted"]);
    assert_eq!(gauge("stmt.admitted"), 11.0);
    assert_eq!(gauge("tables"), 1.0);
    if sqlnf_obs::ENABLED {
        // Per-verb latency histograms: this session alone contributed
        // eleven SQL statements and one STATS.
        let span_count = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == "sqlnf_span_count" && s.label("name") == Some(name))
                .map(|s| s.value)
                .unwrap_or(0.0)
        };
        assert!(span_count("serve.verb.sql") >= 11.0);
        assert!(span_count("serve.verb.stats") >= 1.0);
        // The slow-request log carries at least one total breakdown.
        assert!(samples
            .iter()
            .any(|s| s.name == "sqlnf_slow_request_ns" && s.label("stage") == Some("total")));
        let trace = c.trace(8).expect("trace");
        assert!(trace.len() <= 8 && !trace.is_empty(), "{trace:?}");
    }
    c.quit().expect("quit");
    server.shutdown().expect("graceful shutdown");
}

/// The store's `requests` counter covers every verb, the session verbs
/// (`WATCH`, `UNWATCH`) that never reach `dispatch` included.
#[test]
fn stats_requests_count_session_verbs() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.expect_ok("PING").expect("ping");
    c.watch(Some("t")).expect("watch");
    c.unwatch().expect("unwatch");
    let stats = c.expect_ok("STATS").expect("stats");
    assert!(
        stats.lines.iter().any(|l| l == "requests 4"),
        "{:?}",
        stats.lines
    );
    c.quit().expect("quit");
    server.shutdown().expect("graceful shutdown");
}

/// Graceful shutdown writes a snapshot; a restart from snapshot + WAL
/// equals a restart from WAL alone (tested against the kill path above;
/// here the snapshot path).
#[test]
fn graceful_shutdown_then_restart_reproduces_store() {
    let dir = scratch_dir("graceful");
    let server = Server::start(ServeConfig {
        workers: 2,
        wal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.expect_ok(DDL).expect("ddl");
    for id in 0..40i64 {
        let g = id / 4;
        c.expect_ok(&format!(
            "INSERT INTO load VALUES ({id}, {g}, {});",
            g * 7 % 101
        ))
        .expect("insert");
    }
    c.quit().expect("quit");
    let exported = server.store().export_script();
    server.shutdown().expect("graceful shutdown");

    // After a graceful shutdown the WAL is truncated into the snapshot.
    let reopened = Store::open(&dir, 0).expect("reopen");
    assert_eq!(reopened.export_script(), exported);
    assert_eq!(reopened.wal_size().1, 0, "snapshot should absorb the WAL");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// WAL replay-equivalence: any sequence of admitted statements
    /// (random constraints, random rows, rejections interleaved, an
    /// optional mid-stream snapshot) recovers to the byte-identical
    /// export after reopen.
    #[test]
    fn wal_replay_reproduces_store(
        sigma in sigma(3, 3),
        rows in proptest::collection::vec(
            proptest::collection::vec(small_value(), 3), 0..16),
        snap_mid in (0usize..2).prop_map(|b| b == 1),
    ) {
        let dir = scratch_dir("replay");
        let exported = {
            let store = Store::open(&dir, 0).unwrap();
            let names: Vec<String> = (0..3).map(|i| format!("a{i}")).collect();
            let schema = TableSchema::new("t", names, &[]);
            store
                .execute_sql(&render_create_table(&schema, &sigma))
                .unwrap();
            let half = rows.len() / 2;
            for (i, row) in rows.iter().enumerate() {
                // Rejected inserts are not logged; admitted ones are.
                let _ = store.execute_sql(&render_insert("t", &[Tuple::new(row.clone())]));
                if snap_mid && i == half {
                    store.snapshot().unwrap();
                }
            }
            prop_assert!(store.satisfies_all_constraints());
            store.export_script()
        };
        let reopened = Store::open(&dir, 0).unwrap();
        prop_assert_eq!(reopened.export_script(), exported);
        prop_assert!(reopened.satisfies_all_constraints());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
