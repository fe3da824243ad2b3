//! The serve workload `serve_mixed`, and the serve probe of the
//! discovery workloads' traced runs: the shipped `sqlnf serve` binary in
//! a child process of its own, driven over the wire from this process
//! with at most two connections.
//!
//! The child runs `--workers 2` with a WAL directory, the default
//! `--fsync batch` and one WAL shard, and without `SQLNF_MINE_THREADS`.
//! Its peak RSS and its `METRICS` therefore describe that server alone.

use crate::layers::{self, BURST};
use crate::stats::{median, quantile};
use crate::{ms_since, Args, Report};
use sqlnf_model::prelude::*;
use sqlnf_model::sql::{render_create_table, render_insert};
use sqlnf_serve::{parse_exposition, Client, Sample, StreamItem};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Rows `serve_mixed` preloads before its timed window.
const PRELOAD: usize = 100_000;
/// Rows per preload statement (multi-row `INSERT`, as a bulk load).
const PRELOAD_CHUNK: usize = 500;
/// Open-loop rate of `serve_mixed`'s writer, in bursts per second.
const MIXED_BURSTS_PER_S: f64 = 100.0;
/// Times `serve_mixed` sets its server up; `setup_s` is the median.
const MIXED_SETUPS: usize = 7;

/// The served table `mixed`: `million_like`'s eight columns plus a
/// unique `id`, every column but `flag` `NOT NULL`, rows in the seed's
/// order.
fn served_rows(n: usize, seed: u64) -> Table {
    let base = sqlnf_datagen::naumann::million_like_with_rows(crate::input::BASE_SEED, n);
    let shuffled = crate::input::permuted_rows(&base, seed);
    let mut cols = vec!["id"];
    cols.extend(base.schema().column_names().iter().map(String::as_str));
    let not_null: Vec<&str> = cols.iter().copied().filter(|c| *c != "flag").collect();
    let schema = TableSchema::new("mixed", cols.iter().copied(), &not_null);
    let rows = shuffled.iter().enumerate().map(|(id, row)| {
        let mut vals = vec![Value::Int(id as i64)];
        vals.extend(row.values().iter().cloned());
        Tuple::new(vals)
    });
    Table::from_rows(schema, rows)
}

/// The served table's constraints: `CERTAIN KEY (id)` and the
/// generator's planted FDs.
fn served_sigma(s: &TableSchema) -> Sigma {
    Sigma::new()
        .with(Key::certain(s.set(&["id"])))
        .with(Fd::certain(s.set(&["site"]), s.set(&["region"])))
        .with(Fd::certain(s.set(&["device_class"]), s.set(&["firmware"])))
}

/// A running `sqlnf serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    wal: PathBuf,
}

impl Server {
    fn start(sqlnf: &Path, wal: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&wal);
        let mut child = Command::new(sqlnf)
            .args(["serve", "--port", "0", "--workers", "2", "--wal-dir"])
            .arg(&wal)
            .env_remove("SQLNF_MINE_THREADS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sqlnf.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut server = Server {
            child,
            addr: String::new(),
            wal,
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.to_owned();
                Ok(server)
            }
            _ => Err(format!("server did not report its address: {line:?}")),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| e.to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.wal);
    }
}

/// Rows in `table` per the server: the header of `MINE <table> 1`.
fn row_count(c: &mut Client, table: &str) -> Result<usize, String> {
    let reply = c
        .request(&format!("MINE {table} 1"))
        .map_err(|e| e.to_string())?;
    reply
        .lines
        .first()
        .and_then(|l| l.split(": ").nth(1))
        .and_then(|l| l.split(' ').next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no row count in {:?}", reply.lines.first()))
}

/// One burst of single-row `INSERT`s: ids `first..first + BURST`.
/// Rows past the table repeat its values under fresh ids.
fn burst(table: &Table, first: usize) -> Vec<String> {
    (first..first + BURST)
        .map(|id| {
            let mut vals = table.rows()[id % table.len()].values().to_vec();
            vals[0] = Value::Int(id as i64);
            render_insert(table.schema().name(), &[Tuple::new(vals)])
        })
        .collect()
}

/// Sends one burst and returns (ms from `from` to the last reply,
/// replies that were not `OK`).
fn send_burst(c: &mut Client, stmts: &[String], from: Instant) -> Result<(f64, usize), String> {
    let replies = c.send_batch(stmts).map_err(|e| e.to_string())?;
    let ms = ms_since(from);
    Ok((ms, replies.iter().filter(|r| !r.ok).count()))
}

/// The child's `METRICS` and `STATS`, scraped once.
struct Scrape {
    samples: Vec<Sample>,
    stats: Vec<String>,
}

impl Scrape {
    fn take(c: &mut Client) -> Result<Scrape, String> {
        let text = c.metrics().map_err(|e| e.to_string())?;
        let samples = parse_exposition(&text)?;
        let stats = c.expect_ok("STATS").map_err(|e| e.to_string())?.lines;
        Ok(Scrape { samples, stats })
    }

    fn get(&self, family: &str, name: &str) -> f64 {
        self.samples
            .iter()
            .find(|s| s.name == family && s.label("name") == Some(name))
            .map_or(0.0, |s| s.value)
    }

    fn stat(&self, name: &str) -> f64 {
        self.stats
            .iter()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0.0)
    }
}

/// Per-layer metrics read from one child's `METRICS`/`STATS`; `stmts`
/// and `sql_bytes` are what the load generator sent.
fn scraped_layers(s: &Scrape, stmts: f64, sql_bytes: f64, report: &mut Report) {
    let n = s.get("sqlnf_span_count", "serve.verb.sql") as usize;
    report.metric(
        "serve.verb.sql.p50_us",
        s.get("sqlnf_span_p50_ns", "serve.verb.sql") / 1e3,
        "us",
        n,
    );
    report.metric(
        "serve.verb.sql.p99_us",
        s.get("sqlnf_span_p99_ns", "serve.verb.sql") / 1e3,
        "us",
        n,
    );
    report.metric(
        "serve.lock_wait.table_ms",
        s.get("sqlnf_span_total_ns", "serve.lock_wait.table") / 1e6,
        "ms",
        s.get("sqlnf_span_count", "serve.lock_wait.table") as usize,
    );
    report.metric(
        "serve.verb.mine.p50_ms",
        s.get("sqlnf_span_p50_ns", "serve.verb.mine") / 1e6,
        "ms",
        s.get("sqlnf_span_count", "serve.verb.mine") as usize,
    );
    let batches = s.get("sqlnf_counter", "serve.commit.batches");
    report.metric(
        "serve.commit.frames_per_batch",
        s.get("sqlnf_counter", "serve.commit.frames") / batches.max(1.0),
        "ratio",
        batches as usize,
    );
    report.metric(
        "serve.wal.fsyncs_per_kstmt",
        s.get("sqlnf_span_count", "serve.wal.fsync") * 1e3 / stmts.max(1.0),
        "ratio",
        stmts as usize,
    );
    report.metric(
        "serve.wal.bytes_per_user_byte",
        s.stat("wal.bytes") / sql_bytes.max(1.0),
        "ratio",
        stmts as usize,
    );
}

/// `serve_mixed`: one server preloaded with [`PRELOAD`] rows. Connection
/// A writes bursts as an open loop at [`MIXED_BURSTS_PER_S`]; connection
/// B holds `WATCH` on the table and issues `MINE <t> 3` in a closed loop.
pub fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let mut report = Report::default();
    let data = served_rows(PRELOAD, args.seed);
    let table = data.schema().name();
    let sigma = served_sigma(data.schema());
    let ddl = render_create_table(data.schema(), &sigma);
    let preload: Vec<String> = data
        .rows()
        .chunks(PRELOAD_CHUNK)
        .map(|chunk| render_insert(table, chunk))
        .collect();
    let preload_bytes: usize = preload.iter().map(|s| s.len() + 1).sum();
    let mut setup = vec![];
    let mut last = None;
    for _ in 0..MIXED_SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let wal = args.work.join(format!("wal-{}", std::process::id()));
        let server = Server::start(&args.sqlnf, wal)?;
        // B subscribes first, so the table's creation and preload
        // stream events to it.
        let mut reader = server.connect()?;
        reader.watch(Some(table)).map_err(|e| e.to_string())?;
        let mut c = server.connect()?;
        c.expect_ok(&ddl).map_err(|e| e.to_string())?;
        let empty_rss = crate::rss_mb(&server.pid());
        for batch in preload.chunks(8) {
            let replies = c.send_batch(batch).map_err(|e| e.to_string())?;
            if let Some(bad) = replies.iter().find(|r| !r.ok) {
                return Err(format!("preload refused: {}", bad.message));
            }
        }
        c.quit().map_err(|e| e.to_string())?;
        setup.push(t0.elapsed().as_secs_f64());
        let row_bytes = (crate::rss_mb(&server.pid()) - empty_rss) * 1048576.0 / PRELOAD as f64;
        last = Some((server, reader, row_bytes));
    }
    report.notes.push(format!(
        "setup samples s: {}",
        setup
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let (server, mut reader, row_bytes) = last.expect("MIXED_SETUPS > 0");
    let mut writer = server.connect()?;
    let rows = &data;
    // The traced run's window is the quarter its untraced reference
    // run measures, so that `obs.overhead_ratio` compares like with like.
    let deadline = Duration::from_secs_f64(args.seconds / if args.trace { 4.0 } else { 1.0 });
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / MIXED_BURSTS_PER_S);
    let (writes, mines) = std::thread::scope(|s| {
        let w = s.spawn(
            move || -> Result<(Vec<f64>, Vec<f64>, usize, f64), String> {
                let (mut lat, mut late, mut refused, mut bytes) = (vec![], vec![], 0, 0.0);
                let mut k = 0u32;
                loop {
                    let due = start + period * k;
                    if due - start >= deadline {
                        break;
                    }
                    let stmts = burst(rows, PRELOAD + k as usize * BURST);
                    bytes += stmts.iter().map(|s| s.len() + 1).sum::<usize>() as f64;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    late.push(ms_since(due));
                    let (ms, bad) = send_burst(&mut writer, &stmts, due)?;
                    lat.push(ms);
                    refused += bad;
                    k += 1;
                }
                writer.quit().map_err(|e| e.to_string())?;
                Ok((lat, late, refused, bytes))
            },
        );
        let r = s.spawn(|| -> Result<(Vec<f64>, usize), String> {
            let (mut lat, mut missing) = (vec![], 0);
            while start.elapsed() < deadline {
                let t0 = Instant::now();
                let reply = reader
                    .request(&format!("MINE {table} 3"))
                    .map_err(|e| e.to_string())?;
                lat.push(ms_since(t0));
                let planted = [
                    "  nn-FD  {site} -> {region}",
                    "  nn-FD  {device_class} -> {firmware}",
                ];
                if !reply.ok || !planted.iter().all(|p| reply.lines.iter().any(|l| l == p)) {
                    missing += 1;
                }
            }
            Ok((lat, missing))
        });
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    });
    let (write_ms, late_ms, refused, sql_bytes) = writes?;
    let (mine_ms, bad_mines) = mines?;
    let acked = write_ms.len() * BURST - refused;
    report.check(refused == 0, || format!("{refused} INSERTs refused"));
    report.check(bad_mines == 0, || {
        format!("{bad_mines} MINE replies failed or lacked the planted FDs")
    });
    let (events, lagged) = match reader.unwatch() {
        Ok((items, _)) => items.iter().fold((0u64, 0u64), |(e, l), i| match i {
            StreamItem::Event(_) => (e + 1, l),
            StreamItem::Lagged(n) => (e, l + n),
        }),
        Err(e) => return Err(e.to_string()),
    };
    let mut admin = reader;
    let n = row_count(&mut admin, table)?;
    report.check(n == PRELOAD + acked, || {
        format!("{table} holds {n} rows, expected {PRELOAD} preloaded + {acked} acknowledged")
    });
    let scrape = Scrape::take(&mut admin)?;
    let rss = crate::peak_rss_mb(&server.pid());
    drop(server);

    report.notes.push(format!(
        "serve_mixed: {PRELOAD} rows preloaded; writer open loop at {MIXED_BURSTS_PER_S} bursts/s of {BURST} INSERTs ({} stmts/s); reader WATCH + MINE {table} 3 closed loop; --workers 2, WAL, --fsync batch, 1 shard",
        MIXED_BURSTS_PER_S * BURST as f64
    ));
    report.detail("setup_s", median(&setup), "s", setup.len());
    report.detail("peak_rss_mb", rss, "MiB", 1);
    report.detail(
        "write_p50_ms",
        quantile(&write_ms, 0.5),
        "ms",
        write_ms.len(),
    );
    report.detail(
        "write_p99_ms",
        quantile(&write_ms, 0.99),
        "ms",
        write_ms.len(),
    );
    report.detail("mine_p50_ms", median(&mine_ms), "ms", mine_ms.len());
    report.detail("acked_stmts", acked as f64, "count", write_ms.len());
    report.detail("serve.watch.events", events as f64, "count", 1);
    report.detail("serve.watch.lagged", lagged as f64, "count", 1);
    report.detail(
        "loadgen.late_p99_ms",
        quantile(&late_ms, 0.99),
        "ms",
        late_ms.len(),
    );
    if !args.trace {
        report.metric("setup_s", median(&setup), "s", setup.len());
        report.metric("peak_rss_mb", rss, "MiB", 1);
        // The write p50 follows the disk's fsync latency, which moved
        // by half from one minute to the next; the p99 is set by the
        // writes that queue behind MINE's table clone and the watch hub,
        // the layers this workload is about.
        report.metric(
            "primary_ms",
            quantile(&write_ms, 0.99),
            "ms",
            write_ms.len(),
        );
        report.metric("secondary_ms", median(&mine_ms), "ms", mine_ms.len());
    } else {
        let stmts = (acked + preload.len()) as f64;
        scraped_layers(
            &scrape,
            stmts,
            sql_bytes + preload_bytes as f64,
            &mut report,
        );
        report.metric("model.bytes_per_row", row_bytes, "B", 1);
        traced_tail(args, &data, &sigma, quantile(&write_ms, 0.99), &mut report)?;
    }
    Ok(report)
}

/// The in-process layers of the traced run, on the served rows:
/// discovery as `MINE <t> 3` runs it, and the model and store layers
/// under the served DDL.
fn traced_tail(
    args: &Args,
    table: &Table,
    sigma: &Sigma,
    primary_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    let ref_ms = args
        .e2e_ref_ms
        .ok_or("the traced run needs --e2e-ref-ms from an untraced run")?;
    report.metric("obs.overhead_ratio", primary_ms / ref_ms, "ratio", 1);
    crate::disc::discovery_layers(table, crate::disc::REPORT_LHS, report);
    layers::model_and_store(table, sigma, &args.work, report)
}

/// Rows of a discovery workload's table loaded by its traced run's
/// serve probe.
const PROBE_ROWS: usize = 20_000;

/// The serve layers of a discovery workload's traced run: a fresh
/// server is given the table's planted-FD DDL and its first
/// [`PROBE_ROWS`] rows as single-row `INSERT` bursts on one connection,
/// then one `MINE <t> 3`, and its `METRICS` are scraped.
pub fn probe(args: &Args, table: &Table, sigma: &Sigma, report: &mut Report) -> Result<(), String> {
    let wal = args.work.join(format!("wal-{}", std::process::id()));
    let server = Server::start(&args.sqlnf, wal)?;
    let mut c = server.connect()?;
    let name = table.schema().name();
    c.expect_ok(&render_create_table(table.schema(), sigma))
        .map_err(|e| e.to_string())?;
    let empty_rss = crate::rss_mb(&server.pid());
    let rows = &table.rows()[..PROBE_ROWS.min(table.len())];
    let stmts: Vec<String> = rows
        .iter()
        .map(|r| render_insert(name, std::slice::from_ref(r)))
        .collect();
    let mut refused = 0;
    for chunk in stmts.chunks(BURST) {
        refused += send_burst(&mut c, chunk, Instant::now())?.1;
    }
    report.check(refused == 0, || format!("{refused} probe INSERTs refused"));
    let row_bytes = (crate::rss_mb(&server.pid()) - empty_rss) * 1048576.0 / rows.len() as f64;
    let reply = c
        .request(&format!("MINE {name} 3"))
        .map_err(|e| e.to_string())?;
    report.check(reply.ok, || format!("MINE refused: {}", reply.message));
    let scrape = Scrape::take(&mut c)?;
    let bytes: usize = stmts.iter().map(|s| s.len() + 1).sum();
    scraped_layers(&scrape, stmts.len() as f64, bytes as f64, report);
    report.metric("model.bytes_per_row", row_bytes, "B", 1);
    Ok(())
}
