//! The shared store behind all sessions: named [`StoredTable`]s, each
//! behind its own `RwLock`, plus the group-commit durability plane —
//! one write-ahead log with batch fsync (see [`crate::commit`]).
//!
//! ## Locking discipline
//!
//! Five lock tiers, always acquired in this order (and released
//! before acquiring an earlier tier again):
//!
//! 1. the **snapshot** mutex — taken only by `snapshot()`, so at most
//!    one snapshot runs at a time; it owns the WAL generation number;
//! 2. the **registry** `RwLock` over the table map — writers only for
//!    `CREATE TABLE`; every other path takes it briefly as a reader to
//!    clone the table's `Arc` and drops it before touching the table;
//! 3. **table** `RwLock`s — sessions hold at most one; the snapshotter
//!    holds all of them as a reader, acquired in name order;
//! 4. the **log file** mutex — holding it *is* being the elected
//!    committer; the snapshotter holds it across the generation
//!    switch;
//! 5. the **commit queue** mutex — always innermost; held only long
//!    enough to push or drain frames.
//!
//! A writer enqueues its WAL frame *while still holding the table's
//! write lock* — which also assigns the frame its epoch — so epoch
//! order equals application order; the actual write+fsync happens
//! later, in [`commit`](crate::commit), after the writer has released
//! every lock. The snapshotter drains the queue while holding every
//! table read lock, so no admitted statement can fall between snapshot
//! and log.

use crate::commit::{GroupWal, Ticket};
use crate::metrics::{self, SlowEntry, SlowLog, Stage};
use crate::wal::{self, Wal, SNAPSHOT_FILE};
use crate::watch::{Subscription, WatchHub, DEFAULT_WATCH_QUEUE};
use sqlnf_core::prelude::*;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Default LHS cap of the `MINE` verb.
pub const DEFAULT_MINE_LHS: usize = 3;

/// Why a request failed.
#[derive(Debug)]
pub enum ServeError {
    /// Rejected by the engine (parse error, constraint violation, …).
    Engine(EngineError),
    /// Malformed request or unknown verb target.
    Bad(String),
    /// Durability layer failure.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::Bad(m) => write!(f, "{m}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Monotone counters of the store's lifetime (mirrored into
/// `sqlnf-obs` under `serve.*` when the `obs` feature is compiled in).
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Requests dispatched (every verb, including failures).
    pub requests: AtomicU64,
    /// Sessions accepted.
    pub sessions: AtomicU64,
    /// Statements admitted: applied, durable, and acknowledged.
    pub admitted: AtomicU64,
    /// Statements rejected.
    pub rejected: AtomicU64,
    /// Snapshots written.
    pub snapshots: AtomicU64,
}

impl StoreStats {
    /// Renders the counters as `name value` payload lines, sorted by
    /// name — `STATS` and `METRICS` output is stable across runs, so
    /// diffs (and tests diffing the two planes) are deterministic.
    pub fn lines(&self, tables: usize, wal_bytes: u64, wal_records: u64) -> Vec<String> {
        vec![
            format!("requests {}", self.requests.load(Ordering::Relaxed)),
            format!("sessions {}", self.sessions.load(Ordering::Relaxed)),
            format!("snapshots {}", self.snapshots.load(Ordering::Relaxed)),
            format!("stmt.admitted {}", self.admitted.load(Ordering::Relaxed)),
            format!("stmt.rejected {}", self.rejected.load(Ordering::Relaxed)),
            format!("tables {tables}"),
            format!("wal.bytes {wal_bytes}"),
            format!("wal.records {wal_records}"),
        ]
    }
}

type Registry = BTreeMap<String, Arc<RwLock<StoredTable>>>;

/// Fault-injection hooks for deterministic crash testing (used by
/// `sqlnf-harness`; all disabled by default and inert in production
/// paths).
#[derive(Debug)]
struct Hooks {
    /// After this many statements pass the admission gate, every
    /// further statement is refused with an injected I/O error — a
    /// deterministic crash point: regardless of thread interleaving,
    /// exactly this many statements are admitted (the compare-exchange
    /// in [`Store::admit_gate`] makes the check-and-count atomic).
    /// `u64::MAX` disables the fault.
    wal_fault_after: AtomicU64,
    /// Statements past the gate so far.
    appends: AtomicU64,
    /// Whether the armed fault has fired at least once.
    fault_fired: AtomicBool,
}

impl Default for Hooks {
    fn default() -> Self {
        Hooks {
            wal_fault_after: AtomicU64::new(u64::MAX),
            appends: AtomicU64::new(0),
            fault_fired: AtomicBool::new(false),
        }
    }
}

/// Durability tuning for [`Store::open_with`] /
/// [`Store::ephemeral_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Admitted statements between automatic snapshots (0 = only on
    /// shutdown).
    pub snapshot_every: u64,
    /// How long an elected committer lingers collecting more frames
    /// before writing its batch.
    pub commit_window: Duration,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            snapshot_every: 0,
            commit_window: Duration::ZERO,
        }
    }
}

/// Statements applied and enqueued but not yet acknowledged: the
/// tickets a session must redeem (via [`Store::commit_pending`])
/// before replying to their requests.
#[derive(Debug, Default)]
pub struct Pending {
    tickets: Vec<Ticket>,
}

impl Pending {
    /// Whether there is nothing to wait for.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Tickets accumulated so far (callers use the delta around an
    /// enqueue to attribute tickets to requests).
    pub fn len(&self) -> usize {
        self.tickets.len()
    }
}

/// The shared store: the table registry plus the durability layer.
#[derive(Debug)]
pub struct Store {
    tables: RwLock<Registry>,
    wal: GroupWal,
    dir: Option<PathBuf>,
    /// Serializes snapshots; the guarded value is the generation of
    /// the live WAL (tier 1 of the locking discipline).
    generation: Mutex<u64>,
    /// Admitted statements between automatic snapshots (0 = only on
    /// shutdown).
    snapshot_every: u64,
    since_snapshot: AtomicU64,
    /// Test-only fault/observation hooks.
    hooks: Hooks,
    /// Lifetime counters.
    pub stats: StoreStats,
    /// Worst-request log (see [`crate::metrics`]).
    slow: SlowLog,
    /// Process-unique tag stamped into every flight-recorder event this
    /// store emits, so tests sharing the process-global recorder can
    /// filter their own events out of the stream.
    nonce: u64,
    /// The WATCH subscription hub (see [`crate::watch`]): a thread
    /// shadowing committed history with incremental miners, fed from
    /// the commit plane post-durability.
    watch: WatchHub,
}

/// Source of store nonces (flight events carry them as values).
static NONCE: AtomicU64 = AtomicU64::new(1);

impl Store {
    /// An in-memory store without durability.
    pub fn ephemeral() -> Store {
        Store::ephemeral_with(StoreOptions::default())
    }

    /// An in-memory store with explicit commit-plane tuning (the
    /// commit window still shapes batching even without a backing
    /// file).
    pub fn ephemeral_with(opts: StoreOptions) -> Store {
        let wal = GroupWal::ephemeral(opts.commit_window);
        let watch = WatchHub::spawn(Vec::new(), wal.epoch_next(), DEFAULT_WATCH_QUEUE);
        wal.set_listener(watch.sender());
        Store {
            tables: RwLock::new(BTreeMap::new()),
            wal,
            dir: None,
            generation: Mutex::new(0),
            snapshot_every: 0,
            since_snapshot: AtomicU64::new(0),
            hooks: Hooks::default(),
            stats: StoreStats::default(),
            slow: SlowLog::default(),
            nonce: NONCE.fetch_add(1, Ordering::Relaxed),
            watch,
        }
    }

    /// Opens a durable store in `dir` with default options; see
    /// [`open_with`](Self::open_with).
    pub fn open(dir: &Path, snapshot_every: u64) -> Result<Store, ServeError> {
        Store::open_with(
            dir,
            StoreOptions {
                snapshot_every,
                ..StoreOptions::default()
            },
        )
    }

    /// Opens a durable store in `dir`, recovering state by applying the
    /// snapshot (if any) and then replaying the snapshot generation's
    /// log — its contiguous epoch run from the snapshot's base is
    /// exactly the acknowledged history. Logs of any other generation
    /// are debris of a crash mid-snapshot — older ones are fully
    /// contained in the snapshot, newer ones were never written to —
    /// and are deleted, not replayed, so recovery never applies a
    /// statement twice. A directory whose live generation still holds
    /// frames in an extra `wal.<g>.<s>.log` (`s >= 1`, written by an
    /// earlier build that split the log) is refused with an error
    /// naming the file, before any file is touched.
    pub fn open_with(dir: &Path, opts: StoreOptions) -> Result<Store, ServeError> {
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let (generation, epoch_base, script) = match std::fs::read_to_string(&snap_path) {
            Ok(image) => {
                let (generation, epoch_base, body) = wal::parse_snapshot(&image);
                (generation, epoch_base, body.to_owned())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, 1, String::new()),
            Err(e) => return Err(e.into()),
        };
        wal::cleanup_stale(dir, generation)?;
        // GroupWal::recover truncates a torn tail or an epoch-gapped
        // suffix, so replay-then-append agree on the log's contents.
        let (gwal, replayed) = GroupWal::recover(dir, generation, epoch_base, opts.commit_window)?;
        // Seed the WATCH hub's shadow state with the recovered history
        // so a subscriber's baseline matches the live registry; the
        // cursor starts at the first epoch the resumed store can
        // commit.
        let mut preamble = vec![script.clone()];
        preamble.extend(replayed.iter().cloned());
        let watch = WatchHub::spawn(preamble, gwal.epoch_next(), DEFAULT_WATCH_QUEUE);
        gwal.set_listener(watch.sender());
        let store = Store {
            tables: RwLock::new(BTreeMap::new()),
            wal: gwal,
            dir: Some(dir.to_path_buf()),
            generation: Mutex::new(generation),
            snapshot_every: opts.snapshot_every,
            since_snapshot: AtomicU64::new(0),
            hooks: Hooks::default(),
            stats: StoreStats::default(),
            slow: SlowLog::default(),
            nonce: NONCE.fetch_add(1, Ordering::Relaxed),
            watch,
        };
        store.apply_script_unlogged(&script)?;
        for stmt in &replayed {
            store.apply_script_unlogged(stmt)?;
        }
        Ok(store)
    }

    /// Applies a recovery script directly to the registry, bypassing
    /// the WAL.
    fn apply_script_unlogged(&self, src: &str) -> Result<(), ServeError> {
        for stmt in parse_script(src).map_err(EngineError::from)? {
            match stmt {
                Statement::CreateTable { schema, sigma } => {
                    let name = schema.name().to_owned();
                    let mut reg = self.tables.write().unwrap();
                    if reg.contains_key(&name) {
                        return Err(EngineError::DuplicateTable(name).into());
                    }
                    reg.insert(name, Arc::new(RwLock::new(StoredTable::new(schema, sigma))));
                }
                Statement::Insert { table, rows } => {
                    let arc = self.table_arc(&table)?;
                    let mut st = arc.write().unwrap();
                    for row in rows {
                        st.insert(row).map_err(ServeError::Engine)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn table_arc(&self, name: &str) -> Result<Arc<RwLock<StoredTable>>, ServeError> {
        let reg = {
            let _wait = sqlnf_obs::span!("serve.lock_wait.registry");
            metrics::timed(Stage::LockRegistry, || self.tables.read().unwrap())
        };
        reg.get(name)
            .cloned()
            .ok_or_else(|| EngineError::NoSuchTable(name.to_owned()).into())
    }

    /// This store's flight-event tag (see the `nonce` field).
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// The worst-request log (requests recorded by the server's
    /// dispatch loop).
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow
    }

    /// The retained worst requests, worst first.
    pub fn slow_requests(&self) -> Vec<SlowEntry> {
        self.slow.entries()
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().unwrap().keys().cloned().collect()
    }

    /// Runs `f` on a read-locked table.
    pub fn with_table<T>(
        &self,
        name: &str,
        f: impl FnOnce(&StoredTable) -> T,
    ) -> Result<T, ServeError> {
        let arc = self.table_arc(name)?;
        let st = {
            // Wait time only: the span must not cover `f` itself.
            let _wait = sqlnf_obs::span!("serve.lock_wait.table");
            metrics::timed(Stage::LockTable, || arc.read().unwrap())
        };
        Ok(f(&st))
    }

    /// Subscribe to live discovery events; `filter` limits the stream
    /// to one table (`None` = every table). Events begin at the
    /// store's current committed state — the hub mines a silent
    /// baseline at registration and streams only subsequent diffs.
    pub fn watch(&self, filter: Option<String>) -> Subscription {
        self.watch.subscribe(filter)
    }

    /// [`watch`](Self::watch) with the weak plane opt-in: a `weak`
    /// subscriber additionally receives `wfd:` fact events.
    pub fn watch_opts(&self, filter: Option<String>, weak: bool) -> Subscription {
        self.watch.subscribe_opts(filter, weak)
    }

    /// Block until the WATCH hub has processed every commit
    /// notification sent so far (deterministic fence for tests and the
    /// harness).
    pub fn watch_barrier(&self) {
        self.watch.barrier();
    }

    /// Parses and executes a SQL script, enqueuing each applied
    /// statement's canonical rendering for group commit. Statements
    /// apply in order; the first rejection stops the script (earlier
    /// statements stay applied — the wire protocol's unit of atomicity
    /// is the statement, not the script). Returns the number of
    /// statements applied; their tickets accumulate in `pending` and
    /// the caller must redeem them with
    /// [`commit_pending`](Self::commit_pending) before acknowledging
    /// the request — the split is what lets a session stack several
    /// pipelined requests into one commit batch.
    pub fn execute_sql_enqueue(
        &self,
        src: &str,
        pending: &mut Pending,
    ) -> Result<usize, ServeError> {
        let parsed = {
            let _span = sqlnf_obs::span!("serve.parse");
            metrics::timed(Stage::Parse, || parse_script(src))
        };
        let stmts = parsed.map_err(|e| {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            sqlnf_obs::count!("serve.stmt.rejected");
            EngineError::from(e)
        })?;
        let mut applied = 0;
        for stmt in stmts {
            match self.apply_logged(stmt) {
                Ok(ticket) => {
                    applied += 1;
                    pending.tickets.push(ticket);
                }
                Err(e) => {
                    self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    sqlnf_obs::count!("serve.stmt.rejected");
                    return Err(e);
                }
            }
        }
        Ok(applied)
    }

    /// Parks until every pending statement is durable, then counts
    /// and announces the per-statement outcomes. A statement is
    /// *admitted* — counted, flight-recorded, snapshot-triggering —
    /// only here, after its frame survived the batch fsync; a statement
    /// whose own wait fails is *rejected*. Every ticket is redeemed
    /// individually: a lost batch leaves the pending set's statements
    /// that an earlier batch already made durable admitted, so the
    /// admission counter always agrees with the oplog. Returns one
    /// outcome per ticket, in enqueue order, plus the aftermath of the
    /// commit (the auto-snapshot attempt) — callers replying per
    /// request map the outcomes back onto replies and treat the
    /// aftermath as a session-level failure, not a statement
    /// rejection. Callers must hold no locks: a wait may elect this
    /// thread committer and perform the batch I/O itself.
    pub fn commit_pending_each(
        &self,
        pending: &mut Pending,
    ) -> (Vec<io::Result<()>>, Result<(), ServeError>) {
        if pending.tickets.is_empty() {
            return (Vec::new(), Ok(()));
        }
        let tickets = std::mem::take(&mut pending.tickets);
        let outcomes: Vec<io::Result<()>> = {
            let _span = sqlnf_obs::span!("serve.commit.wait");
            tickets.into_iter().map(|t| self.wal.wait(t)).collect()
        };
        let admitted = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        let rejected = outcomes.len() as u64 - admitted;
        if admitted > 0 {
            self.stats.admitted.fetch_add(admitted, Ordering::Relaxed);
            sqlnf_obs::count!("serve.stmt.admitted", admitted);
            for _ in 0..admitted {
                sqlnf_obs::event!("serve.stmt.admitted", self.nonce);
            }
        }
        if rejected > 0 {
            self.stats.rejected.fetch_add(rejected, Ordering::Relaxed);
            sqlnf_obs::count!("serve.stmt.rejected", rejected);
        }
        let aftermath = self.maybe_snapshot(admitted);
        (outcomes, aftermath)
    }

    /// [`commit_pending_each`](Self::commit_pending_each) collapsed
    /// for callers that treat the pending set as one unit (CLI,
    /// tests): the first per-ticket failure, or else the aftermath
    /// error, is the result.
    pub fn commit_pending(&self, pending: &mut Pending) -> Result<(), ServeError> {
        let (outcomes, aftermath) = self.commit_pending_each(pending);
        for outcome in outcomes {
            outcome?;
        }
        aftermath
    }

    /// Parses, executes, and makes durable a SQL script in one call
    /// (the unpipelined path: CLI, tests, recovery checks). Returns
    /// the number of statements applied.
    pub fn execute_sql(&self, src: &str) -> Result<usize, ServeError> {
        let mut pending = Pending::default();
        let res = self.execute_sql_enqueue(src, &mut pending);
        // Ack earlier statements even when a later one was refused —
        // they applied, so they must become durable.
        self.commit_pending(&mut pending)?;
        res
    }

    /// Applies one statement under the locking discipline, enqueuing
    /// its canonical rendering for commit while the write lock is
    /// still held (so epoch order equals application order).
    fn apply_logged(&self, stmt: Statement) -> Result<Ticket, ServeError> {
        match stmt {
            Statement::CreateTable { schema, sigma } => {
                let rendered = render_create_table(&schema, &sigma);
                let name = schema.name().to_owned();
                let mut reg = {
                    let _wait = sqlnf_obs::span!("serve.lock_wait.registry");
                    metrics::timed(Stage::LockRegistry, || self.tables.write().unwrap())
                };
                if reg.contains_key(&name) {
                    return Err(EngineError::DuplicateTable(name).into());
                }
                // Gate and enqueue before publishing: if the commit
                // plane refuses, the statement is refused and the
                // registry is unchanged.
                self.admit_gate()?;
                let ticket = self.wal.enqueue(rendered)?;
                reg.insert(name, Arc::new(RwLock::new(StoredTable::new(schema, sigma))));
                Ok(ticket)
            }
            Statement::Insert { table, rows } => {
                let arc = self.table_arc(&table)?;
                // How long concurrent writers queue on one table — the
                // suspected cause of serve_4x500 throughput trailing
                // serve_1x500. The span ends at acquisition.
                let mut st = {
                    let _wait = sqlnf_obs::span!("serve.lock_wait.table");
                    metrics::timed(Stage::LockTable, || arc.write().unwrap())
                };
                // Multi-row INSERTs are atomic: roll back this
                // statement's rows if a later one is rejected.
                let base = st.data().len();
                for (i, row) in rows.iter().enumerate() {
                    if let Err(e) = st.insert(row.clone()) {
                        for r in (base..base + i).rev() {
                            st.delete(r).expect("rolling back admitted rows");
                        }
                        return Err(e.into());
                    }
                }
                let rendered = render_insert(&table, &rows);
                let enqueued = self
                    .admit_gate()
                    .and_then(|()| self.wal.enqueue(rendered).map_err(ServeError::from));
                match enqueued {
                    Ok(ticket) => Ok(ticket),
                    Err(e) => {
                        for r in (base..base + rows.len()).rev() {
                            st.delete(r).expect("rolling back admitted rows");
                        }
                        Err(e)
                    }
                }
            }
        }
    }

    /// The admission gate: atomically checks and spends one unit of
    /// the fault hook's budget. The compare-exchange makes "first k
    /// pass, the rest fail" exact under any interleaving — the crash
    /// pin counts *statements admitted*, not frames fsynced, so
    /// [`inject_wal_fault_after`](Self::inject_wal_fault_after) keeps
    /// its meaning under batched commits.
    fn admit_gate(&self) -> Result<(), ServeError> {
        loop {
            let budget = self.hooks.wal_fault_after.load(Ordering::Relaxed);
            let done = self.hooks.appends.load(Ordering::Relaxed);
            if done >= budget {
                self.hooks.fault_fired.store(true, Ordering::SeqCst);
                return Err(io::Error::other("injected WAL fault").into());
            }
            if self
                .hooks
                .appends
                .compare_exchange(done, done + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(());
            }
        }
    }

    /// Test hook: start recording every committed statement (canonical
    /// rendering, epoch order). Used by the fault-injection harness as
    /// the ground-truth serial history for differential recovery
    /// checks.
    pub fn enable_oplog(&self) {
        self.wal.enable_oplog();
    }

    /// Test hook: the statements committed since
    /// [`enable_oplog`](Self::enable_oplog), in epoch order.
    pub fn oplog(&self) -> Vec<String> {
        self.wal.oplog()
    }

    /// Test hook: after `appends` further admissions, every statement
    /// is refused with an injected I/O error. Statements admitted
    /// before the fault stay durable; later ones are refused and rolled
    /// back — a deterministic crash point independent of thread
    /// interleaving.
    pub fn inject_wal_fault_after(&self, appends: u64) {
        let done = self.hooks.appends.load(Ordering::Relaxed);
        self.hooks
            .wal_fault_after
            .store(done.saturating_add(appends), Ordering::Relaxed);
    }

    /// Test hook: whether the armed WAL fault has fired.
    pub fn wal_fault_fired(&self) -> bool {
        self.hooks.fault_fired.load(Ordering::SeqCst)
    }

    /// Test hook: make the next commit batch fail between its `write`
    /// and its `fsync`, proving undurable waiters are never acked.
    pub fn inject_fsync_fault_once(&self) {
        self.wal.inject_fsync_fault_once();
    }

    /// `(bytes, records)` of the live WAL.
    pub fn wal_size(&self) -> (u64, u64) {
        self.wal.size()
    }

    /// Counts `applied` statements toward the auto-snapshot threshold.
    /// The compare-exchange elects exactly one thread per crossing: a
    /// loser's statements stay counted and re-arm the next trigger, so
    /// concurrent workers never pile into `snapshot()` together.
    fn maybe_snapshot(&self, applied: u64) -> Result<(), ServeError> {
        if self.snapshot_every == 0 || self.dir.is_none() || applied == 0 {
            return Ok(());
        }
        let total = self.since_snapshot.fetch_add(applied, Ordering::Relaxed) + applied;
        if total >= self.snapshot_every
            && self
                .since_snapshot
                .compare_exchange(total, 0, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Renders the whole store as a SQL script that recreates it (the
    /// snapshot format — DDL in registry order, then each table's
    /// rows). Callers must not hold any table lock.
    pub fn export_script(&self) -> String {
        let arcs: Vec<(String, Arc<RwLock<StoredTable>>)> = {
            let reg = self.tables.read().unwrap();
            reg.iter().map(|(n, a)| (n.clone(), a.clone())).collect()
        };
        let mut out = String::new();
        for (name, arc) in &arcs {
            let st = arc.read().unwrap();
            out.push_str(&render_create_table(st.data().schema(), st.sigma()));
            out.push('\n');
            if !st.data().is_empty() {
                out.push_str(&render_insert(name, st.data().rows()));
                out.push('\n');
            }
        }
        out
    }

    /// Writes a snapshot and retires the current WAL generation by
    /// switching the log to the next one. All table read locks are
    /// held throughout — which quiesces the commit plane, since
    /// enqueuing requires a table write lock — and the queue is
    /// drained into the old log before the switch, so an admitted
    /// statement is always in the snapshot or the live log. The on-disk
    /// order makes every crash point recoverable: the generation-`g+1`
    /// snapshot (whose header records the epoch base) and its empty log
    /// are written and made durable (file fsync, rename, directory
    /// fsync) *before* the generation-`g` log is deleted — a leftover
    /// old-generation log is therefore always fully contained in the
    /// snapshot, and `open()` discards it instead of replaying it
    /// twice.
    pub fn snapshot(&self) -> Result<(), ServeError> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(());
        };
        let _span = sqlnf_obs::span!("serve.snapshot");
        // Tier 1: one snapshot at a time; the guard owns the live
        // WAL's generation.
        let mut generation = {
            let _wait = sqlnf_obs::span!("serve.lock_wait.snapshot");
            metrics::timed(Stage::LockSnapshot, || self.generation.lock().unwrap())
        };
        let next = *generation + 1;
        let reg = self.tables.read().unwrap();
        let guards: Vec<(&String, std::sync::RwLockReadGuard<'_, StoredTable>)> = reg
            .iter()
            .map(|(name, arc)| (name, arc.read().unwrap()))
            .collect();
        // Tier 4: drain straggler frames into the old generation (their
        // writers are parked in wait(), not holding locks) and keep the
        // file lock across the switch.
        let mut file = self.wal.lock_file();
        self.wal.drain(&mut file);
        let epoch_base = self.wal.epoch_next();
        let mut script = wal::snapshot_header(next, epoch_base);
        for (name, st) in &guards {
            script.push_str(&render_create_table(st.data().schema(), st.sigma()));
            script.push('\n');
            if !st.data().is_empty() {
                script.push_str(&render_insert(name, st.data().rows()));
                script.push('\n');
            }
        }
        let tmp = wal::snapshot_tmp_path(dir, next);
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(script.as_bytes())?;
            let _span = sqlnf_obs::span!("serve.snapshot.fsync");
            metrics::timed(Stage::WalFsync, || f.sync_data())?;
        }
        // The next generation's log must exist before the snapshot
        // naming it is published, and both must be durable before any
        // statement is appended to the new log — otherwise a crash
        // could recover the old snapshot yet discard a new log.
        let (fresh, _) = Wal::open(dir, next, epoch_base)?;
        std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
        wal::sync_dir(dir)?;
        if let Some(old) = file.replace(fresh) {
            // Already captured by the snapshot; removal is cleanup, not
            // correctness — open() deletes leftovers.
            let _ = std::fs::remove_file(old.path());
            let _ = wal::sync_dir(dir);
        }
        drop(file);
        self.since_snapshot.store(0, Ordering::Relaxed);
        *generation = next;
        self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
        sqlnf_obs::count!("serve.snapshots");
        Ok(())
    }

    /// Fsyncs the WAL (graceful shutdown path).
    pub fn sync(&self) -> Result<(), ServeError> {
        self.wal.sync()?;
        Ok(())
    }

    /// Full revalidation: every stored instance satisfies its declared
    /// constraint set (used by tests to audit concurrent admission).
    pub fn satisfies_all_constraints(&self) -> bool {
        let names = self.table_names();
        names.iter().all(|name| {
            self.with_table(name, |st| satisfies_all(st.data(), st.sigma()))
                .unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDL: &str = "CREATE TABLE purchase (
        order_id INT NOT NULL,
        item     TEXT NOT NULL,
        catalog  TEXT,
        price    INT NOT NULL,
        CONSTRAINT line CERTAIN FD (item, catalog) -> (price)
    );";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqlnf_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn execute_admits_and_rejects() {
        let store = Store::ephemeral();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'Fitbit', 'Amazon', 240);")
            .unwrap();
        let err = store
            .execute_sql("INSERT INTO purchase VALUES (2, 'Fitbit', 'Amazon', 999);")
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Engine(EngineError::ConstraintViolation { .. })
        ));
        assert_eq!(store.stats.admitted.load(Ordering::Relaxed), 2);
        assert_eq!(store.stats.rejected.load(Ordering::Relaxed), 1);
        assert!(store.satisfies_all_constraints());
    }

    #[test]
    fn multi_row_insert_is_atomic() {
        let store = Store::ephemeral();
        store.execute_sql(DDL).unwrap();
        // Second row violates the c-FD against the first: both roll back.
        let err = store
            .execute_sql("INSERT INTO purchase VALUES (1, 'X', 'A', 10), (2, 'X', 'A', 20);")
            .unwrap_err();
        assert!(matches!(err, ServeError::Engine(_)));
        store
            .with_table("purchase", |st| assert_eq!(st.data().len(), 0))
            .unwrap();
    }

    #[test]
    fn recovery_replays_wal_and_snapshot() {
        let dir = tmp_dir("recover");
        {
            let store = Store::open(&dir, 0).unwrap();
            store.execute_sql(DDL).unwrap();
            store
                .execute_sql("INSERT INTO purchase VALUES (1, 'Fitbit', NULL, 240);")
                .unwrap();
            // No snapshot, no graceful close: state lives in the WAL only.
        }
        let reborn = Store::open(&dir, 0).unwrap();
        reborn
            .with_table("purchase", |st| assert_eq!(st.data().len(), 1))
            .unwrap();
        // Snapshot, append more, recover again: both sources compose.
        reborn.snapshot().unwrap();
        assert_eq!(reborn.wal_size().1, 0);
        reborn
            .execute_sql("INSERT INTO purchase VALUES (2, 'Doll', 'Kingtoys', 25);")
            .unwrap();
        let script = reborn.export_script();
        drop(reborn);
        let third = Store::open(&dir, 0).unwrap();
        assert_eq!(third.export_script(), script);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash window the generation scheme closes: the snapshot is
    /// renamed into place but the previous generation's log survives
    /// (power loss before the retired log was deleted). Replaying that
    /// log on top of the snapshot would double every statement — or
    /// refuse to start on `DuplicateTable` — so recovery must discard
    /// it instead.
    #[test]
    fn leftover_old_generation_wal_is_not_replayed() {
        let dir = tmp_dir("stale");
        let store = Store::open(&dir, 0).unwrap();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'Fitbit', NULL, 240);")
            .unwrap();
        let old_log = std::fs::read(wal::wal_path(&dir, 0)).unwrap();
        store.snapshot().unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (2, 'Doll', 'Kingtoys', 25);")
            .unwrap();
        let expected = store.export_script();
        drop(store);
        // Resurrect the generation-0 log next to the generation-1
        // snapshot + log, as if the final delete never hit the disk.
        std::fs::write(wal::wal_path(&dir, 0), &old_log).unwrap();
        let reborn = Store::open(&dir, 0).unwrap();
        assert_eq!(reborn.export_script(), expected);
        assert!(reborn.satisfies_all_constraints());
        assert!(!wal::wal_path(&dir, 0).exists(), "stale log cleaned up");
        drop(reborn);
        // Crash *before* the rename instead: an empty next-generation
        // log and a temp snapshot are debris, not state.
        std::fs::write(wal::wal_path(&dir, 9), b"").unwrap();
        std::fs::write(wal::snapshot_tmp_path(&dir, 9), b"junk").unwrap();
        let again = Store::open(&dir, 0).unwrap();
        assert_eq!(again.export_script(), expected);
        assert!(!wal::wal_path(&dir, 9).exists());
        assert!(!wal::snapshot_tmp_path(&dir, 9).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hammer the auto-snapshot trigger from several writers at once:
    /// snapshots must serialize (no interleaved writers corrupting one
    /// file) and recovery must reproduce the exact store.
    #[test]
    fn concurrent_snapshot_triggers_stay_consistent() {
        let dir = tmp_dir("conc");
        let store = Arc::new(Store::open(&dir, 1).unwrap());
        store.execute_sql(DDL).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let id = k * 100 + i;
                        store
                            .execute_sql(&format!(
                                "INSERT INTO purchase VALUES ({id}, 'i{id}', NULL, {id});"
                            ))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(store.stats.snapshots.load(Ordering::Relaxed) >= 1);
        let expected = store.export_script();
        drop(store);
        let reborn = Store::open(&dir, 0).unwrap();
        assert_eq!(reborn.export_script(), expected);
        assert!(reborn.satisfies_all_constraints());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The harness hooks: the oplog mirrors the admitted history in
    /// order, and an armed fault refuses (and rolls back) every
    /// statement past its budget, deterministically — the budget
    /// counts *statements admitted*, not frames fsynced, so batching
    /// cannot shift the crash point.
    #[test]
    fn oplog_and_wal_fault_hooks() {
        let dir = tmp_dir("hooks");
        let store = Store::open(&dir, 0).unwrap();
        store.enable_oplog();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'A', NULL, 1);")
            .unwrap();
        // DDL + one insert so far; allow exactly one more admission.
        store.inject_wal_fault_after(1);
        store
            .execute_sql("INSERT INTO purchase VALUES (2, 'B', NULL, 2);")
            .unwrap();
        assert!(!store.wal_fault_fired());
        let err = store
            .execute_sql("INSERT INTO purchase VALUES (3, 'C', NULL, 3);")
            .unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert!(store.wal_fault_fired());
        // The refused insert was rolled back, not half-applied.
        store
            .with_table("purchase", |st| assert_eq!(st.data().len(), 2))
            .unwrap();
        let oplog = store.oplog();
        assert_eq!(oplog.len(), 3, "{oplog:?}");
        assert!(oplog[0].starts_with("CREATE TABLE"));
        // The oplog replayed through a fresh engine reproduces the
        // recovered store exactly (the harness's differential check).
        let mut reference = Database::new();
        for stmt in &oplog {
            reference.run_script(stmt).unwrap();
        }
        drop(store);
        let reopened = Store::open(&dir, 0).unwrap();
        assert_eq!(reopened.export_script(), reference.export_script());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash-during-commit window: the batch is written but the
    /// fsync fails. The waiter must get an error, the admission
    /// counter must not move, the oplog must not record the statement,
    /// and recovery must come back without it.
    #[test]
    fn crash_between_write_and_fsync_never_acks() {
        let dir = tmp_dir("fsync_fault");
        let store = Store::open(&dir, 0).unwrap();
        store.enable_oplog();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'A', NULL, 1);")
            .unwrap();
        store.inject_fsync_fault_once();
        let err = store
            .execute_sql("INSERT INTO purchase VALUES (2, 'B', NULL, 2);")
            .unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert_eq!(store.stats.admitted.load(Ordering::Relaxed), 2);
        assert_eq!(store.oplog().len(), 2, "undurable frame must not be acked");
        drop(store);
        let reborn = Store::open(&dir, 0).unwrap();
        reborn
            .with_table("purchase", |st| assert_eq!(st.data().len(), 1))
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A lost batch is accounted per ticket: a pending set whose first
    /// statement an earlier batch already made durable (another
    /// session's commit drained the shared queue) admits that
    /// statement — it is in the oplog, and recovery replays it — and
    /// rejects only the statement the lost batch carried, so the
    /// admission counter agrees with the oplog.
    #[test]
    fn partial_commit_failure_counts_per_ticket() {
        let dir = tmp_dir("partial");
        let store = Store::open(&dir, 0).unwrap();
        store.enable_oplog();
        store.execute_sql(DDL).unwrap();
        let mut pending = Pending::default();
        store
            .execute_sql_enqueue(
                "INSERT INTO purchase VALUES (1, 'A', NULL, 1);",
                &mut pending,
            )
            .unwrap();
        // Another statement's commit drains the queue, statement 1
        // included.
        store
            .execute_sql("INSERT INTO purchase VALUES (2, 'B', NULL, 2);")
            .unwrap();
        store
            .execute_sql_enqueue(
                "INSERT INTO purchase VALUES (3, 'C', NULL, 3);",
                &mut pending,
            )
            .unwrap();
        assert_eq!(pending.len(), 2);
        store.inject_fsync_fault_once();
        let (outcomes, aftermath) = store.commit_pending_each(&mut pending);
        aftermath.unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].is_ok(), "the durable statement is admitted");
        assert!(outcomes[1].is_err(), "only the lost statement is rejected");
        // DDL + statement 2 + statement 1; the counter matches the oplog.
        assert_eq!(store.stats.admitted.load(Ordering::Relaxed), 3);
        assert_eq!(store.stats.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(
            store.stats.admitted.load(Ordering::Relaxed),
            store.oplog().len() as u64
        );
        drop(store);
        // Recovery replays statement 1 (and 2), never statement 3.
        let mut reference = Database::new();
        for stmt in [
            DDL,
            "INSERT INTO purchase VALUES (1, 'A', NULL, 1);",
            "INSERT INTO purchase VALUES (2, 'B', NULL, 2);",
        ] {
            reference.run_script(stmt).unwrap();
        }
        let reborn = Store::open(&dir, 0).unwrap();
        assert_eq!(reborn.export_script(), reference.export_script());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Frames an earlier build left in an extra `wal.<g>.<s>.log` of the
    /// live generation are never dropped silently: opening refuses with
    /// an error naming the file and touches nothing.
    #[test]
    fn leftover_extra_log_with_frames_is_refused() {
        let dir = tmp_dir("extra_frames");
        let store = Store::open(&dir, 0).unwrap();
        store.execute_sql(DDL).unwrap();
        drop(store);
        let extra = dir.join("wal.0.1.log");
        let frame = "#46@2\nINSERT INTO purchase VALUES (1, 'A', NULL, 1);\n";
        std::fs::write(&extra, frame).unwrap();
        let log = std::fs::read(wal::wal_path(&dir, 0)).unwrap();
        let err = Store::open(&dir, 0).unwrap_err();
        assert!(err.to_string().contains("wal.0.1.log"), "{err}");
        assert_eq!(std::fs::read_to_string(&extra).unwrap(), frame);
        assert_eq!(std::fs::read(wal::wal_path(&dir, 0)).unwrap(), log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A graceful shutdown under an earlier build that split the log
    /// leaves empty extra logs of the new generation: debris, deleted
    /// on open like any other.
    #[test]
    fn leftover_empty_extra_logs_are_debris() {
        let dir = tmp_dir("extra_empty");
        let store = Store::open(&dir, 0).unwrap();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'A', NULL, 1);")
            .unwrap();
        store.snapshot().unwrap();
        let expected = store.export_script();
        drop(store);
        let extras: Vec<PathBuf> = (1..4).map(|s| dir.join(format!("wal.1.{s}.log"))).collect();
        for extra in &extras {
            std::fs::write(extra, b"").unwrap();
        }
        let reborn = Store::open(&dir, 0).unwrap();
        assert_eq!(reborn.export_script(), expected);
        assert!(extras.iter().all(|extra| !extra.exists()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_snapshot_truncates_wal() {
        let dir = tmp_dir("auto");
        let store = Store::open(&dir, 2).unwrap();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'A', NULL, 1);")
            .unwrap();
        // Threshold reached: snapshot happened, WAL empty.
        assert_eq!(store.wal_size().1, 0);
        assert_eq!(store.stats.snapshots.load(Ordering::Relaxed), 1);
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
