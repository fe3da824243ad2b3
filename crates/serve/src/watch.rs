//! Live discovery: the `WATCH` subscription plane.
//!
//! A [`WatchHub`] thread shadows the store's committed history with
//! per-table [`IncrementalMiner`]s and streams *fact diffs* — newly
//! appearing or newly refuted possible/certain FDs and keys — to
//! registered subscribers as framed `EVENT` lines.
//!
//! ## Durability contract
//!
//! Frames enter the hub from the group committer's success path, i.e.
//! *after* the batch is fsync-durable, and the committer sends while
//! it still holds the log's file mutex. Batches therefore arrive in
//! epoch order, and after a lost batch nothing later is ever sent, so
//! the hub applies frames as they arrive: a subscriber never observes
//! state beyond what a restart would replay.
//!
//! ## Wire grammar
//!
//! ```text
//! EVENT <epoch> <table> +<fact>     fact newly holds as of <epoch>
//! EVENT <epoch> <table> -<fact>     fact refuted by commit <epoch>
//! LAGGED <n>                        n events were dropped before this point
//! ```
//!
//! Facts are space-free tokens: `pfd:a,b->c`, `cfd:a->b`, `pkey:a,b`,
//! `ckey:a` — plus `wfd:a->b` for minimal *weak* FDs, which only
//! subscribers registered with `WATCH <t|*> weak` receive (there is no
//! `wkey:` fact: weak keys coincide with p-keys). Default subscribers
//! never see `wfd:` lines, so pre-weak consumers' streams are
//! byte-identical. Within one epoch, refutations (`-`) are emitted
//! before appearances (`+`), each in lexicographic fact order, so the
//! event stream for a given history is byte-deterministic.
//!
//! ## Backpressure
//!
//! Each subscriber owns a bounded queue ([`DEFAULT_WATCH_QUEUE`]
//! lines). When the hub finds the queue full it drops the event and
//! bumps a lag counter instead of blocking the commit plane; the next
//! drain appends an explicit `LAGGED <n>` notice so the consumer knows
//! the stream has a gap and can re-baseline with a full `MINE`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

use sqlnf_discovery::prelude::*;
use sqlnf_model::prelude::*;

use crate::store::DEFAULT_MINE_LHS;

/// Default per-subscriber queue depth (event lines) before lagging.
pub const DEFAULT_WATCH_QUEUE: usize = 4096;

/// LHS/key size bound used for the hub's shadow mining (matches the
/// `MINE` verb default).
pub const WATCH_MAX_LHS: usize = DEFAULT_MINE_LHS;

/// One streamed discovery event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Commit epoch whose admission changed the fact set.
    pub epoch: u64,
    /// Table the fact belongs to.
    pub table: String,
    /// `true` if the fact newly holds, `false` if newly refuted.
    pub appeared: bool,
    /// Space-free fact token (`pfd:a,b->c`, `ckey:a`, …).
    pub fact: String,
}

impl WatchEvent {
    /// Render the framed wire line for this event.
    pub fn line(&self) -> String {
        let sign = if self.appeared { '+' } else { '-' };
        format!("EVENT {} {} {}{}", self.epoch, self.table, sign, self.fact)
    }

    /// Parse a wire line produced by [`WatchEvent::line`].
    pub fn parse(line: &str) -> Option<WatchEvent> {
        let rest = line.strip_prefix("EVENT ")?;
        let mut parts = rest.splitn(3, ' ');
        let epoch = parts.next()?.parse().ok()?;
        let table = parts.next()?.to_string();
        let signed = parts.next()?;
        let appeared = match signed.as_bytes().first()? {
            b'+' => true,
            b'-' => false,
            _ => return None,
        };
        Some(WatchEvent {
            epoch,
            table,
            appeared,
            fact: signed[1..].to_string(),
        })
    }
}

fn render_cols(schema: &TableSchema, set: AttrSet) -> String {
    let mut out = String::new();
    for a in set.iter() {
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(schema.column_name(a));
    }
    out
}

/// Whether a fact token belongs to the weak-opt-in plane.
fn is_weak_fact(fact: &str) -> bool {
    fact.starts_with("wfd:")
}

fn facts_from_parts(
    schema: &TableSchema,
    pfds: &[MinedFd],
    cfds: &[MinedFd],
    wfds: Option<&[MinedFd]>,
    keys: &MinedKeys,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut fd_groups = vec![("pfd", pfds), ("cfd", cfds)];
    if let Some(w) = wfds {
        fd_groups.push(("wfd", w));
    }
    for (tag, fds) in fd_groups {
        for fd in fds {
            for a in fd.rhs.iter() {
                out.insert(format!(
                    "{tag}:{}->{}",
                    render_cols(schema, fd.lhs),
                    schema.column_name(a)
                ));
            }
        }
    }
    for k in &keys.pkeys {
        out.insert(format!("pkey:{}", render_cols(schema, *k)));
    }
    for k in &keys.ckeys {
        out.insert(format!("ckey:{}", render_cols(schema, *k)));
    }
    out
}

/// From-scratch fact set of a table: the minimal possible/certain FDs
/// (one fact per RHS attribute) and minimal possible/certain keys, all
/// bounded by `max_lhs`. This is the reference the hub's incremental
/// shadow state must agree with — harness stream-soundness checks mine
/// a table at an oplog prefix through this function and confirm every
/// streamed event against consecutive prefixes. Output is exactly what
/// a *default* subscriber sees; weak subscribers verify against
/// [`table_facts_with`] instead.
pub fn table_facts(table: &Table, max_lhs: usize) -> BTreeSet<String> {
    table_facts_with(table, max_lhs, false)
}

/// [`table_facts`] with the weak plane included: `include_weak` adds a
/// `wfd:` fact per RHS attribute of each minimal weak FD.
pub fn table_facts_with(table: &Table, max_lhs: usize, include_weak: bool) -> BTreeSet<String> {
    let pfds = mine_fds(
        table,
        MinerConfig::new(Semantics::Possible).with_max_lhs(max_lhs),
    )
    .fds;
    let cfds = mine_fds(
        table,
        MinerConfig::new(Semantics::Certain).with_max_lhs(max_lhs),
    )
    .fds;
    let wfds = include_weak.then(|| {
        mine_fds(
            table,
            MinerConfig::new(Semantics::Weak).with_max_lhs(max_lhs),
        )
        .fds
    });
    let keys = mine_keys_budgeted(table, max_lhs, DEFAULT_CACHE_BUDGET);
    facts_from_parts(table.schema(), &pfds, &cfds, wfds.as_deref(), &keys)
}

/// The hub always mines the full plane (weak included); subscriber
/// filtering decides who sees the `wfd:` lines.
fn miner_facts(m: &mut IncrementalMiner, max_lhs: usize) -> BTreeSet<String> {
    let pfds = m.mine_fds(Semantics::Possible, max_lhs, DEFAULT_CACHE_BUDGET);
    let cfds = m.mine_fds(Semantics::Certain, max_lhs, DEFAULT_CACHE_BUDGET);
    let wfds = m.mine_fds(Semantics::Weak, max_lhs, DEFAULT_CACHE_BUDGET);
    let keys = m.mine_keys(max_lhs, DEFAULT_CACHE_BUDGET);
    let schema = m.schema().clone();
    facts_from_parts(&schema, &pfds, &cfds, Some(&wfds), &keys)
}

/// Messages into the hub thread. Frames, registrations and barriers
/// travel the same FIFO channel, so the hub's serial processing order
/// defines each subscription's exact baseline point.
#[derive(Debug)]
pub(crate) enum HubMsg {
    /// A durable commit batch: `(epoch, payload)` pairs in epoch order.
    Batch(Vec<(u64, String)>),
    /// A new subscriber.
    Register(Arc<SubscriberShared>),
    /// A subscriber dropped its handle.
    Unregister(u64),
    /// Test/smoke fence: reply once all prior messages are processed.
    Barrier(Sender<()>),
}

/// State shared between a [`Subscription`] handle and the hub.
#[derive(Debug)]
pub(crate) struct SubscriberShared {
    id: u64,
    filter: Option<String>,
    /// Receive `wfd:` weak-FD facts (`WATCH <t|*> weak`).
    weak: bool,
    cap: usize,
    queue: Mutex<VecDeque<String>>,
    dropped: AtomicU64,
    reported: AtomicU64,
    closed: AtomicBool,
}

impl SubscriberShared {
    fn watches(&self, table: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| f == table)
    }

    fn push(&self, line: String) {
        let mut q = self.queue.lock().unwrap();
        if q.len() >= self.cap {
            drop(q);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            sqlnf_obs::count!("serve.watch.dropped");
        } else {
            q.push_back(line);
        }
    }
}

/// A live subscription. Dropping it (or the session that owns it)
/// unregisters from the hub; queued events are discarded.
#[derive(Debug)]
pub struct Subscription {
    shared: Arc<SubscriberShared>,
    tx: Sender<HubMsg>,
}

impl Subscription {
    /// Pop every queued event line. If the hub dropped events since the
    /// last drain, a trailing `LAGGED <n>` line reports the gap (the
    /// dropped events are newer than the drained ones).
    pub fn drain(&self) -> Vec<String> {
        let mut out: Vec<String> = {
            let mut q = self.shared.queue.lock().unwrap();
            q.drain(..).collect()
        };
        let dropped = self.shared.dropped.load(Ordering::Relaxed);
        let reported = self.shared.reported.load(Ordering::Relaxed);
        if dropped > reported {
            self.shared.reported.store(dropped, Ordering::Relaxed);
            out.push(format!("LAGGED {}", dropped - reported));
        }
        out
    }

    /// Total events ever dropped for this subscriber.
    pub fn lagged(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// The table filter, or `None` for all tables.
    pub fn filter(&self) -> Option<&str> {
        self.shared.filter.as_deref()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        let _ = self.tx.send(HubMsg::Unregister(self.shared.id));
    }
}

/// Owner handle for a store's hub thread. The thread exits when every
/// sender (the handle plus the WAL's listener) is dropped.
#[derive(Debug)]
pub struct WatchHub {
    tx: Sender<HubMsg>,
    next_id: AtomicU64,
    queue_cap: usize,
}

impl WatchHub {
    /// Spawn the hub. `preamble` scripts (recovered history) seed the
    /// shadow state without emitting events; `cursor` is the first
    /// epoch the live store will commit (`GroupWal::epoch_next()` at
    /// store construction).
    pub(crate) fn spawn(preamble: Vec<String>, cursor: u64, queue_cap: usize) -> WatchHub {
        let (tx, rx) = mpsc::channel();
        thread::Builder::new()
            .name("sqlnf-watch".into())
            .spawn(move || hub_main(rx, preamble, cursor))
            .expect("spawn watch hub");
        WatchHub {
            tx,
            next_id: AtomicU64::new(1),
            queue_cap,
        }
    }

    /// A sender for the WAL commit path.
    pub(crate) fn sender(&self) -> Sender<HubMsg> {
        self.tx.clone()
    }

    /// Register a subscriber; `filter` limits it to one table. The
    /// subscriber sees the default fact plane (no `wfd:` lines).
    pub fn subscribe(&self, filter: Option<String>) -> Subscription {
        self.subscribe_opts(filter, false)
    }

    /// [`subscribe`](Self::subscribe) with the weak plane opt-in:
    /// `weak` subscribers additionally receive `wfd:` fact events.
    pub fn subscribe_opts(&self, filter: Option<String>, weak: bool) -> Subscription {
        let shared = Arc::new(SubscriberShared {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            filter,
            weak,
            cap: self.queue_cap,
            queue: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            reported: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let _ = self.tx.send(HubMsg::Register(shared.clone()));
        Subscription {
            shared,
            tx: self.tx.clone(),
        }
    }

    /// Block until the hub has processed every message sent before this
    /// call. Deterministic fence for tests and the CI smoke: after a
    /// barrier, every durable epoch notified so far is reflected in
    /// subscriber queues.
    pub fn barrier(&self) {
        let (tx, rx) = mpsc::channel();
        if self.tx.send(HubMsg::Barrier(tx)).is_ok() {
            let _ = rx.recv();
        }
    }
}

struct Hub {
    /// The epoch the next frame must carry (checked, in debug builds,
    /// that epochs arrive contiguously).
    cursor: u64,
    miners: BTreeMap<String, IncrementalMiner>,
    /// Last published fact set, per *watched* table. Presence of a key
    /// is what turns mining on for that table; unwatched tables only
    /// pay the cheap delta apply.
    facts: BTreeMap<String, BTreeSet<String>>,
    subs: Vec<Arc<SubscriberShared>>,
}

fn hub_main(rx: Receiver<HubMsg>, preamble: Vec<String>, cursor: u64) {
    let mut hub = Hub {
        cursor,
        miners: BTreeMap::new(),
        facts: BTreeMap::new(),
        subs: Vec::new(),
    };
    for src in &preamble {
        hub.apply_script(src, None);
    }
    while let Ok(msg) = rx.recv() {
        match msg {
            HubMsg::Batch(frames) => {
                for (epoch, payload) in frames {
                    debug_assert_eq!(epoch, hub.cursor, "commit epochs must be contiguous");
                    hub.cursor = epoch + 1;
                    hub.apply_script(&payload, Some(epoch));
                }
            }
            HubMsg::Register(sub) => hub.register(sub),
            HubMsg::Unregister(id) => hub.unregister(id),
            HubMsg::Barrier(done) => {
                let _ = done.send(());
            }
        }
    }
}

impl Hub {
    fn watched(&self, table: &str) -> bool {
        self.subs
            .iter()
            .any(|s| !s.closed.load(Ordering::Relaxed) && s.watches(table))
    }

    /// Apply one committed script to the shadow state. With
    /// `epoch = None` (recovery preamble) state is updated silently;
    /// otherwise watched tables are re-mined and fact diffs published.
    fn apply_script(&mut self, src: &str, epoch: Option<u64>) {
        // Frames were parsed and admitted by the server before they
        // were logged, so a parse failure here can only mean a torn
        // payload; skip it rather than poison the hub.
        let Ok(stmts) = parse_script(src) else { return };
        for stmt in stmts {
            match stmt {
                Statement::CreateTable { schema, .. } => {
                    let name = schema.name().to_string();
                    self.miners
                        .insert(name.clone(), IncrementalMiner::new(schema));
                    if let Some(e) = epoch {
                        if self.watched(&name) {
                            // Baseline is "table absent" = no facts;
                            // the empty table's trivial facts stream
                            // as the creation event.
                            self.facts.insert(name.clone(), BTreeSet::new());
                            self.publish(e, &name);
                        }
                    }
                }
                Statement::Insert { table, rows } => {
                    let applied = match self.miners.get_mut(&table) {
                        Some(m) => {
                            for t in rows {
                                m.insert(t);
                            }
                            true
                        }
                        None => false,
                    };
                    if applied {
                        if let Some(e) = epoch {
                            if self.facts.contains_key(&table) {
                                self.publish(e, &table);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Re-mine `table` and stream the fact diff for `epoch`.
    fn publish(&mut self, epoch: u64, table: &str) {
        let now = match self.miners.get_mut(table) {
            Some(miner) => miner_facts(miner, WATCH_MAX_LHS),
            None => return,
        };
        let before = self.facts.get(table).cloned().unwrap_or_default();
        if now != before {
            // Each line is tagged with whether it belongs to the
            // weak-opt-in plane; default subscribers skip those, so
            // their streams are byte-identical to a weak-unaware hub's.
            let mut lines: Vec<(bool, String)> = Vec::new();
            for fact in before.difference(&now) {
                let line = WatchEvent {
                    epoch,
                    table: table.to_string(),
                    appeared: false,
                    fact: fact.clone(),
                }
                .line();
                lines.push((is_weak_fact(fact), line));
            }
            for fact in now.difference(&before) {
                let line = WatchEvent {
                    epoch,
                    table: table.to_string(),
                    appeared: true,
                    fact: fact.clone(),
                }
                .line();
                lines.push((is_weak_fact(fact), line));
            }
            sqlnf_obs::count!("serve.watch.events", lines.len() as u64);
            for sub in &self.subs {
                if !sub.closed.load(Ordering::Relaxed) && sub.watches(table) {
                    for (weak_fact, line) in &lines {
                        if *weak_fact && !sub.weak {
                            continue;
                        }
                        sub.push(line.clone());
                    }
                }
            }
        }
        self.facts.insert(table.to_string(), now);
    }

    fn register(&mut self, sub: Arc<SubscriberShared>) {
        // Baseline silently: the subscriber starts from the fact set at
        // the current cursor and only sees diffs for later epochs.
        for (name, miner) in self.miners.iter_mut() {
            if sub.watches(name) && !self.facts.contains_key(name) {
                let baseline = miner_facts(miner, WATCH_MAX_LHS);
                self.facts.insert(name.clone(), baseline);
            }
        }
        self.subs.push(sub);
    }

    fn unregister(&mut self, id: u64) {
        self.subs
            .retain(|s| s.id != id && !s.closed.load(Ordering::Relaxed));
        // Stop mining tables nobody watches any more.
        let keep: Vec<String> = self
            .facts
            .keys()
            .filter(|name| self.watched(name))
            .cloned()
            .collect();
        self.facts.retain(|name, _| keep.contains(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(epoch: u64, payload: &str) -> (u64, String) {
        (epoch, payload.to_string())
    }

    fn send(hub: &WatchHub, frames: Vec<(u64, String)>) {
        hub.sender().send(HubMsg::Batch(frames)).unwrap();
    }

    #[test]
    fn event_line_round_trips() {
        let ev = WatchEvent {
            epoch: 42,
            table: "t".into(),
            appeared: true,
            fact: "pfd:a,b->c".into(),
        };
        assert_eq!(ev.line(), "EVENT 42 t +pfd:a,b->c");
        assert_eq!(WatchEvent::parse(&ev.line()), Some(ev.clone()));
        let gone = WatchEvent {
            appeared: false,
            ..ev
        };
        assert_eq!(WatchEvent::parse(&gone.line()), Some(gone));
        assert_eq!(WatchEvent::parse("OK 0 fine"), None);
    }

    #[test]
    fn streamed_facts_match_from_scratch_prefixes() {
        let stmts = [
            "CREATE TABLE t (a INT, b INT, c INT);",
            "INSERT INTO t VALUES (1, 1, 1);",
            "INSERT INTO t VALUES (1, 2, 1);",
            "INSERT INTO t VALUES (2, 2, NULL);",
            "INSERT INTO t VALUES (2, 2, 2);",
        ];
        let hub = WatchHub::spawn(Vec::new(), 1, DEFAULT_WATCH_QUEUE);
        let sub = hub.subscribe(Some("t".into()));
        send(
            &hub,
            stmts
                .iter()
                .enumerate()
                .map(|(i, s)| frame(i as u64 + 1, s))
                .collect(),
        );
        hub.barrier();
        // Replay the same prefixes from scratch and diff.
        let mut expected = Vec::new();
        let mut db = Database::new();
        let mut before = BTreeSet::new();
        for (i, s) in stmts.iter().enumerate() {
            db.run_script(s).unwrap();
            let now = table_facts(db.table("t").unwrap().data(), WATCH_MAX_LHS);
            for fact in before.difference(&now) {
                expected.push(format!("EVENT {} t -{fact}", i + 1));
            }
            for fact in now.difference(&before) {
                expected.push(format!("EVENT {} t +{fact}", i + 1));
            }
            before = now;
        }
        assert_eq!(sub.drain(), expected);
    }

    #[test]
    fn weak_subscriber_streams_match_weak_from_scratch_prefixes() {
        let stmts = [
            "CREATE TABLE t (a INT, b INT, c INT);",
            "INSERT INTO t VALUES (1, 1, 1);",
            "INSERT INTO t VALUES (1, NULL, 1);",
            "INSERT INTO t VALUES (1, 2, NULL);",
            "INSERT INTO t VALUES (2, 2, 2);",
        ];
        let hub = WatchHub::spawn(Vec::new(), 1, DEFAULT_WATCH_QUEUE);
        let weak_sub = hub.subscribe_opts(Some("t".into()), true);
        let plain_sub = hub.subscribe(Some("t".into()));
        send(
            &hub,
            stmts
                .iter()
                .enumerate()
                .map(|(i, s)| frame(i as u64 + 1, s))
                .collect(),
        );
        hub.barrier();
        // Replay the prefixes from scratch, once per plane, and diff.
        let mut expect_weak = Vec::new();
        let mut expect_plain = Vec::new();
        let mut db = Database::new();
        let (mut before_weak, mut before_plain) = (BTreeSet::new(), BTreeSet::new());
        for (i, s) in stmts.iter().enumerate() {
            db.run_script(s).unwrap();
            let data = db.table("t").unwrap().data();
            for (include_weak, before, expected) in [
                (true, &mut before_weak, &mut expect_weak),
                (false, &mut before_plain, &mut expect_plain),
            ] {
                let now = table_facts_with(data, WATCH_MAX_LHS, include_weak);
                for fact in before.difference(&now) {
                    expected.push(format!("EVENT {} t -{fact}", i + 1));
                }
                for fact in now.difference(before) {
                    expected.push(format!("EVENT {} t +{fact}", i + 1));
                }
                *before = now;
            }
        }
        let weak_lines = weak_sub.drain();
        assert!(
            weak_lines.iter().any(|l| l.contains("+wfd:")),
            "weak plane emitted nothing: {weak_lines:?}"
        );
        assert_eq!(weak_lines, expect_weak);
        // The default subscriber's stream is byte-identical to a
        // weak-unaware hub's: no wfd lines, same ordering.
        let plain_lines = plain_sub.drain();
        assert!(plain_lines.iter().all(|l| !l.contains("wfd:")));
        assert_eq!(plain_lines, expect_plain);
    }

    #[test]
    fn bounded_queue_lags_and_reports_once() {
        let hub = WatchHub::spawn(Vec::new(), 1, 4);
        let sub = hub.subscribe(None);
        let mut frames = vec![frame(1, "CREATE TABLE t (a INT, b INT);")];
        for i in 0..20u64 {
            frames.push(frame(
                i + 2,
                &format!("INSERT INTO t VALUES ({}, {});", i % 3, i),
            ));
        }
        send(&hub, frames);
        hub.barrier();
        let lines = sub.drain();
        assert_eq!(lines.len(), 5, "4 queued events + LAGGED: {lines:?}");
        let last = lines.last().unwrap();
        assert!(last.starts_with("LAGGED "), "{last}");
        let n: u64 = last["LAGGED ".len()..].parse().unwrap();
        assert_eq!(n, sub.lagged());
        assert!(n > 0);
        // Drained and reported: a second drain is empty, no LAGGED spam.
        assert!(sub.drain().is_empty());
    }

    #[test]
    fn filtered_subscriber_only_sees_its_table() {
        let hub = WatchHub::spawn(Vec::new(), 1, DEFAULT_WATCH_QUEUE);
        let sub = hub.subscribe(Some("u".into()));
        send(
            &hub,
            vec![
                frame(1, "CREATE TABLE t (a INT, b INT);"),
                frame(2, "CREATE TABLE u (x INT, y INT);"),
                frame(3, "INSERT INTO t VALUES (1, 1);"),
                frame(4, "INSERT INTO u VALUES (7, 7);"),
            ],
        );
        hub.barrier();
        let events: Vec<WatchEvent> = sub
            .drain()
            .iter()
            .map(|l| WatchEvent::parse(l).unwrap())
            .collect();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.table == "u"));
    }

    #[test]
    fn preamble_seeds_baseline_without_events() {
        let hub = WatchHub::spawn(
            vec![
                "CREATE TABLE t (a INT, b INT);".to_string(),
                "INSERT INTO t VALUES (1, 1);".to_string(),
            ],
            3,
            DEFAULT_WATCH_QUEUE,
        );
        let sub = hub.subscribe(None);
        hub.barrier();
        assert!(sub.drain().is_empty(), "recovered history is the baseline");
        send(&hub, vec![frame(3, "INSERT INTO t VALUES (1, 2);")]);
        hub.barrier();
        let lines = sub.drain();
        assert!(
            lines.contains(&"EVENT 3 t -pfd:->b".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn drop_unregisters_and_disables_mining() {
        let hub = WatchHub::spawn(Vec::new(), 1, DEFAULT_WATCH_QUEUE);
        let sub = hub.subscribe(None);
        send(&hub, vec![frame(1, "CREATE TABLE t (a INT, b INT);")]);
        hub.barrier();
        assert!(!sub.drain().is_empty());
        drop(sub);
        let sub2 = hub.subscribe(Some("other".into()));
        send(&hub, vec![frame(2, "INSERT INTO t VALUES (1, 1);")]);
        hub.barrier();
        assert!(sub2.drain().is_empty());
    }
}
