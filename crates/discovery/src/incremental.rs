//! Incremental FD/key discovery over a growing instance.
//!
//! The from-scratch miner ([`crate::mine`]) re-walks the whole candidate
//! lattice per call. Under the serve tier's write traffic that is pure
//! waste: the instance only grows (the wire carries `INSERT`, never
//! `UPDATE` or `DELETE`), and an admitted row can only *break* FDs/keys
//! that held — it adds pairs and never removes one. This module keeps a
//! verdict cache over the explored candidate frontier, so a `MINE`
//! after `k` admissions costs `O(k · touched candidates)` row work
//! instead of a full lattice re-run.
//!
//! ## Verdicts
//!
//! * **Refuted** is final. The violating pair stays in the instance, so
//!   a refuted candidate needs one bit, not a witness to re-check.
//! * **Holding** is stamped with the row count it was checked at. While
//!   the instance still has that many rows the verdict stands. Once
//!   more rows arrive, only pairs involving rows `stamp..len` are new,
//!   so the verdict is re-validated against those rows alone — a
//!   posting-list partner sweep, not a scan — then re-stamped or
//!   refuted.
//!
//! Everything else runs the from-scratch code itself: the FD walk is
//! [`crate::mine`]'s lattice (same candidate order, same minimality
//! bookkeeping), the key walk is [`crate::keys`]'s, and the nn/p/c/t/λ
//! split is [`crate::classify`]'s — this module only answers their
//! per-candidate questions from the verdict cache, and cache misses run
//! the from-scratch checks. So the output is byte-identical to
//! [`mine_report`] by construction: there is one walk, not a copy.
//! The differential tests in `tests/incremental_diff.rs` pin this
//! across all four semantics and random insert traces.
//!
//! ## Reconcile policy
//!
//! [`IncrementalMiner::with_reconcile_every`] arms a threshold: once
//! that many rows have been inserted since the last audit, the next
//! report *also* runs the full from-scratch pipeline and asserts
//! equivalence (panicking on any divergence). `discovery.incr.reconciles`
//! counts these audits.

use crate::cache::PartitionCtx;
use crate::check::{
    certain_reflexive_holds_cached, fd_targets_holding, is_ckey_cached, is_pkey, null_semantics,
    ProbeCache, Semantics,
};
use crate::classify::{
    mine_report, projection_ratio, render_report, split_mined, Classification, LhsFacts,
};
use crate::keys::{walk_keys, MinedKeys};
use crate::mine::{Lattice, MinedFd};
use crate::partition::{Encoded, NullSemantics};
use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::schema::TableSchema;
use sqlnf_model::table::Table;
use sqlnf_model::tuple::Tuple;
use std::collections::HashMap;
use std::ops::Range;

/// A cached yes/no verdict about one candidate attribute set.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// Holds over the first `n` rows.
    Holds(usize),
    /// Refuted; final, since rows are never removed.
    Fails,
}

impl Verdict {
    fn of(holds: bool, rows: usize) -> Verdict {
        if holds {
            Verdict::Holds(rows)
        } else {
            Verdict::Fails
        }
    }
}

/// Per-candidate FD verdicts, one entry per target attribute.
#[derive(Debug, Default)]
struct FdVerdict {
    /// Targets known to hold, with the row count they were checked at.
    holding: Vec<(Attr, usize)>,
    /// Targets known refuted.
    refuted: AttrSet,
}

impl FdVerdict {
    /// Records that the `checked` targets were checked over `rows` rows
    /// and that `held` of them hold.
    fn record(&mut self, checked: AttrSet, held: AttrSet, rows: usize) {
        self.refuted |= checked - held;
        self.holding.retain(|&(a, _)| !checked.contains(a));
        self.holding.extend(held.iter().map(|a| (a, rows)));
    }
}

/// Per-candidate key verdicts.
#[derive(Debug, Default)]
struct KeyVerdict {
    /// Possible-key status (strong-similarity uniqueness).
    p: Option<Verdict>,
    /// Certain-key status (weak-similarity uniqueness).
    c: Option<Verdict>,
}

/// The answer of `verdict` over `now` rows; `None` when nothing is
/// cached. A holding verdict from fewer rows is re-validated by
/// `survives(stamp..now)` — a check of the rows it has not seen — and
/// re-stamped or refuted.
fn settle(
    verdict: &mut Option<Verdict>,
    now: usize,
    touched: &mut usize,
    survives: impl FnOnce(Range<usize>) -> bool,
) -> Option<bool> {
    match (*verdict)? {
        Verdict::Fails => Some(false),
        Verdict::Holds(at) if at == now => Some(true),
        Verdict::Holds(at) => {
            *touched += 1;
            let holds = survives(at..now);
            *verdict = Some(Verdict::of(holds, now));
            Some(holds)
        }
    }
}

/// rustc-style multiplicative hasher for the hot code maps (postings
/// and delta groups): the keys are short `u32`s / code vectors, where
/// SipHash's DoS resistance buys nothing and costs most of each probe.
#[derive(Default, Clone)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

fn sem_index(sem: Semantics) -> usize {
    match sem {
        Semantics::Classical => 0,
        Semantics::Possible => 1,
        Semantics::Certain => 2,
        Semantics::Weak => 3,
    }
}

/// Incrementally-maintained discovery state for one table.
///
/// Feed it the rows the table admits ([`IncrementalMiner::insert`]);
/// ask for mined FDs, keys or the full `MINE` report at any point.
/// Reports are byte-identical to [`mine_report`] over the current rows.
pub struct IncrementalMiner {
    /// The maintained rows. Built by appends alone, its columnar codes
    /// are exactly what [`Encoded::new`] assigns a fresh copy, so a
    /// mine call wraps them in `O(arity)`.
    table: Table,
    /// Per column: code → ascending rows carrying it (code 0 = the
    /// column's ⊥ rows), over rows `0..indexed` and caught up at each
    /// mine call. The re-validation sweeps scan only the sparsest
    /// matching list instead of the whole instance.
    postings: Vec<FastMap<u32, Vec<usize>>>,
    indexed: usize,
    /// Row count at construction.
    seeded: usize,
    /// Row count at the last reconcile audit.
    reconciled_at: usize,
    reconcile_every: Option<u64>,
    /// Verdict caches per semantics
    /// (Classical/Possible/Certain/Weak).
    fd_cache: [HashMap<AttrSet, FdVerdict>; 4],
    key_cache: HashMap<AttrSet, KeyVerdict>,
    /// `X →_w X` (totality) verdicts, for the t-FD classification.
    refl_cache: HashMap<AttrSet, Option<Verdict>>,
    /// Projection-ratio memo: value + the row count it was computed at.
    ratio_cache: HashMap<AttrSet, (f64, usize)>,
}

impl IncrementalMiner {
    /// An empty maintained instance over `schema`.
    pub fn new(schema: TableSchema) -> IncrementalMiner {
        IncrementalMiner::from_table(&Table::new(schema))
    }

    /// Seeds the maintained instance from an existing table; rows keep
    /// the table's order.
    pub fn from_table(table: &Table) -> IncrementalMiner {
        // Re-appended rather than cloned: the copy owns its columns
        // (later inserts extend them in place) and its codes are
        // first-appearance ones whatever the source's history.
        let table = Table::from_rows(table.schema().clone(), table.rows().iter().cloned());
        IncrementalMiner {
            postings: vec![FastMap::default(); table.schema().arity()],
            indexed: 0,
            seeded: table.len(),
            reconciled_at: table.len(),
            reconcile_every: None,
            fd_cache: Default::default(),
            key_cache: HashMap::new(),
            refl_cache: HashMap::new(),
            ratio_cache: HashMap::new(),
            table,
        }
    }

    /// Arms the reconcile threshold: after `every` inserts the next
    /// report also runs the full pipeline and asserts equivalence.
    pub fn with_reconcile_every(mut self, every: u64) -> IncrementalMiner {
        self.reconcile_every = Some(every);
        self
    }

    /// The schema of the maintained instance.
    pub fn schema(&self) -> &TableSchema {
        self.table.schema()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no rows have been seeded or inserted.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Inserts since construction.
    pub fn deltas_applied(&self) -> u64 {
        (self.table.len() - self.seeded) as u64
    }

    /// The rows as a [`Table`], in insertion order. This is what every
    /// report mines.
    pub fn table(&self) -> Table {
        self.table.clone()
    }

    /// Appends a row, returning its row index.
    pub fn insert(&mut self, tuple: Tuple) -> usize {
        let _apply = sqlnf_obs::span!("discovery.incr.apply");
        sqlnf_obs::count!("discovery.incr.deltas");
        self.table.push(tuple);
        self.table.len() - 1
    }

    /// A transient `O(arity)` encoding of the rows for one mine call,
    /// with the postings caught up to it. Callers drop it before
    /// returning, so the next insert finds the column `Arc`s unshared
    /// and extends them in place; holding it across inserts would
    /// force a copy-on-write column clone per push.
    fn encode(&mut self) -> Encoded {
        let enc = Encoded::new(&self.table);
        for row in self.indexed..enc.rows() {
            for (ci, p) in self.postings.iter_mut().enumerate() {
                p.entry(enc.code(row, Attr::from(ci)))
                    .or_default()
                    .push(row);
            }
        }
        self.indexed = enc.rows();
        enc
    }

    /// Mines the minimal FDs under `sem`, replaying the lattice against
    /// the verdict cache. Byte-identical (content and order) to
    /// `mine_fds` over [`IncrementalMiner::table`].
    pub fn mine_fds(
        &mut self,
        sem: Semantics,
        max_lhs: usize,
        cache_budget: usize,
    ) -> Vec<MinedFd> {
        let enc = self.encode();
        let view = View::new(&enc, &self.postings);
        let mut ctx = PartitionCtx::with_budget(&enc, null_semantics(sem), cache_budget);
        let fds = view.replay_fds(&mut self.fd_cache[sem_index(sem)], &mut ctx, sem, max_lhs);
        self.note_frontier();
        fds
    }

    /// Mines the minimal p-/c-keys; identical to `mine_keys_budgeted`
    /// over [`IncrementalMiner::table`].
    pub fn mine_keys(&mut self, max_size: usize, cache_budget: usize) -> MinedKeys {
        let enc = self.encode();
        let view = View::new(&enc, &self.postings);
        let mut ctx = PartitionCtx::with_budget(&enc, NullSemantics::Strong, cache_budget);
        let keys = view.mine_keys(&mut self.key_cache, &mut ctx, max_size);
        self.note_frontier();
        keys
    }

    /// The classification + keys backing one `MINE` report — the
    /// incremental mirror of `classify_table_budgeted` +
    /// `mine_keys_budgeted`.
    pub fn classify(&mut self, max_lhs: usize, cache_budget: usize) -> (Classification, MinedKeys) {
        let enc = self.encode();
        let view = View::new(&enc, &self.postings);
        let null_free = enc.null_free_columns();
        let mut ctx = PartitionCtx::with_budget(&enc, NullSemantics::Strong, cache_budget);
        let possible = view.replay_fds(
            &mut self.fd_cache[sem_index(Semantics::Possible)],
            &mut ctx,
            Semantics::Possible,
            max_lhs,
        );
        let certain = view.replay_fds(
            &mut self.fd_cache[sem_index(Semantics::Certain)],
            &mut ctx,
            Semantics::Certain,
            max_lhs,
        );
        let mut facts = CachedFacts {
            view: &view,
            ctx: &mut ctx,
            key_cache: &mut self.key_cache,
            refl_cache: &mut self.refl_cache,
            ratio_cache: &mut self.ratio_cache,
            table: &self.table,
            touched: 0,
        };
        let out = split_mined(possible, certain, null_free, &mut facts);
        sqlnf_obs::count!("discovery.incr.candidates_touched", facts.touched);
        let keys = view.mine_keys(&mut self.key_cache, &mut ctx, max_lhs);
        self.note_frontier();
        (out, keys)
    }

    /// The `MINE` report over the rows, byte-identical to
    /// [`mine_report`] over [`IncrementalMiner::table`]. When the
    /// reconcile threshold is armed and tripped, also runs the full
    /// from-scratch pipeline and asserts equivalence.
    pub fn report(&mut self, name: &str, max_lhs: usize, cache_budget: usize) -> String {
        let due = self
            .reconcile_every
            .is_some_and(|n| (self.table.len() - self.reconciled_at) as u64 >= n);
        if due {
            return self.reconcile(name, max_lhs, cache_budget);
        }
        let (cls, keys) = self.classify(max_lhs, cache_budget);
        render_report(name, self.len(), self.schema(), max_lhs, &cls, &keys)
    }

    /// Full-pipeline audit: runs both the incremental replay and the
    /// from-scratch mine, asserts they render the same report, resets
    /// the reconcile counter, and returns the report. Panics on any
    /// divergence — an incremental-state bug must never ship a wrong
    /// answer silently.
    pub fn reconcile(&mut self, name: &str, max_lhs: usize, cache_budget: usize) -> String {
        sqlnf_obs::count!("discovery.incr.reconciles");
        let (cls, keys) = self.classify(max_lhs, cache_budget);
        let incr = render_report(name, self.len(), self.schema(), max_lhs, &cls, &keys);
        let full = mine_report(name, &self.table, max_lhs, cache_budget);
        assert_eq!(
            incr,
            full,
            "incremental reconcile mismatch on {name} after {} deltas",
            self.deltas_applied()
        );
        self.reconciled_at = self.table.len();
        incr
    }

    fn note_frontier(&self) {
        let frontier: usize = self.fd_cache.iter().map(HashMap::len).sum::<usize>()
            + self.key_cache.len()
            + self.refl_cache.len();
        sqlnf_obs::count_max!("discovery.incr.frontier_size", frontier);
    }
}

/// What one mine call reads: the encoded rows, their postings and the
/// weak-pair probe cache.
struct View<'a> {
    enc: &'a Encoded,
    postings: &'a [FastMap<u32, Vec<usize>>],
    probes: ProbeCache,
}

/// [`LhsFacts`] answered from the verdict caches: a c-key or totality
/// verdict is settled against the rows it has not seen, a projection
/// ratio is recomputed only when rows arrived.
struct CachedFacts<'v, 'a> {
    view: &'v View<'a>,
    ctx: &'v mut PartitionCtx<'a>,
    key_cache: &'v mut HashMap<AttrSet, KeyVerdict>,
    refl_cache: &'v mut HashMap<AttrSet, Option<Verdict>>,
    ratio_cache: &'v mut HashMap<AttrSet, (f64, usize)>,
    table: &'v Table,
    touched: usize,
}

impl LhsFacts for CachedFacts<'_, '_> {
    fn is_ckey(&mut self, x: AttrSet) -> bool {
        let (_, ckey) = self
            .view
            .key_status(self.key_cache, self.ctx, x, &mut self.touched);
        ckey
    }

    fn is_total(&mut self, x: AttrSet) -> bool {
        self.view.is_total(self.refl_cache, x, &mut self.touched)
    }

    fn ratio(&mut self, attrs: AttrSet) -> f64 {
        let rows = self.table.len();
        match self.ratio_cache.get(&attrs) {
            Some(&(ratio, at)) if at == rows => ratio,
            _ => {
                let ratio = projection_ratio(self.table, attrs);
                self.ratio_cache.insert(attrs, (ratio, rows));
                ratio
            }
        }
    }
}

/// The code projection of row `row` onto `attrs`, written into `buf`.
fn key_on(enc: &Encoded, row: usize, attrs: AttrSet, buf: &mut Vec<u32>) {
    buf.clear();
    for a in attrs {
        buf.push(enc.code(row, a));
    }
}

/// Folds one row into the weak-semantics tracking state: `tracked`
/// holds, per target, the first non-null code seen (0 = none yet); a
/// later row with a *different* non-null code is a genuine violating
/// pair (no completion can reconcile two present, distinct values) and
/// marks the target `dead`. Rows with ⊥ on a target are skipped — the
/// weak completion absorbs them.
fn weak_note_row(enc: &Encoded, row: usize, tracked: &mut [(Attr, u32)], dead: &mut AttrSet) {
    for (a, seen) in tracked.iter_mut() {
        let c = enc.code(row, *a);
        if c == 0 || dead.contains(*a) {
            continue;
        }
        if *seen == 0 {
            *seen = c;
        } else if *seen != c {
            dead.insert(*a);
        }
    }
}

impl<'a> View<'a> {
    fn new(enc: &'a Encoded, postings: &'a [FastMap<u32, Vec<usize>>]) -> View<'a> {
        View {
            enc,
            postings,
            probes: ProbeCache::new(enc),
        }
    }

    /// The shortest posting list among `x`'s columns for the code
    /// vector `kv` (parallel to `x`'s iteration order); `None` when
    /// some column has no row carrying the required code — no partner
    /// can match at all.
    fn sparsest_posting(&self, x: AttrSet, kv: &[u32]) -> Option<&'a Vec<usize>> {
        let postings = self.postings;
        let mut best: Option<&'a Vec<usize>> = None;
        for (i, a) in x.iter().enumerate() {
            let list = postings[a.index()].get(&kv[i])?;
            if best.is_none_or(|b: &Vec<usize>| list.len() < b.len()) {
                best = Some(list);
            }
        }
        best
    }

    /// Groups `delta` by its code vector on `x` (⊥ is code 0): equal
    /// projections have identical partner sets, so they share one
    /// probe. Under `Possible` and `Weak`, x-incomplete rows are
    /// dropped — ⊥ is strongly similar to nothing, and the weak
    /// completion isolates such rows with fresh values.
    fn delta_groups(
        &self,
        delta: Range<usize>,
        x: AttrSet,
        sem: Semantics,
    ) -> FastMap<Vec<u32>, Vec<usize>> {
        let mut key = Vec::new();
        let mut groups: FastMap<Vec<u32>, Vec<usize>> = FastMap::default();
        for r in delta {
            if matches!(sem, Semantics::Possible | Semantics::Weak) && !self.enc.is_total_on(r, x) {
                continue;
            }
            key_on(self.enc, r, x, &mut key);
            match groups.get_mut(key.as_slice()) {
                Some(g) => g.push(r),
                None => {
                    groups.insert(key.clone(), vec![r]);
                }
            }
        }
        groups
    }

    /// Visits every row `sem`-similar on `x` to the projection `kv`
    /// (carried by delta row `r0`), charging each visit to `scanned`.
    /// Stops — returning `false` — when `f` does. The visited rows
    /// include `r0` itself and any other delta row with a similar
    /// projection; callers decide whether self-pairs matter.
    ///
    /// Partners come from the posting lists, so work is proportional to
    /// the classes the projection actually lands in — not to the
    /// instance. This is what makes a re-mine after a small delta cheap
    /// in *wall clock*, not just in rows scanned.
    fn for_each_partner(
        &self,
        x: AttrSet,
        kv: &[u32],
        r0: usize,
        sem: Semantics,
        scanned: &mut usize,
        mut f: impl FnMut(usize) -> bool,
    ) -> bool {
        let (enc, postings) = (self.enc, self.postings);
        match sem {
            Semantics::Classical | Semantics::Possible | Semantics::Weak => {
                // Similarity is plain code equality on `x`: scan the
                // sparsest matching posting list, verifying the other
                // columns directly. A classical ⊥ is the ordinary code
                // 0, so a zero entry correctly demands fellow nulls; a
                // possible or weak projection is x-total (incomplete
                // delta rows were dropped), so any row matching its
                // all-nonzero codes is too.
                let Some(list) = self.sparsest_posting(x, kv) else {
                    return true;
                };
                for &s in list {
                    *scanned += 1;
                    if x.iter().zip(kv.iter()).all(|(a, &c)| enc.code(s, a) == c) && !f(s) {
                        return false;
                    }
                }
            }
            Semantics::Certain => {
                // Weak similarity: agreement wherever both rows are
                // non-null on `x`. On a column where `kv` is non-null a
                // partner either shares the code or is ⊥ there — so the
                // cheapest match∪null posting pair bounds the scan and
                // the remaining columns are verified pairwise. A
                // projection that is ⊥ on all of `x` is weakly similar
                // to everything and must scan the whole instance
                // (bounded by such rows in the delta).
                let mut choice: Option<(Attr, u32, usize)> = None;
                for (i, a) in x.iter().enumerate() {
                    let c = kv[i];
                    if c == 0 {
                        continue;
                    }
                    let len = postings[a.index()].get(&c).map_or(0, Vec::len)
                        + postings[a.index()].get(&0).map_or(0, Vec::len);
                    if choice.is_none_or(|(_, _, best)| len < best) {
                        choice = Some((a, c, len));
                    }
                }
                match choice {
                    None => {
                        for s in 0..enc.rows() {
                            *scanned += 1;
                            if !f(s) {
                                return false;
                            }
                        }
                    }
                    Some((a, c, _)) => {
                        let lists = [postings[a.index()].get(&c), postings[a.index()].get(&0)];
                        for &s in lists.into_iter().flatten().flatten() {
                            *scanned += 1;
                            if enc.weakly_similar(r0, s, x) && !f(s) {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        true
    }

    /// Visits every `sem`-similar pair `(r, s)` with `r` drawn from
    /// `delta` — exactly the pairs that a verdict predating the delta
    /// rows has never seen. Calls `f` for each; stops early — and
    /// returns `false` — when `f` returns `false`. A pair with both
    /// rows in `delta` may be visited in both orientations; callers
    /// hunt for a single violation, so the duplicate is harmless. Rows
    /// visited are charged to `discovery.partition.rows_scanned` like
    /// every other check path.
    fn for_each_delta_pair(
        &self,
        delta: Range<usize>,
        x: AttrSet,
        sem: Semantics,
        mut f: impl FnMut(usize, usize) -> bool,
    ) -> bool {
        if delta.is_empty() {
            return true;
        }
        if x.is_empty() {
            // Similarity on ∅ is vacuous: every pair qualifies. Only
            // the empty key candidate lands here, and it dies to the
            // first pair, so the scan is O(1) in practice.
            let mut scanned = 0usize;
            let complete = delta.into_iter().all(|r| {
                (0..self.enc.rows()).all(|s| {
                    scanned += 1;
                    r == s || f(r, s)
                })
            });
            sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
            return complete;
        }
        let mut scanned = delta.len();
        let groups = self.delta_groups(delta, x, sem);
        let complete = groups.iter().all(|(kv, group)| {
            self.for_each_partner(x, kv, group[0], sem, &mut scanned, |s| {
                group.iter().all(|&r| r == s || f(r, s))
            })
        });
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        complete
    }

    /// The subset of `targets` of `X → ·` that survives every pair with
    /// a row in `delta`. Sound for targets that held before the delta
    /// rows arrived: those pairs are the only new ones.
    fn targets_surviving(
        &self,
        delta: Range<usize>,
        x: AttrSet,
        targets: AttrSet,
        sem: Semantics,
    ) -> AttrSet {
        let enc = self.enc;
        let mut holding = targets;
        if delta.is_empty() {
            return holding;
        }
        if x.is_empty() {
            // `∅ → A`: every pair is similar under every semantics, so
            // the FD survives iff the column is still constant — one
            // early-exit column scan. Weakly, "constant" tolerates ⊥:
            // only two distinct non-null codes kill the target.
            let mut scanned = 0usize;
            if sem == Semantics::Weak {
                let mut tracked: Vec<(Attr, u32)> = holding.iter().map(|a| (a, 0)).collect();
                let mut dead = AttrSet::EMPTY;
                for s in 0..enc.rows() {
                    scanned += 1;
                    weak_note_row(enc, s, &mut tracked, &mut dead);
                    if dead == holding {
                        break;
                    }
                }
                holding = holding - dead;
            } else {
                for s in 1..enc.rows() {
                    scanned += 1;
                    holding = holding
                        .iter()
                        .filter(|&a| enc.code(s, a) == enc.code(0, a))
                        .collect();
                    if holding.is_empty() {
                        break;
                    }
                }
            }
            sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
            return holding;
        }
        let mut scanned = delta.len();
        let groups = self.delta_groups(delta, x, sem);
        for (kv, group) in &groups {
            if holding.is_empty() {
                break;
            }
            let r0 = group[0];
            if sem == Semantics::Weak {
                // Weakly, a class stays repairable while its non-null
                // codes per target agree; the r0-homogeneity shortcut
                // below is unsound here (r0 may carry ⊥ on a target two
                // partners disagree on non-null), so track the first
                // non-null code per target across group and partners.
                let mut tracked: Vec<(Attr, u32)> = holding.iter().map(|a| (a, 0)).collect();
                let mut dead = AttrSet::EMPTY;
                for &m in group {
                    weak_note_row(enc, m, &mut tracked, &mut dead);
                }
                if dead != holding {
                    self.for_each_partner(x, kv, r0, sem, &mut scanned, |s| {
                        weak_note_row(enc, s, &mut tracked, &mut dead);
                        dead != holding
                    });
                }
                holding = holding - dead;
                continue;
            }
            // Group members are pairwise similar on `x`, so a target
            // they disagree on dies to a member pair — and the
            // survivors are group-homogeneous, which lets the partner
            // scan below compare each row once against `r0` instead of
            // once per member.
            holding = holding
                .iter()
                .filter(|&a| group.iter().all(|&m| enc.code(m, a) == enc.code(r0, a)))
                .collect();
            if holding.is_empty() {
                break;
            }
            self.for_each_partner(x, kv, r0, sem, &mut scanned, |s| {
                holding = holding
                    .iter()
                    .filter(|&a| enc.code(s, a) == enc.code(r0, a))
                    .collect();
                !holding.is_empty()
            });
        }
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        holding
    }

    /// Walks [`crate::mine`]'s FD lattice against the verdict cache:
    /// only the per-candidate check is short-circuited by valid
    /// verdicts, so the returned FDs are identical to `mine_fds` over
    /// the same rows.
    fn replay_fds(
        &self,
        cache: &mut HashMap<AttrSet, FdVerdict>,
        ctx: &mut PartitionCtx<'_>,
        sem: Semantics,
        max_lhs: usize,
    ) -> Vec<MinedFd> {
        let now = self.enc.rows();
        let mut lattice = Lattice::new(self.postings.len()); // one posting map per column
        let mut touched = 0usize;

        for k in 0..=lattice.last_level(max_lhs) {
            if k >= 2 {
                ctx.evict_below(k - 1);
            }
            let (candidates, _) = lattice.candidates(k);
            for (x, targets) in candidates {
                let v = cache.entry(x).or_default();
                let mut holding = AttrSet::EMPTY;
                let mut stale = AttrSet::EMPTY;
                let mut stale_since = now;
                let mut unknown = AttrSet::EMPTY;
                for a in targets - v.refuted {
                    match v.holding.iter().find(|&&(b, _)| b == a) {
                        Some(&(_, at)) if at == now => holding.insert(a),
                        Some(&(_, at)) => {
                            stale_since = stale_since.min(at);
                            stale.insert(a)
                        }
                        None => unknown.insert(a),
                    };
                }
                if !stale.is_empty() {
                    // Held over fewer rows: check the newer rows' pairs
                    // instead of rechecking the whole candidate.
                    touched += 1;
                    let held = self.targets_surviving(stale_since..now, x, stale, sem);
                    v.record(stale, held, now);
                    holding |= held;
                }
                if !unknown.is_empty() {
                    touched += 1;
                    let p = ctx.partition(x);
                    let held = fd_targets_holding(self.enc, x, &p, unknown, sem, &self.probes);
                    v.record(unknown, held, now);
                    holding |= held;
                }
                lattice.record(x, holding);
            }
        }
        sqlnf_obs::count!("discovery.incr.candidates_touched", touched);
        lattice.into_fds()
    }

    /// Walks [`crate::keys`]'s key lattice with [`View::key_status`] as
    /// the status source; identical output to `mine_keys_budgeted` over
    /// the same rows.
    fn mine_keys(
        &self,
        cache: &mut HashMap<AttrSet, KeyVerdict>,
        ctx: &mut PartitionCtx<'_>,
        max_size: usize,
    ) -> MinedKeys {
        let mut touched = 0usize;
        let keys = walk_keys(ctx, self.postings.len(), max_size, |ctx, x, _, _| {
            self.key_status(cache, ctx, x, &mut touched)
        });
        sqlnf_obs::count!("discovery.incr.candidates_touched", touched);
        keys
    }

    /// Cached p-key/c-key status of `x`. A key dies only to a new
    /// similar pair, so a stale verdict probes just the newer rows.
    fn key_status(
        &self,
        cache: &mut HashMap<AttrSet, KeyVerdict>,
        ctx: &mut PartitionCtx<'_>,
        x: AttrSet,
        touched: &mut usize,
    ) -> (bool, bool) {
        let now = self.enc.rows();
        let v = cache.entry(x).or_default();
        let p_known = settle(&mut v.p, now, touched, |delta| {
            self.for_each_delta_pair(delta, x, Semantics::Possible, |_, _| false)
        });
        let c_known = settle(&mut v.c, now, touched, |delta| {
            self.for_each_delta_pair(delta, x, Semantics::Certain, |_, _| false)
        });
        if let (Some(p), Some(c)) = (p_known, c_known) {
            return (p, c);
        }
        *touched += 1;
        let strong = ctx.partition(x);
        let p_is = p_known.unwrap_or_else(|| {
            let holds = is_pkey(&strong);
            v.p = Some(Verdict::of(holds, now));
            holds
        });
        let c_is = c_known.unwrap_or_else(|| {
            let holds = is_ckey_cached(self.enc, &self.probes, x, &strong);
            v.c = Some(Verdict::of(holds, now));
            holds
        });
        (p_is, c_is)
    }

    /// Cached totality check `X →_w X` (Definition 9): no weakly
    /// similar pair on `X` differs on it.
    fn is_total(
        &self,
        cache: &mut HashMap<AttrSet, Option<Verdict>>,
        x: AttrSet,
        touched: &mut usize,
    ) -> bool {
        let now = self.enc.rows();
        let v = cache.entry(x).or_default();
        let holds = settle(v, now, touched, |delta| {
            self.for_each_delta_pair(delta, x, Semantics::Certain, |r, s| {
                self.enc.equal_on(r, s, x)
            })
        })
        .unwrap_or_else(|| {
            *touched += 1;
            certain_reflexive_holds_cached(self.enc, &self.probes, x)
        });
        *v = Some(Verdict::of(holds, now));
        holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::mine_keys_budgeted;
    use crate::mine::{mine_fds, MinerConfig};
    use sqlnf_model::prelude::*;

    fn sample() -> Table {
        TableBuilder::new("r", ["a", "b", "c"], &[])
            .row(tuple![1i64, 10i64, "x"])
            .row(tuple![1i64, 10i64, "y"])
            .row(tuple![2i64, 20i64, null])
            .row(tuple![3i64, null, "x"])
            .build()
    }

    fn assert_matches_scratch(m: &mut IncrementalMiner, max_lhs: usize) {
        let t = m.table();
        for sem in [
            Semantics::Classical,
            Semantics::Possible,
            Semantics::Certain,
            Semantics::Weak,
        ] {
            let scratch = mine_fds(
                &t,
                MinerConfig::new(sem).with_max_lhs(max_lhs).with_threads(1),
            );
            let incr = m.mine_fds(sem, max_lhs, crate::cache::DEFAULT_CACHE_BUDGET);
            assert_eq!(scratch.fds, incr, "{sem:?}");
        }
        let keys = mine_keys_budgeted(&t, max_lhs, crate::cache::DEFAULT_CACHE_BUDGET);
        assert_eq!(
            keys,
            m.mine_keys(max_lhs, crate::cache::DEFAULT_CACHE_BUDGET)
        );
        let report = mine_report("r", &t, max_lhs, crate::cache::DEFAULT_CACHE_BUDGET);
        assert_eq!(
            report,
            m.report("r", max_lhs, crate::cache::DEFAULT_CACHE_BUDGET)
        );
    }

    #[test]
    fn cold_start_matches_scratch() {
        let mut m = IncrementalMiner::from_table(&sample());
        assert_matches_scratch(&mut m, 3);
        // Second mine over an unchanged instance: still identical.
        assert_matches_scratch(&mut m, 3);
    }

    #[test]
    fn inserts_invalidate_holding_fds() {
        let mut m = IncrementalMiner::from_table(&sample());
        assert_matches_scratch(&mut m, 3);
        // a → b held; this insert breaks it.
        m.insert(tuple![1i64, 99i64, "z"]);
        assert_matches_scratch(&mut m, 3);
    }

    #[test]
    fn surviving_verdicts_are_restamped() {
        let mut m = IncrementalMiner::from_table(&sample());
        assert_matches_scratch(&mut m, 3);
        // A fresh key value breaks nothing that held.
        m.insert(tuple![4i64, 40i64, "w"]);
        assert_matches_scratch(&mut m, 3);
        let now = m.len();
        for cache in &m.fd_cache {
            for v in cache.values() {
                assert!(v.holding.iter().all(|&(_, at)| at == now));
            }
        }
    }

    #[test]
    fn empty_instance_reports() {
        let schema = TableSchema::new("e", ["a", "b"], &[]);
        let mut m = IncrementalMiner::new(schema);
        assert_matches_scratch(&mut m, 2);
        assert_eq!(m.insert(tuple![1i64, 2i64]), 0);
        assert_matches_scratch(&mut m, 2);
        assert_eq!(m.insert(tuple![1i64, 3i64]), 1);
        assert_matches_scratch(&mut m, 2);
    }

    #[test]
    fn reconcile_threshold_trips_and_resets() {
        sqlnf_obs::reset();
        let mut m = IncrementalMiner::from_table(&sample()).with_reconcile_every(2);
        m.insert(tuple![5i64, 50i64, "w"]);
        let _ = m.report("r", 2, crate::cache::DEFAULT_CACHE_BUDGET); // 1 delta: no audit
        assert_eq!(m.reconciled_at, 4);
        m.insert(tuple![6i64, 60i64, "v"]);
        let _ = m.report("r", 2, crate::cache::DEFAULT_CACHE_BUDGET); // 2 deltas: audit
        assert_eq!(m.reconciled_at, m.len());
    }
}
