//! Level-wise discovery of minimal non-trivial FDs, in the style of
//! TANE, under any of the four [`Semantics`].
//!
//! The miner records, per minimal LHS `X`, the set of all RHS
//! attributes `A ∉ X` such that `X → A` holds and no `Y ⊊ X` already
//! gives `Y → A` — matching the paper's counting convention ("all
//! non-trivial FDs with minimal LHSs, and only once per LHS").
//!
//! ## Level-cached partition products
//!
//! A level-`k` candidate's stripped partition is never rebuilt from
//! the rows: it is the TANE product `π_{X∖{a}} · π_{a}` of a cached
//! level-`(k−1)` partition refined by one more attribute's dictionary
//! codes, computed in one sweep of the prefix partition with a reusable
//! probe-table scratch (see [`Partition::product_attr`] — the cost is
//! proportional to the *prefix*, which shrinks as levels advance, not
//! to the table). Every immediate prefix of a candidate is
//! itself a candidate of the previous level (uncovered targets are
//! inherited downwards), so the prefix lookup misses only when the
//! byte budget ([`MinerConfig::cache_budget`]) evicted it — in which
//! case the partition is folded from the always-resident singles.
//! Levels retire as the frontier advances: only level `k−1` is kept
//! while level `k` runs. On levels whose partitions are never stored
//! (the last one) the product is fused with the FD check
//! ([`fd_targets_on_refinement`]) and aborts at the first refuting
//! row, so refuted candidates — the vast majority at depth — cost a
//! handful of row visits instead of a full sweep.
//!
//! Every batch of independent work — the singles, the last level's
//! needed prefixes, each lattice level's candidates — goes through one
//! fan-out ([`fan_out`]). With one thread it runs inline. With more,
//! scoped workers each borrow a product scratch kept for the whole run
//! and pull items off a shared atomic cursor; a level's candidates are
//! queued *most expensive first* (LPT scheduling: the cost is the
//! stripped rows of the partition the candidate refines), so an
//! expensive straggler never pins a whole contiguous chunk to one
//! thread. Every result is tagged with its item index and merged back
//! in index order, so results — and the cache contents under any byte
//! budget — are byte-identical across thread counts
//! (`parallel_equals_serial`). Certain-semantics workers share one
//! [`ProbeCache`], so LHSs with the same nullable footprint reuse one
//! probe index instead of rebuilding per candidate. Worker saturation
//! is visible as the `discovery.mine.worker_busy_ns` timer.
//!
//! The lattice walk itself ([`Lattice`]: candidate order, target
//! pruning, minimality bookkeeping) is shared with the incremental
//! replay of [`crate::incremental`].

use crate::cache::DEFAULT_CACHE_BUDGET;
use crate::check::{
    fd_targets_holding, fd_targets_on_refinement, null_semantics, ProbeCache, Semantics,
};
use crate::partition::{Encoded, NullSemantics, Partition, ProductScratch};
use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::table::Table;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A level parallelises once it has at least `max(PAR_MIN, threads)`
/// candidates: below that spawning the workers costs more than the
/// work. Wide-short tables (hepatitis: 15+ levels) have many short
/// levels, so this is deliberately low.
const PAR_MIN: usize = 8;

/// One discovered dependency: a minimal LHS and every RHS attribute it
/// minimally determines under the mining semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedFd {
    /// The (minimal) left-hand side.
    pub lhs: AttrSet,
    /// All attributes outside `lhs` minimally determined by it.
    pub rhs: AttrSet,
}

/// Miner configuration.
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Semantics of the mined FDs.
    pub semantics: Semantics,
    /// Maximum LHS size explored (the lattice is exponential; the
    /// interesting minimal FDs of the evaluation live at small sizes).
    pub max_lhs: usize,
    /// Worker threads for candidate checking. Within one lattice level
    /// candidates are independent (minimality only consults strictly
    /// smaller LHSs), so per-level parallelism is exact. `1` = serial.
    pub threads: usize,
    /// Byte budget for the previous level's cached partitions. Within
    /// budget, every candidate partition is one product with a cached
    /// prefix; past it, evicted prefixes are folded from the
    /// single-attribute partitions. `0` disables caching; results are
    /// identical for any value (only throughput changes).
    pub cache_budget: usize,
}

impl MinerConfig {
    /// Default configuration for the given semantics: LHS ≤ 4, and the
    /// thread count taken from `SQLNF_MINE_THREADS` when set (`0` =
    /// all available cores), else serial — matching the experiment
    /// harness, whose recorded timings are per-core.
    pub fn new(semantics: Semantics) -> Self {
        let threads = match std::env::var("SQLNF_MINE_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
                Ok(n) => n,
                Err(_) => 1,
            },
            Err(_) => 1,
        };
        MinerConfig {
            semantics,
            max_lhs: 4,
            threads,
            cache_budget: DEFAULT_CACHE_BUDGET,
        }
    }

    /// Overrides the LHS cap.
    pub fn with_max_lhs(mut self, max_lhs: usize) -> Self {
        self.max_lhs = max_lhs;
        self
    }

    /// Overrides the worker-thread count (0 means all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        self
    }

    /// Overrides the partition-cache byte budget.
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget = bytes;
        self
    }
}

/// Outcome of a mining run.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// Minimal FDs, one entry per minimal LHS.
    pub fds: Vec<MinedFd>,
    /// Wall-clock time of the run.
    pub elapsed: std::time::Duration,
    /// Number of candidate LHSs whose partition was evaluated.
    pub candidates_checked: usize,
}

impl MiningResult {
    /// Total number of (LHS, attribute) pairs, i.e. FDs counted
    /// attribute-wise.
    pub fn fd_count_attrwise(&self) -> usize {
        self.fds.iter().map(|f| f.rhs.len()).sum()
    }
}

/// Generates all `k`-subsets of `attrs`, in the canonical
/// combination order every level-wise walk in this crate shares (the
/// FD [`Lattice`] and the key walk of [`crate::keys`]).
pub(crate) fn k_subsets(attrs: &[Attr], k: usize) -> Vec<AttrSet> {
    let mut out = Vec::new();
    let n = attrs.len();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| attrs[i]).collect());
        // Next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Mines minimal non-trivial FDs from an instance.
pub fn mine_fds(table: &Table, config: MinerConfig) -> MiningResult {
    let started = Instant::now();
    let enc = Encoded::new(table);
    mine_fds_encoded(&enc, table.schema().arity(), config, started)
}

/// The level-wise FD lattice shared by the from-scratch miner and the
/// incremental replay ([`crate::incremental`]): per-level candidate and
/// target generation in [`k_subsets`] order, and the minimal-LHS
/// bookkeeping that prunes it.
pub(crate) struct Lattice {
    attrs: Vec<Attr>,
    all: AttrSet,
    /// `minimal_for[a]` = the minimal LHSs recorded for attribute `a`.
    minimal_for: Vec<Vec<AttrSet>>,
    found: Vec<MinedFd>,
}

impl Lattice {
    /// The lattice over `arity` attributes, with nothing recorded.
    pub(crate) fn new(arity: usize) -> Lattice {
        let attrs: Vec<Attr> = (0..arity).map(Attr::from).collect();
        Lattice {
            all: attrs.iter().copied().collect(),
            minimal_for: vec![Vec::new(); arity],
            found: Vec::new(),
            attrs,
        }
    }

    /// The deepest level a walk capped at `max_lhs` visits: an LHS
    /// needs an attribute outside it to determine.
    pub(crate) fn last_level(&self, max_lhs: usize) -> usize {
        max_lhs.min(self.attrs.len().saturating_sub(1))
    }

    /// Level `k`'s candidates, each with its targets — the attributes
    /// outside it that no recorded minimal LHS inside it determines —
    /// dropping candidates left with none; and how many `k`-subsets
    /// were generated. Same-level candidates never cover each other, so
    /// a level's records cannot change its own candidates.
    pub(crate) fn candidates(&self, k: usize) -> (Vec<(AttrSet, AttrSet)>, usize) {
        let generated = k_subsets(&self.attrs, k);
        let count = generated.len();
        let candidates = generated
            .into_iter()
            .filter_map(|x| {
                let mut targets = AttrSet::EMPTY;
                for a in self.all - x {
                    if !self.minimal_for[a.index()].iter().any(|y| y.is_subset(x)) {
                        targets.insert(a);
                    }
                }
                (!targets.is_empty()).then_some((x, targets))
            })
            .collect();
        (candidates, count)
    }

    /// Records that `lhs` minimally determines `holding` (nothing when
    /// it is empty). Called in candidate order, so the mined FDs come
    /// out in the walk's order.
    pub(crate) fn record(&mut self, lhs: AttrSet, holding: AttrSet) {
        if holding.is_empty() {
            return;
        }
        for a in holding {
            self.minimal_for[a.index()].push(lhs);
        }
        self.found.push(MinedFd { lhs, rhs: holding });
    }

    /// The recorded FDs, one per minimal LHS, in walk order.
    pub(crate) fn into_fds(self) -> Vec<MinedFd> {
        self.found
    }
}

/// Items `0..n` in their own order.
fn in_order(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// The scratch a batch of `items` fans out over: every worker's once
/// the batch has at least `min` items — below that, spawning costs more
/// than the work — else the first alone, which runs it inline.
fn pool(scratch: &mut [ProductScratch], items: usize, min: usize) -> &mut [ProductScratch] {
    let workers = if items >= min { scratch.len() } else { 1 };
    &mut scratch[..workers]
}

/// The miner's one fan-out: runs `job(scratch, i)` for every item `i`
/// of `order` (a permutation of `0..order.len()`) and returns the
/// results indexed by item. With one scratch it runs inline and spawns
/// nothing. Otherwise one scoped worker per scratch (at most one per
/// item) pulls items off a shared atomic cursor in `order`'s sequence,
/// so an expensive item queued first never pins a contiguous chunk to
/// one thread; the index-tagged results are merged back into item
/// order, so the output never depends on the worker count. Worker
/// occupancy is timed under `discovery.mine.worker_busy_ns`.
fn fan_out<T: Send>(
    scratch: &mut [ProductScratch],
    order: &[u32],
    job: impl Fn(&mut ProductScratch, usize) -> T + Sync,
) -> Vec<T> {
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(order.len(), || None);
    let workers = scratch.len().min(order.len());
    if workers <= 1 {
        let _busy = sqlnf_obs::span!("discovery.mine.worker_busy_ns");
        for &i in order {
            slots[i as usize] = Some(job(&mut scratch[0], i as usize));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let (job, cursor) = (&job, &cursor);
        std::thread::scope(|scope| {
            let handles: Vec<_> = scratch[..workers]
                .iter_mut()
                .map(|scratch| {
                    scope.spawn(move || {
                        let _busy = sqlnf_obs::span!("discovery.mine.worker_busy_ns");
                        let mut out = Vec::new();
                        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            out.push((i, job(scratch, i as usize)));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                for (i, t) in h.join().expect("miner worker panicked") {
                    slots[i as usize] = Some(t);
                }
            }
        });
    }
    slots
        .into_iter()
        .map(|t| t.expect("every item runs exactly once"))
        .collect()
}

/// The miner's one prefix rule: among `x`'s immediate prefixes held in
/// `prev`, the one with the fewest stripped rows — a product sweeps
/// exactly those, and a candidate containing a selective attribute has
/// a tiny one — ties to the prefix omitting the smaller attribute.
/// Returns the omitted attribute, the prefix and its cost; `None` when
/// the budget evicted every prefix.
fn cheapest_prefix(
    x: AttrSet,
    prev: &HashMap<AttrSet, Partition>,
) -> Option<(Attr, &Partition, usize)> {
    x.iter()
        .filter_map(|a| {
            let p = prev.get(&(x - AttrSet::single(a)))?;
            Some((a, p, p.stripped_rows()))
        })
        .min_by_key(|&(_, _, cost)| cost)
}

/// The partition a level-`k` candidate (`k ≥ 2`) refines, and the
/// attribute it refines by. Level 2 refines the smaller single (ties
/// keep attribute order). Deeper levels take the [`cheapest_prefix`];
/// when the budget evicted every prefix, one is folded from the
/// always-resident singles — every attribute but the largest, smallest
/// first — and refined by the largest.
fn refinement<'p>(
    enc: &Encoded,
    ns: NullSemantics,
    x: AttrSet,
    k: usize,
    singles: &'p [Partition],
    prev: &'p HashMap<AttrSet, Partition>,
    scratch: &mut ProductScratch,
) -> (Cow<'p, Partition>, Attr) {
    if k == 2 {
        let mut it = x.iter();
        let a = it.next().expect("level-2 candidate");
        let b = it.next().expect("level-2 candidate");
        return if singles[a.index()].stripped_rows() <= singles[b.index()].stripped_rows() {
            (Cow::Borrowed(&singles[a.index()]), b)
        } else {
            (Cow::Borrowed(&singles[b.index()]), a)
        };
    }
    if let Some((by, p, _)) = cheapest_prefix(x, prev) {
        sqlnf_obs::count!("discovery.mine.prev_level.hits");
        return (Cow::Borrowed(p), by);
    }
    sqlnf_obs::count!("discovery.mine.prev_level.misses");
    let mut attrs: Vec<Attr> = x.iter().collect();
    attrs.sort_by_key(|a| singles[a.index()].stripped_rows());
    let by = attrs.pop().expect("level ≥ 3");
    let (first, rest) = attrs.split_first().expect("level ≥ 3");
    let mut prefix = Cow::Borrowed(&singles[first.index()]);
    for &b in rest {
        prefix = Cow::Owned(prefix.product_attr(enc, b, ns, scratch));
    }
    (prefix, by)
}

/// Builds `π_x` for a level-`k` candidate: borrowed from the singles at
/// level 1, otherwise one product of its [`refinement`] — or, at level
/// 2 over a small combined code space, one fused counting sort of both
/// raw columns.
fn candidate_partition<'a>(
    enc: &Encoded,
    ns: NullSemantics,
    x: AttrSet,
    k: usize,
    singles: &'a [Partition],
    prev: &HashMap<AttrSet, Partition>,
    scratch: &mut ProductScratch,
) -> Cow<'a, Partition> {
    match k {
        0 => Cow::Owned(Partition::universal(enc.rows())),
        1 => Cow::Borrowed(&singles[x.first().expect("level-1 candidate").index()]),
        _ => {
            if k == 2 {
                let mut it = x.iter();
                let a = it.next().expect("level-2 candidate");
                let b = it.next().expect("level-2 candidate");
                if Partition::by_pair_applicable(enc, a, b) {
                    return Cow::Owned(Partition::by_pair(enc, a, b, ns));
                }
            }
            let (prefix, by) = refinement(enc, ns, x, k, singles, prev, scratch);
            Cow::Owned(prefix.product_attr(enc, by, ns, scratch))
        }
    }
}

/// The parallel visit order for one level: candidate indexes sorted by
/// estimated check cost, most expensive first (LPT — longest processing
/// time — scheduling), ties broken by candidate index. The estimate is
/// what the check actually sweeps: the stripped rows of the partition
/// the candidate will refine, or a whole-table-sized pessimistic
/// constant when every prefix was evicted and one must be folded from
/// the singles.
fn cost_order(
    candidates: &[(AttrSet, AttrSet)],
    k: usize,
    rows: usize,
    singles: &[Partition],
    prev: &HashMap<AttrSet, Partition>,
) -> Vec<u32> {
    let mut order = in_order(candidates.len());
    if k < 2 {
        return order;
    }
    let costs: Vec<usize> = candidates
        .iter()
        .map(|&(x, _)| {
            if k == 2 {
                x.iter()
                    .map(|a| singles[a.index()].stripped_rows())
                    .min()
                    .unwrap_or(0)
            } else {
                cheapest_prefix(x, prev).map_or(rows.saturating_mul(2), |(_, _, cost)| cost)
            }
        })
        .collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i as usize]), i));
    order
}

/// The last lattice level's working set when the pre-last level was
/// check-only: each candidate refines exactly one `(k−1)`-prefix, so
/// only the *distinct* chosen prefixes are materialized — from the
/// retained level-`(k−2)` cache, one product each. The choice rule is
/// the cheapest **estimated** prefix (the cost of its own
/// [`cheapest_prefix`]): prefix choice affects throughput only, never
/// the refined result, so estimating instead of measuring is sound.
/// Deterministic throughout — first-use order drives the byte-budget
/// admission, ties break on the smallest omitted attribute.
#[allow(clippy::too_many_arguments)]
fn build_needed_prefixes(
    enc: &Encoded,
    ns: NullSemantics,
    candidates: &[(AttrSet, AttrSet)],
    k: usize,
    singles: &[Partition],
    prev: &HashMap<AttrSet, Partition>,
    scratch: &mut [ProductScratch],
    budget: usize,
) -> HashMap<AttrSet, Partition> {
    let pessimistic = enc.rows().saturating_mul(2);
    let est = |s: AttrSet| cheapest_prefix(s, prev).map_or(pessimistic, |(_, _, cost)| cost);
    let mut needed: Vec<AttrSet> = Vec::new();
    let mut seen: std::collections::HashSet<AttrSet> = std::collections::HashSet::new();
    for &(x, _) in candidates {
        let mut best: Option<(usize, Attr)> = None;
        for a in x {
            let e = est(x - AttrSet::single(a));
            if best.is_none_or(|(be, _)| e < be) {
                best = Some((e, a));
            }
        }
        let Some((min_est, best_a)) = best else {
            continue;
        };
        // Greedy sharing: a prefix already being built is free, so any
        // of the candidate's prefixes within 2× of the cheapest
        // estimate that is already chosen wins over minting a new one.
        // The check sweep aborts at the first refuting row, so a
        // same-magnitude prefix costs it nearly nothing — while every
        // *distinct* prefix costs a full product. Still deterministic:
        // `seen` evolves in candidate order.
        let chosen = x
            .iter()
            .map(|a| x - AttrSet::single(a))
            .find(|s| est(*s) <= min_est.saturating_mul(2) && seen.contains(s))
            .unwrap_or(x - AttrSet::single(best_a));
        if seen.insert(chosen) {
            needed.push(chosen);
        }
    }
    sqlnf_obs::count!("discovery.mine.lazy_prefix_builds", needed.len());
    let pool = pool(scratch, needed.len(), PAR_MIN);
    let built = fan_out(pool, &in_order(needed.len()), |scratch, i| {
        candidate_partition(enc, ns, needed[i], k - 1, singles, prev, scratch).into_owned()
    });
    let mut map = HashMap::new();
    let mut bytes = 0usize;
    for (s, p) in needed.into_iter().zip(built) {
        let sz = p.approx_bytes() + std::mem::size_of::<AttrSet>();
        if bytes.saturating_add(sz) <= budget {
            bytes += sz;
            map.insert(s, p);
        } else {
            sqlnf_obs::count!("discovery.mine.prev_level.evictions");
        }
    }
    if bytes > 0 {
        sqlnf_obs::count_max!("discovery.mine.prev_level.bytes", bytes);
    }
    map
}

/// Mines from a pre-encoded instance (lets callers share the encoding
/// across several mining runs, as the discovery experiment does).
pub fn mine_fds_encoded(
    enc: &Encoded,
    arity: usize,
    config: MinerConfig,
    started: Instant,
) -> MiningResult {
    let _span = sqlnf_obs::span!("mine_fds");
    let sem = config.semantics;
    let ns = null_semantics(sem);
    let mut lattice = Lattice::new(arity);
    let last_level = lattice.last_level(config.max_lhs);

    // One product scratch per worker, kept for the whole run; the first
    // also serves every inline (serial) batch.
    let mut scratch: Vec<ProductScratch> = (0..config.threads.max(1))
        .map(|_| ProductScratch::for_encoded(enc))
        .collect();
    let threads = scratch.len();

    // The single-attribute partitions: always resident, the floor every
    // product chain bottoms out on. Each is an independent table sweep,
    // so they fan out too — on wide tables (hepatitis: 20 columns) this
    // is the one stage whose cost rivals a whole lattice level.
    let singles = fan_out(&mut scratch, &in_order(arity), |_, i| {
        Partition::by_attr(enc, Attr::from(i), ns)
    });
    let singles = &singles;

    // One probe cache for the whole run, shared by every worker:
    // certain-semantics candidates with the same nullable footprint
    // reuse one index (see `check::ProbeCache`).
    let probes = ProbeCache::new(enc);
    let probes = &probes;

    let mut checked = 0usize;
    let mut prev: HashMap<AttrSet, Partition> = HashMap::new();
    for k in 0..=last_level {
        sqlnf_obs::count!("discovery.mine.lattice_levels");
        let (candidates, generated) = lattice.candidates(k);
        checked += candidates.len();
        sqlnf_obs::count!("discovery.mine.candidates_checked", candidates.len());
        sqlnf_obs::count!(
            "discovery.mine.candidates_pruned",
            generated - candidates.len()
        );
        sqlnf_obs::trace!(
            "mine level {k}: {} candidates ({} pruned)",
            candidates.len(),
            generated - candidates.len()
        );

        // Keep this level's partitions only if the next level will
        // consult them (level-2 candidates product the singles
        // directly, so level-1 partitions are never stored). On a
        // deep lattice the *pre-last* level is also check-only:
        // each last-level candidate refines exactly one prefix
        // partition, so the last level materializes only the
        // distinct prefixes actually chosen (see
        // [`build_needed_prefixes`]) instead of eagerly building
        // every pre-last candidate's partition — on adult-shaped
        // tables that eager build dominated the whole run.
        let defer_prelast = last_level >= 4;
        let store = k >= 2
            && k < if defer_prelast {
                last_level - 1
            } else {
                last_level
            };
        let needed;
        let level_prev = if defer_prelast && k == last_level {
            needed = build_needed_prefixes(
                enc,
                ns,
                &candidates,
                k,
                singles,
                &prev,
                &mut scratch,
                config.cache_budget,
            );
            &needed
        } else {
            &prev
        };

        // In parallel, the most expensive candidates go first.
        let pool = pool(&mut scratch, candidates.len(), PAR_MIN.max(threads));
        let order = if pool.len() > 1 {
            cost_order(&candidates, k, enc.rows(), singles, level_prev)
        } else {
            in_order(candidates.len())
        };
        let checks = fan_out(pool, &order, |scratch, i| {
            let (x, targets) = candidates[i];
            if !store && k >= 2 {
                // Check-only: sweep the refinement fused with the
                // constancy check, never materializing `π_x`.
                let (prefix, by) = refinement(enc, ns, x, k, singles, level_prev, scratch);
                let holding = fd_targets_on_refinement(
                    enc, x, &prefix, by, ns, targets, sem, scratch, probes,
                );
                return (holding, None);
            }
            let p = candidate_partition(enc, ns, x, k, singles, level_prev, scratch);
            let holding = fd_targets_holding(enc, x, &p, targets, sem, probes);
            let kept = match p {
                Cow::Owned(p) if store => {
                    let sz = p.approx_bytes() + std::mem::size_of::<AttrSet>();
                    Some((p, sz))
                }
                _ => None,
            };
            (holding, kept)
        });

        // Retire the previous level when this one replaces it (a
        // check-only pre-last level retains it — the last level
        // still products from it), then merge this level in candidate
        // order, so the result and the cache contents (budget
        // admission included) never depend on which worker processed
        // what.
        if store && !prev.is_empty() {
            sqlnf_obs::count!("discovery.mine.prev_level.evictions", prev.len());
        }
        let mut next: HashMap<AttrSet, Partition> = HashMap::new();
        let mut bytes = 0usize;
        for (&(x, _), (holding, kept)) in candidates.iter().zip(checks) {
            if let Some((p, sz)) = kept {
                if bytes.saturating_add(sz) <= config.cache_budget {
                    bytes += sz;
                    next.insert(x, p);
                } else {
                    sqlnf_obs::count!("discovery.mine.prev_level.evictions");
                }
            }
            lattice.record(x, holding);
        }
        if bytes > 0 {
            sqlnf_obs::count_max!("discovery.mine.prev_level.bytes", bytes);
        }
        if store {
            prev = next;
        }
    }

    MiningResult {
        fds: lattice.into_fds(),
        elapsed: started.elapsed(),
        candidates_checked: checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fd_holds;
    use sqlnf_model::prelude::*;

    #[test]
    fn subset_enumeration_counts() {
        let attrs: Vec<Attr> = (0..5).map(Attr::from).collect();
        assert_eq!(k_subsets(&attrs, 0), vec![AttrSet::EMPTY]);
        assert_eq!(k_subsets(&attrs, 1).len(), 5);
        assert_eq!(k_subsets(&attrs, 2).len(), 10);
        assert_eq!(k_subsets(&attrs, 3).len(), 10);
        assert_eq!(k_subsets(&attrs, 5).len(), 1);
        assert_eq!(k_subsets(&attrs, 6).len(), 0);
        // All distinct and of the right size.
        let threes = k_subsets(&attrs, 3);
        assert!(threes.iter().all(|s| s.len() == 3));
    }

    fn sample() -> Table {
        // b is a function of a; c is a function of (a,d) but not of a or
        // d alone; e is constant.
        TableBuilder::new("r", ["a", "b", "c", "d", "e"], &[])
            .row(tuple![1i64, 10i64, 100i64, 1i64, 7i64])
            .row(tuple![1i64, 10i64, 200i64, 2i64, 7i64])
            .row(tuple![2i64, 20i64, 100i64, 2i64, 7i64])
            .row(tuple![2i64, 20i64, 200i64, 1i64, 7i64])
            .build()
    }

    #[test]
    fn mines_planted_structure() {
        let t = sample();
        let res = mine_fds(&t, MinerConfig::new(Semantics::Classical));
        let s = t.schema().clone();
        let find = |lhs: AttrSet| res.fds.iter().find(|f| f.lhs == lhs);
        // ∅ → e (constant column).
        let empty = find(AttrSet::EMPTY).expect("constant column");
        assert!(empty.rhs.contains(s.a("e")));
        // a → b minimal.
        let a = find(AttrSet::single(s.a("a"))).expect("a → b");
        assert!(a.rhs.contains(s.a("b")));
        assert!(!a.rhs.contains(s.a("c")));
        // (a,d) → c minimal (with b ↔ a, (b,d) → c also minimal).
        let ad = find(s.set(&["a", "d"])).expect("ad → c");
        assert!(ad.rhs.contains(s.a("c")));
    }

    #[test]
    fn minimality_is_respected() {
        let t = sample();
        let res = mine_fds(&t, MinerConfig::new(Semantics::Classical));
        let e = Encoded::new(&t);
        for fd in &res.fds {
            for a in fd.rhs {
                // Holds at the recorded LHS…
                assert!(fd_holds(&e, fd.lhs, a, Semantics::Classical));
                // …and at no immediate subset.
                for b in fd.lhs {
                    let smaller = fd.lhs - AttrSet::single(b);
                    assert!(
                        !fd_holds(&e, smaller, a, Semantics::Classical),
                        "lhs={:?} a={a:?} not minimal",
                        fd.lhs
                    );
                }
            }
        }
    }

    #[test]
    fn semantics_differ_on_nulls() {
        // a has a null: p-FD a →_s b holds (null row is similar to
        // nothing) but the c-FD fails (⊥ weakly matches both groups);
        // classically (⊥ a value) it also holds.
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![null, 20i64])
            .row(tuple![2i64, 30i64])
            .build();
        let possible = mine_fds(&t, MinerConfig::new(Semantics::Possible));
        let certain = mine_fds(&t, MinerConfig::new(Semantics::Certain));
        let classical = mine_fds(&t, MinerConfig::new(Semantics::Classical));
        let weak = mine_fds(&t, MinerConfig::new(Semantics::Weak));
        let a = AttrSet::from_indices([0]);
        let b = sqlnf_model::attrs::Attr(1);
        let has = |r: &MiningResult| r.fds.iter().any(|f| f.lhs == a && f.rhs.contains(b));
        assert!(has(&possible));
        assert!(has(&classical));
        assert!(!has(&certain));
        // Weak is laxer still: the ⊥ row's fresh completion never
        // collides with 1 or 2, so a →_weak b holds like the p-FD.
        assert!(has(&weak));
    }

    /// certain ⊆ weak as *mined sets*, checked semantically: every
    /// certain-mined `lhs → a` must be covered by a weak-mined FD with
    /// `Y ⊆ lhs` determining `a` (minimal LHSs can genuinely shrink
    /// under the laxer semantics).
    #[test]
    fn certain_mined_contained_in_weak_mined() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..12 {
            let schema = TableSchema::new(
                "r",
                (0..5).map(|i| format!("c{i}")).collect::<Vec<_>>(),
                &[],
            );
            let mut t = Table::new(schema);
            for _ in 0..40 {
                t.push(Tuple::new(
                    (0..5)
                        .map(|_| {
                            if rng.gen_bool(0.2) {
                                Value::Null
                            } else {
                                Value::Int(rng.gen_range(0..4))
                            }
                        })
                        .collect::<Vec<_>>(),
                ));
            }
            let certain = mine_fds(&t, MinerConfig::new(Semantics::Certain).with_max_lhs(3));
            let weak = mine_fds(&t, MinerConfig::new(Semantics::Weak).with_max_lhs(3));
            for fd in &certain.fds {
                for a in fd.rhs {
                    assert!(
                        weak.fds
                            .iter()
                            .any(|w| w.lhs.is_subset(fd.lhs) && w.rhs.contains(a)),
                        "case {case}: certain {:?} -> {a:?} uncovered weakly\n{t}",
                        fd.lhs
                    );
                }
            }
        }
    }

    #[test]
    fn max_lhs_cap_is_respected() {
        let t = sample();
        let res = mine_fds(&t, MinerConfig::new(Semantics::Classical).with_max_lhs(1));
        assert!(res.fds.iter().all(|f| f.lhs.len() <= 1));
        assert!(res.candidates_checked > 0);
    }

    #[test]
    fn parallel_equals_serial() {
        // Determinism across thread counts, all semantics, on a table
        // large enough to trigger the parallel path.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let schema = TableSchema::new(
            "r",
            (0..8).map(|i| format!("c{i}")).collect::<Vec<_>>(),
            &[],
        );
        let mut t = Table::new(schema);
        for _ in 0..150 {
            t.push(Tuple::new(
                (0..8)
                    .map(|c| {
                        if rng.gen_bool(0.1) {
                            Value::Null
                        } else {
                            Value::Int(rng.gen_range(0..4 + c as i64))
                        }
                    })
                    .collect::<Vec<_>>(),
            ));
        }
        for sem in [
            Semantics::Classical,
            Semantics::Possible,
            Semantics::Certain,
            Semantics::Weak,
        ] {
            // LHS cap 4 also fans out the lazy pre-last prefixes.
            for (max_lhs, budget) in [
                (3, 0),
                (3, 4096),
                (3, DEFAULT_CACHE_BUDGET),
                (4, DEFAULT_CACHE_BUDGET),
            ] {
                let config = |threads| {
                    MinerConfig::new(sem)
                        .with_max_lhs(max_lhs)
                        .with_cache_budget(budget)
                        .with_threads(threads)
                };
                let serial = mine_fds(&t, config(1));
                for threads in [2, 4, 8] {
                    let parallel = mine_fds(&t, config(threads));
                    // Byte-identical, order included: the index-tagged
                    // merge restores exact candidate order.
                    assert_eq!(
                        serial.fds, parallel.fds,
                        "{sem:?} max_lhs={max_lhs} budget={budget} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_single_row_tables() {
        let schema = TableSchema::new("r", ["a", "b"], &[]);
        let empty = Table::new(schema.clone());
        let res = mine_fds(&empty, MinerConfig::new(Semantics::Certain));
        // Everything holds vacuously: ∅ → a, b.
        assert_eq!(res.fds.len(), 1);
        assert_eq!(res.fds[0].lhs, AttrSet::EMPTY);
        assert_eq!(res.fds[0].rhs.len(), 2);
    }
}
