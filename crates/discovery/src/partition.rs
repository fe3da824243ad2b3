//! Stripped partitions à la TANE, adapted to the paper's similarity
//! semantics.
//!
//! A *partition* of the rows by an attribute set `X` groups rows with
//! identical `X`-values; *stripped* means singleton classes are dropped
//! (they can never participate in a violation). Two flavours matter:
//!
//! * [`NullSemantics::Strong`]: strong similarity — a row with `⊥` in
//!   `X` is similar to nothing, so null-bearing rows become singletons
//!   and vanish. This is the grouping for p-FD/p-key checking.
//! * [`NullSemantics::NullAsValue`]: the classical discovery convention
//!   of the FD-mining literature (nulls compared like ordinary values),
//!   used by the classical baseline and for RHS equality (`⊥ = ⊥`).
//!
//! Weak similarity is **not** an equivalence relation and has no
//! partition; c-FD checking handles null-bearing rows by probing (see
//! [`crate::check`]).
//!
//! # Encoding
//!
//! [`Encoded`] is a *zero-copy borrow* of the table's own
//! dictionary-coded columns ([`sqlnf_model::column::ColumnStore`]):
//! `Encoded::new` is `O(arity)` `Arc` clones, not an `O(rows × arity)`
//! hash-everything rebuild. The storage layer guarantees the only
//! invariants the kernels need — code `0` = `⊥`, code equality ⟺ value
//! equality within the table, and every code `≤ dict_size`. Because the
//! dictionary size is known, [`Partition::by_attr`] is a counting sort
//! (no hashing, classes come out internally sorted for free), with a
//! stable radix fallback when retired dictionary entries make the code
//! space much larger than the table (heavy DELETE churn).

use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::column::ColData;
use sqlnf_model::table::Table;
use sqlnf_model::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// How null markers participate in the grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NullSemantics {
    /// `⊥` equals nothing, not even `⊥` — strong similarity.
    Strong,
    /// `⊥` is grouped like an ordinary (single) value — classical
    /// discovery and syntactic RHS equality.
    NullAsValue,
}

/// Dictionary-encoded columns: each cell as a small integer, with `0`
/// reserved for `⊥`. A shared snapshot of the table's columnar
/// storage.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Shared per-column code vectors and ascending null-row lists.
    cols: Vec<Arc<ColData>>,
    /// Upper bound (inclusive) on the codes in each column.
    dict_sizes: Vec<u32>,
    rows: usize,
}

impl Encoded {
    /// Borrows a table's columnar encoding — `O(arity)`, no per-row
    /// work. The `discovery.encode.{rows,dict_entries}` counters tick
    /// at INSERT/UPDATE time in the storage layer; only the (cheap)
    /// build itself is counted here.
    pub fn new(table: &Table) -> Encoded {
        let _span = sqlnf_obs::span!("discovery.encode");
        sqlnf_obs::count!("discovery.encode.builds");
        let snap = table.snapshot();
        Encoded {
            cols: snap.cols,
            dict_sizes: snap.dict_sizes,
            rows: snap.rows,
        }
    }

    /// Re-encodes a table from its row view with the pre-columnar
    /// algorithm (per-column `HashMap<&Value, u32>`, first-appearance
    /// codes). This is the reference path the differential tests mine
    /// against: after UPDATE/DELETE the storage's codes may differ
    /// from a fresh encode (retired entries keep their codes), but
    /// every mined result must be byte-identical either way.
    pub fn from_table_rows(table: &Table) -> Encoded {
        let _span = sqlnf_obs::span!("discovery.encode");
        sqlnf_obs::count!("discovery.encode.builds");
        sqlnf_obs::count!("discovery.encode.rows", table.len());
        let arity = table.schema().arity();
        let mut cols = Vec::with_capacity(arity);
        let mut dict_sizes = Vec::with_capacity(arity);
        for ci in 0..arity {
            let a = Attr::from(ci);
            let mut data = ColData {
                codes: Vec::with_capacity(table.len()),
                null_rows: Vec::new(),
            };
            let mut dict: HashMap<&Value, u32> = HashMap::new();
            for (r, t) in table.rows().iter().enumerate() {
                let v = t.get(a);
                let code = if v.is_null() {
                    data.null_rows.push(r as u32);
                    0
                } else {
                    let next = dict.len() as u32 + 1;
                    *dict.entry(v).or_insert(next)
                };
                data.codes.push(code);
            }
            dict_sizes.push(dict.len() as u32);
            cols.push(Arc::new(data));
        }
        Encoded {
            cols,
            dict_sizes,
            rows: table.len(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The code vector of column `a` — the slice the partition kernels
    /// sweep directly.
    #[inline]
    pub fn column(&self, a: Attr) -> &[u32] {
        &self.cols[a.index()].codes
    }

    /// Inclusive upper bound on the codes in column `a` (the dictionary
    /// size; codes run `1..=dict_size`, plus `0` for `⊥`).
    #[inline]
    pub fn dict_size(&self, a: Attr) -> u32 {
        self.dict_sizes[a.index()]
    }

    /// The largest dictionary size across all columns — sizes the probe
    /// table of a [`ProductScratch`] once for every column it may meet.
    pub fn max_code(&self) -> u32 {
        self.dict_sizes.iter().copied().max().unwrap_or(0)
    }

    /// The code of `(row, a)`; `0` means `⊥`.
    #[inline]
    pub fn code(&self, row: usize, a: Attr) -> u32 {
        self.cols[a.index()].codes[row]
    }

    #[inline]
    fn nulls(&self, a: Attr) -> &[u32] {
        &self.cols[a.index()].null_rows
    }

    /// Whether the row is `X`-total.
    pub fn is_total_on(&self, row: usize, x: AttrSet) -> bool {
        x.iter().all(|a| self.code(row, a) != 0)
    }

    /// Whether two rows are weakly similar on `X`.
    pub fn weakly_similar(&self, r: usize, s: usize, x: AttrSet) -> bool {
        x.iter().all(|a| {
            let (cr, cs) = (self.code(r, a), self.code(s, a));
            cr == 0 || cs == 0 || cr == cs
        })
    }

    /// Whether two rows are syntactically equal on `X` (`⊥ = ⊥`).
    pub fn equal_on(&self, r: usize, s: usize, x: AttrSet) -> bool {
        x.iter().all(|a| self.code(r, a) == self.code(s, a))
    }

    /// The columns that contain no `⊥` at all.
    pub fn null_free_columns(&self) -> AttrSet {
        (0..self.cols.len())
            .filter(|&ci| self.cols[ci].null_rows.is_empty())
            .map(Attr::from)
            .collect()
    }

    /// The columns that carry at least one `⊥` — the complement of
    /// [`Encoded::null_free_columns`]. A weak-similarity probe of `X`
    /// only ever depends on `X ∩ nullable_columns` plus an equality
    /// filter on the rest (see [`crate::check::ProbeCache`]).
    pub fn nullable_columns(&self) -> AttrSet {
        (0..self.cols.len())
            .filter(|&ci| !self.cols[ci].null_rows.is_empty())
            .map(Attr::from)
            .collect()
    }

    /// Upper bound on `|null_rows_on(x)|` without merging: the sum of
    /// the per-column null counts. Used to price a direct pair scan
    /// against building a [`crate::check::ProbeIndex`].
    pub fn null_count_bound(&self, x: AttrSet) -> usize {
        x.iter().map(|a| self.nulls(a).len()).sum()
    }

    /// Whether any column of `X` carries a `⊥`. `O(|X|)` — the cheap
    /// guard that lets weak-similarity probing skip total candidates
    /// without touching the rows.
    pub fn has_nulls_on(&self, x: AttrSet) -> bool {
        x.iter().any(|a| !self.nulls(a).is_empty())
    }

    /// The rows carrying `⊥` somewhere in `X`, ascending. Merges the
    /// per-column null lists instead of scanning the table, so the cost
    /// is proportional to the nulls present, not to `rows × |X|`.
    pub fn null_rows_on(&self, x: AttrSet) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for a in x {
            let col = self.nulls(a);
            if col.is_empty() {
                continue;
            }
            if out.is_empty() {
                out.extend(col.iter().map(|&r| r as usize));
            } else {
                // Sorted union.
                let mut merged = Vec::with_capacity(out.len() + col.len());
                let (mut i, mut j) = (0, 0);
                while i < out.len() && j < col.len() {
                    let (x_, y) = (out[i], col[j] as usize);
                    match x_.cmp(&y) {
                        std::cmp::Ordering::Less => {
                            merged.push(x_);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            merged.push(y);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            merged.push(x_);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&out[i..]);
                merged.extend(col[j..].iter().map(|&r| r as usize));
                out = merged;
            }
        }
        out
    }
}

/// A stripped partition: classes of size ≥ 2, each a sorted row list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Equivalence classes with at least two rows.
    pub classes: Vec<Vec<u32>>,
}

/// Reusable scratch for [`Partition::product`] and
/// [`Partition::product_attr`]: one `u32` probe table (keyed by row id
/// for the binary product, by dictionary code for the attribute
/// product) plus per-group slot buffers, owned by a thread (a miner
/// worker, a [`crate::cache::PartitionCtx`]) and reused across every
/// intersection it performs — the per-candidate `HashMap` allocations
/// of the old refinement path are gone entirely.
///
/// The probe table is sized **once** — by [`ProductScratch::for_encoded`]
/// at construction, or by one `ensure_probe` branch at the top of each
/// kernel — so the hot loops index it directly with no grow-on-miss
/// branch per row.
#[derive(Debug, Default)]
pub struct ProductScratch {
    /// `probe[row]` = 1-based class id of `row` in the left partition
    /// of the running product; `0` = row absent. Only the labels set by
    /// a product are cleared afterwards, so reuse costs no wipe.
    probe: Vec<u32>,
    /// Slot buffers per left class; capacity retained across products.
    slots: Vec<Vec<u32>>,
    /// Left-class ids touched while sweeping one right class.
    touched: Vec<u32>,
    /// `heads[id − 1]` = first row of subclass `id` during a fused
    /// [`Partition::for_each_refined_pair`] sweep. Overwritten on
    /// relabel, so it needs no clearing — and the fused sweep never
    /// dirties `slots`, which [`Partition::product_attr`] relies on
    /// being empty.
    heads: Vec<u32>,
}

impl ProductScratch {
    /// Fresh scratch; the probe table is sized by the kernels' entry
    /// checks on first use.
    pub fn new() -> ProductScratch {
        ProductScratch::default()
    }

    /// Fresh scratch pre-sized for every kernel over `enc`: the probe
    /// table covers both row ids (binary products) and dictionary
    /// codes (attribute products) up front.
    pub fn for_encoded(enc: &Encoded) -> ProductScratch {
        ProductScratch {
            probe: vec![0; enc.rows().max(enc.max_code() as usize + 1)],
            ..ProductScratch::default()
        }
    }

    /// One-branch pre-size check at kernel entry; hot loops then index
    /// the probe table directly.
    #[inline]
    fn ensure_probe(&mut self, needed: usize) {
        if self.probe.len() < needed {
            self.probe.resize(needed, 0);
        }
    }

    fn ensure(&mut self, classes: usize) {
        if self.slots.len() < classes {
            self.slots.resize_with(classes, Vec::new);
        }
    }

    #[inline]
    fn label(&mut self, key: u32, id: u32) {
        debug_assert!(
            (key as usize) < self.probe.len(),
            "probe table under-sized: key {key} for len {}",
            self.probe.len()
        );
        self.probe[key as usize] = id;
    }

    #[inline]
    fn probe_label(&self, key: u32) -> u32 {
        debug_assert!((key as usize) < self.probe.len());
        self.probe[key as usize]
    }

    #[inline]
    fn clear_label(&mut self, key: u32) {
        self.probe[key as usize] = 0;
    }
}

/// Above this ratio of code space to rows, [`Partition::by_attr`]
/// switches from counting sort (cost `O(rows + dict)`) to a stable
/// radix sort of `(code, row)` pairs (cost `O(rows)` with a fixed
/// 2¹⁶-bucket pass) — the regime where heavy DELETE churn left the
/// dictionary much larger than the table.
const RADIX_OVER: usize = 4;

impl Partition {
    /// Partition by a single attribute: a counting sort over the known
    /// dictionary size. No hashing, no per-class sort — the scatter
    /// visits rows in ascending order, so every bucket comes out
    /// internally sorted; only the final by-first-row ordering of the
    /// (few) classes is explicit.
    pub fn by_attr(enc: &Encoded, a: Attr, sem: NullSemantics) -> Partition {
        sqlnf_obs::count!("discovery.partition.builds");
        sqlnf_obs::count!("discovery.partition.rows_scanned", enc.rows());
        let col = enc.column(a);
        let dict = enc.dict_size(a) as usize;
        if dict > RADIX_OVER * col.len() + 1024 {
            return Partition::by_attr_radix(col, sem);
        }
        // starts[c] .. starts[c+1] = the slot range of code c.
        let mut starts = vec![0u32; dict + 2];
        for &c in col {
            starts[c as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut out = vec![0u32; col.len()];
        let mut cursor = starts.clone();
        for (r, &c) in col.iter().enumerate() {
            let slot = &mut cursor[c as usize];
            out[*slot as usize] = r as u32;
            *slot += 1;
        }
        let first_code = usize::from(sem == NullSemantics::Strong);
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for c in first_code..=dict {
            let (s, e) = (starts[c] as usize, starts[c + 1] as usize);
            if e - s >= 2 {
                classes.push(out[s..e].to_vec());
            }
        }
        classes.sort_unstable_by_key(|c| c[0]);
        Partition { classes }
    }

    /// The high-cardinality fallback: stable LSB radix sort of
    /// `(code, row)` pairs, then a run sweep. Identical output to the
    /// counting-sort path.
    fn by_attr_radix(col: &[u32], sem: NullSemantics) -> Partition {
        let mut pairs: Vec<(u32, u32)> = col
            .iter()
            .enumerate()
            .filter(|&(_, &c)| !(c == 0 && sem == NullSemantics::Strong))
            .map(|(r, &c)| (c, r as u32))
            .collect();
        let max = pairs.iter().map(|p| p.0).max().unwrap_or(0);
        let mut tmp = vec![(0u32, 0u32); pairs.len()];
        radix_pass(&pairs, &mut tmp, 0);
        if max >= 1 << 16 {
            radix_pass(&tmp, &mut pairs, 16);
        } else {
            pairs.copy_from_slice(&tmp);
        }
        // Stability keeps rows ascending within each equal-code run.
        let mut classes: Vec<Vec<u32>> = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let code = pairs[i].0;
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == code {
                j += 1;
            }
            if j - i >= 2 {
                classes.push(pairs[i..j].iter().map(|p| p.1).collect());
            }
            i = j;
        }
        classes.sort_unstable_by_key(|c| c[0]);
        Partition { classes }
    }

    /// Partition by an attribute *pair* in one counting sort over the
    /// combined code space `(dict_a + 1) × (dict_b + 1)` — two
    /// sequential column sweeps and a scatter, no probe table and no
    /// per-class bookkeeping. This is the level-2 fast path of the
    /// miner: at that level the prefix partitions are single attributes
    /// whose stripped classes still cover nearly the whole table, so a
    /// fused scan of both raw columns beats refining. Callers must
    /// check [`Partition::pair_space`] against the table size first
    /// (the guard [`Partition::by_pair_applicable`]); past the gate the
    /// combined space would dwarf the row count and
    /// [`Partition::product_attr`] from the smaller single wins.
    pub fn by_pair(enc: &Encoded, a: Attr, b: Attr, sem: NullSemantics) -> Partition {
        sqlnf_obs::count!("discovery.partition.builds");
        sqlnf_obs::count!("discovery.partition.rows_scanned", enc.rows());
        let (ca, cb) = (enc.column(a), enc.column(b));
        let width = enc.dict_size(b) as usize + 1;
        let space = (enc.dict_size(a) as usize + 1) * width;
        let strong = sem == NullSemantics::Strong;
        let mut starts = vec![0u32; space + 1];
        for (&x, &y) in ca.iter().zip(cb) {
            if strong && (x == 0 || y == 0) {
                continue;
            }
            starts[x as usize * width + y as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut out = vec![0u32; starts[space] as usize];
        let mut cursor = starts.clone();
        for (r, (&x, &y)) in ca.iter().zip(cb).enumerate() {
            if strong && (x == 0 || y == 0) {
                continue;
            }
            let slot = &mut cursor[x as usize * width + y as usize];
            out[*slot as usize] = r as u32;
            *slot += 1;
        }
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for c in 0..space {
            let (s, e) = (starts[c] as usize, starts[c + 1] as usize);
            if e - s >= 2 {
                classes.push(out[s..e].to_vec());
            }
        }
        classes.sort_unstable_by_key(|c| c[0]);
        Partition { classes }
    }

    /// The combined code space a [`Partition::by_pair`] counting sort
    /// would allocate for `{a, b}`.
    fn pair_space(enc: &Encoded, a: Attr, b: Attr) -> usize {
        (enc.dict_size(a) as usize + 1).saturating_mul(enc.dict_size(b) as usize + 1)
    }

    /// Whether the pair counting sort is the right kernel for `{a, b}`:
    /// the combined space must stay within the same
    /// space-versus-rows margin the radix gate ([`RADIX_OVER`]) uses.
    pub fn by_pair_applicable(enc: &Encoded, a: Attr, b: Attr) -> bool {
        Partition::pair_space(enc, a, b) <= RADIX_OVER * enc.rows() + 1024
    }

    /// The trivial partition over the empty attribute set: one class of
    /// all rows.
    pub fn universal(rows: usize) -> Partition {
        if rows < 2 {
            return Partition { classes: vec![] };
        }
        Partition {
            classes: vec![(0..rows as u32).collect()],
        }
    }

    /// Partition by an attribute set (product of attribute partitions).
    pub fn by_set(enc: &Encoded, x: AttrSet, sem: NullSemantics) -> Partition {
        let mut attrs = x.iter();
        let first = match attrs.next() {
            None => return Partition::universal(enc.rows()),
            Some(a) => a,
        };
        let mut p = Partition::by_attr(enc, first, sem);
        for a in attrs {
            p = p.refine_by(enc, a, sem);
        }
        p
    }

    /// Refines the partition by one more attribute. Same kernel as
    /// [`Partition::product_attr`], with a throwaway scratch — callers
    /// on the hot path thread their own scratch through `product_attr`
    /// instead.
    pub fn refine_by(&self, enc: &Encoded, a: Attr, sem: NullSemantics) -> Partition {
        sqlnf_obs::count!("discovery.partition.intersections");
        sqlnf_obs::count!(
            "discovery.partition.rows_scanned",
            self.classes.iter().map(|c| c.len()).sum::<usize>()
        );
        let mut scratch = ProductScratch::new();
        self.refine_with(enc, a, sem, &mut scratch)
    }

    /// TANE-style product `π_self · π_other` in one linear sweep over
    /// the two stripped partitions, using a reusable probe table —
    /// no per-class hashing, no allocation beyond the emitted classes.
    ///
    /// Correctness: two rows share a class of the product iff they
    /// share a class in *both* inputs. Under either [`NullSemantics`]
    /// this is exactly the stripped partition of the attribute-set
    /// union (strong similarity drops null-bearing rows from both
    /// sides; null-as-value keeps `⊥` as the code `0`), so
    /// `π_X.product(π_Y) == Partition::by_set(enc, X ∪ Y)` — the
    /// equality the `product_matches_by_set` property test pins down.
    /// The result is canonical (sorted classes of sorted rows), so
    /// `PartialEq` agreement with [`Partition::by_set`] is structural.
    pub fn product(&self, other: &Partition, scratch: &mut ProductScratch) -> Partition {
        sqlnf_obs::count!("discovery.partition.products");
        scratch.ensure(self.classes.len());
        let needed = self
            .classes
            .iter()
            .chain(other.classes.iter())
            .filter_map(|c| c.last())
            .map(|&r| r as usize + 1)
            .max()
            .unwrap_or(0);
        scratch.ensure_probe(needed);
        let mut scanned = 0usize;
        // Label every row of `self` with its class id (1-based; 0 =
        // absent, i.e. stripped singleton or dropped null row).
        for (i, class) in self.classes.iter().enumerate() {
            scanned += class.len();
            for &r in class {
                scratch.label(r, i as u32 + 1);
            }
        }
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for class in &other.classes {
            scanned += class.len();
            for &r in class {
                let id = scratch.probe_label(r);
                if id != 0 {
                    let slot = &mut scratch.slots[id as usize - 1];
                    if slot.is_empty() {
                        scratch.touched.push(id - 1);
                    }
                    slot.push(r);
                }
            }
            for &i in &scratch.touched {
                let slot = &mut scratch.slots[i as usize];
                if slot.len() >= 2 {
                    classes.push(std::mem::take(slot));
                } else {
                    slot.clear();
                }
            }
            scratch.touched.clear();
        }
        // Reset only the labels we set, keeping the probe table clean
        // for the next product without an O(rows) wipe.
        for class in &self.classes {
            for &r in class {
                scratch.clear_label(r);
            }
        }
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        classes.sort_unstable_by_key(|c| c[0]);
        Partition { classes }
    }

    /// The product `π_self · π_{a}` in one sweep over `self`'s stripped
    /// classes, reading the dictionary codes of `a` directly instead of
    /// materializing (or even touching) the single-attribute partition.
    /// This is the miner's refinement step: its cost is proportional to
    /// the rows inside `self`'s classes — which shrink rapidly as the
    /// lattice level grows — not to the table. Same canonical result as
    /// `product(&Partition::by_attr(enc, a, sem))` and as
    /// [`Partition::refine_by`], without the per-class `HashMap`.
    pub fn product_attr(
        &self,
        enc: &Encoded,
        a: Attr,
        sem: NullSemantics,
        scratch: &mut ProductScratch,
    ) -> Partition {
        sqlnf_obs::count!("discovery.partition.products");
        sqlnf_obs::count!(
            "discovery.partition.rows_scanned",
            self.classes.iter().map(|c| c.len()).sum::<usize>()
        );
        self.refine_with(enc, a, sem, scratch)
    }

    /// Shared kernel of [`Partition::refine_by`] and
    /// [`Partition::product_attr`] (counters live in the wrappers).
    fn refine_with(
        &self,
        enc: &Encoded,
        a: Attr,
        sem: NullSemantics,
        scratch: &mut ProductScratch,
    ) -> Partition {
        let col = enc.column(a);
        scratch.ensure_probe(enc.dict_size(a) as usize + 1);
        let strong = sem == NullSemantics::Strong;
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for class in &self.classes {
            // Counting two-pass scoped to this class: the probe table
            // first holds per-code counts, then 1-based output slots
            // for the codes that survive stripping. One exact-capacity
            // allocation per emitted subclass, nothing at all for
            // singletons — which dominate once a selective attribute
            // has entered the product chain.
            for &r in class {
                let c = col[r as usize];
                if c == 0 && strong {
                    continue;
                }
                let n = scratch.probe_label(c);
                if n == 0 {
                    scratch.touched.push(c);
                }
                scratch.label(c, n + 1);
            }
            let base = classes.len();
            for i in 0..scratch.touched.len() {
                let c = scratch.touched[i];
                let n = scratch.probe_label(c);
                if n >= 2 {
                    classes.push(Vec::with_capacity(n as usize));
                    scratch.label(c, (classes.len() - base) as u32);
                } else {
                    scratch.clear_label(c);
                }
            }
            if classes.len() > base {
                for &r in class {
                    let c = col[r as usize];
                    if c == 0 && strong {
                        continue;
                    }
                    let id = scratch.probe_label(c);
                    if id != 0 {
                        classes[base + id as usize - 1].push(r);
                    }
                }
            }
            while let Some(c) = scratch.touched.pop() {
                scratch.clear_label(c);
            }
        }
        classes.sort_unstable_by_key(|c| c[0]);
        Partition { classes }
    }

    /// Sweeps the refinement `π_self · π_{a}` *without materializing
    /// it*: for every row `r` that lands in an already-headed subclass,
    /// calls `f(head, r)` where `head` is the subclass's first row.
    /// Stops — and returns `false` — as soon as `f` does, skipping the
    /// rest of the sweep entirely.
    ///
    /// This is the check-only fast path for lattice levels whose
    /// partitions are never stored (the last level): a violated FD is
    /// usually refuted within a few rows, so fusing the product with
    /// the constancy check avoids paying the full prefix sweep per
    /// candidate. Only the rows actually visited count towards
    /// `discovery.partition.rows_scanned`.
    pub fn for_each_refined_pair(
        &self,
        enc: &Encoded,
        a: Attr,
        sem: NullSemantics,
        scratch: &mut ProductScratch,
        mut f: impl FnMut(u32, u32) -> bool,
    ) -> bool {
        sqlnf_obs::count!("discovery.partition.products");
        let col = enc.column(a);
        scratch.ensure_probe(enc.dict_size(a) as usize + 1);
        let strong = sem == NullSemantics::Strong;
        let mut scanned = 0usize;
        let mut live = true;
        'classes: for class in &self.classes {
            let mut used = 0u32;
            for &r in class {
                scanned += 1;
                let c = col[r as usize];
                if c == 0 && strong {
                    continue;
                }
                let id = scratch.probe_label(c);
                if id == 0 {
                    used += 1;
                    scratch.touched.push(c);
                    scratch.label(c, used);
                    if scratch.heads.len() < used as usize {
                        scratch.heads.resize(used as usize, 0);
                    }
                    scratch.heads[used as usize - 1] = r;
                } else if !f(scratch.heads[id as usize - 1], r) {
                    live = false;
                    while let Some(c) = scratch.touched.pop() {
                        scratch.clear_label(c);
                    }
                    break 'classes;
                }
            }
            while let Some(c) = scratch.touched.pop() {
                scratch.clear_label(c);
            }
        }
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        live
    }

    /// Approximate heap footprint in bytes — the accounting unit of the
    /// level-wise partition cache budget.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Partition>()
            + self.classes.len() * std::mem::size_of::<Vec<u32>>()
            + self
                .classes
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// `Σ (|class| − 1)`: the TANE error measure. Zero iff the grouping
    /// is (a candidate for) a key under the chosen semantics.
    pub fn error(&self) -> usize {
        self.classes.iter().map(|c| c.len() - 1).sum()
    }

    /// Number of (non-singleton) classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Total rows inside the stripped classes — the cost of sweeping
    /// this partition in [`Partition::product_attr`]. Product callers
    /// use it to pick the *cheapest* available prefix (TANE: refine
    /// from the smallest representation; a candidate containing a
    /// near-unique attribute has an almost-empty stripped partition).
    pub fn stripped_rows(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Whether there are no classes of size ≥ 2.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// One stable counting pass over 16 bits of the code.
fn radix_pass(src: &[(u32, u32)], dst: &mut [(u32, u32)], shift: u32) {
    const R: usize = 1 << 16;
    let mut counts = vec![0u32; R + 1];
    for &(c, _) in src {
        counts[(((c >> shift) as usize) & (R - 1)) + 1] += 1;
    }
    for i in 1..=R {
        counts[i] += counts[i - 1];
    }
    for &p in src {
        let b = ((p.0 >> shift) as usize) & (R - 1);
        dst[counts[b] as usize] = p;
        counts[b] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::prelude::*;

    fn sample() -> Table {
        TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple!["x", 1i64])
            .row(tuple!["x", 1i64])
            .row(tuple![null, 1i64])
            .row(tuple![null, 2i64])
            .row(tuple!["y", 2i64])
            .build()
    }

    #[test]
    fn encoding_nulls_are_zero() {
        let t = sample();
        let e = Encoded::new(&t);
        assert_eq!(e.rows(), 5);
        assert_eq!(e.code(2, Attr(0)), 0);
        assert_ne!(e.code(0, Attr(0)), 0);
        assert_eq!(e.code(0, Attr(0)), e.code(1, Attr(0)));
        assert_ne!(e.code(0, Attr(0)), e.code(4, Attr(0)));
        assert_eq!(e.null_free_columns(), AttrSet::from_indices([1]));
        assert_eq!(e.null_rows_on(AttrSet::from_indices([0])), vec![2, 3]);
    }

    #[test]
    fn snapshot_matches_row_major_reference_encode() {
        // For an append-only table, the storage's first-appearance
        // codes are exactly what the reference row-major encode
        // produces: same codes, same null lists, same dictionary sizes.
        let t = sample();
        let snap = Encoded::new(&t);
        let fresh = Encoded::from_table_rows(&t);
        assert_eq!(snap.rows, fresh.rows);
        assert_eq!(snap.dict_sizes, fresh.dict_sizes);
        for a in t.schema().attrs() {
            assert_eq!(snap.column(a), fresh.column(a), "{a:?} codes");
            assert_eq!(snap.nulls(a), fresh.nulls(a), "{a:?} null rows");
        }
    }

    #[test]
    fn snapshot_after_dml_partitions_agree_with_reference() {
        // UPDATE/DELETE may leave the storage with retired codes the
        // reference encode never assigns; the *partitions* (and hence
        // everything mined) must agree regardless.
        let mut t = sample();
        t.set_value(0, Attr(0), Value::str("z"));
        t.set_value(3, Attr(0), Value::str("x"));
        t.remove_row(1);
        t.push(tuple!["x", 2i64]);
        t.set_value(2, Attr(1), Value::Null);
        let snap = Encoded::new(&t);
        let fresh = Encoded::from_table_rows(&t);
        assert_eq!(snap.rows(), fresh.rows());
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            for a in t.schema().attrs() {
                assert_eq!(
                    Partition::by_attr(&snap, a, sem),
                    Partition::by_attr(&fresh, a, sem),
                    "{a:?} {sem:?}"
                );
                assert_eq!(snap.nulls(a), fresh.nulls(a), "{a:?} null rows");
            }
            let ab = AttrSet::from_indices([0, 1]);
            assert_eq!(
                Partition::by_set(&snap, ab, sem),
                Partition::by_set(&fresh, ab, sem),
                "{sem:?} by_set"
            );
        }
    }

    #[test]
    fn radix_path_matches_counting_sort() {
        // Force the radix fallback with a synthetic column whose code
        // space dwarfs its rows (the post-DELETE-churn regime), and
        // check it against the counting-sort path on identical codes.
        let codes = vec![70_000u32, 3, 0, 70_000, 3, 1 << 20, 0, 1 << 20, 5];
        let nulls: Vec<u32> = codes
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(r, _)| r as u32)
            .collect();
        let rows = codes.len();
        let enc = Encoded {
            cols: vec![Arc::new(ColData {
                codes: codes.clone(),
                null_rows: nulls,
            })],
            dict_sizes: vec![1 << 20],
            rows,
        };
        assert!((1 << 20) > RADIX_OVER * rows + 1024, "radix path selected");
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let via_radix = Partition::by_attr(&enc, Attr(0), sem);
            // Naive reference grouping.
            let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
            for (r, &c) in codes.iter().enumerate() {
                if c == 0 && sem == NullSemantics::Strong {
                    continue;
                }
                groups.entry(c).or_default().push(r as u32);
            }
            let mut expect: Vec<Vec<u32>> = groups.into_values().filter(|g| g.len() >= 2).collect();
            expect.sort_unstable_by_key(|c| c[0]);
            assert_eq!(via_radix.classes, expect, "{sem:?}");
        }
        let strong = Partition::by_attr(&enc, Attr(0), NullSemantics::Strong);
        assert_eq!(strong.classes, vec![vec![0, 3], vec![1, 4], vec![5, 7]]);
        let nav = Partition::by_attr(&enc, Attr(0), NullSemantics::NullAsValue);
        assert_eq!(
            nav.classes,
            vec![vec![0, 3], vec![1, 4], vec![2, 6], vec![5, 7]]
        );
    }

    #[test]
    fn strong_partition_drops_null_rows() {
        let t = sample();
        let e = Encoded::new(&t);
        let p = Partition::by_attr(&e, Attr(0), NullSemantics::Strong);
        // Only {0,1} (the two "x" rows) form a class; nulls vanish and
        // "y" is a singleton.
        assert_eq!(p.classes, vec![vec![0, 1]]);
        assert_eq!(p.error(), 1);
    }

    #[test]
    fn null_as_value_groups_nulls_together() {
        let t = sample();
        let e = Encoded::new(&t);
        let p = Partition::by_attr(&e, Attr(0), NullSemantics::NullAsValue);
        let mut classes = p.classes.clone();
        classes.sort();
        assert_eq!(classes, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn set_partition_refines() {
        let t = sample();
        let e = Encoded::new(&t);
        let ab = AttrSet::from_indices([0, 1]);
        let p_strong = Partition::by_set(&e, ab, NullSemantics::Strong);
        assert_eq!(p_strong.classes, vec![vec![0, 1]]);
        let p_nav = Partition::by_set(&e, ab, NullSemantics::NullAsValue);
        // (x,1) twice; (⊥,1) and (⊥,2) split.
        assert_eq!(p_nav.classes, vec![vec![0, 1]]);
    }

    #[test]
    fn universal_partition() {
        let p = Partition::universal(4);
        assert_eq!(p.classes, vec![vec![0, 1, 2, 3]]);
        assert_eq!(p.error(), 3);
        assert!(Partition::universal(1).is_empty());
    }

    #[test]
    fn empty_attr_set_is_universal() {
        let t = sample();
        let e = Encoded::new(&t);
        let p = Partition::by_set(&e, AttrSet::EMPTY, NullSemantics::Strong);
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.classes[0].len(), 5);
    }

    #[test]
    fn product_matches_by_set() {
        let t = sample();
        let e = Encoded::new(&t);
        let mut scratch = ProductScratch::for_encoded(&e);
        let ab = AttrSet::from_indices([0, 1]);
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let pa = Partition::by_attr(&e, Attr(0), sem);
            let pb = Partition::by_attr(&e, Attr(1), sem);
            assert_eq!(
                pa.product(&pb, &mut scratch),
                Partition::by_set(&e, ab, sem),
                "{sem:?}"
            );
            // The universal partition is the product identity on
            // stripped partitions.
            let u = Partition::universal(e.rows());
            assert_eq!(pa.product(&u, &mut scratch), pa, "{sem:?} right-id");
            assert_eq!(u.product(&pa, &mut scratch), pa, "{sem:?} left-id");
        }
    }

    #[test]
    fn by_pair_matches_by_set() {
        let t = sample();
        let e = Encoded::new(&t);
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            for i in 0..t.schema().arity() {
                for j in 0..t.schema().arity() {
                    if i == j {
                        continue;
                    }
                    let (a, b) = (Attr(i as u8), Attr(j as u8));
                    assert!(Partition::by_pair_applicable(&e, a, b));
                    assert_eq!(
                        Partition::by_pair(&e, a, b, sem),
                        Partition::by_set(&e, AttrSet::from_indices([i, j]), sem),
                        "{sem:?} pair ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn product_attr_matches_refine_by() {
        let t = sample();
        let e = Encoded::new(&t);
        // Start from an unsized scratch: the kernels' entry checks must
        // size the probe table themselves.
        let mut scratch = ProductScratch::new();
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let pa = Partition::by_attr(&e, Attr(0), sem);
            assert_eq!(
                pa.product_attr(&e, Attr(1), sem, &mut scratch),
                pa.refine_by(&e, Attr(1), sem),
                "{sem:?}"
            );
            let u = Partition::universal(e.rows());
            assert_eq!(
                u.product_attr(&e, Attr(0), sem, &mut scratch),
                Partition::by_attr(&e, Attr(0), sem),
                "{sem:?} from universal"
            );
        }
    }

    #[test]
    fn fused_sweep_leaves_scratch_clean_for_products() {
        // Regression: the fused pair sweep must not dirty the slot
        // buffers a later product on the SAME scratch relies on being
        // empty (it once stored subclass heads there, corrupting the
        // next product's classes).
        let t = sample();
        let e = Encoded::new(&t);
        let mut scratch = ProductScratch::for_encoded(&e);
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let pa = Partition::by_attr(&e, Attr(0), sem);
            let mut pairs = 0usize;
            pa.for_each_refined_pair(&e, Attr(1), sem, &mut scratch, |head, r| {
                assert!(head < r, "heads precede members in sorted classes");
                pairs += 1;
                true
            });
            // A full (non-early-exited) sweep visits |class| − 1 pairs
            // per refined class.
            let refined = pa.refine_by(&e, Attr(1), sem);
            let expect: usize = refined.classes.iter().map(|c| c.len() - 1).sum();
            assert_eq!(pairs, expect, "{sem:?}");
            // The same scratch must still produce correct products.
            assert_eq!(
                pa.product_attr(&e, Attr(1), sem, &mut scratch),
                refined,
                "{sem:?} product after fused sweep"
            );
        }
    }

    #[test]
    fn weak_similarity_probe() {
        let t = sample();
        let e = Encoded::new(&t);
        let a = AttrSet::from_indices([0]);
        assert!(e.weakly_similar(2, 0, a)); // ⊥ vs x
        assert!(e.weakly_similar(2, 3, a)); // ⊥ vs ⊥
        assert!(!e.weakly_similar(0, 4, a)); // x vs y
        assert!(e.equal_on(2, 3, a)); // ⊥ = ⊥
        assert!(!e.equal_on(2, 0, a));
    }
}
