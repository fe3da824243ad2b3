//! Discovery of minimal possible and certain keys from data.
//!
//! The paper's quantitative analysis leans on key status throughout —
//! λ-FDs require a non-key LHS, and the Figure 6 discussion attributes
//! the high-ratio population to LHSs that "should really be certain
//! keys" but are not, due to dirty data. This module mines the minimal
//! p-keys and c-keys of an instance level-wise, with subset pruning
//! (any superset of a key is a key, by key-Augmentation).
//!
//! There is no separate *weak*-key miner: weak keys coincide exactly
//! with possible keys ([`crate::check::is_weak_key`]) — an `X`-null row
//! is always separable by fresh completion values, while two `X`-total
//! duplicates are never separable — so `pkeys` doubles as the
//! weak-semantics key set.

use crate::cache::{PartitionCtx, DEFAULT_CACHE_BUDGET};
use crate::check::{is_ckey_cached, is_pkey, ProbeCache};
use crate::mine::k_subsets;
use crate::partition::{Encoded, NullSemantics};
use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::table::Table;

/// Minimal keys of an instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MinedKeys {
    /// Subset-minimal possible keys.
    pub pkeys: Vec<AttrSet>,
    /// Subset-minimal certain keys (every c-key is also a p-key, but a
    /// *minimal* c-key need not be a minimal p-key).
    pub ckeys: Vec<AttrSet>,
}

/// Mines the subset-minimal p-keys and c-keys with attribute sets of at
/// most `max_size` attributes, with the default partition-cache budget.
pub fn mine_keys(table: &Table, max_size: usize) -> MinedKeys {
    mine_keys_budgeted(table, max_size, DEFAULT_CACHE_BUDGET)
}

/// [`mine_keys`] with an explicit partition-cache byte budget. The
/// strong partitions of the candidates come out of one level-cached
/// [`PartitionCtx`] (a product per candidate instead of a fresh
/// grouping); results are identical for any budget.
pub fn mine_keys_budgeted(table: &Table, max_size: usize, cache_budget: usize) -> MinedKeys {
    mine_keys_encoded(
        &Encoded::new(table),
        table.schema().arity(),
        max_size,
        cache_budget,
    )
}

/// [`mine_keys_budgeted`] from a pre-encoded instance (shared encodes,
/// and the columnar-vs-row-major differential tests).
pub fn mine_keys_encoded(
    enc: &Encoded,
    arity: usize,
    max_size: usize,
    cache_budget: usize,
) -> MinedKeys {
    let mut ctx = PartitionCtx::with_budget(enc, NullSemantics::Strong, cache_budget);
    // Candidates sharing a nullable footprint share one probe index.
    let probes = ProbeCache::new(enc);
    walk_keys(&mut ctx, arity, max_size, |ctx, x, need_p, need_c| {
        let strong = ctx.partition(x);
        (
            need_p && is_pkey(&strong),
            need_c && is_ckey_cached(enc, &probes, x, &strong),
        )
    })
}

/// The level-wise key walk every key miner shares: candidates in
/// [`k_subsets`] order, level by level, skipping supersets of keys
/// already found. `status(ctx, x, need_p, need_c)` answers whether `x`
/// is a p-key and a c-key; only the answers asked for are used. The
/// from-scratch miner answers from strong partitions and weak-pair
/// probes, the incremental one ([`crate::incremental`]) from its
/// verdict cache. `ctx` drops each level's partitions once the next
/// level no longer needs them.
pub(crate) fn walk_keys<'a>(
    ctx: &mut PartitionCtx<'a>,
    arity: usize,
    max_size: usize,
    mut status: impl FnMut(&mut PartitionCtx<'a>, AttrSet, bool, bool) -> (bool, bool),
) -> MinedKeys {
    let attrs: Vec<Attr> = (0..arity).map(Attr::from).collect();
    let mut out = MinedKeys::default();
    for k in 0..=max_size.min(arity) {
        // Partitions of level k come from level k−1; anything older is
        // dead weight.
        if k >= 2 {
            ctx.evict_below(k - 1);
        }
        for x in k_subsets(&attrs, k) {
            let need_p = !out.pkeys.iter().any(|y| y.is_subset(x));
            let need_c = !out.ckeys.iter().any(|y| y.is_subset(x));
            if !need_p && !need_c {
                continue;
            }
            let (p_is, c_is) = status(ctx, x, need_p, need_c);
            if need_p && p_is {
                out.pkeys.push(x);
            }
            if need_c && c_is {
                out.ckeys.push(x);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::prelude::*;

    fn sample() -> Table {
        // id unique; (name) has a NULL so it is a p-key but not c-key;
        // (a, b) jointly unique and total.
        TableBuilder::new("r", ["id", "name", "a", "b"], &[])
            .row(tuple![1i64, "x", 1i64, 1i64])
            .row(tuple![2i64, null, 1i64, 2i64])
            .row(tuple![3i64, "y", 2i64, 1i64])
            .build()
    }

    #[test]
    fn finds_minimal_keys_of_both_kinds() {
        let t = sample();
        let s = t.schema().clone();
        let keys = mine_keys(&t, 4);
        assert!(keys.pkeys.contains(&s.set(&["id"])));
        assert!(keys.ckeys.contains(&s.set(&["id"])));
        // name: p-key (the NULL is strongly similar to nothing) but not
        // a c-key (⊥ weakly matches x and y).
        assert!(keys.pkeys.contains(&s.set(&["name"])));
        assert!(!keys.ckeys.contains(&s.set(&["name"])));
        // (a,b) total and unique: both kinds.
        assert!(keys.pkeys.contains(&s.set(&["a", "b"])));
        assert!(keys.ckeys.contains(&s.set(&["a", "b"])));
    }

    #[test]
    fn minimality_no_key_contains_another() {
        let t = sample();
        let keys = mine_keys(&t, 4);
        for list in [&keys.pkeys, &keys.ckeys] {
            for (i, x) in list.iter().enumerate() {
                for (j, y) in list.iter().enumerate() {
                    if i != j {
                        assert!(!x.is_subset(*y), "{x:?} ⊆ {y:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn mined_keys_satisfy_the_instance() {
        let t = sample();
        let keys = mine_keys(&t, 4);
        for &x in &keys.pkeys {
            assert!(satisfies_key(&t, &Key::possible(x)));
        }
        for &x in &keys.ckeys {
            assert!(satisfies_key(&t, &Key::certain(x)));
        }
    }

    #[test]
    fn duplicates_kill_all_keys() {
        let t = TableBuilder::new("r", ["a"], &[])
            .row(tuple![1i64])
            .row(tuple![1i64])
            .build();
        let keys = mine_keys(&t, 1);
        assert!(keys.pkeys.is_empty());
        assert!(keys.ckeys.is_empty());
    }

    #[test]
    fn empty_set_is_key_of_singleton() {
        let t = TableBuilder::new("r", ["a"], &[]).row(tuple![1i64]).build();
        let keys = mine_keys(&t, 1);
        assert_eq!(keys.pkeys, vec![AttrSet::EMPTY]);
        assert_eq!(keys.ckeys, vec![AttrSet::EMPTY]);
    }
}
