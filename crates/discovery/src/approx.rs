//! Approximate satisfaction: how far an instance is from satisfying a
//! constraint, as the minimum fraction of rows to delete (the `g₃`
//! measure of the FD-discovery literature).
//!
//! Section 7's Figure 6 analysis attributes the high projection-ratio
//! λ-FD population to LHSs that "should really be certain keys, but are
//! not due to dirty data". The g₃ error makes that observation
//! quantitative: a near-key LHS has a small key error (few offending
//! rows), while a genuinely compressing FD has a large one.
//!
//! Exactness: for p-FDs and p-keys (and classical FDs) the optimum is
//! computed exactly — strong similarity is transitive, so each group is
//! repaired independently (keep the plurality RHS class; keep one row
//! per group for keys). For *certain* constraints weak similarity forms
//! an arbitrary conflict graph and the optimum is NP-hard (minimum
//! vertex deletion); [`cfd_error`]/[`ckey_error`] return the exact
//! group-wise part plus a greedy bound for the null-involved part, and
//! are exact whenever no row carries `⊥` in the LHS — the common case —
//! and always an upper bound on the true g₃.

use crate::cache::PartitionCtx;
use crate::check::{probe_weak_pairs, ProbeCache};
use crate::partition::{Encoded, NullSemantics, Partition};
use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::table::Table;
use std::collections::HashMap;

/// Rows to remove so that every strong-similarity group is constant on
/// `a` (exact: per group keep the plurality value).
fn group_repair_cost(enc: &Encoded, partition: &Partition, a: Attr) -> usize {
    let mut cost = 0usize;
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for class in &partition.classes {
        counts.clear();
        for &r in class {
            *counts.entry(enc.code(r as usize, a)).or_insert(0) += 1;
        }
        let keep = counts.values().copied().max().unwrap_or(0);
        cost += class.len() - keep;
    }
    cost
}

/// [`pfd_error`] against a caller-held strong-semantics
/// [`PartitionCtx`] — amortizes partition construction across many
/// error queries on the same instance, as the Figure 6 analysis does.
pub fn pfd_error_ctx(ctx: &mut PartitionCtx, x: AttrSet, a: Attr) -> f64 {
    let enc = ctx.encoded();
    if enc.rows() == 0 {
        return 0.0;
    }
    let p = ctx.partition(x);
    group_repair_cost(enc, &p, a) as f64 / enc.rows() as f64
}

/// Exact g₃ error of the p-FD `X →_s A`: the minimum number of rows to
/// delete, divided by the row count (0.0 on empty instances).
pub fn pfd_error(enc: &Encoded, x: AttrSet, a: Attr) -> f64 {
    pfd_error_ctx(&mut PartitionCtx::new(enc, NullSemantics::Strong), x, a)
}

/// [`classical_fd_error`] against a caller-held null-as-value
/// [`PartitionCtx`].
pub fn classical_fd_error_ctx(ctx: &mut PartitionCtx, x: AttrSet, a: Attr) -> f64 {
    let enc = ctx.encoded();
    if enc.rows() == 0 {
        return 0.0;
    }
    let p = ctx.partition(x);
    group_repair_cost(enc, &p, a) as f64 / enc.rows() as f64
}

/// Exact g₃ error of the classical FD `X → A` (nulls as values).
pub fn classical_fd_error(enc: &Encoded, x: AttrSet, a: Attr) -> f64 {
    classical_fd_error_ctx(
        &mut PartitionCtx::new(enc, NullSemantics::NullAsValue),
        x,
        a,
    )
}

/// [`pkey_error`] against a caller-held strong-semantics
/// [`PartitionCtx`].
pub fn pkey_error_ctx(ctx: &mut PartitionCtx, x: AttrSet) -> f64 {
    let enc = ctx.encoded();
    if enc.rows() == 0 {
        return 0.0;
    }
    let excess = ctx.partition(x).error();
    excess as f64 / enc.rows() as f64
}

/// Exact g₃ error of the p-key `p⟨X⟩`: keep one row per strong group.
pub fn pkey_error(enc: &Encoded, x: AttrSet) -> f64 {
    pkey_error_ctx(&mut PartitionCtx::new(enc, NullSemantics::Strong), x)
}

/// [`wfd_error`] against a caller-held strong-semantics
/// [`PartitionCtx`].
pub fn wfd_error_ctx(ctx: &mut PartitionCtx, x: AttrSet, a: Attr) -> f64 {
    let enc = ctx.encoded();
    if enc.rows() == 0 {
        return 0.0;
    }
    let p = ctx.partition(x);
    let mut cost = 0usize;
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for class in &p.classes {
        counts.clear();
        let mut nulls = 0usize;
        for &r in class {
            let c = enc.code(r as usize, a);
            if c == 0 {
                nulls += 1;
            } else {
                *counts.entry(c).or_insert(0) += 1;
            }
        }
        // ⊥ rows never conflict (complete them to the consensus), so
        // keep all of them plus the plurality non-null class.
        let keep = nulls + counts.values().copied().max().unwrap_or(0);
        cost += class.len() - keep;
    }
    cost as f64 / enc.rows() as f64
}

/// Exact g₃ error of the *weak* FD `X →_weak A` (some possible world
/// satisfies `X → A` classically). A weak violation needs two X-total
/// rows, strongly similar on `X`, with differing **non-null** `A`
/// values — so unlike the certain case there is no null-pair conflict
/// graph and the optimum is exact: per strong group keep every
/// `⊥`-on-`A` row plus the plurality non-null value.
pub fn wfd_error(enc: &Encoded, x: AttrSet, a: Attr) -> f64 {
    wfd_error_ctx(&mut PartitionCtx::new(enc, NullSemantics::Strong), x, a)
}

/// Upper bound on the g₃ error of the c-key `c⟨X⟩`: the exact
/// strong-group excess plus a greedy vertex-deletion bound over the
/// weak-similarity pairs involving `⊥`-carrying rows. Exact when no
/// row has `⊥` in `X`.
pub fn ckey_error(enc: &Encoded, x: AttrSet) -> f64 {
    ckey_error_ctx(&mut PartitionCtx::new(enc, NullSemantics::Strong), x)
}

/// [`ckey_error`] against a caller-held strong-semantics
/// [`PartitionCtx`].
pub fn ckey_error_ctx(ctx: &mut PartitionCtx, x: AttrSet) -> f64 {
    ckey_error_with(ctx, x, |enc, f| probe_weak_pairs(enc, x, f))
}

/// [`ckey_error_ctx`] probing weak pairs through a shared
/// [`ProbeCache`] — for many-query callers. The greedy bound depends
/// on pair *visit order*, and the cache's direct-scan path enumerates
/// in a different (still deterministic) order than a fresh index, so
/// the result may differ from [`ckey_error_ctx`]'s — both remain valid
/// upper bounds on the true g₃, and they coincide whenever no row
/// carries `⊥` in `X`.
pub fn ckey_error_probed(ctx: &mut PartitionCtx, probes: &ProbeCache, x: AttrSet) -> f64 {
    ckey_error_with(ctx, x, |enc, f| probes.weak_pairs(enc, x, f))
}

/// The visitor a weak-pair enumeration (a fresh index or a shared
/// [`ProbeCache`]) calls on each pair; returning `false` stops it.
type WeakPairs<'f> = dyn FnMut(usize, usize) -> bool + 'f;

/// The one body of the c-key g₃ bound; `weak_pairs` fixes the pair
/// visit order the greedy part depends on.
fn ckey_error_with(
    ctx: &mut PartitionCtx,
    x: AttrSet,
    weak_pairs: impl FnOnce(&Encoded, &mut WeakPairs) -> bool,
) -> f64 {
    let enc = ctx.encoded();
    if enc.rows() == 0 {
        return 0.0;
    }
    let p = ctx.partition(x);
    let mut removed: Vec<bool> = vec![false; enc.rows()];
    // Strong groups: keep one representative, drop the rest.
    let mut cost = 0usize;
    for class in &p.classes {
        for &r in &class[1..] {
            removed[r as usize] = true;
            cost += 1;
        }
    }
    // Weak pairs through nulls: greedily delete the null-bearing side
    // (it conflicts with everything weakly matching it).
    weak_pairs(enc, &mut |r, s| {
        if !removed[r] && !removed[s] {
            // Prefer removing the row with ⊥ in X (it is the hub).
            let victim = if enc.is_total_on(r, x) { s } else { r };
            removed[victim] = true;
            cost += 1;
        }
        true
    });
    cost as f64 / enc.rows() as f64
}

/// Upper bound on the g₃ error of the c-FD `X →_w A` (exact when no
/// row carries `⊥` in `X`): group repair plus greedy deletion over
/// weakly-similar, `A`-disagreeing pairs through nulls.
pub fn cfd_error(enc: &Encoded, x: AttrSet, a: Attr) -> f64 {
    cfd_error_ctx(&mut PartitionCtx::new(enc, NullSemantics::Strong), x, a)
}

/// [`cfd_error`] against a caller-held strong-semantics
/// [`PartitionCtx`].
pub fn cfd_error_ctx(ctx: &mut PartitionCtx, x: AttrSet, a: Attr) -> f64 {
    cfd_error_with(ctx, x, a, |enc, f| probe_weak_pairs(enc, x, f))
}

/// [`cfd_error_ctx`] probing weak pairs through a shared
/// [`ProbeCache`]. Same visit-order caveat as [`ckey_error_probed`]:
/// the greedy bound may differ from the fresh-index one but is always
/// a valid upper bound, exact when `X` carries no `⊥`.
pub fn cfd_error_probed(ctx: &mut PartitionCtx, probes: &ProbeCache, x: AttrSet, a: Attr) -> f64 {
    cfd_error_with(ctx, x, a, |enc, f| probes.weak_pairs(enc, x, f))
}

/// The one body of the c-FD g₃ bound; `weak_pairs` fixes the pair
/// visit order the greedy part depends on.
fn cfd_error_with(
    ctx: &mut PartitionCtx,
    x: AttrSet,
    a: Attr,
    weak_pairs: impl FnOnce(&Encoded, &mut WeakPairs) -> bool,
) -> f64 {
    let enc = ctx.encoded();
    if enc.rows() == 0 {
        return 0.0;
    }
    let p = ctx.partition(x);
    let mut cost = group_repair_cost(enc, &p, a);
    let mut removed: Vec<bool> = vec![false; enc.rows()];
    weak_pairs(enc, &mut |r, s| {
        if !removed[r] && !removed[s] && enc.code(r, a) != enc.code(s, a) {
            let victim = if enc.is_total_on(r, x) { s } else { r };
            removed[victim] = true;
            cost += 1;
        }
        true
    });
    (cost as f64 / enc.rows() as f64).min(1.0)
}

/// Convenience wrapper for callers holding a [`Table`].
pub fn key_error_of_table(table: &Table, x: AttrSet, certain: bool) -> f64 {
    let enc = Encoded::new(table);
    if certain {
        ckey_error(&enc, x)
    } else {
        pkey_error(&enc, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::prelude::*;

    fn enc(t: &Table) -> Encoded {
        Encoded::new(t)
    }

    #[test]
    fn satisfied_constraints_have_zero_error() {
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![1i64, 10i64])
            .row(tuple![2i64, 20i64])
            .build();
        let e = enc(&t);
        let a = AttrSet::from_indices([0]);
        assert_eq!(pfd_error(&e, a, Attr(1)), 0.0);
        assert_eq!(cfd_error(&e, a, Attr(1)), 0.0);
        assert_eq!(classical_fd_error(&e, a, Attr(1)), 0.0);
        // The key IS violated (duplicate group) with error 1/3.
        assert!((pkey_error(&e, a) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fd_error_counts_minority_rows() {
        // Group a=1 has b ∈ {10, 10, 30}: delete 1 of 3. Group a=2 is
        // clean. Error = 1/4.
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![1i64, 10i64])
            .row(tuple![1i64, 30i64])
            .row(tuple![2i64, 20i64])
            .build();
        let e = enc(&t);
        let err = pfd_error(&e, AttrSet::from_indices([0]), Attr(1));
        assert!((err - 0.25).abs() < 1e-12);
    }

    #[test]
    fn near_key_has_small_error() {
        // 9 distinct + 1 duplicate: key error 10%. This is the paper's
        // "dirty almost-key" shape.
        let mut b = TableBuilder::new("r", ["a"], &[]);
        for i in 0..9 {
            b = b.row(Tuple::new(vec![Value::Int(i)]));
        }
        let t = b.row(tuple![0i64]).build();
        let e = enc(&t);
        assert!((pkey_error(&e, AttrSet::from_indices([0])) - 0.1).abs() < 1e-12);
        assert!((ckey_error(&e, AttrSet::from_indices([0])) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn certain_errors_account_for_nulls() {
        // (⊥) weakly matches both values: c-key error removes it (1/3);
        // p-key sees three singletons (0).
        let t = TableBuilder::new("r", ["a"], &[])
            .row(tuple![1i64])
            .row(tuple![null])
            .row(tuple![2i64])
            .build();
        let e = enc(&t);
        let a = AttrSet::from_indices([0]);
        assert_eq!(pkey_error(&e, a), 0.0);
        assert!((ckey_error(&e, a) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cfd_error_bounds_the_true_optimum() {
        // After deleting the null row, the c-FD holds: true g₃ = 1/3;
        // the greedy bound must not undershoot it and here is exact.
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![null, 20i64])
            .row(tuple![2i64, 30i64])
            .build();
        let e = enc(&t);
        let x = AttrSet::from_indices([0]);
        let mut ctx = PartitionCtx::new(&e, NullSemantics::Strong);
        let probes = ProbeCache::new(&e);
        for err in [
            cfd_error(&e, x, Attr(1)),
            cfd_error_ctx(&mut ctx, x, Attr(1)),
            cfd_error_probed(&mut ctx, &probes, x, Attr(1)),
        ] {
            assert!((err - 1.0 / 3.0).abs() < 1e-12, "{err}");
        }
        assert_probed_matches_ctx_without_lhs_nulls(&t);
    }

    #[test]
    fn ckey_error_bounds_the_true_optimum() {
        // The null row weakly matches both others; deleting it leaves a
        // c-key: true g₃ = 1/3, and the greedy bound is exact here.
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![null, 20i64])
            .row(tuple![2i64, 30i64])
            .build();
        let e = enc(&t);
        let x = AttrSet::from_indices([0]);
        let mut ctx = PartitionCtx::new(&e, NullSemantics::Strong);
        let probes = ProbeCache::new(&e);
        for err in [
            ckey_error(&e, x),
            ckey_error_ctx(&mut ctx, x),
            ckey_error_probed(&mut ctx, &probes, x),
        ] {
            assert!((err - 1.0 / 3.0).abs() < 1e-12, "{err}");
        }
        assert_probed_matches_ctx_without_lhs_nulls(&t);
    }

    /// On every LHS without a `⊥`, the probed and fresh-index bounds
    /// enumerate the same (empty) weak-pair set, so they must agree.
    fn assert_probed_matches_ctx_without_lhs_nulls(t: &Table) {
        let e = enc(t);
        let mut ctx = PartitionCtx::new(&e, NullSemantics::Strong);
        let probes = ProbeCache::new(&e);
        let all = t.schema().attrs();
        for x in all.subsets().filter(|&x| !e.has_nulls_on(x)) {
            assert_eq!(
                ckey_error_probed(&mut ctx, &probes, x),
                ckey_error_ctx(&mut ctx, x),
                "c-key {x:?}"
            );
            for a in all - x {
                assert_eq!(
                    cfd_error_probed(&mut ctx, &probes, x, a),
                    cfd_error_ctx(&mut ctx, x, a),
                    "c-FD {x:?} -> {a:?}"
                );
            }
        }
    }

    #[test]
    fn empty_table_is_error_free() {
        let t = Table::new(TableSchema::new("r", ["a"], &[]));
        let e = enc(&t);
        assert_eq!(pfd_error(&e, AttrSet::from_indices([0]), Attr(0)), 0.0);
        assert_eq!(ckey_error(&e, AttrSet::from_indices([0])), 0.0);
    }

    #[test]
    fn wfd_error_is_exact_and_weakest() {
        // Group a=1: b ∈ {10, ⊥, 30}. Weak repair keeps the ⊥ row and
        // one non-null value: delete 1 of 4. The p-FD must also delete
        // the ⊥ row (its singleton code conflicts): 2 of 4.
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![1i64, null])
            .row(tuple![1i64, 30i64])
            .row(tuple![2i64, 20i64])
            .build();
        let e = enc(&t);
        let x = AttrSet::from_indices([0]);
        assert!((wfd_error(&e, x, Attr(1)) - 0.25).abs() < 1e-12);
        assert!((pfd_error(&e, x, Attr(1)) - 0.5).abs() < 1e-12);
        // ⊥-only disagreement: weakly satisfied, zero error.
        let t2 = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![1i64, null])
            .build();
        let e2 = enc(&t2);
        assert_eq!(wfd_error(&e2, x, Attr(1)), 0.0);
    }

    /// Zero weak error ⟺ the weak FD holds, and the weak error never
    /// exceeds the possible or classical one (the semantics is laxer).
    #[test]
    fn wfd_error_agrees_with_check() {
        use crate::check::{fd_holds, Semantics};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let schema = TableSchema::new("r", ["a", "b", "c"], &[]);
            let mut t = Table::new(schema);
            for _ in 0..12 {
                t.push(Tuple::new(
                    (0..3)
                        .map(|_| {
                            if rng.gen_bool(0.3) {
                                Value::Null
                            } else {
                                Value::Int(rng.gen_range(0..3))
                            }
                        })
                        .collect::<Vec<_>>(),
                ));
            }
            let e = enc(&t);
            for xi in 0..3usize {
                for ai in 0..3usize {
                    if xi == ai {
                        continue;
                    }
                    let x = AttrSet::from_indices([xi]);
                    let a = Attr(ai as u8);
                    let werr = wfd_error(&e, x, a);
                    let holds = fd_holds(&e, x, a, Semantics::Weak);
                    assert_eq!(werr == 0.0, holds, "x={xi} a={ai}\n{t}");
                    assert!(werr <= pfd_error(&e, x, a) + 1e-12);
                    assert!(werr <= classical_fd_error(&e, x, a) + 1e-12);
                }
            }
        }
    }

    /// The error is sound: deleting the implied number of rows (greedy
    /// trace) really leaves a satisfying instance, for the exactly-
    /// computed p variants.
    #[test]
    fn pfd_repair_really_works() {
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![1i64, 11i64])
            .row(tuple![1i64, 10i64])
            .row(tuple![2i64, 20i64])
            .row(tuple![2i64, 21i64])
            .build();
        let e = enc(&t);
        let x = AttrSet::from_indices([0]);
        let err = pfd_error(&e, x, Attr(1));
        let to_delete = (err * t.len() as f64).round() as usize;
        assert_eq!(to_delete, 2);
        // Keep the plurality per group: rows 0, 2, 3 (or 4).
        let kept = Table::from_rows(
            t.schema().clone(),
            vec![
                t.rows()[0].clone(),
                t.rows()[2].clone(),
                t.rows()[3].clone(),
            ],
        );
        assert!(satisfies_fd(
            &kept,
            &Fd::possible(x, AttrSet::from_indices([1]))
        ));
    }
}
