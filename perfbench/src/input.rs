//! Seeded inputs of equal cost.
//!
//! Each workload's base instance is generated at [`BASE_SEED`]; the
//! run's `--seed` then draws the row order. Every seed therefore gets
//! the same multiset of rows, hence the same minimal FDs and keys (so
//! the pinned fingerprints hold at every seed) and the same partition
//! sizes, while the dictionary codes (assigned in order of first
//! appearance), the order of partition classes and the hash-table
//! insertion orders differ. Seeding the generator itself instead would
//! change the dependency structure, and with it the mining cost, by up
//! to 4x from one seed to the next on `adult_like`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sqlnf_model::prelude::*;
use std::hash::{Hash, Hasher};

/// The generator seed of every base instance.
pub const BASE_SEED: u64 = 20160626;

/// `base`'s rows in an order drawn from `seed`.
pub fn permuted_rows(base: &Table, seed: u64) -> Vec<Tuple> {
    let mut order: Vec<usize> = (0..base.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order.into_iter().map(|i| base.rows()[i].clone()).collect()
}

/// A content hash of a table's rows, in order.
pub fn table_hash(t: &Table) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for row in t.rows() {
        row.values().hash(&mut h);
    }
    h.finish()
}
