//! # sqlnf-discovery
//!
//! Discovery (data profiling) of functional dependencies from SQL data,
//! as used in Section 7 of Köhler & Link (SIGMOD 2016): a TANE-style
//! level-wise miner over dictionary-encoded columns and stripped
//! partitions, instantiated for four semantics — classical (nulls as
//! values; the convention of the FD-discovery literature), possible
//! (strong similarity), certain (weak similarity) and weak
//! (some-possible-world satisfaction, after Levene/Loizou as surveyed
//! by Badia & Lemire) — plus the classification of mined FDs into
//! nn/p/c/t/λ categories and the relative projection sizes behind
//! Figure 6.

#![warn(missing_docs)]

pub mod approx;
pub mod cache;
pub mod check;
pub mod classify;
pub mod incremental;
pub mod keys;
pub mod mine;
pub mod partition;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::approx::{
        cfd_error, cfd_error_probed, ckey_error, ckey_error_probed, classical_fd_error,
        key_error_of_table, pfd_error, pkey_error, wfd_error,
    };
    pub use crate::cache::{PartitionCtx, DEFAULT_CACHE_BUDGET};
    pub use crate::check::{
        certain_reflexive_holds_cached, fd_holds, fd_targets_holding, is_ckey_cached, is_pkey,
        is_weak_key, null_semantics, partition_for, probe_weak_pairs, ProbeCache, ProbeIndex,
        Semantics,
    };
    pub use crate::classify::{
        classify_table, classify_table_budgeted, mine_report, render_report,
        render_semantics_report, semantics_report, Classification, Counts, LambdaFd,
    };
    pub use crate::incremental::IncrementalMiner;
    pub use crate::keys::{mine_keys, mine_keys_budgeted, MinedKeys};
    pub use crate::mine::{mine_fds, MinedFd, MinerConfig, MiningResult};
    pub use crate::partition::{Encoded, NullSemantics, Partition, ProductScratch};
}
