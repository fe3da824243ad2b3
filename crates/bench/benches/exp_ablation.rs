//! A1 — ablations of the two implementation choices DESIGN.md calls
//! out, plus the update-anomaly accounting on the contractor workload.
//!
//! 1. **Null-row probing in c-FD checks**: pattern-indexed probe
//!    (shipped) versus the naive all-rows scan, on an adult-sized
//!    slice. The index is what keeps c-FD discovery within the same
//!    order of magnitude as classical discovery.
//! 2. **Violation pick order in Algorithm 3**: deferring violations
//!    whose new attributes feed other LHSs (shipped) versus naive
//!    first-found order. On the contractor schema the naive order
//!    inflates an LHS and produces a larger schema (3896 vs 3720
//!    cells).
//! 3. **Update anomalies**: bound positions before vs after VRNF
//!    normalization of contractor.

use sqlnf_bench::{banner, fmt_duration, render_table, timed};
use sqlnf_core::anomaly::anomaly_score;
use sqlnf_core::decompose::vrnf_decompose;
use sqlnf_datagen::contractor::{contractor, contractor_sigma};
use sqlnf_datagen::naumann::adult_like;
use sqlnf_discovery::partition::Encoded;
use sqlnf_model::prelude::*;

/// Naive reference for the weak-pair probe: scan every row per
/// null-bearing row.
fn naive_cfd_holds(enc: &Encoded, rows: usize, x: AttrSet, a: Attr) -> bool {
    use sqlnf_discovery::check::{fd_targets_holding, partition_for, ProbeCache, Semantics};
    // Partition part is shared; re-do the null probing naively.
    let p = partition_for(enc, x, Semantics::Possible);
    let within = fd_targets_holding(
        enc,
        x,
        &p,
        AttrSet::single(a),
        Semantics::Possible,
        &ProbeCache::new(enc),
    );
    if within.is_empty() {
        return false;
    }
    for r in 0..rows {
        if enc.is_total_on(r, x) {
            continue;
        }
        for s in 0..rows {
            if s != r && enc.weakly_similar(r, s, x) && enc.code(r, a) != enc.code(s, a) {
                return false;
            }
        }
    }
    true
}

fn main() {
    banner("A1.1: c-FD null probing — pattern index vs naive scan");
    let adult = {
        // A 12k-row slice keeps the naive side affordable.
        let full = adult_like(7);
        Table::from_rows(
            full.schema().clone(),
            full.rows().iter().take(12_000).cloned().collect::<Vec<_>>(),
        )
    };
    let enc = Encoded::new(&adult);
    let s = adult.schema().clone();
    // A c-FD that actually holds with nulls in the LHS is the worst
    // case (no early exit): education determines education_num, and
    // workclass (nullable) is padding in the LHS.
    let x = s.set(&["education", "workclass"]);
    let target = s.a("education_num");

    let (indexed_result, t_indexed) = timed(|| {
        sqlnf_discovery::check::fd_holds(
            &enc,
            x,
            target,
            sqlnf_discovery::check::Semantics::Certain,
        )
    });
    let (naive_result, t_naive) = timed(|| naive_cfd_holds(&enc, adult.len(), x, target));
    assert_eq!(indexed_result, naive_result);
    print!(
        "{}",
        render_table(
            &["probe", "verdict", "time"],
            &[
                vec![
                    "pattern index (shipped)".into(),
                    indexed_result.to_string(),
                    fmt_duration(t_indexed)
                ],
                vec![
                    "naive full scan".into(),
                    naive_result.to_string(),
                    fmt_duration(t_naive)
                ],
            ]
        )
    );
    assert!(
        t_naive > t_indexed,
        "index must beat the scan on a holding c-FD with frequent nulls"
    );

    banner("A1.2: Algorithm 3 pick order — deferred vs naive (contractor)");
    let table = contractor(20_160_626);
    let sigma = contractor_sigma(table.schema());
    let (t, nfs) = (table.schema().attrs(), table.schema().nfs());
    // Shipped heuristic.
    let d = vrnf_decompose(t, nfs, &sigma).unwrap();
    let cells: usize = d.apply(&table).iter().map(Table::cell_count).sum();
    // Naive order simulation: decompose by FD3 first (the url-producing
    // FD), then continue with the shipped algorithm on the remainder —
    // this replays the inflated run observed before the heuristic.
    let fd3 = sigma.fds[2];
    let (rest_attrs, xy_attrs) = sqlnf_core::decompose::split_by_fd(t, &fd3);
    let rest_sigma = Sigma {
        fds: vec![sigma.fds[0]],
        keys: vec![],
    };
    // FD2's LHS lost `url`; its surviving consequence has the FD3 LHS
    // substituted in, which is what a naive order must decompose by.
    let inflated_lhs = (sigma.fds[1].lhs - xy_attrs) | fd3.lhs;
    let inflated = Fd::certain(
        inflated_lhs,
        inflated_lhs | (sigma.fds[1].rhs - sigma.fds[1].lhs),
    );
    let rest_sigma = rest_sigma.with(inflated);
    let d_rest = vrnf_decompose(rest_attrs, nfs & rest_attrs, &rest_sigma).unwrap();
    // d_rest's components carry original attribute ids, so they apply
    // to the original table directly (projections compose).
    let mut naive_cells = sqlnf_model::project::project_set(&table, xy_attrs, "xy").cell_count();
    for part in d_rest.apply(&table) {
        naive_cells += part.cell_count();
    }
    print!(
        "{}",
        render_table(
            &["pick order", "total cells"],
            &[
                vec![
                    "defer attribute-consuming FDs (shipped)".into(),
                    cells.to_string()
                ],
                vec!["naive first-found".into(), naive_cells.to_string()],
            ]
        )
    );
    assert_eq!(cells, 3720);
    assert!(naive_cells > cells, "heuristic must not be worse");

    banner("A1.3: update anomalies before/after normalization (contractor)");
    let before = anomaly_score(&table, &sigma);
    let parts = d.apply(&table);
    let mut after = 0usize;
    for (comp, part) in d.components.iter().zip(&parts) {
        // Translate the component's sigma into the part's indices.
        let translate = |set: AttrSet| table.schema().translate_into_projection(comp.attrs, set);
        let mut local = Sigma::new();
        for fd in &comp.sigma.fds {
            local.add(Fd {
                lhs: translate(fd.lhs),
                rhs: translate(fd.rhs),
                modality: fd.modality,
            });
        }
        for k in &comp.sigma.keys {
            local.add(Key {
                attrs: translate(k.attrs),
                modality: k.modality,
            });
        }
        after += anomaly_score(part, &local);
    }
    print!(
        "{}",
        render_table(
            &["schema", "bound positions (update anomalies)"],
            &[
                vec!["contractor (1 table)".into(), before.to_string()],
                vec!["normalized (4 tables)".into(), after.to_string()],
            ]
        )
    );
    assert_eq!(after, 0, "VRNF output must be anomaly-free");
    assert!(
        before >= 448,
        "anomalies cover at least the redundant values"
    );
    println!("\nablations confirm the shipped choices ✓");
}
