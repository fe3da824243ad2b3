//! Discovery workloads `mine_adult` and `mine_million`: the library's
//! public mining functions called in-process on one thread.
//!
//! The timed ops cycle through five op types: the `mine_report` behind
//! `sqlnf mine` and the `MINE` verb, then `mine_fds` under each of the
//! four semantics. Every result is checked against the run's first
//! result of its type and against the fingerprints pinned below.

use crate::layers;
use crate::stats::{median, std_error};
use crate::{ms_since, Args, Report};
use sqlnf_discovery::mine::mine_fds_encoded;
use sqlnf_discovery::prelude::*;
use sqlnf_model::prelude::*;
use sqlnf_model::project::project_set;
use std::hint::black_box;
use std::time::Instant;

/// LHS cap of `mine_report`, as `sqlnf mine t 3` / `MINE t 3`.
pub const REPORT_LHS: usize = 3;

/// The five op types, in the order they cycle.
const OPS: [&str; 5] = ["report", "classical", "possible", "certain", "weak"];

/// What a workload's outputs must look like at every seed (every seed
/// holds the same rows, see `input.rs`): minimal-LHS counts per
/// semantics, and FNV-1a hashes of the rendered report and FD lists
/// (`[report, classical, possible, certain, weak]`).
struct Fingerprint {
    counts: [usize; 4],
    hashes: [u64; 5],
}

struct Spec {
    make: fn(u64) -> Table,
    /// Times the table is built during set-up; `setup_s` is the median.
    setups: usize,
    /// LHS cap of the four `mine_fds` ops.
    mine_lhs: usize,
    fingerprint: Fingerprint,
}

fn spec(workload: &str) -> Spec {
    match workload {
        "mine_adult" => Spec {
            make: sqlnf_datagen::naumann::adult_like,
            setups: 15,
            mine_lhs: 4,
            fingerprint: Fingerprint {
                counts: [88, 92, 80, 92],
                hashes: [
                    0xbb06_16ca_8edf_7eb1,
                    0x078c_6d7f_7ef0_648a,
                    0x67e0_2ad9_fc11_2456,
                    0x7c6f_d89c_ff80_db5a,
                    0x67e0_2ad9_fc11_2456,
                ],
            },
        },
        _ => Spec {
            make: sqlnf_datagen::naumann::million_like,
            setups: 9,
            mine_lhs: 3,
            fingerprint: Fingerprint {
                counts: [2, 2, 2, 2],
                hashes: [
                    0x9ec0_2d21_35a7_5362,
                    0xdbef_1fd4_dc23_fc18,
                    0xdbef_1fd4_dc23_fc18,
                    0xdbef_1fd4_dc23_fc18,
                    0xdbef_1fd4_dc23_fc18,
                ],
            },
        },
    }
}

/// FNV-1a, 64 bit: a stable fingerprint of an output's text.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn render_fds(schema: &TableSchema, fds: &[MinedFd]) -> String {
    fds.iter()
        .map(|f| {
            format!(
                "{}->{};",
                schema.display_set(f.lhs),
                schema.display_set(f.rhs)
            )
        })
        .collect()
}

/// Builds the run's table from its rows `setups` times; returns the
/// last table and the median build time in seconds. Generating the rows
/// and drawing their order is the benchmark's own work and is not
/// timed; `Table::from_rows` is, the ingest into the dictionary-coded
/// column store that every caller of the library pays. Every build must
/// agree.
fn timed_setup(
    schema: &TableSchema,
    rows: Vec<Tuple>,
    setups: usize,
    report: &mut Report,
) -> (Table, f64) {
    let mut times = Vec::new();
    let mut hashes = Vec::new();
    let mut table = None;
    let mut rows = Some(rows);
    for i in 0..setups {
        drop(table.take());
        let batch = if i + 1 == setups {
            rows.take()
        } else {
            rows.clone()
        }
        .expect("the rows are kept until the last build");
        let t0 = Instant::now();
        let t = Table::from_rows(schema.clone(), batch);
        times.push(t0.elapsed().as_secs_f64());
        hashes.push(crate::input::table_hash(&t));
        table = Some(t);
    }
    report.check(hashes.windows(2).all(|w| w[0] == w[1]), || {
        "set-up built different tables from one seed".to_owned()
    });
    report.notes.push(format!(
        "setup samples s: {}",
        times
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    (table.expect("setups > 0"), median(&times))
}

fn mine(t: &Table, sem: Semantics, lhs: usize) -> MiningResult {
    mine_fds(t, MinerConfig::new(sem).with_max_lhs(lhs).with_threads(1))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let spec = spec(&args.workload);
    let mut report = Report::default();
    let (schema, rows) = {
        let base = (spec.make)(crate::input::BASE_SEED);
        let rows = crate::input::permuted_rows(&base, args.seed);
        (base.schema().clone(), rows)
    };
    let (table, setup_s) = timed_setup(&schema, rows, spec.setups, &mut report);
    crate::reset_peak_rss();
    report.notes.push(format!(
        "{}: {} rows x {} columns; mine_fds LHS cap {}, report LHS cap {REPORT_LHS}; one thread",
        args.workload,
        table.len(),
        schema.arity(),
        spec.mine_lhs
    ));

    // The timed ops cycle through OPS. An op starts only if its median
    // so far says it ends before the deadline; each op type runs at
    // least once. The traced run spends a quarter of its time here (for
    // `obs.overhead_ratio`) and the rest on the layers.
    let deadline = args.seconds * 1e3 / if args.trace { 4.0 } else { 1.0 };
    let started = Instant::now();
    let mut times: [Vec<f64>; 5] = Default::default();
    let mut first: [Option<String>; 5] = Default::default();
    let mut counts = [0usize; 4];
    for i in (0..OPS.len()).cycle() {
        let ran_all = times.iter().all(|t| !t.is_empty());
        if ran_all && ms_since(started) + median(&times[i]) > deadline {
            if times
                .iter()
                .all(|t| ms_since(started) + median(t) > deadline)
            {
                break;
            }
            continue;
        }
        let t0 = Instant::now();
        let out = if i == 0 {
            mine_report(
                schema.name(),
                black_box(&table),
                REPORT_LHS,
                DEFAULT_CACHE_BUDGET,
            )
        } else {
            let mined = mine(black_box(&table), Semantics::ALL[i - 1], spec.mine_lhs);
            counts[i - 1] = mined.fds.len();
            render_fds(&schema, &mined.fds)
        };
        times[i].push(ms_since(t0));

        let op = OPS[i];
        let expect = first[i].get_or_insert_with(|| out.clone());
        report.check(*expect == out, || {
            format!("{op} output changed within the run")
        });
        let (h, want) = (fnv(&out), spec.fingerprint.hashes[i]);
        report.check(h == want, || {
            format!("{op} output hash {h:#x} differs from the pinned {want:#x}")
        });
        if i > 0 {
            let (n, want) = (counts[i - 1], spec.fingerprint.counts[i - 1]);
            report.check(n == want, || {
                format!("{op}: {n} minimal LHSs, {want} pinned")
            });
        }
    }
    for (op, t) in OPS.iter().zip(&times) {
        let t: Vec<String> = t.iter().map(|v| format!("{v:.0}")).collect();
        report
            .notes
            .push(format!("{op} samples ms: {}", t.join(" ")));
    }
    report.notes.push(format!(
        "minimal-LHS counts [classical, possible, certain, weak] = {counts:?}; report header: {}",
        first[0]
            .as_deref()
            .unwrap_or("")
            .lines()
            .nth(1)
            .unwrap_or("")
    ));
    // The four semantics together: the paper's discovery-time row.
    let sem_ms: f64 = times[1..].iter().map(|t| median(t)).sum();
    let sem_n = times[1..].iter().map(Vec::len).min().unwrap_or(0);

    let pid = std::process::id().to_string();
    if !args.trace {
        report.metric("setup_s", setup_s, "s", spec.setups);
        report.metric("peak_rss_mb", crate::peak_rss_mb(&pid), "MiB", 1);
        report.metric("primary_ms", median(&times[0]), "ms", times[0].len());
        report.metric("secondary_ms", sem_ms, "ms", sem_n);
    }
    report.detail("setup_s", setup_s, "s", spec.setups);
    report.detail("peak_rss_mb", crate::peak_rss_mb(&pid), "MiB", 1);
    for (op, t) in OPS.iter().zip(&times) {
        report.detail(&format!("{op}_ms"), median(t), "ms", t.len());
    }

    if args.trace {
        let ref_ms = args
            .e2e_ref_ms
            .ok_or("the traced run needs --e2e-ref-ms from an untraced run")?;
        report.metric(
            "obs.overhead_ratio",
            median(&times[0]) / ref_ms,
            "ratio",
            times[0].len(),
        );
        let sigma = sigma_for(&args.workload, &schema);
        discovery_layers(&table, spec.mine_lhs, &mut report);
        layers::model_and_store(&table, &sigma, &args.work, &mut report)?;
        crate::serve::probe(args, &table, &sigma, &mut report)?;
    }
    Ok(report)
}

/// The constraints a user would declare on the workload's table: the
/// generator's planted FDs.
fn sigma_for(workload: &str, s: &TableSchema) -> Sigma {
    match workload {
        "mine_adult" => Sigma::new().with(Fd::certain(
            s.set(&["education"]),
            s.set(&["education_num"]),
        )),
        _ => Sigma::new()
            .with(Fd::certain(s.set(&["site"]), s.set(&["region"])))
            .with(Fd::certain(s.set(&["device_class"]), s.set(&["firmware"]))),
    }
}

fn obs_counter(name: &str) -> f64 {
    sqlnf_obs::report().counter(name).unwrap_or(0) as f64
}

/// Repetitions of each timed layer call in the traced run.
const REPS: usize = 2;

/// Repetitions of the report's parts in the traced run: at least the
/// first, and more, up to the second, while the split has taken less
/// than [`REPORT_BUDGET_MS`].
const REPORT_REPS: (usize, usize) = (6, 24);
const REPORT_BUDGET_MS: f64 = 75_000.0;

/// Classify's work after its two mines, in `classify_table_encoded`'s
/// order: the certain-key and reflexivity probes over the mined FDs,
/// and the projections they call for. Returns how many sets were
/// projected and the milliseconds the projections took.
fn probe_pass(
    table: &Table,
    enc: &Encoded,
    possible: &[MinedFd],
    certain: &[MinedFd],
) -> (usize, f64) {
    let null_free = enc.null_free_columns();
    let mut ctx = PartitionCtx::with_budget(enc, NullSemantics::Strong, DEFAULT_CACHE_BUDGET);
    let probes = ProbeCache::new(enc);
    let (mut sets, mut project_ms) = (0, 0.0);
    let mut project = |s: AttrSet| {
        let t0 = Instant::now();
        black_box(project_set(table, s, "proj"));
        project_ms += ms_since(t0);
        sets += 1;
    };
    for fd in possible.iter().filter(|fd| fd.lhs.is_subset(null_free)) {
        let strong = ctx.partition(fd.lhs);
        if !is_ckey_cached(enc, &probes, fd.lhs, &strong) {
            project(fd.lhs | fd.rhs);
        }
    }
    for fd in certain.iter().filter(|fd| !fd.lhs.is_subset(null_free)) {
        if certain_reflexive_holds_cached(enc, &probes, fd.lhs) {
            let strong = ctx.partition(fd.lhs);
            if !fd.rhs.is_empty() && !is_ckey_cached(enc, &probes, fd.lhs, &strong) {
                project(fd.lhs | fd.rhs);
            }
        }
    }
    (sets, project_ms)
}

/// The traced run's discovery layers, timed from the bench's side on
/// the workload's table: the parts of one `mine_report` call, the four
/// semantics with their obs counts, and the incremental miner.
pub fn discovery_layers(table: &Table, mine_lhs: usize, report: &mut Report) {
    let name = table.schema().name().to_owned();
    let schema = table.schema().clone();
    let cls = classify_table_budgeted(table, REPORT_LHS, DEFAULT_CACHE_BUDGET);
    // The whole report, then its parts as `mine_report` runs them, each
    // timed on its own: classify's encoding and probes (its own work),
    // its two mines and its projections (timed one by one where classify
    // makes them), then the keys and the render. Every repetition of the
    // parts sits between two timings of the whole and is held against
    // their mean: this host's speed moves by a quarter within seconds,
    // so only samples taken side by side compare.
    let (mut whole, mut own, mut mines, mut project, mut keys, mut render) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let time_whole = || {
        let t0 = Instant::now();
        black_box(mine_report(&name, table, REPORT_LHS, DEFAULT_CACHE_BUDGET));
        ms_since(t0)
    };
    sqlnf_obs::reset();
    let started = Instant::now();
    whole.push(time_whole());
    let evictions = obs_counter("discovery.partition.cache.evictions");
    let mut rep = 0;
    let config = |sem| {
        MinerConfig::new(sem)
            .with_max_lhs(REPORT_LHS)
            .with_cache_budget(DEFAULT_CACHE_BUDGET)
            .with_threads(1)
    };
    let mut projected = 0;
    while rep < REPORT_REPS.0 || (rep < REPORT_REPS.1 && ms_since(started) < REPORT_BUDGET_MS) {
        let t0 = Instant::now();
        let enc = Encoded::new(table);
        let encode_ms = ms_since(t0);
        let t0 = Instant::now();
        let possible = mine_fds_encoded(&enc, schema.arity(), config(Semantics::Possible), t0);
        let certain = mine_fds_encoded(&enc, schema.arity(), config(Semantics::Certain), t0);
        mines.push(ms_since(t0));
        let t0 = Instant::now();
        let (n, project_ms) = probe_pass(table, &enc, &possible.fds, &certain.fds);
        own.push(encode_ms + ms_since(t0) - project_ms);
        project.push(project_ms);
        projected = n;
        drop(enc);

        let t0 = Instant::now();
        let mk = mine_keys_budgeted(table, REPORT_LHS, DEFAULT_CACHE_BUDGET);
        keys.push(ms_since(t0));
        let t0 = Instant::now();
        black_box(render_report(
            &name,
            table.len(),
            &schema,
            REPORT_LHS,
            &cls,
            &mk,
        ));
        render.push(ms_since(t0));
        whole.push(time_whole());
        rep += 1;
    }
    // The probe pass must find what classify projects.
    let want = cls.nn_nonkey_ratios.len() + cls.lambda_fds.len();
    report.check(projected == want, || {
        format!("the probe pass projects {projected} sets, classify {want}")
    });
    // Each repetition of the parts against the mean of the two timings
    // of the whole around it. The share left unexplained is that of the
    // pooled sums; its standard error comes from the spread of the
    // per-repetition ratios.
    let (sums, flanks): (Vec<f64>, Vec<f64>) = (0..rep)
        .map(|i| {
            let parts = own[i] + mines[i] + project[i] + keys[i] + render[i];
            (parts, (whole[i] + whole[i + 1]) / 2.0)
        })
        .unzip();
    let unexplained = 1.0 - sums.iter().sum::<f64>() / flanks.iter().sum::<f64>();
    let ratios: Vec<f64> = sums.iter().zip(&flanks).map(|(p, w)| p / w).collect();
    let se = std_error(&ratios);
    let [whole, own, mines, project, keys, render] =
        [whole, own, mines, project, keys, render].map(|t| median(&t));
    report.metric("discovery.report.whole_ms", whole, "ms", rep + 1);
    report.metric("discovery.report.mine_ms", mines, "ms", rep);
    report.metric("discovery.report.keys_ms", keys, "ms", rep);
    report.metric("discovery.report.classify_self_ms", own, "ms", rep);
    report.metric("discovery.report.render_ms", render, "ms", rep);
    report.metric("model.project_ms", project, "ms", rep);
    report.metric(
        "discovery.report.unexplained_share",
        unexplained,
        "ratio",
        rep,
    );
    report.notes.push(format!(
        "report split: unexplained share {unexplained:.4} ± {se:.4} (standard error, {rep} repetitions)"
    ));
    // The parts must cover the whole to within a tenth. One report
    // sample moves by 10-20 % here, with the host's speed, so the test
    // allows two standard errors of the estimate before it fails: a
    // part left out (keys or projections on adult, a fifth of the
    // report or more) still fails it.
    report.check(unexplained.abs() - 2.0 * se <= 0.1, || {
        format!(
            "report parts leave {:.1} % ± {:.1} % of the whole unexplained",
            unexplained * 100.0,
            se * 100.0
        )
    });
    report.metric("discovery.partition.cache.evictions", evictions, "count", 1);

    // The four semantics at the workload's mine cap, each on a clean
    // obs registry so the counts are this call's alone (exact on one
    // thread).
    let mut ms = [0.0; 4];
    let mut scanned = [0.0; 4];
    let mut probe_builds = 0.0;
    for (i, sem) in Semantics::ALL.iter().enumerate() {
        let tok = sem.token();
        let mut t = vec![];
        for _ in 0..REPS {
            sqlnf_obs::reset();
            let t0 = Instant::now();
            black_box(mine(table, *sem, mine_lhs));
            t.push(ms_since(t0));
        }
        ms[i] = median(&t);
        scanned[i] = obs_counter("discovery.partition.rows_scanned");
        report.metric(&format!("discovery.mine.{tok}_ms"), ms[i], "ms", REPS);
        report.metric(
            &format!("discovery.partition.rows_scanned.{tok}"),
            scanned[i],
            "count",
            1,
        );
        report.metric(
            &format!("discovery.partition.products.{tok}"),
            obs_counter("discovery.partition.products"),
            "count",
            1,
        );
        report.metric(
            &format!("discovery.check.fused_checks.{tok}"),
            obs_counter("discovery.check.fused_checks"),
            "count",
            1,
        );
        report.metric(
            &format!("discovery.mine.candidates_checked.{tok}"),
            obs_counter("discovery.mine.candidates_checked"),
            "count",
            1,
        );
        if *sem == Semantics::Certain {
            probe_builds = obs_counter("discovery.check.probe_index.builds");
            report.metric(
                "discovery.check.probe_index.builds",
                probe_builds,
                "count",
                1,
            );
            report.metric(
                "discovery.check.probe_index.hits",
                obs_counter("discovery.check.probe_index.hits"),
                "count",
                1,
            );
        }
    }
    // Differences of medians: a split that should leave work behind
    // must. The certain probe tail is ≈ 0, either sign, where the
    // certain mine built no probe index (no nulls in any LHS).
    let (probe, weak_extra) = (ms[2] - ms[1], ms[3] - ms[1]);
    report.metric("discovery.certain_probe_ms", probe, "ms", REPS);
    report.metric("discovery.weak_extra_ms", weak_extra, "ms", REPS);
    report.check(probe_builds == 0.0 || probe > 0.0, || {
        format!("certain built probe indexes yet took {probe:.1} ms less than possible")
    });
    report.check(weak_extra > 0.0, || {
        format!("weak took {weak_extra:.1} ms less than possible")
    });
    report.metric(
        "discovery.weak_scan_ratio",
        scanned[3] / scanned[1].max(1.0),
        "ratio",
        1,
    );

    layers::incremental(table, report);
}
