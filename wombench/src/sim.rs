//! The closed-loop simulator workloads, `sweep-idle` and
//! `verified-busy`: every paper architecture over a fixed set of
//! profile traces, one session per case, records streamed through
//! `ProfileSource` the way `womsim run` streams them.

use std::time::Instant;

use pcm_trace::stream::TraceProfile;
use pcm_trace::TraceOp;
use wom_pcm::{Architecture, RunMetrics, SystemBuilder, SystemConfig};

use crate::digest::{self, DigestTable, Outcome, TableKey};
use crate::feed::{run_session, Batches, BATCH_RECORDS};
use crate::spans::Tracer;
use crate::{
    arch_index, layers, ratio, trace_seed, Layers, Metric, RunReport, SetupTimer, Workload,
};

/// Idle-heavy MiBench profiles of the Fig. 5–7 sweep.
pub const SWEEP_PROFILES: [&str; 4] = ["qsort", "mad", "typeset", "stringsearch"];

/// Busy, large-footprint profiles: write-heavy beside read-heavy.
pub const BUSY_PROFILES: [&str; 2] = ["470.lbm", "raytrace"];

/// Rounds per run. Every round runs every case on its own traces; the
/// run reports the median of the rounds' rates, so a host hiccup during
/// one round does not move the result.
pub const ROUNDS: usize = 5;

/// Records per case and round per requested second on `sweep-idle`,
/// sized on the reference host so that a run measures about `--seconds`.
const SWEEP_RECORDS_PER_SECOND: u64 = 22_000;

/// Records per case and round per requested second on `verified-busy`.
const BUSY_RECORDS_PER_SECOND: u64 = 18_000;

/// Set-ups per `setup_s` sample, one sample before the run and one
/// after every case (see [`crate::SetupTimer`]).
const SETUP_REPS: usize = 4;

/// The paper's Fig. 5(a) average write-latency change of WOM-code PCM,
/// PCM-refresh and WCPCM against the baseline, in percent.
const PAPER_FIG5A: [f64; 3] = [-20.1, -54.9, -47.2];

/// One (round, profile, architecture) case.
#[derive(Debug, Clone)]
pub struct Case {
    /// `r<round>/profile/arch-slug`.
    pub name: String,
    /// Round the case belongs to.
    pub round: usize,
    /// Trace profile.
    pub profile: TraceProfile,
    /// Architecture simulated.
    pub arch: Architecture,
    /// Trace-generator seed (shared by every architecture of a profile).
    pub seed: u64,
    /// Records the case simulates.
    pub records: u64,
    /// Session configuration.
    pub config: SystemConfig,
}

/// Every case of `workload` (a simulator workload) for one trace set.
///
/// # Panics
///
/// Panics when called for the service workload or when a bundled
/// profile is missing (a bug in this benchmark).
#[must_use]
pub fn cases(workload: Workload, seconds: u64, table_seed: u64) -> Vec<Case> {
    let (profiles, per_second, verify): (&[&str], u64, bool) = match workload {
        Workload::SweepIdle => (&SWEEP_PROFILES, SWEEP_RECORDS_PER_SECOND, false),
        Workload::VerifiedBusy => (&BUSY_PROFILES, BUSY_RECORDS_PER_SECOND, true),
        Workload::ServiceSkewed => panic!("the service workload has no simulator cases"),
    };
    let mut out = Vec::new();
    for round in 0..ROUNDS {
        for (i, name) in profiles.iter().enumerate() {
            let profile = TraceProfile::by_name(name).expect("bundled paper profile");
            let seed = trace_seed(table_seed, (round * profiles.len() + i) as u64);
            for arch in Architecture::all_paper() {
                let config = SystemBuilder::new(arch)
                    .rows_per_bank(wom_pcm_bench::EXPERIMENT_ROWS_PER_BANK)
                    .verify_data(verify)
                    .into_config();
                out.push(Case {
                    name: format!("r{round}/{name}/{}", arch.slug()),
                    round,
                    profile: profile.clone(),
                    arch,
                    seed,
                    records: per_second * seconds,
                    config,
                });
            }
        }
    }
    out
}

/// A case with its opened (not yet read) trace, cut into batches.
struct Prepared {
    case: Case,
    batches: Batches,
}

fn prepare(cases: Vec<Case>) -> Result<Vec<Prepared>, String> {
    cases
        .into_iter()
        .map(|case| {
            let source = case
                .profile
                .source(case.seed, case.records)
                .map_err(|e| format!("{}: cannot open trace: {e}", case.name))?;
            Ok(Prepared {
                case,
                batches: Batches::new(source),
            })
        })
        .collect()
}

/// Results of one pass over every case.
struct Pass {
    records: u64,
    wall_s: f64,
    /// Records per second of each round.
    round_rates: Vec<f64>,
    /// Duration of every `Session::feed` call (one batch), in ms.
    feed_ms: Vec<f64>,
    runs: Vec<(Case, RunMetrics)>,
    records_by_arch: [u64; 4],
    writes_verified: u64,
}

/// Runs one case in batches of [`BATCH_RECORDS`]. Each `feed` call's
/// duration in ms is appended to `feed_ms`; write records are counted
/// only under tracing (the codec replay needs them).
fn run_case(
    p: Prepared,
    tracer: &mut Tracer,
    feed_ms: &mut Vec<f64>,
) -> Result<(Case, RunMetrics, u64), String> {
    let count_writes = tracer.enabled();
    let mut writes = 0u64;
    let metrics = run_session(
        &p.case.name,
        p.case.arch,
        p.case.config.clone(),
        p.batches,
        tracer,
        |batch, took| {
            feed_ms.push(took.as_secs_f64() * 1e3);
            if count_writes {
                writes += batch.iter().filter(|r| r.op == TraceOp::Write).count() as u64;
            }
        },
    )?;
    Ok((p.case, metrics, writes))
}

/// Runs every prepared case once. The timed phase is the cases
/// themselves: `quiet` runs after each case, outside every round's clock.
fn run_pass(
    prepared: Vec<Prepared>,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    quiet: &mut dyn FnMut(),
) -> Pass {
    let mut pass = Pass {
        records: 0,
        wall_s: 0.0,
        round_rates: Vec::new(),
        feed_ms: Vec::new(),
        runs: Vec::new(),
        records_by_arch: [0; 4],
        writes_verified: 0,
    };
    // (round, seconds spent in its cases, records).
    let mut round = (0usize, 0.0f64, 0u64);
    for p in prepared {
        if p.case.round != round.0 {
            pass.round_rates.push(ratio(round.2 as f64, round.1));
            round = (p.case.round, 0.0, 0);
        }
        let start = Instant::now();
        let ran = run_case(p, tracer, &mut pass.feed_ms);
        let took = start.elapsed().as_secs_f64();
        round.1 += took;
        pass.wall_s += took;
        match ran {
            Ok((case, metrics, writes)) => {
                round.2 += case.records;
                pass.records += case.records;
                pass.records_by_arch[arch_index(case.arch)] += case.records;
                if case.config.verify_data() {
                    pass.writes_verified += writes;
                }
                pass.runs.push((case, metrics));
            }
            Err(e) => outcome.fail(format!("session error: {e}")),
        }
        quiet();
    }
    pass.round_rates.push(ratio(round.2 as f64, round.1));
    pass
}

fn check(pass: &Pass, table: &DigestTable, key: TableKey<'_>, outcome: &mut Outcome) {
    for (case, metrics) in &pass.runs {
        outcome.check(table, key, &case.name, digest::digest(metrics));
    }
}

/// The expected digest of every case (for `regen-digests`).
///
/// # Errors
///
/// Describes the first case that fails to run.
pub fn expected(
    workload: Workload,
    seconds: u64,
    table_seed: u64,
) -> Result<Vec<(String, u64)>, String> {
    let mut tracer = Tracer::new(false);
    let mut out = Vec::new();
    for p in prepare(cases(workload, seconds, table_seed))? {
        let (case, metrics, _) = run_case(p, &mut tracer, &mut Vec::new())?;
        out.push((case.name, digest::digest(&metrics)));
    }
    Ok(out)
}

/// Mean write latency of each WOM architecture normalised to the
/// baseline on the same trace, averaged over profiles, as a change in
/// percent (the paper's Fig. 5(a) quantity).
fn accuracy_line(pass: &Pass) -> String {
    let mut sums = [0.0f64; 3];
    let mut n = [0u32; 3];
    for (case, base) in pass
        .runs
        .iter()
        .filter(|(c, _)| c.arch == Architecture::Baseline)
    {
        for (other, m) in &pass.runs {
            if other.seed != case.seed || other.profile != case.profile {
                continue;
            }
            let i = arch_index(other.arch);
            if i == 0 {
                continue;
            }
            if let Some(norm) = m.normalized_write_latency(base) {
                sums[i - 1] += (norm - 1.0) * 100.0;
                n[i - 1] += 1;
            }
        }
    }
    let archs = Architecture::all_paper();
    let mut line = String::from("accuracy (reported, not gated): mean write latency vs baseline:");
    for i in 0..3 {
        line.push_str(&format!(
            " {} {:+.1}% (paper Fig. 5(a) {:+.1}%);",
            archs[i + 1].label(),
            ratio(sums[i], f64::from(n[i])),
            PAPER_FIG5A[i]
        ));
    }
    line.push_str(
        " synthetic traces, 4 of the paper's 20 workloads, not validated against hardware",
    );
    line
}

/// Runs a simulator workload (see module docs).
///
/// # Errors
///
/// Returns a message when the digest table cannot be read.
pub fn run(
    workload: Workload,
    seconds: u64,
    table_seed: u64,
    traced: bool,
) -> Result<(RunReport, Option<Tracer>), String> {
    let key = TableKey {
        workload: workload.name(),
        seconds,
        table_seed,
    };
    let mut report = RunReport::default();
    let setup = || {
        let table = DigestTable::load(&digest::table_path());
        let prepared = prepare(cases(workload, seconds, table_seed));
        (table, prepared)
    };
    let mut timer = SetupTimer::new(SETUP_REPS);
    let (table, prepared) = timer.sample(setup);
    let table = table?;
    let prepared = prepared?;

    let mut off = Tracer::new(false);
    let untraced = run_pass(prepared, &mut off, &mut report.outcome, &mut || {
        drop(timer.sample(setup));
    });
    let setup_s = timer.seconds();
    check(&untraced, &table, key, &mut report.outcome);
    let rps = crate::stats::median(&untraced.round_rates);
    report.notes.push(format!(
        "{}: {} rounds of {} cases, {} records in {:.3} s ({:.0} records/s overall); \
         round rates {:?}",
        workload.name(),
        ROUNDS,
        untraced.runs.len() / ROUNDS,
        untraced.records,
        untraced.wall_s,
        ratio(untraced.records as f64, untraced.wall_s),
        untraced
            .round_rates
            .iter()
            .map(|r| r.round())
            .collect::<Vec<_>>(),
    ));
    report.notes.push(crate::setup_note(&timer));
    if workload == Workload::SweepIdle {
        report.notes.push(accuracy_line(&untraced));
    }
    // Closed loop: a batch's latency is its `feed` call.
    let mut feed_ms = untraced.feed_ms.clone();
    crate::stats::sort(&mut feed_ms);
    let n = feed_ms.len();
    let tail = crate::stats::tail_percentile(n).unwrap_or(0.0);
    if tail < 99.0 {
        report
            .outcome
            .fail(format!("only {n} batches; p99 needs 1000"));
    }
    let p50 = crate::stats::percentile(&feed_ms, 50.0).unwrap_or(0.0);
    let p99 = crate::stats::percentile(&feed_ms, 99.0).unwrap_or(0.0);
    report.notes.push(format!(
        "batch ({BATCH_RECORDS} records per Session::feed) latency p50 {p50:.3} ms, \
         p99 {p99:.3} ms, p{tail} {:.3} ms over n={n}",
        crate::stats::percentile(&feed_ms, tail).unwrap_or(0.0),
    ));
    report.end_to_end = vec![
        Metric::new("records_per_s", rps, "1/s"),
        Metric::new("batch_latency_p50_ms", p50, "ms"),
        Metric::new("batch_latency_p99_ms", p99, "ms"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ];
    if !traced {
        return Ok((report, None));
    }

    let mut tracer = Tracer::new(true);
    let from = tracer.spans().len();
    let prepared = prepare(cases(workload, seconds, table_seed))?;
    let traced_pass = run_pass(prepared, &mut tracer, &mut report.outcome, &mut || {});
    check(&traced_pass, &table, key, &mut report.outcome);
    let wall_ns = (traced_pass.wall_s * 1e9) as u64;
    let mut l = Layers {
        tracing_overhead_share: 1.0 - ratio(crate::stats::median(&traced_pass.round_rates), rps),
        unattributed_share: crate::unattributed_share(
            tracer.spans(),
            from..tracer.spans().len(),
            wall_ns,
        ),
        ..Layers::default()
    };
    let runs: Vec<RunMetrics> = traced_pass.runs.iter().map(|(_, m)| m.clone()).collect();
    l.absorb_sessions(
        &crate::spans::totals_since(tracer.spans(), from),
        traced_pass.records_by_arch,
        traced_pass.records,
        &runs,
    );

    // Isolated replays of the layers a session hides.
    let baseline = traced_pass
        .runs
        .iter()
        .map(|(c, _)| c)
        .filter(|c| c.arch == Architecture::Baseline);
    let sources = baseline.map(|c| {
        let source = c.profile.source(c.seed, c.records);
        Ok((
            c.config.mem().clone(),
            source.map_err(|e| format!("{}: {e}", c.name))?,
        ))
    });
    layers::replay_memory(&mut l, sources, &mut tracer)?;
    let decoded = l.core.data_reads_verified;
    layers::replay_codec(&mut l, traced_pass.writes_verified, decoded, &mut tracer)?;
    layers::probe_snapshot(&mut l, &mut tracer)?;
    layers::probe_wire(&mut l, &mut tracer)?;
    report.layers = Some(l);
    Ok((report, Some(tracer)))
}
