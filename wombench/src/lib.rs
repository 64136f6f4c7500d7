//! Steady end-to-end and per-layer benchmark of the WOM-code PCM
//! workspace (see `README.md` beside this package).
//!
//! One invocation runs one workload at one seed and does a fixed amount
//! of work, so two commits simulate identical traces and every output is
//! checked against the digest table. `--trace 1` runs the workload a
//! second time with spans around every call into a layer, plus isolated
//! replays of the layers a session hides, and reports per-layer costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Wall-clock time is the quantity this crate measures; the workspace's
// `Instant::now` ban guards simulation code, which never runs here.
#![allow(clippy::disallowed_methods)]

pub mod digest;
pub mod feed;
pub mod host;
pub mod layers;
pub mod service;
pub mod sim;
pub mod spans;
pub mod stats;

use std::time::Instant;

use wom_pcm::{Architecture, RunMetrics};

use crate::spans::{Span, Totals};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 5–7 sweep over idle-heavy MiBench traces.
    SweepIdle,
    /// Data-verified runs over busy, large-footprint traces.
    VerifiedBusy,
    /// An in-process `womd` service with a skewed tenant mix.
    ServiceSkewed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Self; 3] = [Self::SweepIdle, Self::VerifiedBusy, Self::ServiceSkewed];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SweepIdle => "sweep-idle",
            Self::VerifiedBusy => "verified-busy",
            Self::ServiceSkewed => "service-skewed",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Index of `arch` in [`Architecture::all_paper`].
#[must_use]
pub fn arch_index(arch: Architecture) -> usize {
    Architecture::all_paper()
        .iter()
        .position(|&a| a == arch)
        .unwrap_or(0)
}

/// Per-layer numbers of a traced run. A layer the workload does not
/// exercise reports zero work and zero time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Self time of `TraceSource::next_chunk` per record.
    pub trace_ns_per_record: f64,
    /// Records produced by `next_chunk` under tracing.
    pub trace_records: f64,
    /// Self time of `Session::feed` per record, per paper architecture.
    pub session_ns_per_record: [f64; 4],
    /// Mean `Session::open` time.
    pub session_open_ms: f64,
    /// Mean `Session::finish` time.
    pub session_finish_ms: f64,
    /// Counts summed over the traced sessions' [`RunMetrics`].
    pub core: CoreCounts,
    /// Isolated `MemorySystem` replay time per request.
    pub pcm_sim_replay_ns_per_request: f64,
    /// Requests in the isolated `MemorySystem` replay.
    pub pcm_sim_replay_requests: f64,
    /// Isolated `encode_row_into` time per row.
    pub codec_encode_ns_per_row: f64,
    /// Isolated `decode_row_into` time per row.
    pub codec_decode_ns_per_row: f64,
    /// Rows encoded in the isolated codec replay.
    pub codec_rows_encoded: f64,
    /// Rows decoded in the isolated codec replay.
    pub codec_rows_decoded: f64,
    /// Mean `Session::checkpoint` time on tenant-shaped sessions.
    pub snapshot_checkpoint_ms: f64,
    /// Mean `Session::resume` time on tenant-shaped sessions.
    pub snapshot_resume_ms: f64,
    /// Mean checkpoint container size.
    pub snapshot_bytes: f64,
    /// Median time inside `Service::feed`.
    pub womd_feed_call_us_p50: f64,
    /// `Busy` replies per feed attempt.
    pub womd_busy_share: f64,
    /// Open-loop send-to-completion median.
    pub womd_batch_service_ms_p50: f64,
    /// Open-loop send-to-completion p99.
    pub womd_batch_service_ms_p99: f64,
    /// Epoch events drained per batch fed.
    pub womd_epoch_events_per_batch: f64,
    /// p99 of how late the open-loop generator sent.
    pub gen_lag_ms_p99: f64,
    /// Isolated wire feed-frame decode time per record.
    pub wire_decode_ns_per_record: f64,
    /// 1 − traced ÷ untraced `records_per_s`.
    pub tracing_overhead_share: f64,
    /// Share of the traced phase's wall time outside every span.
    pub unattributed_share: f64,
}

/// Exact counts read from `Session::metrics()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreCounts {
    /// Fast writes ÷ (fast + slow) writes.
    pub fast_write_share: f64,
    /// Completed PCM-refresh rows.
    pub refreshes_completed: u64,
    /// Preempted PCM-refresh rows.
    pub refreshes_preempted: u64,
    /// Writes merged into an open write.
    pub coalesced_writes: u64,
    /// WCPCM victim write-backs.
    pub victim_writebacks: u64,
    /// Hidden-page table accesses.
    pub hidden_page_accesses: u64,
    /// Reads whose decoded data was verified.
    pub data_reads_verified: u64,
}

impl CoreCounts {
    /// Sums the counts of `runs`.
    #[must_use]
    pub fn sum<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> Self {
        let mut c = Self::default();
        let (mut fast, mut slow) = (0u64, 0u64);
        for m in runs {
            fast += m.fast_writes;
            slow += m.slow_writes;
            c.refreshes_completed += m.refreshes_completed;
            c.refreshes_preempted += m.refreshes_preempted;
            c.coalesced_writes += m.coalesced_writes;
            c.victim_writebacks += m.victim_writebacks;
            c.hidden_page_accesses += m.hidden_page_accesses;
            c.data_reads_verified += m.data_reads_verified;
        }
        c.fast_write_share = ratio(fast as f64, (fast + slow) as f64);
        c
    }
}

/// `num / den`, or 0 when nothing was measured.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Every per-layer metric, named as in `BENCHMARK.json`.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = vec![
            Metric::new("trace.ns_per_record", self.trace_ns_per_record, "ns"),
            Metric::new("trace.records", self.trace_records, "count"),
        ];
        for (arch, v) in Architecture::all_paper()
            .iter()
            .zip(self.session_ns_per_record)
        {
            m.push(Metric::new(
                format!("session.ns_per_record.{}", arch.slug()),
                v,
                "ns",
            ));
        }
        let c = &self.core;
        m.extend([
            Metric::new("session.open_ms", self.session_open_ms, "ms"),
            Metric::new("session.finish_ms", self.session_finish_ms, "ms"),
            Metric::new("core.fast_write_share", c.fast_write_share, "share"),
            Metric::new(
                "core.refreshes_completed",
                c.refreshes_completed as f64,
                "count",
            ),
            Metric::new(
                "core.refreshes_preempted",
                c.refreshes_preempted as f64,
                "count",
            ),
            Metric::new("core.coalesced_writes", c.coalesced_writes as f64, "count"),
            Metric::new(
                "core.victim_writebacks",
                c.victim_writebacks as f64,
                "count",
            ),
            Metric::new(
                "core.hidden_page_accesses",
                c.hidden_page_accesses as f64,
                "count",
            ),
            Metric::new(
                "core.data_reads_verified",
                c.data_reads_verified as f64,
                "count",
            ),
            Metric::new(
                "pcm_sim.replay_ns_per_request",
                self.pcm_sim_replay_ns_per_request,
                "ns",
            ),
            Metric::new(
                "pcm_sim.replay_requests",
                self.pcm_sim_replay_requests,
                "count",
            ),
            Metric::new(
                "codec.encode_ns_per_row",
                self.codec_encode_ns_per_row,
                "ns",
            ),
            Metric::new(
                "codec.decode_ns_per_row",
                self.codec_decode_ns_per_row,
                "ns",
            ),
            Metric::new("codec.rows_encoded", self.codec_rows_encoded, "count"),
            Metric::new("codec.rows_decoded", self.codec_rows_decoded, "count"),
            Metric::new("snapshot.checkpoint_ms", self.snapshot_checkpoint_ms, "ms"),
            Metric::new("snapshot.resume_ms", self.snapshot_resume_ms, "ms"),
            Metric::new("snapshot.bytes", self.snapshot_bytes, "B"),
            Metric::new("womd.feed_call_us_p50", self.womd_feed_call_us_p50, "us"),
            Metric::new("womd.busy_share", self.womd_busy_share, "share"),
            Metric::new(
                "womd.batch_service_ms_p50",
                self.womd_batch_service_ms_p50,
                "ms",
            ),
            Metric::new(
                "womd.batch_service_ms_p99",
                self.womd_batch_service_ms_p99,
                "ms",
            ),
            Metric::new(
                "womd.epoch_events_per_batch",
                self.womd_epoch_events_per_batch,
                "count",
            ),
            Metric::new("gen.lag_ms_p99", self.gen_lag_ms_p99, "ms"),
            Metric::new(
                "wire.decode_ns_per_record",
                self.wire_decode_ns_per_record,
                "ns",
            ),
            Metric::new(
                "tracing_overhead_share",
                self.tracing_overhead_share,
                "share",
            ),
            Metric::new("unattributed_share", self.unattributed_share, "share"),
        ]);
        m
    }

    /// Fills the trace and session-layer fields from the span totals of
    /// a traced pass, the records fed per architecture, the records
    /// `next_chunk` produced, and the sessions' final metrics.
    pub fn absorb_sessions(
        &mut self,
        totals: &std::collections::BTreeMap<(&'static str, &'static str), Totals>,
        records_by_arch: [u64; 4],
        trace_records: u64,
        runs: &[RunMetrics],
    ) {
        self.trace_records = trace_records as f64;
        let mut opens = Totals::default();
        let mut finishes = Totals::default();
        for (&(name, tag), t) in totals {
            match name {
                "session.feed" => {
                    if let Some(i) = Architecture::all_paper()
                        .iter()
                        .position(|a| a.slug() == tag)
                    {
                        self.session_ns_per_record[i] =
                            ratio(t.self_ns as f64, records_by_arch[i] as f64);
                    }
                }
                "session.open" => {
                    opens.calls += t.calls;
                    opens.self_ns += t.self_ns;
                }
                "session.finish" => {
                    finishes.calls += t.calls;
                    finishes.self_ns += t.self_ns;
                }
                "trace.next_chunk" => {
                    self.trace_ns_per_record = ratio(t.self_ns as f64, self.trace_records);
                }
                _ => {}
            }
        }
        self.session_open_ms = ratio(opens.self_ns as f64, opens.calls as f64) / 1e6;
        self.session_finish_ms = ratio(finishes.self_ns as f64, finishes.calls as f64) / 1e6;
        self.core = CoreCounts::sum(runs);
    }
}

/// Share of a timed phase's `wall_ns` not covered by the self time of
/// the spans it recorded, `spans[range]` (the benchmark's own loop,
/// waiting, and bookkeeping).
#[must_use]
pub fn unattributed_share(spans: &[Span], range: std::ops::Range<usize>, wall_ns: u64) -> f64 {
    let own = spans::self_times(spans);
    let attributed: u64 = own.get(range).map_or(0, |s| s.iter().sum());
    ratio(wall_ns.saturating_sub(attributed) as f64, wall_ns as f64)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted and failed.
    pub outcome: digest::Outcome,
    /// End-to-end metrics (untraced pass).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Layers>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunReport {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                // Non-finite values (a lost batch's latency) are not JSON
                // numbers; such a run has failed, so report them as -1.
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.outcome.correct(),
            self.outcome.attempted,
            self.outcome.failed,
            body.join(",")
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up time, sampled at quiet points spread over a run.
///
/// One set-up takes a few milliseconds, and the reference host has
/// stretches of one to three seconds in which the same work runs up to
/// 1.8× slower. Set-ups timed back to back all land in one stretch, so
/// the workloads time a sample of [`SetupTimer::reps`] set-ups before
/// the first timed call and another at each quiet point of the run
/// (between simulator cases, between open-loop windows), outside every
/// timed phase. `setup_s` is the median of the samples' per-set-up
/// means.
#[derive(Debug, Clone)]
pub struct SetupTimer {
    reps: usize,
    means: Vec<f64>,
}

impl SetupTimer {
    /// A timer whose samples are `reps` consecutive set-ups each.
    #[must_use]
    pub fn new(reps: usize) -> Self {
        Self {
            reps: reps.max(1),
            means: Vec::new(),
        }
    }

    /// Set-ups per sample.
    #[must_use]
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Times one sample of `setup` and returns the last set-up's result.
    pub fn sample<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut total = 0.0;
        let mut last = None;
        for _ in 0..self.reps {
            // Drop the previous repetition's result first, so teardown is
            // not timed and memory does not double up.
            drop(last.take());
            let start = Instant::now();
            let value = setup();
            total += start.elapsed().as_secs_f64();
            last = Some(value);
        }
        self.means.push(total / self.reps as f64);
        last.expect("a sample runs at least one set-up")
    }

    /// Samples taken.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.means.len()
    }

    /// Median per-set-up time over the samples, in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        stats::median(&self.means)
    }
}

/// The notes line describing how `setup_s` was sampled.
#[must_use]
pub fn setup_note(timer: &SetupTimer) -> String {
    format!(
        "setup_s: median of {} samples of {} set-ups each, spread over the run: {:.6} s",
        timer.samples(),
        timer.reps(),
        timer.seconds()
    )
}

/// SplitMix64: the benchmark's own seeded stream for schedules and
/// trace seeds (the simulated program never sees it).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Trace-generator seed for item `index` of trace set `table_seed`.
#[must_use]
pub fn trace_seed(table_seed: u64, index: u64) -> u64 {
    let mut r = SplitMix::new(table_seed.wrapping_mul(0x1_0000).wrapping_add(index));
    r.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{DigestTable, TableKey};

    #[test]
    fn a_digest_mismatch_reports_an_incorrect_run() {
        let key = TableKey {
            workload: "sweep-idle",
            seconds: 10,
            table_seed: 0,
        };
        let mut table = DigestTable::default();
        table.insert(key, "r0/qsort/baseline", 7);
        table.insert(key, "r0/qsort/wcpcm", 9);
        let mut report = RunReport::default();
        report.outcome.check(&table, key, "r0/qsort/baseline", 7);
        report.outcome.check(&table, key, "r0/qsort/wcpcm", 8);
        let metrics = [Metric::new("records_per_s", 1.5e6, "1/s")];
        let line = report.result_line(&metrics);
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\
             \"metrics\":{\"records_per_s\":{\"value\":1500000.0,\"unit\":\"1/s\"}}}"
        );
        // `main` exits non-zero exactly when the outcome is not correct.
        assert!(!report.outcome.correct());
    }

    #[test]
    fn lost_batches_render_as_json_numbers() {
        let report = RunReport::default();
        let line = report.result_line(&[Metric::new("batch_latency_p99_ms", f64::INFINITY, "ms")]);
        assert!(line.contains("\"value\":-1.0"));
        assert!(line.starts_with("{\"correct\":false,\"attempted\":0"));
    }

    #[test]
    fn every_per_layer_metric_is_reported_once() {
        let names: Vec<String> = Layers::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(names.len(), 33);
        assert!(names.iter().all(|n| n.len() <= 64));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect()
        };
        let layers: Vec<String> = Layers::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(
            names("end_to_end"),
            [
                "records_per_s",
                "batch_latency_p50_ms",
                "batch_latency_p99_ms",
                "peak_rss_mb",
                "setup_s"
            ]
        );
    }

    #[test]
    fn a_setup_sample_runs_reps_setups_and_returns_the_last() {
        let mut timer = SetupTimer::new(3);
        let mut calls = 0;
        for _ in 0..5 {
            assert_eq!(
                timer.sample(|| {
                    calls += 1;
                    calls
                }) % 3,
                0
            );
        }
        assert_eq!((calls, timer.samples(), timer.reps()), (15, 5, 3));
        assert!(timer.seconds() >= 0.0);
    }

    #[test]
    fn workloads_round_trip_by_name() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
