//! The `service-skewed` workload: an in-process `womd::Service` serving
//! a skewed mix of tiny-preset tenants, driven from one generator
//! thread in two fixed-size phases.
//!
//! * **Open loop.** In windows of `OPEN_LOOP_WINDOW` batches, batch `j`
//!   of a window falls due `j × OPEN_LOOP_INTERVAL` after the window
//!   starts, to a tenant drawn with the seed; each window is drained
//!   before the next starts. Its latency runs from the due time
//!   (not the send time) until the tenant's `pending` count shows it
//!   consumed, so a late generator adds to latency instead of hiding it.
//! * **Saturated.** Every tenant's queue is refilled as soon as it has
//!   room; the phase's records per second is the service's capacity.
//!
//! Tenants outnumber `max_resident`, so cold tenants are parked to
//! WOMSNAP and resumed, but stay under `max_sessions`, so none is
//! evicted. After both phases every tenant is finished and its metrics
//! digest checked against the table.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pcm_trace::stream::{ProfileSource, TraceProfile};
use pcm_trace::TraceRecord;
use wom_pcm::{Architecture, RunMetrics, SessionSpec};
use womd::{Service, ServiceConfig, ServiceError, SessionEvent};

use crate::digest::{self, DigestTable, Outcome, TableKey};
use crate::feed::{run_session, Batches, BATCH_RECORDS};
use crate::layers::{self, TENANT_EPOCH_CYCLES};
use crate::spans::{self, Tracer};
use crate::stats::{self, percentile};
use crate::{
    arch_index, ratio, trace_seed, Layers, Metric, RunReport, SetupTimer, SplitMix, Workload,
};

/// Tenants served.
pub const TENANTS: usize = 24;
/// Per-worker resident-engine cap (below `TENANTS`, so tenants park).
const MAX_RESIDENT: usize = 8;
/// Per-worker session cap (above `TENANTS`, so none is evicted).
const MAX_SESSIONS: usize = 64;
/// Per-tenant queued-batch cap (the service default). Deep enough that
/// the saturated-phase worker always has queued work while the
/// generator sleeps between refills.
const QUEUE_BATCHES: u32 = 32;
// Tenants park but are never evicted.
const _: () = assert!(TENANTS > MAX_RESIDENT && TENANTS < MAX_SESSIONS);
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 1.0;
/// Profiles tenants run, cycled with the architectures.
const PROFILES: [&str; 4] = ["qsort", "mad", "typeset", "stringsearch"];

/// Open-loop arrival interval: about a third of the saturated-phase
/// capacity measured on the reference host (1 400 to 1 900 batches per
/// second, depending on how busy the shared host is). At 1.6 ms the
/// load neared half the capacity in slow stretches, where queueing
/// amplified every host hiccup into the tail and p99 moved by a third
/// between runs.
pub const OPEN_LOOP_INTERVAL: Duration = Duration::from_micros(2_000);
/// Batches per open-loop window: the fewest for which p99 has ten
/// samples beyond it.
const OPEN_LOOP_WINDOW: usize = 1_000;
/// Batches completed per saturated-phase window.
const SATURATED_WINDOW: usize = 1_500;
/// Open-loop and saturated windows per 5 seconds of a run. Each phase
/// reports the median over its windows, so one host hiccup moves one
/// window only.
const WINDOWS_PER_5S: (u64, u64) = (2, 3);

/// How often the open-loop generator polls `pending` (well below one
/// batch's service time).
const POLL_INTERVAL: Duration = Duration::from_micros(50);
/// How often the saturated phase refills queues (a full set of queues
/// holds far more work than this).
const REFILL_INTERVAL: Duration = Duration::from_millis(1);
/// Longest wait for outstanding batches or a finish before they count
/// as missing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Set-ups per `setup_s` sample, one sample before the run and one at
/// every quiet point (see [`crate::SetupTimer`]).
const SETUP_REPS: usize = 10;

/// Which tenant each batch goes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Open-loop windows.
    pub open_windows: usize,
    /// Saturated-phase windows.
    pub saturated_windows: usize,
    /// Tenant of each open-loop batch, in due order.
    pub open_loop: Vec<usize>,
    /// Tenant of each saturated-phase batch, in send order.
    pub saturated: Vec<usize>,
}

impl Schedule {
    /// Draws the schedule of trace set `table_seed` for a run of
    /// `seconds`.
    #[must_use]
    pub fn draw(seconds: u64, table_seed: u64) -> Self {
        let weights: Vec<f64> = (0..TENANTS)
            .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut rng = SplitMix::new(trace_seed(table_seed, 1_000));
        let mut pick = || {
            let mut x = rng.next_f64() * total;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    return i;
                }
                x -= w;
            }
            TENANTS - 1
        };
        let windows = |per_5s: u64| usize::try_from(seconds * per_5s / 5).unwrap_or(1).max(1);
        let (open_windows, saturated_windows) =
            (windows(WINDOWS_PER_5S.0), windows(WINDOWS_PER_5S.1));
        let open_loop = (0..open_windows * OPEN_LOOP_WINDOW)
            .map(|_| pick())
            .collect();
        let saturated = (0..saturated_windows * SATURATED_WINDOW)
            .map(|_| pick())
            .collect();
        Self {
            open_windows,
            saturated_windows,
            open_loop,
            saturated,
        }
    }

    /// Batches tenant `t` receives over both phases.
    #[must_use]
    pub fn batches_of(&self, t: usize) -> usize {
        self.open_loop
            .iter()
            .chain(&self.saturated)
            .filter(|&&x| x == t)
            .count()
    }
}

/// One tenant: its session spec and trace.
#[derive(Debug)]
pub struct Tenant {
    /// Session name.
    pub name: String,
    /// Architecture simulated.
    pub arch: Architecture,
    profile: TraceProfile,
    seed: u64,
    /// Records the tenant is fed over the run.
    pub records: u64,
}

impl Tenant {
    /// The tenant's session spec (tiny preset, epochs observed).
    #[must_use]
    pub fn spec(&self) -> SessionSpec {
        SessionSpec::tiny(self.arch).epoch_cycles(TENANT_EPOCH_CYCLES)
    }

    /// A fresh stream of the tenant's whole trace.
    ///
    /// # Errors
    ///
    /// Describes an invalid profile.
    pub fn source(&self) -> Result<ProfileSource, String> {
        self.profile
            .source(self.seed, self.records)
            .map_err(|e| format!("{}: {e}", self.name))
    }

    fn batches(&self) -> Result<Batches, String> {
        Ok(Batches::new(self.source()?))
    }
}

/// Every tenant of `schedule`: profiles and architectures cycle so that
/// every (profile, architecture) pair appears among the first 16.
///
/// # Errors
///
/// Describes a missing profile.
pub fn tenants(schedule: &Schedule, table_seed: u64) -> Result<Vec<Tenant>, String> {
    let archs = Architecture::all_paper();
    (0..TENANTS)
        .map(|i| {
            let profile = TraceProfile::by_name(PROFILES[(i + i / 4) % 4])
                .ok_or("bundled profile missing")?;
            Ok(Tenant {
                name: format!("t{i:02}"),
                arch: archs[i % 4],
                profile,
                seed: trace_seed(table_seed, 100 + i as u64),
                records: (schedule.batches_of(i) * BATCH_RECORDS) as u64,
            })
        })
        .collect()
}

/// Runs one tenant alone through a plain session, batch by batch as the
/// service feeds it; returns its final metrics.
fn run_solo(t: &Tenant, tracer: &mut Tracer) -> Result<RunMetrics, String> {
    run_session(&t.name, t.arch, t.spec(), t.batches()?, tracer, |_, _| {})
}

/// Expected digest of every tenant (for `regen-digests`): each tenant
/// run solo, which the service's determinism contract makes identical
/// to its multiplexed run.
///
/// # Errors
///
/// Describes the first tenant that fails.
pub fn expected(seconds: u64, table_seed: u64) -> Result<Vec<(String, u64)>, String> {
    let mut off = Tracer::new(false);
    let schedule = Schedule::draw(seconds, table_seed);
    tenants(&schedule, table_seed)?
        .iter()
        .map(|t| Ok((t.name.clone(), digest::digest(&run_solo(t, &mut off)?))))
        .collect()
}

/// Times of one open-loop batch, relative to the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the batch fell due.
    pub due: Duration,
    /// When `feed` accepted it.
    pub sent: Duration,
    /// When `pending` showed it consumed; `None` if it never landed.
    pub done: Option<Duration>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Sample {
    /// Due-to-completion latency in ms; infinite for a batch that never
    /// landed (it misses every latency limit).
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.done
            .map_or(f64::INFINITY, |d| ms(d.saturating_sub(self.due)))
    }

    /// Send-to-completion time in ms (service time without generator lag).
    #[must_use]
    pub fn service_ms(&self) -> f64 {
        self.done
            .map_or(f64::INFINITY, |d| ms(d.saturating_sub(self.sent)))
    }

    /// How late the generator sent, in ms.
    #[must_use]
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.due))
    }
}

/// The client side of the service: per-tenant progress plus counters.
struct Client<'a> {
    service: &'a Service,
    tenants: &'a [Tenant],
    /// Each tenant's batch stream and its next batch, generated one
    /// batch ahead so a send never waits on trace generation.
    batches: Vec<Batches>,
    ready: Vec<Option<Vec<TraceRecord>>>,
    /// Batches accepted per tenant (over both phases).
    sent: Vec<usize>,
    /// Batches seen consumed per tenant.
    done: Vec<usize>,
    /// Open-loop sample index of each outstanding batch, per tenant
    /// (`None` for saturated-phase batches).
    outstanding: Vec<VecDeque<Option<usize>>>,
    samples: Vec<Sample>,
    attempts: u64,
    busy: u64,
    epoch_events: u64,
    origin: Instant,
}

impl<'a> Client<'a> {
    fn new(
        service: &'a Service,
        tenants: &'a [Tenant],
        tracer: &mut Tracer,
    ) -> Result<Self, String> {
        let mut batches = tenants
            .iter()
            .map(Tenant::batches)
            .collect::<Result<Vec<_>, _>>()?;
        let ready = batches
            .iter_mut()
            .map(|b| b.next(tracer))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            service,
            tenants,
            batches,
            ready,
            sent: vec![0; tenants.len()],
            done: vec![0; tenants.len()],
            outstanding: vec![VecDeque::new(); tenants.len()],
            samples: Vec::new(),
            attempts: 0,
            busy: 0,
            epoch_events: 0,
            origin: Instant::now(),
        })
    }

    fn in_flight(&self) -> usize {
        self.outstanding.iter().map(VecDeque::len).sum()
    }

    /// Offers tenant `t`'s next batch once. `Ok(true)` when accepted,
    /// `Ok(false)` on `Busy`.
    fn offer(
        &mut self,
        t: usize,
        sample: Option<usize>,
        tracer: &mut Tracer,
    ) -> Result<bool, String> {
        let tenants = self.tenants;
        let tenant = &tenants[t];
        let Some(batch) = &self.ready[t] else {
            return Err(format!("{}: trace ran out of batches", tenant.name));
        };
        // `feed` consumes its batch even when it answers Busy, so it gets
        // a copy and the original stays ready for a retry.
        let batch = batch.clone();
        self.attempts += 1;
        let span = tracer.enter("womd.feed", "");
        let r = self.service.feed(&tenant.name, batch);
        tracer.exit(span);
        match r {
            Ok(()) => {
                self.sent[t] += 1;
                self.outstanding[t].push_back(sample);
                self.ready[t] = self.batches[t].next(tracer)?;
                Ok(true)
            }
            Err(ServiceError::Busy { .. }) => {
                self.busy += 1;
                Ok(false)
            }
            Err(e) => Err(format!("{}: feed failed: {e}", tenant.name)),
        }
    }

    /// Reads tenant `t`'s `pending` count and retires every batch it
    /// shows consumed, draining the tenant's events when it moved.
    fn poll(&mut self, t: usize, tracer: &mut Tracer, outcome: &mut Outcome) {
        let tenants = self.tenants;
        let name = &tenants[t].name;
        let span = tracer.enter("womd.pending", "");
        let pending = self.service.pending(name);
        tracer.exit(span);
        let now = self.origin.elapsed();
        let Ok(pending) = pending else {
            outcome.fail(format!("{name}: pending failed"));
            return;
        };
        let consumed = self.sent[t].saturating_sub(pending as usize);
        if consumed == self.done[t] {
            return;
        }
        while self.done[t] < consumed {
            if let Some(Some(k)) = self.outstanding[t].pop_front() {
                self.samples[k].done = Some(now);
            }
            self.done[t] += 1;
        }
        match self.service.poll(name) {
            Ok(events) => {
                self.absorb(t, events, outcome);
            }
            Err(e) => outcome.fail(format!("{name}: poll failed: {e}")),
        }
    }

    fn absorb(
        &mut self,
        t: usize,
        events: Vec<SessionEvent>,
        outcome: &mut Outcome,
    ) -> Option<(u64, u64)> {
        let mut finished = None;
        for event in events {
            match event {
                SessionEvent::Epoch { .. } => self.epoch_events += 1,
                SessionEvent::Finished {
                    records,
                    metrics_fnv,
                    ..
                } => finished = Some((records, metrics_fnv)),
                SessionEvent::Error { kind, message } => {
                    outcome.fail(format!("{}: {kind}: {message}", self.tenants[t].name));
                }
            }
        }
        finished
    }

    fn poll_all(&mut self, tracer: &mut Tracer, outcome: &mut Outcome) {
        for t in 0..self.tenants.len() {
            if !self.outstanding[t].is_empty() {
                self.poll(t, tracer, outcome);
            }
        }
    }

    /// Polls until nothing is outstanding; what is left after the
    /// timeout never landed.
    fn drain(&mut self, tracer: &mut Tracer, outcome: &mut Outcome) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.in_flight() > 0 && Instant::now() < deadline {
            self.poll_all(tracer, outcome);
            std::thread::sleep(POLL_INTERVAL);
        }
        for t in 0..self.tenants.len() {
            for _ in self.outstanding[t].drain(..) {
                outcome.fail(format!("{}: batch never landed", self.tenants[t].name));
            }
        }
    }
}

/// Sleeps until `deadline` in steps of at most [`POLL_INTERVAL`],
/// polling outstanding batches after each step.
fn wait_until(d: &mut Client<'_>, deadline: Instant, tracer: &mut Tracer, outcome: &mut Outcome) {
    loop {
        if d.in_flight() > 0 {
            d.poll_all(tracer, outcome);
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        // Sleep rather than spin: a spinning generator competes with the
        // worker for the host's cores.
        std::thread::sleep(POLL_INTERVAL.min(deadline - now));
    }
}

/// What one pass over both phases measured.
struct Pass {
    samples: Vec<Sample>,
    /// Records per second of each saturated-phase window.
    window_rates: Vec<f64>,
    saturated_records: u64,
    saturated_s: f64,
    batches: u64,
    attempts: u64,
    busy: u64,
    epoch_events: u64,
    /// Spans recorded during the two timed phases.
    timed_spans: std::ops::Range<usize>,
    /// Wall time of the two timed phases.
    wall_ns: u64,
}

fn open_all(service: &Service, tenants: &[Tenant], tracer: &mut Tracer) -> Result<(), String> {
    for t in tenants {
        let span = tracer.enter("womd.open", "");
        let r = service.open(&t.name, t.spec(), &[]);
        tracer.exit(span);
        r.map_err(|e| format!("{}: open failed: {e}", t.name))?;
    }
    Ok(())
}

fn start_service() -> Result<Service, String> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Service::start(ServiceConfig {
        workers: workers.saturating_sub(1).max(1),
        max_resident: MAX_RESIDENT,
        max_sessions: MAX_SESSIONS,
        queue_batches: QUEUE_BATCHES,
    })
    .map_err(|e| format!("service failed to start: {e}"))
}

/// Runs both phases against an opened service, then finishes every
/// tenant and checks its digest. `quiet` runs whenever nothing is in
/// flight: between open-loop windows, between the phases and after the
/// saturated phase.
fn run_pass(
    service: &Service,
    tenants: &[Tenant],
    schedule: &Schedule,
    check: (&DigestTable, TableKey<'_>),
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    quiet: &mut dyn FnMut(),
) -> Result<Pass, String> {
    let first_span = tracer.spans().len();
    let mut d = Client::new(service, tenants, tracer)?;

    // Open loop, in windows of OPEN_LOOP_WINDOW batches: batch j of a
    // window falls due j × interval after the window starts. Between
    // windows every batch is drained and `quiet` runs.
    let mut window_start = Duration::ZERO;
    for (k, &t) in schedule.open_loop.iter().enumerate() {
        if k > 0 && k % OPEN_LOOP_WINDOW == 0 {
            d.drain(tracer, outcome);
            quiet();
            window_start = d.origin.elapsed();
        }
        let due = window_start + OPEN_LOOP_INTERVAL * (k % OPEN_LOOP_WINDOW) as u32;
        let deadline = d.origin + due;
        wait_until(&mut d, deadline, tracer, outcome);
        d.samples.push(Sample {
            due,
            sent: due,
            done: None,
        });
        loop {
            match d.offer(t, Some(k), tracer) {
                Ok(true) => break,
                Ok(false) => {
                    let retry = Instant::now() + POLL_INTERVAL;
                    wait_until(&mut d, retry, tracer, outcome);
                }
                Err(e) => {
                    outcome.fail(e);
                    break;
                }
            }
        }
        d.samples[k].sent = d.origin.elapsed();
    }
    d.drain(tracer, outcome);
    quiet();

    // Saturated: send the drawn batches in order, each as soon as its
    // tenant's queue has room. Window `w` closes when
    // (w + 1) × SATURATED_WINDOW batches of the phase are consumed.
    let sat_start = Instant::now();
    let done_before: usize = d.done.iter().sum();
    let mut marks: Vec<Duration> = Vec::with_capacity(schedule.saturated_windows);
    let mut saturated_records = 0u64;
    let mut mark = |d: &mut Client<'_>, tracer: &mut Tracer, outcome: &mut Outcome| {
        d.poll_all(tracer, outcome);
        let consumed = d.done.iter().sum::<usize>() - done_before;
        while marks.len() < schedule.saturated_windows
            && consumed >= (marks.len() + 1) * SATURATED_WINDOW
        {
            marks.push(sat_start.elapsed());
        }
        marks.len()
    };
    'send: for &t in &schedule.saturated {
        loop {
            if d.outstanding[t].len() < QUEUE_BATCHES as usize {
                match d.offer(t, None, tracer) {
                    Ok(true) => {
                        // Traces are whole batches long, so every batch is full.
                        saturated_records += BATCH_RECORDS as u64;
                        break;
                    }
                    Ok(false) => {}
                    Err(e) => {
                        outcome.fail(e);
                        break 'send;
                    }
                }
            }
            // Blocked on a full queue: the worker still holds every other
            // tenant's queued batches, far more than this pause.
            std::thread::sleep(REFILL_INTERVAL);
            mark(&mut d, tracer, outcome);
            if sat_start.elapsed() > DRAIN_TIMEOUT {
                outcome.fail("saturated phase stalled".to_string());
                break 'send;
            }
        }
    }
    while mark(&mut d, tracer, outcome) < schedule.saturated_windows
        && sat_start.elapsed() < DRAIN_TIMEOUT
    {
        std::thread::sleep(POLL_INTERVAL);
    }
    let saturated_s = sat_start.elapsed().as_secs_f64();
    let window_records = (SATURATED_WINDOW * BATCH_RECORDS) as f64;
    let mut window_rates = Vec::with_capacity(marks.len());
    let mut prev = Duration::ZERO;
    for &m in &marks {
        window_rates.push(ratio(window_records, (m - prev).as_secs_f64()));
        prev = m;
    }
    d.drain(tracer, outcome);
    let wall_ns = d.origin.elapsed().as_nanos() as u64;
    quiet();
    let timed_spans = first_span..tracer.spans().len();

    // Finish every tenant and check it against the table.
    let (table, key) = check;
    for (t, tenant) in tenants.iter().enumerate() {
        let span = tracer.enter("womd.finish_wait", "");
        let r = service.finish_wait(&tenant.name, DRAIN_TIMEOUT);
        tracer.exit(span);
        let finished = match r {
            Ok(events) => d.absorb(t, events, outcome),
            Err(e) => {
                outcome.fail(format!("{}: finish failed: {e}", tenant.name));
                continue;
            }
        };
        service.close(&tenant.name);
        match finished {
            Some((records, _)) if records != tenant.records => outcome.fail(format!(
                "{}: finished after {records} of {} records",
                tenant.name, tenant.records
            )),
            Some((_, fnv)) => outcome.check(table, key, &tenant.name, fnv),
            None => outcome.fail(format!("{}: no Finished event", tenant.name)),
        }
    }
    let batches = d.sent.iter().sum::<usize>() as u64;
    outcome.attempted += batches;
    Ok(Pass {
        samples: d.samples,
        window_rates,
        saturated_records,
        saturated_s,
        batches,
        attempts: d.attempts,
        busy: d.busy,
        epoch_events: d.epoch_events,
        timed_spans,
        wall_ns,
    })
}

/// Everything the timed phases need, built before the first timed call.
struct Setup {
    table: Result<DigestTable, String>,
    schedule: Schedule,
    tenants: Result<Vec<Tenant>, String>,
    service: Result<Service, String>,
}

fn setup(seconds: u64, table_seed: u64) -> Setup {
    let table = DigestTable::load(&digest::table_path());
    let schedule = Schedule::draw(seconds, table_seed);
    let tenants = tenants(&schedule, table_seed);
    let service = start_service().and_then(|s| match &tenants {
        Ok(ts) => open_all(&s, ts, &mut Tracer::new(false)).map(|()| s),
        Err(e) => Err(e.clone()),
    });
    Setup {
        table,
        schedule,
        tenants,
        service,
    }
}

fn sorted(samples: &[Sample], f: fn(&Sample) -> f64) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(f).collect();
    stats::sort(&mut v);
    v
}

/// Runs `service-skewed` (see module docs).
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(
    seconds: u64,
    table_seed: u64,
    traced: bool,
) -> Result<(RunReport, Option<Tracer>), String> {
    let key = TableKey {
        workload: Workload::ServiceSkewed.name(),
        seconds,
        table_seed,
    };
    let mut report = RunReport::default();
    let mut off = Tracer::new(false);
    let mut timer = SetupTimer::new(SETUP_REPS);
    let s = timer.sample(|| setup(seconds, table_seed));
    let (table, tenants, service) = (s.table?, s.tenants?, s.service?);

    let pass = run_pass(
        &service,
        &tenants,
        &s.schedule,
        (&table, key),
        &mut off,
        &mut report.outcome,
        &mut || {
            timer.sample(|| setup(seconds, table_seed));
        },
    )?;
    drop(service);
    let setup_s = timer.seconds();
    let latency = sorted(&pass.samples, Sample::latency_ms);
    let n = latency.len();
    let tail = stats::tail_percentile(n).unwrap_or(0.0);
    let window_p99: Vec<f64> = pass
        .samples
        .chunks(OPEN_LOOP_WINDOW)
        .map(|w| percentile(&sorted(w, Sample::latency_ms), 99.0).unwrap_or(f64::INFINITY))
        .collect();
    if n < OPEN_LOOP_WINDOW {
        report.outcome.fail(format!(
            "only {n} open-loop samples; p99 needs {OPEN_LOOP_WINDOW}"
        ));
    }
    let p50 = percentile(&latency, 50.0).unwrap_or(f64::INFINITY);
    let p99 = stats::median(&window_p99);
    let rps = stats::median(&pass.window_rates);
    report.notes.push(format!(
        "service-skewed: {TENANTS} tenants, {} batches; open loop {n} batches at {} us intervals: \
         latency p50 {p50:.3} ms over n={n}, p{tail} {:.3} ms over n={n}, p99 per window of \
         {OPEN_LOOP_WINDOW} {window_p99:.3?} (median reported); saturated {} records in {:.3} s \
         ({:.0} records/s overall), per window of {SATURATED_WINDOW} batches {:.0?} (median reported)",
        pass.batches,
        OPEN_LOOP_INTERVAL.as_micros(),
        percentile(&latency, tail).unwrap_or(f64::INFINITY),
        pass.saturated_records,
        pass.saturated_s,
        ratio(pass.saturated_records as f64, pass.saturated_s),
        pass.window_rates,
    ));
    let service_ms = sorted(&pass.samples, Sample::service_ms);
    let lag_ms = sorted(&pass.samples, Sample::lag_ms);
    report.notes.push(format!(
        "open-loop send-to-completion p50 {:.3} ms, p99 {:.3} ms; generator lag p99 {:.3} ms; \
         {} of {} feed attempts Busy",
        percentile(&service_ms, 50.0).unwrap_or(f64::INFINITY),
        percentile(&service_ms, 99.0).unwrap_or(f64::INFINITY),
        percentile(&lag_ms, 99.0).unwrap_or(0.0),
        pass.busy,
        pass.attempts,
    ));
    report.notes.push(crate::setup_note(&timer));
    report.notes.push(
        "womd exposes no park/resume counters, so the share of batches that hit a parked \
         tenant is not measured"
            .to_string(),
    );
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

    // Traced pass on a fresh service with the same tenants.
    let mut tracer = Tracer::new(true);
    let service = start_service()?;
    open_all(&service, &tenants, &mut tracer)?;
    let tp = run_pass(
        &service,
        &tenants,
        &s.schedule,
        (&table, key),
        &mut tracer,
        &mut report.outcome,
        &mut || {},
    )?;
    drop(service);
    let spans_all = tracer.spans();
    let pass_spans = &spans_all[tp.timed_spans.clone()];
    let mut feed_us: Vec<f64> = spans::durations(pass_spans, "womd.feed")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    stats::sort(&mut feed_us);
    let service_ms = sorted(&tp.samples, Sample::service_ms);
    let lag_ms = sorted(&tp.samples, Sample::lag_ms);
    let mut l = Layers {
        womd_feed_call_us_p50: percentile(&feed_us, 50.0).unwrap_or(0.0),
        womd_busy_share: ratio(tp.busy as f64, tp.attempts as f64),
        womd_batch_service_ms_p50: percentile(&service_ms, 50.0).unwrap_or(0.0),
        womd_batch_service_ms_p99: percentile(&service_ms, 99.0).unwrap_or(0.0),
        womd_epoch_events_per_batch: ratio(tp.epoch_events as f64, tp.batches as f64),
        gen_lag_ms_p99: percentile(&lag_ms, 99.0).unwrap_or(0.0),
        tracing_overhead_share: 1.0 - ratio(stats::median(&tp.window_rates), rps),
        unattributed_share: crate::unattributed_share(
            spans_all,
            tp.timed_spans.clone(),
            tp.wall_ns,
        ),
        ..Layers::default()
    };

    // Session layer: every tenant replayed solo, batch by batch, as its
    // worker ran it (and checked against the table once more).
    let solo_first = tracer.spans().len();
    let mut runs = Vec::new();
    let mut records_by_arch = [0u64; 4];
    for t in &tenants {
        match run_solo(t, &mut tracer) {
            Ok(m) => {
                report
                    .outcome
                    .check(&table, key, &t.name, digest::digest(&m));
                records_by_arch[arch_index(t.arch)] += t.records;
                runs.push(m);
            }
            Err(e) => report.outcome.fail(format!("solo replay: {e}")),
        }
    }
    let totals = spans::totals_since(tracer.spans(), solo_first);
    let generated = tenants.iter().map(|t| t.records).sum();
    l.absorb_sessions(&totals, records_by_arch, generated, &runs);

    // Isolated replays: baseline tenants through the memory system.
    let mem = SessionSpec::tiny(Architecture::Baseline)
        .config()
        .mem()
        .clone();
    let baseline = tenants.iter().filter(|t| t.arch == Architecture::Baseline);
    let sources = baseline.map(|t| Ok((mem.clone(), t.source()?)));
    layers::replay_memory(&mut l, sources, &mut tracer)?;
    // Tiny tenants do not verify data, so the codec replay is empty.
    layers::probe_snapshot(&mut l, &mut tracer)?;
    layers::probe_wire(&mut l, &mut tracer)?;
    report.layers = Some(l);
    Ok((report, Some(tracer)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn a_stalled_generator_raises_latency_instead_of_hiding_it() {
        // Both batches take 1 ms of service; the second was sent 5 ms
        // after it fell due because the generator stalled.
        let prompt = Sample {
            due: at(10),
            sent: at(10),
            done: Some(at(11)),
        };
        let stalled = Sample {
            due: at(20),
            sent: at(25),
            done: Some(at(26)),
        };
        assert_eq!(prompt.latency_ms(), 1.0);
        assert_eq!(stalled.latency_ms(), 6.0);
        assert_eq!(stalled.service_ms(), prompt.service_ms());
        assert_eq!(stalled.lag_ms(), 5.0);
    }

    #[test]
    fn a_batch_that_never_lands_misses_every_limit() {
        let lost = Sample {
            due: at(1),
            sent: at(1),
            done: None,
        };
        assert!(lost.latency_ms().is_infinite());
        let mut v = vec![lost.latency_ms(), 1.0, 2.0];
        stats::sort(&mut v);
        assert_eq!(percentile(&v, 99.0), Some(f64::INFINITY));
    }

    #[test]
    fn schedule_is_seeded_skewed_and_sized() {
        let a = Schedule::draw(1, 3);
        assert_eq!(a, Schedule::draw(1, 3));
        assert_ne!(a, Schedule::draw(1, 4));
        assert_eq!(a.open_loop.len(), OPEN_LOOP_WINDOW);
        assert_eq!(a.saturated.len(), SATURATED_WINDOW);
        let b = Schedule::draw(10, 3);
        assert_eq!((b.open_windows, b.saturated_windows), (4, 6));
        assert_eq!(b.open_loop.len(), 4 * OPEN_LOOP_WINDOW);
        assert_eq!(b.saturated.len(), 6 * SATURATED_WINDOW);
        let hot = a.open_loop.iter().filter(|&&t| t == 0).count();
        let cold = a.open_loop.iter().filter(|&&t| t == TENANTS - 1).count();
        assert!(
            hot > 5 * cold,
            "tenant 0 ({hot}) should dwarf tenant {} ({cold})",
            TENANTS - 1
        );
        // Every open-loop window supports its own p99.
        assert_eq!(stats::tail_percentile(OPEN_LOOP_WINDOW), Some(99.0));
    }
}
