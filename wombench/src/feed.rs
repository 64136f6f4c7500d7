//! Feeding a session: a trace stream cut into fixed-size batches, and
//! the one session loop (open, feed every batch, finish) that the
//! simulator cases, the service's solo replays and digest regeneration
//! all run.

use std::time::{Duration, Instant};

use pcm_trace::stream::{ProfileSource, TraceSource};
use pcm_trace::TraceRecord;
use wom_pcm::{Architecture, RunMetrics, Session, SessionSpec};

use crate::spans::Tracer;

/// Records per `feed` call, on the simulator workloads and the service.
pub const BATCH_RECORDS: usize = 500;

/// Cuts a trace stream into batches of [`BATCH_RECORDS`]; only the
/// last batch of a trace may be shorter. Batches are generated as they
/// are needed rather than all up front, which would take about 300 MB
/// of records for a 20-second service run.
pub struct Batches {
    source: ProfileSource,
    carry: Vec<TraceRecord>,
}

impl Batches {
    /// Batches of `source`.
    #[must_use]
    pub fn new(source: ProfileSource) -> Self {
        Self {
            source,
            carry: Vec::new(),
        }
    }

    /// The next batch, or `None` at the end of the trace. Every
    /// `next_chunk` call runs under a `trace.next_chunk` span.
    ///
    /// # Errors
    ///
    /// Describes a trace that fails to generate.
    pub fn next(&mut self, tracer: &mut Tracer) -> Result<Option<Vec<TraceRecord>>, String> {
        while self.carry.len() < BATCH_RECORDS {
            let span = tracer.enter("trace.next_chunk", "");
            let chunk = self.source.next_chunk();
            tracer.exit(span);
            match chunk.map_err(|e| e.to_string())? {
                Some(c) => self.carry.extend_from_slice(c),
                None => break,
            }
        }
        if self.carry.is_empty() {
            return Ok(None);
        }
        let rest = self.carry.split_off(self.carry.len().min(BATCH_RECORDS));
        Ok(Some(std::mem::replace(&mut self.carry, rest)))
    }
}

/// Runs one session of `arch` over `batches`: open, feed every batch,
/// finish, each call under a `session.*` span tagged with the
/// architecture. `on_feed` sees every batch with the duration of its
/// `feed` call. Errors are prefixed with `name`.
///
/// # Errors
///
/// Describes the first trace or session error.
pub fn run_session(
    name: &str,
    arch: Architecture,
    spec: impl Into<SessionSpec>,
    mut batches: Batches,
    tracer: &mut Tracer,
    mut on_feed: impl FnMut(&[TraceRecord], Duration),
) -> Result<RunMetrics, String> {
    let slug = arch.slug();
    let fail = |e: &dyn std::fmt::Display| format!("{name}: {e}");
    let span = tracer.enter("session.open", slug);
    let session = Session::open(spec);
    tracer.exit(span);
    let mut session = session.map_err(|e| fail(&e))?;
    while let Some(batch) = batches.next(tracer).map_err(|e| fail(&e))? {
        let span = tracer.enter("session.feed", slug);
        let start = Instant::now();
        let fed = session.feed(&batch);
        let took = start.elapsed();
        tracer.exit(span);
        fed.map_err(|e| fail(&e))?;
        on_feed(&batch, took);
    }
    let span = tracer.enter("session.finish", slug);
    let metrics = session.finish();
    tracer.exit(span);
    metrics.map_err(|e| fail(&e))
}

#[cfg(test)]
mod tests {
    use pcm_trace::stream::{TraceProfile, DEFAULT_CHUNK_RECORDS};

    use super::*;

    #[test]
    fn only_the_last_batch_is_short() {
        // Nine and a half batches, streamed in a full chunk and a short one,
        // neither a whole number of batches long.
        let full = DEFAULT_CHUNK_RECORDS / BATCH_RECORDS + 1;
        assert_ne!(DEFAULT_CHUNK_RECORDS % BATCH_RECORDS, 0);
        let records = (full * BATCH_RECORDS + BATCH_RECORDS / 2) as u64;
        let source = TraceProfile::by_name("qsort")
            .expect("bundled profile")
            .source(7, records)
            .expect("valid profile");
        let mut batches = Batches::new(source);
        let mut off = Tracer::new(false);
        let mut sizes = Vec::new();
        while let Some(b) = batches.next(&mut off).expect("trace generates") {
            sizes.push(b.len());
        }
        let mut expected = vec![BATCH_RECORDS; full];
        expected.push(BATCH_RECORDS / 2);
        assert_eq!(sizes, expected);
    }
}
