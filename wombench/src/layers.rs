//! Isolated replays of the layers a session hides from its caller: the
//! `pcm-sim` event loop, the `wom-code` line codec, the WOMSNAP
//! checkpoint path, and the `womd` wire decoder. Each is timed by one
//! span around the loop of calls, so its cost per call is free of the
//! layers above it.

use pcm_sim::{MemConfig, MemOp, MemorySystem, ServiceClass, SimError};
use pcm_trace::binary::{decode_records_into, encode_records_into};
use pcm_trace::stream::{TraceProfile, TraceSource};
use pcm_trace::TraceOp;
use wom_code::{BlockCodec, Inverted, RowScratch, Rs23Code, WitBuffer};
use wom_pcm::{Architecture, Session, SessionSpec};

use crate::spans::Tracer;
use crate::{ratio, Layers};

/// Cycles the replay advances when a queue is full (the engine's stall
/// quantum).
const STALL_CYCLES: u64 = 32;

/// Line size of the functional checker's codec.
const LINE_BYTES: usize = 64;

/// Distinct encoded lines the decode replay cycles through.
const DECODE_POOL: usize = 256;

/// Records fed to each tenant-shaped session before it is checkpointed.
const SNAPSHOT_RECORDS: usize = 20_000;

/// Checkpoint and resume calls timed per architecture.
const SNAPSHOT_REPS: usize = 20;

/// Epoch width of the tenant-shaped sessions (as the service uses).
/// Checkpoints carry the whole epoch series, so a narrow epoch makes
/// a tenant's park/resume cost grow with its age; at this width a
/// container stays under about 80 KB for the run's longest tenant.
pub const TENANT_EPOCH_CYCLES: u64 = 1_000_000;

/// Records per wire feed frame.
const WIRE_BATCH: usize = 500;

/// Feed frames decoded by the wire probe.
const WIRE_REPS: usize = 2_000;

/// Replays each trace straight into a fresh `MemorySystem` built from
/// its config: `advance_to` each record's cycle, `enqueue` it (advancing
/// by the stall quantum while the queue is full), then drain. Fills the
/// `pcm_sim.*` fields of `l` from the self time of the replay spans, so
/// trace generation (its own child spans) is not counted.
///
/// # Errors
///
/// Describes a trace or simulator error, or a request that never
/// completed.
pub fn replay_memory<S: TraceSource>(
    l: &mut Layers,
    traces: impl Iterator<Item = Result<(MemConfig, S), String>>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let first = tracer.spans().len();
    let mut requests = 0usize;
    for trace in traces {
        let (mem, mut source) = trace?;
        let mut sys = MemorySystem::new(mem).map_err(|e| e.to_string())?;
        let span = tracer.enter("pcm_sim.replay", "");
        let (mut enqueued, mut completed) = (0usize, 0usize);
        loop {
            let chunk_span = tracer.enter("replay.next_chunk", "");
            let chunk = source.next_chunk();
            tracer.exit(chunk_span);
            let Some(chunk) = chunk.map_err(|e| e.to_string())? else {
                break;
            };
            for r in chunk {
                if r.cycle > sys.now() {
                    completed += sys.advance_to(r.cycle).map_err(|e| e.to_string())?.len();
                }
                let (op, class) = match r.op {
                    TraceOp::Read => (MemOp::Read, ServiceClass::Read),
                    TraceOp::Write => (MemOp::Write, ServiceClass::Write),
                };
                loop {
                    match sys.enqueue(op, r.addr, class) {
                        Ok(_) => break,
                        Err(SimError::QueueFull { .. }) => {
                            let next = sys.now() + STALL_CYCLES;
                            completed += sys.advance_to(next).map_err(|e| e.to_string())?.len();
                        }
                        Err(e) => return Err(e.to_string()),
                    }
                }
            }
            enqueued += chunk.len();
        }
        completed += sys.drain().len();
        tracer.exit(span);
        if completed != enqueued {
            return Err(format!(
                "memory replay completed {completed} of {enqueued} requests"
            ));
        }
        requests += enqueued;
    }
    let self_ns = crate::spans::totals_since(tracer.spans(), first)
        .get(&("pcm_sim.replay", ""))
        .map_or(0, |t| t.self_ns);
    l.pcm_sim_replay_requests = requests as f64;
    l.pcm_sim_replay_ns_per_request = ratio(self_ns as f64, requests as f64);
    Ok(())
}

/// Deterministic 64-byte payload `i`.
fn payload(i: u64) -> [u8; LINE_BYTES] {
    let mut data = [0u8; LINE_BYTES];
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for chunk in data.chunks_mut(8) {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
    data
}

/// Encodes `rows_encoded` and decodes `rows_decoded` 64-byte lines with
/// the `Inverted<Rs23Code>` codec the functional checker builds, each
/// row rewritten through its generations as the checker does, and fills
/// the `codec.*` fields of `l`.
///
/// # Errors
///
/// Describes a codec error or a line that decodes wrongly.
pub fn replay_codec(
    l: &mut Layers,
    rows_encoded: u64,
    rows_decoded: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let codec = BlockCodec::new(Inverted::new(Rs23Code::new()), LINE_BYTES * 8)
        .map_err(|e| e.to_string())?;
    let limit = u64::from(codec.rewrite_limit());
    let mut scratch = RowScratch::new();
    l.codec_rows_encoded = rows_encoded as f64;
    l.codec_rows_decoded = rows_decoded as f64;

    let mut cells = codec.erased_buffer();
    let span = tracer.enter("codec.encode_row_into", "");
    let start = std::time::Instant::now();
    for i in 0..rows_encoded {
        let gen = i % limit;
        if gen == 0 {
            cells = codec.erased_buffer();
        }
        codec
            .encode_row_into(gen as u32, &payload(i), &mut cells, &mut scratch)
            .map_err(|e| e.to_string())?;
    }
    l.codec_encode_ns_per_row = ratio(start.elapsed().as_nanos() as f64, rows_encoded as f64);
    tracer.exit(span);
    std::hint::black_box(&cells);

    if rows_decoded > 0 {
        let mut pool: Vec<WitBuffer> = Vec::with_capacity(DECODE_POOL);
        for i in 0..DECODE_POOL as u64 {
            let mut c = codec.erased_buffer();
            codec
                .encode_row_into(0, &payload(i), &mut c, &mut scratch)
                .map_err(|e| e.to_string())?;
            pool.push(c);
        }
        let mut line = [0u8; LINE_BYTES];
        let mut folded = 0u8;
        let span = tracer.enter("codec.decode_row_into", "");
        let start = std::time::Instant::now();
        for i in 0..rows_decoded {
            let cells = &pool[(i % DECODE_POOL as u64) as usize];
            codec
                .decode_row_into(cells, &mut line, &mut scratch)
                .map_err(|e| e.to_string())?;
            folded ^= line[(i % LINE_BYTES as u64) as usize];
        }
        l.codec_decode_ns_per_row = ratio(start.elapsed().as_nanos() as f64, rows_decoded as f64);
        tracer.exit(span);
        std::hint::black_box(folded);
        for (i, cells) in pool.iter().enumerate() {
            codec
                .decode_row_into(cells, &mut line, &mut scratch)
                .map_err(|e| e.to_string())?;
            if line != payload(i as u64) {
                return Err(format!("codec replay: line {i} decoded wrongly"));
            }
        }
    }
    Ok(())
}

/// Times `Session::checkpoint` and `Session::resume` on a tiny,
/// epoch-observed session per architecture: the shape of a `womd`
/// tenant being parked and brought back.
///
/// # Errors
///
/// Describes a session error or a resume that diverges.
pub fn probe_snapshot(l: &mut Layers, tracer: &mut Tracer) -> Result<(), String> {
    let profile = TraceProfile::by_name("qsort").ok_or("qsort profile missing")?;
    let trace = profile
        .generate(7, 2 * SNAPSHOT_RECORDS)
        .map_err(|e| e.to_string())?;
    let (head, tail) = trace.split_at(SNAPSHOT_RECORDS);
    let (mut ck_ns, mut rs_ns, mut bytes, mut n) = (0u128, 0u128, 0usize, 0usize);
    for arch in Architecture::all_paper() {
        let spec = SessionSpec::tiny(arch).epoch_cycles(TENANT_EPOCH_CYCLES);
        let mut session = Session::open(spec.clone()).map_err(|e| e.to_string())?;
        session.feed(head).map_err(|e| e.to_string())?;
        let mut container = Vec::new();
        for _ in 0..SNAPSHOT_REPS {
            let span = tracer.enter("session.checkpoint", arch.slug());
            let start = std::time::Instant::now();
            container = session.checkpoint().map_err(|e| e.to_string())?;
            ck_ns += start.elapsed().as_nanos();
            tracer.exit(span);
            bytes += container.len();
            n += 1;
        }
        let mut resumed = None;
        for _ in 0..SNAPSHOT_REPS {
            let span = tracer.enter("session.resume", arch.slug());
            let start = std::time::Instant::now();
            resumed = Some(Session::resume(spec.clone(), &container).map_err(|e| e.to_string())?);
            rs_ns += start.elapsed().as_nanos();
            tracer.exit(span);
        }
        let mut resumed = resumed.ok_or("no resume ran")?;
        resumed.feed(tail).map_err(|e| e.to_string())?;
        session.feed(tail).map_err(|e| e.to_string())?;
        let a = session.finish().map_err(|e| e.to_string())?;
        let b = resumed.finish().map_err(|e| e.to_string())?;
        if format!("{a:#?}") != format!("{b:#?}") {
            return Err(format!("{}: resumed session diverged", arch.slug()));
        }
    }
    l.snapshot_checkpoint_ms = ratio(ck_ns as f64, n as f64) / 1e6;
    l.snapshot_resume_ms = ratio(rs_ns as f64, n as f64) / 1e6;
    l.snapshot_bytes = ratio(bytes as f64, n as f64);
    Ok(())
}

/// Times what a wire `feed` frame costs before it reaches the service:
/// `womd::json::parse` of the control line plus
/// `decode_records_into` of its payload.
///
/// # Errors
///
/// Describes a parse failure.
pub fn probe_wire(l: &mut Layers, tracer: &mut Tracer) -> Result<(), String> {
    let profile = TraceProfile::by_name("qsort").ok_or("qsort profile missing")?;
    let batch = profile
        .generate(11, WIRE_BATCH)
        .map_err(|e| e.to_string())?;
    let mut payload = Vec::new();
    encode_records_into(&batch, &mut payload);
    let frame = format!(
        "{{\"op\":\"feed\",\"session\":\"t0\",\"bytes\":{}}}",
        payload.len()
    );
    let mut records = Vec::with_capacity(WIRE_BATCH);
    let mut decoded = 0usize;
    let span = tracer.enter("wire.decode", "");
    let start = std::time::Instant::now();
    for _ in 0..WIRE_REPS {
        let json = womd::json::parse(&frame).map_err(|e| e.to_string())?;
        let bytes = json
            .get("bytes")
            .and_then(womd::json::Json::as_u64)
            .unwrap_or(0);
        records.clear();
        decoded += decode_records_into(&payload[..bytes as usize], 0, &mut records)
            .map_err(|e| e.to_string())?;
    }
    let ns = start.elapsed().as_nanos() as f64;
    tracer.exit(span);
    if records != batch {
        return Err("wire probe decoded a different batch".to_string());
    }
    l.wire_decode_ns_per_record = ratio(ns, decoded as f64);
    Ok(())
}
