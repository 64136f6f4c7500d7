//! Regenerates `digests.tsv`, the table of expected metrics digests
//! every benchmark run is checked against.
//!
//! `regen-digests` recomputes every (workload, trace set) the benchmark
//! can run at `--seconds` [`TABLE_SECONDS`], on as many worker threads
//! as the host has cores, and rewrites the table. Run it only when a
//! change is meant to alter simulated results.

use std::process::ExitCode;
use std::sync::Mutex;

use wombench::digest::{self, DigestTable, TableKey, TABLE_SECONDS, TABLE_SEEDS};
use wombench::{service, sim, Workload};

fn expected((workload, seed): (Workload, u64)) -> Result<Vec<(String, u64)>, String> {
    match workload {
        Workload::ServiceSkewed => service::expected(TABLE_SECONDS, seed),
        w => sim::expected(w, TABLE_SECONDS, seed),
    }
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: regen-digests");
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut jobs = Vec::new();
    for workload in Workload::ALL {
        for seed in 0..TABLE_SEEDS {
            jobs.push((workload, seed));
        }
    }
    let queue = Mutex::new(jobs.into_iter());
    let table = Mutex::new(DigestTable::default());
    let failure = Mutex::new(None::<String>);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let Some(job) = queue.lock().expect("job queue lock").next() else {
                    return;
                };
                match expected(job) {
                    Ok(rows) => {
                        let key = TableKey {
                            workload: job.0.name(),
                            seconds: TABLE_SECONDS,
                            table_seed: job.1,
                        };
                        let mut t = table.lock().expect("table lock");
                        for (case, d) in rows {
                            t.insert(key, &case, d);
                        }
                        eprintln!("{} trace set {}: done", job.0.name(), job.1);
                    }
                    Err(e) => {
                        *failure.lock().expect("failure lock") = Some(e);
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("failure lock") {
        eprintln!("regen-digests: {e}");
        return ExitCode::FAILURE;
    }
    let table = table.into_inner().expect("table lock");
    let path = digest::table_path();
    if let Err(e) = std::fs::write(&path, table.render()) {
        eprintln!("regen-digests: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} digests to {}", table.len(), path.display());
    ExitCode::SUCCESS
}
