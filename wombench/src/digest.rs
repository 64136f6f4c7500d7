//! Expected-output table: one FNV-1a digest of the `{:#?}`-printed
//! [`RunMetrics`] per (workload, seconds, table seed, case or tenant),
//! the same digest the service's `Finished` event carries.
//!
//! The table is `digests.tsv` beside this package's manifest and is
//! rewritten by the `regen-digests` binary. A run whose key is absent
//! from the table fails; nothing passes unchecked.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use wom_pcm::RunMetrics;
use womd::service::fnv1a;

/// Distinct trace sets the table covers: `--seed n` selects trace set
/// `n % TABLE_SEEDS`, so every seed a run is given maps into the table.
pub const TABLE_SEEDS: u64 = 16;

/// The `--seconds` value the committed table covers: `run_seconds` in
/// `BENCHMARK.json`. Any other value fails as a missing key.
pub const TABLE_SECONDS: u64 = 20;

/// The trace set a `--seed` selects.
#[must_use]
pub fn table_seed(seed: u64) -> u64 {
    seed % TABLE_SEEDS
}

/// Location of the committed table.
#[must_use]
pub fn table_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.tsv")
}

/// Digest of a run's final metrics, as `womd` computes it.
#[must_use]
pub fn digest(metrics: &RunMetrics) -> u64 {
    fnv1a(format!("{metrics:#?}").as_bytes())
}

/// Which table rows a run checks against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableKey<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// The run's `--seconds`.
    pub seconds: u64,
    /// [`table_seed`] of the run's `--seed`.
    pub table_seed: u64,
}

type Row = (String, u64, u64, String);

/// Parsed digest table.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DigestTable {
    rows: BTreeMap<Row, u64>,
}

/// Result of checking one case against the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The digest is the expected one.
    Match,
    /// The digest differs from the table.
    Mismatch {
        /// Table value.
        expected: u64,
        /// Computed value.
        got: u64,
    },
    /// The table has no entry for this case.
    Missing,
}

impl DigestTable {
    /// Parses the tab-separated table (`#` lines are comments).
    ///
    /// # Errors
    ///
    /// Describes the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rows = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("digests.tsv line {}: malformed row {line:?}", n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            let [workload, seconds, seed, case, hex] = f.as_slice() else {
                return Err(bad());
            };
            let seconds = seconds.parse().map_err(|_| bad())?;
            let seed = seed.parse().map_err(|_| bad())?;
            let value = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
            rows.insert(
                (workload.to_string(), seconds, seed, case.to_string()),
                value,
            );
        }
        Ok(Self { rows })
    }

    /// Reads and parses the table at `path`.
    ///
    /// # Errors
    ///
    /// Describes a missing or malformed file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read digest table {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Checks `got` for `case` under `key`.
    #[must_use]
    pub fn check(&self, key: TableKey<'_>, case: &str, got: u64) -> Verdict {
        let row = (
            key.workload.to_string(),
            key.seconds,
            key.table_seed,
            case.to_string(),
        );
        match self.rows.get(&row) {
            None => Verdict::Missing,
            Some(&expected) if expected == got => Verdict::Match,
            Some(&expected) => Verdict::Mismatch { expected, got },
        }
    }

    /// Adds or replaces one row.
    pub fn insert(&mut self, key: TableKey<'_>, case: &str, digest: u64) {
        self.rows.insert(
            (
                key.workload.to_string(),
                key.seconds,
                key.table_seed,
                case.to_string(),
            ),
            digest,
        );
    }

    /// Rows in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table in its file format, rows in key order.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Expected FNV-1a digests of {:#?}-printed RunMetrics; regenerate with\n\
             # cargo run --release --manifest-path wombench/Cargo.toml --bin regen-digests\n\
             # workload\tseconds\ttable_seed\tcase\tdigest\n",
        );
        for ((workload, seconds, seed, case), value) in &self.rows {
            let _ = writeln!(out, "{workload}\t{seconds}\t{seed}\t{case}\t{value:016x}");
        }
        out
    }
}

/// Attempted and failed operations of a run, with a reason per failure.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Operations attempted (cases, batches, tenant finishes).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Counts one successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Counts one operation checked against the table.
    pub fn check(&mut self, table: &DigestTable, key: TableKey<'_>, case: &str, got: u64) {
        match table.check(key, case, got) {
            Verdict::Match => self.ok(),
            Verdict::Mismatch { expected, got } => self.fail(format!(
                "{} seconds={} table_seed={} case {case}: digest {got:016x}, expected {expected:016x}",
                key.workload, key.seconds, key.table_seed
            )),
            Verdict::Missing => self.fail(format!(
                "{} seconds={} table_seed={} case {case}: no expected digest in the table \
                 (regenerate it with regen-digests)",
                key.workload, key.seconds, key.table_seed
            )),
        }
    }

    /// Whether every operation succeeded.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: TableKey<'static> = TableKey {
        workload: "sweep-idle",
        seconds: 10,
        table_seed: 3,
    };

    #[test]
    fn table_round_trips_through_its_file_format() {
        let mut t = DigestTable::default();
        t.insert(KEY, "qsort/wcpcm", 0xdead_beef);
        let back = DigestTable::parse(&t.render()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.check(KEY, "qsort/wcpcm", 0xdead_beef), Verdict::Match);
    }

    #[test]
    fn mismatch_and_missing_rows_fail_the_run() {
        let mut t = DigestTable::default();
        t.insert(KEY, "qsort/wcpcm", 1);
        let mut out = Outcome::default();
        out.check(&t, KEY, "qsort/wcpcm", 1);
        assert!(out.correct());
        out.check(&t, KEY, "qsort/wcpcm", 2);
        assert_eq!(
            t.check(KEY, "qsort/wcpcm", 2),
            Verdict::Mismatch {
                expected: 1,
                got: 2
            }
        );
        assert!(!out.correct());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(out.problems[0].contains("expected 0000000000000001"));

        // A seconds value (or seed) the table does not cover fails loudly.
        let mut other = Outcome::default();
        let uncovered = TableKey { seconds: 7, ..KEY };
        other.check(&t, uncovered, "qsort/wcpcm", 1);
        assert!(!other.correct());
        assert_eq!(t.check(uncovered, "qsort/wcpcm", 1), Verdict::Missing);
    }

    #[test]
    fn every_seed_maps_into_the_table() {
        assert_eq!(table_seed(0), 0);
        assert_eq!(table_seed(TABLE_SEEDS + 5), 5);
        assert!(table_seed(u64::MAX) < TABLE_SEEDS);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(DigestTable::parse("sweep-idle\t10\t0\tcase").is_err());
        assert!(DigestTable::parse("sweep-idle\tx\t0\tcase\t00").is_err());
        assert!(DigestTable::parse("# comment only\n").unwrap().is_empty());
    }

    #[test]
    fn an_outcome_with_nothing_attempted_is_not_correct() {
        assert!(!Outcome::default().correct());
    }
}
