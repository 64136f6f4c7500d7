//! Host stamp printed with every result, so a baseline names the
//! machine and toolchain it was measured on.

use std::fs;
use std::path::Path;

/// What the result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` from the CPU description, or `unknown`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Kernel release, or `unknown`.
    pub kernel: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl HostStamp {
    /// Reads the stamp for the checkout rooted at `repo_root`.
    #[must_use]
    pub fn collect(repo_root: &Path) -> Self {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            rustc: env!("WOMBENCH_RUSTC").to_string(),
            kernel,
            commit: git_head(repo_root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The stamp as JSON object fields (no braces).
    #[must_use]
    pub fn json_fields(&self) -> String {
        format!(
            "\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"kernel\":\"{}\",\"commit\":\"{}\"",
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.kernel),
            escape(&self.commit)
        )
    }
}

/// Resolves `HEAD` from the checkout's `.git` directory without running
/// git (so nothing outside the checkout is consulted).
fn git_head(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)
                .map(|hash| hash.trim().to_string())
        })
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
