//! The host tag printed with every result, so figures from different
//! machines, toolchains or sources are never compared silently.

use std::path::Path;

/// Where a set of figures was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD` when run from a git checkout, else `none`.
    pub commit: String,
    /// FNV-1a over the repository's crate sources, which identifies the
    /// code measured even where there is no git metadata.
    pub sources: String,
}

impl Host {
    /// Probes the current host; `root` is the repository checkout.
    pub fn probe(root: &Path) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("NANOBENCH_RUSTC").to_string(),
            commit: git_commit(root).unwrap_or_else(|| "none".into()),
            sources: format!("{:016x}", source_fingerprint(&root.join("crates"))),
        }
    }

    /// One line: `host nproc=2 cpu="…" rustc="…" commit=… sources=…`.
    pub fn describe(&self) -> String {
        format!(
            "host nproc={} cpu={:?} rustc={:?} commit={} sources={}",
            self.nproc, self.cpu, self.rustc, self.commit, self.sources
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, name)| name.trim().to_string())
}

fn git_commit(root: &Path) -> Option<String> {
    // Only ask git inside a checkout of its own: outside one, git would
    // walk up and report whatever repository encloses the directory.
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every file under `dir` (paths and bytes), visited in
/// sorted order so the fingerprint does not depend on directory order.
pub fn source_fingerprint(dir: &Path) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut stack = vec![dir.to_path_buf()];
    let mut files = Vec::new();
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    for path in files {
        if let Ok(rel) = path.strip_prefix(dir) {
            feed(rel.to_string_lossy().as_bytes());
        }
        if let Ok(bytes) = std::fs::read(&path) {
            feed(&bytes);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        assert_eq!(source_fingerprint(&here), source_fingerprint(&here));
        assert_ne!(
            source_fingerprint(&here),
            source_fingerprint(&here.join("missing"))
        );
    }

    #[test]
    fn describe_names_every_field() {
        let host = Host {
            nproc: 2,
            cpu: "cpu".into(),
            rustc: "rustc 1.0".into(),
            commit: "abc".into(),
            sources: "00".into(),
        };
        assert_eq!(
            host.describe(),
            "host nproc=2 cpu=\"cpu\" rustc=\"rustc 1.0\" commit=abc sources=00"
        );
    }
}
