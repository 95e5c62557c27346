//! Machine and build facts recorded with every result, so snapshots taken
//! on different hosts or builds are never compared blindly.

use std::fmt::Write as _;
use std::path::Path;

/// Facts about the host, the toolchain and the measured build.
#[derive(Debug, Clone)]
pub struct Facts {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD`, when the checkout is a git repository.
    pub git_commit: String,
    /// FNV-1a hash over the sources the benchmark builds, which identifies
    /// the code when the checkout carries no git metadata.
    pub source_hash: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// Whether integer overflow checks are compiled in (detected, not
    /// assumed).
    pub overflow_checks: bool,
    /// The `lto` setting of the benchmark's release profile.
    pub lto: String,
}

impl Facts {
    /// Gathers the facts for a checkout rooted at `root`.
    #[must_use]
    pub fn gather(root: &Path) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            rustc: command_line("rustc", &["--version"], root)
                .unwrap_or_else(|| "unknown".to_owned()),
            git_commit: if root.join(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"], root)
            } else {
                None
            }
            .unwrap_or_else(|| "unavailable (not a git checkout)".to_owned()),
            source_hash: source_hash(root),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            overflow_checks: overflow_checks_enabled(),
            lto: include_str!("../Cargo.toml")
                .lines()
                .find_map(|l| l.strip_prefix("lto = "))
                .unwrap_or("off")
                .trim_matches('"')
                .to_owned(),
        }
    }

    /// The facts as a JSON object.
    #[must_use]
    pub fn to_json(&self, seed: u64, workload: &str) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{seed},\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_commit\":{},\"source_hash\":{},\"profile\":{},\"overflow_checks\":{},\"lto\":{}}}",
            json_str(workload),
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_commit),
            json_str(&self.source_hash),
            json_str(self.profile),
            self.overflow_checks,
            json_str(&self.lto),
        )
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
}

/// First line of a command's stdout; the child is always waited for.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_owned)
}

fn overflow_checks_enabled() -> bool {
    let max = std::hint::black_box(u8::MAX);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panicked = std::panic::catch_unwind(|| std::hint::black_box(max + 1)).is_err();
    std::panic::set_hook(hook);
    panicked
}

/// FNV-1a over the path and contents of every file under the root
/// manifest, lockfile, `src/`, `crates/` and the benchmark's own `src/`,
/// visited in sorted order.
fn source_hash(root: &Path) -> String {
    let mut files = Vec::new();
    for rel in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"] {
        collect_files(&root.join(rel), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        feed(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        if let Ok(bytes) = std::fs::read(f) {
            feed(&bytes);
        }
    }
    format!("fnv1a:{h:016x} over {} files", files.len())
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
