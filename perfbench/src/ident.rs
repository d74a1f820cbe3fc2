//! Run identification: what ran, where, and on which code. Printed with
//! every result so that figures from different hosts or commits can be
//! recognised and kept apart.

use std::fs;
use std::path::Path;
use std::process::Command;

/// A JSON object describing this run.
pub fn describe(workload: &str, seed: u64, trace: bool, extra: &[(&str, String)]) -> String {
    let mut fields = vec![
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("trace", trace.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("nproc", nproc().to_string()),
        ("l3", json_str(&l3_size())),
        ("rustc", json_str(&rustc_version())),
        ("git_commit", json_str(&git_commit())),
        ("source_digest", json_str(&source_digest())),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, json_str(v))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn l3_size() -> String {
    fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

fn git_commit() -> String {
    let root = repo_root().to_string_lossy().into_owned();
    command_line("git", &["-C", &root, "rev-parse", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".into())
}

/// FNV-1a over the paths and bytes of the repository's sources
/// (`Cargo.toml`, `Cargo.lock`, `crates/`): identifies the code under
/// test even where there is no git metadata.
fn source_digest() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in &files {
        if let Ok(rel) = f.strip_prefix(root) {
            eat(rel.to_string_lossy().as_bytes());
        }
        if let Ok(bytes) = fs::read(f) {
            eat(&bytes);
        }
    }
    format!("fnv1a:{h:016x} over {} files", files.len())
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        if let Ok(entries) = fs::read_dir(path) {
            for e in entries.flatten() {
                collect(&e.path(), out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Bytes this process has passed to `write`-family calls so far
/// (`wchar` in `/proc/self/io`), or 0 where the kernel does not say.
pub fn bytes_written() -> u64 {
    fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("wchar:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the
/// first line of `/proc/stat`: steal is time the hypervisor ran other
/// guests on this machine's CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
