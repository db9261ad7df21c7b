//! Where and on what a result was measured: host cores and CPU, source
//! revision, toolchain, seed and input sizes.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Provenance of one run as a JSON object.
pub fn provenance(seed: u64, inputs: &[(&str, u64)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("nproc".to_string(), Value::Int(nproc as i128)),
        ("cpu".into(), Value::Str(cpu_model())),
        ("git_rev".into(), Value::Str(git_rev())),
        (
            "source_digest".into(),
            Value::Str(source_digest(Path::new("."))),
        ),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        ("seed".into(), Value::Int(i128::from(seed))),
    ];
    fields.extend(
        inputs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Int(i128::from(*v)))),
    );
    serde_json::value_to_string(&Value::Obj(fields))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD`, or a note when the checkout is not a repository.
fn git_rev() -> String {
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    if rev.len() == 40 && rev.bytes().all(|b| b.is_ascii_hexdigit()) {
        rev
    } else {
        "unavailable (not a git checkout)".into()
    }
}

/// First line of a command's stdout, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and bytes of the sources the daemon is built
/// from (`Cargo.toml`, `Cargo.lock`, `crates/`), in path order: it names
/// the code under test when no git revision is available.
pub fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        let name = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in name.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
