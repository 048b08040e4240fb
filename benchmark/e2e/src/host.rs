//! The checkout and the machine: building the programs under test and
//! describing where a result was measured.

use crate::json::{f, obj, s, u};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The programs under test and where the benchmark may write.
pub struct Checkout {
    pub dtrctl: PathBuf,
    pub dtrd: PathBuf,
    /// `benchmark/out`, the only directory the benchmark writes to
    /// (besides the cargo target directory).
    pub out: PathBuf,
    target: PathBuf,
}

fn cargo_build(manifest: &str, packages: &[&str], target: &Path) -> Result<(), String> {
    let mut cmd = Command::new("cargo");
    cmd.args(["build", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", manifest])
        .arg("--target-dir")
        .arg(target);
    for p in packages {
        cmd.args(["-p", p]);
    }
    let status = cmd.status().map_err(|e| format!("cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build of {manifest} failed ({status})"))
    }
}

impl Checkout {
    /// Builds the release binaries from the checkout in the working
    /// directory. The target directory is `CARGO_TARGET_DIR` when set,
    /// else the repository's own `target/`.
    pub fn build() -> Result<Checkout, String> {
        let root = std::env::current_dir().map_err(|e| e.to_string())?;
        if !root.join("crates/cli/Cargo.toml").is_file() {
            return Err(format!(
                "{} is not the repository root: run the benchmark from there",
                root.display()
            ));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        cargo_build("Cargo.toml", &["dtr-cli", "dtr-daemon"], &target)?;
        let out = root.join("benchmark/out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        Ok(Checkout {
            dtrctl: target.join("release/dtrctl"),
            dtrd: target.join("release/dtrd"),
            out,
            target,
        })
    }

    /// Builds the in-process layer benchmark and returns its binary.
    pub fn build_layers(&self) -> Result<PathBuf, String> {
        cargo_build("benchmark/layers/Cargo.toml", &[], &self.target)?;
        Ok(self.target.join("release/dtr-bench-layers"))
    }
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// UTC timestamp `YYYY-MM-DDTHH:MM:SSZ` (civil-from-days, no dependency).
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Where and when a result was measured. `noisy` is set when the 1-min
/// load average at the start exceeds half the cores: other work on the
/// box then competes with the two-process workloads.
pub fn describe() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = first_line(Command::new("git").args(["rev-parse", "--short", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string());
    let rustc =
        first_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".to_string());
    obj([
        ("commit", s(&commit)),
        ("date", s(&utc_now())),
        ("rustc", s(&rustc)),
        ("nproc", u(nproc)),
        ("cpu", s(&cpu)),
        ("loadavg_1m", f(loadavg)),
        ("noisy", Value::Bool(loadavg > nproc as f64 / 2.0)),
    ])
}

#[cfg(test)]
mod tests {
    #[test]
    fn utc_timestamp_has_the_iso_shape() {
        let t = super::utc_now();
        assert_eq!(t.len(), 20, "{t}");
        assert!(t.ends_with('Z') && t.as_bytes()[10] == b'T', "{t}");
        assert!(t[..4].parse::<u32>().unwrap() >= 2024, "{t}");
    }
}
