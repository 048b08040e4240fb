//! Child processes: spawn-to-exit time and peak resident set.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// `VmHWM` of a live process in kB, from `/proc/<pid>/status`. The
/// kernel keeps the high-water mark, so the last reading before a
/// process exits is its peak up to one poll interval.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub struct Finished {
    pub status: ExitStatus,
    pub wall_s: f64,
    pub peak_rss_kb: u64,
}

const POLL: Duration = Duration::from_millis(2);

/// Waits for `child`, sampling its peak resident set while it runs.
/// Kills it and fails after `limit`.
pub fn wait(child: &mut Child, started: Instant, limit: Duration) -> io::Result<Finished> {
    let mut peak = 0;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Finished {
                status,
                wall_s: started.elapsed().as_secs_f64(),
                peak_rss_kb: peak,
            });
        }
        if let Some(kb) = peak_rss_kb(child.id()) {
            peak = peak.max(kb);
        }
        if started.elapsed() > limit {
            child.kill()?;
            child.wait()?;
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("child {} exceeded {limit:?}", child.id()),
            ));
        }
        std::thread::sleep(POLL);
    }
}

/// Runs `cmd` to completion with its output captured in `log` (stdout
/// and stderr interleaved), timing spawn to exit.
pub fn run(cmd: &mut Command, log: &Path, limit: Duration) -> io::Result<Finished> {
    let out = File::create(log)?;
    cmd.stdin(Stdio::null())
        .stdout(out.try_clone()?)
        .stderr(out);
    let started = Instant::now();
    let mut child = cmd.spawn()?;
    wait(&mut child, started, limit)
}
