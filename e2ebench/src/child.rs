//! The `moche` child process: spawning, peak-memory readings from
//! `/proc`, and a guard that never leaves a process behind.

use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A running `moche` process. Dropping the guard kills and reaps it, so an
/// early return or a failed check cannot leak a daemon.
pub struct Moche {
    child: Child,
    pub launched: Instant,
}

impl Moche {
    /// Spawns `binary args...` with stdout piped (`log = None`) or written
    /// to the file `log`. Stderr is inherited so a crash explains itself.
    pub fn spawn(binary: &Path, args: &[String], log: Option<&Path>) -> Result<Self, String> {
        let stdout = match log {
            None => Stdio::piped(),
            Some(path) => Stdio::from(
                std::fs::File::create(path)
                    .map_err(|e| format!("create {}: {e}", path.display()))?,
            ),
        };
        let launched = Instant::now();
        let child = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        Ok(Self { child, launched })
    }

    pub fn id(&self) -> u32 {
        self.child.id()
    }

    pub fn take_stdout(&mut self) -> Option<ChildStdout> {
        self.child.stdout.take()
    }

    /// Peak resident set (`VmHWM`) in KiB, while the process is alive.
    pub fn vm_hwm_kib(&self) -> Option<u64> {
        vm_hwm_kib(self.child.id())
    }

    /// The exit status, if the process has already exited (never blocks).
    pub fn exited(&mut self) -> Option<ExitStatus> {
        self.child.try_wait().ok().flatten()
    }

    /// Waits up to `timeout` for a voluntary exit; kills on expiry.
    pub fn wait_for_exit(&mut self, timeout: Duration) -> Result<ExitStatus, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => {
                    self.kill();
                    return Err(format!("moche did not exit within {timeout:?}; killed"));
                }
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }

    /// Kills (if still running) and reaps.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Moche {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// `VmHWM` of process `pid` in KiB, read from `/proc/<pid>/status`.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A scratch directory inside the working directory (the benchmark reads
/// and writes nothing outside its checkout), removed on drop.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_lines() {
        let status = "Name:\tmoche\nVmPeak:\t  2000 kB\nVmHWM:\t   1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(1234));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(vm_hwm_kib(std::process::id()).is_some_and(|k| k > 0));
    }
}
