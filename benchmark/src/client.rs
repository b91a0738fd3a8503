//! A closed-loop client of `msfu serve`: one session pipe, one request in
//! flight, the next sent only after the previous response arrived.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Session {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Session {
    /// Spawns `msfu serve --workers <workers> --cache-dir <cache_dir>`. Each
    /// process of the tree computes on one thread, so the pool uses
    /// `workers` threads while it shards a job.
    pub fn spawn(
        msfu: &Path,
        workers: usize,
        cache_dir: &Path,
        log: &Path,
    ) -> std::io::Result<Session> {
        let log = std::fs::File::create(log)?;
        let mut child = Command::new(msfu)
            .arg("serve")
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--cache-dir")
            .arg(cache_dir)
            .env("RAYON_NUM_THREADS", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Session {
            child,
            stdin: Some(stdin),
            stdout,
        })
    }

    /// Sends one request line and waits for its response line (progress
    /// lines are skipped). Returns the client-observed latency.
    pub fn call(&mut self, line: &str) -> std::io::Result<(Duration, String)> {
        let stdin = self.stdin.as_mut().expect("session is open");
        let start = Instant::now();
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let mut buf = String::new();
        loop {
            buf.clear();
            if self.stdout.read_line(&mut buf)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "serve closed its output before responding",
                ));
            }
            if buf.starts_with(r#"{"type":"response""#) {
                return Ok((start.elapsed(), buf.trim_end().to_string()));
            }
        }
    }

    /// Peak resident memory of the serve process and its workers, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let root = self.child.id();
        let mut total_kb = vm_hwm_kb(root);
        for pid in descendants(root) {
            total_kb += vm_hwm_kb(pid);
        }
        total_kb as f64 / 1024.0
    }

    /// Closes the session input and waits for serve (which reaps its
    /// workers) to exit.
    pub fn close(mut self) -> std::io::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "msfu serve exited with {status}"
            )))
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.stdin.is_none() {
            return;
        }
        // An abandoned session (an error path): close its input so serve
        // shuts its workers down and exits; kill the tree if it does not.
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for pid in descendants(self.child.id()) {
            let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a process in kB (0 when it cannot be read).
pub fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Every live descendant of `root`, from the parent links in `/proc`.
fn descendants(root: u32) -> Vec<u32> {
    let mut parents: Vec<(u32, u32)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for entry in entries.flatten() {
            let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
                continue;
            };
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                continue;
            };
            // The command name may hold spaces; the fields after it do not.
            let Some(after) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
                continue;
            };
            if let Some(ppid) = after.split_whitespace().nth(1).and_then(|p| p.parse().ok()) {
                parents.push((pid, ppid));
            }
        }
    }
    let mut found = vec![root];
    let mut i = 0;
    while i < found.len() {
        let parent = found[i];
        found.extend(
            parents
                .iter()
                .filter(|(_, p)| *p == parent)
                .map(|(pid, _)| *pid),
        );
        i += 1;
    }
    found.remove(0);
    found
}
