//! Communicator backends: how a coordinator reaches its worker pool.
//!
//! The split mirrors MPI-style launchers: *what* the coordinator says to a
//! worker (NDJSON serve-session lines) is fixed by the protocol, while *how*
//! the bytes move is a backend choice behind [`connect`]:
//!
//! * [`ClusterBackend::LocalThreads`] — each worker is an in-process thread
//!   running its own [`serve`](crate::serve) loop over channels. Zero
//!   process overhead; this is what unit tests use, and what keeps the
//!   cluster testable under `cargo test` (where `current_exe` is the test
//!   binary, not `msfu`).
//! * [`ClusterBackend::ChildProcess`] — each worker is a child `msfu serve`
//!   process over stdio pipes. This is what `msfu --workers N` spawns; a
//!   TCP backend would slot in beside these without touching the
//!   coordinator.
//!
//! Every backend funnels worker output into one shared [`WorkerEvent`]
//! channel (lines tagged with the worker's rank, plus a `Closed` marker when
//! a worker's output ends), and exposes a per-worker [`WorkerTx`] for
//! request/cancel lines. Worker death is detected uniformly as
//! [`WorkerEvent::Closed`], whatever the backend.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread;

use crate::faults::{FaultPlan, WorkerFaultSpec, ENV_WORKER_FAULT};
use crate::serve::{serve, ServeOptions};

/// Which communicator a coordinator uses to reach its workers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterBackend {
    /// In-process worker threads, each running its own serve loop over
    /// channels (the default, and the backend unit tests use).
    #[default]
    LocalThreads,
    /// One child `<exe> serve` process per worker, over stdio pipes.
    ChildProcess {
        /// The executable to spawn (normally `std::env::current_exe()`).
        exe: PathBuf,
    },
}

impl ClusterBackend {
    /// The backend's name as stamped under `perf.cluster.backend`.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterBackend::LocalThreads => "local-threads",
            ClusterBackend::ChildProcess { .. } => "child-process",
        }
    }
}

/// One line (or EOF) of worker output, tagged with the worker's rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEvent {
    /// One complete NDJSON line (a progress event or a response).
    Line(usize, String),
    /// The worker's output closed: it exited, crashed, or finished its
    /// session. A worker never speaks again after this.
    Closed(usize),
}

/// The coordinator's sending half of one worker connection.
pub trait WorkerTx: Send {
    /// Sends one NDJSON line (a request or a cancel) to the worker.
    ///
    /// # Errors
    ///
    /// Fails when the worker is gone (its input pipe closed); the
    /// coordinator then marks the worker dead and re-plans.
    fn send_line(&mut self, line: &str) -> io::Result<()>;

    /// Forcibly terminates the worker, when the backend can (a child
    /// process is killed; a thread worker merely stops being read — its
    /// input closes when the `WorkerTx` drops). Called by the supervisor
    /// when it declares a stalled worker dead, so a hung child does not
    /// outlive the session.
    fn kill(&mut self) {}
}

/// Connects `workers` workers of the given backend, funnelling all their
/// output into `events`. Each rank receives its slice of the fault plan.
///
/// # Errors
///
/// Fails when a child process cannot be spawned; `LocalThreads` is
/// infallible.
pub(crate) fn connect(
    backend: &ClusterBackend,
    workers: usize,
    plan: Option<&FaultPlan>,
    events: &mpsc::Sender<WorkerEvent>,
) -> io::Result<Vec<Box<dyn WorkerTx>>> {
    (0..workers)
        .map(|rank| {
            let fault = plan.map_or_else(WorkerFaultSpec::default, |p| p.worker_fault(rank));
            connect_rank(backend, rank, fault, events.clone())
        })
        .collect()
}

/// Connects a single worker at `rank` — what [`connect`] loops over, and
/// what the supervisor calls to respawn a replacement (respawns get an
/// empty fault spec: a replacement must be clean or recovery could loop).
pub(crate) fn connect_rank(
    backend: &ClusterBackend,
    rank: usize,
    fault: WorkerFaultSpec,
    events: mpsc::Sender<WorkerEvent>,
) -> io::Result<Box<dyn WorkerTx>> {
    match backend {
        ClusterBackend::LocalThreads => Ok(connect_thread(rank, fault, events)),
        ClusterBackend::ChildProcess { exe } => connect_child(exe, rank, fault, events),
    }
}

fn connect_thread(
    rank: usize,
    fault: WorkerFaultSpec,
    events: mpsc::Sender<WorkerEvent>,
) -> Box<dyn WorkerTx> {
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let options = ServeOptions::new().with_worker_fault(fault);
    thread::spawn(move || {
        let input = BufReader::new(ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        });
        let output = EventWriter {
            rank,
            events,
            buf: Vec::new(),
        };
        // The session result is irrelevant here: worker death of any kind
        // surfaces as `Closed` when `output` drops at the end of this
        // thread (panics included — unwinding drops it too).
        let _ = serve(input, output, &options);
    });
    Box::new(ChannelTx { tx })
}

fn connect_child(
    exe: &std::path::Path,
    rank: usize,
    fault: WorkerFaultSpec,
    events: mpsc::Sender<WorkerEvent>,
) -> io::Result<Box<dyn WorkerTx>> {
    let mut command = Command::new(exe);
    command
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        // Never let coordinator-level fault hooks leak into grandchildren.
        .env_remove(ENV_WORKER_FAULT);
    if !fault.is_empty() {
        command.env(ENV_WORKER_FAULT, fault.to_json());
    }
    let mut child = command.spawn()?;
    let stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");
    thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if events.send(WorkerEvent::Line(rank, line)).is_err() {
                break;
            }
        }
        let _ = events.send(WorkerEvent::Closed(rank));
    });
    Ok(Box::new(ChildTx { stdin, child }))
}

/// `Read` over an `mpsc` byte channel: the input half of a thread worker.
struct ChannelReader {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                // Sender dropped: the coordinator closed this worker's
                // input, which is EOF exactly like a closed pipe.
                Err(mpsc::RecvError) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// `Write` turning a thread worker's output into [`WorkerEvent::Line`]s,
/// announcing [`WorkerEvent::Closed`] when dropped (i.e. when the worker's
/// serve loop returns, however it returns).
struct EventWriter {
    rank: usize,
    events: mpsc::Sender<WorkerEvent>,
    buf: Vec<u8>,
}

impl Write for EventWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).take(nl).collect();
            let text = String::from_utf8_lossy(&line).into_owned();
            let _ = self.events.send(WorkerEvent::Line(self.rank, text));
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for EventWriter {
    fn drop(&mut self) {
        let _ = self.events.send(WorkerEvent::Closed(self.rank));
    }
}

/// Sending half of a thread worker: chunks of bytes over a channel.
struct ChannelTx {
    tx: mpsc::Sender<Vec<u8>>,
}

impl WorkerTx for ChannelTx {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.tx
            .send(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "worker thread exited"))
    }
}

/// Sending half of a child-process worker; reaps the child on drop.
struct ChildTx {
    stdin: ChildStdin,
    child: Child,
}

impl WorkerTx for ChildTx {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()
    }

    fn kill(&mut self) {
        // A stalled child declared dead must not linger past the session;
        // Drop's kill+wait still runs later, this just makes it immediate.
        let _ = self.child.kill();
    }
}

impl Drop for ChildTx {
    fn drop(&mut self) {
        // Idle workers exit on stdin EOF by themselves; kill() covers a
        // wedged one, and wait() reaps either way (no zombies).
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
